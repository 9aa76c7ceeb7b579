"""tools/bench_pairs.py's summary of alternating parent/change runs, and a
guard against definitions in src/ that only tests reach."""

import ast
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

GATED = [{"name": "work_s", "better": "lower"},
         {"name": "items_per_s", "better": "higher"}]


def _record(seed, work, items, step, failed=0):
    """A saved perfbench record, as run.py writes it, cut to what the
    summary reads."""
    return {"seed": seed,
            "machine": {"cores": 2, "usable_cores": 2, "blas_threads": 2,
                        "python": "3.11", "numpy": "2.4", "blas": "openblas",
                        "loadavg_at_start": [0.1]},
            "detail": {"step_s.ce": {"value": step, "unit": "s"}},
            "result": {"correct": failed == 0, "attempted": 10,
                       "failed": failed,
                       "metrics": {"work_s": {"value": work, "unit": "s"},
                                   "items_per_s": {"value": items,
                                                   "unit": "1/s"}}}}


def test_summary_of_canned_pairs():
    parent = [_record(1, 1.0, 10.0, 0.5), _record(2, 2.0, 20.0, 0.6),
              _record(3, 3.0, 30.0, 0.7), _record(4, 4.0, 40.0, 0.8)]
    change = [_record(1, 0.5, 12.0, 0.4), _record(2, 2.5, 18.0, 0.5),
              _record(3, 1.5, 33.0, 0.6), _record(4, 3.5, 41.0, 0.7, failed=1)]
    out = bench_pairs.summarize(parent, change, GATED)
    before, after = out["parent"], out["change"]
    assert before["seeds"] == [1, 2, 3, 4]
    assert before["machine"] == {"cores": 2, "usable_cores": 2,
                                 "blas_threads": 2, "python": "3.11",
                                 "numpy": "2.4", "blas": "openblas"}
    assert before["end_to_end"]["work_s"] == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4, "unit": "s"}
    assert before["detail"]["step_s.ce"]["median"] == pytest.approx(0.65)
    assert after["values"]["work_s"] == [0.5, 2.5, 1.5, 3.5]
    assert (before["attempted"], before["failed"], before["correct"]) == \
        (40, 0, True)
    assert (after["failed"], after["correct"]) == (1, False)
    assert out["pairs"]["work_s"] == {
        "change_wins": 3, "pairs": 4, "ratio_of_medians": 2.0 / 2.5,
        "parent_iqr": 1.5, "median_gap": 0.5, "claim_rule": False,
        "within_bound": None, "resolved": None}
    # higher is better: the change won pairs 1, 3 and 4
    assert out["pairs"]["items_per_s"]["change_wins"] == 3
    assert out["pairs"]["items_per_s"]["ratio_of_medians"] == \
        pytest.approx(25.5 / 25.0)


def _sides(parent_work, change_work):
    """Canned records of both sides, pair i being the i-th values."""
    return ([_record(i, w, 1.0, 0.5) for i, w in enumerate(parent_work)],
            [_record(i, w, 1.0, 0.5) for i, w in enumerate(change_work)])


BOUNDED = [{"name": "work_s", "better": "lower", "bound": 0.25},
           {"name": "items_per_s", "better": "higher", "bound": 0.25}]


def test_claim_rule_met():
    """9 wins in 10 pairs and a median gap beyond the parent's IQR."""
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]
    change = [0.8] * 9 + [1.2]
    pairs = bench_pairs.summarize(*_sides(parent, change), BOUNDED)["pairs"]
    work = pairs["work_s"]
    assert work["change_wins"] == 9 and work["median_gap"] > work["parent_iqr"]
    assert work["claim_rule"] and work["within_bound"]
    # items_per_s did not move: no claim, and within its bound
    assert not pairs["items_per_s"]["claim_rule"]
    assert pairs["items_per_s"]["within_bound"]


def test_claim_rule_not_met():
    """8 wins in 10 fail the rule even with a large gap, and 10 wins fail
    it when the gap is inside the parent's IQR."""
    parent = [1.0, 1.5, 0.5, 1.2, 0.8, 1.0, 1.5, 0.5, 1.2, 0.8]
    wide = bench_pairs.summarize(*_sides(parent, [p - 0.01 for p in parent]),
                                 BOUNDED)["pairs"]["work_s"]
    assert wide["change_wins"] == 10 and not wide["claim_rule"]
    few = bench_pairs.summarize(*_sides([1.0] * 10, [0.5] * 8 + [2.0] * 2),
                                BOUNDED)["pairs"]["work_s"]
    assert few["change_wins"] == 8 and few["median_gap"] > few["parent_iqr"]
    assert not few["claim_rule"]


def test_regression_beyond_the_bound():
    """A median 30 % worse breaks a 25 % bound, in either direction of
    better; 20 % worse stays within it."""
    slower = bench_pairs.summarize(*_sides([1.0] * 10, [1.3] * 10),
                                   BOUNDED)["pairs"]
    assert slower["work_s"]["within_bound"] is False
    assert not slower["work_s"]["claim_rule"]
    parent = [_record(i, 1.0, 100.0, 0.5) for i in range(10)]
    for rate, within in ((70.0, False), (80.0, True)):
        change = [_record(i, 1.0, rate, 0.5) for i in range(10)]
        pairs = bench_pairs.summarize(parent, change, BOUNDED)["pairs"]
        assert pairs["items_per_s"]["within_bound"] is within
    assert bench_pairs.summarize(*_sides([1.0] * 10, [1.2] * 10),
                                 BOUNDED)["pairs"]["work_s"]["within_bound"]


def test_spread_beyond_the_bound_is_unresolved():
    """A parent IQR wider than bound x median leaves a metric unresolved,
    unless every change run beats every parent run; an IQR within it
    resolves the metric whichever way it moved."""
    parent = [1.0, 0.6, 1.4, 0.7, 1.3, 1.0, 0.6, 1.4, 0.7, 1.3]  # IQR 0.6
    overlap = bench_pairs.summarize(*_sides(parent, [0.5] + parent[1:]),
                                    BOUNDED)["pairs"]["work_s"]
    assert overlap["parent_iqr"] > 0.25 * 1.0
    assert overlap["within_bound"] and overlap["resolved"] is False
    beats = bench_pairs.summarize(*_sides(parent, [0.55] * 10),
                                  BOUNDED)["pairs"]["work_s"]
    assert beats["resolved"] is True
    # higher is better: every change rate above every parent rate
    rates = [_record(i, 1.0, r, 0.5) for i, r in enumerate(
        [100.0, 60.0, 140.0, 70.0, 130.0] * 2)]
    faster = [_record(i, 1.0, 141.0, 0.5) for i in range(10)]
    slower = [_record(i, 1.0, 59.0, 0.5) for i in range(10)]
    assert bench_pairs.summarize(rates, faster, BOUNDED)[
        "pairs"]["items_per_s"]["resolved"] is True
    assert bench_pairs.summarize(rates, slower, BOUNDED)[
        "pairs"]["items_per_s"]["resolved"] is False
    # a steady parent resolves a metric, also one that got worse
    steady = bench_pairs.summarize(*_sides([1.0, 1.1, 0.9, 1.0] * 2 + [1.0] * 2,
                                           [1.3] * 10), BOUNDED)["pairs"]
    assert steady["work_s"]["resolved"] is True
    assert steady["work_s"]["within_bound"] is False


def test_checkouts_at_paths_of_different_lengths_refused(tmp_path, capsys,
                                                         monkeypatch):
    """The tool exits naming both lengths before it runs anything."""
    (tmp_path / "p").mkdir()
    (tmp_path / "longer").mkdir()
    monkeypatch.setattr(bench_pairs, "run_one",
                        lambda *a: pytest.fail("ran a checkout"))
    parent, change = (tmp_path / "p").resolve(), (tmp_path / "longer").resolve()
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "paper_step", "--seeds", "1",
                          "--label", "x"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert (f"parent {len(str(parent))}, change {len(str(change))}" in err
            and "differ in length" in err)


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError, match="same number"):
        bench_pairs.summarize([_record(1, 1.0, 1.0, 1.0)], [], GATED)


def test_seed_ranges():
    assert bench_pairs.parse_seeds("5-7,9") == [5, 6, 7, 9]


def _imports(tree, module: str | None, is_package: bool, modules):
    """The file's names bound to an audioret module, local name -> module,
    and its names imported from one, local name -> (module, name)."""
    bound, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: from the module's package upwards
                package = module.split(".")
                package = package[:len(package) - node.level + is_package]
                base = ".".join(package + ([base] if base else []))
            for alias in node.names:
                local = alias.asname or alias.name
                if f"{base}.{alias.name}" in modules:
                    bound[local] = f"{base}.{alias.name}"
                elif base in modules:
                    imported[local] = (base, alias.name)
    return bound, imported


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def test_every_src_definition_is_named_outside_tests():
    """Each top-level function and class in src/ is used outside its own
    definition by src/, demos/, perfbench/, tools/ or the frozen
    acceptance suite, so no route in src/ is reached only by the other
    tests. A use is a bare name in the defining module or in a file that
    imports it by name (through a package's re-export too), or `x.name`
    where `x` is bound to the defining module; a word in a string or
    comment, or an unrelated `np.name`, is none."""
    root = _PATH.parents[1]
    src = root / "src"
    files = [path for top in ("src", "demos", "perfbench", "tools")
             for path in sorted((root / top).rglob("*.py"))
             if "tests" not in path.relative_to(root).parts]
    files.append(root / "tests" / "test_acceptance.py")
    modules = {}  # dotted module name -> (path, parsed tree)
    for path in files:
        if path.is_relative_to(src):
            parts = list(path.relative_to(src).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = (path, ast.parse(path.read_text()))
    defs = {(name, node.name): node for name, (_, tree) in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}
    reexports = {name: _imports(tree, name, path.name == "__init__.py",
                                modules)[1]
                 for name, (path, tree) in modules.items()}

    def origin(module: str, name: str):
        """The (module, name) a module's name is defined as, following
        re-exports."""
        seen = set()
        while (module, name) not in defs and name in reexports[module]:
            if (module, name) in seen:
                break
            seen.add((module, name))
            module, name = reexports[module][name]
        return module, name

    uses = {key: 0 for key in defs}
    for path in files:
        own = next((name for name, (p, _) in modules.items() if p == path),
                   None)
        tree = (modules[own][1] if own is not None
                else ast.parse(path.read_text()))
        bound, imported = _imports(tree, own, path.name == "__init__.py",
                                   modules)
        inside = {(node.lineno, node.end_lineno): node.name
                  for node in tree.body if (own, getattr(node, "name", None))
                  in defs}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    key = origin(*imported[node.id])
                elif own is not None and (own, node.id) in defs:
                    key = (own, node.id)
                    if any(first <= node.lineno <= last and name == node.id
                           for (first, last), name in inside.items()):
                        continue  # a definition naming itself
                else:
                    continue
            elif isinstance(node, ast.Attribute):
                head = _dotted(node.value)
                if head is None:
                    continue
                first, _, rest = head.partition(".")
                module = ".".join(filter(None, [bound.get(first), rest]))
                if first not in bound or module not in modules:
                    continue
                key = origin(module, node.attr)
            else:
                continue
            if key in uses:
                uses[key] += 1
    unused = [f"{modules[module][0].relative_to(root)}:{node.lineno} {name}"
              for (module, name), node in defs.items() if not uses[(module, name)]]
    assert unused == []
