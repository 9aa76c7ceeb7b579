"""Tests of the benchmark itself; run with

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from reference import brute_force_ranks  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_self_check_runs_every_workload_and_validates_schema():
    proc = _run("--self-check")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "self_check": "ok", "problems": 0}
    for workload in ("paper_step", "synthetic_fit", "retrieve_clotho"):
        assert f"== {workload} seed=0 scale=tiny trace=1" in proc.stdout


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper_step", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.names = ["outer", "inner", "leaf", "inner"]
    tracer.parents = [-1, 0, 1, 0]
    tracer.starts = [0.0, 1.0, 1.5, 5.0]
    tracer.ends = [10.0, 4.0, 2.0, 6.0]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.5, "leaf": 0.5}


def test_tracer_wraps_and_restores_methods():
    class Box:
        def value(self):
            return 3

    tracer = Tracer()
    original = Box.__dict__["value"]
    seen = []
    tracer.patch_method(Box, "value", "box.value",
                        after=lambda result, args: seen.append(result))
    assert Box().value() == 3 and tracer.names == ["box.value"]
    assert seen == [3]
    tracer.uninstall()
    assert Box.__dict__["value"] is original


def test_patcher_hooks_every_alias_without_spans_and_restores():
    import audioret
    import audioret.bench
    from audioret.models import similarity

    original = similarity.combine_scores
    patcher = Patcher()
    patcher.patch_function(similarity, "combine_scores",
                           after=lambda result, args: None)
    try:
        assert similarity.combine_scores is not original
        assert audioret.bench.combine_scores is similarity.combine_scores
    finally:
        patcher.uninstall()
    assert similarity.combine_scores is original
    assert audioret.bench.combine_scores is original
    assert not hasattr(patcher, "names")


def test_brute_force_ranks_break_ties_by_id():
    values = np.array([[0.5, 0.9, 0.5],
                       [0.1, 0.2, 0.3]])
    ranks = brute_force_ranks(values, ["q0", "q1"], ["b", "a", "c"],
                              {"q0": {"c"}, "q1": {"b", "a"}})
    # q0: "a" scores higher; "b" ties with "c" and sorts first -> rank 3
    # q1: best of "a" (rank 2) and "b" (rank 3)
    assert ranks.tolist() == [3, 2]
