"""tools/bench_pairs.py's summary of alternating parent/change runs."""

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
        "parent_iqr": 1.5, "median_gap": 0.5}
    # higher is better: the change won pairs 1, 3 and 4
    assert out["pairs"]["items_per_s"]["change_wins"] == 3
    assert out["pairs"]["items_per_s"]["ratio_of_medians"] == \
        pytest.approx(25.5 / 25.0)


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError, match="same number"):
        bench_pairs.summarize([_record(1, 1.0, 1.0, 1.0)], [], GATED)


def test_seed_ranges():
    assert bench_pairs.parse_seeds("5-7,9") == [5, 6, 7, 9]
