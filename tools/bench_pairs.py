"""Alternating parent/change pairs of the benchmark, summarized.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload paper_step --seeds 170201-170210 --label pr17

For each seed, runs `python3 perfbench/run.py --workload W --seed S
--trace 0` once in each checkout, the parent first in even pairs and the
change first in odd ones, and reads the record each run saves under its
checkout's `.perfbench_out/`. Writes `BENCH_<label>.json` in the current
directory: per workload and side the seeds, the machine, failed and
attempted operations, medians and quartiles (numpy's linear percentiles)
of every end-to-end and detail metric, and every run's end-to-end values;
per end-to-end metric, the pairs the change won, the ratio of medians,
the parent's interquartile range, the gap between the medians and two
verdicts: `claim_rule`, whether the change won at least 9 pairs in 10 and
its median is better than the parent's by more than the parent's
interquartile range, and `within_bound`, whether its median is worse than
the parent's by no more than the metric's bound in BENCHMARK.json; and
`resolved`, false when the parent's interquartile range exceeds the bound
times the parent's median, so that its runs spread too widely for the
bound to tell, unless every change run beats every parent run. An
existing file keeps its other workloads and sections.

Both checkouts must sit at absolute paths of equal length, since a
workload's peak RSS moves with the checkout's path; the tool refuses
others before any run starts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

MACHINE_KEYS = ("cores", "usable_cores", "blas_threads", "python", "numpy",
                "blas")


def stats(values: list[float], unit: str) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "n": len(values), "unit": unit}


def side_summary(records: list[dict]) -> dict:
    """One side's runs: seeds, operations, machine, metric statistics and
    the end-to-end values in run order."""
    runs = [r["result"]["metrics"] for r in records]
    return {
        "seeds": [r["seed"] for r in records],
        "failed": sum(r["result"]["failed"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "machine": {k: records[0]["machine"].get(k) for k in MACHINE_KEYS},
        "correct": all(r["result"]["correct"] for r in records),
        "end_to_end": block_of(runs),
        "detail": block_of([r["detail"] for r in records]),
        "values": {name: [round(run[name]["value"], 4) for run in runs]
                   for name in runs[0]},
    }


def block_of(runs: list[dict]) -> dict:
    """Statistics of each metric over the runs' {name: {value, unit}}."""
    return {name: stats([run[name]["value"] for run in runs], entry["unit"])
            for name, entry in runs[0].items()}


def summarize(parent: list[dict], change: list[dict], gated: list[dict]) -> dict:
    """Both sides of a workload from its saved records, pair i being
    parent[i] and change[i], and per gated end-to-end metric
    ({name, better}, and its relative `bound` where it has one) the pair
    wins, the medians compared and the verdicts on them."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of runs, at least one, a side")
    out = {"parent": side_summary(parent), "change": side_summary(change)}
    pairs = {}
    for entry in gated:
        name, lower = entry["name"], entry["better"] == "lower"
        a = [r["result"]["metrics"][name]["value"] for r in parent]
        b = [r["result"]["metrics"][name]["value"] for r in change]
        before = out["parent"]["end_to_end"][name]
        after = out["change"]["end_to_end"][name]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        beats_all = max(b) < min(a) if lower else min(b) > max(a)
        iqr = before["q3"] - before["q1"]
        # how much better the change's median is, in the metric's direction
        gain = (before["median"] - after["median"]) * (1 if lower else -1)
        pairs[name] = {
            "change_wins": wins,
            "pairs": len(a),
            "ratio_of_medians": after["median"] / before["median"],
            "parent_iqr": iqr,
            "median_gap": abs(after["median"] - before["median"]),
            "claim_rule": 10 * wins >= 9 * len(a) and gain > iqr,
            "within_bound": (None if "bound" not in entry else
                             -gain <= entry["bound"] * before["median"]),
            "resolved": (None if "bound" not in entry else beats_all
                         or iqr <= entry["bound"] * before["median"]),
        }
    out["pairs"] = pairs
    return out


def run_one(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in `checkout`, as the record it saved."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    path = checkout / ".perfbench_out" / f"{workload}-seed{seed}-full-trace0.json"
    return json.loads(path.read_text())


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    lengths = [len(str(path.resolve())) for path in (args.parent, args.change)]
    if lengths[0] != lengths[1]:
        parser.error(f"the checkouts' absolute paths differ in length "
                     f"(parent {lengths[0]}, change {lengths[1]}); peak RSS "
                     f"moves with the path, so put both at equal lengths")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    out_path = Path(f"BENCH_{args.label}.json")
    bench = (json.loads(out_path.read_text()) if out_path.exists()
             else {"label": args.label})
    for workload in args.workload:
        sides = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side].append(run_one(getattr(args, side), workload, seed))
                print(f"{workload} seed {seed} {side}: " + " ".join(
                    f"{k}={m['value']:.4g}" for k, m in
                    sides[side][-1]["result"]["metrics"].items()), flush=True)
        bench.setdefault("workloads", {})[workload] = summarize(
            sides["parent"], sides["change"], spec["end_to_end"])
        out_path.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
