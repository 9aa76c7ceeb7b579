"""The audioret benchmark.

    python3 perfbench/run.py --workload paper_step --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-check            # tiny shapes, schema check

Each workload run happens in a fresh child process (worker.py) with
BLAS threads pinned to the usable cores and a fresh artifact directory,
so no cache or peak-RSS reading leaks from one run into the next.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs the
workload untraced and then traced, and prints the per-layer metrics
plus the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_step", "synthetic_fit", "retrieve_clotho")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_info(threads: int) -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(), "usable_cores": usable_cores(),
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
        "utc_start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_child(workload: str, seed: int, seconds: float, scale: str,
              trace: int, deadline: float, tag: str) -> dict:
    """One workload run in a fresh process with a fresh artifact dir."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    artifacts = ROOT / ".perfbench_runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(artifacts, ignore_errors=True)
    artifacts.mkdir(parents=True)
    record_path = artifacts / "record.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", scale, "--trace", str(trace),
           "--artifacts", str(artifacts), "--out", str(record_path)]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{tag}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - start, 1.0))
        if proc.returncode != 0 or not record_path.exists():
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        record = json.loads(record_path.read_text())
        record["process_wall_s"] = time.monotonic() - start
        return record
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker passed the time limit") from exc
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)


def metric_block(values: dict, entries: list[dict]) -> dict:
    """Values for exactly the metrics `entries` names, with their units."""
    out = {}
    for entry in entries:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        value = values[name]
        if isinstance(value, dict):
            if value["unit"] != entry["unit"]:
                raise BenchError(f"metric {name}: unit {value['unit']} is not "
                                 f"{entry['unit']}")
            value = value["value"]
        if not math.isfinite(float(value)):
            raise BenchError(f"metric {name} was not measured: {value}")
        out[name] = {"value": float(value), "unit": entry["unit"]}
    return out


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 scale: str, trace: int, deadline: float) -> dict:
    tag = f"{workload}-seed{seed}-{scale}"
    plain = run_child(workload, seed, seconds, scale, 0, deadline, tag)
    records = [plain]
    if trace:
        traced = run_child(workload, seed, seconds, scale, 1, deadline, tag)
        records.append(traced)
        layer_values = dict(traced["per_layer"])
        # a traced run does one unit of each repeated section, so compare
        # the sections both runs timed
        layer_values["trace.overhead_s"] = {
            "value": sum(seconds - plain["phases"][name]
                         for name, seconds in traced["phases"].items()
                         if name in plain["phases"]), "unit": "s"}
        metrics = metric_block(layer_values, spec["per_layer"])
    else:
        metrics = metric_block(plain["end_to_end"], spec["end_to_end"])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    errors = [e for r in records for e in r["errors"]]
    return {"workload": workload, "seed": seed, "scale": scale,
            "trace": trace, "detail": plain["detail"],
            "process_wall_s": {("traced" if r is not plain else "untraced"):
                               r["process_wall_s"] for r in records},
            "checks": {k: v for r in records for k, v in r["checks"].items()},
            "errors": errors,
            "result": {"correct": failed == 0 and not errors and attempted > 0,
                       "attempted": max(attempted, 1), "failed": failed,
                       "metrics": metrics}}


def print_report(info: dict, outcome: dict) -> None:
    print(f"== {outcome['workload']} seed={outcome['seed']} "
          f"scale={outcome['scale']} trace={outcome['trace']}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, seconds in outcome["process_wall_s"].items():
        print(f"  {name} process wall         {seconds:>14.6g} s")
    for name, m in outcome["detail"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    for name, verdict in outcome["checks"].items():
        print(f"  check {name}: {verdict}")
    for error in outcome["errors"]:
        print(f"  error {error}")
    for name, m in outcome["result"]["metrics"].items():
        print(f"  metric {name:<26} {m['value']:>14.6g} {m['unit']}")


def save(outcome: dict, info: dict) -> None:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = (f"{outcome['workload']}-seed{outcome['seed']}-"
            f"{outcome['scale']}-trace{outcome['trace']}.json")
    (out_dir / name).write_text(json.dumps(outcome | {"machine": info},
                                           indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="audioret benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny shapes, traced and "
                             "untraced, and validate the output schema")
    args = parser.parse_args(argv)
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    if not (ROOT / "src" / "audioret" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    threads = usable_cores()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    info = machine_info(threads)
    deadline = time.monotonic() + DEADLINE_S

    if args.self_check:
        return self_check(spec, info)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outcomes = []
        for workload in names:
            budget = (deadline if len(names) == 1
                      else time.monotonic() + DEADLINE_S)
            outcomes.append(run_workload(spec, workload, args.seed, seconds,
                                         "full", args.trace, budget))
            print_report(info, outcomes[-1])
            save(outcomes[-1], info)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(outcomes) == 1:
        print(json.dumps(outcomes[0]["result"]))
    else:
        results = [o["result"] for o in outcomes]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "workloads": {o["workload"]: o["result"]["metrics"]
                          for o in outcomes}}))
    return 0


def self_check(spec: dict, info: dict) -> int:
    """Every workload end to end at tiny shapes; validates the schema."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                outcome = run_workload(spec, workload, 0, 1.0, "tiny", trace,
                                       time.monotonic() + DEADLINE_S)
            except BenchError as exc:
                problems.append(f"{workload} trace={trace}: {exc}")
                continue
            print_report(info, outcome)
            result = json.loads(json.dumps(outcome["result"], allow_nan=False))
            wanted = {m["name"]: m["unit"]
                      for m in spec["per_layer" if trace else "end_to_end"]}
            schema_ok = (
                list(result) == ["correct", "attempted", "failed", "metrics"]
                and type(result["attempted"]) is int and result["attempted"] >= 1
                and type(result["failed"]) is int
                and {k: m["unit"] for k, m in result["metrics"].items()} == wanted
                and all(type(m["value"]) is float
                        for m in result["metrics"].values()))
            if not schema_ok:
                problems.append(f"{workload} trace={trace}: bad result schema")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: checks failed")
            if not trace and not all(m["value"] > 0 for m in
                                     result["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not > 0")
    for problem in problems:
        print(f"self-check problem: {problem}")
    print(json.dumps({"self_check": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
