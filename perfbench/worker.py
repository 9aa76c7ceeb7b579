"""One workload run in a fresh process; run.py starts it.

    python3 perfbench/worker.py --root . --workload paper_step --seed 0 \
        --seconds 20 --scale full --trace 0 --artifacts DIR --out FILE

Imports the program from <root>/src (never an installed copy), runs the
workload untraced or traced, and writes its record to --out as JSON.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# the program's import, timed in IMPORT_REPS fresh interpreters
IMPORT_REPS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); "
                "import numpy, audioret.bench, audioret.checkpoint; "
                "print(time.perf_counter() - start)")


def import_seconds(src: Path) -> float:
    """Median seconds to import the program in a fresh interpreter."""
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                             capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(IMPORT_REPS))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--artifacts", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import audioret.bench  # noqa: F401
    import audioret.checkpoint  # noqa: F401
    if not Path(audioret.__file__).resolve().is_relative_to(src):
        print(f"audioret imported from {audioret.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    run = workloads.Run(seed=args.seed, seconds=args.seconds,
                        scale=workloads.SCALES[args.scale],
                        artifacts=Path(args.artifacts),
                        import_s=import_seconds(src), tracer=tracer)
    if tracer:
        layers.install(tracer, run.counts)
    workloads.WORKLOADS[args.workload](run)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.end_to_end["peak_rss_mb"] = peak_mb
    run.report("peak_rss_mb", peak_mb, "MB")
    run.report("failed_share", run.failed / max(run.attempted, 1), "ratio")

    record = {
        "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors, "checks": run.checks,
        "end_to_end": run.end_to_end,
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in run.detail.items()},
        "wall_s": run.wall_s, "phases": run.phases,
    }
    if tracer:
        tracer.uninstall()
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u)
                               in layers.per_layer_metrics(tracer, run.counts).items()}
        if args.spans:
            tracer.write(Path(args.spans))
    Path(args.out).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
