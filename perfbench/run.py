"""Wall-clock benchmark of the ``repro`` package, one workload per process.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload g500_pcie --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` runs it once plain and once with every
layer's public entry points wrapped (see ``tracing.LAYER_CALLS``),
writes the spans to ``.perfbench/spans/`` and prints the per-layer
metrics.  Workloads and metrics are described in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every correctness check passed, 1 when one failed and 2 when
the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="g500_pcie, serve_ro or serve_mut")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="least timed seconds of repeated jobs (untraced run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=int, default=None,
                   help="override the workload's graph SCALE (smoke tests)")
    p.add_argument("--write-trace", type=Path, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no package to benchmark at {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so a killed run stops its trace-generating
    # child and removes its scratch directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    workload = workloads.make_workload(args.workload, args.scale)
    if args.write_trace is not None:
        workload.write_trace(args.seed, args.write_trace)
        return 0
    BENCH_DIR.mkdir(exist_ok=True)
    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}"
        out = workloads.measure_traced(workload, args.seed, BENCH_DIR, run_id)
        print(f"spans: {out['spans']}")
    else:
        out = workloads.measure(workload, args.seed, args.seconds, BENCH_DIR)
        print(f"jobs: {out['jobs']}")
    for message in out["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    units = out["units"]
    for name, value in out["metrics"].items():
        print(f"{name:36s} {value:16.6g} {units[name]}")
    correct = out["failed"] == 0 and bool(out["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
