#!/usr/bin/env python
"""Crash-recovery gate: the CI entry point for the durability promise.

Per seed: draw a random crash point (level and whether the in-flight
checkpoint is torn).  Then, for each engine on the shared level loop —
semi-external and fully-external — run a clean traversal, run the same
traversal under a seeded :class:`~repro.semiext.faults.FaultPlan` that
kills the process there, resume from the surviving checkpoints, and
require that the recovered tree

1. passes the Graph500 validator (``repro.graph500.validate_bfs_tree``),
2. byte-equals the uninterrupted run's parent array.

On failure each failing engine's clean and crashed/resumed parent arrays
plus a JSON summary are written to ``--out`` (file names prefixed with
the engine) so CI can upload them and the run can be replayed locally
with the printed parameters.

Usage::

    python tools/crash_recovery_gate.py --seed 7
    python tools/crash_recovery_gate.py --seed 19 --scale 9 --out crash-artifacts

Exit codes: 0 every recovered tree valid and byte-identical, 1 mismatch
or validation failure (artifacts written), 2 usage error (crash never
fired — the drawn level exceeded the traversal depth).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO / "src"))

from repro.bfs import AlphaBetaPolicy, FullyExternalBFS, SemiExternalBFS  # noqa: E402
from repro.csr import BackwardGraph, ForwardGraph, build_csr  # noqa: E402
from repro.errors import ProcessCrashError  # noqa: E402
from repro.graph500 import EdgeList, generate_edges, validate_bfs_tree  # noqa: E402
from repro.numa import NumaTopology  # noqa: E402
from repro.recovery import RecoverableBFS  # noqa: E402
from repro.semiext import NVMStore, PCIE_FLASH  # noqa: E402
from repro.semiext.faults import FaultPlan  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    """The gate's command line."""
    parser = argparse.ArgumentParser(
        prog="crash_recovery_gate",
        description="crash, resume, and diff the external BFS engines for CI",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for the graph, the crash point and the "
                             "fault plan (default: %(default)s)")
    parser.add_argument("--scale", type=int, default=10,
                        help="graph scale, N = 2^scale "
                             "(default: %(default)s)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        help="checkpoint cadence in levels "
                             "(default: %(default)s)")
    parser.add_argument("--out", type=str, default="crash-artifacts",
                        metavar="DIR",
                        help="artifact directory written on failure "
                             "(default: %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the gate; returns the process exit code."""
    args = build_parser().parse_args(argv)

    # The crash point is drawn from the seed, so each CI matrix entry
    # exercises a different (level, torn) pair while staying replayable.
    rng = np.random.default_rng(args.seed)
    crash_level = int(rng.integers(1, 4))
    crash_torn = bool(rng.integers(0, 2))
    print(f"seed {args.seed}: crash at level {crash_level} "
          f"(torn={crash_torn}), scale {args.scale}, "
          f"checkpoint every {args.checkpoint_every}")

    edges = EdgeList(
        generate_edges(args.scale, edge_factor=args.edge_factor,
                       seed=args.seed),
        1 << args.scale,
    )
    csr = build_csr(edges)
    topology = NumaTopology(n_nodes=4, cores_per_node=12)
    forward = ForwardGraph(csr, topology)
    backward = BackwardGraph(csr, topology)
    reachable = np.flatnonzero(csr.degrees() > 0)
    root = int(rng.choice(reachable))

    engines = {
        "semi_external": lambda store: SemiExternalBFS.offload(
            forward=forward, backward=backward,
            policy=AlphaBetaPolicy(alpha=50, beta=500), store=store,
        ),
        "fully_external": lambda store: FullyExternalBFS.offload(csr, store),
    }
    failed = False
    for name, build in engines.items():
        with tempfile.TemporaryDirectory(prefix="crash-gate-") as scratch:
            scratch_dir = Path(scratch)
            clean = build(NVMStore(scratch_dir / "clean", PCIE_FLASH)).run(root)

            plan = FaultPlan(seed=args.seed, crash_at_level=crash_level,
                             crash_torn=crash_torn)
            crashy = NVMStore(scratch_dir / "crashy", PCIE_FLASH,
                              fault_plan=plan)
            rec = RecoverableBFS(build(crashy),
                                 checkpoint_every=args.checkpoint_every)
            try:
                rec.run(root)
            except ProcessCrashError as crash:
                print(f"{name}: crashed: {crash}")
            else:
                print(f"error: {name}: crash at level {crash_level} never "
                      f"fired (traversal from root {root} too shallow); "
                      f"rerun with a larger --scale", file=sys.stderr)
                return 2
            resumed = rec.resume()

        validation = validate_bfs_tree(edges, resumed.parent, root)
        identical = resumed.parent.tobytes() == clean.parent.tobytes()
        print(f"{name}: graph500 validation: "
              f"{'PASS' if validation.ok else 'FAIL'}")
        print(f"{name}: byte-identical to clean run: {identical}")
        if validation.ok and identical:
            continue

        failed = True
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        np.save(outdir / f"{name}_clean_parent_seed{args.seed}.npy",
                clean.parent)
        np.save(outdir / f"{name}_resumed_parent_seed{args.seed}.npy",
                resumed.parent)
        summary = {
            "engine": name,
            "seed": args.seed,
            "scale": args.scale,
            "edge_factor": args.edge_factor,
            "root": root,
            "crash_level": crash_level,
            "crash_torn": crash_torn,
            "checkpoint_every": args.checkpoint_every,
            "validation_ok": validation.ok,
            "violations": list(validation.violations),
            "byte_identical": identical,
            "n_mismatched": int((resumed.parent != clean.parent).sum()),
        }
        (outdir / f"{name}_crash_summary_seed{args.seed}.json").write_text(
            json.dumps(summary, sort_keys=True, indent=1) + "\n"
        )
    if failed:
        print(f"FAILED: artifacts written to {args.out}/", file=sys.stderr)
        return 1
    print("crash recovery gate OK")
    return 0

if __name__ == "__main__":
    sys.exit(main())
