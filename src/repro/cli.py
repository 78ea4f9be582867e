"""Command-line interface.

``repro-bfs`` (or ``python -m repro``) exposes the pipeline and the main
analyses::

    repro-bfs run --scenario pcie --scale 16 --roots 8
    repro-bfs sweep --scale 14
    repro-bfs sizes --scales 20 31
    repro-bfs green --teps 4.22e9
    repro-bfs compare --scale 14

Every command prints the same rows/series the paper's corresponding table
or figure reports.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro._version import __version__

__all__ = ["main", "build_parser"]

_SCENARIOS = {"dram": "DRAM_ONLY", "pcie": "DRAM_PCIE_FLASH", "ssd": "DRAM_SSD"}


def _parse_offload_k(spec: str):
    """argparse type for ``--offload-k``: an int >= 0 or ``auto``."""
    if spec == "auto":
        return "auto"
    try:
        k = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0 or 'auto', got {spec!r}"
        ) from None
    if k < 0:
        raise argparse.ArgumentTypeError(f"K must be >= 0, got {k}")
    return k


def _parse_faults(spec: str):
    """argparse type for ``--faults``: a clean usage error, not a traceback."""
    from repro.errors import ConfigurationError
    from repro.semiext.faults import FaultPlan

    try:
        return FaultPlan.parse(spec)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_crash(spec: str):
    """argparse type for ``--crash``: ``level=2[,at_s=0.5][,torn=1][,seed=7]``.

    Returns a :class:`~repro.semiext.faults.FaultPlan` carrying only the
    crash fields; :func:`_cmd_run` merges it into the scenario's plan.
    """
    from repro.errors import ConfigurationError
    from repro.semiext.faults import FaultPlan

    aliases = {"level": "crash_at_level", "at_s": "crash_at_s",
               "torn": "crash_torn", "seed": "seed"}
    parts = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in aliases:
            raise argparse.ArgumentTypeError(
                f"crash spec item {item!r} is not one of "
                f"{sorted(aliases)}=value"
            )
        parts.append(f"{aliases[key]}={value.strip()}")
    try:
        plan = FaultPlan.parse(",".join(parts))
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not plan.crashes:
        raise argparse.ArgumentTypeError(
            "crash spec needs level=N or at_s=T"
        )
    return plan


def _parse_partitions(spec: str):
    """argparse type for ``--partitions``: an int >= 1."""
    try:
        n = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {spec!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"partitions must be >= 1, got {n}")
    return n


def _parse_workload(spec: str):
    """argparse type for ``--workload``: a clean usage error, not a traceback."""
    from repro.errors import ConfigurationError
    from repro.serve.workload import WorkloadSpec

    try:
        return WorkloadSpec.parse(spec)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_mutations(spec: str):
    """argparse type for ``--mutations``: ``rate=50,ins=4,del=4``.

    Returns the ``WorkloadSpec`` field overrides the flag layers on top
    of ``--workload`` (mutations ride the same request stream).
    """
    keys = {"rate": "mut_rate", "ins": "mut_inserts", "del": "mut_deletes"}
    out = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, raw = part.partition("=")
        field = keys.get(key.strip())
        if not eq or field is None:
            raise argparse.ArgumentTypeError(
                f"unknown mutation key {key.strip()!r} "
                f"(expected rate=, ins=, del=)"
            )
        try:
            out[field] = (float(raw) if field == "mut_rate" else int(raw))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"mutation key {key.strip()!r} needs a number, got {raw!r}"
            ) from None
    if "mut_rate" not in out:
        raise argparse.ArgumentTypeError("--mutations needs rate=<batches/s>")
    return out


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    p = argparse.ArgumentParser(
        prog="repro-bfs",
        description="Hybrid BFS with semi-external memory (IPDPS-W 2014 reproduction)",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the Graph500 pipeline for one scenario")
    run.add_argument("--scenario", choices=sorted(_SCENARIOS), default="dram")
    run.add_argument("--scale", type=int, default=14)
    run.add_argument("--edge-factor", type=int, default=16)
    run.add_argument("--roots", type=int, default=8)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--no-validate", action="store_true")
    run.add_argument(
        "--faults",
        type=_parse_faults,
        default=None,
        metavar="SPEC",
        help="fault-injection plan for the CSR device, e.g. "
             "'error_rate=0.02,gc_rate=0.01,gc_pause_ms=5,seed=7' "
             "(semi-external scenarios only)",
    )
    run.add_argument(
        "--offload-k",
        type=_parse_offload_k,
        default=None,
        metavar="K",
        help="tier the backward graph (§VI-E): keep only the first K "
             "edges per vertex in DRAM, serve each row's tail from the "
             "device; 'auto' lets the health-aware policy pick K from a "
             "placement proof (semi-external scenarios only; see "
             "docs/offload.md)",
    )
    run.add_argument(
        "--obs",
        type=str,
        default=None,
        metavar="DIR",
        help="capture the run's observability session and write "
             "events.jsonl, trace.json (chrome://tracing / Perfetto) and "
             "metrics.prom into DIR (see docs/observability.md)",
    )
    run.add_argument(
        "--crash",
        type=_parse_crash,
        default=None,
        metavar="SPEC",
        help="inject a seeded process crash and demonstrate checkpoint "
             "recovery, e.g. 'level=2,torn=1,seed=5' or 'at_s=0.001' "
             "(semi-external scenarios only; see docs/recovery.md)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint the traversal every N levels (0 = off); with "
             "--crash, the run resumes from the newest valid checkpoint "
             "and verifies the recovered tree is bit-identical",
    )
    run.add_argument(
        "--partitions",
        type=_parse_partitions,
        default=1,
        metavar="N",
        help="run the traversal 1D vertex-partitioned across N "
             "coordinator-driven workers and verify the tree "
             "byte-identical to the single-process engine "
             "(semi-external scenarios only; see docs/partitioning.md)",
    )
    run.add_argument(
        "--backend",
        choices=("local", "process"),
        default="local",
        help="worker backend with --partitions: in-process workers "
             "(default) or forked processes over shared-memory CSR "
             "segments; with --obs, both ship worker-side spans back "
             "to the coordinator's trace",
    )

    sweep = sub.add_parser("sweep", help="alpha x beta sweep (Figure 7 data)")
    sweep.add_argument("--scenario", choices=sorted(_SCENARIOS), default="dram")
    sweep.add_argument("--scale", type=int, default=13)
    sweep.add_argument("--roots", type=int, default=4)
    sweep.add_argument("--seed", type=int, default=None)

    sizes = sub.add_parser("sizes", help="graph size breakdown (Fig. 3 / Table II)")
    sizes.add_argument("--scales", type=int, nargs=2, default=(20, 31),
                       metavar=("LO", "HI"))

    green = sub.add_parser("green", help="MTEPS/W of the Green Graph500 machine")
    green.add_argument("--teps", type=float, default=4.22e9)

    compare = sub.add_parser(
        "compare", help="scenario comparison (Figure 8/9 data)"
    )
    compare.add_argument("--scale", type=int, default=13)
    compare.add_argument("--roots", type=int, default=4)
    compare.add_argument("--seed", type=int, default=None)

    iostat = sub.add_parser(
        "iostat", help="device I/O statistics during BFS (Figure 12/13 data)"
    )
    iostat.add_argument("--scenario", choices=("pcie", "ssd"), default="pcie")
    iostat.add_argument("--scale", type=int, default=13)
    iostat.add_argument("--roots", type=int, default=4)
    iostat.add_argument("--seed", type=int, default=None)

    locality = sub.add_parser(
        "locality", help="NUMA locality audit of the partitioned layouts"
    )
    locality.add_argument("--scale", type=int, default=13)
    locality.add_argument("--nodes", type=int, default=4)
    locality.add_argument("--seed", type=int, default=None)

    offload = sub.add_parser(
        "offload",
        help="measured backward-graph offload frontier "
             "(tiered store k-sweep; Figure 14 data)",
    )
    offload.add_argument("--scale", type=int, default=12)
    offload.add_argument("--ks", type=int, nargs="+",
                         default=[2, 4, 8, 16, 32, 64])
    offload.add_argument("--seed", type=int, default=None)

    serve = sub.add_parser(
        "serve",
        help="replay a query workload through the batched serving layer",
    )
    serve.add_argument("--scenario", choices=sorted(_SCENARIOS),
                       default="pcie")
    serve.add_argument("--scale", type=int, default=12)
    serve.add_argument("--edge-factor", type=int, default=16)
    serve.add_argument(
        "--workload",
        type=_parse_workload,
        default=None,
        metavar="SPEC",
        help="synthetic workload spec, e.g. "
             "'n=200,rate=1000,zipf=1.2,tenants=4,pool=64,seed=7' "
             "(defaults: 200 requests, 1000 req/s, zipf 1.1, 4 tenants)",
    )
    serve.add_argument(
        "--mutations",
        type=_parse_mutations,
        default=None,
        metavar="SPEC",
        help="mutate the graph under load, e.g. 'rate=50,ins=4,del=4' "
             "(Poisson batches per simulated second, layered onto "
             "--workload; queries after each batch see the new version)",
    )
    serve.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help="replay a JSONL request trace instead of generating one "
             "(traces may carry mutation events)",
    )
    serve.add_argument("--batch", type=int, default=8,
                       help="max queries coalesced per traversal batch")
    serve.add_argument("--queue", type=int, default=64,
                       help="admission queue capacity (backpressure bound)")
    serve.add_argument("--cache", type=int, default=256,
                       help="result cache capacity (0 disables)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="result cache TTL in simulated seconds")
    serve.add_argument("--alpha", type=float, default=None,
                       help="direction threshold override "
                            "(default: scaled to graph size)")
    serve.add_argument("--beta", type=float, default=None,
                       help="direction threshold override "
                            "(default: scaled to graph size)")
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument(
        "--faults",
        type=_parse_faults,
        default=None,
        metavar="SPEC",
        help="fault-injection plan for the CSR device (see 'run --faults')",
    )
    serve.add_argument(
        "--obs",
        type=str,
        default=None,
        metavar="DIR",
        help="capture the serving session's observability exports into DIR",
    )
    serve.add_argument(
        "--slo",
        action="store_true",
        help="evaluate the serving SLOs (latency, availability, device "
             "error rate) on the simulated clock and print the verdict "
             "section with error budgets and burn rates",
    )
    serve.add_argument(
        "--partitions",
        type=_parse_partitions,
        default=1,
        metavar="N",
        help="register the graph as a partitioned deployment across N "
             "coordinator-driven workers and route queries through the "
             "coordinator (semi-external scenarios only; see "
             "docs/partitioning.md)",
    )

    profile = sub.add_parser(
        "profile",
        help="time-attribution profile of an exported obs session "
             "(self-time table + collapsed stacks)",
    )
    profile.add_argument(
        "--obs",
        required=True,
        metavar="DIR",
        help="an --obs export directory (or an events.jsonl path) to "
             "profile",
    )
    profile.add_argument(
        "--collapsed",
        type=str,
        default=None,
        metavar="FILE",
        help="also write collapsed stacks (flamegraph.pl / speedscope "
             "input) to FILE",
    )

    slo = sub.add_parser(
        "slo",
        help="derived metrics + SLO verdicts for an exported obs session",
    )
    slo.add_argument(
        "path",
        help="an exported events.jsonl, or the --obs directory holding one",
    )
    slo.add_argument(
        "--json",
        action="store_true",
        help="print the canonical JSON report (byte-identical for "
             "same-seed runs) instead of the text dashboard",
    )

    perf = sub.add_parser(
        "perf",
        help="run registered benchmark scenarios; write BENCH_*.json",
    )
    perf.add_argument("--list", action="store_true",
                      help="list registered scenarios and exit")
    perf.add_argument("--scenario", action="append", default=None,
                      metavar="NAME",
                      help="run one scenario (repeatable; default: all)")
    perf.add_argument("--out", type=str, default="bench-out", metavar="DIR",
                      help="artifact output directory (default: %(default)s)")
    perf.add_argument("--seed", type=int, default=7,
                      help="scenario seed (default: %(default)s, the "
                           "committed baselines' seed)")
    perf.add_argument("--baseline", type=str, default=None, metavar="DIR",
                      help="also gate the run against the baselines in DIR "
                           "(exit 1 on regression)")

    conformance = sub.add_parser(
        "conformance",
        help="cross-engine differential + metamorphic conformance harness",
    )
    conformance.add_argument(
        "--seeds", type=int, nargs="+", default=[7, 19, 101],
        metavar="SEED",
        help="harness seeds; each seed drives its own trial stream "
             "(default: %(default)s)",
    )
    conformance.add_argument(
        "--trials", type=int, default=None,
        help="randomized (graph, scenario, root) triples per seed "
             "(default: 3, or 2 with --quick)",
    )
    conformance.add_argument(
        "--scale", type=int, default=None,
        help="largest graph scale drawn (n <= 2^SCALE; "
             "default: 8, or 6 with --quick)",
    )
    conformance.add_argument(
        "--engines", type=str, nargs="+", default=None, metavar="NAME",
        help="engines to check (default: every registered engine)",
    )
    conformance.add_argument(
        "--out", type=str, default="conformance", metavar="DIR",
        help="directory for conformance_report.json and, on failure, "
             "repro_*.json artifacts (default: %(default)s)",
    )
    conformance.add_argument(
        "--quick", action="store_true",
        help="CI preset: default to 2 trials per seed and scale 6 "
             "(an explicit --trials/--scale wins)",
    )
    conformance.add_argument(
        "--replay", type=str, default=None, metavar="FILE",
        help="re-execute one repro_*.json artifact instead of running "
             "the harness (exit 1 when the failure reproduces)",
    )
    conformance.add_argument(
        "--obs", type=str, default=None, metavar="DIR",
        help="export the harness's observability session "
             "(conformance.* metrics and spans) into DIR",
    )

    reproduce = sub.add_parser(
        "reproduce",
        help="run the full evaluation and write report.json / report.md",
    )
    reproduce.add_argument("--scale", type=int, default=14)
    reproduce.add_argument("--roots", type=int, default=4)
    reproduce.add_argument("--seed", type=int, default=20140519)
    reproduce.add_argument("--out", type=str, default="reproduction")
    return p


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_teps
    from repro.core import PAPER_SCENARIOS, run_graph500

    scenario = {s.name: s for s in PAPER_SCENARIOS}[
        {"dram": "DRAM-only", "pcie": "DRAM+PCIeFlash", "ssd": "DRAM+SSD"}[
            args.scenario
        ]
    ]
    if args.faults is not None:
        from dataclasses import replace

        from repro.errors import ConfigurationError

        try:
            scenario = replace(scenario, fault_plan=args.faults)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.offload_k is not None:
        from dataclasses import replace

        from repro.errors import ConfigurationError

        try:
            scenario = replace(scenario, offload_k=args.offload_k)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.partitions > 1:
        return _cmd_run_partitioned(scenario, args)
    if args.crash is not None or args.checkpoint_every:
        return _cmd_run_recovery(scenario, args)
    obs = None
    if args.obs is not None:
        from repro.obs import Observability

        obs = Observability()
    result = run_graph500(
        scenario,
        scale=args.scale,
        edge_factor=args.edge_factor,
        n_roots=args.roots,
        seed=args.seed,
        validate=not args.no_validate,
        obs=obs,
    )
    print(f"scenario:        {scenario.name}")
    print(f"scale/ef:        {args.scale} / {args.edge_factor}")
    print(f"valid:           {result.output.all_valid}")
    print(f"median TEPS:     {format_teps(result.median_teps)} (modeled)")
    print(result.output.stats_modeled.format())
    if result.bfs_iostats is not None:
        st = result.bfs_iostats
        print(
            f"nvm:             {st.n_requests} reqs, "
            f"avgrq-sz={st.avgrq_sz:.1f} sectors, avgqu-sz={st.avgqu_sz():.1f}"
        )
    if result.backward_store is not None:
        from repro.util.units import format_bytes

        tiered = result.backward_store
        rate = (
            tiered.fallthrough_rows / tiered.rows_scanned
            if tiered.rows_scanned
            else 0.0
        )
        print(
            f"offload:         k={result.offload_k} "
            f"(backward: {format_bytes(tiered.dram_nbytes)} DRAM + "
            f"{format_bytes(tiered.nvm_nbytes)} NVM tails, "
            f"{tiered.fallthrough_rows} fallthroughs / "
            f"{tiered.rows_scanned} rows = {rate:.1%})"
        )
    if scenario.fault_plan is not None and scenario.fault_plan.active:
        from repro.analysis.resilience import ResilienceSummary

        print()
        print(
            ResilienceSummary.from_parts(
                result.resilience, result.health
            ).format()
        )
    if obs is not None:
        from repro.analysis.report import metrics_table

        paths = obs.export(args.obs)
        print()
        print(metrics_table(obs.registry, prefix="bfs.",
                            title="bfs.* metrics (full set in metrics.prom)"))
        print()
        for kind in ("jsonl", "chrome_trace", "prometheus"):
            print(f"obs {kind}:       {paths[kind]}")
    return 0


def _cmd_run_partitioned(scenario, args: argparse.Namespace) -> int:
    """The ``--partitions N`` demo: distributed traversal, verified.

    Runs every sampled root through a coordinator over N partition
    workers (each with its own NVM store) and through the single-process
    semi-external engine, and verifies the trees byte-identical — the
    determinism contract docs/partitioning.md walks through.
    """
    import numpy as np

    from repro.analysis.report import format_teps
    from repro.bfs.policies import AlphaBetaPolicy
    from repro.bfs.semi_external import SemiExternalBFS
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.dist import ContiguousPartitioner, DistributedBFS
    from repro.graph500 import EdgeList, generate_edges, sample_roots
    from repro.semiext.storage import NVMStore
    from repro.util.units import format_bytes

    if scenario.device is None:
        print(
            "error: --partitions needs a semi-external scenario "
            "(pcie or ssd)",
            file=sys.stderr,
        )
        return 2
    n = 1 << args.scale
    edges = EdgeList(
        generate_edges(args.scale, args.edge_factor, seed=args.seed), n
    )
    csr = build_csr(edges)
    roots = sample_roots(csr.degrees(), n_roots=args.roots, seed=args.seed)

    def policy() -> AlphaBetaPolicy:
        return AlphaBetaPolicy(alpha=scenario.alpha, beta=scenario.beta)

    obs = None
    if args.obs is not None:
        from repro.obs import Observability

        obs = Observability()
    identical = True
    teps: list[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-dist-") as td:
        workdir = Path(td)
        engine = DistributedBFS.build(
            csr,
            ContiguousPartitioner(args.partitions),
            policy(),
            workdir / "dist",
            scenario.device,
            cost_model=scenario.cost_model,
            fault_plans=scenario.fault_plan,
            concurrency=scenario.topology.n_cores,
            backend=args.backend,
            obs=obs,
        )
        oracle = SemiExternalBFS.offload(
            forward=ForwardGraph(csr, scenario.topology),
            backward=BackwardGraph(csr, scenario.topology),
            policy=policy(),
            store=NVMStore(
                workdir / "oracle",
                scenario.device,
                concurrency=scenario.topology.n_cores,
            ),
            cost_model=scenario.cost_model,
        )
        try:
            for root in roots:
                result = engine.run(int(root))
                if result.modeled_time_s > 0:
                    teps.append(
                        result.traversed_edges / result.modeled_time_s
                    )
                if not np.array_equal(
                    result.parent, oracle.run(int(root)).parent
                ):
                    identical = False
            per_worker = engine.nvm_bytes_per_worker()
            restarts = engine.restarts
            degraded = engine.degraded_mode
        finally:
            engine.close()
    print(f"scenario:        {scenario.name}")
    print(f"scale/ef:        {args.scale} / {args.edge_factor}")
    print(f"partitions:      {args.partitions}")
    print(f"roots:           {len(roots)}")
    print(f"trees identical: {identical} (vs single-process semi-external)")
    if teps:
        print(
            f"median TEPS:     {format_teps(float(np.median(teps)))} "
            f"(modeled)"
        )
    print(
        "nvm per worker:  "
        + ", ".join(format_bytes(b) for b in per_worker)
    )
    if restarts or degraded:
        print(f"restarts:        {restarts} (degraded={degraded})")
    if obs is not None:
        from repro.obs.profile import track_of

        paths = obs.export(args.obs)
        per_track: dict[str, int] = {}
        for span in obs.tracer.spans:
            track = track_of(span)
            per_track[track] = per_track.get(track, 0) + 1
        print()
        print(
            "trace spans:     "
            + ", ".join(
                f"{track}={count}"
                for track, count in sorted(per_track.items())
            )
        )
        for kind in ("jsonl", "chrome_trace", "prometheus"):
            print(f"obs {kind}:       {paths[kind]}")
        print(
            "profile with:    repro-bfs profile --obs "
            f"{args.obs}"
        )
    return 0 if identical else 1


def _cmd_run_recovery(scenario, args: argparse.Namespace) -> int:
    """The ``--crash`` / ``--checkpoint-every`` demo: crash, resume, verify.

    Runs one checkpointed semi-external traversal under the scenario's
    fault plan (plus the ``--crash`` injection), resumes after the crash
    and verifies the recovered tree is bit-identical to an uninterrupted
    run and passes Graph500 validation.  Exit status 0 only when both
    hold.
    """
    from dataclasses import replace

    import numpy as np

    from repro.bfs.policies import AlphaBetaPolicy
    from repro.bfs.semi_external import SemiExternalBFS
    from repro.core.config import ScenarioKind
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.errors import ProcessCrashError
    from repro.graph500 import EdgeList, generate_edges
    from repro.graph500.validate import validate_bfs_tree
    from repro.recovery import RecoverableBFS, load_run
    from repro.semiext.storage import NVMStore

    if scenario.kind is not ScenarioKind.SEMI_EXTERNAL:
        print(
            "error: crash recovery needs a semi-external scenario "
            "(use --scenario pcie or --scenario ssd)",
            file=sys.stderr,
        )
        return 2
    plan = scenario.fault_plan
    if args.crash is not None:
        crash = args.crash
        if plan is None:
            plan = crash
        else:
            plan = replace(
                plan,
                crash_at_s=crash.crash_at_s,
                crash_at_level=crash.crash_at_level,
                crash_torn=crash.crash_torn,
            )
    every = args.checkpoint_every if args.checkpoint_every > 0 else 2
    obs = None
    if args.obs is not None:
        from repro.obs import Observability

        obs = Observability()

    n = 1 << args.scale
    edges = EdgeList(
        generate_edges(args.scale, edge_factor=args.edge_factor,
                       seed=args.seed),
        n,
    )
    csr = build_csr(edges)
    forward = ForwardGraph(csr, scenario.topology)
    backward = BackwardGraph(csr, scenario.topology)
    root = int(np.flatnonzero(csr.degrees() > 0)[0])

    def build_engine(workdir: Path, subdir: str, fault_plan):
        # Only the crashed run is instrumented: the clean run exists to
        # diff against, and giving both stores one session would
        # interleave two unrelated simulated clocks in the trace.
        store = NVMStore(
            workdir / subdir,
            scenario.device,
            concurrency=scenario.topology.n_cores,
            fault_plan=fault_plan,
            obs=obs if subdir == "crashed" else None,
        )
        return SemiExternalBFS.offload(
            forward=forward,
            backward=backward,
            policy=AlphaBetaPolicy(alpha=scenario.alpha, beta=scenario.beta),
            store=store,
        )

    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        workdir = Path(tmp)
        clean = build_engine(workdir, "clean", None).run(root)
        rec = RecoverableBFS(
            build_engine(workdir, "crashed", plan), checkpoint_every=every
        )
        print(f"scenario:         {scenario.name}")
        print(f"scale/ef:         {args.scale} / {args.edge_factor}")
        print(f"root:             {root}")
        print(f"checkpoint every: {every} levels")
        crash_exc = None
        try:
            result = rec.run(root)
        except ProcessCrashError as exc:
            crash_exc = exc
            restored = load_run(rec.manager.dir)
            print(
                f"crashed:          after level {exc.level} "
                f"at t={exc.crashed_at_s:.6f}s"
            )
            if restored.epoch >= 0:
                print(
                    f"restore:          epoch {restored.epoch} "
                    f"({restored.n_epochs_seen} seen, "
                    f"{restored.n_torn} torn)"
                )
            else:
                print("restore:          no valid epoch; restarting")
            result = rec.resume()
        if crash_exc is None:
            print("crashed:          no (crash point never reached)")
        print(
            f"checkpoints:      {rec.manager.n_checkpoints} epochs, "
            f"{rec.manager.bytes_written} bytes"
        )
        identical = result.parent.tobytes() == clean.parent.tobytes()
        validation = validate_bfs_tree(edges, result.parent, root)
        print(f"byte-identical:   {identical}")
        print(f"valid:            {validation.ok}")
        if not validation.ok:
            for v in validation.violations:
                print(f"  violation: {v}")
        if obs is not None:
            paths = obs.export(args.obs)
            for kind in ("jsonl", "chrome_trace", "prometheus"):
                print(f"obs {kind}:       {paths[kind]}")
        return 0 if identical and validation.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.perfcompare import build_engine
    from repro.analysis.sweep import alpha_beta_sweep
    from repro.core import PAPER_SCENARIOS
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.graph500 import EdgeList, generate_edges

    scenario = {s.name: s for s in PAPER_SCENARIOS}[
        {"dram": "DRAM-only", "pcie": "DRAM+PCIeFlash", "ssd": "DRAM+SSD"}[
            args.scenario
        ]
    ]
    n = 1 << args.scale
    edges = EdgeList(generate_edges(args.scale, seed=args.seed), n)
    csr = build_csr(edges)
    fwd = ForwardGraph(csr, scenario.topology)
    bwd = BackwardGraph(csr, scenario.topology)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as workdir:
        result = alpha_beta_sweep(
            lambda a, b: build_engine(scenario, fwd, bwd, a, b, workdir),
            edges,
            scenario.name,
            n_roots=args.roots,
            seed=args.seed,
        )
    print(result.format())
    from repro.analysis.report import ascii_heatmap

    print()
    print(
        ascii_heatmap(
            result.teps,
            [f"a={a:.3g}" for a in result.alphas],
            [f"{f}*a" for f in result.beta_factors],
            title="(TEPS intensity)",
        )
    )
    a, b, t = result.best()
    print(f"best: alpha={a:.3g} beta={b:.3g} -> {t / 1e9:.3f} GTEPS")
    return 0


def _cmd_sizes(args: argparse.Namespace) -> int:
    from repro.perfmodel import GraphSizeModel

    lo, hi = args.scales
    model = GraphSizeModel()
    for b in model.sweep(range(lo, hi + 1)):
        print(b.format_row())
    return 0


def _cmd_green(args: argparse.Namespace) -> int:
    from repro.perfmodel import MachinePowerModel

    model = MachinePowerModel.green_graph500_submission()
    print(f"machine power:   {model.total_watts:.0f} W")
    print(f"TEPS:            {args.teps:.3g}")
    print(f"MTEPS/W:         {model.mteps_per_watt(args.teps):.2f}")
    print("paper (Green Graph500 Nov 2013, Big Data, rank 4): 4.35 MTEPS/W")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.perfcompare import compare_scenarios
    from repro.analysis.report import ascii_table, format_teps
    from repro.analysis.sweep import scaled_alpha_grid
    from repro.core import PAPER_SCENARIOS
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.graph500 import EdgeList, generate_edges

    n = 1 << args.scale
    edges = EdgeList(generate_edges(args.scale, seed=args.seed), n)
    csr = build_csr(edges)
    topo = PAPER_SCENARIOS[0].topology
    fwd = ForwardGraph(csr, topo)
    bwd = BackwardGraph(csr, topo)
    alphas = scaled_alpha_grid(n)
    points = tuple((a, f * a) for a in alphas for f in (0.1, 1.0, 10.0))
    with tempfile.TemporaryDirectory(prefix="repro-compare-") as workdir:
        series = compare_scenarios(
            edges, csr, fwd, bwd, PAPER_SCENARIOS, points, workdir,
            n_roots=args.roots, seed=args.seed,
        )
    headers = ["series"] + [f"a={a:.2g},b={b:.2g}" for a, b in points]
    rows = [
        [s.name] + [format_teps(t) for t in s.teps]
        for s in series
    ]
    print(ascii_table(headers, rows, title=f"Figure 8/9 data @ SCALE {args.scale}"))
    return 0


def _cmd_iostat(args: argparse.Namespace) -> int:
    from repro.analysis.iotrace import summarize_iostats
    from repro.bfs import AlphaBetaPolicy, SemiExternalBFS
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.graph500 import EdgeList, Graph500Driver, generate_edges
    from repro.numa import NumaTopology
    from repro.perfmodel import DramCostModel
    from repro.semiext import NVMStore, PCIE_FLASH, SATA_SSD

    n = 1 << args.scale
    edges = EdgeList(generate_edges(args.scale, seed=args.seed), n)
    csr = build_csr(edges)
    topo = NumaTopology(4, 12)
    device = PCIE_FLASH if args.scenario == "pcie" else SATA_SSD
    with tempfile.TemporaryDirectory(prefix="repro-iostat-") as workdir:
        store = NVMStore(workdir, device, concurrency=topo.n_cores)
        engine = SemiExternalBFS.offload(
            ForwardGraph(csr, topo),
            BackwardGraph(csr, topo),
            AlphaBetaPolicy(alpha=30.0 * n / (1 << 15) or 30.0,
                            beta=30.0 * n / (1 << 15) or 30.0),
            store,
            cost_model=DramCostModel(),
        )
        Graph500Driver(edges, n_roots=args.roots, seed=args.seed,
                       validate=False).run(engine)
        summary = summarize_iostats(store.iostats)
    print(summary.format())
    print("paper (Fig. 12/13): avgqu-sz 36.1 PCIe / 56.1 SSD; "
          "avgrq-sz 22.6 / 22.7 sectors")
    return 0


def _cmd_locality(args: argparse.Namespace) -> int:
    from repro.analysis import audit_locality
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.graph500 import EdgeList, generate_edges
    from repro.numa import NumaTopology

    n = 1 << args.scale
    edges = EdgeList(generate_edges(args.scale, seed=args.seed), n)
    csr = build_csr(edges)
    topo = NumaTopology(n_nodes=args.nodes)
    audit = audit_locality(
        csr, ForwardGraph(csr, topo), BackwardGraph(csr, topo), topo
    )
    print(f"edges audited:        {audit.n_edges_audited:,}")
    print(f"NETAL layout remote:  {audit.netal_remote_fraction:.1%}")
    print(f"naive layout remote:  {audit.naive_remote_fraction:.1%}")
    print(f"traffic kept local:   {audit.traffic_saved:.1%}")
    return 0


def _cmd_offload(args: argparse.Namespace) -> int:
    from repro.analysis import backward_offload_sweep, tiered_offload_sweep
    from repro.analysis.report import ascii_table, format_teps
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.graph500 import EdgeList, generate_edges, sample_roots
    from repro.numa import NumaTopology
    from repro.semiext import PCIE_FLASH
    from repro.util.units import format_bytes

    n = 1 << args.scale
    edges = EdgeList(generate_edges(args.scale, seed=args.seed), n)
    csr = build_csr(edges)
    topo = NumaTopology(4, 12)
    forward = ForwardGraph(csr, topo)
    backward = BackwardGraph(csr, topo)
    roots = sample_roots(csr.degrees(), n_roots=3, seed=args.seed)
    with tempfile.TemporaryDirectory(prefix="repro-offload-") as workdir:
        measured = tiered_offload_sweep(
            forward,
            backward,
            PCIE_FLASH,
            Path(workdir) / "tiered",
            roots,
            ks=tuple(args.ks),
            alpha=n / 128,
            beta=n / 128,
        )
        points = backward_offload_sweep(
            forward,
            backward,
            PCIE_FLASH,
            Path(workdir) / "estimate",
            roots,
            ks=tuple(args.ks),
            alpha=n / 128,
            beta=n / 128,
        )
    rows = [
        [p.k, format_bytes(p.dram_bytes), f"{p.dram_reduction:.1%}",
         p.fallthrough_rows, f"{p.fallthrough_rate:.1%}",
         format_teps(p.teps)]
        for p in measured
    ]
    print(ascii_table(
        ["k", "DRAM resident", "saved", "fallthroughs", "rate",
         "modeled TEPS"],
        rows,
        title="Measured memory-vs-TEPS frontier (TieredBackwardStore)",
    ))
    print()
    rows = [
        [p.strategy, p.k, f"{p.dram_reduction:.1%}",
         f"{p.nvm_access_ratio:.1%}"]
        for p in points
    ]
    print(ascii_table(
        ["strategy", "k", "DRAM reduction", "NVM access ratio"], rows,
        title="Figure 14's two readings of k (TieredScanner budgets)",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis.serving import ServeSummary
    from repro.core import PAPER_SCENARIOS
    from repro.errors import ConfigurationError
    from repro.serve import (
        BFSServer,
        GraphCatalog,
        WorkloadSpec,
        generate_workload,
        load_trace,
    )

    scenario = {s.name: s for s in PAPER_SCENARIOS}[
        {"dram": "DRAM-only", "pcie": "DRAM+PCIeFlash", "ssd": "DRAM+SSD"}[
            args.scenario
        ]
    ]
    if args.mutations is not None and args.partitions > 1:
        print("error: --mutations attaches to locally pinned graphs; "
              "partitioned deployments are static (see docs/dynamic.md)",
              file=sys.stderr)
        return 2
    if args.mutations is not None and args.trace is not None:
        print("error: --mutations generates a workload; a --trace already "
              "carries its own mutation events", file=sys.stderr)
        return 2
    if args.faults is not None:
        from dataclasses import replace

        scenario = replace(scenario, fault_plan=args.faults)
    obs = None
    if args.obs is not None or args.slo:
        from repro.obs import Observability

        obs = Observability()
    n = 1 << args.scale
    # The Table I thresholds target SCALE 27; at CLI scales they would
    # pin every level after the first to bottom-up, leaving no top-down
    # traffic to batch.  Scale them down unless the user overrides.
    alpha = args.alpha if args.alpha is not None else n / 128.0
    beta = args.beta if args.beta is not None else n / 128.0
    catalog = GraphCatalog(obs=obs)
    try:
        if args.partitions > 1:
            try:
                graph = catalog.build_partitioned(
                    "default",
                    scenario,
                    scale=args.scale,
                    n_partitions=args.partitions,
                    edge_factor=args.edge_factor,
                    seed=args.seed,
                    alpha=alpha,
                    beta=beta,
                )
            except ConfigurationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            graph = catalog.build(
                "default",
                scenario,
                scale=args.scale,
                edge_factor=args.edge_factor,
                seed=args.seed,
                alpha=alpha,
                beta=beta,
            )
        if args.trace is not None:
            try:
                requests = load_trace(args.trace)
            except ConfigurationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            spec = args.workload if args.workload is not None else WorkloadSpec()
            if args.mutations is not None:
                from dataclasses import replace as _replace

                spec = _replace(spec, **args.mutations)
            mut_csr = None
            if spec.mut_rate > 0:
                from repro.csr import build_csr

                mut_csr = build_csr(graph.edges)
            requests = generate_workload(spec.with_seed(args.seed),
                                         graph.degrees, csr=mut_csr)
        server = BFSServer(
            catalog,
            batch_size=args.batch,
            queue_capacity=args.queue,
            cache_capacity=args.cache,
            cache_ttl_s=args.cache_ttl,
            obs=obs,
        )
        report = server.serve(requests)
    finally:
        catalog.close()
    print(f"scenario:        {scenario.name}")
    print(f"scale/ef:        {args.scale} / {args.edge_factor}")
    print(f"batch/queue:     {args.batch} / {args.queue}")
    if args.partitions > 1:
        print(f"partitions:      {args.partitions}")
    print(ServeSummary.from_report(report).format())
    if args.slo:
        from repro.obs import evaluate

        print()
        print(evaluate(obs).format())
    if args.obs is not None:
        from repro.analysis.report import metrics_table

        paths = obs.export(args.obs)
        print()
        print(metrics_table(obs.registry, prefix="serve.",
                            title="serve.* metrics (full set in metrics.prom)"))
        print()
        for kind in ("jsonl", "chrome_trace", "prometheus"):
            print(f"obs {kind}:       {paths[kind]}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.report import ascii_table
    from repro.errors import ConfigurationError
    from repro.obs import read_jsonl, self_time_table, write_collapsed

    path = Path(args.obs)
    if path.is_dir():
        path = path / "events.jsonl"
    try:
        obs = read_jsonl(path)
    except (OSError, ConfigurationError) as exc:
        print(f"error: cannot read obs export: {exc}", file=sys.stderr)
        return 2
    rows = self_time_table(obs)
    if not rows:
        print(f"no spans in {path}")
        return 0
    print(ascii_table(
        ["track", "span", "count", "total s", "self s", "bytes"],
        [
            [r.track, r.name, r.count, f"{r.total_s:.6f}",
             f"{r.self_s:.6f}", r.bytes]
            for r in rows
        ],
        title=f"self-time attribution — {path} (simulated clock)",
    ))
    by_track: dict[str, float] = {}
    for r in rows:
        by_track[r.track] = by_track.get(r.track, 0.0) + r.self_s
    print()
    print(
        "lane totals:     "
        + ", ".join(
            f"{track}={total:.6f}s"
            for track, total in sorted(by_track.items())
        )
    )
    if args.collapsed is not None:
        out = write_collapsed(obs, args.collapsed)
        print(f"collapsed:       {out} (flamegraph.pl / speedscope)")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.analysis.dashboard import render_dashboard
    from repro.errors import ConfigurationError
    from repro.obs import derive, evaluate, read_jsonl

    path = Path(args.path)
    if path.is_dir():
        path = path / "events.jsonl"
    try:
        obs = read_jsonl(path)
    except (OSError, ConfigurationError) as exc:
        print(f"error: cannot read obs export: {exc}", file=sys.stderr)
        return 2
    derived = derive(obs)
    slo = evaluate(obs)
    if args.json:
        import json

        print(json.dumps(
            {"slo": slo.to_dict(), "derived": derived.to_dict()},
            sort_keys=True, indent=1,
        ))
    else:
        print(render_dashboard(
            obs, slo=slo, derived=derived,
            title=f"run dashboard — {path}",
        ))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.perf import SCENARIOS, gate, get_scenario

    if args.list:
        for s in SCENARIOS:
            print(f"{s.name:24s} {s.description}  [{s.paper_ref}]")
        return 0
    try:
        scenarios = (
            [get_scenario(n) for n in args.scenario]
            if args.scenario else list(SCENARIOS)
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifacts = {}
    for scenario in scenarios:
        with tempfile.TemporaryDirectory(prefix="repro-perf-") as td:
            artifact = scenario.run(args.seed, Path(td))
        path = artifact.write(args.out)
        artifacts[artifact.name] = artifact
        print(f"{scenario.name}: wrote {path} "
              f"({len(artifact.metrics)} metrics, "
              f"{artifact.simulated_seconds:.4f} simulated s)")
    if args.baseline is None:
        return 0
    return gate(args.baseline, artifacts, subset=bool(args.scenario))


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance import ConformanceConfig, ReproArtifact, run_conformance
    from repro.errors import ConfigurationError
    from repro.obs.session import NULL, Observability

    obs = Observability() if args.obs is not None else NULL
    if args.replay is not None:
        try:
            artifact = ReproArtifact.load(args.replay)
        except (OSError, ValueError, ConfigurationError) as exc:
            print(f"error: cannot load artifact: {exc}", file=sys.stderr)
            return 2
        print(f"replaying {args.replay}: engine={artifact.engine} "
              f"check={artifact.check} seed={artifact.seed} "
              f"n={artifact.n_vertices} m={len(artifact.edges_u)}")
        try:
            with obs.span("conformance.replay", engine=artifact.engine,
                          check=artifact.check):
                outcome = artifact.replay()
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(outcome)
        if args.obs is not None:
            obs.export(args.obs)
        return 1 if outcome.reproduced else 0

    trials, max_scale = (2, 6) if args.quick else (3, 8)
    try:
        config = ConformanceConfig(
            seeds=tuple(args.seeds),
            trials=trials if args.trials is None else args.trials,
            max_scale=max_scale if args.scale is None else args.scale,
            engines=tuple(args.engines) if args.engines else (),
            artifact_dir=args.out,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_conformance(config, obs=obs)
    print(report.render())
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "conformance_report.json").write_text(report.to_json())
    if args.obs is not None:
        obs.export(args.obs)
    return 0 if report.ok else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.core.experiment import EvaluationRunner

    runner = EvaluationRunner(
        scale=args.scale, seed=args.seed, n_roots=args.roots
    )
    try:
        runner.run_all(progress=lambda key: print(f"running {key} ..."))
        json_path, md_path = runner.write(args.out)
    finally:
        runner.close()
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "sizes": _cmd_sizes,
        "green": _cmd_green,
        "compare": _cmd_compare,
        "iostat": _cmd_iostat,
        "locality": _cmd_locality,
        "offload": _cmd_offload,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
        "slo": _cmd_slo,
        "perf": _cmd_perf,
        "conformance": _cmd_conformance,
        "reproduce": _cmd_reproduce,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
