"""The registry of named, seeded benchmark scenarios.

Each :class:`BenchScenario` wraps one of the repo's benchmark shapes
(``benchmarks/bench_*.py``) into a headless callable: fixed problem
size, seeded inputs, simulated clock only — so a scenario run is a pure
function of its seed and its :class:`~repro.perf.artifact.BenchArtifact`
is byte-reproducible.  ``repro-bfs perf`` executes these and, with
``--baseline``, gates the artifacts against the committed baselines in
``benchmarks/baselines/``.

The two stock scenarios cover the paper's two performance claims:

* :func:`run_degradation` — the Fig. 8/11 claim (semi-external TEPS
  degradation on PCIe flash vs SSD relative to DRAM-only);
* :func:`run_serve_batching` — the serving-tier restatement of §V
  device-traffic minimization (bytes/query amortization from batched
  union-frontier fetches);
* :func:`run_checkpoint_overhead` — the durability tax: checkpoint
  write amplification and modeled-time overhead of the crash-recovery
  subsystem at its default cadence (pinned ≤ 5 % of traversal bytes);
* :func:`run_backward_offload` — the §VI-E memory-vs-TEPS frontier of
  the tiered backward store, measured (DRAM bytes strictly shrink and
  fallthrough reads strictly grow as k shrinks);
* :func:`run_dist_scaling` — the beyond-paper partitioned traversal's
  scaling curve (1/2/4 workers), with byte-identity to the
  single-process engine asserted in-runner;
* :func:`run_profile_overhead` — the observability tax: modeled-time
  overhead of worker-side span collection and shipping at 4 forked
  partitions (pinned ≤ 5 % in-runner; by design it is exactly zero —
  spans never advance the simulated clock);
* :func:`run_incremental_serve` — the dynamic-graph claim: after a
  small mutation batch, incrementally repairing a cached tree
  (:mod:`repro.graphmut`) must beat recomputing it from scratch on the
  modeled clock, with byte-identical answers asserted in-runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import (
    DRAM_ONLY,
    DRAM_PCIE_FLASH,
    DRAM_SSD,
    run_graph500,
)
from repro.errors import ConfigurationError
from repro.perf.artifact import BenchArtifact, BenchMetric
from repro.serve import BatchedBFS, GraphCatalog

__all__ = ["BenchScenario", "SCENARIOS", "get_scenario", "scenario_names"]


@dataclass(frozen=True)
class BenchScenario:
    """One registered benchmark: a seeded artifact factory."""

    name: str
    description: str
    paper_ref: str
    runner: Callable[[int, Path], BenchArtifact]

    def run(self, seed: int, workdir: str | Path) -> BenchArtifact:
        """Execute headlessly; ``workdir`` holds the NVM backing files."""
        return self.runner(seed, Path(workdir))


def run_degradation(seed: int, workdir: Path) -> BenchArtifact:
    """Modeled TEPS for DRAM / PCIe-flash / SSD and their degradation.

    A small-scale analogue of the paper's Fig. 8/11 measurement: the
    same Kronecker graph and roots through all three scenarios, TEPS on
    the simulated clock, degradation as the percentage lost vs
    DRAM-only (paper, SCALE 27: PCIe −19.18 %, SSD −47.1 %).
    """
    scale, n_roots = 11, 4
    teps: dict[str, float] = {}
    sim_s = 0.0
    for key, scenario in (
        ("dram", DRAM_ONLY),
        ("pcie", DRAM_PCIE_FLASH),
        ("ssd", DRAM_SSD),
    ):
        result = run_graph500(
            scenario, scale=scale, n_roots=n_roots, seed=seed,
            validate=False, workdir=workdir / key,
        )
        teps[key] = result.median_teps
        stats = result.output.stats_modeled
        sim_s += stats.mean_time_s * stats.n_runs
    degradation = {
        key: 100.0 * (1.0 - teps[key] / teps["dram"])
        for key in ("pcie", "ssd")
    }
    metrics = {
        "teps_dram": BenchMetric(teps["dram"], "TEPS", True),
        "teps_pcie": BenchMetric(teps["pcie"], "TEPS", True),
        "teps_ssd": BenchMetric(teps["ssd"], "TEPS", True),
        "degradation_pcie_pct": BenchMetric(
            degradation["pcie"], "%", False, tolerance=0.10
        ),
        "degradation_ssd_pct": BenchMetric(
            degradation["ssd"], "%", False, tolerance=0.10
        ),
    }
    return BenchArtifact(
        name="fig11_degradation",
        description="Semi-external TEPS degradation vs DRAM-only "
                    "(PCIe flash and SATA SSD), modeled clock.",
        seed=seed,
        params={"scale": scale, "n_roots": n_roots, "edge_factor": 16},
        simulated_seconds=sim_s,
        metrics=metrics,
    )


def run_serve_batching(seed: int, workdir: Path) -> BenchArtifact:
    """Bytes/query amortization of batched serving (batch 1 vs 8).

    The bench_serve_batching shape at a CI-friendly scale: 8 queries on
    the PCIe-flash scenario with result and page caches disabled, so
    the only sharing left is the union-frontier chunk fetch.
    """
    scale, n_queries = 10, 8
    n = 1 << scale
    alpha = beta = n / 128.0  # keep several levels top-down at this scale

    def run_at(batch_size: int) -> dict:
        catalog = GraphCatalog(workdir=workdir / f"b{batch_size}")
        graph = catalog.build(
            "g", DRAM_PCIE_FLASH, scale=scale, seed=seed,
            alpha=alpha, beta=beta, page_cache_bytes=0,
        )
        roots = [
            int(r) for r in np.flatnonzero(graph.degrees > 0)[:n_queries]
        ]
        engine = BatchedBFS(graph)
        traversed = 0
        t0 = graph.clock.now()
        for i in range(0, len(roots), batch_size):
            for res in engine.run_batch(roots[i:i + batch_size]):
                traversed += res.traversed_edges
        modeled_s = graph.clock.now() - t0
        nvm_bytes = graph.store.iostats.total_bytes
        sharing = (
            engine.rows_requested / engine.rows_fetched
            if engine.rows_fetched else 1.0
        )
        catalog.close()
        return {
            "bytes_per_query": nvm_bytes / n_queries,
            "teps": traversed / modeled_s if modeled_s else 0.0,
            "sharing": sharing,
            "modeled_s": modeled_s,
        }

    solo = run_at(1)
    batched = run_at(8)
    metrics = {
        "bytes_per_query_unbatched": BenchMetric(
            solo["bytes_per_query"], "B", False
        ),
        "bytes_per_query_batch8": BenchMetric(
            batched["bytes_per_query"], "B", False
        ),
        "amortization_x": BenchMetric(
            solo["bytes_per_query"] / batched["bytes_per_query"]
            if batched["bytes_per_query"] else 1.0,
            "x", True,
        ),
        "row_sharing_x": BenchMetric(batched["sharing"], "x", True),
        "teps_batch8": BenchMetric(batched["teps"], "TEPS", True),
    }
    return BenchArtifact(
        name="serve_batching",
        description="NVM bytes/query amortization from batched "
                    "union-frontier fetches (batch 1 vs 8).",
        seed=seed,
        params={
            "scale": scale, "n_queries": n_queries,
            "alpha": alpha, "beta": beta,
        },
        simulated_seconds=solo["modeled_s"] + batched["modeled_s"],
        metrics=metrics,
    )


def run_checkpoint_overhead(seed: int, workdir: Path) -> BenchArtifact:
    """The durability tax of level-boundary checkpointing.

    One semi-external traversal on the PCIe-flash scenario, clean vs
    wrapped in :class:`~repro.recovery.RecoverableBFS` at the default
    cadence (every 2 levels, no crash).  The schedule is pinned
    top-down so *every* level's edge scan reads the device — the
    configuration where durability writes compete directly with
    traversal reads (the hybrid schedule's NVM traffic is a sliver by
    design, which would make any percentage meaningless).  Write
    amplification is the checkpoint bytes written as a percentage of
    the traversal's NVM bytes read — the delta-chain format keeps it
    small (pinned ≤ 5 % by the committed baseline and
    ``tests/test_recovery.py``); time overhead is the modeled-clock
    cost of charging those writes.
    """
    from repro.bfs.metrics import Direction
    from repro.bfs.policies import FixedPolicy
    from repro.bfs.semi_external import SemiExternalBFS
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.graph500 import EdgeList, generate_edges
    from repro.recovery import RecoverableBFS
    from repro.semiext.storage import NVMStore

    scale = 11
    scenario = DRAM_PCIE_FLASH
    n = 1 << scale
    edges = EdgeList(generate_edges(scale, seed=seed), n)
    csr = build_csr(edges)
    forward = ForwardGraph(csr, scenario.topology)
    backward = BackwardGraph(csr, scenario.topology)
    root = int(np.flatnonzero(csr.degrees() > 0)[0])

    def build(subdir: str) -> SemiExternalBFS:
        store = NVMStore(
            workdir / subdir,
            scenario.device,
            concurrency=scenario.topology.n_cores,
        )
        return SemiExternalBFS.offload(
            forward=forward,
            backward=backward,
            policy=FixedPolicy(Direction.TOP_DOWN),
            store=store,
        )

    clean_engine = build("clean")
    t0 = clean_engine.store.clock.now()
    clean_engine.run(root)
    clean_s = clean_engine.store.clock.now() - t0

    ckpt_engine = build("ckpt")
    rec = RecoverableBFS(ckpt_engine, checkpoint_every=2)
    t0 = ckpt_engine.store.clock.now()
    rec.run(root)
    ckpt_s = ckpt_engine.store.clock.now() - t0

    # charge_write never touches the read-side iostats, so total_bytes
    # is exactly the traversal's NVM read traffic.
    traversal_bytes = ckpt_engine.store.iostats.total_bytes
    ckpt_bytes = rec.manager.bytes_written
    amp_pct = 100.0 * ckpt_bytes / traversal_bytes if traversal_bytes else 0.0
    time_pct = 100.0 * (ckpt_s - clean_s) / clean_s if clean_s else 0.0
    metrics = {
        "traversal_nvm_bytes": BenchMetric(
            float(traversal_bytes), "B", False
        ),
        "checkpoint_bytes": BenchMetric(float(ckpt_bytes), "B", False),
        "write_amplification_pct": BenchMetric(
            amp_pct, "%", False, tolerance=0.10
        ),
        "time_overhead_pct": BenchMetric(
            time_pct, "%", False, tolerance=0.25
        ),
        "n_epochs": BenchMetric(float(rec.manager.n_checkpoints), "", False),
    }
    return BenchArtifact(
        name="checkpoint_overhead",
        description="Checkpoint write amplification and modeled-time "
                    "overhead at the default cadence (every 2 levels).",
        seed=seed,
        params={
            "scale": scale, "edge_factor": 16, "checkpoint_every": 2,
            "schedule": "top_down",
        },
        simulated_seconds=clean_s + ckpt_s,
        metrics=metrics,
    )


def run_backward_offload(seed: int, workdir: Path) -> BenchArtifact:
    """The measured §VI-E frontier: DRAM bytes vs TEPS across k.

    The tiered backward store at k = 2 / 8 / 32 on the PCIe-flash
    scenario, schedule pinned bottom-up so *every* level scans through
    the tier (the hybrid schedule's bottom-up share varies with k and
    would blur the curve).  Per k the artifact records the DRAM-resident
    bytes, the per-vertex fallthrough reads actually issued and the
    modeled TEPS — and the runner asserts the frontier's shape before
    the gate even sees it: as k shrinks, DRAM bytes must strictly fall
    and fallthrough reads strictly rise.
    """
    from repro.analysis.offload_ratio import tiered_offload_sweep
    from repro.bfs.metrics import Direction
    from repro.bfs.policies import FixedPolicy
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.graph500 import EdgeList, generate_edges, sample_roots

    scale, n_roots = 10, 3
    ks = (2, 8, 32)
    scenario = DRAM_PCIE_FLASH
    n = 1 << scale
    edges = EdgeList(generate_edges(scale, seed=seed), n)
    csr = build_csr(edges)
    points = tiered_offload_sweep(
        ForwardGraph(csr, scenario.topology),
        BackwardGraph(csr, scenario.topology),
        scenario.device,
        workdir,
        sample_roots(csr.degrees(), n_roots=n_roots, seed=seed),
        ks=ks,
        policy=FixedPolicy(Direction.BOTTOM_UP),
    )
    for small, big in zip(points, points[1:]):
        if not small.dram_bytes < big.dram_bytes:
            raise AssertionError(
                f"DRAM bytes not strictly increasing in k: "
                f"k={small.k}:{small.dram_bytes} vs k={big.k}:{big.dram_bytes}"
            )
        if not small.fallthrough_rows > big.fallthrough_rows:
            raise AssertionError(
                f"fallthrough reads not strictly decreasing in k: "
                f"k={small.k}:{small.fallthrough_rows} vs "
                f"k={big.k}:{big.fallthrough_rows}"
            )
    metrics: dict[str, BenchMetric] = {}
    for p in points:
        metrics[f"dram_bytes_k{p.k}"] = BenchMetric(
            float(p.dram_bytes), "B", False
        )
        metrics[f"fallthrough_reads_k{p.k}"] = BenchMetric(
            float(p.fallthrough_rows), "reads", False
        )
        metrics[f"teps_k{p.k}"] = BenchMetric(p.teps, "TEPS", True)
    return BenchArtifact(
        name="backward_offload",
        description="Measured memory-vs-TEPS frontier of the tiered "
                    "backward store (k edges per vertex in DRAM).",
        seed=seed,
        params={
            "scale": scale, "n_roots": n_roots, "edge_factor": 16,
            "ks": list(ks), "schedule": "bottom_up",
        },
        simulated_seconds=sum(p.modeled_time_s for p in points),
        metrics=metrics,
    )


def run_dist_scaling(seed: int, workdir: Path) -> BenchArtifact:
    """Partitioned-traversal scaling curve at 1 / 2 / 4 workers.

    The same Kronecker graph through :class:`~repro.dist.DistributedBFS`
    (local backend, PCIe-flash stores) at each partition count, with a
    single-process :class:`~repro.bfs.semi_external.SemiExternalBFS`
    traversal as the oracle — the runner asserts every partitioned tree
    byte-identical to it before any metric is recorded, so a
    determinism regression fails the bench outright rather than
    drifting a number.  Per partition count the artifact records
    modeled TEPS and speedup vs one partition (level time is the max
    over workers plus merge cost, so speedup reflects the real
    coordination overhead); at four workers it also records the mean
    per-level imbalance (slowest worker over mean worker time).
    """
    from repro.bfs.policies import AlphaBetaPolicy
    from repro.bfs.semi_external import SemiExternalBFS
    from repro.csr import BackwardGraph, ForwardGraph, build_csr
    from repro.dist import ContiguousPartitioner, DistributedBFS
    from repro.graph500 import EdgeList, generate_edges
    from repro.semiext.storage import NVMStore

    scale = 10
    partition_counts = (1, 2, 4)
    scenario = DRAM_PCIE_FLASH
    n = 1 << scale
    edges = EdgeList(generate_edges(scale, seed=seed), n)
    csr = build_csr(edges)
    root = int(np.flatnonzero(csr.degrees() > 0)[0])

    def policy() -> AlphaBetaPolicy:
        return AlphaBetaPolicy(alpha=scenario.alpha, beta=scenario.beta)

    oracle_engine = SemiExternalBFS.offload(
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
    oracle = oracle_engine.run(root)

    modeled: dict[int, float] = {}
    imbalance = 0.0
    sim_s = 0.0
    for n_parts in partition_counts:
        engine = DistributedBFS.build(
            csr,
            ContiguousPartitioner(n_parts),
            policy(),
            workdir / f"p{n_parts}",
            scenario.device,
            cost_model=scenario.cost_model,
            concurrency=scenario.topology.n_cores,
        )
        try:
            t0 = engine.clock.now()
            result = engine.run(root)
            modeled[n_parts] = engine.clock.now() - t0
            if not np.array_equal(result.parent, oracle.parent):
                raise AssertionError(
                    f"partitioned tree at {n_parts} partitions diverges "
                    f"from SemiExternalBFS (seed {seed})"
                )
            if n_parts == max(partition_counts):
                ratios = [
                    t.worker_max_s / t.worker_mean_s
                    for t in engine.level_imbalance
                    if t.worker_mean_s > 0.0
                ]
                imbalance = float(np.mean(ratios)) if ratios else 1.0
        finally:
            engine.close()
        sim_s += modeled[n_parts]

    traversed = float(oracle.traversed_edges)
    metrics: dict[str, BenchMetric] = {}
    for n_parts in partition_counts:
        t = modeled[n_parts]
        metrics[f"teps_p{n_parts}"] = BenchMetric(
            traversed / t if t else 0.0, "TEPS", True
        )
    for n_parts in partition_counts[1:]:
        metrics[f"speedup_p{n_parts}"] = BenchMetric(
            modeled[1] / modeled[n_parts] if modeled[n_parts] else 0.0,
            "x", True,
        )
    metrics["imbalance_p4"] = BenchMetric(
        imbalance, "x", False, tolerance=0.10
    )
    return BenchArtifact(
        name="dist_scaling",
        description="Partitioned-BFS scaling curve (1/2/4 workers) with "
                    "byte-identity to the single-process engine asserted "
                    "in-runner.",
        seed=seed,
        params={
            "scale": scale, "edge_factor": 16,
            "partitions": list(partition_counts),
            "alpha": scenario.alpha, "beta": scenario.beta,
        },
        simulated_seconds=sim_s,
        metrics=metrics,
    )


def run_profile_overhead(seed: int, workdir: Path) -> BenchArtifact:
    """Simulated-time overhead of distributed trace collection.

    The same Kronecker graph twice through a 4-partition deployment on
    forked workers (PCIe-flash stores): once bare, once with a live
    :class:`~repro.obs.Observability` session — every worker running its
    own tracer and shipping spans/metrics back with each step reply.
    Observability is bookkeeping, not simulated work: spans must never
    advance the simulated clock, so the modeled time of both runs must
    agree within 5 % (in practice exactly — the runner asserts the pin
    before the gate sees the artifact).  The artifact also records how
    many worker-side spans the traced run shipped, so a silently
    dropped collection path fails the gate as a span-count regression.
    """
    from repro.bfs.policies import AlphaBetaPolicy
    from repro.csr import build_csr
    from repro.dist import ContiguousPartitioner, DistributedBFS
    from repro.graph500 import EdgeList, generate_edges
    from repro.obs import Observability
    from repro.obs.profile import track_of

    scale, n_partitions = 10, 4
    scenario = DRAM_PCIE_FLASH
    n = 1 << scale
    edges = EdgeList(generate_edges(scale, seed=seed), n)
    csr = build_csr(edges)
    root = int(np.flatnonzero(csr.degrees() > 0)[0])

    def run_once(subdir: str, obs: Observability | None) -> float:
        engine = DistributedBFS.build(
            csr,
            ContiguousPartitioner(n_partitions),
            AlphaBetaPolicy(alpha=scenario.alpha, beta=scenario.beta),
            workdir / subdir,
            scenario.device,
            cost_model=scenario.cost_model,
            concurrency=scenario.topology.n_cores,
            backend="process",
            obs=obs,
        )
        try:
            t0 = engine.clock.now()
            engine.run(root)
            return engine.clock.now() - t0
        finally:
            engine.close()

    plain_s = run_once("plain", None)
    obs = Observability()
    traced_s = run_once("traced", obs)
    worker_spans = sum(
        1 for s in obs.tracer.spans if track_of(s) != "coordinator"
    )
    worker_tracks = {
        track_of(s) for s in obs.tracer.spans
    } - {"coordinator"}
    if len(worker_tracks) != n_partitions:
        raise AssertionError(
            f"expected worker spans from {n_partitions} partitions, "
            f"got tracks {sorted(worker_tracks)} (seed {seed})"
        )
    overhead_pct = (
        100.0 * (traced_s - plain_s) / plain_s if plain_s else 0.0
    )
    if overhead_pct > 5.0:
        raise AssertionError(
            f"trace collection added {overhead_pct:.2f} % simulated "
            f"time at {n_partitions} partitions (pin: 5 %, seed {seed})"
        )
    metrics = {
        "modeled_s_plain": BenchMetric(plain_s, "s", False),
        "modeled_s_traced": BenchMetric(traced_s, "s", False),
        "time_overhead_pct": BenchMetric(
            overhead_pct, "%", False, tolerance=0.05
        ),
        "worker_spans": BenchMetric(float(worker_spans), "spans", True),
    }
    return BenchArtifact(
        name="profile_overhead",
        description="Simulated-time overhead of worker-side span "
                    "collection and shipping at 4 forked partitions "
                    "(pinned <= 5 %).",
        seed=seed,
        params={
            "scale": scale, "edge_factor": 16,
            "partitions": n_partitions, "backend": "process",
            "alpha": scenario.alpha, "beta": scenario.beta,
        },
        simulated_seconds=plain_s + traced_s,
        metrics=metrics,
    )


def run_incremental_serve(seed: int, workdir: Path) -> BenchArtifact:
    """Repair-vs-recompute modeled latency after a small mutation batch.

    One PCIe-flash catalog graph, a handful of warm queries, then a
    4-edge mutation batch.  Each stale tree is repaired incrementally
    (charged NVM row reads through the delta shards) and the same roots
    are recomputed from scratch by the batched engine on the
    post-mutation graph.  The runner asserts every repaired tree
    byte-identical to its recomputation and that repair is strictly
    faster on the modeled clock — the whole point of serving dynamic
    graphs through :mod:`repro.graphmut` — before the gate sees any
    number.
    """
    from repro.graphmut import GraphMutator, draw_batch

    scale, n_queries = 10, 6
    n_inserts = n_deletes = 2
    catalog = GraphCatalog(workdir=workdir / "cat")
    graph = catalog.build(
        "g", DRAM_PCIE_FLASH, scale=scale, seed=seed, page_cache_bytes=0,
    )
    mutator = GraphMutator(graph, compact_every=1_000_000)
    clock = graph.clock
    roots = [int(r) for r in np.flatnonzero(graph.degrees > 0)[:n_queries]]
    warm = {r: BatchedBFS(graph).run_batch([r])[0].parent for r in roots}

    rng = np.random.default_rng([seed, 20140519])
    batch = draw_batch(mutator.effective_csr, rng, n_inserts, n_deletes)
    from_version = mutator.version
    mutator.apply(batch)

    repaired: dict[int, np.ndarray] = {}
    repair_s: list[float] = []
    rows_read = 0
    for r in roots:
        t0 = clock.now()
        outcome = mutator.repair(warm[r], r, from_version)
        repair_s.append(clock.now() - t0)
        if outcome is None:
            raise AssertionError(
                f"repair fell back on a {batch.n_mutations}-edge delta "
                f"(root {r}, seed {seed})"
            )
        rows_read += outcome.n_rows_read
        repaired[r] = outcome.parent

    recompute_s: list[float] = []
    for r in roots:
        t0 = clock.now()
        result = BatchedBFS(graph).run_batch([r])[0]
        recompute_s.append(clock.now() - t0)
        if not np.array_equal(result.parent, repaired[r]):
            raise AssertionError(
                f"repaired tree diverges from recomputation at root {r} "
                f"(seed {seed})"
            )
    catalog.close()

    mean_repair = float(np.mean(repair_s))
    mean_recompute = float(np.mean(recompute_s))
    speedup = mean_recompute / mean_repair if mean_repair else 0.0
    if speedup <= 1.0:
        raise AssertionError(
            f"incremental repair not faster than recompute: "
            f"{mean_repair:.6f}s vs {mean_recompute:.6f}s (seed {seed})"
        )
    metrics = {
        "modeled_s_recompute_mean": BenchMetric(mean_recompute, "s", False),
        "modeled_s_repair_mean": BenchMetric(mean_repair, "s", False),
        "repair_speedup_x": BenchMetric(speedup, "x", True),
        "repair_rows_read": BenchMetric(
            float(rows_read), "rows", False, tolerance=0.10
        ),
    }
    return BenchArtifact(
        name="incremental_serve",
        description="Incremental BFS-tree repair vs full recompute after "
                    "a 4-edge mutation batch, modeled clock, "
                    "byte-identity asserted in-runner.",
        seed=seed,
        params={
            "scale": scale, "edge_factor": 16, "n_queries": n_queries,
            "n_inserts": n_inserts, "n_deletes": n_deletes,
        },
        simulated_seconds=float(np.sum(repair_s) + np.sum(recompute_s)),
        metrics=metrics,
    )


SCENARIOS: tuple[BenchScenario, ...] = (
    BenchScenario(
        name="fig11_degradation",
        description="TEPS degradation: DRAM vs PCIe flash vs SSD.",
        paper_ref="PAPER.md §V, Fig. 8/11",
        runner=run_degradation,
    ),
    BenchScenario(
        name="serve_batching",
        description="Serving bytes/query amortization, batch 1 vs 8.",
        paper_ref="PAPER.md §V (device-traffic minimization)",
        runner=run_serve_batching,
    ),
    BenchScenario(
        name="checkpoint_overhead",
        description="Crash-recovery checkpoint write amplification "
                    "and time overhead.",
        paper_ref="PAPER.md §V (semi-external durability)",
        runner=run_checkpoint_overhead,
    ),
    BenchScenario(
        name="backward_offload",
        description="Measured memory-vs-TEPS frontier of the tiered "
                    "backward store.",
        paper_ref="PAPER.md §VI-E, Fig. 14",
        runner=run_backward_offload,
    ),
    BenchScenario(
        name="dist_scaling",
        description="Partitioned-BFS scaling at 1/2/4 workers, trees "
                    "byte-identical to the single-process engine.",
        paper_ref="PAPER.md §VII (beyond-paper distributed extension)",
        runner=run_dist_scaling,
    ),
    BenchScenario(
        name="profile_overhead",
        description="Simulated-time overhead of distributed trace "
                    "collection at 4 forked partitions.",
        paper_ref="PAPER.md §VII (observability extension)",
        runner=run_profile_overhead,
    ),
    BenchScenario(
        name="incremental_serve",
        description="Incremental repair vs full recompute after a "
                    "small mutation batch, byte-identity asserted.",
        paper_ref="PAPER.md §VII (dynamic-graph extension)",
        runner=run_incremental_serve,
    ),
)

_BY_NAME = {s.name: s for s in SCENARIOS}


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, registry order."""
    return tuple(s.name for s in SCENARIOS)


def get_scenario(name: str) -> BenchScenario:
    """Look up one scenario (ConfigurationError on unknown names)."""
    scenario = _BY_NAME.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown benchmark scenario {name!r}; "
            f"have {sorted(_BY_NAME)}"
        )
    return scenario
