"""The engine registry the conformance harness differentials over.

Every BFS implementation in the tree — the reference oracle, the fixed
single-direction baselines, the DRAM hybrid, its sharded-parallel twin,
the two NVM-offloaded variants and the serving layer's batched engine —
registers here under one uniform runner signature::

    run(case: GraphCase, setup: TrialSetup, root: int, workdir: Path)
        -> BFSResult

Each call builds a **fresh** engine (and, for external engines, a fresh
:class:`~repro.semiext.storage.NVMStore` with its own simulated clock and
health monitor), so two runs with the same inputs are bit-identical — the
property the differential harness, the shrinker and ``--replay`` all
stand on.

The registry is open: tests register deliberately-broken engines to
exercise the shrinker, and future engines join the conformance gate by
registering a spec rather than by editing the harness.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.bfs.fully_external import FullyExternalBFS
from repro.bfs.hybrid import HybridBFS
from repro.bfs.metrics import BFSResult, Direction
from repro.bfs.policies import AlphaBetaPolicy, FixedPolicy
from repro.bfs.reference import ReferenceBFS
from repro.bfs.semi_external import SemiExternalBFS
from repro.core.config import ScenarioConfig, ScenarioKind
from repro.csr import BackwardGraph, ForwardGraph, build_csr
from repro.csr.graph import CSRGraph
from repro.csr.io import offload_csr
from repro.errors import ConfigurationError, ProcessCrashError
from repro.graph500.edgelist import EdgeList
from repro.numa.topology import NumaTopology
from repro.obs.session import NULL
from repro.recovery import (
    CheckpointManager,
    QuerySnapshot,
    RecoverableBFS,
    load_run,
)
from repro.semiext.device import PCIE_FLASH, SATA_SSD, DeviceModel
from repro.semiext.faults import FaultPlan
from repro.semiext.storage import NVMStore
from repro.semiext.tiered import TieredBackwardStore
from repro.serve.catalog import PinnedGraph
from repro.serve.engine import BatchedBFS

__all__ = [
    "DEVICES",
    "TrialSetup",
    "GraphCase",
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "run_engine",
]

#: Short device keys a :class:`TrialSetup` (and a JSON artifact) may name.
DEVICES: dict[str, DeviceModel] = {"pcie": PCIE_FLASH, "ssd": SATA_SSD}


@dataclass(frozen=True)
class TrialSetup:
    """One drawn scenario: device, α/β schedule and optional fault plan.

    DRAM-only engines ignore the device and fault plan — which is the
    point: every engine must return the same tree regardless of how much
    of this setup applies to it.
    """

    device: str = "pcie"
    alpha: float = 16.0
    beta: float = 64.0
    fault: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.device not in DEVICES:
            raise ConfigurationError(
                f"unknown device {self.device!r} (have {sorted(DEVICES)})"
            )

    @property
    def device_model(self) -> DeviceModel:
        """The device model behind the short key."""
        return DEVICES[self.device]

    def describe(self) -> dict:
        """JSON-safe summary (round-trips through repro artifacts)."""
        fault = None
        if self.fault is not None:
            fault = {
                "seed": int(self.fault.seed),
                "error_rate": float(self.fault.error_rate),
                "torn_rate": float(self.fault.torn_rate),
                "gc_rate": float(self.fault.gc_rate),
                "gc_pause_s": float(self.fault.gc_pause_s),
                "fail_at_s": (None if self.fault.fail_at_s is None
                              else float(self.fault.fail_at_s)),
                "crash_at_s": (None if self.fault.crash_at_s is None
                               else float(self.fault.crash_at_s)),
                "crash_at_level": (None if self.fault.crash_at_level is None
                                   else int(self.fault.crash_at_level)),
                "crash_torn": bool(self.fault.crash_torn),
            }
        return {
            "device": self.device,
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "fault": fault,
        }

    @classmethod
    def from_description(cls, desc: dict) -> "TrialSetup":
        """Inverse of :meth:`describe`."""
        fault = None
        if desc.get("fault") is not None:
            fault = FaultPlan(**desc["fault"])
        return cls(device=desc["device"], alpha=desc["alpha"],
                   beta=desc["beta"], fault=fault)


class GraphCase:
    """One concrete graph a trial runs every engine on.

    Wraps the raw :class:`EdgeList` and lazily derives the CSR and the
    NUMA-partitioned forward/backward pair, so cheap relations (that only
    permute the edge list) never pay construction for graphs they reject.
    """

    def __init__(self, edges: EdgeList,
                 topology: NumaTopology | None = None) -> None:
        self.edges = edges
        self.topology = topology or NumaTopology(n_nodes=2, cores_per_node=2)
        self._csr: CSRGraph | None = None
        self._forward: ForwardGraph | None = None
        self._backward: BackwardGraph | None = None

    @property
    def n_vertices(self) -> int:
        """Vertex count of the underlying edge list."""
        return self.edges.n_vertices

    @property
    def csr(self) -> CSRGraph:
        """The deduplicated CSR, built on first access."""
        if self._csr is None:
            self._csr = build_csr(self.edges)
        return self._csr

    @property
    def forward(self) -> ForwardGraph:
        """The NUMA-partitioned forward graph, built on first access."""
        if self._forward is None:
            self._forward = ForwardGraph(self.csr, self.topology)
        return self._forward

    @property
    def backward(self) -> BackwardGraph:
        """The NUMA-partitioned backward graph, built on first access."""
        if self._backward is None:
            self._backward = BackwardGraph(self.csr, self.topology)
        return self._backward

    def permuted(self, perm: np.ndarray) -> "GraphCase":
        """The same graph with vertex ids relabeled by ``perm``."""
        u, v = self.edges.endpoints
        endpoints = np.stack([perm[u], perm[v]]).astype(np.int64)
        return GraphCase(EdgeList(endpoints, self.n_vertices), self.topology)

    def with_extra_edges(self, extra_u: np.ndarray,
                         extra_v: np.ndarray) -> "GraphCase":
        """The same graph with duplicate/self-loop edges appended."""
        u, v = self.edges.endpoints
        endpoints = np.stack([
            np.concatenate([u, np.asarray(extra_u, dtype=np.int64)]),
            np.concatenate([v, np.asarray(extra_v, dtype=np.int64)]),
        ])
        return GraphCase(EdgeList(endpoints, self.n_vertices), self.topology)

    def __repr__(self) -> str:
        return (f"GraphCase(n={self.n_vertices}, "
                f"m={self.edges.endpoints.shape[1]})")


Runner = Callable[["GraphCase", TrialSetup, int, Path], BFSResult]


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine.

    Attributes
    ----------
    external:
        Reads adjacency through an :class:`NVMStore`, so fault plans
        apply and the fault-vs-clean relation is meaningful.
    schedule_sensitive:
        Consumes the α/β thresholds, so the schedule-invariance relation
        is meaningful.
    recoverable:
        Same signature as ``run``, but executes under the crash-recovery
        subsystem: the setup's fault plan may inject a process crash,
        and the runner checkpoints, resumes and returns the completed
        tree.  ``None`` means the crash-resume relation does not apply.
    dynamic:
        Answers queries through the mutation/repair subsystem
        (:mod:`repro.graphmut`), so the mutation metamorphic relations
        (idempotence, batch-order commutativity) are meaningful.
    """

    name: str
    run: Runner = field(compare=False)
    external: bool = False
    schedule_sensitive: bool = False
    description: str = ""
    recoverable: Runner | None = field(compare=False, default=None)
    dynamic: bool = False


_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Add an engine to the conformance registry.

    Tests use ``replace=True`` to shadow a real engine with a broken one;
    accidental double registration stays an error.
    """
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"engine {spec.name!r} already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove an engine (broken-engine fixtures clean up after themselves)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> EngineSpec:
    """Look up a registered engine."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"no conformance engine named {name!r} "
            f"(have {engine_names()})"
        ) from None


def engine_names() -> tuple[str, ...]:
    """Registered engine names, registration order (reference first)."""
    return tuple(_REGISTRY)


def run_engine(name: str, case: GraphCase, setup: TrialSetup, root: int,
               workdir: str | Path) -> BFSResult:
    """Run one registered engine once (fresh engine and store)."""
    return get_engine(name).run(case, setup, int(root), Path(workdir))


# -- store / engine builders ---------------------------------------------------


def _fresh_store(case: GraphCase, setup: TrialSetup,
                 workdir: Path) -> NVMStore:
    """A fresh store (own clock, health, fault stream) under ``workdir``."""
    path = Path(tempfile.mkdtemp(prefix="engine-", dir=workdir))
    return NVMStore(
        path,
        setup.device_model,
        concurrency=case.topology.n_cores,
        fault_plan=setup.fault,
    )


def _run_reference(case: GraphCase, setup: TrialSetup, root: int,
                   workdir: Path) -> BFSResult:
    return ReferenceBFS(case.csr).run(root)


def _run_topdown(case: GraphCase, setup: TrialSetup, root: int,
                 workdir: Path) -> BFSResult:
    engine = HybridBFS(case.forward, case.backward,
                       FixedPolicy(Direction.TOP_DOWN))
    return engine.run(root)


def _run_bottomup(case: GraphCase, setup: TrialSetup, root: int,
                  workdir: Path) -> BFSResult:
    engine = HybridBFS(case.forward, case.backward,
                       FixedPolicy(Direction.BOTTOM_UP))
    return engine.run(root)


def _run_hybrid(case: GraphCase, setup: TrialSetup, root: int,
                workdir: Path) -> BFSResult:
    engine = HybridBFS(case.forward, case.backward,
                       AlphaBetaPolicy(alpha=setup.alpha, beta=setup.beta))
    return engine.run(root)


def _run_parallel(case: GraphCase, setup: TrialSetup, root: int,
                  workdir: Path) -> BFSResult:
    engine = HybridBFS(case.forward, case.backward,
                       AlphaBetaPolicy(alpha=setup.alpha, beta=setup.beta),
                       n_workers=case.topology.n_nodes)
    try:
        return engine.run(root)
    finally:
        engine.close()


def _run_semi_external(case: GraphCase, setup: TrialSetup, root: int,
                       workdir: Path) -> BFSResult:
    engine = SemiExternalBFS.offload(
        forward=case.forward,
        backward=case.backward,
        policy=AlphaBetaPolicy(alpha=setup.alpha, beta=setup.beta),
        store=_fresh_store(case, setup, workdir),
    )
    return engine.run(root)


def _run_tiered(case: GraphCase, setup: TrialSetup, root: int,
                workdir: Path) -> BFSResult:
    # k pinned low so random graphs actually exercise the NVM tail path
    # (k >= max degree would leave the tails empty); tree equality vs
    # semi_external at *every* k is separately pinned by the hypothesis
    # property in tests/test_offload_store.py.
    store = _fresh_store(case, setup, workdir)
    tiered = TieredBackwardStore.build(case.backward, 2, store)
    engine = SemiExternalBFS.offload(
        forward=case.forward,
        backward=case.backward,
        policy=AlphaBetaPolicy(alpha=setup.alpha, beta=setup.beta),
        store=store,
        backward_scanners=tiered.scanners,
    )
    return engine.run(root)


def _run_fully_external(case: GraphCase, setup: TrialSetup, root: int,
                        workdir: Path) -> BFSResult:
    engine = FullyExternalBFS.offload(
        case.csr, _fresh_store(case, setup, workdir)
    )
    return engine.run(root)


def _pinned_graph(case: GraphCase, setup: TrialSetup,
                  workdir: Path) -> PinnedGraph:
    # The serving engine normally gets its graph from GraphCatalog, which
    # only builds Kronecker graphs — conformance (and shrunk repros) need
    # arbitrary edge lists, so pin the case's graph by hand.
    scenario = ScenarioConfig(
        name=f"conformance-{setup.device}",
        kind=ScenarioKind.SEMI_EXTERNAL,
        device=setup.device_model,
        alpha=setup.alpha,
        beta=setup.beta,
        topology=case.topology,
        fault_plan=setup.fault,
    )
    store = _fresh_store(case, setup, workdir)
    external = [
        offload_csr(shard, store, f"forward.node{k}")
        for k, shard in enumerate(case.forward.shards)
    ]
    return PinnedGraph(
        name="conformance",
        scenario=scenario,
        scale=0,
        edges=case.edges,
        forward=case.forward,
        backward=case.backward,
        store=store,
        external_shards=external,
        alpha=setup.alpha,
        beta=setup.beta,
        obs=NULL,
    )


def _run_batched(case: GraphCase, setup: TrialSetup, root: int,
                 workdir: Path) -> BFSResult:
    graph = _pinned_graph(case, setup, workdir)
    return BatchedBFS(graph).run_batch([int(root)])[0]


def _run_partitioned(case: GraphCase, setup: TrialSetup, root: int,
                     workdir: Path) -> BFSResult:
    # Three partitions so the conformance graphs (often tiny, sometimes
    # shrunk to a handful of vertices) exercise uneven and empty
    # partitions; byte-identity across partition *counts* is separately
    # pinned by tests/test_dist_bfs.py.
    from repro.dist import ContiguousPartitioner, DistributedBFS

    path = Path(tempfile.mkdtemp(prefix="engine-", dir=workdir))
    engine = DistributedBFS.build(
        case.csr,
        ContiguousPartitioner(3),
        AlphaBetaPolicy(alpha=setup.alpha, beta=setup.beta),
        path,
        setup.device_model,
        fault_plans=setup.fault,
        concurrency=case.topology.n_cores,
    )
    try:
        return engine.run(int(root))
    finally:
        engine.close()


def _run_dynamic(case: GraphCase, setup: TrialSetup, root: int,
                 workdir: Path) -> BFSResult:
    """Reach the case graph by repairing a seeded predecessor's tree.

    The serving layer's dynamic path, inverted for conformance: draw a
    mutation batch that separates the case graph G from a predecessor
    G' (the batch's inserts are edges of G, its deletes absent pairs),
    run the reference oracle on G', overlay-apply the batch and repair
    the old tree forward.  Differential byte-identity against every
    other engine on G is then exactly the claim the dynamic subsystem
    makes.  A seeded fraction of runs pins the repair threshold low to
    exercise the fallback-to-recompute path as well.
    """
    from dataclasses import replace

    from repro.graphmut import DeltaOverlay, draw_batch, repair_tree

    csr = case.csr
    n = csr.n_rows
    rng = np.random.default_rng([n, int(csr.adj.size), int(root), 20140519])
    # draw_batch mutates G forward; its inverse is the batch that led
    # *to* G, and applying it forward (un-inverted) yields G'.
    forward = draw_batch(csr, rng, n_inserts=int(rng.integers(0, 4)),
                         n_deletes=int(rng.integers(0, 4)))
    batch = forward.inverse()
    prev = DeltaOverlay(csr)
    prev.apply(forward)
    prev_csr = prev.to_csr()
    old = ReferenceBFS(prev_csr).run(root)
    overlay = DeltaOverlay(prev_csr)
    effective = overlay.apply(batch)
    threshold = 1.0 if rng.random() < 0.8 else 1.0 / max(n, 1)
    outcome = repair_tree(overlay.row, n, root, old.parent, effective,
                          max_dirty_frac=threshold)
    if outcome is None:  # dirty region over threshold: recompute on G
        return ReferenceBFS(overlay.to_csr()).run(root)
    visited = outcome.parent >= 0
    return replace(
        old,
        parent=outcome.parent,
        traversed_edges=int(csr.degrees()[visited].sum() // 2),
    )


# -- crash-recovery runners (the crash_resume relation's subjects) -------------


def _recoverable_semi_external(case: GraphCase, setup: TrialSetup, root: int,
                               workdir: Path) -> BFSResult:
    engine = SemiExternalBFS.offload(
        forward=case.forward,
        backward=case.backward,
        policy=AlphaBetaPolicy(alpha=setup.alpha, beta=setup.beta),
        store=_fresh_store(case, setup, workdir),
    )
    return RecoverableBFS(engine, checkpoint_every=1).run_with_recovery(root)


def _recoverable_fully_external(case: GraphCase, setup: TrialSetup, root: int,
                                workdir: Path) -> BFSResult:
    engine = FullyExternalBFS.offload(
        case.csr, _fresh_store(case, setup, workdir)
    )
    return RecoverableBFS(engine, checkpoint_every=1).run_with_recovery(root)


def _recoverable_batched(case: GraphCase, setup: TrialSetup, root: int,
                         workdir: Path) -> BFSResult:
    """Batched engine under checkpoint + crash + resume (serve-tier path)."""
    graph = _pinned_graph(case, setup, workdir)
    store = graph.store
    mgr = CheckpointManager(store, run_id="conformance", every=1, obs=NULL)

    def hook(queries, rounds: int) -> None:
        if any(q.active for q in queries):
            mgr.save([QuerySnapshot.at("conformance", q.state, q.cursor)
                      for q in queries])
        injector = store.injector
        if injector is not None and injector.crash_due(
            store.clock.now(), rounds - 1
        ):
            if injector.plan.crash_torn:
                mgr.corrupt_last()
            raise ProcessCrashError("injected batch crash", level=rounds - 1)

    try:
        return BatchedBFS(graph).run_batch([int(root)], checkpointer=hook)[0]
    except ProcessCrashError:
        restored = load_run(mgr.dir)
        engine = BatchedBFS(graph)  # watchdog-style fresh engine
        if restored.epoch < 0:
            return engine.run_batch([int(root)])[0]
        mgr.adopt(restored)
        return engine.resume_batch(restored.queries, checkpointer=hook)[0]


for _spec in (
    EngineSpec("reference", _run_reference,
               description="plain top-down oracle over the unpartitioned CSR"),
    EngineSpec("topdown", _run_topdown,
               description="hybrid engine pinned top-down"),
    EngineSpec("bottomup", _run_bottomup,
               description="hybrid engine pinned bottom-up"),
    EngineSpec("hybrid", _run_hybrid, schedule_sensitive=True,
               description="direction-optimizing DRAM engine (§III-C)"),
    EngineSpec("parallel", _run_parallel, schedule_sensitive=True,
               description="hybrid engine with per-node worker threads"),
    EngineSpec("semi_external", _run_semi_external, external=True,
               schedule_sensitive=True,
               description="forward graph offloaded to NVM (§V-A)",
               recoverable=_recoverable_semi_external),
    EngineSpec("tiered", _run_tiered, external=True,
               schedule_sensitive=True,
               description="semi-external with the backward graph tiered "
                           "at k=2 edges/vertex in DRAM (§VI-E)"),
    EngineSpec("fully_external", _run_fully_external, external=True,
               description="whole CSR on NVM, top-down only",
               recoverable=_recoverable_fully_external),
    EngineSpec("batched", _run_batched, external=True,
               schedule_sensitive=True,
               description="serving layer's multi-source batched engine",
               recoverable=_recoverable_batched),
    EngineSpec("partitioned", _run_partitioned, external=True,
               schedule_sensitive=True,
               description="1D vertex-partitioned coordinator/worker "
                           "engine over three partitions"),
    EngineSpec("dynamic", _run_dynamic, dynamic=True,
               description="incremental repair from a seeded predecessor "
                           "graph (the serving layer's mutation path)"),
):
    register_engine(_spec)
