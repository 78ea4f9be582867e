"""Lockstep distributed BFS: a coordinator over partition workers.

:class:`DistributedBFS` runs the same hybrid level loop as
:class:`~repro.bfs.hybrid.HybridBFS` — the same
:class:`~repro.bfs.loop.LevelCursor` carries it from level to level — but
each level's scan is a broadcast to
:class:`~repro.dist.worker.PartitionWorker` instances (in-process or
forked — see :mod:`repro.dist.process`):

1. decide the direction from *globally reduced* quantities — frontier
   size, frontier out-degree sum, remaining unvisited edges, min device
   health over workers — through the unchanged α/β policy;
2. broadcast the frontier; every worker scans its own partition
   (top-down against its NVM-resident forward column shard, bottom-up
   over its DRAM backward rows);
3. merge: per-partition winners are disjoint by construction, so the
   commit is the single-process shard commit
   (:func:`~repro.bfs.topdown.commit_winners`) in partition order;
4. reconcile clocks: the coordinator's simulated clock advances by the
   *max* worker step time plus a per-vertex merge cost — the lockstep
   (BSP) execution model of the Buluç/Beamer distributed-BFS taxonomy.

Because first-parent-wins resolves per destination inside its single
owning partition (top-down) or per source row (bottom-up), the merged
tree is byte-identical to :class:`~repro.bfs.semi_external.SemiExternalBFS`
at every partition count — pinned by the ``partitioned`` conformance
engine and the ``dist-smoke`` CI job.

Failure handling reuses the existing machinery end to end: a worker's
:class:`~repro.errors.DeviceFailedError` degrades the whole traversal to
bottom-up (the backward rows are in DRAM on every worker), and a
:class:`~repro.errors.ProcessCrashError` restarts just that worker —
the coordinator rebuilds it in a fresh store generation, replays
``visited`` from its merged parent array, and re-steps the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bfs.loop import LevelCursor
from repro.bfs.metrics import BFSResult, Direction, LevelTrace
from repro.bfs.policies import DirectionPolicy
from repro.bfs.state import BFSState
from repro.bfs.topdown import commit_winners
from repro.csr.graph import CSRGraph
from repro.csr.partition import BackwardGraph
from repro.dist.partition import Partitioner, column_shards, row_shards
from repro.dist.process import (
    LocalWorkerHandle,
    ProcessWorkerHandle,
    WorkerConfig,
)
from repro.dist.shm import SharedCSR
from repro.errors import ConfigurationError, DeviceFailedError, ProcessCrashError
from repro.obs.schema import (
    M_DIST_BROADCAST,
    M_DIST_IMBALANCE,
    M_DIST_LEVELS,
    M_DIST_MERGE_SECONDS,
    M_DIST_MERGED,
    M_DIST_QUERIES,
    M_DIST_REPLICAS,
    M_DIST_REPLICATIONS,
    M_DIST_RESTARTS,
    M_DIST_WORKER_EDGES,
    M_DIST_WORKER_SECONDS,
    M_DIST_WORKERS,
)
from repro.obs.session import NULL, Observability
from repro.obs.spans import TraceContext
from repro.perfmodel.cost import DramCostModel
from repro.semiext.clock import SimulatedClock
from repro.util.timer import Timer

__all__ = [
    "DistributedBFS",
    "LevelLoad",
    "register_dist_schema",
    "csr_from_backward",
]

_MAX_RESTARTS_PER_LEVEL = 3


@dataclass(frozen=True)
class LevelLoad:
    """Per-level worker load summary (imbalance = max / mean)."""

    level: int
    worker_max_s: float
    worker_mean_s: float


def register_dist_schema(obs: Observability, n_workers: int) -> None:
    """Pre-register every ``dist.*`` series a deployment can emit.

    Zero-increments instantiate the full label space at startup, so a
    zero-traffic deployment exports a byte-identical metric schema to a
    busy one — the same fix pattern as the ``offload.*`` family.
    """
    if not obs.enabled:
        return
    obs.gauge(M_DIST_WORKERS).set(n_workers)
    for direction in ("top-down", "bottom-up"):
        obs.counter(M_DIST_LEVELS, direction=direction).inc(0)
    obs.counter(M_DIST_BROADCAST).inc(0)
    obs.counter(M_DIST_MERGED).inc(0)
    obs.counter(M_DIST_MERGE_SECONDS).inc(0)
    obs.histogram(M_DIST_IMBALANCE)
    for k in range(n_workers):
        worker = str(k)
        obs.counter(M_DIST_WORKER_SECONDS, worker=worker).inc(0)
        for medium in ("dram", "nvm"):
            obs.counter(M_DIST_WORKER_EDGES, worker=worker, medium=medium).inc(0)
        obs.counter(M_DIST_RESTARTS, worker=worker).inc(0)
    for route in ("partitioned", "replica"):
        obs.counter(M_DIST_QUERIES, route=route).inc(0)
    obs.gauge(M_DIST_REPLICAS).set(0)
    obs.counter(M_DIST_REPLICATIONS).inc(0)


def csr_from_backward(backward: BackwardGraph) -> CSRGraph:
    """Reassemble the full CSR from a row-partitioned backward graph.

    The backward shards hold every row's complete adjacency in row
    order, so concatenating them reproduces the original CSR exactly —
    how the conformance runner recovers a case's graph for partitioning.
    """
    degrees = np.concatenate(
        [np.diff(shard.indptr) for shard in backward.shards]
    )
    adj = np.concatenate([shard.adj for shard in backward.shards])
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return CSRGraph(
        indptr=indptr, adj=adj.astype(np.int64), n_cols=backward.n_vertices
    )


class DistributedBFS:
    """One BFS across partition workers, driven in lockstep levels.

    Build instances with :meth:`build`, which shards the graph, spins up
    the workers (offloading each forward shard to that worker's own NVM
    store) and wires clocks and observability together.
    """

    def __init__(
        self,
        n_vertices: int,
        partitioner: Partitioner,
        policy: DirectionPolicy,
        workers: list,
        degrees: np.ndarray,
        cost_model: DramCostModel | None = None,
        clock: SimulatedClock | None = None,
        obs: Observability | None = None,
        merge_cost_per_vertex_s: float | None = None,
        shared_segments: list[SharedCSR] | None = None,
    ) -> None:
        if len(workers) != partitioner.n_parts:
            raise ConfigurationError(
                f"need {partitioner.n_parts} workers, got {len(workers)}"
            )
        self.n_vertices = int(n_vertices)
        self.partitioner = partitioner
        self.policy = policy
        self.workers = workers
        self.cost_model = cost_model
        self.clock = clock if clock is not None else SimulatedClock()
        self.obs = obs if obs is not None else NULL
        self.obs.bind_clock(self.clock)
        self._degrees = np.asarray(degrees, dtype=np.int64)
        self._total_directed = int(self._degrees.sum())
        self._shared = shared_segments if shared_segments is not None else []
        self._degraded = False
        self.restarts = 0
        self.level_imbalance: list[LevelLoad] = []
        if merge_cost_per_vertex_s is None:
            merge_cost_per_vertex_s = (
                cost_model.level_time_s(0, 1, 0)
                if cost_model is not None
                else 0.0
            )
        self.merge_cost_per_vertex_s = float(merge_cost_per_vertex_s)
        register_dist_schema(self.obs, len(workers))

    @classmethod
    def build(
        cls,
        csr: CSRGraph,
        partitioner: Partitioner,
        policy: DirectionPolicy,
        workdir: str | Path,
        device,
        cost_model: DramCostModel | None = None,
        clock: SimulatedClock | None = None,
        obs: Observability | None = None,
        fault_plans=None,
        backend: str = "local",
        concurrency: int = 48,
        page_cache_bytes: int = 0,
        retry=None,
        merge_cost_per_vertex_s: float | None = None,
    ) -> "DistributedBFS":
        """Shard ``csr``, start one worker per partition, return the engine.

        ``fault_plans`` is ``None``, one plan applied to every worker, or
        a per-worker sequence (``None`` entries allowed) — how tests
        crash exactly one worker.  ``backend`` is ``"local"``
        (in-process) or ``"process"`` (forked workers attached to
        shared-memory CSR segments).
        """
        if backend not in ("local", "process"):
            raise ConfigurationError(
                f"backend must be 'local' or 'process', got {backend!r}"
            )
        n = csr.n_rows
        parts = partitioner.partitions(n)
        fwd = column_shards(csr, partitioner)
        bwd = row_shards(csr, partitioner)
        if fault_plans is None or not isinstance(fault_plans, (list, tuple)):
            fault_plans = [fault_plans] * len(parts)
        if len(fault_plans) != len(parts):
            raise ConfigurationError(
                f"need {len(parts)} fault plans, got {len(fault_plans)}"
            )
        workdir = Path(workdir)
        workers: list = []
        shared: list[SharedCSR] = []
        collect_obs = bool(obs is not None and obs.enabled)
        for k, part in enumerate(parts):
            config = WorkerConfig(
                worker_id=k,
                part=part,
                n_vertices=n,
                workdir=workdir / f"worker{k}",
                device=device,
                cost_model=cost_model,
                fault_plan=fault_plans[k],
                concurrency=concurrency,
                page_cache_bytes=page_cache_bytes,
                retry=retry,
                collect_obs=collect_obs,
            )
            if backend == "process":
                shared_fwd = SharedCSR.create(fwd[k])
                shared_bwd = SharedCSR.create(bwd[k])
                shared.extend([shared_fwd, shared_bwd])
                workers.append(
                    ProcessWorkerHandle(
                        config, shared_fwd.handle, shared_bwd.handle
                    )
                )
            else:
                workers.append(LocalWorkerHandle(config, fwd[k], bwd[k]))
        return cls(
            n_vertices=n,
            partitioner=partitioner,
            policy=policy,
            workers=workers,
            degrees=csr.degrees(),
            cost_model=cost_model,
            clock=clock,
            obs=obs,
            merge_cost_per_vertex_s=merge_cost_per_vertex_s,
            shared_segments=shared,
        )

    # -- health / degradation ------------------------------------------------------

    def _device_health(self) -> float:
        scores = [h.health()[0] for h in self.workers]
        return min(scores) if scores else 1.0

    @property
    def degraded_mode(self) -> bool:
        """Whether the traversal has fallen back to bottom-up-only levels."""
        if self._degraded:
            return True
        return any(h.health()[1] for h in self.workers)

    def _restart_worker(self, k: int, state: BFSState, level: int) -> None:
        """Rebuild worker ``k`` and replay its state from the merged tree."""
        self.workers[k].restart()
        self.workers[k].restore(np.flatnonzero(state.parent >= 0))
        self.restarts += 1
        self.obs.counter(M_DIST_RESTARTS, worker=str(k)).inc()
        self.obs.event("dist.restart", worker=k, level=level)

    def _absorb_worker(self, k: int) -> None:
        """Merge worker ``k``'s drained recordings into the session,
        labeled with its *current* generation (call before a restart so
        a dead generation's spans land under the dead generation)."""
        if not self.obs.enabled:
            return
        handle = self.workers[k]
        self.obs.absorb(
            handle.drain_obs(), worker=k, generation=handle.generation
        )

    def _step_all(
        self, dirname: str, frontier: np.ndarray, level: int, state: BFSState
    ) -> list:
        """One lockstep level: every worker steps, crashed workers restart.

        Opens the level's ``dist.step`` span and ships its id to every
        worker as the :class:`~repro.obs.spans.TraceContext` — worker
        spans come back linked to it by flow events.  Each worker's
        recordings are absorbed as soon as its reply (success *or*
        crash) lands, so a dead generation's spans are retained and the
        restarted generation is labeled separately.

        Raises :class:`~repro.errors.DeviceFailedError` through to the
        level loop (which re-runs the level bottom-up); absorbs
        :class:`~repro.errors.ProcessCrashError` by restarting only the
        crashed worker and re-stepping it — the other partitions are
        unaffected, which is the graceful single-worker degradation the
        serve tier's watchdog relies on.
        """
        obs = self.obs
        scans = []
        with obs.span(
            "dist.step",
            level=level,
            direction=dirname,
            frontier=int(frontier.size),
            workers=len(self.workers),
        ) as step_span:
            ctx = None
            if obs.enabled:
                active = obs.tracer.active_context
                trace_id = (
                    active.trace_id
                    if active is not None
                    else obs.new_trace_id()
                )
                ctx = TraceContext(
                    trace_id=trace_id, parent_span_id=step_span.span_id
                )
            for k, handle in enumerate(self.workers):
                for attempt in range(_MAX_RESTARTS_PER_LEVEL + 1):
                    try:
                        scans.append(
                            handle.step(dirname, frontier, level, ctx=ctx)
                        )
                        self._absorb_worker(k)
                        break
                    except ProcessCrashError:
                        self._absorb_worker(k)
                        if attempt >= _MAX_RESTARTS_PER_LEVEL:
                            raise
                        self._restart_worker(k, state, level)
        return scans

    # -- the level loop ------------------------------------------------------------

    def run(
        self,
        root: int,
        max_levels: int | None = None,
        checkpointer=None,
    ) -> BFSResult:
        """Run one distributed BFS from ``root``.

        The signature (``checkpointer`` included) matches
        :meth:`HybridBFS.run <repro.bfs.hybrid.HybridBFS.run>`, so the
        serve tier and tests drive either engine interchangeably.
        """
        state = BFSState(self.n_vertices, self.partitioner, root)
        self.policy.reset()
        self.level_imbalance = []
        for handle in self.workers:
            handle.reset()
        obs = self.obs
        traces: list[LevelTrace] = []
        total_wall = Timer()
        modeled_start = self.clock.now()
        cursor = LevelCursor.start(self._degrees, root)
        nvm_bytes_prev = self._nvm_bytes()
        # Each run traces under one id: reuse an already-active context
        # (the serve tier's per-query trace) or mint a fresh run-scoped
        # one, so every span — coordinator and worker side — carries it.
        run_ctx = None
        if obs.enabled and obs.tracer.active_context is None:
            run_ctx = TraceContext(trace_id=obs.new_trace_id())
        with obs.activate(run_ctx), obs.span(
            "dist.run", root=root, workers=len(self.workers)
        ):
            while state.frontier_size > 0:
                if max_levels is not None and cursor.level >= max_levels:
                    break
                level = cursor.level
                frontier = state.frontier_queue
                frontier_size = state.frontier_size
                direction = self.policy.decide(cursor.policy_inputs(
                    state,
                    self._degrees,
                    self._total_directed,
                    self._device_health(),
                ))
                if self.degraded_mode:
                    self._degraded = True
                    direction = Direction.BOTTOM_UP
                was_degraded = self._degraded
                wall = Timer()
                t_level0 = self.clock.now()
                with total_wall, wall, obs.span(
                    "dist.level", level=level, direction=direction.value
                ):
                    try:
                        scans = self._step_all(
                            direction.value, frontier, level, state
                        )
                    except DeviceFailedError:
                        # One worker's device died mid-gather; no state
                        # was committed, and every worker's backward rows
                        # are in DRAM — re-run the level bottom-up, stay
                        # degraded for the rest of the traversal.
                        self._degraded = True
                        direction = Direction.BOTTOM_UP
                        scans = self._step_all(
                            direction.value, frontier, level, state
                        )
                    next_queue = commit_winners(
                        state, ((scan.winners, scan.parents) for scan in scans)
                    )
                    next_size = int(next_queue.size)
                    deltas = [scan.clock_delta_s for scan in scans]
                    worker_max = max(deltas)
                    self.clock.advance(worker_max)
                    merge_s = self.merge_cost_per_vertex_s * (
                        frontier_size + next_size
                    )
                    with obs.span("dist.merge", merged=next_size):
                        self.clock.advance(merge_s)
                t_level1 = self.clock.now()
                dirname = direction.value
                scanned_dram = sum(s.scanned_dram for s in scans)
                scanned_nvm = sum(s.scanned_nvm for s in scans)
                obs.counter(M_DIST_LEVELS, direction=dirname).inc()
                obs.counter(M_DIST_BROADCAST).inc(
                    frontier_size * len(self.workers)
                )
                obs.counter(M_DIST_MERGED).inc(next_size)
                obs.counter(M_DIST_MERGE_SECONDS).inc(merge_s)
                for k, scan in enumerate(scans):
                    worker = str(k)
                    obs.counter(M_DIST_WORKER_SECONDS, worker=worker).inc(
                        scan.clock_delta_s
                    )
                    if scan.scanned_dram:
                        obs.counter(
                            M_DIST_WORKER_EDGES, worker=worker, medium="dram"
                        ).inc(scan.scanned_dram)
                    if scan.scanned_nvm:
                        obs.counter(
                            M_DIST_WORKER_EDGES, worker=worker, medium="nvm"
                        ).inc(scan.scanned_nvm)
                mean_delta = sum(deltas) / len(deltas)
                obs.histogram(M_DIST_IMBALANCE).observe(
                    worker_max / mean_delta if mean_delta > 0 else 1.0
                )
                self.level_imbalance.append(
                    LevelLoad(
                        level=level,
                        worker_max_s=worker_max,
                        worker_mean_s=mean_delta,
                    )
                )
                nvm_bytes_now = self._nvm_bytes()
                traces.append(
                    LevelTrace(
                        level=level,
                        direction=direction,
                        frontier_size=frontier_size,
                        next_size=next_size,
                        edges_scanned=scanned_dram + scanned_nvm,
                        wall_time_s=wall.elapsed,
                        modeled_time_s=t_level1 - t_level0,
                        edges_scanned_nvm=scanned_nvm,
                        nvm_bytes=nvm_bytes_now - nvm_bytes_prev,
                        degraded=was_degraded or self._degraded,
                    )
                )
                nvm_bytes_prev = nvm_bytes_now
                cursor.advance(
                    direction, frontier_size, self._degrees[next_queue].sum()
                )
                state.promote_next(next_queue)
                if checkpointer is not None:
                    checkpointer(state, cursor)
        traversed = int(self._degrees[state.parent >= 0].sum()) // 2
        return BFSResult(
            parent=state.parent,
            root=root,
            traces=tuple(traces),
            traversed_edges=traversed,
            wall_time_s=total_wall.elapsed,
            modeled_time_s=self.clock.now() - modeled_start,
        )

    # -- accounting / lifecycle ----------------------------------------------------

    def _nvm_bytes(self) -> int:
        return sum(h.nvm_bytes() for h in self.workers)

    @property
    def n_workers(self) -> int:
        """Number of partition workers this coordinator drives."""
        return len(self.workers)

    def nvm_bytes_per_worker(self) -> list[int]:
        """Device bytes read so far, per worker (serve-tier accounting)."""
        return [h.nvm_bytes() for h in self.workers]

    def close(self) -> None:
        """Stop workers and release shared segments (idempotent).

        Teardown is the final drain point: whatever a worker recorded
        since its last step reply (e.g. restore spans) is absorbed here.
        """
        for k, handle in enumerate(self.workers):
            handle.close()
            self._absorb_worker(k)
        for seg in self._shared:
            seg.close()
        self._shared = []

    def __enter__(self) -> "DistributedBFS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DistributedBFS(n={self.n_vertices}, "
            f"workers={len(self.workers)}, policy={self.policy!r})"
        )
