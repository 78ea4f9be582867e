"""Per-partition BFS worker: one vertex range, one NVM store, one clock.

A :class:`PartitionWorker` owns everything partition-local of a
distributed traversal: the forward column shard offloaded to its own
:class:`~repro.semiext.storage.NVMStore` (top-down levels read it back
through the same chunked, fault-injectable path as
:class:`~repro.bfs.semi_external.SemiExternalBFS`), the backward row
shard scanned in DRAM, a visited bitmap maintained from the
coordinator's frontier broadcasts, and the partition's shrinking
bottom-up candidate list.

The worker never decides directions and never merges: it answers one
:meth:`step` per level — apply the broadcast frontier, scan in the
direction the coordinator chose, return a :class:`WorkerScan` of
partition-local discoveries plus its clock delta and device health.
Applying the frontier is idempotent, which is what lets the coordinator
replay a level into a freshly :meth:`restore`-d worker after a process
crash.

Charging parity with the single-process engine: NVM-fetched edges pay
device service plus per-request think time on the worker's own clock
and page-cache hits pay ``cache_hit_time_per_byte``, while DRAM-resident
probes are charged through ``cost_model.level_time_s`` — the level
loop's charging rule (:meth:`repro.bfs.hybrid.HybridBFS.resume`), just on
a per-worker time axis the coordinator reconciles by taking the max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.bottomup import InMemoryScanner
from repro.bfs.topdown import first_parent_wins
from repro.csr.graph import CSRGraph
from repro.csr.io import ExternalCSR, offload_csr
from repro.errors import ConfigurationError, ProcessCrashError
from repro.numa.topology import VertexPartition
from repro.obs.session import NULL, Observability
from repro.obs.spans import TraceContext
from repro.perfmodel.cost import DramCostModel, request_think_time_s
from repro.semiext.storage import NVMStore
from repro.util.bitmap import Bitmap

__all__ = ["WorkerScan", "PartitionWorker"]

TOP_DOWN = "top-down"
BOTTOM_UP = "bottom-up"


@dataclass(frozen=True)
class WorkerScan:
    """One worker's answer to one level step (picklable).

    ``winners``/``parents`` are the partition-local discoveries —
    globally disjoint across workers because every winner is owned by
    exactly one partition.  ``clock_delta_s`` is the simulated time this
    step cost on the worker's private clock; the coordinator advances
    the global clock by the max over workers.
    """

    winners: np.ndarray
    parents: np.ndarray
    scanned_dram: int
    scanned_nvm: int
    clock_delta_s: float
    health_score: float
    circuit_open: bool

    @property
    def scanned(self) -> int:
        """Total edges probed this step, both media."""
        return self.scanned_dram + self.scanned_nvm


_EMPTY = np.empty(0, dtype=np.int64)


class PartitionWorker:
    """BFS executor for one vertex partition.

    Parameters
    ----------
    worker_id:
        Partition index (names the offloaded forward files).
    part:
        The owned contiguous vertex range.
    forward_shard:
        Column shard of the forward graph — all ``n`` rows, destinations
        restricted to ``[part.lo, part.hi)``.  Offloaded to ``store`` at
        construction; the DRAM copy may be dropped afterwards.
    backward_shard:
        Row shard of the backward graph — rows ``[part.lo, part.hi)``
        shifted to local indices, kept in DRAM.
    n_vertices:
        Global vertex count (sizes the visited bitmap).
    store:
        This worker's private NVM store (own clock, own fault plan, own
        health monitor).
    cost_model:
        DRAM cost model; ``None`` disables DRAM-side charges (device
        charges still tick the worker clock).
    obs:
        This worker's *private* observability session, bound to the
        worker's clock (pass the same session into the store so its
        ``nvm.charge`` spans nest under the scan spans).  Recordings are
        shipped to the coordinator via
        :meth:`~repro.obs.session.Observability.drain` and merged with
        :meth:`~repro.obs.session.Observability.absorb`; defaults to
        the disabled :data:`~repro.obs.NULL` session.
    """

    def __init__(
        self,
        worker_id: int,
        part: VertexPartition,
        forward_shard: CSRGraph,
        backward_shard: CSRGraph,
        n_vertices: int,
        store: NVMStore,
        cost_model: DramCostModel | None = None,
        obs: Observability | None = None,
    ) -> None:
        if part.hi - part.lo != backward_shard.n_rows:
            raise ConfigurationError(
                f"backward shard has {backward_shard.n_rows} rows for "
                f"partition [{part.lo}, {part.hi})"
            )
        if forward_shard.n_rows != n_vertices:
            raise ConfigurationError(
                f"forward column shard must keep all {n_vertices} rows, "
                f"got {forward_shard.n_rows}"
            )
        self.worker_id = int(worker_id)
        self.part = part
        self.n_vertices = int(n_vertices)
        self.store = store
        self.cost_model = cost_model
        self.obs = obs if obs is not None else NULL
        self.obs.bind_clock(store.clock)
        self.external: ExternalCSR = offload_csr(
            forward_shard, store, f"forward.part{worker_id}"
        )
        self.scanner = InMemoryScanner(backward_shard)
        self.visited = Bitmap(n_vertices)
        self._candidates = np.arange(part.lo, part.hi, dtype=np.int64)
        if cost_model is not None:
            per_edge_s = cost_model.level_time_s(1, 0, 0)
            store.cache_hit_time_per_byte = per_edge_s / 8.0

    # -- state maintenance ---------------------------------------------------------

    def apply_frontier(self, frontier: np.ndarray) -> None:
        """Mark the broadcast frontier visited and prune candidates.

        Idempotent: re-applying a frontier after a crash-restart reaches
        the same bitmap and candidate list a continuously-live worker
        holds.
        """
        with self.obs.span(
            "dist.worker_apply",
            worker=self.worker_id,
            frontier=int(frontier.size),
        ):
            if frontier.size:
                self.visited.set_many(frontier)
            cand = self._candidates
            if cand.size:
                still = ~self.visited.test_many(cand)
                if not still.all():
                    self._candidates = cand[still]

    def reset(self) -> None:
        """Clear per-run state (visited bitmap, candidate list).

        The coordinator resets every worker at the top of each ``run``—
        workers are long-lived across queries, their search state is not.
        """
        self.visited = Bitmap(self.n_vertices)
        self._candidates = np.arange(
            self.part.lo, self.part.hi, dtype=np.int64
        )

    def restore(self, visited_ids: np.ndarray) -> None:
        """Rebuild visited/candidate state from the coordinator's tree.

        ``visited_ids`` is ``np.flatnonzero(parent >= 0)`` of the
        coordinator's merged parent array — everything discovered up to
        and including the frontier about to be (re)stepped.
        """
        with self.obs.span(
            "dist.worker_restore",
            worker=self.worker_id,
            visited=int(np.asarray(visited_ids).size),
        ):
            self.visited = Bitmap.from_indices(self.n_vertices, visited_ids)
            local = np.arange(self.part.lo, self.part.hi, dtype=np.int64)
            self._candidates = local[~self.visited.test_many(local)]

    # -- level step ---------------------------------------------------------------

    def step(
        self,
        direction: str,
        frontier: np.ndarray,
        level: int,
        ctx: TraceContext | None = None,
    ) -> WorkerScan:
        """Scan one level and return partition-local discoveries.

        ``ctx`` is the coordinator's propagated trace context: while the
        step runs, every span this worker records carries its trace id,
        and the top-level ``dist.worker`` span carries a ``flow_parent``
        link back to the coordinator's ``dist.step`` span.

        Raises :class:`~repro.errors.ProcessCrashError` when this
        worker's fault plan schedules a crash at this level boundary, and
        :class:`~repro.errors.DeviceFailedError` when its device dies
        mid-gather (no state was mutated; the coordinator re-runs the
        level bottom-up).
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        # Nothing before the scan advances the worker clock, so the
        # dist.worker span's virtual duration equals clock_delta_s — the
        # profile's per-worker self-time sums therefore reconcile with
        # dist.worker_seconds_total exactly.
        with self.obs.activate(ctx):
            with self.obs.span(
                "dist.worker",
                worker=self.worker_id,
                level=int(level),
                direction=direction,
            ) as worker_span:
                self.apply_frontier(frontier)
                injector = self.store.injector
                now = self.store.clock.now()
                if injector is not None and injector.crash_due(now, level):
                    worker_span.set(crashed=True)
                    raise ProcessCrashError(
                        f"injected crash of worker {self.worker_id} at level "
                        f"{level}, t={now:.6f}s",
                        crashed_at_s=now,
                        level=level,
                    )
                t0 = self.store.clock.now()
                with self.obs.span(
                    "dist.worker_scan",
                    worker=self.worker_id,
                    level=int(level),
                    direction=direction,
                    frontier=int(frontier.size),
                ) as scan_span:
                    if direction == TOP_DOWN:
                        winners, parents, dram, nvm, next_size = (
                            self._top_down(frontier)
                        )
                    elif direction == BOTTOM_UP:
                        winners, parents, dram, nvm, next_size = (
                            self._bottom_up(frontier)
                        )
                    else:
                        raise ConfigurationError(
                            f"unknown direction {direction!r}"
                        )
                    if self.cost_model is not None:
                        self.store.clock.advance(
                            self.cost_model.level_time_s(
                                edges_scanned=dram,
                                frontier_size=int(frontier.size),
                                next_size=next_size,
                            )
                        )
                    scan_span.set(
                        scanned_dram=int(dram),
                        scanned_nvm=int(nvm),
                        winners=int(winners.size),
                    )
                return WorkerScan(
                    winners=winners,
                    parents=parents,
                    scanned_dram=dram,
                    scanned_nvm=nvm,
                    clock_delta_s=self.store.clock.now() - t0,
                    health_score=self.store.health.health_score(),
                    circuit_open=self.store.health.circuit_open,
                )

    def _top_down(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int, int]:
        """Gather the frontier's out-edges landing in this partition.

        First-parent-wins per destination: every destination in this
        shard is owned here, so the shared reduction resolves each vertex
        exactly as the single-process shard scan does — partition
        boundaries cannot change winners.
        """
        neighbors, counts = self.external.gather_rows(
            frontier,
            think_time_s=request_think_time_s(self.cost_model, self.store),
        )
        winners, parents = first_parent_wins(
            frontier, neighbors, counts, self.visited
        )
        return winners, parents, 0, int(counts.sum()), int(winners.size)

    def _bottom_up(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int, int]:
        """Scan this partition's unvisited rows against the frontier."""
        cand = self._candidates
        if cand.size == 0:
            return _EMPTY, _EMPTY, 0, 0, 0
        member = np.zeros(self.n_vertices, dtype=bool)
        member[frontier] = True
        outcome = self.scanner.scan(cand - self.part.lo, member)
        found = outcome.parents >= 0
        winners = cand[found]
        parents = outcome.parents[found]
        return (
            winners,
            parents,
            outcome.scanned_dram,
            outcome.scanned_nvm,
            int(winners.size),
        )

    def health(self) -> tuple[float, bool]:
        """Current ``(health_score, circuit_open)`` of this worker's device."""
        return self.store.health.health_score(), self.store.health.circuit_open

    def nvm_bytes(self) -> int:
        """Total bytes this worker has read from its device."""
        return self.store.iostats.total_bytes

    def close(self) -> None:
        """Release store resources (idempotent)."""
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:
        return (
            f"PartitionWorker(id={self.worker_id}, "
            f"range=[{self.part.lo}, {self.part.hi}))"
        )
