"""Batched multi-source BFS: B queries, one pass over the device.

The measurable win of this engine is **device-read amplification**: B
independent semi-external BFS runs each fetch the forward graph's 4 KB
chunks for their own frontier, so the device serves every hot chunk up to
B times.  Batching coalesces the queries into one traversal that, per
level, gathers the **union** of the top-down frontiers once per NUMA
shard — :meth:`~repro.semiext.storage.NVMStore.charge` already dedups
pages within a batch, so a chunk shared by any number of in-flight
queries is read (and charged to :class:`~repro.semiext.iostats.IoStats`)
exactly once.  NVM bytes per query drop from O(B) toward O(1) as overlap
grows — the serving-time generalization of the paper's §V device-traffic
minimization.

Correctness invariant — **batching never changes an answer**: each query
keeps its own :class:`~repro.bfs.state.BFSState`, its own α/β policy and
its own per-level direction decision driven only by that query's frontier
history.  The shared fetch is an I/O optimization below the algorithm:
per query, the engine selects its frontier's row segments out of the
union gather in the same order the unbatched scan would have produced,
then applies the identical first-parent-wins reduction.  The parent tree
of every query is therefore bit-identical to an unbatched run (pinned by
``tests/test_serve_engine.py`` and ``benchmarks/bench_serve_batching.py``).

Fault behaviour mirrors :class:`~repro.bfs.semi_external.SemiExternalBFS`:
device charges apply before any discovery commits, so a mid-level
:class:`~repro.errors.DeviceFailedError` degrades the whole batch to
bottom-up-only traversal on the in-DRAM backward graph, mid-flight, with
no query losing state.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottomup import bottom_up_step
from repro.bfs.loop import LevelCursor, record_level
from repro.bfs.metrics import BFSResult, Direction, LevelTrace
from repro.bfs.state import BFSState
from repro.bfs.topdown import commit_winners, first_parent_wins, gather_adjacency
from repro.csr.io import ExternalCSR
from repro.errors import ConfigurationError, DeviceFailedError
from repro.obs.schema import (
    M_BFS_RUNS,
    M_BFS_TRAVERSED,
    M_SERVE_ROWS_FETCHED,
    M_SERVE_ROWS_REQUESTED,
)
from repro.obs.session import Observability
from repro.perfmodel.cost import request_think_time_s
from repro.serve.catalog import PinnedGraph
from repro.util.gather import concat_ranges, sorted_unique
from repro.util.timer import Timer

__all__ = ["BatchedBFS"]


class _Query:
    """Per-query traversal state inside one batch (private)."""

    def __init__(self, graph: PinnedGraph, state: BFSState,
                 cursor: LevelCursor) -> None:
        self.state = state
        self.cursor = cursor
        self.policy = graph.make_policy()
        self.policy.reset()
        self.traces: list[LevelTrace] = []

    @classmethod
    def start(cls, graph: PinnedGraph, root: int) -> "_Query":
        """A fresh query from ``root``."""
        state = BFSState(graph.n_vertices, graph.topology, root)
        return cls(graph, state, LevelCursor.start(graph.degrees, root))

    @classmethod
    def restore(cls, graph: PinnedGraph, snap) -> "_Query":
        """Rebuild mid-traversal state from a restored checkpoint query
        (a :class:`~repro.recovery.checkpoint.RestoredQuery`)."""
        state = BFSState.restore(
            graph.n_vertices,
            graph.topology,
            snap.root,
            snap.parent,
            snap.frontier_queue,
        )
        return cls(graph, state, LevelCursor.restore(snap))

    @property
    def root(self) -> int:
        return self.state.root

    @property
    def active(self) -> bool:
        return self.state.frontier_size > 0


class BatchedBFS:
    """Coalesced execution of up to B concurrent BFS queries.

    Parameters
    ----------
    graph:
        The pinned catalog graph every query in a batch runs against.
    obs:
        Observability session; ``serve.rows_*`` amortization counters and
        a ``serve.traversal`` span per batch land here, alongside the
        usual ``bfs.*`` series (labelled ``engine="BatchedBFS"``).
    """

    def __init__(self, graph: PinnedGraph, obs: Observability | None = None) -> None:
        self.graph = graph
        self.obs = obs if obs is not None else graph.obs
        self.obs.bind_clock(graph.clock)
        self._degraded = False
        # Plain-Python mirrors of the serve.rows_* counters so callers
        # can compute the amortization ratio without an obs registry.
        self.rows_requested = 0
        self.rows_fetched = 0

    @property
    def degraded_mode(self) -> bool:
        """Whether the engine (or the device circuit) forces bottom-up."""
        return self._degraded or self.graph.circuit_open

    def run_batch(
        self,
        roots: list[int],
        max_levels: int | None = None,
        checkpointer=None,
        trace_ids: dict[int, str] | None = None,
    ) -> list[BFSResult]:
        """Traverse from every root concurrently; one result per root.

        ``roots`` must be duplicate-free (the server dedups upstream —
        duplicate queries share one traversal by construction).
        ``max_levels`` is the tests' safety valve, as in
        :meth:`repro.bfs.hybrid.HybridBFS.run`.

        ``checkpointer`` is the batch analogue of the single-engine
        level-boundary hook: called as ``checkpointer(queries, rounds)``
        after every completed round with *all* per-query states (each
        exposing ``root``, ``active``, ``state`` and its
        :class:`~repro.bfs.loop.LevelCursor` as ``cursor``), so the serve
        tier can persist an epoch and inject crashes.

        ``trace_ids`` maps each root to its admission-assigned trace id;
        the shared ``serve.traversal`` span records the whole set (one
        traversal serves many traces — that fan-in is the batching
        story, and the span shows exactly which requests shared it).
        """
        if len(set(int(r) for r in roots)) != len(roots):
            raise ConfigurationError("batch roots must be unique")
        if not roots:
            return []
        queries = [_Query.start(self.graph, r) for r in roots]
        for _ in queries:
            self.obs.counter(M_BFS_RUNS, engine="BatchedBFS").inc()
        return self._execute(
            queries, 0, max_levels, checkpointer, trace_ids=trace_ids
        )

    def resume_batch(
        self,
        restored: list,
        max_levels: int | None = None,
        checkpointer=None,
    ) -> list[BFSResult]:
        """Re-enter a batch from restored checkpoint queries.

        ``restored`` holds
        :class:`~repro.recovery.checkpoint.RestoredQuery` snapshots (one
        per query, already-finished ones included — their empty frontier
        just yields the recorded tree).  The continued traversal is
        bit-identical to one that never crashed; traces cover the
        resumed rounds only, and ``bfs.runs_total`` is not re-counted.
        """
        if not restored:
            return []
        queries = [_Query.restore(self.graph, snap) for snap in restored]
        rounds = max(q.cursor.level for q in queries)
        return self._execute(queries, rounds, max_levels, checkpointer)

    def _execute(
        self,
        queries: list[_Query],
        rounds: int,
        max_levels: int | None,
        checkpointer,
        trace_ids: dict[int, str] | None = None,
    ) -> list[BFSResult]:
        graph = self.graph
        clock = graph.clock
        obs = self.obs
        wall = Timer()
        t_batch0 = clock.now()
        span_attrs: dict[str, object] = {}
        if trace_ids:
            joined = ",".join(
                trace_ids[q.root] for q in queries if q.root in trace_ids
            )
            if joined:
                span_attrs["trace_ids"] = joined
        with obs.span(
            "serve.traversal",
            graph=graph.name,
            queries=len(queries),
            **span_attrs,
        ), wall:
            while True:
                active = [q for q in queries if q.active]
                if not active:
                    break
                if max_levels is not None and rounds >= max_levels:
                    break
                self._run_round(active)
                rounds += 1
                if checkpointer is not None:
                    checkpointer(queries, rounds)
        t_batch1 = clock.now()
        results = []
        for q in queries:
            traversed = int(
                graph.degrees[q.state.parent >= 0].sum()
            ) // 2
            obs.counter(M_BFS_TRAVERSED).inc(traversed)
            results.append(BFSResult(
                parent=q.state.parent,
                root=q.root,
                traces=tuple(q.traces),
                traversed_edges=traversed,
                wall_time_s=wall.elapsed,
                modeled_time_s=t_batch1 - t_batch0,
            ))
        return results

    # -- one synchronized round (each active query advances one level) ---------

    def _run_round(self, active: list[_Query]) -> None:
        graph = self.graph
        clock = graph.clock
        t0 = clock.now()
        total_degree = int(graph.degrees.sum())
        directions: dict[int, Direction] = {}
        for q in active:
            decided = q.policy.decide(q.cursor.policy_inputs(
                q.state, graph.degrees, total_degree, graph.device_health()
            ))
            directions[id(q)] = (
                Direction.BOTTOM_UP if self.degraded_mode else decided
            )
        td = [q for q in active if directions[id(q)] is Direction.TOP_DOWN]
        outcomes: dict[int, tuple] = {}
        if td:
            try:
                td_scans = self._top_down_shared(td)
            except DeviceFailedError:
                # Charges already paid are on the clock; no discovery was
                # committed, so the whole round re-runs bottom-up —
                # the batch-wide analogue of SemiExternalBFS degradation.
                self._degraded = True
                if graph.store is not None:
                    graph.store.resilience.degraded_levels += 1
                for q in td:
                    directions[id(q)] = Direction.BOTTOM_UP
            else:
                for q in td:
                    outcomes[id(q)] = self._commit_td(q, td_scans[id(q)])
        for q in active:
            if directions[id(q)] is Direction.BOTTOM_UP:
                # One query's bottom-up level on the in-DRAM backward graph.
                outcomes[id(q)] = bottom_up_step(graph.scanners, q.state)
        # Per-query promotion, DRAM charges and traces (shared round time).
        obs = self.obs
        for q in active:
            direction = directions[id(q)]
            next_queue, scanned_dram, scanned_nvm = outcomes[id(q)]
            frontier_size = q.state.frontier_size
            if graph.cost_model is not None:
                # NVM-fetched probes already entered the queueing model as
                # think time; charge only DRAM-resident work (the level
                # loop's charging rule).
                clock.advance(graph.cost_model.level_time_s(
                    edges_scanned=scanned_dram,
                    frontier_size=frontier_size,
                    next_size=int(next_queue.size),
                ))
            trace = LevelTrace(
                level=q.cursor.level,
                direction=direction,
                frontier_size=frontier_size,
                next_size=int(next_queue.size),
                edges_scanned=scanned_dram + scanned_nvm,
                wall_time_s=0.0,
                modeled_time_s=clock.now() - t0,
                edges_scanned_nvm=scanned_nvm,
                degraded=self.degraded_mode,
            )
            q.traces.append(trace)
            record_level(obs, trace)
            q.cursor.advance(
                direction, frontier_size, graph.degrees[next_queue].sum()
            )
            q.state.promote_next(next_queue)

    # -- shared top-down -------------------------------------------------------

    def _top_down_shared(self, td: list[_Query]) -> dict:
        """Gather the union frontier once per shard; no state mutation.

        Returns per-query candidate discoveries keyed ``id(query)`` →
        list of per-shard ``(winners, parents, scanned)``; commit happens
        after every shard's charge has been applied (so a device failure
        leaves all query states untouched).
        """
        graph = self.graph
        obs = self.obs
        think = request_think_time_s(graph.cost_model, graph.store)
        frontiers = [q.state.frontier_queue for q in td]
        if len(td) == 1:
            union = frontiers[0]
        else:
            union = sorted_unique(np.concatenate(frontiers))
        scans: dict[int, list] = {id(q): [] for q in td}
        n_shards = len(graph.top_down_shards())
        requested = sum(int(f.size) for f in frontiers) * n_shards
        fetched = int(union.size) * n_shards
        self.rows_requested += requested
        self.rows_fetched += fetched
        obs.counter(M_SERVE_ROWS_REQUESTED).inc(requested)
        obs.counter(M_SERVE_ROWS_FETCHED).inc(fetched)
        for shard in graph.top_down_shards():
            if isinstance(shard, ExternalCSR):
                neighbors, counts, charges = shard.gather_rows_deferred(union)
                for charge in charges:
                    charge.apply(think)  # may raise DeviceFailedError
            else:
                neighbors, counts = gather_adjacency(shard, union)
            seg_starts = np.cumsum(counts) - counts
            for q in td:
                frontier = q.state.frontier_queue
                if len(td) == 1:
                    mine_neighbors = neighbors
                    mine_counts = counts
                else:
                    idx = np.searchsorted(union, frontier)
                    mine_counts = counts[idx]
                    mine_neighbors = neighbors[
                        concat_ranges(seg_starts[idx], mine_counts)
                    ]
                winners, parents = first_parent_wins(
                    frontier, mine_neighbors, mine_counts, q.state.visited
                )
                scans[id(q)].append(
                    (winners, parents, int(mine_counts.sum()))
                )
        return scans

    def _commit_td(self, q: _Query, scans: list) -> tuple:
        """Install one query's per-shard discoveries (shard order)."""
        next_queue = commit_winners(q.state, ((w, p) for w, p, _ in scans))
        scanned = sum(n for _, _, n in scans)
        if self.graph.semi_external:
            return next_queue, 0, scanned
        return next_queue, scanned, 0

    def __repr__(self) -> str:
        return f"BatchedBFS({self.graph.name!r})"
