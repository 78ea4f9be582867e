"""Graph500 v2.1.4-style reference BFS (the paper's lower baseline).

The reference code is a plain level-synchronous *top-down only* BFS over a
single unpartitioned CSR with a shared output queue — no direction
optimization, no NUMA placement, no visited bitmap (it tests the parent
array directly).  On the paper's machine it reaches 0.04 GTEPS versus
NETAL's 0.6 GTEPS top-down and 5.12 GTEPS hybrid (Fig. 8).

This engine reproduces those structural handicaps:

* top-down every level (so it scans all ``2M`` directed edges);
* NUMA-blind memory layout — modeled time uses
  :meth:`DramCostModel.reference`, which charges ¾ of probes as remote
  and collapses effective parallelism to reflect shared-queue contention;
* duplicate discoveries resolved per level through a sort (the reference
  dedups through its shared queue).

The parent trees it produces validate identically to the hybrid engines'.
It keeps its own traversal step, independent of the shared kernels in
:mod:`repro.bfs.topdown`, because it is the conformance oracle every
other engine is diffed against; it shares only the per-level recorder
(:func:`~repro.bfs.loop.record_level`) and the span synthesis.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.loop import record_level
from repro.bfs.metrics import BFSResult, Direction, LevelTrace, record_run_spans
from repro.bfs.state import UNVISITED
from repro.csr.graph import CSRGraph
from repro.errors import ConfigurationError
from repro.obs.schema import M_BFS_RUNS, M_BFS_TRAVERSED
from repro.obs.session import NULL
from repro.perfmodel.cost import DramCostModel
from repro.semiext.clock import SimulatedClock
from repro.util.gather import concat_ranges
from repro.util.timer import Timer

__all__ = ["ReferenceBFS"]


class ReferenceBFS:
    """The unoptimized top-down baseline over a single CSR."""

    def __init__(
        self,
        graph: CSRGraph,
        cost_model: DramCostModel | None = None,
        clock: SimulatedClock | None = None,
        obs=None,
    ) -> None:
        if graph.n_rows != graph.n_cols:
            raise ConfigurationError("ReferenceBFS requires a square CSR")
        self.graph = graph
        self.cost_model = (
            cost_model.reference() if cost_model is not None else None
        )
        self.clock = clock if clock is not None else SimulatedClock()
        self.obs = obs if obs is not None else NULL
        self.obs.bind_clock(self.clock)
        self._degrees = graph.degrees()

    def run(self, root: int, max_levels: int | None = None) -> BFSResult:
        """Run one reference BFS from ``root``."""
        n = self.graph.n_rows
        if not 0 <= root < n:
            raise ConfigurationError(f"root {root} outside [0, {n})")
        parent = np.full(n, UNVISITED, dtype=np.int64)
        parent[root] = root
        frontier = np.array([root], dtype=np.int64)
        traces: list[LevelTrace] = []
        total_wall = Timer()
        modeled_start = self.clock.now()
        obs = self.obs
        obs.counter(M_BFS_RUNS, engine=type(self).__name__).inc()
        level_bounds: list[tuple[float, float]] = []
        level = 0
        while frontier.size:
            if max_levels is not None and level >= max_levels:
                break
            wall = Timer()
            with total_wall, wall:
                starts, counts = self.graph.row_extents(frontier)
                neighbors = self.graph.adj[concat_ranges(starts, counts)]
                scanned = int(counts.sum()) if counts.size else 0
                parents_rep = np.repeat(frontier, counts)
                # The reference checks the parent array itself (no bitmap).
                mask = parent[neighbors] == UNVISITED
                cand_w = neighbors[mask]
                cand_v = parents_rep[mask]
                winners, first_idx = np.unique(cand_w, return_index=True)
                parent[winners] = cand_v[first_idx]
                next_frontier = winners
            t0 = self.clock.now()
            if self.cost_model is not None:
                self.clock.advance(
                    self.cost_model.level_time_s(
                        edges_scanned=scanned,
                        frontier_size=int(frontier.size),
                        next_size=int(next_frontier.size),
                    )
                )
            t1 = self.clock.now()
            level_bounds.append((t0, t1))
            trace = LevelTrace(
                level=level,
                direction=Direction.TOP_DOWN,
                frontier_size=int(frontier.size),
                next_size=int(next_frontier.size),
                edges_scanned=scanned,
                wall_time_s=wall.elapsed,
                modeled_time_s=t1 - t0,
            )
            traces.append(trace)
            record_level(obs, trace)
            obs.track("bfs.frontier_vertices", int(frontier.size))
            frontier = next_frontier
            level += 1
        traversed = int(self._degrees[parent >= 0].sum()) // 2
        obs.counter(M_BFS_TRAVERSED).inc(traversed)
        record_run_spans(
            obs,
            type(self).__name__,
            root,
            modeled_start,
            self.clock.now(),
            traces,
            level_bounds,
        )
        return BFSResult(
            parent=parent,
            root=root,
            traces=tuple(traces),
            traversed_edges=traversed,
            wall_time_s=total_wall.elapsed,
            modeled_time_s=self.clock.now() - modeled_start,
        )

    def __repr__(self) -> str:
        return f"ReferenceBFS(n={self.graph.n_rows})"
