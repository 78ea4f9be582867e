"""Bookkeeping shared by every level loop: one cursor, one recorder.

The paper's algorithm is one level-synchronous loop that re-decides the
direction at every level (§III–IV, Fig. 2).  Whatever an engine's round
body looks like — a per-shard scan, a batched union gather, a broadcast
to partition workers — the loop around it carries the same four values
from one level to the next and reports the same per-level series:

* :class:`LevelCursor` holds the loop-carried values a checkpoint
  records (see :class:`~repro.recovery.checkpoint.QuerySnapshot`),
  builds the direction policy's :class:`~repro.bfs.policies.PolicyInputs`
  and advances after each level;
* :func:`record_level` is the single definition of the ``bfs.*``
  counters and histograms one level emits.  Live engines call it with
  their :class:`~repro.obs.Observability` session, and
  :meth:`BFSResult.metrics_registry <repro.bfs.metrics.BFSResult.metrics_registry>`
  replays stored traces through it, so both answer with the same series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.metrics import Direction, LevelTrace
from repro.bfs.policies import PolicyInputs
from repro.bfs.state import BFSState
from repro.obs.schema import (
    M_BFS_DEGRADED,
    M_BFS_DISCOVERED,
    M_BFS_EDGES,
    M_BFS_FRONTIER,
    M_BFS_LEVEL_SECONDS,
    M_BFS_LEVELS,
)

__all__ = ["LevelCursor", "record_level"]


@dataclass
class LevelCursor:
    """The values one level hands to the next.

    ``level`` is the index of the level about to run, ``direction`` the
    direction the previous level ran in, ``prev_frontier`` that level's
    frontier size and ``visited_deg_sum`` the degree sum of every vertex
    visited so far (Beamer's ``m_u`` is the total minus it).  The
    direction policy is stateless between levels, so these four plus the
    :class:`~repro.bfs.state.BFSState` resume a traversal bit-identically.
    """

    level: int = 0
    direction: Direction = Direction.TOP_DOWN
    prev_frontier: int = 0
    visited_deg_sum: int = 0

    @classmethod
    def start(cls, degrees: np.ndarray, root: int) -> "LevelCursor":
        """The cursor of a fresh traversal from ``root``."""
        return cls(visited_deg_sum=int(degrees[root]))

    @classmethod
    def restore(cls, snap) -> "LevelCursor":
        """The cursor a checkpointed query recorded.

        ``snap`` is a :class:`~repro.recovery.checkpoint.QuerySnapshot`
        or :class:`~repro.recovery.checkpoint.RestoredQuery` (duck-typed
        to keep the recovery layer out of this import graph).
        """
        return cls(
            level=int(snap.level),
            direction=Direction(snap.direction),
            prev_frontier=int(snap.prev_frontier),
            visited_deg_sum=int(snap.visited_deg_sum),
        )

    def policy_inputs(
        self,
        state: BFSState,
        degrees: np.ndarray,
        total_degree: int,
        device_health: float,
    ) -> PolicyInputs:
        """What the direction policy sees before the next level."""
        return PolicyInputs(
            level=self.level,
            current=self.direction,
            n_frontier=state.frontier_size,
            n_frontier_prev=self.prev_frontier,
            n_all=state.n_vertices,
            frontier_edges=int(degrees[state.frontier_queue].sum()),
            unvisited_edges=total_degree - self.visited_deg_sum,
            device_health=device_health,
        )

    def advance(
        self, direction: Direction, frontier_size: int, discovered_deg_sum: int
    ) -> None:
        """Step past a level that ran ``direction`` over ``frontier_size``
        vertices and discovered vertices of degree sum ``discovered_deg_sum``."""
        self.level += 1
        self.direction = direction
        self.prev_frontier = int(frontier_size)
        self.visited_deg_sum += int(discovered_deg_sum)


def record_level(sink, trace: LevelTrace) -> None:
    """Emit one level's ``bfs.*`` counters and histograms into ``sink``.

    ``sink`` is anything with ``counter``/``histogram`` accessors: a live
    :class:`~repro.obs.Observability` session or a bare
    :class:`~repro.obs.registry.MetricsRegistry`.  The DRAM edge series is
    emitted even when zero, the NVM one only when the level touched the
    device.
    """
    d = trace.direction.value
    sink.counter(M_BFS_LEVELS, direction=d).inc()
    sink.counter(M_BFS_EDGES, direction=d, medium="dram").inc(
        trace.edges_scanned - trace.edges_scanned_nvm
    )
    if trace.edges_scanned_nvm:
        sink.counter(M_BFS_EDGES, direction=d, medium="nvm").inc(
            trace.edges_scanned_nvm
        )
    sink.counter(M_BFS_DISCOVERED, direction=d).inc(trace.next_size)
    if trace.degraded:
        sink.counter(M_BFS_DEGRADED).inc()
    sink.histogram(M_BFS_LEVEL_SECONDS).observe(trace.modeled_time_s)
    sink.histogram(M_BFS_FRONTIER).observe(trace.frontier_size)
