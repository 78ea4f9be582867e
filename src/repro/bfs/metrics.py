"""BFS run results and per-level traces.

Every engine returns a :class:`BFSResult` carrying the parent tree plus a
:class:`LevelTrace` per level.  The traces are the raw material of the
paper's evaluation figures: traversed-edge splits by direction (Fig. 10),
per-level average degree and degradation ratios (Fig. 11), and the
direction-switch schedule the α/β discussion describes (§VI-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.obs.schema import (
    M_BFS_DEGRADED,
    M_BFS_EDGES,
    M_BFS_LEVELS,
    M_BFS_TRAVERSED,
)

__all__ = ["Direction", "LevelTrace", "BFSResult", "record_run_spans"]


class Direction(enum.Enum):
    """Search direction of one BFS level."""

    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"


@dataclass(frozen=True)
class LevelTrace:
    """Measurements of one BFS level.

    Attributes
    ----------
    level:
        0-based BFS depth (level 0 expands the root).
    direction:
        Direction chosen by the policy for this level.
    frontier_size:
        Vertices in the frontier entering the level.
    next_size:
        Vertices discovered by the level.
    edges_scanned:
        Edge probes actually performed: all frontier out-edges for
        top-down; early-termination-exact counts for bottom-up.
    edges_scanned_nvm:
        The subset of ``edges_scanned`` whose adjacency entry resided on
        NVM (forward-graph reads in semi-external top-down levels;
        backward-suffix reads under partial offloading).
    wall_time_s:
        Real elapsed time of the level.
    modeled_time_s:
        Simulated time (DRAM cost model + NVM device charges).
    nvm_requests / nvm_bytes:
        Device requests issued by the level (0 for in-DRAM levels).
    nvm_time_s:
        Portion of ``modeled_time_s`` spent in device service.
    degraded:
        The level ran in degraded mode: the device circuit breaker was
        open (or opened mid-level), so the level executed bottom-up on
        the in-DRAM backward graph regardless of what the policy chose.
    """

    level: int
    direction: Direction
    frontier_size: int
    next_size: int
    edges_scanned: int
    wall_time_s: float
    modeled_time_s: float
    edges_scanned_nvm: int = 0
    nvm_requests: int = 0
    nvm_bytes: int = 0
    nvm_time_s: float = 0.0
    degraded: bool = False

    @property
    def avg_degree(self) -> float:
        """Average edges scanned per frontier vertex (Fig. 11's x axis)."""
        if self.frontier_size == 0:
            return 0.0
        return self.edges_scanned / self.frontier_size


@dataclass(frozen=True)
class BFSResult:
    """Outcome of one BFS execution.

    ``traversed_edges`` counts *undirected input-graph edges* in the
    traversed component (the Graph500 TEPS numerator): half the sum of the
    visited vertices' degrees in the deduplicated graph.
    """

    parent: np.ndarray
    root: int
    traces: tuple[LevelTrace, ...]
    traversed_edges: int
    wall_time_s: float
    modeled_time_s: float

    # -- aggregate views used by the analysis modules -----------------------------

    @property
    def n_levels(self) -> int:
        """Number of BFS levels executed (including empty final probe)."""
        return len(self.traces)

    @property
    def n_visited(self) -> int:
        """Vertices reached (root included)."""
        return int(np.count_nonzero(np.asarray(self.parent) >= 0))

    def metrics_registry(self) -> MetricsRegistry:
        """This run's traces replayed into a fresh metrics registry.

        The registry carries exactly the ``bfs.*`` series a live
        :class:`~repro.obs.Observability` session would have recorded
        for this run alone (both go through
        :func:`~repro.bfs.loop.record_level`; ``bfs.runs_total`` is the
        one live-only series) — the aggregate views below read from it, so
        a stored :class:`BFSResult` and a live session answer the same
        questions through the same metric names.
        """
        # Deferred: repro.bfs.loop imports this module.
        from repro.bfs.loop import record_level

        reg = MetricsRegistry()
        for t in self.traces:
            record_level(reg, t)
        reg.counter(M_BFS_TRAVERSED).inc(self.traversed_edges)
        return reg

    def edges_by_direction(self) -> dict[Direction, int]:
        """Total scanned edges per direction (Fig. 10's bars)."""
        reg = self.metrics_registry()
        return {
            d: int(
                reg.value(M_BFS_EDGES, direction=d.value, medium="dram")
                + reg.value(M_BFS_EDGES, direction=d.value, medium="nvm")
            )
            for d in Direction
        }

    def levels_by_direction(self) -> dict[Direction, int]:
        """Number of levels executed per direction."""
        reg = self.metrics_registry()
        return {
            d: int(reg.value(M_BFS_LEVELS, direction=d.value))
            for d in Direction
        }

    @property
    def n_degraded_levels(self) -> int:
        """Levels forced to bottom-up by an open device circuit."""
        return int(self.metrics_registry().value(M_BFS_DEGRADED))

    def teps(self, modeled: bool = False) -> float:
        """TEPS of this run (wall-clock by default, modeled on request)."""
        t = self.modeled_time_s if modeled else self.wall_time_s
        if t <= 0:
            return 0.0
        return self.traversed_edges / t

    def direction_schedule(self) -> str:
        """Compact schedule string, e.g. ``'TTBBBTT'`` (§VI-C analysis)."""
        return "".join(
            "T" if t.direction is Direction.TOP_DOWN else "B" for t in self.traces
        )


def record_run_spans(
    obs,
    engine: str,
    root: int,
    t_start: float,
    t_end: float,
    traces: list[LevelTrace],
    level_bounds: list[tuple[float, float]],
) -> None:
    """Synthesize the ``bfs.run`` → ``bfs.phase`` → ``bfs.level`` span
    tree of one finished run from its recorded level boundaries.

    Every engine calls this after its level loop rather than opening
    spans live, keeping the hot loop free of context-manager nesting.
    Phases are maximal runs of same-direction levels — the paper's
    §VI-C direction-switch schedule rendered as a span hierarchy.
    """
    if not obs.enabled or not traces:
        return
    run_span = obs.record_span(
        "bfs.run",
        t_start,
        t_end,
        engine=engine,
        root=int(root),
        levels=len(traces),
    )
    i = 0
    while i < len(traces):
        j = i
        while (
            j + 1 < len(traces)
            and traces[j + 1].direction is traces[i].direction
        ):
            j += 1
        phase = obs.record_span(
            "bfs.phase",
            level_bounds[i][0],
            level_bounds[j][1],
            parent=run_span,
            direction=traces[i].direction.value,
            levels=j - i + 1,
        )
        for k in range(i, j + 1):
            t = traces[k]
            obs.record_span(
                "bfs.level",
                level_bounds[k][0],
                level_bounds[k][1],
                parent=phase,
                level=t.level,
                direction=t.direction.value,
                frontier=t.frontier_size,
                discovered=t.next_size,
                edges_scanned=t.edges_scanned,
                degraded=t.degraded,
            )
        i = j + 1
