"""Vectorized top-down BFS step (paper Figure 1).

For every vertex ``v`` in the frontier, scan its neighbours ``w``; the
first frontier vertex to reach an unvisited ``w`` becomes its parent
(``tree(w) ← v`` under an atomic check in NETAL; here a stable
first-occurrence reduction provides the same "exactly one parent wins"
semantics deterministically).

The step runs once per NUMA shard of the forward graph: shard ``k``
contains only destinations owned by node ``k`` (frontier duplicated across
shards, §V-B2 / Fig. 6), so discoveries from different shards can never
collide and the per-shard results concatenate without conflict resolution —
the vectorized analogue of NETAL writing node-local tree/bitmap entries
only.

Execution is two-phase: a read-only *scan* per shard (optionally fanned
out on a :class:`~repro.bfs.parallel.ShardExecutor`, mirroring NETAL's
per-node thread teams) followed by a serial *commit* that applies any
deferred NVM charges in shard order and installs the discoveries — so
parallel runs are bit-identical to sequential ones.

Adjacency may come from an in-DRAM :class:`~repro.csr.graph.CSRGraph` or a
semi-external :class:`~repro.csr.io.ExternalCSR`; the latter charges the
device model for the index-file and 4 KB-chunked value-file reads exactly
as §V-C describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.csr.graph import CSRGraph
from repro.csr.io import ExternalCSR
from repro.bfs.parallel import ShardExecutor
from repro.bfs.state import BFSState
from repro.util.bitmap import Bitmap
from repro.util.gather import concat_ranges

__all__ = [
    "commit_winners",
    "first_parent_wins",
    "gather_adjacency",
    "top_down_step",
]

_EMPTY = np.empty(0, dtype=np.int64)


def gather_adjacency(
    shard: CSRGraph | ExternalCSR,
    rows: np.ndarray,
    think_time_s: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fetch the concatenated adjacency of ``rows`` from a shard.

    Returns ``(neighbors, counts)``.  The DRAM path is two gathers; the
    external path additionally meters the NVM device.
    """
    if isinstance(shard, ExternalCSR):
        return shard.gather_rows(rows, think_time_s=think_time_s)
    starts, counts = shard.row_extents(rows)
    neighbors = shard.adj[concat_ranges(starts, counts)]
    return neighbors, counts


@dataclass
class _ShardScan:
    """One shard's read-only scan result, awaiting commit."""

    winners: np.ndarray
    parents: np.ndarray
    scanned: int
    is_external: bool
    charges: list = field(default_factory=list)


def first_parent_wins(
    frontier: np.ndarray,
    neighbors: np.ndarray,
    counts: np.ndarray,
    visited: Bitmap,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce one scanned adjacency to ``(winners, parents)``.

    ``neighbors`` is the concatenation of the frontier rows (``counts``
    entries each, in frontier order).  Every unvisited neighbour is won
    by the first frontier vertex that reaches it: ``np.unique`` returns
    the first occurrence of each duplicate, matching the "first atomic
    CAS wins" outcome of the parallel original deterministically (lowest
    frontier position wins).  ``winners`` come back sorted.
    """
    if neighbors.size == 0:
        return _EMPTY, _EMPTY
    unvisited = ~visited.test_many(neighbors)
    if not unvisited.any():
        return _EMPTY, _EMPTY
    winners, first_idx = np.unique(neighbors[unvisited], return_index=True)
    parents = np.repeat(frontier, counts)[unvisited][first_idx]
    return winners, parents


def commit_winners(state: BFSState, parts) -> np.ndarray:
    """Install per-shard ``(winners, parents)`` pairs, in order, into
    ``state`` and return the next frontier (sorted, duplicate-free).

    Shards own disjoint destination ranges, so their winners never
    collide and the commit is a plain concatenation.
    """
    next_parts: list[np.ndarray] = []
    for winners, parents in parts:
        if winners.size:
            state.discover(winners, parents)
            next_parts.append(winners)
    if not next_parts:
        return np.empty(0, dtype=np.int64)
    next_queue = np.concatenate(next_parts)
    next_queue.sort()
    return next_queue


def _scan_shard(
    shard: CSRGraph | ExternalCSR,
    frontier: np.ndarray,
    state: BFSState,
) -> _ShardScan:
    """Scan one shard against the level-frozen state (no mutation)."""
    is_external = isinstance(shard, ExternalCSR)
    if is_external:
        neighbors, counts, charges = shard.gather_rows_deferred(frontier)
    else:
        starts, counts = shard.row_extents(frontier)
        neighbors = shard.adj[concat_ranges(starts, counts)]
        charges = []
    winners, parents = first_parent_wins(
        frontier, neighbors, counts, state.visited
    )
    return _ShardScan(
        winners, parents, int(counts.sum()), is_external, charges
    )


def top_down_step(
    shards: list[CSRGraph | ExternalCSR],
    state: BFSState,
    think_time_s: float = 0.0,
    executor: ShardExecutor | None = None,
    obs=None,
) -> tuple[np.ndarray, int, int]:
    """Expand the frontier one level in the top-down direction.

    Parameters
    ----------
    shards:
        Forward-graph shards, one per NUMA node, each covering all ``n``
        rows with destinations restricted to that node's vertex range.
    state:
        Mutable BFS state; discovered vertices are committed in place.
    think_time_s:
        Per-request CPU overlap passed to the device queueing model when a
        shard is external.
    executor:
        Optional thread pool fanning the per-shard scans out (results are
        identical either way).
    obs:
        Optional :class:`~repro.obs.Observability`; when enabled, each
        shard's serial charge-commit is wrapped in a ``bfs.shard`` span
        (the only clock-advancing part of the step, so span durations
        are exact on the simulated-time axis even under the executor).

    Returns
    -------
    (next_queue, edges_scanned_dram, edges_scanned_nvm):
        The discovered vertices (sorted, duplicate-free) and the number of
        edge probes split by residence of the scanned adjacency — the
        top-down direction always scans every out-edge of the frontier,
        which is exactly why the paper keeps this direction *off* the
        critical path when the forward graph lives on NVM.
    """
    frontier = state.frontier_queue

    def scan(shard):
        return _scan_shard(shard, frontier, state)

    if executor is not None:
        scans = executor.map(scan, shards)
    else:
        scans = [scan(s) for s in shards]

    # Commit phase: serial, in shard order — deterministic charges and
    # discoveries regardless of scan interleaving.  All charges are
    # applied before any discovery is installed: a charge may raise
    # (device failure under fault injection), and an un-mutated state
    # lets the engine re-run the level bottom-up on the DRAM graph.
    scanned_dram = 0
    scanned_nvm = 0
    tracing = obs is not None and obs.enabled
    for k, outcome in enumerate(scans):
        if tracing and outcome.charges:
            with obs.span(
                "bfs.shard",
                shard=k,
                direction="top-down",
                edges=outcome.scanned,
            ):
                for charge in outcome.charges:
                    charge.apply(think_time_s)
        else:
            for charge in outcome.charges:
                charge.apply(think_time_s)
        if outcome.is_external:
            scanned_nvm += outcome.scanned
        else:
            scanned_dram += outcome.scanned
    next_queue = commit_winners(
        state, ((outcome.winners, outcome.parents) for outcome in scans)
    )
    return next_queue, scanned_dram, scanned_nvm
