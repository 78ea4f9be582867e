"""Vectorized bottom-up BFS step with exact early termination (Figure 2).

Every *unvisited* vertex ``w`` scans its neighbour list for a frontier
member ``v``; at the first hit it sets ``tree(w) ← v`` and **stops
scanning** — the early termination that makes the bottom-up direction so
cheap on the big middle levels.

Vectorization: :func:`~repro.util.gather.first_hit_rows` probes the k-th
entry of every still-unresolved row together, for the first few columns,
and gathers whole rows only for the few rows still unresolved after
that — so DRAM reads stay close to the early-exit probes a scalar scan
makes.  The *scanned-edge counts are exact* — they stop at the hit — and
those counts are what feed the cost model, Figure 10's traversal split
and Figure 14's offload access ratios.  For the partially NVM-resident
backward graph the NVM suffix of a row is only fetched when the DRAM
prefix produced no hit (§V-C's "read vertices on DRAM, then continue to
read vertices on NVM in a streaming fashion").

Scanning happens shard-by-shard (the backward graph is row-partitioned per
NUMA node) through the small :class:`BottomUpScanner` protocol, so the
same step drives in-DRAM shards and the partially offloaded shards of
:mod:`repro.semiext.tiered`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.bfs.state import BFSState
from repro.util.gather import first_hit_rows

if TYPE_CHECKING:  # repro.csr -> repro.semiext.tiered imports this module
    from repro.csr.graph import CSRGraph

__all__ = ["ScanOutcome", "BottomUpScanner", "InMemoryScanner", "bottom_up_step"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class ScanOutcome:
    """Result of scanning a batch of unvisited rows against the frontier.

    ``parents[i]`` is the discovered parent of row ``i`` or ``-1``;
    ``scanned_dram`` / ``scanned_nvm`` count edge probes by residence of
    the probed adjacency entry (all-DRAM shards report ``scanned_nvm=0``).
    """

    parents: np.ndarray
    scanned_dram: int
    scanned_nvm: int

    @property
    def scanned(self) -> int:
        """Total edge probes of the batch."""
        return self.scanned_dram + self.scanned_nvm


class BottomUpScanner(Protocol):
    """A backward-graph shard that can scan rows against a frontier.

    ``frontier`` is a ``bool`` byte map over the vertex IDs (a
    :class:`~repro.util.bitmap.Bitmap` is accepted and expanded per call).
    """

    def scan(self, local_rows: np.ndarray, frontier: np.ndarray) -> ScanOutcome:
        """Scan the given *local* rows; see :class:`ScanOutcome`."""
        ...


class InMemoryScanner:
    """Bottom-up scanning over an in-DRAM backward shard."""

    def __init__(self, shard: CSRGraph) -> None:
        self.shard = shard

    def scan(self, local_rows: np.ndarray, frontier: np.ndarray) -> ScanOutcome:
        """Scan rows against the frontier with exact early termination."""
        starts, counts = self.shard.row_extents(local_rows)
        parents, scanned = first_hit_rows(self.shard.adj, starts, counts, frontier)
        return ScanOutcome(parents, int(scanned.sum()), 0)


def bottom_up_step(
    scanners: list[BottomUpScanner],
    state: BFSState,
    rows_per_block: int = 1 << 17,
    executor=None,
    obs=None,
) -> tuple[np.ndarray, int, int]:
    """Run one bottom-up level across all NUMA shards.

    Parameters
    ----------
    scanners:
        One :class:`BottomUpScanner` per NUMA node (row-partitioned).
    state:
        Mutable BFS state; the per-node unvisited candidate lists are
        pruned in place and discoveries committed.
    rows_per_block:
        Batch size bounding peak gather memory (hubs aside, a block
        touches ``rows_per_block × avg_degree`` adjacency entries).
    executor:
        Optional :class:`~repro.bfs.parallel.ShardExecutor`; each NUMA
        node's scan runs as one task.  Scans are read-only against the
        level-frozen state (candidate pruning touches only node-local
        lists), and discoveries are committed serially afterwards, so
        the parent tree is identical to a sequential run.
    obs:
        Optional :class:`~repro.obs.Observability`; when enabled and the
        step runs sequentially, each NUMA node's scan is wrapped in a
        ``bfs.shard`` span.  Under an executor the scans interleave on
        the shared clock, so no per-shard spans are recorded (the
        ``bfs.level`` span still brackets the whole step).

    Returns
    -------
    (next_queue, edges_scanned_dram, edges_scanned_nvm):
        Newly discovered vertices (sorted) and exact probe counts split by
        residence of the probed data.
    """
    # One frontier byte map per level, built before any shard task starts;
    # the scans only read it.
    frontier = np.zeros(state.n_vertices, dtype=bool)
    frontier[state.frontier_queue] = True
    partitions = state.topology.partitions(state.n_vertices)

    def scan_node(args):
        part, scanner = args
        cand = state.unvisited_candidates(part.node)
        winners_parts = [_EMPTY]
        parents_parts = [_EMPTY]
        dram = nvm = 0
        for blk_start in range(0, cand.size, rows_per_block):
            block = cand[blk_start : blk_start + rows_per_block]
            outcome = scanner.scan(block - part.lo, frontier)
            dram += outcome.scanned_dram
            nvm += outcome.scanned_nvm
            found = outcome.parents >= 0
            if found.any():
                winners_parts.append(block[found])
                parents_parts.append(outcome.parents[found])
        return (
            np.concatenate(winners_parts), np.concatenate(parents_parts), dram, nvm
        )

    tasks = list(zip(partitions, scanners))
    if executor is not None:
        results = executor.map(scan_node, tasks)
    elif obs is not None and obs.enabled:
        results = []
        for task in tasks:
            node = int(task[0].node)
            with obs.span("bfs.shard", shard=node, direction="bottom-up") as sp:
                result = scan_node(task)
            sp.set(edges_dram=result[2], edges_nvm=result[3])
            results.append(result)
    else:
        results = [scan_node(t) for t in tasks]

    next_parts = [_EMPTY]
    scanned_dram = scanned_nvm = 0
    for winners, parents, dram, nvm in results:
        scanned_dram += dram
        scanned_nvm += nvm
        if winners.size:
            state.discover(winners, parents)
            next_parts.append(winners)
    next_queue = np.concatenate(next_parts)
    next_queue.sort()
    return next_queue, scanned_dram, scanned_nvm
