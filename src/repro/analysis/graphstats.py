"""Kronecker graph shape statistics.

The reproduction runs at SCALEs far below the paper's 27 and leans on the
self-similarity of Kronecker graphs for the transfer of its results; this
module quantifies that self-similarity so the claim is checkable rather
than asserted: degree-distribution skew, isolated-vertex fraction,
giant-component share and effective diameter are computed per SCALE, and
the test suite verifies the *normalized* shape metrics are stable across
SCALEs while absolute sizes double.

These are also the quantities that drive every paper mechanism
reproduced here: the heavy tail feeds the bottom-up early termination and
the k-edges offload curve (Fig. 14), the isolated fraction bounds the
traversed component, and the tiny effective diameter is why the hybrid
schedule has so few levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.csr.graph import CSRGraph
from repro.errors import GraphFormatError
from repro.util.gather import concat_ranges, sorted_unique

__all__ = ["GraphShape", "graph_shape"]


@dataclass(frozen=True)
class GraphShape:
    """Scale-free shape metrics of one graph."""

    n_vertices: int
    n_directed_edges: int
    isolated_fraction: float
    max_degree_ratio: float  # max degree / mean nonzero degree
    gini_degree: float  # inequality of the degree distribution
    top1pct_edge_share: float  # edges held by the top 1% of vertices
    giant_component_fraction: float
    effective_diameter: int  # 90th-percentile BFS depth from a hub

    def format(self) -> str:
        """One-line summary."""
        return (
            f"n={self.n_vertices:,} 2m={self.n_directed_edges:,} "
            f"isolated={self.isolated_fraction:.1%} "
            f"gini={self.gini_degree:.3f} "
            f"top1%={self.top1pct_edge_share:.1%} "
            f"giant={self.giant_component_fraction:.1%} "
            f"d90={self.effective_diameter}"
        )


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, →1 = skewed)."""
    if values.size == 0:
        return 0.0
    sorted_vals = np.sort(values.astype(np.float64))
    total = sorted_vals.sum()
    if total == 0:
        return 0.0
    cum = np.cumsum(sorted_vals)
    n = values.size
    return float(1.0 - 2.0 * (cum.sum() / (n * total)) + 1.0 / n)


def _bfs_levels(csr: CSRGraph, root: int) -> np.ndarray:
    """Plain level BFS (analysis-only; engines live in repro.bfs)."""
    n = csr.n_rows
    levels = np.full(n, -1, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while frontier.size:
        starts = csr.indptr[frontier]
        counts = csr.indptr[frontier + 1] - starts
        if counts.sum() == 0:
            break
        neighbors = csr.adj[concat_ranges(starts, counts)]
        fresh = sorted_unique(neighbors[levels[neighbors] < 0])
        if fresh.size == 0:
            break
        depth += 1
        levels[fresh] = depth
        frontier = fresh
    return levels


def graph_shape(csr: CSRGraph) -> GraphShape:
    """Compute the shape metrics of a (square, symmetric) CSR graph."""
    if csr.n_rows != csr.n_cols:
        raise GraphFormatError("graph_shape requires a square CSR")
    n = csr.n_rows
    deg = csr.degrees()
    nonzero = deg[deg > 0]
    isolated_fraction = 1.0 - nonzero.size / n if n else 0.0
    if nonzero.size:
        max_ratio = float(nonzero.max() / nonzero.mean())
        k = max(1, nonzero.size // 100)
        top = np.partition(nonzero, nonzero.size - k)[-k:]
        top_share = float(top.sum() / deg.sum()) if deg.sum() else 0.0
    else:
        max_ratio = 0.0
        top_share = 0.0

    # Giant component + effective diameter from the highest-degree hub.
    if nonzero.size:
        hub = int(np.argmax(deg))
        levels = _bfs_levels(csr, hub)
        reached = levels >= 0
        giant = float(reached.sum() / max(nonzero.size, 1))
        depths = levels[reached]
        d90 = int(np.quantile(depths, 0.9)) if depths.size else 0
    else:
        giant = 0.0
        d90 = 0

    return GraphShape(
        n_vertices=n,
        n_directed_edges=csr.n_directed_edges,
        isolated_fraction=float(isolated_fraction),
        max_degree_ratio=max_ratio,
        gini_degree=_gini(deg),
        top1pct_edge_share=top_share,
        giant_component_fraction=giant,
        effective_diameter=d90,
    )
