"""Vectorized CSR construction from a Graph500 edge list.

Graph construction is benchmark Step 2 (§II).  The Kronecker generator
emits a *multigraph with self-loops*; per the reference implementation the
constructed search structure drops self-loops and duplicate edges and
stores both directions of each remaining undirected edge, with each row
sorted by destination ID.  Sorted rows matter twice over in this codebase:
the bottom-up step's early termination then probes low-numbered (NUMA node
0) candidates first, and the semi-external reader's requests become
sequential within a row.

The whole construction is three NumPy passes over the edge array
(symmetrize → sort by one 64-bit ``src·n + dst`` key → drop repeats of
the sorted keys), i.e. ``O(M log M)`` with no Python-level loop.
"""

from __future__ import annotations

import numpy as np

from repro.csr.graph import CSRGraph
from repro.errors import GraphFormatError
from repro.graph500.edgelist import EdgeList
from repro.util.gather import sorted_unique

__all__ = ["build_csr"]


def build_csr(
    edges: EdgeList | np.ndarray,
    n_vertices: int | None = None,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> CSRGraph:
    """Build the symmetric CSR structure for an undirected edge list.

    Parameters
    ----------
    edges:
        An :class:`EdgeList` or a raw ``(2, M)`` int64 array.
    n_vertices:
        Vertex universe size; required when passing a raw array.
    dedup:
        Remove duplicate (u, v) pairs after symmetrization (the Graph500
        reference constructs a simple graph; keep ``False`` to study
        multigraph behaviour).
    drop_self_loops:
        Remove loops (the reference does; BFS ignores them anyway).

    Returns
    -------
    CSRGraph
        Square CSR over ``n_vertices`` rows with sorted rows.

    >>> import numpy as np
    >>> g = build_csr(np.array([[0, 1], [1, 2]]), n_vertices=3)
    >>> list(g.neighbors(1))
    [0, 2]
    """
    if isinstance(edges, EdgeList):
        ep = edges.endpoints
        n = edges.n_vertices
    else:
        ep = np.asarray(edges)
        if ep.ndim != 2 or ep.shape[0] != 2:
            raise GraphFormatError(f"edges must be (2, M), got {ep.shape}")
        if n_vertices is None:
            raise GraphFormatError("n_vertices required with a raw edge array")
        n = int(n_vertices)
        ep = ep.astype(np.int64, copy=False)
        if ep.size and (ep.min() < 0 or int(ep.max()) >= n):
            raise GraphFormatError(f"endpoint outside [0, {n})")

    u, v = ep[0], ep[1]
    if drop_self_loops:
        keep = u != v
        u, v = u[keep], v[keep]

    # Symmetrize: every undirected edge contributes both directions.
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))

    if src.size == 0:
        indptr = np.zeros(n + 1, dtype=np.int64)
        return CSRGraph(indptr=indptr, adj=np.empty(0, dtype=np.int64), n_cols=n)

    # Sort by (src, dst) with one 64-bit composite key; n <= 2**31 keeps
    # src * n + dst within int64 for every Graph500 scale this library runs.
    if n > (1 << 31):
        raise GraphFormatError(f"n_vertices {n} exceeds the 2**31 key limit")
    keys = src * np.int64(n) + dst
    if dedup:
        keys = sorted_unique(keys)
    else:
        keys.sort(kind="stable")
    src_sorted, dst_sorted = np.divmod(keys, np.int64(n))

    counts = np.bincount(src_sorted, minlength=n).astype(np.int64)
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr=indptr, adj=dst_sorted, n_cols=n)
