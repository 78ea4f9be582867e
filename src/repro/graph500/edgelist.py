"""Edge-list container (the paper's tuple-format *Edge List* structure).

NETAL keeps the generated Kronecker edge list "in a tuple format" (§IV-A)
and the proposed pipeline immediately offloads it to NVM (§V-A Step 1),
reading it back only for graph construction and validation.
:class:`EdgeList` wraps the ``(2, M)`` endpoint array, knows its vertex
universe, computes the structural statistics the size model needs, and can
round-trip itself through an :class:`~repro.semiext.storage.NVMStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import GraphFormatError
from repro.semiext.storage import ExternalArray, NVMStore
from repro.util.gather import sorted_unique

__all__ = ["EdgeList"]


@dataclass(frozen=True)
class EdgeList:
    """An undirected multigraph given as endpoint tuples.

    Attributes
    ----------
    endpoints:
        ``(2, M)`` int64 array; row 0 = start vertices, row 1 = end
        vertices.  Self-loops and duplicate edges are allowed (the
        Kronecker generator produces both; construction filters them).
    n_vertices:
        Size of the vertex universe (``2**SCALE`` for Graph500 inputs).
    """

    endpoints: np.ndarray
    n_vertices: int

    def __post_init__(self) -> None:
        ep = self.endpoints
        if ep.ndim != 2 or ep.shape[0] != 2:
            raise GraphFormatError(f"endpoints must be (2, M), got {ep.shape}")
        if ep.dtype != np.int64:
            raise GraphFormatError(f"endpoints must be int64, got {ep.dtype}")
        if self.n_vertices <= 0:
            raise GraphFormatError(f"n_vertices must be positive: {self.n_vertices}")
        if ep.size and (ep.min() < 0 or int(ep.max()) >= self.n_vertices):
            raise GraphFormatError(
                f"endpoint outside [0, {self.n_vertices}): "
                f"min={ep.min()}, max={ep.max()}"
            )

    # -- basic properties ---------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Number of input edge tuples, M (incl. self-loops/duplicates)."""
        return int(self.endpoints.shape[1])

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the tuple array (what Figure 3 plots)."""
        return int(self.endpoints.nbytes)

    def degrees(self) -> np.ndarray:
        """Per-vertex degree counting both endpoints, self-loops excluded.

        This is the degree notion used by root sampling and by the size
        model's isolated-vertex count.
        """
        u, v = self.endpoints
        not_loop = u != v
        deg = np.bincount(u[not_loop], minlength=self.n_vertices)
        deg += np.bincount(v[not_loop], minlength=self.n_vertices)
        return deg.astype(np.int64)

    def n_self_loops(self) -> int:
        """Number of self-loop tuples."""
        u, v = self.endpoints
        return int(np.count_nonzero(u == v))

    def n_unique_undirected(self) -> int:
        """Number of distinct undirected non-loop edges."""
        return int(self.sorted_edge_keys.size)

    @cached_property
    def sorted_edge_keys(self) -> np.ndarray:
        """Sorted unique keys ``min(u,v)·n + max(u,v)`` of non-loop edges.

        Cached: the Graph500 validator consults this on every one of the
        64 iterations (tree-edge membership, rule 3), so the one sort is
        paid once per edge list, not once per tree.
        """
        u, v = self.endpoints
        keys = np.minimum(u, v) * np.int64(self.n_vertices) + np.maximum(u, v)
        return sorted_unique(keys[u != v])

    # -- persistence -----------------------------------------------------------------

    def offload(self, store: NVMStore, name: str = "edge_list") -> ExternalArray:
        """Write the tuple array to NVM (pipeline Step 1), returning the handle.

        The layout is the flattened ``(2, M)`` array (starts then ends),
        matching a C struct-of-arrays dump.
        """
        return store.put_array(name, self.endpoints.ravel())

    @classmethod
    def from_external(
        cls, ext: ExternalArray, n_vertices: int, charged: bool = True
    ) -> "EdgeList":
        """Reload an offloaded edge list.

        With ``charged=True`` (default) the read is a charged sequential
        NVM scan, as in pipeline Step 2 ("construct the forward graph by
        directly reading the edge list from NVM").
        """
        if ext.size % 2 != 0:
            raise GraphFormatError(
                f"external edge list has odd element count {ext.size}"
            )
        flat = (
            ext.read_slice(0, ext.size) if charged else ext.to_ndarray()
        )
        return cls(flat.reshape(2, -1).astype(np.int64), n_vertices)

    def __repr__(self) -> str:
        return f"EdgeList(n_vertices={self.n_vertices}, n_edges={self.n_edges})"
