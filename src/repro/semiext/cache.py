"""Partial offloading of the backward graph (paper §V-C and §VI-E).

The bottom-up direction usually finds a frontier parent within the first
few adjacency entries of an unvisited vertex, so most of the backward
graph's bytes are never referenced.  The paper therefore proposes keeping
only a *hot* portion of the backward graph in DRAM and streaming the rest
from NVM, and Figure 14 estimates the trade-off.  Its prose supports two
readings of "limit the number of edges for a vertex to store on DRAM",
and the two produce the paper's two (mutually inconsistent) number series
— so this module implements **both** and the Fig. 14 bench reports both:

* :class:`PrefixOffloadScanner` — keep the **first k edges of every row**
  in DRAM, offload each row's suffix.  Reproduces the *access* series
  (38.2 % of probes on NVM at k=2 falling to 0.7 % at k=32): larger k
  means the early-terminating scan almost never runs past the DRAM
  prefix.
* :class:`DegreeThresholdScanner` — offload **whole rows of degree ≤ k**.
  Reproduces the *size* series (DRAM shrinks by 2.6 % at k=2 and 15.1 %
  at k=32): in a Kronecker graph low-degree vertices hold a small, slowly
  growing share of the edges.

Both implement the :class:`~repro.bfs.bottomup.BottomUpScanner` protocol
and honour early termination *for real*: the NVM portion of a row is only
fetched when the DRAM portion yielded no frontier hit (§V-C's "we first
read vertices on DRAM, and then we continue to read vertices on NVM in a
streaming fashion").
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottomup import ScanOutcome
from repro.csr.graph import CSRGraph
from repro.csr.io import ExternalCSR, offload_csr
from repro.errors import ConfigurationError
from repro.semiext.storage import NVMStore
from repro.util.gather import concat_ranges, first_hit_rows

__all__ = ["PrefixOffloadScanner", "DegreeThresholdScanner", "split_prefix"]


def _sub_csr(shard: CSRGraph, offsets: np.ndarray, counts: np.ndarray) -> CSRGraph:
    """The CSR holding ``counts[i]`` entries of row ``i`` from ``offsets[i]``."""
    indptr = np.zeros(shard.n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    adj = shard.adj[concat_ranges(offsets, counts)]
    return CSRGraph(indptr=indptr, adj=np.ascontiguousarray(adj), n_cols=shard.n_cols)


def split_prefix(shard: CSRGraph, k: int) -> tuple[CSRGraph, CSRGraph]:
    """Split a CSR into (first-k-edges-per-row, remainder) CSRs.

    Row order and within-row order are preserved, so scanning the prefix
    then the suffix visits exactly the original scan order.
    """
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    deg = shard.degrees()
    starts = shard.indptr[:-1]
    pre_counts = np.minimum(deg, k)
    prefix = _sub_csr(shard, starts, pre_counts)
    suffix = _sub_csr(shard, starts + pre_counts, deg - pre_counts)
    return prefix, suffix


class PrefixOffloadScanner:
    """Bottom-up scanner with per-row DRAM prefix and NVM suffix.

    Parameters
    ----------
    shard:
        The full backward shard to split.
    k:
        Edges per row kept in DRAM.
    store:
        NVM store holding the suffix CSR.
    name:
        File-name prefix inside the store.
    """

    def __init__(self, shard: CSRGraph, k: int, store: NVMStore, name: str) -> None:
        self.k = int(k)
        prefix, suffix = split_prefix(shard, k)
        self.prefix = prefix
        self.suffix: ExternalCSR = offload_csr(suffix, store, name)
        self._full_nbytes = shard.nbytes

    # -- capacity accounting (Fig. 14's size axis) ---------------------------------

    @property
    def dram_nbytes(self) -> int:
        """Bytes kept in DRAM."""
        return self.prefix.nbytes

    @property
    def nvm_nbytes(self) -> int:
        """Bytes offloaded to NVM."""
        return self.suffix.nbytes

    @property
    def dram_reduction(self) -> float:
        """Fraction of the original shard's bytes moved off DRAM."""
        if self._full_nbytes == 0:
            return 0.0
        return 1.0 - self.prefix.nbytes / self._full_nbytes

    # -- scanning -------------------------------------------------------------------

    def scan(self, local_rows: np.ndarray, frontier: np.ndarray) -> ScanOutcome:
        """Scan the DRAM prefix, then the NVM suffix only on misses."""
        rows = np.asarray(local_rows, dtype=np.int64)

        # Phase 1: scan the DRAM prefix with early termination.
        starts, counts = self.prefix.row_extents(rows)
        parents, scanned = first_hit_rows(self.prefix.adj, starts, counts, frontier)
        scanned_dram = int(scanned.sum())

        # Phase 2: rows without a prefix hit continue into the NVM suffix
        # — this is the only place the device gets touched, preserving the
        # early exit across the DRAM/NVM boundary.
        pending = np.flatnonzero(parents < 0)
        scanned_nvm = 0
        if pending.size:
            s_neigh, s_counts = self.suffix.gather_rows(rows[pending])
            s_parents, scanned = first_hit_rows(s_neigh, None, s_counts, frontier)
            scanned_nvm = int(scanned.sum())
            parents[pending] = s_parents
        return ScanOutcome(parents, scanned_dram, scanned_nvm)


class DegreeThresholdScanner:
    """Bottom-up scanner offloading whole rows of degree ≤ k to NVM.

    Rows with degree > k stay entirely in DRAM; the low-degree tail lives
    on the device and is fetched (with early termination intact) only when
    such a row is actually scanned.
    """

    def __init__(self, shard: CSRGraph, k: int, store: NVMStore, name: str) -> None:
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        self.k = int(k)
        deg = shard.degrees()
        starts = shard.indptr[:-1]
        self._on_nvm = deg <= k  # per-row placement mask

        self.dram = _sub_csr(shard, starts, np.where(self._on_nvm, 0, deg))
        nvm_csr = _sub_csr(shard, starts, np.where(self._on_nvm, deg, 0))
        self.nvm: ExternalCSR = offload_csr(nvm_csr, store, name)
        self._full_nbytes = shard.nbytes

    @property
    def dram_nbytes(self) -> int:
        """Bytes kept in DRAM."""
        return self.dram.nbytes

    @property
    def nvm_nbytes(self) -> int:
        """Bytes offloaded to NVM."""
        return self.nvm.nbytes

    @property
    def dram_reduction(self) -> float:
        """Fraction of the original shard's bytes moved off DRAM."""
        if self._full_nbytes == 0:
            return 0.0
        return 1.0 - self.dram.nbytes / self._full_nbytes

    def scan(self, local_rows: np.ndarray, frontier: np.ndarray) -> ScanOutcome:
        """Scan DRAM-resident rows in memory, offloaded rows via NVM."""
        rows = np.asarray(local_rows, dtype=np.int64)
        parents = np.full(rows.size, -1, dtype=np.int64)
        on_nvm = self._on_nvm[rows]

        d_idx = np.flatnonzero(~on_nvm)
        starts, counts = self.dram.row_extents(rows[d_idx])
        parents[d_idx], scanned = first_hit_rows(self.dram.adj, starts, counts, frontier)
        scanned_dram = int(scanned.sum())

        scanned_nvm = 0
        n_idx = np.flatnonzero(on_nvm)
        if n_idx.size:
            neigh, counts = self.nvm.gather_rows(rows[n_idx])
            parents[n_idx], scanned = first_hit_rows(neigh, None, counts, frontier)
            scanned_nvm = int(scanned.sum())
        return ScanOutcome(parents, scanned_dram, scanned_nvm)
