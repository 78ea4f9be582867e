"""Tiered backward store: a per-row DRAM budget of edges, tail on NVM.

This is the one implementation of the paper's §VI-E idea (Fig. 14):
"limit the number of edges for a vertex to store on DRAM" and serve
everything past the budget from the device.

* every backward NUMA shard is split by :func:`split_prefix` into a
  DRAM-resident **truncated CSR** (the first ``k[i]`` adjacency entries
  of row ``i``, original order preserved) and an NVM-resident **tail**
  written through :func:`repro.csr.io.offload_csr`;
* the bottom-up scan falls through DRAM→NVM *per vertex*: a row whose
  truncated prefix already yields a frontier parent never touches the
  device (early exit), and a row with no tail — complete in DRAM by
  construction — is never even considered for fallthrough;
* every tail fetch is charged to the simulated clock and iostats like any
  other NVM read, and the whole tier is observable through the
  ``offload.*`` metrics and spans of :mod:`repro.obs.schema`.

The budget ``k`` is a scalar (the engine tier, and the paper's *prefix*
reading of Fig. 14) or one entry per row.  The paper's second,
*degree-threshold* reading — rows of degree ≤ k offloaded whole — is the
per-row budget ``np.where(deg <= k, 0, deg)``; see
:func:`repro.analysis.offload_ratio.backward_offload_sweep`.

Because :func:`split_prefix` preserves row and within-row order,
prefix-then-tail scanning visits exactly the original adjacency order —
so the BFS tree is bit-identical to the untiered ``semi_external`` engine
at **every** budget (the ``tiered`` conformance engine and
``tests/test_offload_store.py`` pin this).

See ``docs/offload.md`` for the walkthrough and the measured
memory-vs-TEPS frontier.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottomup import ScanOutcome
from repro.csr.graph import CSRGraph
from repro.csr.io import ExternalCSR, offload_csr
from repro.csr.partition import BackwardGraph
from repro.errors import ConfigurationError
from repro.obs.schema import (
    M_OFFLOAD_DRAM_BYTES,
    M_OFFLOAD_EDGES,
    M_OFFLOAD_FALLTHROUGH,
    M_OFFLOAD_NVM_BYTES,
    M_OFFLOAD_ROWS,
)
from repro.obs.session import NULL, Observability
from repro.semiext.storage import NVMStore
from repro.util.gather import concat_ranges, first_hit_rows

__all__ = ["TieredScanner", "TieredBackwardStore", "split_prefix", "truncated_nbytes"]


def _sub_csr(shard: CSRGraph, offsets: np.ndarray, counts: np.ndarray) -> CSRGraph:
    """The CSR holding ``counts[i]`` entries of row ``i`` from ``offsets[i]``."""
    indptr = np.zeros(shard.n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    adj = shard.adj[concat_ranges(offsets, counts)]
    return CSRGraph(indptr=indptr, adj=np.ascontiguousarray(adj), n_cols=shard.n_cols)


def split_prefix(shard: CSRGraph, k: int | np.ndarray) -> tuple[CSRGraph, CSRGraph]:
    """Split a CSR into (first-k-edges-per-row, remainder) CSRs.

    ``k`` is one budget for every row or an array of one budget per row.
    Row order and within-row order are preserved, so scanning the prefix
    then the suffix visits exactly the original scan order.
    """
    if np.any(np.asarray(k) < 0):
        raise ConfigurationError(f"k must be non-negative, got {np.min(k)}")
    deg = shard.degrees()
    starts = shard.indptr[:-1]
    pre_counts = np.minimum(deg, k)
    prefix = _sub_csr(shard, starts, pre_counts)
    suffix = _sub_csr(shard, starts + pre_counts, deg - pre_counts)
    return prefix, suffix


def truncated_nbytes(degrees: np.ndarray, k: int, itemsize: int = 8) -> int:
    """DRAM bytes of a k-truncated CSR over rows with the given degrees.

    Counts ``min(degree, k)`` value entries per row plus the row-pointer
    array — the exact footprint of the prefix produced by
    :func:`split_prefix`, computable without building it.  This is what
    :class:`~repro.bfs.policies.TieredKPolicy` feeds to
    :class:`~repro.semiext.hierarchy.MemoryHierarchy` placement proofs.
    """
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    deg = np.asarray(degrees, dtype=np.int64)
    return int((np.minimum(deg, k).sum() + deg.size + 1) * itemsize)


class TieredScanner:
    """Bottom-up scanner over one tiered backward shard.

    Implements the :class:`~repro.bfs.bottomup.BottomUpScanner` protocol
    with a per-vertex DRAM→NVM fallthrough and exact accounting:

    ``rows_scanned``
        rows this scanner was asked to scan (the fallthrough denominator);
    ``fallthrough_rows``
        rows whose DRAM prefix held no frontier parent *and* whose degree
        exceeds their budget, so the scan continued into the NVM tail;
    ``scanned_dram`` / ``scanned_nvm``
        exact edge probes by tier (early termination included).

    Rows of degree ≤ their budget are complete in DRAM, so a prefix miss
    on them is final — they are excluded from fallthrough, which keeps the
    counters hand-computable and the device untouched by rows it cannot
    help.  ``k`` is the budget: a scalar, or one entry per row.
    """

    def __init__(
        self,
        shard: CSRGraph,
        k: int | np.ndarray,
        store: NVMStore,
        name: str,
        node: int = 0,
        obs: Observability | None = None,
    ) -> None:
        self.node = int(node)
        self.obs = obs if obs is not None else NULL
        prefix, tail = split_prefix(shard, k)
        self.prefix = prefix
        self._has_tail = tail.degrees() > 0
        self.tail: ExternalCSR = offload_csr(tail, store, name)
        self._full_nbytes = shard.nbytes
        self.rows_scanned = 0
        self.fallthrough_rows = 0
        self.scanned_dram = 0
        self.scanned_nvm = 0

    # -- capacity accounting ---------------------------------------------------

    @property
    def dram_nbytes(self) -> int:
        """Bytes of the truncated prefix resident in DRAM."""
        return self.prefix.nbytes

    @property
    def nvm_nbytes(self) -> int:
        """Bytes of the tail offloaded to NVM."""
        return self.tail.nbytes

    @property
    def full_nbytes(self) -> int:
        """Bytes of the original, untiered shard."""
        return self._full_nbytes

    # -- scanning --------------------------------------------------------------

    def scan(self, local_rows: np.ndarray, frontier: np.ndarray) -> ScanOutcome:
        """Scan the DRAM prefix; fall through to the NVM tail on misses."""
        rows = np.asarray(local_rows, dtype=np.int64)
        obs = self.obs
        self.rows_scanned += int(rows.size)
        if obs.enabled and rows.size:
            obs.counter(M_OFFLOAD_ROWS).inc(int(rows.size))

        # Phase 1: DRAM prefix with early termination.
        starts, counts = self.prefix.row_extents(rows)
        parents, scanned = first_hit_rows(self.prefix.adj, starts, counts, frontier)
        scanned_dram = int(scanned.sum())
        self.scanned_dram += scanned_dram
        if obs.enabled and scanned_dram:
            obs.counter(M_OFFLOAD_EDGES, tier="dram").inc(scanned_dram)

        # Phase 2: only rows that both missed in DRAM *and* have a tail
        # (degree > budget) fall through to the device.
        fall = np.flatnonzero((parents < 0) & self._has_tail[rows])
        scanned_nvm = 0
        if fall.size:
            self.fallthrough_rows += int(fall.size)
            if obs.enabled:
                with obs.span(
                    "offload.fallthrough", node=self.node, rows=int(fall.size)
                ) as sp:
                    scanned_nvm = self._scan_tail(rows, fall, frontier, parents)
                    sp.set(edges=scanned_nvm)
                obs.counter(M_OFFLOAD_FALLTHROUGH).inc(int(fall.size))
                if scanned_nvm:
                    obs.counter(M_OFFLOAD_EDGES, tier="nvm").inc(scanned_nvm)
            else:
                scanned_nvm = self._scan_tail(rows, fall, frontier, parents)
        self.scanned_nvm += scanned_nvm
        return ScanOutcome(parents, scanned_dram, scanned_nvm)

    def _scan_tail(
        self, rows: np.ndarray, fall: np.ndarray, frontier: np.ndarray, parents: np.ndarray
    ) -> int:
        """Fetch the NVM tails of ``rows[fall]`` (charged) and scan them."""
        t_neigh, t_counts = self.tail.gather_rows(rows[fall])
        parents[fall], scanned = first_hit_rows(t_neigh, None, t_counts, frontier)
        return int(scanned.sum())


class TieredBackwardStore:
    """All NUMA shards of the backward graph, tiered at a per-row budget k.

    Build one with :meth:`build` and hand its :attr:`scanners` to
    :meth:`repro.bfs.semi_external.SemiExternalBFS.offload` as
    ``backward_scanners=``.  The store aggregates the per-shard capacity
    and fallthrough accounting, and :meth:`build` publishes the
    ``offload.dram_resident_bytes`` / ``offload.nvm_tail_bytes`` gauges.
    Wrapping hand-built scanners (``TieredBackwardStore(scanners, k)``,
    as the Fig. 14 sweep does for per-row budgets) gives the same
    accounting without the gauges; ``k`` then only labels the store.
    """

    def __init__(self, scanners: list[TieredScanner], k: int) -> None:
        if not scanners:
            raise ConfigurationError("TieredBackwardStore needs >= 1 shard")
        self.k = int(k)
        self.scanners = scanners

    @classmethod
    def build(
        cls,
        backward: BackwardGraph,
        k: int,
        store: NVMStore,
        name: str = "tiered",
        obs: Observability | None = None,
    ) -> "TieredBackwardStore":
        """Split every backward shard at k and offload the tails to ``store``.

        Tail files are named ``{name}.k{k}.node{i}.{index,value}`` inside the
        store, so several stores (different k) can share a directory tree as
        long as each gets its own :class:`NVMStore`, and several k can share
        one store as long as ``name`` or k differs.
        """
        obs = obs if obs is not None else store.obs
        with obs.span("offload.split", k=int(k), shards=len(backward.shards)):
            scanners = [
                TieredScanner(
                    shard,
                    k,
                    store,
                    f"{name}.k{int(k)}.node{i}",
                    node=i,
                    obs=obs,
                )
                for i, shard in enumerate(backward.shards)
            ]
        tiered = cls(scanners, k)
        if obs.enabled:
            obs.gauge(M_OFFLOAD_DRAM_BYTES).set(tiered.dram_nbytes)
            obs.gauge(M_OFFLOAD_NVM_BYTES).set(tiered.nvm_nbytes)
            # Pre-register the whole family so a run that never falls
            # through still exports zeroed series (and the fallthrough
            # *absence* is visible, not just unrecorded).
            obs.counter(M_OFFLOAD_ROWS).inc(0)
            obs.counter(M_OFFLOAD_FALLTHROUGH).inc(0)
            obs.counter(M_OFFLOAD_EDGES, tier="dram").inc(0)
            obs.counter(M_OFFLOAD_EDGES, tier="nvm").inc(0)
        return tiered

    # -- capacity accounting ---------------------------------------------------

    @property
    def dram_nbytes(self) -> int:
        """DRAM-resident bytes (all truncated prefixes)."""
        return sum(s.dram_nbytes for s in self.scanners)

    @property
    def nvm_nbytes(self) -> int:
        """NVM-resident bytes (all tails)."""
        return sum(s.nvm_nbytes for s in self.scanners)

    @property
    def full_nbytes(self) -> int:
        """Bytes of the original, untiered backward graph."""
        return sum(s.full_nbytes for s in self.scanners)

    @property
    def dram_reduction(self) -> float:
        """Fraction of the backward graph's bytes moved off DRAM."""
        full = self.full_nbytes
        if full == 0:
            return 0.0
        return 1.0 - self.dram_nbytes / full

    # -- fallthrough accounting ------------------------------------------------

    @property
    def rows_scanned(self) -> int:
        """Rows scanned through the store across all shards so far."""
        return sum(s.rows_scanned for s in self.scanners)

    @property
    def fallthrough_rows(self) -> int:
        """Rows whose scan fell through to an NVM tail so far."""
        return sum(s.fallthrough_rows for s in self.scanners)

    @property
    def scanned_dram(self) -> int:
        """Edge probes answered by the DRAM prefixes so far."""
        return sum(s.scanned_dram for s in self.scanners)

    @property
    def scanned_nvm(self) -> int:
        """Edge probes answered by the NVM tails so far."""
        return sum(s.scanned_nvm for s in self.scanners)

    def __repr__(self) -> str:
        return (
            f"TieredBackwardStore(k={self.k}, shards={len(self.scanners)}, "
            f"dram={self.dram_nbytes}B, nvm={self.nvm_nbytes}B)"
        )
