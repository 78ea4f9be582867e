"""Unit tests for partial backward-graph offloading (paper §VI-E).

The split and both Figure 14 readings of the per-row DRAM budget, each a
:class:`~repro.semiext.tiered.TieredScanner` budget: the *prefix* reading
is the scalar budget k, the *degree-threshold* reading is the per-row
budget :func:`threshold_budget` (rows of degree ≤ k offloaded whole).
The engine tier's own tests live in ``tests/test_offload_store.py``.
"""

import numpy as np
import pytest

from repro.analysis import backward_offload_sweep
from repro.bfs.bottomup import InMemoryScanner
from repro.csr.builder import build_csr
from repro.errors import ConfigurationError
from repro.semiext import PCIE_FLASH
from repro.semiext.tiered import TieredBackwardStore, TieredScanner, split_prefix
from repro.util.bitmap import Bitmap


def threshold_budget(shard, k):
    """Degree-threshold reading: rows of degree ≤ k keep nothing in DRAM."""
    deg = shard.degrees()
    return np.where(deg <= k, 0, deg)


def dram_reduction(scanner):
    """1 − DRAM bytes / full bytes, as the store reports it."""
    return TieredBackwardStore([scanner], 0).dram_reduction


@pytest.fixture()
def shard():
    # Symmetrized rows: 0: [1, 2, 3]   1: [0]   2: [0, 3]   3: [0, 2]
    return build_csr(
        np.array([[0, 0, 0, 3], [1, 2, 3, 2]]), n_vertices=4
    )


class TestSplitPrefix:
    def test_split_preserves_order(self, shard):
        prefix, suffix = split_prefix(shard, 1)
        for v in range(4):
            full = shard.neighbors(v)
            merged = np.concatenate([prefix.neighbors(v), suffix.neighbors(v)])
            assert np.array_equal(merged, full)

    def test_prefix_capped_at_k(self, shard):
        prefix, _ = split_prefix(shard, 2)
        assert prefix.degrees().max() <= 2

    def test_k_zero_moves_everything(self, shard):
        prefix, suffix = split_prefix(shard, 0)
        assert prefix.n_directed_edges == 0
        assert suffix.n_directed_edges == shard.n_directed_edges

    def test_k_huge_keeps_everything(self, shard):
        prefix, suffix = split_prefix(shard, 10**6)
        assert suffix.n_directed_edges == 0
        assert prefix == shard

    def test_negative_k_rejected(self, shard):
        with pytest.raises(ConfigurationError):
            split_prefix(shard, -1)
        with pytest.raises(ConfigurationError):
            split_prefix(shard, np.array([0, -1, 0, 0]))

    def test_k_exactly_max_degree_keeps_everything(self, shard):
        # Max degree is 3 (vertex 0): the boundary where the suffix first
        # becomes empty — k need not exceed the max, only reach it.
        k = int(shard.degrees().max())
        prefix, suffix = split_prefix(shard, k)
        assert suffix.n_directed_edges == 0
        assert prefix == shard

    def test_k_one_below_max_degree_moves_only_the_tail(self, shard):
        k = int(shard.degrees().max()) - 1
        prefix, suffix = split_prefix(shard, k)
        # Only vertex 0 (degree 3) has a tail, and it is exactly one edge.
        assert suffix.n_directed_edges == 1
        assert suffix.degrees().tolist() == [1, 0, 0, 0]
        assert prefix.n_directed_edges == shard.n_directed_edges - 1

    def test_all_isolated_shard_splits_to_two_empties(self):
        empty = build_csr(np.empty((2, 0), dtype=np.int64), n_vertices=4)
        prefix, suffix = split_prefix(empty, 1)
        assert prefix.n_directed_edges == 0
        assert suffix.n_directed_edges == 0
        assert prefix.n_rows == suffix.n_rows == 4


class TestPrefixScanner:
    def _frontier(self, n, members):
        return Bitmap.from_indices(n, np.array(members))

    def test_matches_in_memory_scanner(self, csr, store):
        k = 4
        scanner = TieredScanner(csr, k, store, "p")
        plain = InMemoryScanner(csr)
        frontier = self._frontier(csr.n_rows, [0, 5, 100, 333])
        rows = np.arange(0, csr.n_rows, 7, dtype=np.int64)
        a = scanner.scan(rows, frontier)
        b = plain.scan(rows, frontier)
        assert np.array_equal(a.parents >= 0, b.parents >= 0)
        # Early-termination totals agree (rows are scanned in the same order).
        assert a.scanned == b.scanned

    def test_nvm_untouched_when_prefix_hits(self, shard, store):
        # Frontier contains every vertex: each scanned row hits within its
        # first entry, so the suffix is never fetched.
        scanner = TieredScanner(shard, 1, store, "p")
        frontier = self._frontier(4, [0, 1, 2, 3])
        before = store.iostats.n_requests
        out = scanner.scan(np.array([0, 3]), frontier)
        assert (out.parents >= 0).all()
        assert out.scanned_nvm == 0
        assert store.iostats.n_requests == before

    def test_suffix_consulted_when_prefix_misses(self, shard, store):
        # Vertex 0's neighbors sorted: [1, 2, 3]; frontier = {3} only.
        scanner = TieredScanner(shard, 1, store, "p")
        frontier = self._frontier(4, [3])
        out = scanner.scan(np.array([0]), frontier)
        assert out.parents.tolist() == [3]
        assert out.scanned_nvm > 0
        assert store.iostats.n_requests > 0

    def test_dram_reduction_monotone_in_k(self, csr, store):
        reductions = [
            dram_reduction(TieredScanner(csr, k, store, f"p{k}"))
            for k in (1, 4, 16)
        ]
        assert reductions[0] > reductions[1] > reductions[2]

    def test_byte_accounting(self, shard, store):
        s = TieredScanner(shard, 1, store, "p")
        assert s.dram_nbytes + s.nvm_nbytes >= shard.nbytes  # indexes dup'd
        assert 0.0 <= dram_reduction(s) <= 1.0


class TestDegreeThresholdScanner:
    def test_matches_in_memory_scanner(self, csr, store):
        scanner = TieredScanner(csr, threshold_budget(csr, 8), store, "d")
        plain = InMemoryScanner(csr)
        frontier = Bitmap.from_indices(csr.n_rows, np.array([0, 5, 100]))
        rows = np.arange(0, csr.n_rows, 11, dtype=np.int64)
        a = scanner.scan(rows, frontier)
        b = plain.scan(rows, frontier)
        assert np.array_equal(a.parents, b.parents)
        assert a.scanned == b.scanned

    def test_low_degree_rows_on_nvm(self, shard, store):
        scanner = TieredScanner(shard, threshold_budget(shard, 1), store, "d")
        # Vertex 1 has degree 1 -> on NVM.
        frontier = Bitmap.from_indices(4, np.array([0]))
        out = scanner.scan(np.array([1]), frontier)
        assert out.parents.tolist() == [0]
        assert out.scanned_nvm == 1
        assert out.scanned_dram == 0

    def test_high_degree_rows_in_dram(self, shard, store):
        scanner = TieredScanner(shard, threshold_budget(shard, 1), store, "d")
        frontier = Bitmap.from_indices(4, np.array([1]))
        out = scanner.scan(np.array([0]), frontier)  # deg 3 > 1
        assert out.scanned_nvm == 0
        assert out.scanned_dram > 0

    def test_size_reduction_monotone_in_k(self, csr, store):
        reductions = [
            dram_reduction(
                TieredScanner(csr, threshold_budget(csr, k), store, f"d{k}")
            )
            for k in (1, 8, 64)
        ]
        assert reductions[0] < reductions[1] < reductions[2]

    def test_negative_k_rejected(self, forward, backward, tmp_path):
        with pytest.raises(ConfigurationError):
            backward_offload_sweep(
                forward, backward, PCIE_FLASH, tmp_path, np.array([0]),
                ks=(-1,), strategies=("degree-threshold",),
            )

    def test_k_zero_keeps_nonisolated_in_dram(self, shard, store):
        s = TieredScanner(shard, threshold_budget(shard, 0), store, "d")
        assert s.tail.n_directed_edges == 0

    def test_all_isolated_shard_scans_to_no_parents(self, store):
        empty = build_csr(np.empty((2, 0), dtype=np.int64), n_vertices=6)
        scanner = TieredScanner(empty, threshold_budget(empty, 2), store, "iso")
        frontier = Bitmap.from_indices(6, np.arange(6))
        out = scanner.scan(np.arange(6, dtype=np.int64), frontier)
        assert (out.parents == -1).all()
        assert out.scanned == 0
        assert out.scanned_nvm == 0

    def test_all_isolated_shard_offloads_nothing(self, store):
        empty = build_csr(np.empty((2, 0), dtype=np.int64), n_vertices=6)
        scanner = TieredScanner(empty, threshold_budget(empty, 2), store, "iso2")
        assert scanner.prefix.n_directed_edges == 0
        assert scanner.tail.n_directed_edges == 0
