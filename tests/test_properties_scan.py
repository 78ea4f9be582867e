"""Property tests for the bottom-up row-scan kernel and sort-based dedup.

:func:`~repro.util.gather.first_hit_rows` must reproduce, row for row, what
the full-gather scan computes: gather every whole row, test every entry
against the frontier, keep the first hit.  That scan is kept here, and only
here, as the oracle.  The tiered scanner, which splits each row at a per-row
DRAM budget, must in turn reproduce the in-memory scanner.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bfs.bottomup import InMemoryScanner
from repro.csr.graph import CSRGraph
from repro.semiext import PCIE_FLASH, NVMStore
from repro.semiext.tiered import TieredScanner
from repro.util.bitmap import Bitmap
from repro.util.gather import (
    PROBE_COLUMNS,
    concat_ranges,
    first_hit_rows,
    first_true_per_segment,
    sorted_unique,
)

LONG = 3 * PROBE_COLUMNS  # longest row drawn, well past the column cutoff


def full_gather_scan(values, starts, counts, frontier: Bitmap):
    """The pre-kernel scan: whole rows, every entry tested, first hit kept."""
    neighbors = values[concat_ranges(starts, counts)]
    parents = np.full(counts.size, -1, dtype=np.int64)
    if neighbors.size == 0:
        return parents, counts.copy()
    hits = frontier.test_many(neighbors)
    hit_at, scanned = first_true_per_segment(hits, counts)
    found = hit_at >= 0
    parents[found] = neighbors[hit_at[found]]
    return parents, scanned


@st.composite
def shards(draw):
    """A CSR shard (indptr, adj over ``[0, n)``), a frontier and a row set.

    Degrees run from 0 to past the column cutoff; the frontier ranges from
    empty (no row has a hit) to full; the row set may be empty and may
    repeat rows.
    """
    n = draw(st.integers(1, 40))
    degrees = draw(st.lists(st.integers(0, LONG), min_size=1, max_size=30))
    indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    adj = draw(arrays(np.int64, int(indptr[-1]), elements=st.integers(0, n - 1)))
    member = draw(arrays(np.bool_, n, elements=st.booleans()))
    rows = draw(
        st.lists(st.integers(0, len(degrees) - 1), max_size=40).map(
            lambda xs: np.array(xs, dtype=np.int64)
        )
    )
    return indptr, adj, member, rows


def _extents(indptr, rows):
    starts = indptr[rows]
    return starts, indptr[rows + 1] - starts


class TestFirstHitRows:
    @given(shard=shards())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_gather(self, shard):
        indptr, adj, member, rows = shard
        starts, counts = _extents(indptr, rows)
        frontier = Bitmap.from_indices(member.size, np.flatnonzero(member))
        want_parents, want_scanned = full_gather_scan(adj, starts, counts, frontier)
        parents, scanned = first_hit_rows(adj, starts, counts, member)
        assert parents.tolist() == want_parents.tolist()
        assert scanned.tolist() == want_scanned.tolist()
        # A Bitmap frontier gives the same answer as its byte map.
        parents_bm, scanned_bm = first_hit_rows(adj, starts, counts, frontier)
        assert parents_bm.tolist() == want_parents.tolist()
        assert scanned_bm.tolist() == want_scanned.tolist()

    @given(shard=shards())
    @settings(max_examples=100, deadline=None)
    def test_back_to_back_rows(self, shard):
        # ``starts=None``: rows already gathered contiguously (NVM path).
        indptr, adj, member, rows = shard
        starts, counts = _extents(indptr, rows)
        gathered = adj[concat_ranges(starts, counts)]
        contiguous = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=contiguous[1:])
        want = first_hit_rows(gathered, contiguous, counts, member)
        got = first_hit_rows(gathered, None, counts, member)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()

    @given(shard=shards(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_out_of_range_probe_raises(self, shard, data):
        indptr, adj, member, rows = shard
        if not adj.size:
            return
        # An empty frontier makes every entry of a requested row a probe.
        row = data.draw(st.sampled_from(np.flatnonzero(np.diff(indptr)).tolist()))
        at = data.draw(st.integers(int(indptr[row]), int(indptr[row + 1]) - 1))
        bad = adj.copy()
        bad[at] = data.draw(st.sampled_from([-1, -member.size, member.size]))
        starts, counts = _extents(indptr, np.append(rows, row))
        with pytest.raises(IndexError):
            first_hit_rows(bad, starts, counts, np.zeros_like(member))

    def test_empty_row_set(self):
        empty = np.empty(0, dtype=np.int64)
        parents, scanned = first_hit_rows(
            np.arange(5, dtype=np.int64), empty, empty, np.ones(5, dtype=bool)
        )
        assert parents.size == 0 and scanned.size == 0

    def test_long_rows_hit_and_miss(self):
        # Row 0 hits past the column cutoff, row 1 never hits, row 2 is
        # empty, row 3 hits in the first column.
        k = PROBE_COLUMNS
        adj = np.array([0] * (k + 2) + [5] + [1] * (k + 3) + [5], dtype=np.int64)
        starts = np.array([0, k + 3, 0, 2 * k + 6], dtype=np.int64)
        counts = np.array([k + 3, k + 3, 0, 1], dtype=np.int64)
        member = np.zeros(6, dtype=bool)
        member[5] = True
        parents, scanned = first_hit_rows(adj, starts, counts, member)
        assert parents.tolist() == [5, -1, -1, 5]
        assert scanned.tolist() == [k + 3, k + 3, 0, 1]


@st.composite
def budgets(draw, degrees):
    """A per-row DRAM budget: one scalar, random per row, or Fig. 14's
    degree-threshold rule (rows of degree ≤ k kept entirely off DRAM)."""
    kind = draw(st.sampled_from(["scalar", "per-row", "degree-threshold"]))
    if kind == "scalar":
        return draw(st.integers(0, LONG + 1))
    if kind == "per-row":
        return draw(arrays(np.int64, degrees.size, elements=st.integers(0, LONG + 1)))
    k = draw(st.integers(0, LONG + 1))
    return np.where(degrees <= k, 0, degrees)


class TestTieredScanner:
    @given(shard=shards(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_in_memory_scanner(self, shard, data):
        indptr, adj, member, rows = shard
        csr = CSRGraph(indptr=indptr, adj=adj, n_cols=member.size)
        degrees = csr.degrees()
        k = data.draw(budgets(degrees))
        want = InMemoryScanner(csr).scan(rows, member)
        with tempfile.TemporaryDirectory() as root:
            store = NVMStore(root, PCIE_FLASH)
            scanner = TieredScanner(csr, k, store, "t")
            before = store.iostats.n_requests
            got = scanner.scan(rows, member)
            requests = store.iostats.n_requests - before
        assert got.parents.tolist() == want.parents.tolist()
        assert got.scanned == want.scanned
        # A row reaches the device only if its DRAM prefix missed and it
        # has a tail past the budget.
        kept = np.minimum(degrees, k)[rows]
        prefix_hit = np.array(
            [member[adj[indptr[r]:indptr[r] + n]].any() for r, n in zip(rows, kept)],
            dtype=bool,
        )
        has_tail = (degrees > k)[rows]
        if (~prefix_hit & has_tail).any():
            assert requests > 0
        else:
            assert got.scanned_nvm == 0
            assert requests == 0


class TestSortedUnique:
    @given(arrays(np.int64, st.integers(0, 300), elements=st.integers(-50, 50)))
    @settings(max_examples=150, deadline=None)
    def test_matches_np_unique(self, xs):
        want = np.unique(xs)
        got = sorted_unique(xs.copy())
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "xs",
        [
            [],
            [7],
            [4, 4, 4, 4],
            [-(2**62), -1, -(2**62), 0, 2**62, -1],
        ],
        ids=["empty", "single", "all-equal", "negative"],
    )
    def test_edge_inputs(self, xs):
        arr = np.array(xs, dtype=np.int64)
        assert sorted_unique(arr.copy()).tolist() == np.unique(arr).tolist()

    def test_sorts_in_place(self):
        xs = np.array([3, 1, 2, 1], dtype=np.int64)
        sorted_unique(xs)
        assert xs.tolist() == [1, 1, 2, 3]
