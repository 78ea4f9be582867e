"""Property tests for the delta overlay (`repro.graphmut.delta`).

The overlay's contract is that every *effective* graph it describes is a
canonical CSR — sorted, deduped, symmetric — indistinguishable from one
built fresh from the post-mutation edge list, with exact degree
accounting at every step.  Hypothesis drives random base graphs through
random batch sequences and checks the invariants the rest of the tree
(scanners, engines, `split_prefix` tiering) silently relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.csr import build_csr
from repro.errors import GraphFormatError
from repro.graph500 import generate_edges
from repro.graph500.edgelist import EdgeList
from repro.graphmut import (
    DeltaOverlay,
    MutationBatch,
    draw_batch,
    generate_stream,
    merge_batches,
)
from repro.semiext.tiered import split_prefix

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_batches(draw, max_scale=7, max_steps=4):
    """A seeded Kronecker base graph plus a batch sequence against it."""
    seed = draw(st.integers(0, 2**20))
    scale = draw(st.integers(4, max_scale))
    edge_factor = draw(st.integers(2, 8))
    n_steps = draw(st.integers(1, max_steps))
    sizes = [
        (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
        for _ in range(n_steps)
    ]
    endpoints = generate_edges(scale=scale, edge_factor=edge_factor,
                               seed=seed)
    csr = build_csr(EdgeList(endpoints, 1 << scale))
    rng = np.random.default_rng(seed)
    overlay = DeltaOverlay(csr)
    batches = []
    for n_ins, n_del in sizes:
        batch = draw_batch(overlay.to_csr(), rng, n_ins, n_del)
        batches.append(batch)
        overlay.apply(batch)
    return csr, batches


def _assert_canonical(csr) -> None:
    """Sorted, deduped, loop-free, symmetric — the CSR invariants."""
    for r in range(csr.n_rows):
        row = csr.neighbors(r)
        assert np.all(np.diff(row) > 0), f"row {r} unsorted or duped"
        assert not np.any(row == r), f"row {r} has a self-loop"
    src = np.repeat(np.arange(csr.n_rows, dtype=np.int64), csr.degrees())
    fwd = set(zip(src.tolist(), csr.adj.tolist()))
    assert fwd == {(b, a) for a, b in fwd}, "adjacency not symmetric"


class TestCanonicalForm:
    @given(gb=graph_and_batches())
    @settings(**SETTINGS)
    def test_effective_csr_stays_canonical(self, gb):
        csr, batches = gb
        overlay = DeltaOverlay(csr)
        for batch in batches:
            overlay.apply(batch)
            eff = overlay.to_csr()
            _assert_canonical(eff)
            # Per-row reads agree with the materialized rows.
            for r in overlay.dirty_rows().tolist():
                assert np.array_equal(overlay.row(r), eff.neighbors(r))

    @given(gb=graph_and_batches())
    @settings(**SETTINGS)
    def test_materialization_equals_rebuild_from_edge_list(self, gb):
        csr, batches = gb
        overlay = DeltaOverlay(csr)
        for batch in batches:
            overlay.apply(batch)
        eff = overlay.to_csr()
        src = np.repeat(np.arange(eff.n_rows, dtype=np.int64),
                        eff.degrees())
        keep = src < eff.adj
        rebuilt = build_csr(EdgeList(
            np.stack((src[keep], eff.adj[keep])), eff.n_rows
        ))
        assert np.array_equal(eff.indptr, rebuilt.indptr)
        assert np.array_equal(eff.adj, rebuilt.adj)


class TestDegreeAccounting:
    @given(gb=graph_and_batches())
    @settings(**SETTINGS)
    def test_degrees_exact_at_every_version(self, gb):
        csr, batches = gb
        overlay = DeltaOverlay(csr)
        prev_edges = int(csr.degrees().sum()) // 2
        for batch in batches:
            eff_batch = overlay.apply(batch)
            want = overlay.to_csr().degrees()
            got = overlay.degrees()
            assert np.array_equal(got, want)
            for r in overlay.dirty_rows().tolist():
                assert overlay.degree(r) == int(want[r])
            # The effective batch accounts for the edge-count movement.
            edges = int(want.sum()) // 2
            assert edges - prev_edges == (
                len(eff_batch.inserts) - len(eff_batch.deletes)
            )
            prev_edges = edges

    @given(gb=graph_and_batches(max_steps=2))
    @settings(**SETTINGS)
    def test_overlay_entry_count_matches_dram_model(self, gb):
        csr, batches = gb
        overlay = DeltaOverlay(csr)
        for batch in batches:
            overlay.apply(batch)
        assert overlay.overlay_nbytes == 8 * overlay.n_overlay_entries
        dirty = set(overlay.dirty_rows().tolist())
        assert dirty == set(overlay._ins) | set(overlay._del)


class TestRoundTrips:
    @given(gb=graph_and_batches(max_steps=1))
    @settings(**SETTINGS)
    def test_apply_then_inverse_restores_base_bitwise(self, gb):
        csr, batches = gb
        overlay = DeltaOverlay(csr)
        eff = overlay.apply(batches[0])
        overlay.apply(eff.inverse())
        assert overlay.is_empty
        back = overlay.to_csr()
        assert np.array_equal(back.indptr, csr.indptr)
        assert np.array_equal(back.adj, csr.adj)

    @given(gb=graph_and_batches(max_steps=3))
    @settings(**SETTINGS)
    def test_compaction_commutes_with_application(self, gb):
        """base → all batches  ==  base → some batches → compact → rest."""
        csr, batches = gb
        straight = DeltaOverlay(csr)
        for batch in batches:
            straight.apply(batch)
        want = straight.to_csr()
        for cut in range(len(batches) + 1):
            overlay = DeltaOverlay(csr)
            for batch in batches[:cut]:
                overlay.apply(batch)
            compacted = DeltaOverlay(overlay.to_csr())  # compaction point
            for batch in batches[cut:]:
                compacted.apply(batch)
            got = compacted.to_csr()
            assert np.array_equal(got.indptr, want.indptr), f"cut={cut}"
            assert np.array_equal(got.adj, want.adj), f"cut={cut}"

    @given(gb=graph_and_batches(max_steps=1))
    @settings(**SETTINGS)
    def test_apply_is_idempotent_on_reapplication(self, gb):
        csr, batches = gb
        overlay = DeltaOverlay(csr)
        overlay.apply(batches[0])
        want = overlay.to_csr()
        again = overlay.apply(batches[0])  # everything is now a no-op
        assert again.n_mutations == 0
        got = overlay.to_csr()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.adj, want.adj)


class TestSplitPrefixInteraction:
    """Tiered-k offload (`split_prefix`) over mutated rows.

    The tiered store keeps the first *k* edges of each row in DRAM; a
    mutation can push a row's degree across *k* in either direction, and
    the split of the compacted CSR must stay exact.
    """

    @given(gb=graph_and_batches(max_steps=2), k=st.integers(0, 12))
    @settings(**SETTINGS)
    def test_split_prefix_exact_after_mutation(self, gb, k):
        csr, batches = gb
        overlay = DeltaOverlay(csr)
        for batch in batches:
            overlay.apply(batch)
        eff = overlay.to_csr()
        prefix, suffix = split_prefix(eff, k)
        deg = eff.degrees()
        assert np.array_equal(prefix.degrees(), np.minimum(deg, k))
        assert np.array_equal(suffix.degrees(),
                              deg - np.minimum(deg, k))
        for r in overlay.dirty_rows().tolist():
            row = eff.neighbors(r)
            assert np.array_equal(prefix.neighbors(r), row[:k])
            assert np.array_equal(suffix.neighbors(r), row[k:])

    def test_degree_crossing_k_moves_edges_between_tiers(self):
        # A 5-path: vertex 2 has degree 2; k=2 keeps it fully in DRAM.
        pairs = np.array([(0, 1), (1, 2), (2, 3), (3, 4)],
                         dtype=np.int64).T
        csr = build_csr(EdgeList(pairs, 5))
        overlay = DeltaOverlay(csr)
        k = 2
        prefix, suffix = split_prefix(overlay.to_csr(), k)
        assert suffix.degree(2) == 0
        # Inserting (0, 2) pushes row 2 to degree 3: one edge spills.
        overlay.apply(MutationBatch.make([(0, 2)], [], 5))
        prefix, suffix = split_prefix(overlay.to_csr(), k)
        assert prefix.degree(2) == 2 and suffix.degree(2) == 1
        assert np.array_equal(prefix.neighbors(2), [0, 1])
        assert np.array_equal(suffix.neighbors(2), [3])
        # Deleting (1, 2) brings it back under k: nothing spills.
        overlay.apply(MutationBatch.make([], [(1, 2)], 5))
        prefix, suffix = split_prefix(overlay.to_csr(), k)
        assert prefix.degree(2) == 2 and suffix.degree(2) == 0


class TestStreamGrammar:
    """The batch grammar's normalization, serialization and merging."""

    def test_normalize_skips_self_loops_and_orders_endpoints(self):
        batch = MutationBatch.make([(1, 1), (2, 0)], [], 4)
        assert batch.inserts == ((0, 2),)

    def test_batch_round_trips_through_dict(self):
        batch = MutationBatch.make([(0, 1)], [(2, 3)], 4)
        assert MutationBatch.from_dict(batch.to_dict()) == batch

    def test_negative_sizes_rejected(self):
        csr = build_csr(EdgeList(np.array([[0], [1]], dtype=np.int64), 2))
        rng = np.random.default_rng(0)
        with pytest.raises(GraphFormatError):
            draw_batch(csr, rng, -1, 0)
        with pytest.raises(GraphFormatError):
            generate_stream(csr, -1, 1, 1, 1)

    def test_merge_cancels_insert_delete_pairs_both_ways(self):
        ins = MutationBatch(inserts=((0, 1),))
        dele = MutationBatch(deletes=((0, 1),))
        assert merge_batches([ins, dele]).n_mutations == 0
        assert merge_batches([dele, ins]).n_mutations == 0

    def test_generate_stream_is_deterministic_and_effective(self):
        pairs = np.array([(0, 1), (1, 2), (2, 3), (3, 4)],
                         dtype=np.int64).T
        csr = build_csr(EdgeList(pairs, 5))
        a = generate_stream(csr, 3, 1, 1, 42)
        b = generate_stream(csr, 3, 1, 1, 42)
        assert a == b
        overlay = DeltaOverlay(csr)
        for batch in a:
            eff = overlay.apply(batch)
            assert eff.n_mutations == batch.n_mutations  # no silent no-ops


class TestInvariantEnforcement:
    def test_overlay_rejects_rectangular_base(self):
        from repro.csr.graph import CSRGraph

        base = CSRGraph(indptr=np.array([0, 1], dtype=np.int64),
                        adj=np.array([3], dtype=np.int64), n_cols=5)
        with pytest.raises(GraphFormatError):
            DeltaOverlay(base)

    def test_contradictory_batch_rejected(self):
        with pytest.raises(GraphFormatError):
            MutationBatch(inserts=((0, 1),), deletes=((0, 1),))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            MutationBatch.make([(0, 9)], [], 4)
