"""Unit + property tests for the tiered backward store (§VI-E, Fig. 14).

Three pillars, matching the tier's contract:

* **byte equivalence** — the DRAM prefix plus the NVM tail reassemble
  exactly the original shard, row by row and in order;
* **exact fallthrough accounting** — per-vertex counters match counts a
  reader can compute by hand on a four-vertex graph;
* **tree identity** — a property test: the tiered engine's BFS parent
  array is bit-identical to the untiered semi-external engine's for
  *every* k on random graphs (and so in particular for k ≥ max degree,
  where the tail is empty).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfs import AlphaBetaPolicy, SemiExternalBFS, TieredKPolicy
from repro.csr import BackwardGraph, ForwardGraph, build_csr
from repro.errors import ConfigurationError
from repro.numa import NumaTopology
from repro.obs import Observability
from repro.semiext import (
    NVMStore,
    PCIE_FLASH,
    MemoryHierarchy,
    TieredBackwardStore,
    TieredScanner,
    truncated_nbytes,
)
from repro.util.bitmap import Bitmap


@pytest.fixture()
def shard():
    # Symmetrized degrees: 0->3, 1->1, 2->2, 3->2; sorted rows:
    # 0: [1, 2, 3]   1: [0]   2: [0, 3]   3: [0, 2]
    return build_csr(np.array([[0, 0, 0, 3], [1, 2, 3, 2]]), n_vertices=4)


class TestByteEquivalence:
    def test_prefix_plus_tail_reassembles_every_row(self, csr, store):
        scanner = TieredScanner(csr, 4, store, "t")
        tail = scanner.tail.to_csr_uncharged()
        for v in range(0, csr.n_rows, 97):
            merged = np.concatenate(
                [scanner.prefix.neighbors(v), tail.neighbors(v)]
            )
            assert np.array_equal(merged, csr.neighbors(v))

    def test_adjacency_bytes_identical_to_full_shard(self, shard, store):
        scanner = TieredScanner(shard, 1, store, "t")
        tail = scanner.tail.to_csr_uncharged()
        rebuilt = np.concatenate(
            [
                np.concatenate(
                    [scanner.prefix.neighbors(v), tail.neighbors(v)]
                )
                for v in range(shard.n_rows)
            ]
        )
        full = np.concatenate(
            [shard.neighbors(v) for v in range(shard.n_rows)]
        )
        assert rebuilt.tobytes() == full.tobytes()

    def test_truncated_nbytes_matches_built_prefix(self, backward, store):
        for k in (0, 2, 8):
            for i, shard in enumerate(backward.shards):
                scanner = TieredScanner(shard, k, store, f"m{k}.{i}")
                assert scanner.dram_nbytes == truncated_nbytes(
                    shard.degrees(), k
                )

    def test_dram_bytes_monotone_in_k(self, backward, tmp_path):
        sizes = []
        for k in (2, 8, 32):
            store = NVMStore(tmp_path / f"k{k}", PCIE_FLASH)
            sizes.append(
                TieredBackwardStore.build(backward, k, store).dram_nbytes
            )
        assert sizes[0] < sizes[1] < sizes[2]

    def test_negative_k_rejected(self, shard, store):
        with pytest.raises(ConfigurationError):
            TieredScanner(shard, -1, store, "neg")
        with pytest.raises(ConfigurationError):
            truncated_nbytes(np.array([1, 2]), -1)

    def test_empty_store_rejected(self):
        with pytest.raises(ConfigurationError):
            TieredBackwardStore([], 4)


class TestFallthroughAccounting:
    def test_hand_computed_counts(self, shard, store):
        # k=1, frontier={3}: every prefix is the single first edge and
        # every prefix probe misses (no first edge is 3).
        #   row 0: [1] miss, tail [2, 3] -> hit at the 2nd tail probe
        #   row 1: [0] miss, degree 1 <= k -> complete in DRAM, no tail
        #   row 2: [0] miss, tail [3]    -> hit at the 1st tail probe
        #   row 3: [0] miss, tail [2]    -> miss
        scanner = TieredScanner(shard, 1, store, "t")
        frontier = Bitmap.from_indices(4, np.array([3]))
        out = scanner.scan(np.arange(4, dtype=np.int64), frontier)
        assert out.parents.tolist() == [3, -1, 3, -1]
        assert scanner.rows_scanned == 4
        assert scanner.fallthrough_rows == 3
        assert scanner.scanned_dram == 4 == out.scanned_dram
        assert scanner.scanned_nvm == 4 == out.scanned_nvm

    def test_prefix_hits_never_touch_the_device(self, shard, store):
        # Full frontier: every row hits its first prefix edge.
        scanner = TieredScanner(shard, 1, store, "t")
        before = store.iostats.n_requests
        out = scanner.scan(
            np.arange(4, dtype=np.int64),
            Bitmap.from_indices(4, np.arange(4)),
        )
        assert (out.parents[shard.degrees() > 0] >= 0).all()
        assert scanner.fallthrough_rows == 0
        assert out.scanned_nvm == 0
        assert store.iostats.n_requests == before

    def test_complete_in_dram_rows_excluded_from_fallthrough(
        self, shard, store
    ):
        # k=3 >= max degree: nothing has a tail, so even a total miss
        # (empty frontier) falls through nowhere.
        scanner = TieredScanner(shard, 3, store, "t")
        out = scanner.scan(
            np.arange(4, dtype=np.int64), Bitmap.from_indices(4, np.array([]))
        )
        assert (out.parents == -1).all()
        assert scanner.fallthrough_rows == 0
        assert out.scanned_nvm == 0

    def test_counters_accumulate_across_scans(self, shard, store):
        scanner = TieredScanner(shard, 1, store, "t")
        frontier = Bitmap.from_indices(4, np.array([3]))
        scanner.scan(np.arange(4, dtype=np.int64), frontier)
        scanner.scan(np.arange(4, dtype=np.int64), frontier)
        assert scanner.rows_scanned == 8
        assert scanner.fallthrough_rows == 6

    def test_offload_metrics_match_store_counters(
        self, forward, backward, a_root, tmp_path
    ):
        obs = Observability()
        store = NVMStore(tmp_path / "obs", PCIE_FLASH, obs=obs)
        tiered = TieredBackwardStore.build(backward, 2, store, obs=obs)
        engine = SemiExternalBFS.offload(
            forward=forward,
            backward=backward,
            policy=AlphaBetaPolicy(alpha=100, beta=100),
            store=store,
            backward_scanners=tiered.scanners,
        )
        engine.run(a_root)
        reg = obs.registry
        assert reg.value("offload.rows_scanned_total") == tiered.rows_scanned
        assert (
            reg.value("offload.fallthrough_rows_total")
            == tiered.fallthrough_rows
        )
        assert (
            reg.value("offload.scanned_edges_total", tier="dram")
            == tiered.scanned_dram
        )
        assert (
            reg.value("offload.scanned_edges_total", tier="nvm")
            == tiered.scanned_nvm
        )
        assert (
            reg.value("offload.dram_resident_bytes") == tiered.dram_nbytes
        )
        assert reg.value("offload.nvm_tail_bytes") == tiered.nvm_nbytes


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(4, 24))
    m = draw(st.integers(1, 40))
    srcs = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dsts = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    k = draw(st.integers(0, 8))
    return n, np.array([srcs, dsts], dtype=np.int64), k


class TestTreeIdentity:
    @given(g=tiny_graphs())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_tiered_tree_bit_identical_for_every_k(self, tmp_path, g):
        n, pairs, k = g
        csr = build_csr(pairs, n_vertices=n)
        nonisolated = np.flatnonzero(csr.degrees() > 0)
        if not nonisolated.size:
            return
        root = int(nonisolated[0])
        topo = NumaTopology(n_nodes=2, cores_per_node=2)
        fwd, bwd = ForwardGraph(csr, topo), BackwardGraph(csr, topo)
        # Tiny beta forces bottom-up levels, so the tier actually scans.
        policy = AlphaBetaPolicy(alpha=1, beta=1)
        sub = tmp_path / f"n{n}m{pairs.shape[1]}k{k}-{abs(hash(pairs.tobytes())) % 10**8}"
        plain = SemiExternalBFS.offload(
            forward=fwd, backward=bwd, policy=policy,
            store=NVMStore(sub / "plain", PCIE_FLASH),
        ).run(root)
        store = NVMStore(sub / "tiered", PCIE_FLASH)
        tiered = SemiExternalBFS.offload(
            forward=fwd, backward=bwd, policy=policy, store=store,
            backward_scanners=TieredBackwardStore.build(bwd, k, store).scanners,
        ).run(root)
        assert tiered.parent.tobytes() == plain.parent.tobytes()

    def test_k_at_least_max_degree_means_empty_tails(self, shard, store):
        k = int(shard.degrees().max())
        scanner = TieredScanner(shard, k, store, "full")
        assert scanner.nvm_nbytes == 0 or not scanner._has_tail.any()
        assert scanner.dram_nbytes == truncated_nbytes(shard.degrees(), k)


class TestTieredKPolicy:
    def test_picks_smallest_health_admissible_k(self):
        # deg > 2 on 2 of 4 rows = 0.5 exposed, exactly the default cap.
        deg = np.array([1, 2, 4, 64])
        assert TieredKPolicy().pick([deg], MemoryHierarchy(10**6)) == 2

    def test_no_k_fits_returns_none(self, backward):
        degs = [s.degrees() for s in backward.shards]
        assert TieredKPolicy().pick(degs, MemoryHierarchy(64)) is None

    def test_budget_below_smallest_admissible_k_returns_none(self):
        # Larger k only costs *more* DRAM, so a budget too small for the
        # health-minimal k rules out every candidate.
        deg = np.array([1, 2, 4, 64])
        budget = truncated_nbytes(deg, 2) - 1
        assert TieredKPolicy().pick([deg], MemoryHierarchy(budget)) is None

    def test_degraded_device_prefers_larger_k(self):
        deg = np.array([1, 2, 4, 64])
        hierarchy = MemoryHierarchy(10**6)
        healthy = TieredKPolicy().pick([deg], hierarchy, device_health=1.0)
        # health 0.5 halves the cap to 0.25: k=2 exposes 0.5, k=4 exposes
        # exactly 0.25 — the sick device pays DRAM to avoid fallthroughs.
        sick = TieredKPolicy().pick([deg], hierarchy, device_health=0.5)
        assert healthy == 2
        assert sick == 4

    def test_prove_reserves_dram(self, backward):
        degs = [s.degrees() for s in backward.shards]
        hierarchy = MemoryHierarchy(10**9)
        proved = TieredKPolicy().prove(degs, hierarchy)
        assert proved is not None
        k, placement = proved
        from repro.semiext import Tier

        assert hierarchy.used(Tier.DRAM) >= truncated_nbytes(
            np.concatenate(degs), k
        )
