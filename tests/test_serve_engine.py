"""Batched-BFS engine tests: batching never changes an answer, shared
fetches reduce device traffic, faults degrade the batch safely."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bfs import AlphaBetaPolicy, SemiExternalBFS
from repro.bfs.hybrid import HybridBFS
from repro.core import DRAM_ONLY, DRAM_PCIE_FLASH
from repro.errors import ConfigurationError
from repro.graph500 import validate_bfs_tree
from repro.semiext.faults import FaultPlan
from repro.serve import BatchedBFS, GraphCatalog

ALPHA = BETA = 4.0


def _catalog(tmp_path, scenario, scale=9, seed=123, tag="g"):
    cat = GraphCatalog(workdir=tmp_path / tag)
    graph = cat.build(tag, scenario, scale=scale, seed=seed,
                      alpha=ALPHA, beta=BETA)
    return cat, graph


def _roots(graph, n=6):
    return [int(r) for r in np.flatnonzero(graph.degrees > 0)[:n]]


class TestBatchedEqualsUnbatched:
    @pytest.mark.parametrize("scenario", [DRAM_PCIE_FLASH, DRAM_ONLY],
                             ids=["pcie", "dram"])
    def test_trees_identical_to_reference_engine(self, tmp_path, scenario):
        cat, g = _catalog(tmp_path, scenario)
        roots = _roots(g)
        batched = BatchedBFS(g).run_batch(roots)
        if g.semi_external:
            ref = SemiExternalBFS(
                g.forward, g.backward,
                AlphaBetaPolicy(alpha=ALPHA, beta=BETA),
                g.store, g.external_shards, cost_model=g.cost_model,
            )
        else:
            ref = HybridBFS(
                g.forward, g.backward,
                AlphaBetaPolicy(alpha=ALPHA, beta=BETA),
                cost_model=g.cost_model,
            )
        for i, root in enumerate(roots):
            expected = ref.run(root)
            assert np.array_equal(batched[i].parent, expected.parent), root
            assert validate_bfs_tree(g.edges, batched[i].parent, root).ok
        cat.close()

    def test_trees_independent_of_batch_composition(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_PCIE_FLASH)
        roots = _roots(g, n=8)
        engine = BatchedBFS(g)
        full = {r.root: r.parent for r in engine.run_batch(roots)}
        for size in (1, 3):
            for i in range(0, len(roots), size):
                for res in engine.run_batch(roots[i:i + size]):
                    assert np.array_equal(res.parent, full[res.root]), (
                        size, res.root
                    )
        cat.close()

    def test_results_carry_per_query_traces(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_PCIE_FLASH)
        roots = _roots(g, n=3)
        for res in BatchedBFS(g).run_batch(roots):
            assert len(res.traces) >= 1
            assert res.traces[0].level == 0
            assert res.traversed_edges > 0
        cat.close()

    def test_duplicate_roots_rejected(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_ONLY)
        root = _roots(g, n=1)[0]
        with pytest.raises(ConfigurationError, match="unique"):
            BatchedBFS(g).run_batch([root, root])
        cat.close()

    def test_empty_batch_is_noop(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_ONLY)
        assert BatchedBFS(g).run_batch([]) == []
        cat.close()

    @pytest.mark.parametrize("scenario", [DRAM_PCIE_FLASH, DRAM_ONLY],
                             ids=["pcie", "dram"])
    def test_empty_partition_frontiers_in_union_gather(self, tmp_path,
                                                       scenario):
        # A scale-1 graph under the paper's 4-node topology leaves two
        # NUMA shards empty, and at every level the union frontier has
        # no out-edges at all in most shards — the union gather must
        # return nothing for those shards without perturbing the answer.
        cat, g = _catalog(tmp_path, scenario, scale=1, seed=3)
        parts = g.scenario.topology.partitions(g.n_vertices)
        assert any(p.size == 0 for p in parts)
        roots = _roots(g, n=2)
        assert roots, "scale-1 Kronecker graph lost its only edge"
        results = BatchedBFS(g).run_batch(roots)
        for res, root in zip(results, roots):
            assert validate_bfs_tree(g.edges, res.parent, root).ok
        cat.close()


class TestSharedFetches:
    def test_union_fetch_is_smaller_than_sum_of_frontiers(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_PCIE_FLASH, scale=10)
        engine = BatchedBFS(g)
        engine.run_batch(_roots(g, n=8))
        assert engine.rows_fetched < engine.rows_requested
        cat.close()

    def test_nvm_bytes_shrink_as_batch_grows(self, tmp_path):
        totals = {}
        for size in (1, 4):
            cat, g = _catalog(tmp_path, DRAM_PCIE_FLASH, scale=10,
                              tag=f"b{size}")
            roots = _roots(g, n=8)
            engine = BatchedBFS(g)
            for i in range(0, len(roots), size):
                engine.run_batch(roots[i:i + size])
            totals[size] = g.store.iostats.total_bytes
            cat.close()
        assert totals[4] < totals[1]

    def test_single_query_batch_matches_requested(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_PCIE_FLASH)
        engine = BatchedBFS(g)
        engine.run_batch(_roots(g, n=1))
        assert engine.rows_fetched == engine.rows_requested
        cat.close()


class TestDegradation:
    def test_hard_failure_degrades_batch_not_answers(self, tmp_path):
        scenario = replace(DRAM_PCIE_FLASH,
                           fault_plan=FaultPlan(seed=3, fail_at_s=0.0))
        cat, g = _catalog(tmp_path, scenario)
        roots = _roots(g, n=4)
        engine = BatchedBFS(g)
        results = engine.run_batch(roots)
        assert engine.degraded_mode
        assert g.store.resilience.degraded_levels >= 1
        # Healthy reference trees for comparison.
        ref_cat, ref_g = _catalog(tmp_path, DRAM_PCIE_FLASH, tag="ref")
        expected = {r.root: r.parent
                    for r in BatchedBFS(ref_g).run_batch(roots)}
        for res in results:
            assert np.array_equal(res.parent, expected[res.root]), res.root
            assert validate_bfs_tree(g.edges, res.parent, res.root).ok
        cat.close()
        ref_cat.close()

    def test_degraded_engine_stays_bottom_up(self, tmp_path):
        scenario = replace(DRAM_PCIE_FLASH,
                           fault_plan=FaultPlan(seed=3, fail_at_s=0.0))
        cat, g = _catalog(tmp_path, scenario)
        engine = BatchedBFS(g)
        engine.run_batch(_roots(g, n=2))
        later = engine.run_batch(_roots(g, n=4)[2:])
        for res in later:
            assert all(t.direction.value == "bottom-up" for t in res.traces)
        cat.close()


class TestCatalog:
    def test_build_is_once_per_name(self, tmp_path):
        cat, _ = _catalog(tmp_path, DRAM_ONLY)
        with pytest.raises(ConfigurationError, match="already built"):
            cat.build("g", DRAM_ONLY, scale=8)
        cat.close()

    def test_unknown_name_rejected(self, tmp_path):
        cat, _ = _catalog(tmp_path, DRAM_ONLY)
        with pytest.raises(ConfigurationError, match="no graph named"):
            cat.get("missing")
        cat.close()

    def test_drop_refused_while_pinned(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_ONLY)
        with cat.open("g"):
            with pytest.raises(ConfigurationError, match="open handle"):
                cat.drop("g")
        cat.drop("g")
        assert cat.names() == []
        cat.close()

    def test_handle_close_is_idempotent(self, tmp_path):
        cat, g = _catalog(tmp_path, DRAM_ONLY)
        handle = cat.open("g")
        handle.close()
        handle.close()
        assert g.pins == 0
        cat.close()

    def test_graphs_share_one_clock(self, tmp_path):
        cat = GraphCatalog(workdir=tmp_path)
        a = cat.build("a", DRAM_PCIE_FLASH, scale=8, seed=1)
        b = cat.build("b", DRAM_PCIE_FLASH, scale=8, seed=2)
        assert a.clock is b.clock is cat.clock
        assert a.store.clock is b.store.clock
        cat.close()
