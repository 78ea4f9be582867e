"""Unit tests for the per-figure analysis modules."""

import numpy as np
import pytest

from repro.analysis import (
    alpha_beta_sweep,
    ascii_table,
    backward_offload_sweep,
    compare_scenarios,
    degradation_by_degree,
    format_float,
    scaled_alpha_grid,
    summarize_iostats,
    traversal_split,
)
from repro.analysis.perfcompare import build_engine
from repro.bfs import AlphaBetaPolicy, HybridBFS, SemiExternalBFS
from repro.core import DRAM_ONLY, DRAM_PCIE_FLASH, PAPER_SCENARIOS
from repro.errors import ConfigurationError
from repro.perfmodel.cost import DramCostModel
from repro.semiext import NVMStore, PCIE_FLASH


class TestReport:
    def test_ascii_table(self):
        text = ascii_table(["a", "b"], [[1, "x"], [22, "yy"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "22 | yy" in text

    def test_ascii_table_title(self):
        assert ascii_table(["a"], [[1]], title="T").startswith("T\n")

    def test_format_float(self):
        assert format_float(0) == "0"
        assert format_float(1234.5) == "1234"
        assert "e" in format_float(1.5e9)


class TestScaledAlphaGrid:
    def test_identity_at_paper_scale(self):
        assert scaled_alpha_grid(1 << 27) == (1e4, 1e5, 1e6)

    def test_threshold_preserved(self):
        n = 1 << 16
        for a_paper, a_scaled in zip((1e4, 1e5, 1e6), scaled_alpha_grid(n)):
            assert n / a_scaled == pytest.approx((1 << 27) / a_paper)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            scaled_alpha_grid(0)


class TestSweep:
    def test_grid_shape_and_best(self, edges, forward, backward, tmp_path):
        result = alpha_beta_sweep(
            lambda a, b: build_engine(
                DRAM_ONLY, forward, backward, a, b, tmp_path
            ),
            edges,
            "DRAM-only",
            alphas=(10.0, 100.0),
            beta_factors=(0.1, 10.0),
            n_roots=2,
            seed=1,
        )
        assert result.teps.shape == (2, 2)
        assert (result.teps > 0).all()
        a, b, t = result.best()
        assert t == result.teps.max()
        assert a in (10.0, 100.0)

    def test_format(self, edges, forward, backward, tmp_path):
        result = alpha_beta_sweep(
            lambda a, b: build_engine(
                DRAM_ONLY, forward, backward, a, b, tmp_path
            ),
            edges, "X", alphas=(50.0,), beta_factors=(1.0,), n_roots=1,
        )
        assert "alpha=50" in result.format()


class TestCompareScenarios:
    def test_series_complete(self, edges, csr, forward, backward, tmp_path):
        points = ((50.0, 500.0),)
        series = compare_scenarios(
            edges, csr, forward, backward, PAPER_SCENARIOS, points,
            tmp_path, n_roots=2, seed=1,
        )
        names = [s.name for s in series]
        assert names == [
            "DRAM-only", "DRAM+PCIeFlash", "DRAM+SSD",
            "Top-down only", "Bottom-up only", "Graph500 reference",
        ]
        for s in series:
            assert s.teps.shape == (1,)
            assert s.teps[0] > 0

    def test_paper_ordering(self, edges, csr, forward, backward, tmp_path):
        # At each scenario's best (alpha, beta): DRAM-only >= PCIeFlash >=
        # SSD, and every scenario beats the reference baseline — the
        # paper's Figure 8 ordering.
        n = edges.n_vertices
        points = ((50.0, 500.0), (float(n), float(n)))
        series = {
            s.name: s.best()[2]
            for s in compare_scenarios(
                edges, csr, forward, backward, PAPER_SCENARIOS, points,
                tmp_path, n_roots=3, seed=1,
            )
        }
        assert series["DRAM-only"] >= series["DRAM+PCIeFlash"]
        assert series["DRAM+PCIeFlash"] >= series["DRAM+SSD"]
        # The reference never beats a tuned hybrid scenario or top-down.
        assert series["Graph500 reference"] < series["DRAM-only"]
        assert series["Graph500 reference"] < series["DRAM+SSD"]
        assert series["Graph500 reference"] < series["Top-down only"]

    def test_best(self, edges, csr, forward, backward, tmp_path):
        points = ((50.0, 500.0), (100.0, 1000.0))
        series = compare_scenarios(
            edges, csr, forward, backward, (DRAM_ONLY,), points,
            tmp_path, n_roots=1, include_baselines=False,
        )
        a, b, t = series[0].best()
        assert (a, b) in points


class TestTraversalSplit:
    def test_split_sums(self, forward, backward, a_root):
        engine = HybridBFS(
            forward, backward, AlphaBetaPolicy(50, 500), DramCostModel()
        )
        results = [engine.run(a_root) for _ in range(2)]
        split = traversal_split(results, label="x")
        assert split.total == pytest.approx(
            sum(t.edges_scanned for t in results[0].traces)
        )
        assert 0 <= split.top_down_fraction <= 1

    def test_empty(self):
        split = traversal_split([])
        assert split.total == 0
        assert split.top_down_fraction == 0.0

    def test_bottom_up_dominates_with_large_alpha(
        self, forward, backward, a_root
    ):
        # The paper's semi-external tuning: most traffic bottom-up.
        engine = HybridBFS(
            forward, backward,
            AlphaBetaPolicy(forward.n_vertices, forward.n_vertices),
            DramCostModel(),
        )
        split = traversal_split([engine.run(a_root)])
        assert split.bottom_up > split.top_down


class TestDegradation:
    def _runs(self, forward, backward, a_root, tmp_path):
        alpha, beta = 30.0, 30.0  # forces early and late top-down levels
        dram = HybridBFS(
            forward, backward, AlphaBetaPolicy(alpha, beta), DramCostModel()
        ).run(a_root)
        store = NVMStore(tmp_path / "nvm", PCIE_FLASH)
        nvm = SemiExternalBFS.offload(
            forward, backward, AlphaBetaPolicy(alpha, beta), store,
            cost_model=DramCostModel(),
        ).run(a_root)
        return dram, nvm

    def test_points_only_top_down(self, forward, backward, a_root, tmp_path):
        dram, nvm = self._runs(forward, backward, a_root, tmp_path)
        points = degradation_by_degree(dram, nvm)
        assert points
        td_levels = [
            t.level for t in dram.traces if t.direction.value == "top-down"
        ]
        assert [p.level for p in points] == [
            l for l, t in zip(td_levels, [
                t for t in dram.traces if t.direction.value == "top-down"
            ]) if t.frontier_size > 0
        ]

    def test_ratios_above_one(self, forward, backward, a_root, tmp_path):
        dram, nvm = self._runs(forward, backward, a_root, tmp_path)
        for p in degradation_by_degree(dram, nvm):
            assert p.ratio > 1.0

    def test_mismatched_roots_rejected(self, forward, backward, tmp_path):
        import numpy as np

        deg = backward.global_degrees()
        roots = np.flatnonzero(deg > 0)[:2]
        engine = HybridBFS(
            forward, backward, AlphaBetaPolicy(30, 30), DramCostModel()
        )
        r1, r2 = engine.run(int(roots[0])), engine.run(int(roots[1]))
        with pytest.raises(ConfigurationError):
            degradation_by_degree(r1, r2)


class TestIoTrace:
    def test_summary(self, forward, backward, a_root, tmp_path):
        store = NVMStore(tmp_path / "nvm", PCIE_FLASH)
        SemiExternalBFS.offload(
            forward, backward, AlphaBetaPolicy(30, 30), store,
            cost_model=DramCostModel(),
        ).run(a_root)
        summary = summarize_iostats(store.iostats)
        assert summary.total_requests > 0
        assert summary.avgrq_sz >= 8.0
        assert summary.avgqu_sz > 0
        assert summary.times_s.size == summary.queue.size
        assert "avgqu-sz" in summary.format()

    def test_empty_meter(self):
        from repro.semiext.iostats import IoStats

        summary = summarize_iostats(IoStats("d"))
        assert summary.total_requests == 0
        assert summary.avgqu_sz == 0.0


class TestOffloadSweep:
    def test_both_strategies_swept(self, forward, backward, tmp_path):
        deg = backward.global_degrees()
        roots = np.flatnonzero(deg > 0)[:1]
        points = backward_offload_sweep(
            forward, backward, PCIE_FLASH, tmp_path, roots,
            ks=(2, 32), alpha=50.0, beta=500.0,
        )
        assert {p.strategy for p in points} == {"prefix", "degree-threshold"}
        assert len(points) == 4

    def test_prefix_access_ratio_decreases_with_k(
        self, forward, backward, tmp_path
    ):
        deg = backward.global_degrees()
        roots = np.flatnonzero(deg > 0)[:1]
        points = backward_offload_sweep(
            forward, backward, PCIE_FLASH, tmp_path, roots,
            ks=(2, 32), strategies=("prefix",),
            alpha=50.0, beta=500.0,
        )
        by_k = {p.k: p for p in points}
        assert by_k[2].nvm_access_ratio >= by_k[32].nvm_access_ratio

    def test_degree_threshold_size_increases_with_k(
        self, forward, backward, tmp_path
    ):
        deg = backward.global_degrees()
        roots = np.flatnonzero(deg > 0)[:1]
        points = backward_offload_sweep(
            forward, backward, PCIE_FLASH, tmp_path, roots,
            ks=(2, 32), strategies=("degree-threshold",),
            alpha=50.0, beta=500.0,
        )
        by_k = {p.k: p for p in points}
        assert by_k[32].dram_reduction >= by_k[2].dram_reduction

    def test_dram_reduction_is_share_of_backward_bytes_off_dram(
        self, forward, backward, tmp_path
    ):
        # Not nvm / (dram + nvm): the tail's own row-pointer array is new
        # NVM bytes, not DRAM saved.
        deg = backward.global_degrees()
        roots = np.flatnonzero(deg > 0)[:1]
        points = backward_offload_sweep(
            forward, backward, PCIE_FLASH, tmp_path, roots,
            ks=(2, 32), alpha=50.0, beta=500.0,
        )
        assert {p.strategy for p in points} == {"prefix", "degree-threshold"}
        for p in points:
            assert p.dram_reduction == pytest.approx(
                1 - p.dram_bytes / backward.nbytes
            )

    def test_unknown_strategy_rejected(self, forward, backward, tmp_path):
        with pytest.raises(ConfigurationError):
            backward_offload_sweep(
                forward, backward, PCIE_FLASH, tmp_path,
                np.array([0]), strategies=("bogus",),
            )

    def test_no_roots_rejected(self, forward, backward, tmp_path):
        with pytest.raises(ConfigurationError):
            backward_offload_sweep(
                forward, backward, PCIE_FLASH, tmp_path, np.array([]),
            )
