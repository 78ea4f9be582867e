"""Coordinator-level distributed BFS tests: the partition-count
invariance contract (trees byte-identical to ``SemiExternalBFS``),
crash restart, device-failure degradation, and clock reconciliation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import AlphaBetaPolicy, Direction, SemiExternalBFS
from repro.csr import BackwardGraph, ForwardGraph, build_csr
from repro.dist import (
    ContiguousPartitioner,
    DegreeBalancedPartitioner,
    DistributedBFS,
)
from repro.errors import ConfigurationError
from repro.graph500 import EdgeList, generate_edges, validate_bfs_tree
from repro.numa import NumaTopology
from repro.semiext import NVMStore, PCIE_FLASH
from repro.semiext.faults import FaultPlan

SCALE = 8
ALPHA = BETA = 50.0


def _graph(seed):
    n = 1 << SCALE
    edges = EdgeList(generate_edges(SCALE, seed=seed), n)
    csr = build_csr(edges)
    root = int(np.flatnonzero(csr.degrees() > 0)[0])
    return edges, csr, root


def _policy():
    return AlphaBetaPolicy(alpha=ALPHA, beta=BETA)


def _oracle(csr, root, tmp_path):
    topology = NumaTopology(n_nodes=2, cores_per_node=4)
    engine = SemiExternalBFS.offload(
        forward=ForwardGraph(csr, topology),
        backward=BackwardGraph(csr, topology),
        policy=_policy(),
        store=NVMStore(tmp_path / "oracle", PCIE_FLASH),
    )
    return engine.run(root)


class TestPartitionCountInvariance:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_trees_identical_at_every_partition_count(self, tmp_path, seed):
        edges, csr, root = _graph(seed)
        expected = _oracle(csr, root, tmp_path)
        for n_parts in (1, 2, 4, 7):
            engine = DistributedBFS.build(
                csr, ContiguousPartitioner(n_parts), _policy(),
                tmp_path / f"p{n_parts}", PCIE_FLASH,
            )
            result = engine.run(root)
            engine.close()
            assert result.parent.tobytes() == expected.parent.tobytes(), (
                seed, n_parts
            )
            assert validate_bfs_tree(edges, result.parent, root).ok

    def test_degree_balanced_partitioner_same_tree(self, tmp_path):
        _, csr, root = _graph(seed=3)
        expected = _oracle(csr, root, tmp_path)
        engine = DistributedBFS.build(
            csr, DegreeBalancedPartitioner(4, csr.degrees()), _policy(),
            tmp_path / "deg", PCIE_FLASH,
        )
        result = engine.run(root)
        engine.close()
        assert np.array_equal(result.parent, expected.parent)

    def test_repeated_runs_identical(self, tmp_path):
        # Workers are long-lived across queries; their per-run search
        # state must not leak from one run into the next.
        _, csr, root = _graph(seed=11)
        engine = DistributedBFS.build(
            csr, ContiguousPartitioner(3), _policy(),
            tmp_path / "rerun", PCIE_FLASH,
        )
        first = engine.run(root)
        second = engine.run(root)
        other_root = int(np.flatnonzero(csr.degrees() > 0)[1])
        engine.run(other_root)
        third = engine.run(root)
        engine.close()
        assert np.array_equal(first.parent, second.parent)
        assert np.array_equal(first.parent, third.parent)


class TestFailureHandling:
    def test_single_worker_crash_restarts_only_that_worker(self, tmp_path):
        _, csr, root = _graph(seed=3)
        expected = _oracle(csr, root, tmp_path)
        plans = [None, FaultPlan(seed=7, crash_at_level=1), None, None]
        engine = DistributedBFS.build(
            csr, ContiguousPartitioner(4), _policy(),
            tmp_path / "crashy", PCIE_FLASH, fault_plans=plans,
        )
        result = engine.run(root)
        assert engine.restarts == 1
        assert engine.workers[1].generation == 1
        assert all(
            engine.workers[k].generation == 0 for k in (0, 2, 3)
        )
        assert np.array_equal(result.parent, expected.parent)
        engine.close()

    def test_device_failure_degrades_to_bottom_up(self, tmp_path):
        _, csr, root = _graph(seed=3)
        expected = _oracle(csr, root, tmp_path)
        plans = [None, FaultPlan(seed=7, fail_at_s=0.0), None, None]
        engine = DistributedBFS.build(
            csr, ContiguousPartitioner(4), _policy(),
            tmp_path / "dead", PCIE_FLASH, fault_plans=plans,
        )
        result = engine.run(root)
        assert engine.degraded_mode
        # The failed device forces every level bottom-up; the backward
        # rows are DRAM-resident on all workers, so the tree survives.
        assert all(
            t.direction is Direction.BOTTOM_UP for t in result.traces
        )
        assert np.array_equal(result.parent, expected.parent)
        engine.close()

    def test_fault_plan_count_must_match_partitions(self, tmp_path):
        _, csr, _ = _graph(seed=3)
        with pytest.raises(ConfigurationError):
            DistributedBFS.build(
                csr, ContiguousPartitioner(4), _policy(),
                tmp_path / "bad", PCIE_FLASH,
                fault_plans=[None, None],
            )

    def test_unknown_backend_rejected(self, tmp_path):
        _, csr, _ = _graph(seed=3)
        with pytest.raises(ConfigurationError):
            DistributedBFS.build(
                csr, ContiguousPartitioner(2), _policy(),
                tmp_path / "bad", PCIE_FLASH, backend="thread",
            )


class TestClockReconciliation:
    def test_level_time_is_worker_max_plus_merge(self, tmp_path):
        from repro.core import DRAM_PCIE_FLASH

        _, csr, root = _graph(seed=3)
        engine = DistributedBFS.build(
            csr, ContiguousPartitioner(4), _policy(),
            tmp_path / "clock", DRAM_PCIE_FLASH.device,
            cost_model=DRAM_PCIE_FLASH.cost_model,
        )
        result = engine.run(root)
        loads = engine.level_imbalance
        assert len(loads) == len(result.traces)
        for load, trace in zip(loads, result.traces):
            assert load.level == trace.level
            assert load.worker_max_s >= load.worker_mean_s > 0.0
            merge_s = engine.merge_cost_per_vertex_s * (
                trace.frontier_size + trace.next_size
            )
            assert trace.modeled_time_s == pytest.approx(
                load.worker_max_s + merge_s
            )
        # BSP semantics: the run's modeled time is the sum of the
        # per-level maxima plus merge costs, never the per-worker sum.
        assert result.modeled_time_s == pytest.approx(
            sum(t.modeled_time_s for t in result.traces)
        )
        engine.close()

    def test_level_imbalance_resets_per_run(self, tmp_path):
        from repro.core import DRAM_PCIE_FLASH

        _, csr, root = _graph(seed=3)
        engine = DistributedBFS.build(
            csr, ContiguousPartitioner(2), _policy(),
            tmp_path / "reset", DRAM_PCIE_FLASH.device,
            cost_model=DRAM_PCIE_FLASH.cost_model,
        )
        first = engine.run(root)
        n_levels = len(first.traces)
        assert len(engine.level_imbalance) == n_levels
        second = engine.run(root)
        assert len(engine.level_imbalance) == len(second.traces) == n_levels
        engine.close()

    def test_worker_count_must_match_partitioner(self):
        with pytest.raises(ConfigurationError):
            DistributedBFS(
                n_vertices=8,
                partitioner=ContiguousPartitioner(2),
                policy=_policy(),
                workers=[],
                degrees=np.zeros(8, dtype=np.int64),
            )
