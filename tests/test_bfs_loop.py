"""The shared level-loop pieces: cursor, per-level recorder, kernels.

The headline property: for every conformance-registry engine that
records ``bfs.*`` series live, an enabled session's ``bfs.*`` values equal
the sum of its results' :meth:`BFSResult.metrics_registry` replays — the
promise the replay's docstring makes, now kept by routing both through
:func:`repro.bfs.loop.record_level`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs import (
    AlphaBetaPolicy,
    FixedPolicy,
    FullyExternalBFS,
    HybridBFS,
    ReferenceBFS,
    SemiExternalBFS,
)
from repro.bfs.loop import LevelCursor, record_level
from repro.bfs.metrics import Direction, LevelTrace
from repro.bfs.state import BFSState
from repro.bfs.topdown import commit_winners, first_parent_wins
from repro.conformance.registry import (
    GraphCase,
    TrialSetup,
    _pinned_graph,
    engine_names,
)
from repro.graph500 import EdgeList, generate_edges
from repro.numa import NumaTopology
from repro.obs import MetricsRegistry, Observability
from repro.obs.schema import M_BFS_RUNS
from repro.perfmodel.cost import DramCostModel, request_think_time_s
from repro.semiext import NVMStore, TieredBackwardStore
from repro.semiext.faults import FaultPlan
from repro.serve.engine import BatchedBFS
from repro.util.bitmap import Bitmap

# -- live bfs.* series == replayed bfs.* series ---------------------------------


def _store(setup, tmp_path, obs=None):
    return NVMStore(tmp_path / "nvm", setup.device_model,
                    fault_plan=setup.fault, obs=obs)


def _policy(setup):
    return AlphaBetaPolicy(alpha=setup.alpha, beta=setup.beta)


def _each_root(engine, roots):
    return [engine.run(r) for r in roots]


def _run_reference(case, setup, obs, roots, tmp_path):
    return _each_root(
        ReferenceBFS(case.csr, cost_model=DramCostModel(), obs=obs), roots
    )


def _run_fixed(direction):
    def run(case, setup, obs, roots, tmp_path):
        return _each_root(HybridBFS(
            case.forward, case.backward, FixedPolicy(direction),
            cost_model=DramCostModel(), obs=obs,
        ), roots)
    return run


def _run_hybrid(case, setup, obs, roots, tmp_path):
    return _each_root(HybridBFS(
        case.forward, case.backward, _policy(setup),
        cost_model=DramCostModel(), obs=obs,
    ), roots)


def _run_parallel(case, setup, obs, roots, tmp_path):
    engine = HybridBFS(case.forward, case.backward, _policy(setup),
                       n_workers=2, obs=obs)
    try:
        return _each_root(engine, roots)
    finally:
        engine.close()


def _run_semi_external(tier_k=None):
    def run(case, setup, obs, roots, tmp_path):
        store = _store(setup, tmp_path)
        scanners = None
        if tier_k is not None:
            scanners = TieredBackwardStore.build(
                case.backward, tier_k, store, obs=obs
            ).scanners
        return _each_root(SemiExternalBFS.offload(
            case.forward, case.backward, _policy(setup),
            store, cost_model=DramCostModel(), obs=obs,
            backward_scanners=scanners,
        ), roots)
    return run


def _run_fully_external(case, setup, obs, roots, tmp_path):
    return _each_root(FullyExternalBFS.offload(
        case.csr, _store(setup, tmp_path), cost_model=DramCostModel(),
        obs=obs,
    ), roots)


def _run_batched(case, setup, obs, roots, tmp_path):
    # One batch, so the queries' levels interleave in the live session.
    graph = _pinned_graph(case, setup, tmp_path)
    return BatchedBFS(graph, obs=obs).run_batch(roots)


LIVE_RUNNERS = {
    "reference": _run_reference,
    "topdown": _run_fixed(Direction.TOP_DOWN),
    "bottomup": _run_fixed(Direction.BOTTOM_UP),
    "hybrid": _run_hybrid,
    "parallel": _run_parallel,
    "semi_external": _run_semi_external(),
    "tiered": _run_semi_external(tier_k=2),
    "fully_external": _run_fully_external,
    "batched": _run_batched,
}

NOT_LIVE = {
    "partitioned": "the coordinator reports its levels under dist.*, "
                   "not bfs.*",
    "dynamic": "returns a repaired tree; its one traversal (the "
               "predecessor graph's oracle run) records on a disabled "
               "session",
}

# A device that dies early: engines with an in-DRAM backward graph degrade.
FAILING = TrialSetup(fault=FaultPlan(seed=3, fail_at_s=2e-5))
DEGRADABLE = ("semi_external", "tiered", "batched")


def test_every_registry_engine_is_covered_or_excused():
    assert set(LIVE_RUNNERS) | set(NOT_LIVE) == set(engine_names())
    assert not set(LIVE_RUNNERS) & set(NOT_LIVE)


@pytest.fixture(scope="module")
def case():
    return GraphCase(EdgeList(generate_edges(9, edge_factor=8, seed=11), 512))


def _bfs_series(registry: MetricsRegistry) -> dict[str, float]:
    return {
        key: value
        for key, value in registry.as_dict().items()
        if key.startswith("bfs.") and not key.startswith(M_BFS_RUNS)
    }


@pytest.mark.parametrize(
    "name, setup",
    [(name, TrialSetup()) for name in LIVE_RUNNERS]
    + [(name, FAILING) for name in DEGRADABLE],
    ids=lambda p: p if isinstance(p, str) else (
        "failing" if p.fault is not None else "clean"),
)
def test_live_series_equal_replayed_results(case, tmp_path, name, setup):
    degrees = case.csr.degrees()
    roots = [int(r) for r in np.flatnonzero(degrees > 0)[[0, 7, 31]]]
    obs = Observability()
    results = LIVE_RUNNERS[name](case, setup, obs, roots, tmp_path)
    assert len(results) == len(roots)
    replayed: dict[str, float] = {}
    for res in results:
        for key, value in _bfs_series(res.metrics_registry()).items():
            replayed[key] = replayed.get(key, 0.0) + value
    live = _bfs_series(obs.registry)
    assert set(live) == set(replayed)
    for key in live:
        # Histogram sums add floats in a different order live (levels of
        # several runs interleave) than replayed (run by run).
        assert live[key] == pytest.approx(replayed[key], rel=1e-12), key
    if setup is FAILING:
        assert live["bfs.degraded_levels_total"] > 0


# -- LevelCursor -------------------------------------------------------------------


class TestLevelCursor:
    def test_start_counts_the_root(self):
        degrees = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        cursor = LevelCursor.start(degrees, 2)
        assert cursor == LevelCursor(0, Direction.TOP_DOWN, 0, 4)

    def test_policy_inputs_and_advance(self):
        degrees = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        state = BFSState(5, NumaTopology(1, 1), root=2)
        cursor = LevelCursor.start(degrees, 2)
        inputs = cursor.policy_inputs(state, degrees, 14, device_health=0.5)
        assert (inputs.level, inputs.current) == (0, Direction.TOP_DOWN)
        assert (inputs.n_frontier, inputs.n_frontier_prev) == (1, 0)
        assert (inputs.n_all, inputs.frontier_edges) == (5, 4)
        assert (inputs.unvisited_edges, inputs.device_health) == (10, 0.5)
        cursor.advance(Direction.BOTTOM_UP, 1, degrees[[0, 4]].sum())
        assert cursor == LevelCursor(1, Direction.BOTTOM_UP, 1, 12)

    def test_restore_reads_a_snapshot(self):
        class Snap:
            level, direction, prev_frontier, visited_deg_sum = (
                3, "bottom-up", 17, 99)

        assert LevelCursor.restore(Snap) == LevelCursor(
            3, Direction.BOTTOM_UP, 17, 99)


def test_record_level_emits_dram_edges_even_when_zero():
    reg = MetricsRegistry()
    record_level(reg, LevelTrace(
        level=0, direction=Direction.TOP_DOWN, frontier_size=2, next_size=3,
        edges_scanned=9, wall_time_s=1.0, modeled_time_s=0.5,
        edges_scanned_nvm=9, degraded=True,
    ))
    series = reg.as_dict()
    assert series['bfs.edges_scanned_total{direction="top-down",medium="dram"}'] == 0
    assert series['bfs.edges_scanned_total{direction="top-down",medium="nvm"}'] == 9
    assert series["bfs.degraded_levels_total"] == 1
    assert series["bfs.level_seconds_sum"] == 0.5


# -- the shared top-down kernels ------------------------------------------------


class TestFirstParentWins:
    def test_first_frontier_vertex_wins_each_neighbour(self):
        visited = Bitmap.from_indices(8, np.array([0, 1], dtype=np.int64))
        frontier = np.array([0, 1], dtype=np.int64)
        neighbors = np.array([5, 1, 3, 3, 5, 6], dtype=np.int64)
        counts = np.array([3, 3], dtype=np.int64)
        winners, parents = first_parent_wins(
            frontier, neighbors, counts, visited)
        assert winners.tolist() == [3, 5, 6]
        assert parents.tolist() == [0, 0, 1]

    def test_nothing_unvisited(self):
        visited = Bitmap.from_indices(4, np.arange(4, dtype=np.int64))
        winners, parents = first_parent_wins(
            np.array([0], dtype=np.int64), np.array([1, 2], dtype=np.int64),
            np.array([2], dtype=np.int64), visited)
        assert winners.size == parents.size == 0

    def test_commit_installs_parts_in_order(self):
        state = BFSState(8, NumaTopology(2, 1), root=0)
        next_queue = commit_winners(state, [
            (np.array([6, 7], dtype=np.int64), np.array([0, 0])),
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            (np.array([2], dtype=np.int64), np.array([0])),
        ])
        assert next_queue.tolist() == [2, 6, 7]
        assert state.parent[[2, 6, 7]].tolist() == [0, 0, 0]
        assert state.visited.test_many(next_queue).all()
        assert commit_winners(state, []).size == 0


def test_think_time_needs_a_cost_model_and_a_store(store):
    model = DramCostModel()
    assert request_think_time_s(None, store) == 0.0
    assert request_think_time_s(model, None) == 0.0
    assert request_think_time_s(model, store) == (
        model.per_request_think_time_s(store.chunk_bytes / 8.0))
