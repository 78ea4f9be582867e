"""Unit tests for the Graph500 BFS-tree validator."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graph500.edgelist import EdgeList
from repro.graph500.validate import compute_levels, validate_bfs_tree


def _el(pairs, n):
    return EdgeList(np.array(pairs, dtype=np.int64).T.reshape(2, -1), n)


# A path 0-1-2-3 plus an isolated vertex 4.
PATH = _el([(0, 1), (1, 2), (2, 3)], 5)
PATH_TREE = np.array([0, 0, 1, 2, -1], dtype=np.int64)


class TestComputeLevels:
    def test_valid_chain(self):
        levels, err = compute_levels(PATH_TREE, 0)
        assert err is None
        assert levels.tolist() == [0, 1, 2, 3, -1]

    def test_root_self_parent_required(self):
        bad = PATH_TREE.copy()
        bad[0] = 1
        _, err = compute_levels(bad, 0)
        assert err is not None and "root" in err

    def test_root_out_of_range(self):
        _, err = compute_levels(PATH_TREE, 9)
        assert err is not None

    def test_cycle_detected(self):
        parent = np.array([0, 2, 1, -1], dtype=np.int64)
        _, err = compute_levels(parent, 0)
        assert err is not None and "cycle" in err.lower()

    def test_dangling_parent_detected(self):
        # 1's parent is 3, which is unvisited.
        parent = np.array([0, 3, -1, -1], dtype=np.int64)
        _, err = compute_levels(parent, 0)
        assert err is not None

    def test_parent_beyond_n_diagnosed_not_crash(self):
        # A buggy engine may emit a parent id past the vertex range;
        # the validator must report it instead of raising IndexError.
        parent = np.array([0, 7, -1], dtype=np.int64)
        _, err = compute_levels(parent, 0)
        assert err is not None and "outside" in err

    def test_negative_non_sentinel_parent_diagnosed(self):
        # -3 is not the UNVISITED sentinel and must not wrap around.
        parent = np.array([0, -3, -1], dtype=np.int64)
        _, err = compute_levels(parent, 0)
        assert err is not None and "-3" in err


class TestValidate:
    def test_valid_tree_passes(self):
        res = validate_bfs_tree(PATH, PATH_TREE, 0)
        assert res.ok
        assert res.n_tree_vertices == 4
        res.raise_if_invalid()  # must not raise

    def test_wrong_shape_rejected(self):
        res = validate_bfs_tree(PATH, np.array([0, -1]), 0)
        assert not res.ok

    def test_rule2_level_skip(self):
        # Vertex 3 claims parent 1 (levels 3 vs 1): not an edge either, but
        # rule 2 fires first on the level gap after recomputation...
        tree = np.array([0, 0, 1, 1, -1], dtype=np.int64)
        # 3's parent is 1 -> levels [0,1,2,2]; (1,3) is not a graph edge.
        res = validate_bfs_tree(PATH, tree, 0, collect_all=True)
        assert not res.ok
        assert any("rule3" in v for v in res.violations)

    def test_rule3_fake_edge(self):
        # Pretend 0-2 is an edge (it is not): 2's parent set to 0.
        tree = np.array([0, 0, 0, -1, -1], dtype=np.int64)
        res = validate_bfs_tree(PATH, tree, 0, collect_all=True)
        assert not res.ok
        assert any("rule3" in v for v in res.violations)

    def test_rule4_unvisited_reachable_vertex(self):
        # Stop the tree early: 3 unvisited although edge (2, 3) exists.
        tree = np.array([0, 0, 1, -1, -1], dtype=np.int64)
        res = validate_bfs_tree(PATH, tree, 0, collect_all=True)
        assert not res.ok
        assert any("rule5" in v or "rule4" in v for v in res.violations)

    def test_non_tree_edge_spanning_two_levels_rejected(self):
        # Graph: square 0-1, 0-2, 1-3, 2-3 plus chord 0-3 would make
        # levels [0,1,1,2] invalid since 0-3 spans 2 levels.
        square = _el([(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)], 4)
        tree = np.array([0, 0, 0, 1], dtype=np.int64)
        res = validate_bfs_tree(square, tree, 0)
        assert not res.ok  # with the chord, 3 must be at level 1

    def test_levels_in_result(self):
        res = validate_bfs_tree(PATH, PATH_TREE, 0)
        assert res.levels is not None
        assert res.levels.tolist() == [0, 1, 2, 3, -1]

    def test_raise_if_invalid(self):
        res = validate_bfs_tree(PATH, np.array([0, 0, 0, -1, -1]), 0)
        with pytest.raises(ValidationError):
            res.raise_if_invalid()

    def test_self_loops_and_duplicates_tolerated(self):
        noisy = _el([(0, 1), (0, 1), (1, 1), (1, 2), (2, 3)], 5)
        res = validate_bfs_tree(noisy, PATH_TREE, 0)
        assert res.ok

    def test_isolated_vertices_ignored(self):
        res = validate_bfs_tree(PATH, PATH_TREE, 0)
        assert res.ok

    def test_collect_all_reports_multiple(self):
        # Break two rules at once: vertex 2's parent is 0 (fake edge) and
        # vertex 3 left unvisited though reachable.
        tree = np.array([0, 0, 0, -1, -1], dtype=np.int64)
        res = validate_bfs_tree(PATH, tree, 0, collect_all=True)
        assert len(res.violations) >= 2

    def test_out_of_range_parent_collect_all_does_not_crash(self):
        res = validate_bfs_tree(PATH, np.array([0, 9, -1, -1, -1]), 0,
                                collect_all=True)
        assert not res.ok
        assert any("rule1" in v for v in res.violations)

    def test_self_loop_only_graph_with_claimed_tree_edge(self):
        # The deduplicated edge-key set is empty; a tree that still claims
        # an edge must fail rule 3, not crash on the empty key array.
        loops = _el([(0, 0), (1, 1)], 3)
        res = validate_bfs_tree(loops, np.array([0, 0, -1]), 0,
                                collect_all=True)
        assert not res.ok
        assert any("rule3" in v for v in res.violations)

    def test_root_only_component(self):
        two = _el([(0, 1)], 3)
        tree = np.array([-1, -1, 2], dtype=np.int64)
        res = validate_bfs_tree(two, tree, 2)
        assert res.ok
        assert res.n_tree_vertices == 1


# Many self-loops and duplicate tuples around a 7-vertex component
# {0..6}, a triangle {7, 8, 9} and two loop-only vertices 10 and 11.
NOISY = _el(
    [
        (0, 0), (0, 1), (1, 0), (0, 1), (0, 2), (3, 3), (1, 3), (2, 4),
        (5, 5), (3, 5), (4, 5), (5, 6), (6, 5), (5, 6), (1, 2), (7, 7),
        (7, 8), (8, 9), (9, 9), (9, 7), (10, 10), (11, 11), (0, 1),
    ],
    12,
)
NOISY_TREE = (0, 0, 0, 1, 2, 3, 5, -1, -1, -1, -1, -1)


def _noisy_tree(**changes):
    tree = np.array(NOISY_TREE, dtype=np.int64)
    for key, parent in changes.items():
        tree[int(key[1:])] = parent
    return tree


NEVER_REACH = (
    "rule1: {} vertices have parent pointers that never reach the root "
    "(cycle or dangling parent), e.g. vertex {}"
)
HALF_VISITED = (
    "rule5: edge ({}, {}) connects a visited vertex to an unvisited one — "
    "the tree does not span the root's component"
)

# (tree, first violation, every violation), pinned from the validator as
# it was before rules 3-5 were fused; the messages must not drift.
PINNED = {
    "valid": (_noisy_tree(), None, ()),
    "rule1_cycle": (
        _noisy_tree(v3=5, v5=3),
        NEVER_REACH.format(3, 3),
        (NEVER_REACH.format(3, 3), HALF_VISITED.format(1, 3)),
    ),
    "rule1_root": (
        _noisy_tree(v0=1),
        "rule1: tree[root] must equal root, got 1",
        ("rule1: tree[root] must equal root, got 1",),
    ),
    "rule1_range": (
        _noisy_tree(v6=99),
        "rule1: 1 parent pointers outside [0, 12), e.g. parent[6] = 99",
        ("rule1: 1 parent pointers outside [0, 12), e.g. parent[6] = 99",),
    ),
    # Levels are derived from the parent pointers, so a tree edge always
    # spans one level once rule 1 holds; a level-skipping parent shows up
    # as a missing edge instead.
    "rule2_level_skip": (
        _noisy_tree(v6=3),
        "rule3: 1 tree edges absent from the graph, e.g. (6, 3)",
        ("rule3: 1 tree edges absent from the graph, e.g. (6, 3)",),
    ),
    "rule3_fake_edge": (
        _noisy_tree(v4=1),
        "rule3: 1 tree edges absent from the graph, e.g. (4, 1)",
        ("rule3: 1 tree edges absent from the graph, e.g. (4, 1)",),
    ),
    "rule4_long_edge": (
        _noisy_tree(v4=5),
        "rule4: edge (2, 4) spans levels 1 and 4",
        ("rule4: edge (2, 4) spans levels 1 and 4",),
    ),
    "rule5_unvisited": (
        _noisy_tree(v6=-1),
        HALF_VISITED.format(5, 6),
        (HALF_VISITED.format(5, 6),),
    ),
    "rule5_other_component": (
        _noisy_tree(v7=7),
        NEVER_REACH.format(1, 7),
        (
            NEVER_REACH.format(1, 7),
            "rule3: 1 tree edges absent from the graph, e.g. (7, 7)",
        ),
    ),
    "rule4_and_rule5": (
        _noisy_tree(v4=5, v6=-1),
        "rule4: edge (2, 4) spans levels 1 and 4",
        ("rule4: edge (2, 4) spans levels 1 and 4", HALF_VISITED.format(5, 6)),
    ),
    "rule3_and_rule5": (
        _noisy_tree(v4=1, v6=-1, v8=0),
        "rule3: 2 tree edges absent from the graph, e.g. (4, 1)",
        (
            "rule3: 2 tree edges absent from the graph, e.g. (4, 1)",
            HALF_VISITED.format(5, 6),
        ),
    ),
    "rule1_rule3_rule5": (
        _noisy_tree(v3=5, v5=3, v4=1, v2=-1),
        NEVER_REACH.format(3, 3),
        (
            NEVER_REACH.format(3, 3),
            "rule3: 1 tree edges absent from the graph, e.g. (4, 1)",
            HALF_VISITED.format(0, 2),
        ),
    ),
}


class TestPinnedViolationMessages:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_first_violation(self, case):
        tree, first, _ = PINNED[case]
        res = validate_bfs_tree(NOISY, tree, 0)
        assert res.ok is (first is None)
        assert res.violations == (() if first is None else (first,))

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_collect_all(self, case):
        tree, _, every = PINNED[case]
        res = validate_bfs_tree(NOISY, tree, 0, collect_all=True)
        assert res.violations == every

    def test_valid_tree_levels(self):
        res = validate_bfs_tree(NOISY, _noisy_tree(), 0)
        assert res.levels.tolist() == [0, 1, 1, 2, 2, 3, 4, -1, -1, -1, -1, -1]
        assert res.n_tree_vertices == 7

    def test_rule5_next_to_the_deepest_possible_level(self):
        # A path 0-1-...-7 whose tree stops one short: vertex 6 sits at
        # level n - 2, the deepest a vertex can be next to an unvisited one.
        n = 8
        path = _el([(i, i + 1) for i in range(n - 1)], n)
        tree = np.array([0, 0, 1, 2, 3, 4, 5, -1], dtype=np.int64)
        res = validate_bfs_tree(path, tree, 0)
        assert res.violations == (HALF_VISITED.format(6, 7),)
