"""Graph500 BFS-tree validation (benchmark Step 4).

Implements the five validation rules of the Graph500 specification, which
the paper runs after every one of the 64 BFS iterations (§II Step 4, §V-A
Step 4 — using the tree on DRAM and the edge list on NVM):

1. the BFS tree has no cycles and every parent pointer eventually reaches
   the root (checked by computing levels with breadth-wise propagation);
2. each tree edge connects vertices whose BFS levels differ by exactly one;
3. every tree edge (vertex, parent) appears in the input edge list;
4. every input edge connects vertices whose levels differ by at most one,
   or joins two unvisited vertices (no edge may cross from the visited
   component to an unvisited vertex);
5. exactly the vertices of the root's connected component are in the tree.

All rules are evaluated with vectorized passes over the edge list; the
validator never rebuilds adjacency, so it can validate against an edge list
resident on (simulated) NVM.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.graph500.edgelist import EdgeList

__all__ = ["ValidationResult", "compute_levels", "validate_bfs_tree"]

UNVISITED = np.int64(-1)
"""Parent value marking a vertex not reached by the BFS."""


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one BFS tree."""

    ok: bool
    violations: tuple[str, ...] = ()
    levels: np.ndarray | None = field(default=None, compare=False)
    n_tree_vertices: int = 0

    def raise_if_invalid(self) -> None:
        """Raise :class:`ValidationError` with the first violation."""
        if not self.ok:
            raise ValidationError(self.violations[0])


def compute_levels(parent: np.ndarray, root: int) -> tuple[np.ndarray, str | None]:
    """Derive BFS levels from parent pointers.

    Returns ``(levels, error)`` where ``levels[v]`` is the hop count from
    the root (``-1`` for unvisited vertices) and ``error`` is a diagnostic
    string when the pointers contain a cycle or a dangling parent.

    Levels are propagated breadth-wise: at round ``k`` every vertex whose
    parent got level ``k-1`` receives level ``k``.  With valid input this
    terminates in (eccentricity) rounds; a vertex never reached while
    claiming a parent exposes a cycle.
    """
    n = parent.shape[0]
    levels = np.full(n, -1, dtype=np.int64)
    if not 0 <= root < n:
        return levels, f"root {root} outside [0, {n})"
    if parent[root] != root:
        return levels, f"tree[root] must equal root, got {parent[root]}"
    out_of_range = (parent != UNVISITED) & ((parent < 0) | (parent >= n))
    if out_of_range.any():
        v = int(np.flatnonzero(out_of_range)[0])
        return levels, (
            f"{int(np.count_nonzero(out_of_range))} parent pointers outside "
            f"[0, {n}), e.g. parent[{v}] = {int(parent[v])}"
        )
    levels[root] = 0
    visited_mask = parent != UNVISITED
    pending = np.flatnonzero(visited_mask & (levels == -1))
    level = 0
    while pending.size:
        parents_of_pending = parent[pending]
        ready = levels[parents_of_pending] == level
        if not ready.any():
            return levels, (
                f"{pending.size} vertices have parent pointers that never "
                f"reach the root (cycle or dangling parent), e.g. vertex "
                f"{int(pending[0])}"
            )
        levels[pending[ready]] = level + 1
        pending = pending[~ready]
        level += 1
    return levels, None


def validate_bfs_tree(
    edges: EdgeList,
    parent: np.ndarray,
    root: int,
    collect_all: bool = False,
) -> ValidationResult:
    """Validate a BFS parent array against the input edge list.

    Parameters
    ----------
    edges:
        The original (multigraph) edge list; self-loops and duplicates are
        handled per the spec (ignored for connectivity rules).
    parent:
        ``int64[n]`` parent pointers, ``-1`` = unvisited, ``parent[root]
        == root``.
    root:
        The search key of this BFS run.
    collect_all:
        When true, keep checking after the first violation and report all
        of them (used by tests); the default stops at the first for speed.
    """
    parent = np.asarray(parent)
    n = edges.n_vertices
    if parent.shape != (n,):
        return ValidationResult(
            ok=False,
            violations=(f"parent array shape {parent.shape} != ({n},)",),
        )
    levels, err = compute_levels(parent, root)
    found = _violations(edges, parent, root, levels, err)
    if not collect_all:
        first = next(found, None)
        if first is not None:
            return ValidationResult(ok=False, violations=(first,))
    violations = tuple(found)
    return ValidationResult(
        ok=not violations,
        violations=violations,
        levels=levels,
        n_tree_vertices=int(np.count_nonzero(levels >= 0)),
    )


def _violations(
    edges: EdgeList, parent: np.ndarray, root: int, levels: np.ndarray, err: str | None
) -> Iterator[str]:
    """Yield each rule's violation message, in rule order, lazily."""
    n = edges.n_vertices
    # Rule 1: acyclic pointers reaching the root (``compute_levels``).
    if err is not None:
        yield f"rule1: {err}"
    visited = levels >= 0

    # Rule 2: tree edges span exactly one level.  Out-of-range parent
    # pointers were already reported by rule 1; excluding them here keeps
    # the collect_all path free of wild indexing.
    in_range = (parent != UNVISITED) & (parent >= 0) & (parent < n)
    tree_vertices = np.flatnonzero(in_range & (np.arange(n) != root))
    if tree_vertices.size:
        dl = levels[tree_vertices] - levels[parent[tree_vertices]]
        bad = tree_vertices[(dl != 1) & visited[tree_vertices]]
        if bad.size:
            yield (
                f"rule2: {bad.size} tree edges do not span one level, "
                f"e.g. vertex {int(bad[0])} (level {int(levels[bad[0]])}) with "
                f"parent {int(parent[bad[0]])} (level {int(levels[parent[bad[0]]])})"
            )

    # Rule 3: every tree edge exists in the input edge list.
    if tree_vertices.size:
        edge_keys = edges.sorted_edge_keys  # cached across iterations
        tv = tree_vertices
        tp = parent[tv]
        tree_keys = np.minimum(tv, tp) * np.int64(n) + np.maximum(tv, tp)
        if edge_keys.size:
            # Search with the keys sorted (a merge-like sweep), then map
            # any absent key back to vertex order for the report.
            keys = np.sort(tree_keys)
            pos = np.searchsorted(edge_keys, keys)
            np.minimum(pos, edge_keys.size - 1, out=pos)
            absent = keys[edge_keys[pos] != keys]
            missing = tv[np.isin(tree_keys, absent)] if absent.size else absent
        else:  # self-loop-only or edgeless graph: every tree edge is bogus
            missing = tv
        if missing.size:
            yield (
                f"rule3: {missing.size} tree edges absent from the graph, "
                f"e.g. ({int(missing[0])}, {int(parent[missing[0]])})"
            )

    # Rules 4 and 5: no input edge spans more than one level or leaves the
    # visited component half-visited (self-loops can break neither).  One
    # fused int32 pass first: with unvisited vertices at level n + 1, an
    # edge breaks a rule exactly when its levels differ by more than one.
    u, v = edges.endpoints
    clean = False
    if n < 1 << 30:
        lev = np.where(visited, levels, n + 1).astype(np.int32)
        d = lev[u]
        d -= lev[v]
        d += 1  # |difference| <= 1  <=>  d in [0, 2]
        clean = not (d.view(np.uint32) > 2).any()
    if not clean:
        lu, lv = levels[u], levels[v]
        both_visited = (lu >= 0) & (lv >= 0)
        span_bad = both_visited & (np.abs(lu - lv) > 1)
        if span_bad.any():
            i = int(np.flatnonzero(span_bad)[0])
            yield (
                f"rule4: edge ({int(u[i])}, {int(v[i])}) spans levels "
                f"{int(lu[i])} and {int(lv[i])}"
            )
        half = both_visited ^ ((lu >= 0) | (lv >= 0))
        if half.any():
            i = int(np.flatnonzero(half)[0])
            yield (
                f"rule5: edge ({int(u[i])}, {int(v[i])}) connects a visited "
                f"vertex to an unvisited one — the tree does not span the "
                f"root's component"
            )
