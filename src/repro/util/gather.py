"""Ragged-segment primitives for vectorized CSR traversal.

The BFS kernels operate on *segments*: each frontier (or unvisited) vertex
owns a contiguous slice ``adj[indptr[v]:indptr[v+1]]`` of the CSR value
array.  Traversing a whole level means gathering many such slices, tagging
every element with its owning segment, and — for the bottom-up step —
finding the *first* matching element per segment to honour the algorithm's
early termination.  Doing this with Python loops is orders of magnitude too
slow; the primitives here do it with a constant number of NumPy passes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.util.bitmap import Bitmap

__all__ = [
    "PROBE_COLUMNS", "concat_ranges", "segment_ids", "first_true_per_segment",
    "first_hit_rows", "sorted_unique",
]

PROBE_COLUMNS = 8
"""Row entries :func:`first_hit_rows` probes column by column before it
gathers the rest of each still-unresolved row."""


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Return indices equivalent to ``concatenate([arange(s, s+c) ...])``.

    For CSR row gathering: ``adj[concat_ranges(indptr[vs], degs)]`` yields
    the concatenation of the adjacency lists of vertices ``vs`` without a
    Python loop.

    >>> concat_ranges(np.array([5, 0]), np.array([3, 2]))
    array([5, 6, 7, 0, 1])
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise GraphFormatError("starts/counts shape mismatch")
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if counts.min() < 0:
        raise GraphFormatError("negative segment count")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Segmented arange: a global arange shifted per segment so each segment
    # restarts at its own `start` (empty segments repeat zero times).
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return out


def segment_ids(counts: np.ndarray) -> np.ndarray:
    """Return, for each gathered element, the index of its owning segment.

    >>> segment_ids(np.array([2, 0, 3]))
    array([0, 0, 2, 2, 2])
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or counts.sum() == 0:
        return np.empty(0, dtype=np.int64)
    if counts.min() < 0:
        raise GraphFormatError("negative segment count")
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def first_true_per_segment(
    mask: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Find the first ``True`` within each segment of a concatenated mask.

    Implements the bottom-up step's early termination: ``mask`` flags, for
    every scanned edge, whether the neighbour is in the frontier; each
    segment is one unvisited vertex's adjacency list, and the scan stops at
    the first hit.

    Parameters
    ----------
    mask:
        Boolean array of length ``counts.sum()`` (concatenated segments).
    counts:
        Per-segment lengths.

    Returns
    -------
    hit_global:
        For each segment, the *global* index into ``mask`` of its first
        ``True`` element, or ``-1`` if the segment has none.
    scanned:
        Number of elements examined per segment under early termination:
        ``offset_of_first_hit + 1`` for segments with a hit, the full
        segment length otherwise.  ``scanned.sum()`` is exactly the edge
        traffic the paper's Figure 10 reports for the bottom-up direction.
    """
    counts = np.asarray(counts, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    total = int(counts.sum()) if counts.size else 0
    if total != mask.size:
        raise GraphFormatError(f"mask length {mask.size} != counts total {total}")
    hit_global = np.full(counts.size, -1, dtype=np.int64)
    scanned = counts.copy()
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return hit_global, scanned
    seg_first = np.cumsum(counts) - counts
    # Segments are laid out in order, so the owning segment of each hit is
    # found by binary search; the owners come out sorted, and the first
    # hit per segment is where the owner changes.
    owner = np.searchsorted(seg_first, hits, side="right") - 1
    first = _run_starts(owner)
    first_seg = owner[first]
    first_hit = hits[first]
    hit_global[first_seg] = first_hit
    scanned[first_seg] = first_hit - seg_first[first_seg] + 1
    return hit_global, scanned


def _checked(ids: np.ndarray, size: int) -> np.ndarray:
    if ids.size and (ids.min() < 0 or int(ids.max()) >= size):
        raise IndexError(
            f"probed vertex IDs outside [0, {size}): min={ids.min()}, max={ids.max()}"
        )
    return ids


def first_hit_rows(
    values: np.ndarray, starts: np.ndarray | None, counts: np.ndarray,
    member: np.ndarray | Bitmap,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first entry in ``member``, probing no entry past it.

    Row ``i`` is ``values[starts[i]:starts[i] + counts[i]]``; ``starts=None``
    means back to back, as a full-row gather returns them.  ``member`` is a
    ``bool`` byte map over vertex IDs (a :class:`Bitmap` is expanded);
    probed IDs outside it raise :class:`IndexError`.  The k-th entries of
    all unresolved rows are probed together for the first
    :data:`PROBE_COLUMNS` columns, and only rows still unresolved then are
    gathered whole and finished by :func:`first_true_per_segment`.

    Returns ``(parents, scanned)``: the first member entry of each row (or
    ``-1``) and the entries examined under early termination.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if isinstance(member, Bitmap):
        member = member.to_bool_array()
    if starts is None:
        starts = np.cumsum(counts) - counts
    parents = np.full(counts.size, -1, dtype=np.int64)
    scanned = counts.copy()
    rows = np.flatnonzero(counts)
    pos = np.asarray(starts, dtype=np.int64)[rows]
    for col in range(PROBE_COLUMNS):
        if not rows.size:
            return parents, scanned
        probe = _checked(values[pos], member.size)
        hit = member[probe]
        won = rows[hit]
        parents[won] = probe[hit]
        scanned[won] = col + 1
        more = ~hit
        more &= counts[rows] > col + 1
        rows = rows[more]
        pos = pos[more] + 1
    if rows.size:
        rest = counts[rows] - PROBE_COLUMNS
        tail = _checked(values[concat_ranges(pos, rest)], member.size)
        hit_at, tail_scanned = first_true_per_segment(member[tail], rest)
        found = hit_at >= 0
        parents[rows[found]] = tail[hit_at[found]]
        scanned[rows] = PROBE_COLUMNS + tail_scanned
    return parents, scanned


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, sorting ``values`` in place (pass a temporary).

    NumPy 2's ``np.unique`` hashes integers, far slower than one sort on
    the large int64 key arrays of graph construction.

    >>> sorted_unique(np.array([3, 1, 3, 2, 1]))
    array([1, 2, 3])
    """
    values.sort()
    return values[_run_starts(values)]


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``x``."""
    first = np.empty(x.size, dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first
