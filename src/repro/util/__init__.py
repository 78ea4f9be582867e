"""Shared low-level utilities.

The modules here have no dependency on the rest of :mod:`repro`; every other
subpackage may depend on them.

===================  =====================================================
Module               Contents
===================  =====================================================
:mod:`~repro.util.bitmap`    Word-packed bitmaps with vectorized set/test.
:mod:`~repro.util.chunking`  4 KB request splitting and sector arithmetic.
:mod:`~repro.util.rng`       Seeded RNG streams for reproducible runs.
:mod:`~repro.util.units`     Byte-size parsing/formatting helpers.
:mod:`~repro.util.timer`     Wall-clock timers and scoped timing.
:mod:`~repro.util.gather`    Ragged-segment gather/scan primitives for CSR.
===================  =====================================================
"""

from repro.util.bitmap import Bitmap
from repro.util.chunking import ChunkPlan, merge_extents, plan_chunks, split_extent
from repro.util.gather import (
    concat_ranges, first_hit_rows, first_true_per_segment, segment_ids, sorted_unique,
)
from repro.util.rng import SeedSequence, derive_rng
from repro.util.timer import Timer, WallClock
from repro.util.units import format_bytes, parse_bytes

__all__ = [
    "Bitmap",
    "ChunkPlan",
    "plan_chunks",
    "merge_extents",
    "split_extent",
    "concat_ranges",
    "first_true_per_segment",
    "first_hit_rows",
    "sorted_unique",
    "segment_ids",
    "SeedSequence",
    "derive_rng",
    "Timer",
    "WallClock",
    "format_bytes",
    "parse_bytes",
]
