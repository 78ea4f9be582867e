"""Hybrid (direction-optimizing) BFS engines — the paper's core contribution.

Three engines are configurations of one level loop,
:meth:`HybridBFS.resume`:

* :class:`HybridBFS` — everything in DRAM (the paper's *DRAM-only*
  scenario and the NETAL baseline);
* :class:`SemiExternalBFS` — the forward graph on simulated NVM, read in
  ≤4 KB chunks during top-down levels (*DRAM+PCIeFlash* / *DRAM+SSD*),
  optionally with the backward graph partially offloaded (§VI-E);
* :class:`FullyExternalBFS` — a Pearce-style everything-on-NVM baseline
  for the paper's §VII capacity/performance comparison: one external
  top-down shard, pinned top-down.

:class:`ReferenceBFS` — the Graph500 v2.1.4-style plain top-down queue
BFS used as the paper's lower baseline — keeps its own step, because it
is the conformance oracle the others are diffed against.  The batched
and partitioned engines keep their own round bodies, but every engine
carries its loop state in a :class:`~repro.bfs.loop.LevelCursor`, and
every ``bfs.*`` level series comes from :func:`~repro.bfs.loop.record_level`.

Direction selection is pluggable via :mod:`~repro.bfs.policies`; the
paper's α/β rule is :class:`AlphaBetaPolicy`.
"""

from repro.bfs.fully_external import FullyExternalBFS
from repro.bfs.hybrid import HybridBFS
from repro.bfs.metrics import BFSResult, Direction, LevelTrace
from repro.bfs.policies import (
    AlphaBetaPolicy,
    BeamerPolicy,
    DirectionPolicy,
    FixedPolicy,
    TieredKPolicy,
)
from repro.bfs.reference import ReferenceBFS
from repro.bfs.semi_external import SemiExternalBFS
from repro.bfs.state import BFSState

__all__ = [
    "HybridBFS",
    "FullyExternalBFS",
    "SemiExternalBFS",
    "ReferenceBFS",
    "BFSState",
    "BFSResult",
    "LevelTrace",
    "Direction",
    "DirectionPolicy",
    "AlphaBetaPolicy",
    "BeamerPolicy",
    "FixedPolicy",
    "TieredKPolicy",
]
