"""Backward-graph offload trade-off (Figure 14, §VI-E).

The paper estimates how much of the *backward* graph could follow the
forward graph onto NVM: keep a per-vertex DRAM budget of *k* edges and
measure (a) how many bytes leave DRAM and (b) what fraction of bottom-up
edge probes then hit NVM.  Its quoted numbers mix two readings of the
budget, so :func:`backward_offload_sweep` evaluates both — each as a
per-row budget of one :class:`~repro.semiext.tiered.TieredScanner` — and
reports both curves:

* **prefix** (budget k: first k edges of each row in DRAM) reproduces the
  *access* series — 38.2 % of probes on NVM at k=2 collapsing to 0.7 %
  at k=32;
* **degree-threshold** (budget ``np.where(deg <= k, 0, deg)``: rows of
  degree ≤ k offloaded whole) reproduces the *size* series — 2.6 % of
  bytes off DRAM at k=2 rising to 15.1 % at k=32.

Unlike the paper (which only estimates from access traces), the sweep
actually *runs* the partially offloaded BFS, so the numbers include the
real early-termination interplay between the DRAM and NVM portions.

:func:`tiered_offload_sweep` goes one step further and drives the
first-class engine tier (:class:`~repro.semiext.tiered.TieredBackwardStore`)
through the simulated clock, producing the **measured memory-vs-TEPS
frontier**: per k, the DRAM bytes actually resident, the per-vertex
fallthrough reads actually issued, and the modeled TEPS those reads cost.
This is the curve committed as ``BENCH_backward_offload.json`` and gated
by the CI perf gate (see ``docs/offload.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bfs.metrics import Direction
from repro.bfs.policies import AlphaBetaPolicy, DirectionPolicy
from repro.bfs.semi_external import SemiExternalBFS
from repro.csr.graph import CSRGraph
from repro.csr.partition import BackwardGraph, ForwardGraph
from repro.errors import ConfigurationError
from repro.perfmodel.cost import DramCostModel
from repro.semiext.device import DeviceModel
from repro.semiext.storage import NVMStore
from repro.semiext.tiered import TieredBackwardStore, TieredScanner

__all__ = [
    "OffloadPoint",
    "TieredPoint",
    "backward_offload_sweep",
    "tiered_offload_sweep",
]


@dataclass(frozen=True)
class OffloadPoint:
    """One Figure 14 point: DRAM budget k → size and access consequences."""

    strategy: str
    k: int
    dram_reduction: float
    nvm_access_ratio: float
    nvm_bytes: int
    dram_bytes: int


def backward_offload_sweep(
    forward: ForwardGraph,
    backward: BackwardGraph,
    device: DeviceModel,
    workdir: str | Path,
    roots: np.ndarray,
    ks: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    alpha: float = 1e2,
    beta: float = 1e2,
    strategies: tuple[str, ...] = ("prefix", "degree-threshold"),
) -> list[OffloadPoint]:
    """Run the Figure 14 sweep.

    For each k and strategy, builds partially offloaded backward scanners,
    runs the semi-external BFS from every root, and measures the fraction
    of *bottom-up* edge probes served from NVM plus the DRAM bytes saved.
    """
    if not len(roots):
        raise ConfigurationError("need at least one root")
    if any(k < 0 for k in ks):
        raise ConfigurationError(f"k must be non-negative, got {ks}")
    workdir = Path(workdir)
    points: list[OffloadPoint] = []
    for strategy in strategies:
        if strategy not in ("prefix", "degree-threshold"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        for k in ks:
            store = NVMStore(
                workdir / f"{strategy}-k{k}",
                device,
                concurrency=forward.topology.n_cores,
            )
            scanners = [
                TieredScanner(
                    shard,
                    k if strategy == "prefix" else _whole_rows_above(shard, k),
                    store,
                    f"bwd.{strategy}.k{k}.node{i}",
                )
                for i, shard in enumerate(backward.shards)
            ]
            tiered = TieredBackwardStore(scanners, k)
            engine = SemiExternalBFS.offload(
                forward=forward,
                backward=backward,
                policy=AlphaBetaPolicy(alpha=alpha, beta=beta),
                store=store,
                backward_scanners=scanners,
            )
            bu_dram = 0
            bu_nvm = 0
            for root in roots:
                result = engine.run(int(root))
                for t in result.traces:
                    if t.direction is Direction.BOTTOM_UP:
                        bu_dram += t.edges_scanned - t.edges_scanned_nvm
                        bu_nvm += t.edges_scanned_nvm
            total = bu_dram + bu_nvm
            points.append(
                OffloadPoint(
                    strategy=strategy,
                    k=k,
                    dram_reduction=tiered.dram_reduction,
                    nvm_access_ratio=(bu_nvm / total) if total else 0.0,
                    nvm_bytes=tiered.nvm_nbytes,
                    dram_bytes=tiered.dram_nbytes,
                )
            )
    return points


def _whole_rows_above(shard: CSRGraph, k: int) -> np.ndarray:
    """Degree-threshold budget: rows of degree ≤ k keep nothing in DRAM,
    every other row keeps all of its edges."""
    deg = shard.degrees()
    return np.where(deg <= k, 0, deg)


@dataclass(frozen=True)
class TieredPoint:
    """One measured point of the memory-vs-TEPS offload frontier."""

    k: int
    dram_bytes: int
    nvm_bytes: int
    dram_reduction: float
    rows_scanned: int
    fallthrough_rows: int
    nvm_tail_edges: int
    modeled_time_s: float
    teps: float

    @property
    def fallthrough_rate(self) -> float:
        """Share of scanned rows that fell through to the NVM tail."""
        if self.rows_scanned == 0:
            return 0.0
        return self.fallthrough_rows / self.rows_scanned


def tiered_offload_sweep(
    forward: ForwardGraph,
    backward: BackwardGraph,
    device: DeviceModel,
    workdir: str | Path,
    roots: np.ndarray,
    ks: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    alpha: float = 1e2,
    beta: float = 1e2,
    policy: DirectionPolicy | None = None,
    cost_model: DramCostModel | None = None,
) -> list[TieredPoint]:
    """Measure the §VI-E memory-vs-TEPS frontier with the tiered store.

    For each k, builds a fresh :class:`TieredBackwardStore` on its own
    :class:`NVMStore` (own simulated clock and iostats), runs the
    semi-external BFS from every root, and reads the trade-off straight
    off the store: DRAM-resident bytes on one axis, modeled TEPS — with
    every per-vertex fallthrough charged through the device model — on
    the other.  ``policy`` overrides the default α/β rule (the Fig. 14
    bench pins bottom-up so every level exercises the tier); the DRAM
    cost model defaults on so prefix probes cost time too.
    """
    if not len(roots):
        raise ConfigurationError("need at least one root")
    workdir = Path(workdir)
    cost_model = cost_model if cost_model is not None else DramCostModel()
    points: list[TieredPoint] = []
    for k in ks:
        store = NVMStore(
            workdir / f"tiered-k{k}",
            device,
            concurrency=forward.topology.n_cores,
        )
        tiered = TieredBackwardStore.build(backward, k, store)
        engine = SemiExternalBFS.offload(
            forward=forward,
            backward=backward,
            policy=policy
            if policy is not None
            else AlphaBetaPolicy(alpha=alpha, beta=beta),
            store=store,
            cost_model=cost_model,
            backward_scanners=tiered.scanners,
        )
        traversed = 0
        t0 = store.clock.now()
        for root in roots:
            traversed += engine.run(int(root)).traversed_edges
        elapsed = store.clock.now() - t0
        points.append(
            TieredPoint(
                k=int(k),
                dram_bytes=tiered.dram_nbytes,
                nvm_bytes=tiered.nvm_nbytes,
                dram_reduction=tiered.dram_reduction,
                rows_scanned=tiered.rows_scanned,
                fallthrough_rows=tiered.fallthrough_rows,
                nvm_tail_edges=tiered.scanned_nvm,
                modeled_time_s=elapsed,
                teps=(traversed / elapsed) if elapsed > 0 else 0.0,
            )
        )
    return points
