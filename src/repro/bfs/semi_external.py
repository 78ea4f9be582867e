"""Hybrid BFS with the forward graph on semi-external memory (paper §V).

:class:`SemiExternalBFS` is the paper's proposed configuration: the
forward graph's index/value files live on the NVM device and every
top-down level reads them through ≤4 KB chunked requests, while the
backward graph and all BFS status data stay in DRAM.  Optionally the
backward graph is *partially* offloaded too (§VI-E): pass the scanners of
a :class:`~repro.semiext.tiered.TieredBackwardStore` as
``backward_scanners``.

Cost accounting (each scanned edge is paid exactly once):

* edges whose adjacency came from DRAM — charged by the level loop
  through the DRAM cost model (DRAM-resident probes only);
* edges fetched from the device — their CPU share enters the queueing
  model as per-request *think time* (which is also what reproduces the
  paper's Figure 12 queue-length contrast: the faster device drains its
  queue between a worker's reads, ``Q = N − X·Z``), and their service
  time is the device model's;
* edges served by the modeled page cache — charged at DRAM cost inside
  the storage layer (``cache_hit_time_per_byte``), which is what makes
  the warm small-SCALE runs of Figure 9 competitive with DRAM-only.
"""

from __future__ import annotations

from repro.bfs.bottomup import BottomUpScanner
from repro.bfs.hybrid import HybridBFS
from repro.bfs.metrics import Direction
from repro.bfs.policies import DirectionPolicy
from repro.csr.io import ExternalCSR, offload_csr
from repro.csr.partition import BackwardGraph, ForwardGraph
from repro.errors import ConfigurationError
from repro.perfmodel.cost import DramCostModel
from repro.semiext.storage import NVMStore

__all__ = ["SemiExternalBFS"]


class SemiExternalBFS(HybridBFS):
    """Hybrid BFS reading the forward graph from simulated NVM.

    Build instances with :meth:`offload`, which writes the forward shards
    into the store (two files per NUMA node: the paper's array/value
    files) and wires clock, iostat and cost accounting together.
    """

    def __init__(
        self,
        forward: ForwardGraph,
        backward: BackwardGraph,
        policy: DirectionPolicy,
        store: NVMStore,
        external_shards: list[ExternalCSR],
        cost_model: DramCostModel | None = None,
        backward_scanners: list[BottomUpScanner] | None = None,
        obs=None,
    ) -> None:
        if len(external_shards) != forward.topology.n_nodes:
            raise ConfigurationError(
                f"need one external shard per NUMA node "
                f"({forward.topology.n_nodes}), got {len(external_shards)}"
            )
        self.store = store
        # The engine and the storage layer must share one clock so DRAM and
        # NVM charges accumulate on the same axis; likewise one
        # observability session (the store's, unless overridden), so
        # bfs.* and nvm.* series land in the same registry.
        super().__init__(
            forward=forward,
            backward=backward,
            policy=policy,
            cost_model=cost_model,
            clock=store.clock,
            obs=obs if obs is not None else store.obs,
        )
        self._top_down_shards = list(external_shards)
        # Partial-offload scanners, when configured; the in-DRAM scanners
        # the base engine built stay around as the degraded-mode fallback.
        self._backward_scanners = backward_scanners
        self._degraded = False
        if cost_model is not None:
            # Page-cache hits are DRAM reads: charge them at the cost
            # model's per-byte probe rate inside the storage layer.
            per_edge_s = cost_model.level_time_s(1, 0, 0)
            store.cache_hit_time_per_byte = per_edge_s / 8.0

    @classmethod
    def offload(
        cls,
        forward: ForwardGraph,
        backward: BackwardGraph,
        policy: DirectionPolicy,
        store: NVMStore,
        cost_model: DramCostModel | None = None,
        backward_scanners: list[BottomUpScanner] | None = None,
        prefix: str = "forward",
        obs=None,
    ) -> "SemiExternalBFS":
        """Offload the forward shards to ``store`` and build the engine.

        This is pipeline Step 2's second half ("offload the constructed
        forward graph to NVM"); the in-DRAM forward shards can be dropped
        by the caller afterwards.  ``backward_scanners`` replaces the
        in-DRAM bottom-up scanners — e.g. the scanners of a
        :class:`~repro.semiext.tiered.TieredBackwardStore` built on the
        same store, which tiers the *backward* graph too (§VI-E).
        """
        external = [
            offload_csr(shard, store, f"{prefix}.node{k}")
            for k, shard in enumerate(forward.shards)
        ]
        return cls(
            forward=forward,
            backward=backward,
            policy=policy,
            store=store,
            external_shards=external,
            cost_model=cost_model,
            backward_scanners=backward_scanners,
            obs=obs,
        )

    @property
    def scanners(self) -> list[BottomUpScanner]:
        """Active bottom-up scanners (partial offload when configured)."""
        return self._active_scanners()

    # -- resilience hooks ---------------------------------------------------------

    @property
    def degraded_mode(self) -> bool:
        """Whether the engine has fallen back to bottom-up-only traversal."""
        return self._degraded or self.store.health.circuit_open

    def _effective_direction(self, direction: Direction) -> Direction:
        if self.degraded_mode:
            # An open circuit means every NVM read would raise; the
            # asymmetric layout makes correctness-preserving fallback
            # possible because the *backward* graph is in DRAM — every
            # level (the root expansion included) runs bottom-up there.
            self._degraded = True
            self.store.resilience.degraded_levels += 1
            return Direction.BOTTOM_UP
        return direction

    def _active_scanners(self) -> list[BottomUpScanner]:
        if self.degraded_mode:
            return self._scanners  # in-DRAM scanners, zero NVM reads
        if self._backward_scanners is not None:
            return self._backward_scanners
        return self._scanners

    def _enter_degraded(self) -> bool:
        self._degraded = True
        self.store.resilience.degraded_levels += 1
        return True
