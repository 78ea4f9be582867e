"""Fully-external BFS baseline (Pearce et al., the paper's §VII contrast).

Pearce et al. [SC'10, IPDPS'13] traverse graphs that live *entirely* on
NVM, hiding access latency with massive asynchronous multithreading; the
paper quotes their 0.05 GTEPS at SCALE 36 (1 TB DRAM + 12 TB NVM) against
its own 4.22 GTEPS with a higher DRAM:NVM ratio, arguing that keeping the
bottom-up direction's data in DRAM buys orders of magnitude.

:class:`FullyExternalBFS` reproduces the *data placement* of that
approach — the whole CSR (index and value files) on the device, every
edge scan a device read — as one configuration of the hybrid level loop
(:class:`~repro.bfs.hybrid.HybridBFS`): a single external top-down shard
over a one-node topology, pinned top-down by
:class:`~repro.bfs.policies.FixedPolicy`.  Two simplifications are
documented here:

* the traversal is level-synchronous top-down rather than Pearce's
  asynchronous visitor queues (the visitor machinery changes *when* I/O
  happens, not *how much*; with the closed queueing model already
  saturating the device, total service time is governed by the same
  request volume);
* latency hiding by oversubscription is modeled by running the device at
  its saturation throughput (``concurrency`` readers), which is the best
  case the async design strives for.

The baseline exists to reproduce the paper's capacity-performance
trade-off claim: fully-external ≪ semi-external ≪ in-DRAM, with the
semi-external configuration only paying for the sliver of traffic the
hybrid schedule leaves on the device.
"""

from __future__ import annotations

from repro.bfs.hybrid import HybridBFS
from repro.bfs.metrics import Direction
from repro.bfs.policies import FixedPolicy
from repro.csr.graph import CSRGraph
from repro.csr.io import ExternalCSR, offload_csr
from repro.errors import ConfigurationError
from repro.numa.topology import NumaTopology
from repro.perfmodel.cost import DramCostModel
from repro.semiext.storage import NVMStore

__all__ = ["FullyExternalBFS"]


class FullyExternalBFS(HybridBFS):
    """Top-down BFS over a CSR resident entirely on simulated NVM.

    There is no backward graph, hence no bottom-up scanner and no
    degraded mode: a device failure propagates to the caller.
    """

    def __init__(
        self,
        external: ExternalCSR,
        store: NVMStore,
        cost_model: DramCostModel | None = None,
        obs=None,
    ) -> None:
        if external.n_rows != external.n_cols:
            raise ConfigurationError("FullyExternalBFS requires a square CSR")
        self.external = external
        self.store = store
        self._configure(
            NumaTopology(n_nodes=1, cores_per_node=1),
            external.degrees_uncharged(),
            FixedPolicy(Direction.TOP_DOWN),
            top_down_shards=[external],
            scanners=[],
            cost_model=cost_model,
            clock=store.clock,
            obs=obs if obs is not None else store.obs,
        )

    @classmethod
    def offload(
        cls,
        graph: CSRGraph,
        store: NVMStore,
        cost_model: DramCostModel | None = None,
        prefix: str = "external",
        obs=None,
    ) -> "FullyExternalBFS":
        """Write the whole CSR to the store and build the engine."""
        return cls(offload_csr(graph, store, prefix), store, cost_model, obs=obs)

    def __repr__(self) -> str:
        return (
            f"FullyExternalBFS(n={self.external.n_rows}, "
            f"device={self.store.device.name!r})"
        )
