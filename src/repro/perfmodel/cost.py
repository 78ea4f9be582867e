"""DRAM-side cost model for modeled (simulated-clock) TEPS.

Pure-Python BFS cannot approach NETAL's GTEPS wall-clock rates, so the
reproduction separates *what work happens* from *what it costs*: the
engines count edge probes, queue operations and NVM requests exactly, and
this model converts the DRAM-side counts into seconds on the shared
:class:`~repro.semiext.clock.SimulatedClock` (NVM charges come from the
device model directly).

Calibration (defaults)
----------------------
The constants target the paper's DRAM-only machine — 4 × 12-core Opteron
6172, DDR3-1333 — and were chosen to land the paper's absolute anchors:

* a random edge probe costs ``random_access_ns`` and the machine sustains
  ``threads × mlp`` of them concurrently (48 threads with modest
  memory-level parallelism ⇒ ~1.1 G probes/s);
* a pure top-down traversal probing all ``2M ≈ 4.3 G`` directed edges of
  the SCALE 27 graph then takes ~3.9 s ⇒ **0.55 GTEPS**, the paper's
  "top-down only ≈ 0.6 GTEPS";
* the hybrid schedule probes ~10× fewer edges ⇒ ~**5 GTEPS**, the paper's
  5.12 GTEPS DRAM-only peak;
* the reference-code baseline is modeled with degraded parallelism and
  NUMA-blind placement (see :meth:`DramCostModel.reference`), landing its
  0.04 GTEPS.

Shapes (the real reproduction target) are insensitive to these constants;
the ablation bench sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["DramCostModel", "request_think_time_s"]


@dataclass(frozen=True)
class DramCostModel:
    """Charges DRAM-side BFS work onto the simulated clock.

    Parameters
    ----------
    random_access_ns:
        Latency of one dependent random DRAM access (edge probe, bitmap
        test + tree write amortized in).
    per_vertex_ns:
        Queue push/pop + policy bookkeeping per frontier/discovered vertex.
    threads:
        Worker threads (the paper: 48).
    mlp:
        Average outstanding misses per thread the access pattern achieves
        (CSR rows give short bursts of spatial locality; calibrated 1.25).
    remote_penalty:
        Multiplier on ``random_access_ns`` for an access to a remote NUMA
        node's memory.
    remote_fraction:
        Fraction of probes that cross NUMA boundaries; **0.0 for the
        NUMA-partitioned layouts** (their entire point), > 0 for the
        NUMA-blind reference baseline.
    """

    random_access_ns: float = 55.0
    per_vertex_ns: float = 20.0
    threads: int = 48
    mlp: float = 1.25
    remote_penalty: float = 2.0
    remote_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.random_access_ns <= 0 or self.per_vertex_ns < 0:
            raise ConfigurationError("non-positive access cost")
        if self.threads <= 0:
            raise ConfigurationError(f"threads must be positive: {self.threads}")
        if self.mlp <= 0:
            raise ConfigurationError(f"mlp must be positive: {self.mlp}")
        if self.remote_penalty < 1.0:
            raise ConfigurationError("remote_penalty must be >= 1")
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ConfigurationError("remote_fraction must be in [0, 1]")

    # -- derived rates ------------------------------------------------------------

    @property
    def probe_throughput_per_s(self) -> float:
        """Sustained random edge probes per second, NUMA-local."""
        return self.threads * self.mlp / (self.random_access_ns * 1e-9)

    @property
    def effective_probe_ns(self) -> float:
        """Mean per-probe cost including the remote-access mix."""
        return self.random_access_ns * (
            1.0 + (self.remote_penalty - 1.0) * self.remote_fraction
        )

    # -- charging -------------------------------------------------------------------

    def level_time_s(
        self,
        edges_scanned: int,
        frontier_size: int,
        next_size: int,
    ) -> float:
        """DRAM-side time of one BFS level.

        ``edges_scanned`` is the exact probe count of the level (all
        frontier out-edges top-down; early-termination counts bottom-up);
        vertex terms cover dequeue of the frontier and enqueue of the
        discovered set.
        """
        if min(edges_scanned, frontier_size, next_size) < 0:
            raise ConfigurationError("negative level statistics")
        probe_s = edges_scanned * self.effective_probe_ns * 1e-9
        vertex_s = (frontier_size + next_size) * self.per_vertex_ns * 1e-9
        return (probe_s + vertex_s) / (self.threads * self.mlp)

    def per_request_think_time_s(self, edges_per_request: float) -> float:
        """CPU time a reader thread spends per NVM request.

        Fed to the device queueing model as closed-system think time: after
        each 4 KB read the thread filters/dedups the fetched destinations
        before issuing the next request.
        """
        if edges_per_request < 0:
            raise ConfigurationError("negative edges per request")
        return edges_per_request * self.effective_probe_ns * 1e-9 / self.mlp

    # -- variants ---------------------------------------------------------------------

    def reference(self) -> "DramCostModel":
        """The Graph500 v2.1.4 reference-code profile.

        NUMA-blind allocation (¾ of probes remote on a 4-socket machine)
        and heavy shared-queue contention (effective parallelism of a
        handful of threads) — calibrated so the reference lands near its
        measured 0.04 GTEPS against NETAL's 0.6 GTEPS top-down.
        """
        return replace(self, threads=8, remote_fraction=0.75)

    def with_topology(self, n_nodes: int, cores_per_node: int) -> "DramCostModel":
        """Rescale the thread count to a different simulated machine."""
        return replace(self, threads=n_nodes * cores_per_node)


def request_think_time_s(cost_model: DramCostModel | None, store) -> float:
    """Think time per NVM request of a reader over ``store``.

    The CPU a reader thread spends digesting one ``store.chunk_bytes``
    request's edges (8 bytes each) before issuing the next read — the
    closed-queueing-model input every NVM reader shares.  0 without a
    cost model or without a store.
    """
    if cost_model is None or store is None:
        return 0.0
    return cost_model.per_request_think_time_s(store.chunk_bytes / 8.0)
