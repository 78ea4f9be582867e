"""The hybrid BFS engine (paper §III–§IV) and the one level loop.

:class:`HybridBFS` runs the level loop every single-query engine under
test is a configuration of — DRAM-only, semi-external
(:class:`~repro.bfs.semi_external.SemiExternalBFS`) and fully-external
(:class:`~repro.bfs.fully_external.FullyExternalBFS`):

1. ask the :class:`~repro.bfs.policies.DirectionPolicy` for the level's
   direction (the paper's α/β rule by default) from the
   :class:`~repro.bfs.loop.LevelCursor`;
2. execute the vectorized top-down or bottom-up step over the
   configured top-down shards and bottom-up scanners;
3. charge the DRAM cost model for the DRAM-resident probes (the device
   model has already paid for NVM-resident ones);
4. record a :class:`~repro.bfs.metrics.LevelTrace` and its ``bfs.*``
   series (:func:`~repro.bfs.loop.record_level`).

The engine is deterministic: given (graph, root, policy) the parent array,
the traces and the modeled time are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.bottomup import BottomUpScanner, InMemoryScanner, bottom_up_step
from repro.bfs.loop import LevelCursor, record_level
from repro.bfs.parallel import ShardExecutor
from repro.bfs.metrics import BFSResult, Direction, LevelTrace, record_run_spans
from repro.bfs.policies import DirectionPolicy
from repro.bfs.state import BFSState
from repro.bfs.topdown import top_down_step
from repro.csr.partition import BackwardGraph, ForwardGraph
from repro.errors import ConfigurationError, DeviceFailedError
from repro.numa.topology import NumaTopology
from repro.obs.schema import M_BFS_RUNS, M_BFS_TRAVERSED
from repro.obs.session import NULL, Observability
from repro.perfmodel.cost import DramCostModel, request_think_time_s
from repro.semiext.clock import SimulatedClock
from repro.util.timer import Timer

__all__ = ["HybridBFS"]


class HybridBFS:
    """Direction-optimizing BFS with both graphs in DRAM.

    This is the paper's *DRAM-only* scenario (and, with a
    :class:`~repro.bfs.policies.FixedPolicy`, its single-direction
    baselines).

    Parameters
    ----------
    forward:
        Column-partitioned forward graph (top-down direction).
    backward:
        Row-partitioned backward graph (bottom-up direction).
    policy:
        Direction policy; the paper's rule is
        :class:`~repro.bfs.policies.AlphaBetaPolicy`.
    cost_model:
        DRAM cost model for modeled time; ``None`` disables the DRAM-side
        charges (subclasses' device charges, if any, still tick the
        shared clock).
    clock:
        Simulated clock to charge; created fresh per engine if omitted.
    n_workers:
        Fan the per-NUMA-shard scans out on a thread pool of this size
        (results bit-identical to sequential; see
        :mod:`repro.bfs.parallel`).  ``None`` runs sequentially.
    obs:
        Observability session recording the ``bfs.*`` metrics and the
        ``bfs.run`` / ``bfs.phase`` / ``bfs.level`` spans (see
        ``docs/observability.md``).  Defaults to the disabled
        :data:`~repro.obs.NULL` session.
    """

    #: NVM store behind the external shards of a configuration (none here).
    store = None

    def __init__(
        self,
        forward: ForwardGraph,
        backward: BackwardGraph,
        policy: DirectionPolicy,
        cost_model: DramCostModel | None = None,
        clock: SimulatedClock | None = None,
        n_workers: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        if forward.n_vertices != backward.n_vertices:
            raise ConfigurationError(
                "forward/backward graphs disagree on vertex count"
            )
        if forward.topology != backward.topology:
            raise ConfigurationError("forward/backward graphs disagree on topology")
        self.forward = forward
        self.backward = backward
        self._configure(
            forward.topology,
            # Global degrees drive Beamer-style policies and the TEPS
            # numerator.
            backward.global_degrees(),
            policy,
            top_down_shards=list(forward.shards),
            scanners=[InMemoryScanner(s) for s in backward.shards],
            cost_model=cost_model,
            clock=clock,
            obs=obs,
            n_workers=n_workers,
        )

    def _configure(
        self,
        topology: NumaTopology,
        degrees: np.ndarray,
        policy: DirectionPolicy,
        *,
        top_down_shards: list,
        scanners: list[BottomUpScanner],
        cost_model: DramCostModel | None,
        clock: SimulatedClock | None,
        obs: Observability | None,
        n_workers: int | None = None,
    ) -> None:
        """Set what the level loop reads; every configuration calls this."""
        self.topology = topology
        self.policy = policy
        self.cost_model = cost_model
        self.clock = clock if clock is not None else SimulatedClock()
        self.obs = obs if obs is not None else NULL
        self.obs.bind_clock(self.clock)
        self.n_vertices = int(degrees.size)
        self._degrees = degrees
        self._total_directed = int(degrees.sum())
        self._top_down_shards = top_down_shards
        self._scanners = scanners
        self.executor = (
            ShardExecutor(n_workers) if n_workers is not None else None
        )

    # -- store readings and degraded-mode hooks (the semi-external engine
    #    overrides the latter) ---------------------------------------------------

    def _device_health(self) -> float:
        """Health of the device behind top-down reads (1.0 = no device)."""
        if self.store is None:
            return 1.0
        return self.store.health.health_score()

    def _effective_direction(self, direction: Direction) -> Direction:
        """Final say on a level's direction (degraded-mode override)."""
        return direction

    def _active_scanners(self) -> list[BottomUpScanner]:
        """Scanners the bottom-up step should use right now."""
        return self._scanners

    def _enter_degraded(self) -> bool:
        """React to a mid-level device failure.

        Returns ``True`` when the engine can continue in degraded mode
        (bottom-up only, in-DRAM backward graph); the base engine has no
        such fallback, so a device failure reaching it is re-raised.
        """
        return False

    @property
    def degraded_mode(self) -> bool:
        """Whether the engine has abandoned the device for this lifetime."""
        return False

    def _io_counters(self) -> tuple[int, int, float]:
        """(requests, bytes, busy seconds) the store has issued so far."""
        if self.store is None:
            return 0, 0, 0.0
        st = self.store.iostats
        return st.n_requests, st.total_bytes, st.busy_time_s

    def _step(
        self, direction: Direction, state: BFSState, think_time_s: float
    ) -> tuple:
        """Expand one level in ``direction``: (next queue, dram, nvm)."""
        if direction is Direction.TOP_DOWN:
            return top_down_step(
                self._top_down_shards,
                state,
                think_time_s,
                executor=self.executor,
                obs=self.obs,
            )
        return bottom_up_step(
            self._active_scanners(),
            state,
            executor=self.executor,
            obs=self.obs,
        )

    # -- the level loop ------------------------------------------------------------

    def run(
        self,
        root: int,
        max_levels: int | None = None,
        checkpointer=None,
    ) -> BFSResult:
        """Run one BFS from ``root`` and return its result.

        ``max_levels`` is a safety valve for tests; a valid input graph
        never needs it (the frontier empties by itself).  ``checkpointer``
        is an optional callable invoked at every level boundary as
        ``checkpointer(state, cursor)`` with the
        :class:`~repro.bfs.state.BFSState` and the advanced
        :class:`~repro.bfs.loop.LevelCursor` — the recovery layer's hook
        for persisting an epoch (and for seeded crash injection, which
        raises :class:`~repro.errors.ProcessCrashError` through this loop).
        """
        state = BFSState(self.n_vertices, self.topology, root)
        return self.resume(
            state,
            LevelCursor.start(self._degrees, root),
            max_levels=max_levels,
            checkpointer=checkpointer,
        )

    def resume(
        self,
        state: BFSState,
        cursor: LevelCursor,
        max_levels: int | None = None,
        checkpointer=None,
    ) -> BFSResult:
        """Run the level loop from ``state`` and ``cursor`` to the end.

        :meth:`run` enters here with a fresh state; the recovery layer
        enters with state restored from a checkpoint (see
        :mod:`repro.recovery`).  The direction policy is stateless
        between levels, so the continued traversal is bit-identical to
        one that never stopped.  The returned result's traces and times
        cover the levels run here only; the parent array is the full
        tree.  ``cursor`` is advanced in place.
        """
        self.policy.reset()
        root = state.root
        traces: list[LevelTrace] = []
        total_wall = Timer()
        modeled_start = self.clock.now()
        obs = self.obs
        obs.counter(M_BFS_RUNS, engine=type(self).__name__).inc()
        level_bounds: list[tuple[float, float]] = []
        think = request_think_time_s(self.cost_model, self.store)
        while state.frontier_size > 0:
            if max_levels is not None and cursor.level >= max_levels:
                break
            frontier_size = state.frontier_size
            direction = self._effective_direction(
                self.policy.decide(
                    cursor.policy_inputs(
                        state,
                        self._degrees,
                        self._total_directed,
                        self._device_health(),
                    )
                )
            )
            was_degraded = self.degraded_mode
            io_req0, io_bytes0, io_busy0 = self._io_counters()
            t_level0 = self.clock.now()
            wall = Timer()
            with total_wall, wall:
                try:
                    next_queue, scanned_dram, scanned_nvm = self._step(
                        direction, state, think
                    )
                except DeviceFailedError:
                    # The device died (or its breaker opened) mid-level.
                    # No discovery was committed before the raise, so the
                    # level re-runs bottom-up on the in-DRAM backward
                    # graph; the attempts already paid are on the clock.
                    if not self._enter_degraded():
                        raise
                    direction = Direction.BOTTOM_UP
                    next_queue, scanned_dram, scanned_nvm = self._step(
                        direction, state, think
                    )
            next_size = int(next_queue.size)
            if self.cost_model is not None:
                # NVM-resident probes are already paid for (device service
                # plus think time; page-cache hits through the store's
                # cache_hit_time_per_byte): charge the DRAM-resident probes
                # and the queue bookkeeping only.
                self.clock.advance(
                    self.cost_model.level_time_s(
                        edges_scanned=scanned_dram,
                        frontier_size=frontier_size,
                        next_size=next_size,
                    )
                )
            io_req1, io_bytes1, io_busy1 = self._io_counters()
            t_level1 = self.clock.now()
            level_bounds.append((t_level0, t_level1))
            trace = LevelTrace(
                level=cursor.level,
                direction=direction,
                frontier_size=frontier_size,
                next_size=next_size,
                edges_scanned=scanned_dram + scanned_nvm,
                wall_time_s=wall.elapsed,
                modeled_time_s=t_level1 - t_level0,
                edges_scanned_nvm=scanned_nvm,
                nvm_requests=io_req1 - io_req0,
                nvm_bytes=io_bytes1 - io_bytes0,
                nvm_time_s=io_busy1 - io_busy0,
                degraded=was_degraded or self.degraded_mode,
            )
            traces.append(trace)
            record_level(obs, trace)
            obs.track("bfs.frontier_vertices", frontier_size)
            cursor.advance(
                direction, frontier_size, self._degrees[next_queue].sum()
            )
            state.promote_next(next_queue)
            if checkpointer is not None:
                checkpointer(state, cursor)
        traversed = int(self._degrees[state.parent >= 0].sum()) // 2
        obs.counter(M_BFS_TRAVERSED).inc(traversed)
        record_run_spans(
            obs,
            type(self).__name__,
            root,
            modeled_start,
            self.clock.now(),
            traces,
            level_bounds,
        )
        return BFSResult(
            parent=state.parent,
            root=root,
            traces=tuple(traces),
            traversed_edges=traversed,
            wall_time_s=total_wall.elapsed,
            modeled_time_s=self.clock.now() - modeled_start,
        )

    def close(self) -> None:
        """Release the shard thread pool, if any (idempotent)."""
        if self.executor is not None:
            self.executor.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n_vertices}, "
            f"policy={self.policy!r})"
        )
