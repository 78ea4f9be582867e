"""Resumable traversal wrappers: checkpoint, crash, reload, re-enter.

:class:`RecoverableBFS` wraps any single-query engine —
:class:`~repro.bfs.hybrid.HybridBFS`,
:class:`~repro.bfs.semi_external.SemiExternalBFS` or
:class:`~repro.bfs.fully_external.FullyExternalBFS` — with a
level-boundary checkpointer and the seeded process-crash injection of
the store's :class:`~repro.semiext.faults.FaultPlan`.  The recovered
tree is **bit-identical** to an uninterrupted run: the engines are
deterministic and their one level loop carries exactly the state a
checkpoint records (parent/visited/frontier plus the
:class:`~repro.bfs.loop.LevelCursor` — the α/β policy itself is
stateless between levels), so re-entering at the saved level replays the
remaining levels exactly.

The wrapper resumes on the *same* store (an in-process model of a
process restart against the surviving NVM contents).  The simulated
clock is monotonic, so resume never rewinds it; resuming on a fresh
clock first advances to the checkpoint's recorded offset, then charges
the restore read.
"""

from __future__ import annotations

from repro.bfs.loop import LevelCursor
from repro.bfs.metrics import BFSResult
from repro.bfs.state import BFSState
from repro.errors import ConfigurationError, ProcessCrashError, StorageError
from repro.obs.schema import M_REC_CRASHES, M_REC_RESTORES, M_REC_TORN_EPOCHS
from repro.recovery.checkpoint import (
    CheckpointManager,
    QuerySnapshot,
    RestoredRun,
    load_run,
)
from repro.semiext.storage import NVMStore

__all__ = ["RecoverableBFS"]


class RecoverableBFS:
    """Crash-consistent wrapper around one BFS engine.

    Parameters
    ----------
    engine:
        The engine to run: any configuration of the
        :class:`~repro.bfs.hybrid.HybridBFS` level loop.  Resume rebuilds
        its :class:`~repro.bfs.state.BFSState` and
        :class:`~repro.bfs.loop.LevelCursor` from the newest valid epoch
        and re-enters :meth:`~repro.bfs.hybrid.HybridBFS.resume`.
    store:
        Store holding the checkpoints (and whose fault plan supplies the
        crash injection); defaults to ``engine.store``.
    run_id:
        Checkpoint namespace under ``<store root>/checkpoints/``.
    checkpoint_every:
        Epoch cadence in levels (see
        :class:`~repro.recovery.checkpoint.CheckpointManager`).
    """

    def __init__(
        self,
        engine,
        store: NVMStore | None = None,
        run_id: str = "bfs",
        checkpoint_every: int = 2,
        obs=None,
    ) -> None:
        store = store if store is not None else getattr(engine, "store", None)
        if store is None:
            raise ConfigurationError(
                "RecoverableBFS needs a store for checkpoints (the engine "
                "has none; pass store=...)"
            )
        self.engine = engine
        self.store = store
        self.obs = obs if obs is not None else store.obs
        self.manager = CheckpointManager(
            store, run_id=run_id, every=checkpoint_every, obs=self.obs
        )
        self._last_root: int | None = None

    # -- the level-boundary hook ----------------------------------------------

    def _checkpointer(self, state, cursor: LevelCursor) -> None:
        mgr = self.manager
        level = cursor.level
        if state.frontier_size > 0 and level % mgr.every == 0:
            mgr.save([QuerySnapshot.at("", state, cursor)])
        injector = self.store.injector
        now = self.store.clock.now()
        if injector is not None and injector.crash_due(now, level - 1):
            if injector.plan.crash_torn:
                mgr.corrupt_last()
            self.obs.counter(M_REC_CRASHES).inc()
            self.obs.event("recovery.crash", level=level - 1, t=now)
            raise ProcessCrashError(
                f"injected process crash after level {level - 1} "
                f"at t={now:.6f}s",
                crashed_at_s=now,
                level=level - 1,
            )

    # -- run / resume ----------------------------------------------------------

    def run(self, root: int, max_levels: int | None = None) -> BFSResult:
        """Run from scratch, checkpointing at the configured cadence.

        Raises :class:`~repro.errors.ProcessCrashError` when the store's
        fault plan schedules a crash; the checkpoints written so far
        survive for :meth:`resume`.
        """
        self._last_root = int(root)
        return self.engine.run(
            root, max_levels=max_levels, checkpointer=self._checkpointer
        )

    def resume(self, max_levels: int | None = None) -> BFSResult:
        """Reload the newest valid checkpoint and re-enter the traversal.

        Torn epochs (CRC failure — e.g. a crash mid-checkpoint) are
        skipped by falling back to the previous epoch.  When no epoch
        survives at all, the traversal restarts from scratch (the
        engines are deterministic, so the result is still bit-identical
        to an uninterrupted run).  The returned result's parent array is
        the full tree; its traces cover the resumed levels only.
        """
        with self.obs.span("recovery.restore", run_id=self.manager.run_id):
            restored = load_run(self.manager.dir)
            self.obs.counter(M_REC_RESTORES).inc()
            if restored.n_torn:
                self.obs.counter(M_REC_TORN_EPOCHS).inc(restored.n_torn)
            if restored.epoch < 0:
                if self._last_root is None:
                    raise StorageError(
                        f"no valid checkpoint under {self.manager.dir} and "
                        f"no previous run to restart"
                    )
                return self.run(self._last_root, max_levels=max_levels)
            self._prepare_clock(restored)
            self.manager.adopt(restored)
            query = restored.queries[0]
        engine = self.engine
        state = BFSState.restore(
            engine.n_vertices,
            engine.topology,
            query.root,
            query.parent,
            query.frontier_queue,
        )
        return engine.resume(
            state,
            LevelCursor.restore(query),
            max_levels=max_levels,
            checkpointer=self._checkpointer,
        )

    def _prepare_clock(self, restored: RestoredRun) -> None:
        """Catch the clock up to the checkpoint and charge the restore.

        On an in-process resume the shared clock already sits past the
        checkpoint offset (monotonic — never rewound); a fresh-process
        resume advances to it first.  Reading the epoch chain back is
        then charged as one sequential stream.
        """
        clock = self.store.clock
        if clock.now() < restored.clock_s:
            clock.advance(restored.clock_s - clock.now())
        self.store.charge_write(
            restored.nbytes, file_key=f"ckpt:{self.manager.run_id}"
        )

    def run_with_recovery(
        self,
        root: int,
        max_levels: int | None = None,
        max_restarts: int = 4,
    ) -> BFSResult:
        """Run; on an injected crash, resume (up to ``max_restarts``)."""
        try:
            return self.run(root, max_levels=max_levels)
        except ProcessCrashError:
            restarts = 0
            while True:
                restarts += 1
                try:
                    return self.resume(max_levels=max_levels)
                except ProcessCrashError:
                    if restarts >= max_restarts:
                        raise

    def __repr__(self) -> str:
        return (
            f"RecoverableBFS({type(self.engine).__name__}, "
            f"run_id={self.manager.run_id!r})"
        )
