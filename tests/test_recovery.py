"""Crash-recovery subsystem: checkpoint format, crash injection, resume.

The acceptance bar for the subsystem is bit-identity: a traversal that
crashes mid-run and resumes from its newest valid checkpoint must produce
the *same parent array, byte for byte*, as an uninterrupted run.  These
tests pin that for every external engine, plus the checkpoint file format
(CRC framing, delta chain, torn-epoch fallback), the clock accounting of
durability writes, and the stale-read guards around recovery.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bfs import (
    AlphaBetaPolicy,
    Direction,
    FullyExternalBFS,
    HybridBFS,
    SemiExternalBFS,
)
from repro.bfs.loop import LevelCursor
from repro.bfs.state import BFSState
from repro.errors import (
    ConfigurationError,
    ProcessCrashError,
    StorageError,
    TruncatedFileError,
)
from repro.graph500.validate import validate_bfs_tree
from repro.recovery import (
    CheckpointManager,
    QuerySnapshot,
    RecoverableBFS,
    load_run,
)
from repro.semiext import NVMStore, PCIE_FLASH
from repro.semiext.clock import SimulatedClock
from repro.semiext.faults import FaultPlan
from repro.serve.results import ResultCache


def _snap(key="", root=0, level=1, parent=None, frontier=None, n=16):
    if parent is None:
        parent = np.full(n, -1, dtype=np.int64)
        parent[root] = root
    if frontier is None:
        frontier = np.array([root], dtype=np.int64)
    return QuerySnapshot(
        key=key, root=root, level=level, direction="top_down",
        prev_frontier=1, visited_deg_sum=0,
        parent=parent, frontier_queue=frontier,
    )


class TestCheckpointFormat:
    def test_save_load_round_trip(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        parent = np.full(16, -1, dtype=np.int64)
        parent[3] = 3
        parent[5] = 3
        frontier = np.array([5], dtype=np.int64)
        mgr.save([_snap(root=3, parent=parent, frontier=frontier)])
        run = load_run(mgr.dir)
        assert run.epoch == 0
        assert run.n_torn == 0
        [q] = run.queries
        assert q.root == 3 and q.level == 1
        assert np.array_equal(q.parent, parent)
        assert np.array_equal(q.frontier_queue, frontier)

    def test_delta_chain_reassembles_across_epochs(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        parent = np.full(16, -1, dtype=np.int64)
        parent[0] = 0
        mgr.save([_snap(parent=parent.copy())])
        parent[[1, 2]] = 0  # second epoch stores only the new vertices
        mgr.save([_snap(level=2, parent=parent.copy())])
        run = load_run(mgr.dir)
        assert run.epoch == 1
        assert np.array_equal(run.queries[0].parent, parent)

    def test_torn_epoch_falls_back_to_previous(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        parent = np.full(16, -1, dtype=np.int64)
        parent[0] = 0
        mgr.save([_snap(parent=parent.copy())])
        later = parent.copy()
        later[1] = 0
        mgr.save([_snap(level=2, parent=later)])
        mgr.corrupt_last()
        run = load_run(mgr.dir)
        assert run.epoch == 0
        assert run.n_torn == 1
        assert np.array_equal(run.queries[0].parent, parent)

    def test_fully_torn_chain_restores_nothing(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        mgr.save([_snap()])
        mgr.corrupt_last()
        run = load_run(mgr.dir)
        assert run.epoch == -1 and run.n_torn == 1
        assert run.queries == []

    def test_missing_directory_restores_nothing(self, tmp_path):
        run = load_run(tmp_path / "nothing-here")
        assert run.epoch == -1 and run.n_epochs_seen == 0

    def test_epoch_gap_ends_the_valid_prefix(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        mgr.save([_snap()])
        mgr.save([_snap(level=2)])
        mgr.save([_snap(level=3)])
        mgr.epoch_path(1).unlink()  # 0, _, 2: only epoch 0 is trustworthy
        run = load_run(mgr.dir)
        assert run.epoch == 0

    def test_bit_flip_is_rejected_by_crc(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        path = mgr.save([_snap()])
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert load_run(mgr.dir).epoch == -1

    def test_adopt_continues_the_chain_with_deltas(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        parent = np.full(16, -1, dtype=np.int64)
        parent[0] = 0
        mgr.save([_snap(parent=parent.copy())])
        restored = load_run(mgr.dir)
        fresh = CheckpointManager(store, run_id="t", every=1)
        fresh.adopt(restored)
        assert fresh.next_epoch == 1
        parent[1] = 0
        path = fresh.save([_snap(level=2, parent=parent.copy())])
        # Only the one new vertex is written: the adopted baseline keeps
        # the delta chain small, and the full reload still agrees.
        assert path.stat().st_size < mgr.epoch_path(0).stat().st_size + 64
        assert np.array_equal(load_run(fresh.dir).queries[0].parent, parent)

    def test_adopt_removes_epochs_past_the_valid_prefix(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        mgr.save([_snap()])
        mgr.save([_snap(level=2)])
        mgr.corrupt_last()
        restored = load_run(mgr.dir)
        assert restored.epoch == 0
        mgr.adopt(restored)
        assert not mgr.epoch_path(1).exists()
        assert mgr.next_epoch == 1

    def test_level_cursor_round_trips(self, store, topology):
        mgr = CheckpointManager(store, run_id="t", every=1)
        state = BFSState(16, topology, root=3)
        state.discover(np.array([5, 9], dtype=np.int64),
                       np.array([3, 3], dtype=np.int64))
        state.promote_next(np.array([5, 9], dtype=np.int64))
        cursor = LevelCursor(level=1, direction=Direction.BOTTOM_UP,
                             prev_frontier=1, visited_deg_sum=1234567)
        mgr.save([QuerySnapshot.at("", state, cursor)])
        [q] = load_run(mgr.dir).queries
        assert LevelCursor.restore(q) == cursor
        assert np.array_equal(q.parent, state.parent)
        assert np.array_equal(q.frontier_queue, state.frontier_queue)

    def test_cadence_and_run_id_validation(self, store):
        with pytest.raises(ConfigurationError, match="cadence"):
            CheckpointManager(store, every=0)
        with pytest.raises(ConfigurationError, match="run id"):
            CheckpointManager(store, run_id="a/b")
        with pytest.raises(ConfigurationError, match="zero queries"):
            CheckpointManager(store).save([])

    def test_save_charges_the_simulated_clock(self, store):
        mgr = CheckpointManager(store, run_id="t", every=1)
        before = store.clock.now()
        reads_before = store.iostats.total_bytes
        mgr.save([_snap(n=4096)])
        assert store.clock.now() > before
        # charge_write costs time but never pollutes the read meters the
        # paper's figures (and the perf scenarios) are built on.
        assert store.iostats.total_bytes == reads_before
        assert mgr.bytes_written > 0 and mgr.n_checkpoints == 1


class TestChargeWrite:
    def test_zero_bytes_is_free(self, store):
        assert store.charge_write(0) == 0.0

    def test_negative_bytes_rejected(self, store):
        with pytest.raises(StorageError, match="negative"):
            store.charge_write(-1)

    def test_elapsed_scales_with_size(self, store):
        small = store.charge_write(4096)
        large = store.charge_write(1 << 22)
        assert large > small > 0.0


def _semi_external(store, forward, backward):
    return SemiExternalBFS.offload(
        forward=forward,
        backward=backward,
        policy=AlphaBetaPolicy(alpha=50, beta=500),
        store=store,
    )


class TestCrashResumeBitIdentity:
    """The acceptance property, per engine and per crash flavour."""

    @pytest.mark.parametrize("torn", [False, True])
    def test_semi_external_resumed_tree_is_byte_identical(
        self, tmp_path, forward, backward, edges, a_root, torn
    ):
        clean_store = NVMStore(tmp_path / "clean", PCIE_FLASH)
        clean = _semi_external(clean_store, forward, backward).run(a_root)

        plan = FaultPlan(seed=5, crash_at_level=2, crash_torn=torn)
        store = NVMStore(tmp_path / "crash", PCIE_FLASH, fault_plan=plan)
        rec = RecoverableBFS(
            _semi_external(store, forward, backward), checkpoint_every=1
        )
        with pytest.raises(ProcessCrashError):
            rec.run(a_root)
        resumed = rec.resume()
        assert resumed.parent.tobytes() == clean.parent.tobytes()
        assert validate_bfs_tree(edges, resumed.parent, a_root).ok

    def test_fully_external_resumed_tree_is_byte_identical(
        self, tmp_path, csr, a_root
    ):
        clean_store = NVMStore(tmp_path / "clean", PCIE_FLASH)
        clean = FullyExternalBFS.offload(csr, clean_store).run(a_root)

        plan = FaultPlan(seed=7, crash_at_level=1)
        store = NVMStore(tmp_path / "crash", PCIE_FLASH, fault_plan=plan)
        rec = RecoverableBFS(
            FullyExternalBFS.offload(csr, store), checkpoint_every=1
        )
        with pytest.raises(ProcessCrashError):
            rec.run(a_root)
        assert rec.resume().parent.tobytes() == clean.parent.tobytes()

    def test_hybrid_with_external_store_for_checkpoints(
        self, tmp_path, forward, backward, a_root
    ):
        clean = HybridBFS(
            forward, backward, AlphaBetaPolicy(50, 500)
        ).run(a_root)
        plan = FaultPlan(seed=3, crash_at_level=2)
        store = NVMStore(tmp_path / "ckpt", PCIE_FLASH, fault_plan=plan)
        rec = RecoverableBFS(
            HybridBFS(forward, backward, AlphaBetaPolicy(50, 500)),
            store=store,
            checkpoint_every=1,
        )
        with pytest.raises(ProcessCrashError):
            rec.run(a_root)
        assert np.array_equal(rec.resume().parent, clean.parent)

    def test_crash_before_first_checkpoint_restarts_from_scratch(
        self, tmp_path, forward, backward, a_root
    ):
        clean_store = NVMStore(tmp_path / "clean", PCIE_FLASH)
        clean = _semi_external(clean_store, forward, backward).run(a_root)
        # Cadence 4 with a crash after level 0: nothing persisted yet.
        plan = FaultPlan(seed=11, crash_at_level=0)
        store = NVMStore(tmp_path / "crash", PCIE_FLASH, fault_plan=plan)
        rec = RecoverableBFS(
            _semi_external(store, forward, backward), checkpoint_every=4
        )
        with pytest.raises(ProcessCrashError):
            rec.run(a_root)
        assert np.array_equal(rec.resume().parent, clean.parent)

    def test_run_with_recovery_is_one_call(
        self, tmp_path, forward, backward, a_root
    ):
        clean_store = NVMStore(tmp_path / "clean", PCIE_FLASH)
        clean = _semi_external(clean_store, forward, backward).run(a_root)
        plan = FaultPlan(seed=5, crash_at_level=2, crash_torn=True)
        store = NVMStore(tmp_path / "crash", PCIE_FLASH, fault_plan=plan)
        rec = RecoverableBFS(
            _semi_external(store, forward, backward), checkpoint_every=1
        )
        res = rec.run_with_recovery(a_root)
        assert np.array_equal(res.parent, clean.parent)

    def test_resume_without_any_run_raises(self, store, forward, backward):
        rec = RecoverableBFS(_semi_external(store, forward, backward))
        with pytest.raises(StorageError, match="no valid checkpoint"):
            rec.resume()

    def test_engine_without_store_needs_explicit_one(
        self, forward, backward
    ):
        with pytest.raises(ConfigurationError, match="store"):
            RecoverableBFS(
                HybridBFS(forward, backward, AlphaBetaPolicy(50, 500))
            )

    def test_crash_injection_is_one_shot(self, tmp_path, forward, backward,
                                         a_root):
        plan = FaultPlan(seed=5, crash_at_level=1)
        store = NVMStore(tmp_path / "crash", PCIE_FLASH, fault_plan=plan)
        rec = RecoverableBFS(
            _semi_external(store, forward, backward), checkpoint_every=1
        )
        with pytest.raises(ProcessCrashError):
            rec.run(a_root)
        # The injector disarms after firing (process-restart semantics):
        # the resume must not crash at the same level again.
        assert not store.injector.crash_armed
        rec.resume()


ONE_LOOP_ENGINES = ("hybrid", "semi_external", "fully_external")


def _one_loop_engine(kind, store, forward, backward, csr):
    """A configuration of the one level loop; checkpoints go to ``store``."""
    if kind == "hybrid":
        return HybridBFS(forward, backward, AlphaBetaPolicy(50, 500))
    if kind == "semi_external":
        return _semi_external(store, forward, backward)
    return FullyExternalBFS.offload(csr, store)


def _sans_clock(trace):
    # wall_time_s is real time.  modeled_time_s is a difference of two
    # float readings of a clock that, after the crash, also carries the
    # checkpoint writes and the restore read, so it can differ from the
    # uninterrupted run's in the last bits; it is compared apart, to a
    # relative 1e-9.
    return dataclasses.replace(trace, wall_time_s=0.0, modeled_time_s=0.0)


class TestResumeThroughTheOneLoop:
    """Every configuration of the level loop resumes through the one
    ``RecoverableBFS.resume`` path, whichever level boundary it died at."""

    @pytest.mark.parametrize("kind", ONE_LOOP_ENGINES)
    def test_crash_after_every_level_boundary(
        self, tmp_path, forward, backward, csr, a_root, kind
    ):
        clean_store = NVMStore(tmp_path / "clean", PCIE_FLASH)
        clean = _one_loop_engine(
            kind, clean_store, forward, backward, csr
        ).run(a_root)
        assert clean.n_levels >= 3
        for level in range(clean.n_levels):
            plan = FaultPlan(seed=5, crash_at_level=level)
            store = NVMStore(tmp_path / f"crash{level}", PCIE_FLASH,
                             fault_plan=plan)
            rec = RecoverableBFS(
                _one_loop_engine(kind, store, forward, backward, csr),
                store=store,
                checkpoint_every=1,
            )
            with pytest.raises(ProcessCrashError):
                rec.run(a_root)
            resumed = rec.resume()
            assert resumed.parent.tobytes() == clean.parent.tobytes()
            # The newest epoch is the boundary after the crashed level,
            # except after the last level: its frontier is empty, so no
            # epoch is written and the resume re-runs that level.
            saved = min(level + 1, clean.n_levels - 1)
            suffix = clean.traces[saved:]
            assert resumed.n_levels == len(suffix)
            assert [_sans_clock(t) for t in resumed.traces] == [
                _sans_clock(t) for t in suffix
            ]
            assert [t.modeled_time_s for t in resumed.traces] == (
                pytest.approx([t.modeled_time_s for t in suffix], rel=1e-9)
            )


class TestReopenTruncation:
    """Satellite regression: reopen() types truncation instead of
    surfacing a memmap ValueError later."""

    def _array(self, store):
        return store.put_array(
            "arr", np.arange(1024, dtype=np.int64)
        )

    def test_reopen_after_truncation_is_typed(self, store):
        arr = self._array(store)
        arr.path.write_bytes(arr.path.read_bytes()[:100])
        with pytest.raises(TruncatedFileError, match="100 bytes"):
            arr.reopen()

    def test_reopen_after_deletion_is_typed(self, store):
        arr = self._array(store)
        arr.path.unlink()
        with pytest.raises(TruncatedFileError, match="missing"):
            arr.reopen()

    def test_truncated_error_is_a_storage_error(self):
        assert issubclass(TruncatedFileError, StorageError)

    def test_reopen_intact_file_is_idempotent(self, store):
        arr = self._array(store)
        arr.reopen()
        arr.reopen()
        row = arr.read_rows(
            np.array([17], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        assert int(row[0]) == 17


class TestStaleCacheInvalidation:
    """Satellite: answers cached after a checkpoint must not survive a
    rollback to it."""

    def _cache(self):
        clock = SimulatedClock()
        return ResultCache(capacity=8, clock=clock), clock

    def test_entries_after_checkpoint_are_dropped(self):
        cache, clock = self._cache()
        parent = np.array([0], dtype=np.int64)
        cache.put("g", 1, parent, 10)
        clock.advance(5.0)
        cache.put("g", 2, parent, 10)
        dropped = cache.invalidate_stale("g", as_of_s=1.0)
        assert dropped == 1
        assert cache.evictions_stale == 1
        assert cache.get("g", 1) is not None
        assert cache.get("g", 2) is None

    def test_other_graphs_untouched(self):
        cache, clock = self._cache()
        parent = np.array([0], dtype=np.int64)
        clock.advance(5.0)
        cache.put("g", 1, parent, 10)
        cache.put("h", 1, parent, 10)
        assert cache.invalidate_stale("g", as_of_s=1.0) == 1
        assert cache.get("h", 1) is not None

    def test_entry_at_exactly_the_checkpoint_survives(self):
        cache, clock = self._cache()
        clock.advance(2.0)
        cache.put("g", 1, np.array([0], dtype=np.int64), 10)
        assert cache.invalidate_stale("g", as_of_s=2.0) == 0


class TestCheckpointOverheadScenario:
    def test_write_amplification_within_budget(self, tmp_path):
        from repro.perf.scenarios import get_scenario

        artifact = get_scenario("checkpoint_overhead").run(7, tmp_path)
        amp = artifact.metrics["write_amplification_pct"].value
        assert 0.0 < amp <= 5.0
        assert artifact.metrics["n_epochs"].value >= 1


class TestCrashRecoveryGate:
    """The CI gate tool (tools/crash_recovery_gate.py) end to end."""

    def _gate(self):
        import sys

        sys.path.insert(0, "tools")
        try:
            import crash_recovery_gate
        finally:
            sys.path.pop(0)
        return crash_recovery_gate

    def test_gate_passes_and_writes_no_artifacts(self, tmp_path, capsys):
        gate = self._gate()
        out = tmp_path / "artifacts"
        code = gate.main(["--seed", "7", "--scale", "9", "--out", str(out)])
        assert code == 0
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "graph500 validation: PASS" in printed
        assert "byte-identical to clean run: True" in printed

    def test_crash_point_is_drawn_from_the_seed(self, tmp_path, capsys):
        gate = self._gate()
        crash_lines = set()
        for seed in ("7", "19", "101"):
            assert gate.main(["--seed", seed, "--scale", "9",
                              "--out", str(tmp_path)]) == 0
            first = capsys.readouterr().out.splitlines()[0]
            crash_lines.add(first.split(": ", 1)[1])
        assert len(crash_lines) > 1
