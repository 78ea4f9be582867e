"""Concurrency stress: the storage meters under real thread pressure."""

import threading

import numpy as np
import pytest

from repro.semiext import NVMStore, PCIE_FLASH


class TestChargeLock:
    def test_concurrent_charges_conserve_totals(self, tmp_path):
        """N threads hammering charge() must lose no bytes/requests."""
        store = NVMStore(tmp_path / "s", PCIE_FLASH)
        per_thread_extents = 40
        n_threads = 8
        offsets = np.arange(per_thread_extents, dtype=np.int64) * 8192
        lengths = np.full(per_thread_extents, 4096, dtype=np.int64)
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []

        def worker():
            try:
                barrier.wait()
                for _ in range(25):
                    store.charge(offsets, lengths, file_key="stress")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected_batches = n_threads * 25
        assert len(store.iostats.samples) == expected_batches
        assert store.iostats.n_requests == expected_batches * per_thread_extents
        assert (
            store.iostats.total_bytes
            == expected_batches * per_thread_extents * 4096
        )

    def test_concurrent_charges_with_page_cache(self, tmp_path):
        """The fill-once cache stays consistent under contention."""
        store = NVMStore(
            tmp_path / "c", PCIE_FLASH, page_cache_bytes=1 << 20
        )
        offsets = np.arange(64, dtype=np.int64) * 4096
        lengths = np.full(64, 4096, dtype=np.int64)
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            for _ in range(10):
                store.charge(offsets, lengths, file_key="shared")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 64 pages fit the 256-page cache: exactly one cold pass of
        # misses (whoever got there first), everything else hits.
        assert store.cache_miss_bytes == 64 * 4096
        assert store.cache_hit_bytes == (4 * 10 - 1) * 64 * 4096

    def test_clock_monotone_under_contention(self, tmp_path):
        store = NVMStore(tmp_path / "m", PCIE_FLASH)
        offsets = np.array([0], dtype=np.int64)
        lengths = np.array([4096], dtype=np.int64)
        observed: list[float] = []
        lock = threading.Lock()

        def worker():
            for _ in range(50):
                store.charge(offsets, lengths)
                with lock:
                    observed.append(store.clock.now())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Each observation is positive; the final clock equals busy time.
        assert min(observed) > 0
        assert store.clock.now() == pytest.approx(store.iostats.busy_time_s)


class TestSharedFrontierMap:
    def test_bottom_up_shards_under_thread_pressure(self, forward, backward, csr):
        """Shard scans share one read-only frontier byte map per level;
        more threads than cores with a tiny switch interval must still
        reproduce the sequential trees and per-level probe counts."""
        import sys

        from repro.bfs import AlphaBetaPolicy, HybridBFS

        roots = np.flatnonzero(csr.degrees() > 0)[:6]
        seq = HybridBFS(forward, backward, AlphaBetaPolicy(50, 500))
        par = HybridBFS(forward, backward, AlphaBetaPolicy(50, 500), n_workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for root in roots:
                want, got = seq.run(int(root)), par.run(int(root))
                assert np.array_equal(got.parent, want.parent)
                assert [t.edges_scanned for t in got.traces] == [
                    t.edges_scanned for t in want.traces
                ]
        finally:
            sys.setswitchinterval(interval)
            par.close()
