"""File-backed arrays read through a modeled NVM device.

This is the reproduction's "semi-external memory": a :class:`NVMStore`
owns a directory of binary array files (the paper's *array file* and
*value file*, §V-B1) plus one :class:`~repro.semiext.device.DeviceModel`,
one :class:`~repro.semiext.clock.SimulatedClock` and one
:class:`~repro.semiext.iostats.IoStats`.

Every read of an :class:`ExternalArray` does two things:

1. **really reads the bytes** through a read-only ``numpy.memmap`` (so the
   data path, alignment and request boundaries are genuine), and
2. **charges the device model** with the exact request stream a 4 KB-chunked
   ``read(2)`` loop would issue (paper §V-C), advancing the simulated clock
   and feeding the iostat accounting.

The BFS engines therefore need no special cases: an in-DRAM ``ndarray`` and
an ``ExternalArray`` expose the same gather operations, differing only in
what they cost.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    ChecksumError,
    ConfigurationError,
    DeviceFailedError,
    StorageError,
    TransientIOError,
    TruncatedFileError,
)
from repro.semiext.clock import SimulatedClock
from repro.semiext.device import BatchResult, DeviceModel
from repro.semiext.faults import (
    FaultInjector,
    FaultPlan,
    DeviceHealthMonitor,
    ResilienceStats,
    RetryPolicy,
)
from repro.obs.schema import (
    M_CACHE_HIT_BYTES,
    M_CACHE_MISS_BYTES,
    M_CACHE_RESIDENT,
    M_HEALTH_CIRCUIT,
    M_HEALTH_SCORE,
    M_NVM_SYSCALLS,
    M_RES_ATTEMPTS,
    M_RES_BACKOFF_SECONDS,
    M_RES_CHECKSUM,
    M_RES_GC_PAUSES,
    M_RES_GC_SECONDS,
    M_RES_HARD_FAILURES,
    M_RES_REFUSED,
    M_RES_RETRIES,
    M_RES_TIMEOUTS,
    M_RES_TORN,
    M_RES_TRANSIENT,
)
from repro.obs.session import NULL, Observability
from repro.semiext.iostats import IoStats
from repro.util.chunking import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_MAX_MERGED_BYTES,
    merge_extents,
    plan_chunks,
)
from repro.util.gather import concat_ranges, sorted_unique

__all__ = ["NVMStore", "ExternalArray", "DeferredCharge"]


class NVMStore:
    """A directory of array files behind one simulated NVM device.

    Parameters
    ----------
    root:
        Directory for the backing files (created if missing).
    device:
        Performance model charged for every read.
    clock:
        Simulated clock advanced by every read (shared with the BFS cost
        model so device time and CPU time add up on one axis).
    concurrency:
        Number of synchronous reader threads assumed by the queueing model
        (the paper: 48).
    chunk_bytes:
        Maximum ``read(2)`` size (the paper: 4 KB); also the page size of
        the modeled page cache.
    max_request_bytes:
        Largest post-merge device request the modeled block layer emits
        (``iostat`` sees these, not the 4 KB syscalls).
    page_cache_bytes:
        Capacity of the modeled OS page cache (0 = none).  The cache
        fills once and never evicts — adequate for BFS, whose NVM reads
        have little short-term reuse — and is what reproduces the paper's
        Figure 9: when the spare DRAM exceeds the forward graph (their
        SCALE 26 on the 64 GB machines), repeat reads become cache hits
        and DRAM+PCIeFlash performs like DRAM-only.
    io_mode:
        ``"sync"`` (default) models the paper's implementation: one
        outstanding ``read(2)`` per worker thread, throughput capped by
        the closed system.  ``"async"`` models the §VI-D suggestion of
        aggregating small I/O with ``libaio``: the level's whole request
        batch is submitted at device queue depth, CPU think time overlaps
        I/O, and throughput reaches the device's saturation rate.
    fault_plan:
        Optional seeded :class:`~repro.semiext.faults.FaultPlan`; when it
        injects anything, reads go through the resilient path (bounded
        retries, checksum verification, circuit breaker).
    retry:
        Retry/backoff/timeout policy of the resilient path (defaults to
        :class:`~repro.semiext.faults.RetryPolicy`'s defaults).
    verify_checksums:
        Verify per-chunk CRC32 checksums on every device read.  Defaults
        to on when a fault plan is active, off otherwise (the fault-free
        fast path is unchanged).
    health:
        Device health monitor / circuit breaker; a default-configured
        :class:`~repro.semiext.faults.DeviceHealthMonitor` when omitted.
    obs:
        Observability session recording the store's activity: the
        ``nvm.*`` / ``cache.*`` / ``res.*`` / ``health.*`` metrics and
        the ``nvm.charge`` / ``nvm.backoff`` spans documented in
        ``docs/observability.md``.  Defaults to the disabled
        :data:`~repro.obs.NULL` session (zero overhead).
    """

    def __init__(
        self,
        root: str | Path,
        device: DeviceModel,
        clock: SimulatedClock | None = None,
        concurrency: int = 48,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        max_request_bytes: int = DEFAULT_MAX_MERGED_BYTES,
        page_cache_bytes: int = 0,
        io_mode: str = "sync",
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        verify_checksums: bool | None = None,
        health: DeviceHealthMonitor | None = None,
        obs: Observability | None = None,
    ) -> None:
        if io_mode not in ("sync", "async"):
            raise ConfigurationError(
                f"io_mode must be 'sync' or 'async', got {io_mode!r}"
            )
        if concurrency <= 0:
            raise ConfigurationError(f"concurrency must be positive: {concurrency}")
        if chunk_bytes <= 0:
            raise ConfigurationError(f"chunk_bytes must be positive: {chunk_bytes}")
        if max_request_bytes < chunk_bytes:
            raise ConfigurationError(
                f"max_request_bytes ({max_request_bytes}) must be >= "
                f"chunk_bytes ({chunk_bytes})"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.device = device
        self.clock = clock if clock is not None else SimulatedClock()
        self.obs = obs if obs is not None else NULL
        self.obs.bind_clock(self.clock)
        self.iostats = IoStats(
            device_name=device.name,
            obs=self.obs if self.obs.enabled else None,
        )
        if page_cache_bytes < 0:
            raise ConfigurationError(
                f"page_cache_bytes must be >= 0: {page_cache_bytes}"
            )
        self.concurrency = int(concurrency)
        self.chunk_bytes = int(chunk_bytes)
        self.max_request_bytes = int(max_request_bytes)
        self.page_cache_bytes = int(page_cache_bytes)
        self.io_mode = io_mode
        self.n_syscalls = 0
        self.cache_hit_bytes = 0
        self.cache_miss_bytes = 0
        self.cache_hit_time_per_byte = 0.0
        """Seconds charged per page-cache-hit byte (DRAM read cost).

        Zero by default; the semi-external engine sets it from its DRAM
        cost model so cached reads cost memory speed, not nothing.
        """
        self._resident: dict[str, np.ndarray] = {}  # file_key -> page bools
        self._resident_bytes = 0
        self._arrays: dict[str, "ExternalArray"] = {}
        self.fault_plan = fault_plan
        self.injector = (
            FaultInjector(fault_plan)
            if fault_plan is not None and fault_plan.active
            else None
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.verify_checksums = (
            self.injector is not None
            if verify_checksums is None
            else bool(verify_checksums)
        )
        self.health = health if health is not None else DeviceHealthMonitor()
        self.resilience = ResilienceStats()
        self._checksums: dict[str, np.ndarray] = {}  # file_key -> page CRC32s
        # Charging mutates the clock, the iostat meters and the page
        # cache; a lock keeps concurrent shard workers (see
        # repro.bfs.parallel) from corrupting them.
        self._charge_lock = threading.Lock()

    def put_array(self, name: str, array: np.ndarray) -> "ExternalArray":
        """Offload ``array`` to the store; returns its external handle.

        The write itself is not charged to the device model: the paper
        measures BFS-phase I/O only (graph construction I/O is excluded
        from the TEPS timing by the Graph500 rules).
        """
        if "/" in name or name.startswith("."):
            raise StorageError(f"invalid array name: {name!r}")
        if name in self._arrays:
            raise StorageError(f"array {name!r} already exists in store")
        arr = np.ascontiguousarray(array)
        path = self.root / f"{name}.bin"
        arr.tofile(path)
        ext = ExternalArray(self, name, path, arr.dtype, arr.shape)
        self._arrays[name] = ext
        if self.verify_checksums:
            self._checksums[name] = _page_checksums(
                arr.reshape(-1).view(np.uint8), self.chunk_bytes
            )
        return ext

    def get_array(self, name: str) -> "ExternalArray":
        """Look up a previously offloaded array."""
        try:
            return self._arrays[name]
        except KeyError:
            raise StorageError(f"no array named {name!r} in store") from None

    def drop_array(self, name: str) -> None:
        """Remove an array and delete its backing file."""
        ext = self.get_array(name)
        ext.close()
        ext.path.unlink(missing_ok=True)
        del self._arrays[name]
        self._checksums.pop(name, None)

    @property
    def nbytes(self) -> int:
        """Total bytes currently resident on the device."""
        return sum(a.nbytes for a in self._arrays.values())

    def charge(
        self,
        offsets: np.ndarray,
        lengths: np.ndarray,
        think_time_s: float = 0.0,
        file_key: str = "",
    ) -> float:
        """Charge the device for reading the given byte extents.

        Three layers, as on a real kernel: the extents are split into
        ≤``chunk_bytes`` ``read(2)`` calls (counted in :attr:`n_syscalls`),
        widened to pages and deduplicated within the batch, filtered
        against the persistent page cache (``page_cache_bytes``), and the
        remaining misses merged into device requests of
        ≤``max_request_bytes`` (what iostat sees).  The merged stream is
        serviced through the device model, advancing the clock and
        recording iostat data.  Returns the modeled elapsed seconds.

        Thread-safe: concurrent shard workers serialize on an internal
        lock (order-dependent float accumulation aside, totals are
        independent of the interleaving).
        """
        with self._charge_lock:
            return self._charge_locked(offsets, lengths, think_time_s, file_key)

    def _charge_locked(
        self,
        offsets: np.ndarray,
        lengths: np.ndarray,
        think_time_s: float,
        file_key: str,
    ) -> float:
        syscalls = plan_chunks(offsets, lengths, self.chunk_bytes)
        self.n_syscalls += syscalls.n_requests
        obs = self.obs
        obs.counter(M_NVM_SYSCALLS, device=self.device.name).inc(
            syscalls.n_requests
        )
        plan = merge_extents(
            offsets,
            lengths,
            page_bytes=self.chunk_bytes,
            max_request_bytes=self.max_request_bytes,
        )
        if plan.n_requests == 0:
            return 0.0
        if self.page_cache_bytes > 0:
            # Useful-byte density of this batch's pages: hits are charged
            # for the adjacency actually consumed, not the page padding.
            requested = int(np.asarray(lengths, dtype=np.int64).sum())
            density = min(1.0, requested / plan.total_bytes)
            plan = self._filter_cached(plan, file_key, density)
            if plan.n_requests == 0:
                return 0.0
        with obs.span(
            "nvm.charge",
            device=self.device.name,
            file_key=file_key,
            requests=plan.n_requests,
            bytes=plan.total_bytes,
        ):
            return self._service_resilient(plan, think_time_s, file_key)

    def charge_write(self, nbytes: int, file_key: str = "") -> float:
        """Charge the device for a sequential write of ``nbytes``.

        Checkpoint persistence is BFS-phase I/O — unlike graph
        construction (:meth:`put_array`, uncharged by the Graph500
        rules), it must cost simulated time on the same axis as the
        traversal's reads.  The device model only parameterizes reads, so
        a write is modeled as the same sequential stream: one request
        per ``max_request_bytes`` window, each paying the device latency,
        plus the transfer at the device's bandwidth.  The clock advances;
        the read-side iostat meters are untouched (``iostat`` splits
        read/write columns, and the paper's figures read the read side).
        Returns the modeled elapsed seconds.
        """
        if nbytes < 0:
            raise StorageError(f"negative write size: {nbytes}")
        if nbytes == 0:
            return 0.0
        n_requests = -(-int(nbytes) // self.max_request_bytes)
        elapsed = (
            n_requests * self.device.read_latency_s
            + int(nbytes) / self.device.read_bandwidth_bps
        )
        with self._charge_lock:
            self.clock.advance(elapsed)
        return elapsed

    def _service_once(self, plan, think_time_s: float) -> BatchResult:
        """Solve one batch submission through the device model (no side
        effects on clock or iostats)."""
        if self.io_mode == "async":
            # libaio-style aggregation (§VI-D): many small reads are
            # coalesced into scatter-gather submissions of
            # ``max_request_bytes``, queued at device depth with CPU
            # overlapped — turning the IOPS-bound small-request stream
            # into a bandwidth-bound large-request one.
            agg = self.max_request_bytes
            n_sub = max(1, -(-plan.total_bytes // agg))
            x = self.device.saturation_iops(plan.total_bytes / n_sub)
            return BatchResult(
                elapsed_s=n_sub / x,
                mean_queue=float(self.device.channels),
                throughput_iops=x,
            )
        return self.device.submit(
            n_requests=plan.n_requests,
            total_bytes=plan.total_bytes,
            concurrency=self.concurrency,
            think_time_s=think_time_s,
        )

    def _service_resilient(self, plan, think_time_s: float, file_key: str) -> float:
        """Service a merged request batch, absorbing injected faults.

        Each *attempt* charges the device exactly once — full service
        time plus any GC stall enters the clock and the iostat busy/
        request accounting, because the device really did the work before
        erroring.  Backoff waits between attempts advance the clock only
        (the host is waiting; the device is idle).  Raises
        :class:`~repro.errors.DeviceFailedError` when the device is hard-
        failed or the circuit breaker is open,
        :class:`~repro.errors.TransientIOError` /
        :class:`~repro.errors.ChecksumError` when the retry budget is
        exhausted.
        """
        injector = self.injector
        if injector is None and not self.verify_checksums:
            # Fault-free fast path: identical to the pre-resilience store.
            result = self._service_once(plan, think_time_s)
            t0 = self.clock.now()
            self.clock.advance(result.elapsed_s)
            self.iostats.record_batch(
                t_start_s=t0,
                duration_s=result.elapsed_s,
                request_sizes=plan.sizes,
                mean_queue=result.mean_queue,
            )
            return result.elapsed_s

        retry = self.retry
        res = self.resilience
        obs = self.obs
        dev = self.device.name
        t_begin = self.clock.now()
        attempt = 0
        while True:
            now = self.clock.now()
            if self.health.circuit_open:
                res.n_refused_reads += 1
                obs.counter(M_RES_REFUSED, device=dev).inc()
                raise DeviceFailedError(
                    f"device {self.device.name!r}: circuit breaker open "
                    f"at t={now:.6f}s; read of {file_key!r} refused"
                )
            if injector is not None and injector.hard_failed(now):
                res.n_hard_failures += 1
                obs.counter(M_RES_HARD_FAILURES, device=dev).inc()
                self.health.record_hard_failure(now)
                self._record_health(obs, dev)
                raise DeviceFailedError(
                    f"device {self.device.name!r} failed hard at "
                    f"t={now:.6f}s (fail_at_s="
                    f"{injector.plan.fail_at_s}); read of {file_key!r} lost"
                )
            attempt += 1
            res.n_attempts += 1
            obs.counter(M_RES_ATTEMPTS, device=dev).inc()
            outcome = injector.draw() if injector is not None else None
            stall_s = outcome.gc_pause_s if outcome is not None else 0.0
            if stall_s > 0.0:
                res.n_gc_pauses += 1
                res.gc_pause_time_s += stall_s
                obs.counter(M_RES_GC_PAUSES, device=dev).inc()
                obs.counter(M_RES_GC_SECONDS, device=dev).inc(stall_s)
            result = self._service_once(plan, think_time_s)
            attempt_s = result.elapsed_s + stall_s
            # The device is charged once per attempt: GC stall included
            # in busy time, exactly as iostat would observe the stall.
            t0 = self.clock.now()
            self.clock.advance(attempt_s)
            self.iostats.record_batch(
                t_start_s=t0,
                duration_s=attempt_s,
                request_sizes=plan.sizes,
                mean_queue=result.mean_queue,
            )
            error: str | None = None
            if outcome is not None and outcome.transient:
                res.n_transient_errors += 1
                obs.counter(M_RES_TRANSIENT, device=dev).inc()
                error = "transient read error"
            elif retry.timeout_s is not None and attempt_s > retry.timeout_s:
                res.n_timeouts += 1
                obs.counter(M_RES_TIMEOUTS, device=dev).inc()
                error = (
                    f"request timeout ({attempt_s:.6f}s > "
                    f"{retry.timeout_s:.6f}s)"
                )
            elif outcome is not None and outcome.torn:
                res.n_torn_reads += 1
                res.n_checksum_failures += 1
                obs.counter(M_RES_TORN, device=dev).inc()
                obs.counter(M_RES_CHECKSUM, device=dev).inc()
                error = "torn read (checksum mismatch)"
            elif self.verify_checksums and not self._verify_pages(file_key, plan):
                res.n_checksum_failures += 1
                obs.counter(M_RES_CHECKSUM, device=dev).inc()
                error = "persistent checksum mismatch"
            if error is None:
                self.health.record_success(self.clock.now())
                self._record_health(obs, dev)
                return self.clock.now() - t_begin
            self.health.record_error(self.clock.now())
            self._record_health(obs, dev)
            if attempt > retry.max_retries:
                message = (
                    f"read of {file_key!r} on {self.device.name!r} failed "
                    f"after {attempt} attempts: {error}"
                )
                if error == "persistent checksum mismatch":
                    # Every attempt re-read the same bad bytes: the
                    # backing file is corrupt, not the transfer.
                    raise ChecksumError(message)
                raise TransientIOError(message)
            wait = retry.backoff_s(attempt)
            with obs.span(
                "nvm.backoff", device=dev, attempt=attempt, wait_s=wait
            ):
                self.clock.advance(wait)
            res.n_retries += 1
            res.backoff_time_s += wait
            obs.counter(M_RES_RETRIES, device=dev).inc()
            obs.counter(M_RES_BACKOFF_SECONDS, device=dev).inc(wait)

    def _record_health(self, obs: Observability, dev: str) -> None:
        """Mirror the health monitor's state into the registry gauges."""
        obs.gauge(M_HEALTH_SCORE, device=dev).set(self.health.health_score())
        obs.gauge(M_HEALTH_CIRCUIT, device=dev).set(
            1.0 if self.health.circuit_open else 0.0
        )

    def _verify_pages(self, file_key: str, plan) -> bool:
        """Recompute CRC32s of the pages a device batch touched.

        Returns ``True`` when every touched page matches the checksum
        recorded at :meth:`put_array` time (or when no checksums exist
        for this key — raw ``charge`` calls and trace replays have no
        backing data to verify).
        """
        sums = self._checksums.get(file_key)
        if sums is None or sums.size == 0:
            return True
        array = self._arrays.get(file_key)
        if array is None or array._mm is None or array.size == 0:
            return True
        data = array._memmap().reshape(-1).view(np.uint8)
        pb = self.chunk_bytes
        first = plan.offsets // pb
        count = (plan.offsets + plan.sizes + pb - 1) // pb - first
        pages = sorted_unique(concat_ranges(first, count))
        pages = pages[pages < sums.size]
        for p in pages:
            lo = int(p) * pb
            hi = min(lo + pb, data.size)
            if zlib.crc32(data[lo:hi].tobytes()) != int(sums[p]):
                return False
        return True

    def checksum_array(self, name: str) -> np.ndarray:
        """(Re)compute and install the per-chunk checksums of an array.

        Returns the CRC32 array (one ``uint32`` per ``chunk_bytes``
        page).  Called automatically by :meth:`put_array` when
        ``verify_checksums`` is on; call it directly to protect arrays
        offloaded before verification was enabled.
        """
        ext = self.get_array(name)
        data = ext.to_ndarray().reshape(-1).view(np.uint8)
        sums = _page_checksums(data, self.chunk_bytes)
        self._checksums[name] = sums
        return sums

    def _filter_cached(self, plan, file_key: str, density: float = 1.0):
        """Split the page-aligned request stream against the page cache.

        Pages already resident cost DRAM time for their useful bytes
        (``density`` × page, at ``cache_hit_time_per_byte``); missing
        pages are charged to the device and — while capacity remains —
        inserted (fill-once, no eviction).
        """
        pb = self.chunk_bytes
        page_starts = (plan.offsets // pb).astype(np.int64)
        page_counts = (plan.sizes // pb).astype(np.int64)
        pages = concat_ranges(page_starts, page_counts)
        max_page = int(pages.max()) + 1
        resident = self._resident.get(file_key)
        if resident is None or resident.size < max_page:
            grown = np.zeros(max_page, dtype=bool)
            if resident is not None:
                grown[: resident.size] = resident
            self._resident[file_key] = resident = grown
        hit = resident[pages]
        n_hit_bytes = int(hit.sum()) * pb
        self.cache_hit_bytes += n_hit_bytes
        obs = self.obs
        dev = self.device.name
        obs.counter(M_CACHE_HIT_BYTES, device=dev).inc(n_hit_bytes)
        if n_hit_bytes and self.cache_hit_time_per_byte > 0.0:
            # Cached pages are read from DRAM: charge memory-speed time
            # for the useful fraction of the hit pages.
            self.clock.advance(
                n_hit_bytes * density * self.cache_hit_time_per_byte
            )
        misses = pages[~hit]
        n_miss_bytes = int(misses.size) * pb
        self.cache_miss_bytes += n_miss_bytes
        obs.counter(M_CACHE_MISS_BYTES, device=dev).inc(n_miss_bytes)
        if misses.size:
            # Admit misses while capacity remains (fill-once policy).
            room = (self.page_cache_bytes - self._resident_bytes) // pb
            if room > 0:
                admit = misses[: int(room)]
                resident[admit] = True
                self._resident_bytes += int(admit.size) * pb
                obs.event(
                    "cache.fill",
                    device=dev,
                    file_key=file_key,
                    admitted_bytes=int(admit.size) * pb,
                    resident_bytes=self._resident_bytes,
                )
        obs.gauge(M_CACHE_RESIDENT, device=dev).set(self._resident_bytes)
        if misses.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return type(plan)(empty, empty.copy())
        # Re-merge contiguous miss pages into device requests.
        return merge_extents(
            misses * pb,
            np.full(misses.size, pb, dtype=np.int64),
            page_bytes=pb,
            max_request_bytes=self.max_request_bytes,
        )

    @property
    def cache_hit_ratio(self) -> float:
        """Byte-weighted page-cache hit ratio since construction."""
        total = self.cache_hit_bytes + self.cache_miss_bytes
        if total == 0:
            return 0.0
        return self.cache_hit_bytes / total

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def reset_faults(self) -> None:
        """Reset injector draws, health history and resilience counters.

        The fault *plan* stays attached; use this between experiment
        repetitions that must observe the identical fault sequence.
        """
        if self.fault_plan is not None and self.fault_plan.active:
            self.injector = FaultInjector(self.fault_plan)
        self.health.reset()
        self.resilience = ResilienceStats()

    def __repr__(self) -> str:
        return (
            f"NVMStore(root={str(self.root)!r}, device={self.device.name!r}, "
            f"arrays={len(self._arrays)}, nbytes={self.nbytes})"
        )


def _page_checksums(data: np.ndarray, page_bytes: int) -> np.ndarray:
    """CRC32 per ``page_bytes`` page of a flat ``uint8`` array."""
    n_pages = -(-data.size // page_bytes) if data.size else 0
    sums = np.empty(n_pages, dtype=np.uint32)
    for p in range(n_pages):
        lo = p * page_bytes
        hi = min(lo + page_bytes, data.size)
        sums[p] = zlib.crc32(data[lo:hi].tobytes())
    return sums


@dataclass(frozen=True)
class DeferredCharge:
    """A read's device charge, detached from its data transfer.

    Parallel shard workers read through the memmap concurrently (safe)
    but must not meter the device concurrently if deterministic clock
    totals are wanted; the deferred form lets the engine *apply* all
    charges serially in shard order during its commit phase.
    """

    array: "ExternalArray"
    offsets: np.ndarray
    lengths: np.ndarray

    def apply(self, think_time_s: float = 0.0) -> float:
        """Meter the device now; returns modeled elapsed seconds."""
        return self.array.store.charge(
            self.offsets,
            self.lengths,
            think_time_s,
            file_key=self.array.name,
        )


class ExternalArray:
    """A 1-D (or flattenable) array resident on simulated NVM.

    Reads go through a read-only memmap; every read API charges the owning
    store's device model.  Handles are created by
    :meth:`NVMStore.put_array`, never directly.
    """

    def __init__(
        self,
        store: NVMStore,
        name: str,
        path: Path,
        dtype: np.dtype,
        shape: tuple[int, ...],
    ) -> None:
        if len(shape) != 1:
            raise StorageError(
                f"ExternalArray supports 1-D arrays, got shape {shape}"
            )
        self.store = store
        self.name = name
        self.path = path
        self.dtype = np.dtype(dtype)
        self.shape = shape
        # mmap cannot map an empty file; an empty array needs no backing view.
        self._mm: np.ndarray | None
        if shape[0] == 0:
            self._mm = np.empty(0, dtype=self.dtype)
        else:
            self._mm = np.memmap(path, dtype=self.dtype, mode="r", shape=shape)

    # -- metadata --------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self.shape[0])

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total backing-file size in bytes."""
        return self.size * self.itemsize

    def _memmap(self) -> np.ndarray:
        if self._mm is None:
            raise StorageError(f"array {self.name!r} is closed")
        return self._mm

    def reopen(self) -> None:
        """Validate the backing file and (re)establish the memmap.

        The public recovery path after anything touched the file behind
        the mapping's back: checks the file exists and still holds
        exactly ``nbytes`` before mapping, so truncation surfaces as a
        typed :class:`~repro.errors.TruncatedFileError` instead of a
        later memmap ``ValueError`` (or, worse, silent garbage).  When
        the owning store verifies checksums, the file content is
        re-verified against the recorded CRCs too.  Idempotent; also
        reopens a previously :meth:`close`-d handle.
        """
        if self.size == 0:
            self._mm = np.empty(0, dtype=self.dtype)
            return
        if not self.path.exists():
            raise TruncatedFileError(
                f"array {self.name!r}: backing file {self.path} is missing"
            )
        actual = self.path.stat().st_size
        if actual != self.nbytes:
            raise TruncatedFileError(
                f"array {self.name!r}: backing file {self.path} holds "
                f"{actual} bytes, expected {self.nbytes} "
                f"(truncated or overwritten)"
            )
        try:
            self._mm = np.memmap(
                self.path, dtype=self.dtype, mode="r", shape=self.shape
            )
        except (OSError, ValueError) as exc:
            # The stat raced a concurrent truncation, or the mapping
            # itself failed — still a storage-layer problem, never a
            # bare OSError for callers to guess at.
            raise TruncatedFileError(
                f"array {self.name!r}: backing file {self.path} could "
                f"not be mapped ({exc})"
            ) from exc
        recorded = self.store._checksums.get(self.name)
        if recorded is not None:
            fresh = _page_checksums(
                self._mm.reshape(-1).view(np.uint8), self.store.chunk_bytes
            )
            if not np.array_equal(fresh, recorded):
                bad = int(np.flatnonzero(fresh != recorded)[0])
                raise ChecksumError(
                    f"array {self.name!r}: page {bad} failed checksum "
                    f"verification on reopen"
                )

    # -- charged reads ----------------------------------------------------------

    def read_rows(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        think_time_s: float = 0.0,
    ) -> np.ndarray:
        """Gather ``counts[i]`` elements from ``starts[i]`` for each row.

        This is the *value file* access of the top-down step: one extent per
        frontier vertex, chunked to ≤4 KB requests.  Returns the
        concatenation of all rows (a real in-memory ``ndarray``).
        """
        values, charge = self.read_rows_deferred(starts, counts)
        charge.apply(think_time_s)
        return values

    def read_rows_deferred(
        self, starts: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, DeferredCharge]:
        """Like :meth:`read_rows`, but the device charge is returned
        instead of applied (see :class:`DeferredCharge`)."""
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        mm = self._memmap()
        if starts.size and (
            starts.min() < 0 or int((starts + counts).max()) > self.size
        ):
            raise StorageError(f"row extent outside array {self.name!r}")
        gather = concat_ranges(starts, counts)
        values = np.asarray(mm[gather])
        charge = DeferredCharge(
            array=self,
            offsets=starts * self.itemsize,
            lengths=counts * self.itemsize,
        )
        return values, charge

    def read_elements(
        self, indices: np.ndarray, width: int = 1, think_time_s: float = 0.0
    ) -> np.ndarray:
        """Read ``width`` consecutive elements at each index.

        This is the *array (index) file* access of the top-down step: for
        every frontier vertex the reader fetches ``indptr[v]`` and
        ``indptr[v+1]`` — i.e. ``width=2`` at offset ``v``.  Returns an
        ``(n, width)`` array.
        """
        values, charge = self.read_elements_deferred(indices, width)
        charge.apply(think_time_s)
        return values

    def read_elements_deferred(
        self, indices: np.ndarray, width: int = 1
    ) -> tuple[np.ndarray, DeferredCharge]:
        """Like :meth:`read_elements`, but with a deferred charge."""
        idx = np.asarray(indices, dtype=np.int64)
        if width <= 0:
            raise StorageError(f"width must be positive: {width}")
        mm = self._memmap()
        if idx.size and (idx.min() < 0 or int(idx.max()) + width > self.size):
            raise StorageError(f"element read outside array {self.name!r}")
        charge = DeferredCharge(
            array=self,
            offsets=idx * self.itemsize,
            lengths=np.full(idx.shape, width * self.itemsize, dtype=np.int64),
        )
        if idx.size == 0:
            return np.empty((0, width), dtype=self.dtype), charge
        gather = idx[:, None] + np.arange(width, dtype=np.int64)[None, :]
        values = np.asarray(mm[gather.ravel()]).reshape(-1, width)
        return values, charge

    def read_slice(self, lo: int, hi: int, think_time_s: float = 0.0) -> np.ndarray:
        """Sequential read of ``[lo, hi)`` charged as one streamed extent."""
        if not 0 <= lo <= hi <= self.size:
            raise StorageError(
                f"slice [{lo}, {hi}) outside array {self.name!r} of size {self.size}"
            )
        mm = self._memmap()
        self.store.charge(
            np.array([lo * self.itemsize], dtype=np.int64),
            np.array([(hi - lo) * self.itemsize], dtype=np.int64),
            think_time_s,
            file_key=self.name,
        )
        return np.asarray(mm[lo:hi])

    def to_ndarray(self) -> np.ndarray:
        """Uncharged full copy (for validation paths and tests only)."""
        return np.asarray(self._memmap()).copy()

    def close(self) -> None:
        """Release the memmap (idempotent)."""
        self._mm = None

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"ExternalArray({self.name!r}, {self.dtype}, n={self.size}, "
            f"device={self.store.device.name!r})"
        )
