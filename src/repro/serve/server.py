"""The serving loop: admit, batch, traverse, cache, account.

:class:`BFSServer` replays a timestamped request stream against a
:class:`~repro.serve.catalog.GraphCatalog` entirely on the simulated
clock.  Each iteration advances time to the next arrival (when idle),
admits everything that has arrived through the bounded
:class:`~repro.serve.scheduler.AdmissionQueue` (rejecting with
``queue_full`` backpressure once the engine falls behind), forms a
fair round-robin batch and answers it in three tiers:

1. **Result cache** — hits complete immediately, no graph touched.
2. **Degradation shed** — while a graph's device circuit breaker is
   open, uncached queries against it are rejected with ``degraded``
   instead of hammering a failing device (cache-only serving).
3. **Batched traversal** — remaining queries are deduplicated per
   ``(graph, root)``, grouped per graph and run through one
   :class:`~repro.serve.engine.BatchedBFS` pass that shares forward-graph
   chunk fetches across the whole group.

Latency is measured on the simulated clock (completion minus arrival),
so the whole serve — metrics included — is deterministic per seed.

**Crash recovery** (``checkpoint_every > 0``): each batched traversal
checkpoints its per-query state every N rounds through a
:class:`~repro.recovery.checkpoint.CheckpointManager`, and the store's
fault plan may inject a seeded
:class:`~repro.errors.ProcessCrashError` at a round boundary.  On a
crash the server's watchdog discards the dead engine, backs off
exponentially (deterministic seeded jitter), reloads the newest valid
checkpoint (torn epochs fall back by CRC), invalidates cache entries
newer than the checkpoint, and **requeues** the in-flight requests at
the head of the admission queue — the next batch resumes the traversal
from the checkpoint instead of restarting it.  A completed-request
guard makes completion at-most-once: ``serve.complete`` never fires
twice for one request, even across requeues.  The serve loop drains
gracefully — it returns only once every admitted request has been
completed or explicitly rejected, crashes included.

Per-request **deadlines** (:attr:`~repro.serve.workload.Request.deadline_s`)
are enforced at batch formation and again at completion: a request whose
latency budget has expired is aborted with a ``deadline`` rejection
through ``serve.reject`` instead of completing late.

**Dynamic graphs**: the request stream may interleave
:class:`~repro.serve.workload.MutationEvent`\\ s.  Each is applied
atomically between scheduling batches through a per-graph
:class:`~repro.graphmut.versioned.GraphMutator` (bumping the graph
version), after which a fourth answer tier sits between the cache and
the traversal: a cache entry from an older version is **repaired**
incrementally (affected-region re-expansion, charged for the rows it
reads) instead of recomputed, falling back to the batched traversal when
the dirty region is too large or compaction pruned the history.
Entries older than the compaction base are dropped with
``cause="version"`` evictions, and checkpointed crash state of the old
version is discarded — a requeued query recomputes at the new version.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ProcessCrashError
from repro.obs.schema import (
    M_REC_CRASHES,
    M_REC_REQUEUES,
    M_REC_RESTORES,
    M_REC_RETRIES,
    M_REC_TORN_EPOCHS,
    M_REC_WATCHDOG,
    M_SERVE_BATCH_QUERIES,
    M_SERVE_BATCHES,
    M_SERVE_LATENCY,
    M_SERVE_QUEUE_DEPTH,
    M_SERVE_REJECTED,
    M_SERVE_REQUESTS,
    M_SERVE_SERVED,
)
from repro.obs.session import Observability
from repro.recovery.checkpoint import (
    CheckpointManager,
    QuerySnapshot,
    RestoredRun,
    load_run,
)
from repro.serve.catalog import GraphCatalog
from repro.serve.engine import BatchedBFS
from repro.serve.results import ResultCache
from repro.serve.scheduler import AdmissionQueue, RejectionStats
from repro.serve.workload import MutationEvent, Request
from repro.util.rng import derive_rng

__all__ = ["ServedRequest", "ServeReport", "BFSServer"]


@dataclass(frozen=True)
class ServedRequest:
    """One completed request: when it finished, how long it waited, how."""

    request: Request
    completed_s: float
    latency_s: float
    source: str  # "cache" | "batched" | "repaired"
    traversed_edges: int


@dataclass
class ServeReport:
    """Everything one :meth:`BFSServer.serve` run produced.

    ``completions`` are in completion order; ``rejected`` pairs each shed
    request with its reason (``queue_full``, ``degraded`` or
    ``deadline``).  The ``n_crashes``/``n_requeued``/``n_retries``/
    ``n_watchdog_restarts``/``stale_invalidated`` counters mirror the
    ``recovery.*`` metric series for callers without an obs registry.
    """

    completions: list[ServedRequest] = field(default_factory=list)
    rejected: list[tuple[Request, str]] = field(default_factory=list)
    rejections: RejectionStats = field(default_factory=RejectionStats)
    n_batches: int = 0
    n_traversals: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rows_requested: int = 0
    rows_fetched: int = 0
    nvm_bytes_read: int = 0
    duration_s: float = 0.0
    n_crashes: int = 0
    n_requeued: int = 0
    n_retries: int = 0
    n_watchdog_restarts: int = 0
    stale_invalidated: int = 0
    n_mutations: int = 0
    mutated_edges: int = 0
    n_repairs: int = 0
    n_repair_fallbacks: int = 0
    version_invalidated: int = 0

    @property
    def n_requests(self) -> int:
        """All requests that entered the server."""
        return len(self.completions) + len(self.rejected)

    @property
    def n_served(self) -> int:
        """Requests answered (cache or traversal)."""
        return len(self.completions)

    @property
    def n_rejected(self) -> int:
        """Requests shed by backpressure or degradation."""
        return len(self.rejected)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served-path lookups answered from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def served_by_tenant(self) -> dict[str, int]:
        """Completion counts per tenant (fairness accounting)."""
        out: dict[str, int] = {}
        for c in self.completions:
            out[c.request.tenant] = out.get(c.request.tenant, 0) + 1
        return out

    def latencies_s(self) -> list[float]:
        """Per-completion latency, completion order."""
        return [c.latency_s for c in self.completions]


class BFSServer:
    """Deterministic BFS query server over a graph catalog.

    Parameters
    ----------
    catalog:
        The built graphs to serve (shares its clock and obs session).
    batch_size:
        Maximum queries coalesced into one scheduling batch.
    queue_capacity:
        Bound of the admission queue; arrivals beyond it are rejected.
    cache_capacity / cache_ttl_s:
        Result-cache sizing (see :class:`~repro.serve.results.ResultCache`).
    checkpoint_every:
        Traversal checkpoint cadence in batch rounds; ``0`` (the
        default) disables checkpointing *and* crash handling entirely —
        the server then behaves exactly as before this subsystem
        existed.
    max_retries:
        Crash-recovery retry budget per graph; one more crash re-raises
        the :class:`~repro.errors.ProcessCrashError`.
    backoff_base_s / backoff_factor:
        Exponential backoff between a crash and its retry: attempt *k*
        waits ``base * factor**(k-1)`` seconds, scaled by a
        deterministic seeded jitter in ``[0.5, 1.5)``.
    retry_seed:
        Seed of the jitter RNG (recovery timing is reproducible per
        seed, like everything else here).
    repair_threshold:
        Maximum dirty fraction an incremental tree repair may touch
        before the query falls back to the batched traversal.
    compact_every:
        Mutation batches between delta-overlay compactions (``0``
        disables automatic compaction).
    obs:
        Observability session; defaults to the catalog's.
    """

    def __init__(
        self,
        catalog: GraphCatalog,
        batch_size: int = 8,
        queue_capacity: int = 64,
        cache_capacity: int = 256,
        cache_ttl_s: float | None = None,
        obs: Observability | None = None,
        checkpoint_every: int = 0,
        max_retries: int = 3,
        backoff_base_s: float = 1e-4,
        backoff_factor: float = 2.0,
        retry_seed: int = 0,
        repair_threshold: float = 0.25,
        compact_every: int = 8,
    ) -> None:
        self.catalog = catalog
        self.batch_size = int(batch_size)
        self.queue_capacity = int(queue_capacity)
        self.obs = obs if obs is not None else catalog.obs
        self.obs.bind_clock(catalog.clock)
        self.cache = ResultCache(
            capacity=cache_capacity,
            ttl_s=cache_ttl_s,
            clock=catalog.clock,
            obs=self.obs,
        )
        self._engines: dict[str, BatchedBFS] = {}
        self.checkpoint_every = int(checkpoint_every)
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_factor = float(backoff_factor)
        self._retry_rng = derive_rng(retry_seed, "serve", "retry")
        self.repair_threshold = float(repair_threshold)
        self.compact_every = int(compact_every)
        self._mutators: dict = {}
        self._managers: dict[str, CheckpointManager] = {}
        self._resume: dict[str, RestoredRun] = {}
        self._crash_attempts: dict[str, int] = {}
        self._done_ids: set[int] = set()
        self._batch_seq = 0
        # Request identity -> trace id, assigned once at admission.
        # Crash-requeued requests keep their object identity, so one
        # request is one trace across retries.
        self._trace_ids: dict[int, str] = {}

    def engine_for(self, name: str) -> BatchedBFS:
        """The (persistent) query engine for catalog graph ``name``.

        Partitioned deployments (``repro.dist``) get a
        :class:`~repro.dist.serve.DistributedEngine` routing through
        their coordinator; everything else gets the shared-store
        :class:`~repro.serve.engine.BatchedBFS`.
        """
        engine = self._engines.get(name)
        if engine is None:
            graph = self.catalog.get(name)
            if getattr(graph, "is_partitioned", False):
                from repro.dist.serve import DistributedEngine

                engine = DistributedEngine(graph, obs=self.obs)
            else:
                engine = BatchedBFS(graph, obs=self.obs)
            self._engines[name] = engine
        return engine

    def mutator_for(self, name: str):
        """The (lazily created) mutation applier for catalog graph ``name``."""
        mutator = self._mutators.get(name)
        if mutator is None:
            from repro.graphmut.versioned import GraphMutator

            mutator = GraphMutator(
                self.catalog.get(name),
                obs=self.obs,
                repair_threshold=self.repair_threshold,
                compact_every=self.compact_every,
            )
            self._mutators[name] = mutator
        return mutator

    def serve(self, requests: list) -> ServeReport:
        """Replay a stream of :class:`Request`\\ s (and optionally
        :class:`MutationEvent`\\ s) to completion; returns the report.

        The loop drains gracefully: it returns only once every admitted
        request has completed or been explicitly rejected — requests
        requeued by crash recovery are picked up again on a later
        iteration, never dropped.  Mutation events apply at their
        arrival time, strictly between scheduling batches, so every
        query observes exactly one whole graph version.
        """
        clock = self.catalog.clock
        obs = self.obs
        report = ServeReport()
        t_serve0 = clock.now()
        nvm0 = self._nvm_bytes()
        pending = deque(sorted(requests, key=lambda r: r.arrival_s))
        queue = AdmissionQueue(self.queue_capacity)
        while pending or queue.depth:
            now = clock.now()
            if queue.depth == 0 and pending and pending[0].arrival_s > now:
                clock.advance(pending[0].arrival_s - now)
                now = clock.now()
            while pending and pending[0].arrival_s <= now:
                r = pending.popleft()
                if isinstance(r, MutationEvent):
                    self._apply_mutation(r, report)
                    continue
                obs.counter(M_SERVE_REQUESTS, tenant=r.tenant).inc()
                trace_id = obs.new_trace_id()
                self._trace_ids[id(r)] = trace_id
                obs.event(
                    "serve.admit",
                    trace_id=trace_id,
                    tenant=r.tenant,
                    graph=r.graph,
                    root=r.root,
                )
                if not queue.offer(r):
                    self._reject(report, r, "queue_full")
            obs.gauge(M_SERVE_QUEUE_DEPTH).set(queue.depth)
            batch = queue.next_batch(self.batch_size)
            if batch:
                batch = self._enforce_deadlines(batch, report)
            if batch:
                self._serve_batch(batch, report, queue)
        report.duration_s = clock.now() - t_serve0
        report.cache_hits = self.cache.hits
        report.cache_misses = self.cache.misses
        report.nvm_bytes_read = self._nvm_bytes() - nvm0
        for engine in self._engines.values():
            report.rows_requested += engine.rows_requested
            report.rows_fetched += engine.rows_fetched
        return report

    # -- internals -------------------------------------------------------------

    def _apply_mutation(self, event: MutationEvent,
                        report: ServeReport) -> None:
        """Apply one mutation batch atomically between batches.

        Also drops every cache entry too old to repair (compaction may
        have pruned the batch history behind it) and discards
        checkpointed crash state of the previous version — a requeued
        query must recompute on the new graph, not resume into it.
        """
        from repro.graphmut.stream import MutationBatch

        name = event.graph
        mutator = self.mutator_for(name)
        graph = self.catalog.get(name)
        batch = MutationBatch.make(event.inserts, event.deletes,
                                   graph.n_vertices)
        mutator.apply(batch)
        report.n_mutations += 1
        report.mutated_edges += batch.n_mutations
        report.version_invalidated += self.cache.invalidate_versions(
            name, mutator.min_repairable_version
        )
        self._resume.pop(name, None)
        self._managers.pop(name, None)

    def _try_repair(self, request: Request, version: int,
                    report: ServeReport) -> int | None:
        """Repair a stale cache entry to ``version``; returns the
        traversed-edge count on success, ``None`` to fall through to the
        batched traversal."""
        mutator = self._mutators.get(request.graph)
        if mutator is None:
            return None
        entry = self.cache.peek(request.graph, request.root)
        if entry is None or entry.version == version:
            return None
        if not mutator.can_repair(entry.version):
            return None
        outcome = mutator.repair(entry.parent, request.root, entry.version)
        if outcome is None:
            report.n_repair_fallbacks += 1
            return None
        graph = self.catalog.get(request.graph)
        traversed = int(graph.degrees[outcome.parent >= 0].sum() // 2)
        self.cache.put(request.graph, request.root, outcome.parent,
                       traversed, version=version)
        report.n_repairs += 1
        return traversed

    def _nvm_bytes(self) -> int:
        total = 0
        for name in self.catalog.names():
            graph = self.catalog.get(name)
            if graph.store is not None:
                total += graph.store.iostats.total_bytes
            else:
                worker_bytes = getattr(graph, "worker_nvm_bytes", None)
                if worker_bytes is not None:
                    total += worker_bytes()
        return total

    def _trace_id(self, request: Request) -> str:
        """The request's admission-assigned trace id."""
        return self._trace_ids.get(id(request), "t000000")

    def _reject(self, report: ServeReport, request: Request,
                reason: str) -> None:
        report.rejections.record(request, reason)
        report.rejected.append((request, reason))
        self.obs.counter(M_SERVE_REJECTED, reason=reason).inc()
        self.obs.event(
            "serve.reject",
            reason=reason,
            trace_id=self._trace_id(request),
            tenant=request.tenant,
            graph=request.graph,
            root=request.root,
        )

    def _enforce_deadlines(self, batch: list[Request],
                           report: ServeReport) -> list[Request]:
        """Abort batch members whose latency budget already expired."""
        now = self.catalog.clock.now()
        kept: list[Request] = []
        for r in batch:
            if r.deadline_s is not None and now > r.arrival_s + r.deadline_s:
                self._reject(report, r, "deadline")
            else:
                kept.append(r)
        return kept

    def _complete(self, report: ServeReport, request: Request,
                  completed_s: float, source: str,
                  traversed_edges: int) -> None:
        # At-most-once: a request requeued by crash recovery may cross
        # paths with an already-recorded answer; never double-fire
        # serve.complete for the same request object.
        if id(request) in self._done_ids:
            return
        self._done_ids.add(id(request))
        latency = completed_s - request.arrival_s
        report.completions.append(ServedRequest(
            request=request,
            completed_s=completed_s,
            latency_s=latency,
            source=source,
            traversed_edges=traversed_edges,
        ))
        trace_id = self._trace_id(request)
        self.obs.counter(M_SERVE_SERVED, source=source).inc()
        self.obs.histogram(M_SERVE_LATENCY).observe(
            latency, exemplar=trace_id
        )
        self.obs.event(
            "serve.complete",
            latency_s=latency,
            source=source,
            trace_id=trace_id,
            tenant=request.tenant,
        )

    def _serve_batch(self, batch: list[Request],
                     report: ServeReport,
                     queue: AdmissionQueue) -> None:
        clock = self.catalog.clock
        obs = self.obs
        with obs.span(
            "serve.batch",
            size=len(batch),
            trace_ids=",".join(self._trace_id(r) for r in batch),
        ):
            t_batch = clock.now()
            misses: list[Request] = []
            for r in batch:
                version = getattr(self.catalog.get(r.graph), "version", 0)
                cached = self.cache.get(r.graph, r.root, version=version)
                if cached is not None:
                    self._complete(report, r, t_batch, "cache",
                                   cached.traversed_edges)
                    continue
                # Repair tier: a stale entry for a mutated graph is
                # patched in the affected region instead of recomputed;
                # completion time includes the repair's charged reads.
                traversed = self._try_repair(r, version, report)
                if traversed is not None:
                    self._complete(report, r, clock.now(), "repaired",
                                   traversed)
                else:
                    misses.append(r)
            # Cache-only serving while a device circuit is open: shed the
            # misses instead of queueing against a failing device.
            to_run: dict[str, list[Request]] = {}
            for r in misses:
                if self.catalog.get(r.graph).circuit_open:
                    self._reject(report, r, "degraded")
                else:
                    to_run.setdefault(r.graph, []).append(r)
            n_queries = 0
            answered: dict[tuple[str, int], int] = {}
            crashed: set[str] = set()
            for name in sorted(to_run):
                with self.catalog.open(name):
                    try:
                        n_queries += self._answer_graph(
                            name, to_run[name], answered
                        )
                    except ProcessCrashError:
                        crashed.add(name)
                        self._recover(name, to_run[name], queue, report)
            if n_queries:
                report.n_batches += 1
                report.n_traversals += n_queries
                obs.counter(M_SERVE_BATCHES).inc()
                obs.histogram(M_SERVE_BATCH_QUERIES).observe(n_queries)
            t_done = clock.now()
            for name in sorted(to_run):
                if name in crashed:
                    continue  # requeued; a later batch answers them
                for r in to_run[name]:
                    if (r.deadline_s is not None
                            and t_done > r.arrival_s + r.deadline_s):
                        # Timeout abort: the traversal ran (and its
                        # result is cached), but the answer is late.
                        self._reject(report, r, "deadline")
                    else:
                        self._complete(report, r, t_done, "batched",
                                       answered[(name, r.root)])

    def _answer_graph(self, name: str, reqs: list[Request],
                      answered: dict[tuple[str, int], int]) -> int:
        """Traverse one graph's misses, resuming a crashed batch if any.

        Returns the number of traversals run.  Raises
        :class:`~repro.errors.ProcessCrashError` when the store's fault
        plan injects a crash mid-batch.
        """
        roots = sorted({r.root for r in reqs})
        rootset = set(roots)
        engine = self.engine_for(name)
        # Duplicate roots share one traversal; the traversal runs under
        # the first-admitted request's trace.
        trace_ids: dict[int, str] = {}
        for r in reqs:
            trace_ids.setdefault(int(r.root), self._trace_id(r))
        results = []
        remaining = roots
        restored = self._resume.pop(name, None)
        if restored is not None:
            # Watchdog path: re-enter the checkpointed traversal on the
            # (fresh) engine instead of restarting from the roots.
            hook = self._checkpoint_hook(name, self._managers[name])
            resumable = [q for q in restored.queries if q.root in rootset]
            if resumable:
                results.extend(
                    engine.resume_batch(resumable, checkpointer=hook)
                )
            remaining = sorted(rootset - {q.root for q in resumable})
        if remaining:
            hook = None
            if self.checkpoint_every > 0:
                mgr = self._fresh_manager(name)
                if mgr is not None:
                    hook = self._checkpoint_hook(name, mgr)
            results.extend(engine.run_batch(
                remaining, checkpointer=hook, trace_ids=trace_ids
            ))
        version = getattr(self.catalog.get(name), "version", 0)
        for res in results:
            self.cache.put(name, res.root, res.parent, res.traversed_edges,
                           version=version)
            answered[(name, res.root)] = res.traversed_edges
        self._crash_attempts.pop(name, None)
        return len(results)

    # -- crash recovery --------------------------------------------------------

    def _fresh_manager(self, name: str) -> CheckpointManager | None:
        """A new checkpoint chain for one batch over graph ``name``."""
        store = self.catalog.get(name).store
        if store is None:
            return None
        self._batch_seq += 1
        mgr = CheckpointManager(
            store,
            run_id=f"serve-{name}-b{self._batch_seq}",
            every=self.checkpoint_every,
            obs=self.obs,
        )
        self._managers[name] = mgr
        return mgr

    def _checkpoint_hook(self, name: str, mgr: CheckpointManager):
        """The per-round hook: persist an epoch, then maybe crash."""
        store = self.catalog.get(name).store
        clock = self.catalog.clock
        obs = self.obs

        def hook(queries, rounds: int) -> None:
            if rounds % mgr.every == 0 and any(q.active for q in queries):
                mgr.save([QuerySnapshot.at(name, q.state, q.cursor)
                          for q in queries])
            injector = store.injector if store is not None else None
            now = clock.now()
            if injector is not None and injector.crash_due(now, rounds - 1):
                if injector.plan.crash_torn:
                    mgr.corrupt_last()
                obs.counter(M_REC_CRASHES).inc()
                obs.event(
                    "recovery.crash", graph=name, round=rounds - 1, t=now
                )
                raise ProcessCrashError(
                    f"injected crash in batch over {name!r} after round "
                    f"{rounds - 1} at t={now:.6f}s",
                    crashed_at_s=now,
                    level=rounds - 1,
                )

        return hook

    def _recover(self, name: str, reqs: list[Request],
                 queue: AdmissionQueue, report: ServeReport) -> None:
        """Watchdog: restart the engine, reload the checkpoint, requeue.

        The in-flight requests go back to the *head* of the admission
        queue (original order and fairness position preserved); the next
        batch that picks them up resumes from the restored checkpoint —
        or, when no epoch survived (crash before the first checkpoint,
        or a torn-only chain), simply reruns from the roots, which the
        deterministic engines make bit-identical anyway.
        """
        report.n_crashes += 1
        attempts = self._crash_attempts.get(name, 0) + 1
        self._crash_attempts[name] = attempts
        if attempts > self.max_retries:
            raise ProcessCrashError(
                f"graph {name!r} crashed {attempts} times; "
                f"retry budget ({self.max_retries}) exhausted"
            )
        obs = self.obs
        clock = self.catalog.clock
        # Watchdog restart: the next engine_for() builds a clean engine.
        self._engines.pop(name, None)
        obs.counter(M_REC_WATCHDOG).inc()
        report.n_watchdog_restarts += 1
        # Exponential backoff with deterministic seeded jitter.
        delay = self.backoff_base_s * self.backoff_factor ** (attempts - 1)
        delay *= 0.5 + float(self._retry_rng.random())
        with obs.span("serve.retry", graph=name, attempt=attempts,
                      delay_s=delay):
            clock.advance(delay)
            obs.counter(M_REC_RETRIES).inc()
            report.n_retries += 1
        mgr = self._managers.get(name)
        if mgr is not None:
            restored = load_run(mgr.dir)
            obs.counter(M_REC_RESTORES).inc()
            if restored.n_torn:
                obs.counter(M_REC_TORN_EPOCHS).inc(restored.n_torn)
            if restored.epoch >= 0:
                mgr.adopt(restored)
                self._resume[name] = restored
                # Stale-read guard: answers cached after the checkpoint
                # reflect work the rollback discarded.
                report.stale_invalidated += self.cache.invalidate_stale(
                    name, restored.clock_s
                )
        queue.requeue(reqs)
        obs.counter(M_REC_REQUEUES).inc(len(reqs))
        report.n_requeued += len(reqs)
        obs.event("recovery.requeue", graph=name, n=len(reqs))

    def __repr__(self) -> str:
        return (
            f"BFSServer(batch={self.batch_size}, "
            f"queue={self.queue_capacity}, cache={self.cache!r})"
        )
