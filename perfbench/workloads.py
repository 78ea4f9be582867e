"""The benchmark's three workloads, each timed from outside ``repro``.

Every workload runs in this one process, single-threaded, on scenario
``DRAM_PCIE_FLASH`` with edge factor 16 and observability off.

``g500_pcie``
    ``run_graph500(scale=16, n_roots=64, validate=True)``: the paper's
    own experiment (generate, offload, construct, 64 BFS + validation).
``serve_ro``
    ``GraphCatalog.build(scale=15)`` then ``BFSServer`` with default
    batch and cache sizes, and an admission queue as long as the trace,
    replaying the open-loop trace
    ``n=500,rate=5000,zipf=0.8,pool=1024,tenants=4`` on the simulated
    clock as fast as one process can.
``serve_mut``
    The same query sub-stream plus ``mut_rate=250`` edge-mutation
    batches (apply, repair, compaction, version invalidation).

End-to-end metrics (wall clock, per-layer wrappers off; every metric is
defined on every workload so each can be compared on all three):

``setup_s``      set-up before the first BFS or request: generate,
                 offload, construct and offload forward (``g500_pcie``,
                 up to ``Graph500Driver.run``); the catalog build
                 (``serve_*``).  Median over the run's jobs.
``job_s``        one whole job, set-up included: the ``run_graph500``
                 call; catalog build plus ``BFSServer.serve``.
``serve_rps``    answers per wall second after set-up: validated
                 Graph500 iterations / (job - set-up); requests answered
                 per second of ``BFSServer.serve``.
``teps_wall``    median wall-clock TEPS over the BFS below.
``bfs_ms.p50``   wall time per BFS: per Graph500 iteration
``bfs_ms.p80``   (``BFSResult.wall_time_s``); for ``serve_*`` per
                 traversal, a ``BatchedBFS.run_batch`` of k roots
                 counting as k BFS of 1/k of its wall time.
``peak_rss_mb``  the process high-water mark.

Failures (invalid trees, rejected requests, wrong cached answers, model
values that differ between same-seed jobs) are counted into the
``failed`` / ``attempted`` fields of the result.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bfs.metrics import Direction
from repro.core.pipeline import run_graph500
from repro.core.scenarios import DRAM_PCIE_FLASH
from repro.csr import build_csr
from repro.errors import ValidationError
from repro.graph500 import EdgeList, teps_from_times, validate_bfs_tree
from repro.serve import (
    BFSServer,
    GraphCatalog,
    WorkloadSpec,
    generate_workload,
    load_trace,
    save_trace,
)
from repro.serve.workload import MutationEvent

from tracing import LAYER_CALLS, Patches, Recorder, trace_layers

SCENARIO = DRAM_PCIE_FLASH
EDGE_FACTOR = 16
TREE_SAMPLE = 16
GRAPH = "default"

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "serve_rps": "1/s",
    "teps_wall": "edges/s",
    "bfs_ms.p50": "ms",
    "bfs_ms.p80": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "graph500.generate_s": "s",
    "graph500.validate_s": "s",
    "graph500.edge_keys_s": "s",
    "graph500.count_edges_s": "s",
    "csr.build_s": "s",
    "csr.partition_s": "s",
    "semiext.offload_s": "s",
    "semiext.charge_s": "s",
    "semiext.charge_calls": "count",
    "semiext.nvm_requests": "count",
    "semiext.nvm_bytes": "B",
    "semiext.page_cache_hit_ratio": "ratio",
    "bfs.run_s": "s",
    "bfs.topdown_s": "s",
    "bfs.bottomup_s": "s",
    "bfs.bottomup_calls": "count",
    "bfs.levels": "count",
    "bfs.edges_scanned": "count",
    "bfs.bottomup_edge_frac": "ratio",
    "util.bitmap_s": "s",
    "util.gather_s": "s",
    "serve.loop_s": "s",
    "serve.run_batch_s": "s",
    "serve.batch_ms.p50": "ms",
    "serve.batch_ms.p95": "ms",
    "serve.cache_s": "s",
    "serve.traversals": "count",
    "serve.queries_per_batch": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.rows_fetched_per_requested": "ratio",
    "graphmut.apply_s": "s",
    "graphmut.repair_s": "s",
    "graphmut.compact_s": "s",
    "graphmut.repairs": "count",
    "graphmut.repair_fallbacks": "count",
    "graphmut.version_invalidated": "count",
    "model.teps_p50": "edges/s",
    "model.nvm_bytes": "B",
    "model.latency_ms.p50": "ms",
    "model.latency_ms.p99": "ms",
    "workload.gen_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


@functools.cache
def source_digest() -> str:
    """Digest of every ``repro`` source file and of this file."""
    import repro

    package = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Process high-water mark (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def after_call(observe):
    """Wrapper factory: call ``observe(result)`` after each call of the
    wrapped function."""
    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(result)
            return result
        return wrapper
    return make


def before_call(observe):
    """Wrapper factory: call ``observe()`` on entry to the wrapped function."""
    def make(fn):
        def wrapper(*args, **kwargs):
            observe()
            return fn(*args, **kwargs)
        return wrapper
    return make


def tree_failures(edges: EdgeList, trees) -> list[str]:
    """Validate ``(root, parent)`` pairs; one message per invalid tree."""
    out = []
    for root, parent in trees:
        result = validate_bfs_tree(edges, parent, int(root))
        if not result.ok:
            out.append(f"root {root}: {result.violations[0]}")
    return out


def level_metrics(traces) -> dict[str, float]:
    """``bfs.levels`` / ``bfs.edges_scanned`` / ``bfs.bottomup_edge_frac``."""
    scanned = sum(t.edges_scanned for t in traces)
    bottom_up = sum(t.edges_scanned for t in traces
                    if t.direction is Direction.BOTTOM_UP)
    return {
        "bfs.levels": float(len(traces)),
        "bfs.edges_scanned": float(scanned),
        "bfs.bottomup_edge_frac": bottom_up / scanned if scanned else 0.0,
    }


@dataclass
class Job:
    """What one timed job produced."""

    setup_s: float
    job_s: float
    attempted: int
    failures: list[str]
    model: dict[str, float]
    e2e: dict
    """``serve_rps`` of the job and ``teps``, its per-BFS TEPS samples."""
    bfs_s: list[float]
    """Wall seconds of every BFS (iteration or batched traversal)."""
    layer: dict[str, float] = field(default_factory=dict)
    """Counts gathered from the program's own reports (traced jobs)."""


class Graph500Job:
    """``g500_pcie``: one validated Graph500 run per job."""

    # Least jobs per untraced run: one job's per-BFS medians swing by up
    # to 15% with bursts of machine noise; the median of two halves it.
    min_jobs = 2

    def __init__(self, scale: int = 16, n_roots: int = 64) -> None:
        self.scale = scale
        self.n_roots = n_roots

    def prepare(self, seed: int, cache_dir: Path) -> tuple[None, float]:
        # The program generates its own input from the seed, inside the job.
        return None, 0.0

    def job(self, seed: int, inputs, workdir: Path,
            recorder: Recorder | None = None) -> Job:
        marks: dict[str, object] = {}
        with Patches() as patches:
            patches.install(
                "repro.graph500.driver:Graph500Driver.run",
                before_call(lambda: marks.setdefault("bfs_start",
                                                     time.perf_counter())))
            patches.install(
                "repro.bfs.semi_external:SemiExternalBFS.offload",
                after_call(lambda engine: marks.setdefault(
                    "store", engine.store)))
            if recorder is not None:
                trace_layers(patches, recorder)
                root = recorder.open("workload")
            t0 = time.perf_counter()
            try:
                result = run_graph500(
                    SCENARIO, self.scale, edge_factor=EDGE_FACTOR,
                    n_roots=self.n_roots, seed=seed, workdir=workdir,
                    validate=True)
                error = None
            except ValidationError as exc:
                result, error = None, str(exc)
            t1 = time.perf_counter()
            if recorder is not None:
                recorder.close(root)
        setup_s = marks.get("bfs_start", t1) - t0
        if result is None:
            return Job(setup_s, t1 - t0, self.n_roots,
                       [f"Graph500 validation raised: {error}"], {}, {}, [])
        # ``Graph500Driver.run`` raises ValidationError on the first invalid
        # tree, so a result means ``output.all_valid`` held for every root.
        out = result.output
        runs = out.runs
        walls = [r.result.wall_time_s for r in runs]
        modeled = [r.result.modeled_time_s for r in runs]
        iostats = result.bfs_iostats
        model = {
            "model.teps_p50": out.stats_modeled.median_teps,
            "model.nvm_bytes": float(iostats.total_bytes),
            "model.latency_ms.p50": percentile(modeled, 50) * 1e3,
            "model.latency_ms.p99": percentile(modeled, 99) * 1e3,
        }
        edges = np.array([r.input_edges_traversed for r in runs],
                         dtype=np.float64)
        e2e = {
            "serve_rps": len(runs) / (t1 - t0 - setup_s),
            "teps": list(teps_from_times(edges, np.array(walls))),
        }
        store = marks["store"]
        layer = {
            "semiext.nvm_requests": float(iostats.n_requests),
            "semiext.nvm_bytes": float(iostats.total_bytes),
            "semiext.page_cache_hit_ratio": store.cache_hit_ratio,
            **level_metrics([t for r in runs for t in r.result.traces]),
        }
        return Job(setup_s, t1 - t0, len(runs), [], model, e2e, walls, layer)


class ServeJob:
    """``serve_*``: build the catalog graph, then replay the trace."""

    # Least jobs per untraced run: a burst of machine noise swings one
    # job's per-BFS medians by up to 20%; the median of two halves it.
    min_jobs = 2

    def __init__(self, name: str, spec: str, scale: int = 15) -> None:
        self.name = name
        self.spec = spec
        self.scale = scale

    def trace_path(self, seed: int, cache_dir: Path) -> Path:
        """Where the trace of ``seed`` is cached.  The name carries a
        digest of the code that generates it, so a checkout of other code
        never reuses a trace (or its ``gen_s``) made by this one."""
        return cache_dir / (f"{self.name}-scale{self.scale}-seed{seed}"
                            f"-{source_digest()}.jsonl")

    def write_trace(self, seed: int, path: Path) -> None:
        """Generate the request trace of ``seed`` and save it to ``path``
        (run in a child process, so its memory stays out of the parent's
        high-water mark)."""
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            catalog = GraphCatalog(workdir=tmp)
            graph = catalog.build(GRAPH, SCENARIO, self.scale,
                                  edge_factor=EDGE_FACTOR, seed=seed)
            spec = WorkloadSpec.parse(self.spec).with_seed(seed)
            csr = build_csr(graph.edges) if spec.mut_rate > 0 else None
            requests = generate_workload(spec, graph.degrees, csr=csr)
            catalog.close()
        partial = path.with_suffix(".part")
        save_trace(requests, partial)
        path.with_suffix(".json").write_text(
            json.dumps({"gen_s": time.perf_counter() - t0}))
        partial.replace(path)  # the trace appears last, complete

    def prepare(self, seed: int, cache_dir: Path) -> tuple[list, float]:
        """The seed's trace, generated once and reused from ``cache_dir``."""
        path = self.trace_path(seed, cache_dir)
        if not path.exists():
            cache_dir.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", self.name, "--seed", str(seed),
                   "--scale", str(self.scale), "--write-trace", str(path)]
            subprocess.run(cmd, check=True, timeout=170,
                           stdout=subprocess.DEVNULL)
        gen_s = json.loads(path.with_suffix(".json").read_text())["gen_s"]
        return load_trace(path), gen_s

    def _build(self, seed: int, workdir: Path) -> GraphCatalog:
        catalog = GraphCatalog(workdir=workdir)
        catalog.build(GRAPH, SCENARIO, self.scale, edge_factor=EDGE_FACTOR,
                      seed=seed)
        return catalog

    def job(self, seed: int, requests: list, workdir: Path,
            recorder: Recorder | None = None) -> Job:
        queries = [r for r in requests if not isinstance(r, MutationEvent)]
        batches: list = []
        with Patches() as patches:
            patches.install("repro.serve.engine:BatchedBFS.run_batch",
                            after_call(batches.append))
            if recorder is not None:
                trace_layers(patches, recorder)
                root = recorder.open("workload")
            t0 = time.perf_counter()
            catalog = self._build(seed, workdir)
            t1 = time.perf_counter()
            # An admission queue as long as the trace: the open loop never
            # sheds a request, so every seed's run has no failed operation.
            server = BFSServer(catalog, queue_capacity=len(queries))
            report = server.serve(requests)
            t2 = time.perf_counter()
            if recorder is not None:
                recorder.close(root)
        failures = self.check(seed, requests, server, report)
        catalog.close()
        answered = [c for c in report.completions if c.source != "cache"]
        latencies = report.latencies_s()
        model_teps = [c.traversed_edges / c.latency_s for c in answered
                      if c.latency_s > 0]
        model = {
            "model.teps_p50": percentile(model_teps, 50) if model_teps else 0.0,
            "model.nvm_bytes": float(report.nvm_bytes_read),
            "model.latency_ms.p50": percentile(latencies, 50) * 1e3,
            "model.latency_ms.p99": percentile(latencies, 99) * 1e3,
        }
        # A batch of k traversals counts as k BFS of 1/k of its wall time.
        per_bfs = [(res.traversed_edges, res.wall_time_s / len(batch))
                   for batch in batches for res in batch]
        e2e = {
            "serve_rps": report.n_served / (t2 - t1),
            "teps": [edges / wall for edges, wall in per_bfs],
        }
        store = catalog.get(GRAPH).store
        traces = [t for batch in batches for res in batch for t in res.traces]
        layer = {
            "semiext.nvm_requests": float(store.iostats.n_requests),
            "semiext.nvm_bytes": float(store.iostats.total_bytes),
            "semiext.page_cache_hit_ratio": store.cache_hit_ratio,
            **level_metrics(traces),
            "serve.traversals": float(report.n_traversals),
            "serve.queries_per_batch": (report.n_traversals / report.n_batches
                                        if report.n_batches else 0.0),
            "serve.cache_hit_ratio": report.cache_hit_rate,
            "serve.rows_fetched_per_requested": (
                report.rows_fetched / report.rows_requested
                if report.rows_requested else 0.0),
            "graphmut.repairs": float(report.n_repairs),
            "graphmut.repair_fallbacks": float(report.n_repair_fallbacks),
            "graphmut.version_invalidated": float(report.version_invalidated),
        }
        return Job(t1 - t0, t2 - t0, len(queries), failures, model, e2e,
                   [wall for _, wall in per_bfs], layer)

    def check(self, seed: int, requests: list, server: BFSServer,
              report) -> list[str]:
        """Every request completed or explicitly rejected; a seeded sample
        of cached trees valid on the graph version they answer."""
        failures = [f"request rejected ({reason}): root {r.root}"
                    for r, reason in report.rejected]
        queries = {id(r) for r in requests if not isinstance(r, MutationEvent)}
        seen = [id(c.request) for c in report.completions]
        seen += [id(r) for r, _ in report.rejected]
        if sorted(seen) != sorted(queries):
            failures.append(
                f"{len(queries)} requests in, {len(seen)} answered or "
                f"rejected ({len(set(seen))} distinct)")
        # After a mutation batch the mutator re-points ``graph.edges`` at
        # the edge list of the new effective CSR.
        graph = server.catalog.get(GRAPH)
        roots = sorted({c.request.root for c in report.completions})
        rng = np.random.default_rng(seed)
        sample = rng.permutation(roots)
        trees = []
        for root in sample:
            entry = server.cache.peek(GRAPH, int(root))
            if entry is not None and entry.version == graph.version:
                trees.append((int(root), entry.parent))
            if len(trees) == TREE_SAMPLE:
                break
        if not trees:
            failures.append("no cached tree of the final graph version")
        return failures + tree_failures(graph.edges, trees)


WORKLOADS = {
    "g500_pcie": Graph500Job,
    "serve_ro": lambda **kw: ServeJob(
        "serve_ro", "n=500,rate=5000,zipf=0.8,pool=1024,tenants=4", **kw),
    "serve_mut": lambda **kw: ServeJob(
        "serve_mut",
        "n=500,rate=5000,zipf=0.8,pool=1024,tenants=4,mut_rate=250", **kw),
}


def make_workload(name: str, scale: int | None = None):
    return WORKLOADS[name](**({} if scale is None else {"scale": scale}))


def measure(workload, seed: int, seconds: float, bench_dir: Path) -> dict:
    """The untraced run: at least the workload's ``min_jobs`` jobs and as
    many more as start before their timed regions add up to ``seconds``;
    medians reported."""
    inputs, _ = workload.prepare(seed, bench_dir / "traces")
    jobs: list[Job] = []
    with tempfile.TemporaryDirectory(dir=bench_dir) as tmp:
        while (len(jobs) < workload.min_jobs
               or sum(j.job_s for j in jobs) < seconds):
            jobs.append(workload.job(seed, inputs, Path(tmp) / f"j{len(jobs)}"))
    failures = [f for j in jobs for f in j.failures]
    failures += model_mismatches(jobs)
    bfs_s = [t for j in jobs for t in j.bfs_s]
    teps = [t for j in jobs for t in j.e2e.get("teps", [])]
    ok = [j for j in jobs if j.e2e]
    metrics = {}
    if ok:
        metrics = {
            "setup_s": statistics.median(j.setup_s for j in jobs),
            "job_s": statistics.median(j.job_s for j in jobs),
            "serve_rps": statistics.median(j.e2e["serve_rps"] for j in ok),
            "teps_wall": statistics.median(teps),
            "bfs_ms.p50": percentile(bfs_s, 50) * 1e3,
            "bfs_ms.p80": percentile(bfs_s, 80) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    return {
        "attempted": sum(j.attempted for j in jobs),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "jobs": len(jobs),
    }


def model_mismatches(jobs: list[Job]) -> list[str]:
    """Simulated-clock values must repeat exactly across same-seed jobs."""
    first = jobs[0].model
    return [f"job {i}: simulated-clock values differ: {j.model} != {first}"
            for i, j in enumerate(jobs[1:], start=1) if j.model != first]


def measure_traced(workload, seed: int, bench_dir: Path,
                   run_id: str) -> dict:
    """The traced run: one untraced reference job, then the same job with
    every layer wrapped; per-layer self times from the spans."""
    inputs, gen_s = workload.prepare(seed, bench_dir / "traces")
    recorder = Recorder(run_id)
    with tempfile.TemporaryDirectory(dir=bench_dir) as tmp:
        plain = workload.job(seed, inputs, Path(tmp) / "plain")
        traced = workload.job(seed, inputs, Path(tmp) / "traced", recorder)
    spans_path = recorder.write(bench_dir / "spans" / f"{run_id}.jsonl")
    failures = plain.failures + traced.failures
    failures += model_mismatches([plain, traced])

    self_s = recorder.self_times()
    # Layers a workload bypasses report 0.
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics.update({name: sum(self_s.get(t, 0.0) for t in targets)
                    for name, targets in LAYER_CALLS.items()})
    batch_ms = [d * 1e3 for d in recorder.durations(
        "repro.serve.engine:BatchedBFS.run_batch")]
    root_total = recorder.durations("workload")[0]
    metrics.update({
        "semiext.charge_calls": float(recorder.count(
            "repro.semiext.storage:NVMStore.charge")),
        "bfs.bottomup_calls": float(recorder.count(
            "repro.bfs.bottomup:bottom_up_step")),
        "serve.batch_ms.p50": percentile(batch_ms, 50) if batch_ms else 0.0,
        "serve.batch_ms.p95": percentile(batch_ms, 95) if batch_ms else 0.0,
        **traced.layer,
        **traced.model,
        "workload.gen_s": gen_s,
        "trace.overhead_frac": traced.job_s / plain.job_s - 1.0,
        "trace.unattributed_frac": self_s["workload"] / root_total,
    })
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
        "spans": str(spans_path),
    }
