"""Serving ablation — NVM bytes per query versus traversal batch size.

Runs the same 8 BFS queries through :class:`~repro.serve.engine.BatchedBFS`
at batch sizes 1, 2, 4 and 8 on the PCIe-flash scenario (result cache and
page cache disabled, so the only sharing left is the union-frontier chunk
fetch) and measures device bytes read per query plus modeled TEPS.

Expected shape — the serving-time restatement of §V device-traffic
minimization: bytes per query fall **monotonically** as the batch grows,
because a forward-graph chunk wanted by k in-flight queries is fetched
and charged once instead of k times; and the batched parent trees are
bit-identical to the unbatched ones at every batch size (validated via
``graph500.validate``), i.e. the amortization is free of any accuracy
trade.
"""

import numpy as np

from repro.analysis.report import ascii_table, format_teps
from repro.core import DRAM_PCIE_FLASH
from repro.graph500 import validate_bfs_tree
from repro.obs import Observability
from repro.serve import BatchedBFS, GraphCatalog

from conftest import BENCH_SEED, SMALL_SCALE

BATCH_SIZES = (1, 2, 4, 8)
N_QUERIES = 8
WORKER_COUNTS = (1, 2, 4)


def test_serve_batching_amortization(benchmark, figure_report, tmp_path):
    # The Table I pcie thresholds (α = β = 1e6) leave only level 0
    # top-down at bench scale — no device traffic to share.  Scale them
    # down so several levels stay top-down, as at paper scale.
    n = 1 << SMALL_SCALE
    alpha = beta = n / 128.0

    def run_one(batch_size):
        catalog = GraphCatalog(workdir=tmp_path / f"b{batch_size}")
        graph = catalog.build(
            "g", DRAM_PCIE_FLASH, scale=SMALL_SCALE, seed=BENCH_SEED,
            alpha=alpha, beta=beta, page_cache_bytes=0,
        )
        roots = [
            int(r) for r in np.flatnonzero(graph.degrees > 0)[:N_QUERIES]
        ]
        engine = BatchedBFS(graph)
        trees = {}
        traversed = 0
        t0 = graph.clock.now()
        for i in range(0, len(roots), batch_size):
            for res in engine.run_batch(roots[i:i + batch_size]):
                trees[res.root] = res.parent
                traversed += res.traversed_edges
        modeled_s = graph.clock.now() - t0
        nvm_bytes = graph.store.iostats.total_bytes
        shared = (
            engine.rows_requested / engine.rows_fetched
            if engine.rows_fetched else 1.0
        )
        catalog.close()
        return {
            "edges": graph.edges,
            "roots": roots,
            "trees": trees,
            "nvm_bytes": nvm_bytes,
            "teps": traversed / modeled_s if modeled_s else 0.0,
            "sharing": shared,
        }

    def run_all():
        return {b: run_one(b) for b in BATCH_SIZES}

    out = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    base = out[1]["nvm_bytes"]
    for b in BATCH_SIZES:
        r = out[b]
        rows.append([
            b,
            f"{r['nvm_bytes'] / N_QUERIES:,.0f}",
            f"{r['nvm_bytes'] / base:.2f}x",
            f"{r['sharing']:.2f}x",
            format_teps(r["teps"]),
        ])
    figure_report.add(
        "Serving: NVM bytes/query vs batch size (shared chunk fetches)",
        ascii_table(
            ["batch", "nvm bytes/query", "vs unbatched",
             "row sharing", "modeled TEPS"],
            rows,
        ),
    )
    benchmark.extra_info["nvm_bytes_by_batch"] = {
        str(b): out[b]["nvm_bytes"] for b in BATCH_SIZES
    }

    # Monotone non-increasing device traffic as the batch grows, with a
    # strict overall win from 1 -> 8.
    totals = [out[b]["nvm_bytes"] for b in BATCH_SIZES]
    assert all(a >= b for a, b in zip(totals, totals[1:])), totals
    assert totals[-1] < totals[0], totals

    # Batching never changes an answer: every batch size reproduces the
    # unbatched parent trees exactly, and all trees validate.
    reference = out[1]
    for b in BATCH_SIZES[1:]:
        for root in reference["roots"]:
            assert np.array_equal(
                out[b]["trees"][root], reference["trees"][root]
            ), (b, root)
    for root in reference["roots"]:
        assert validate_bfs_tree(
            reference["edges"], reference["trees"][root], root
        ).ok


def test_partitioned_serving_per_worker_count(benchmark, figure_report,
                                              tmp_path):
    """Same 8 queries through a partitioned catalog deployment at worker
    counts 1, 2 and 4 — device bytes per query, modeled p99 query
    latency, and byte-identical trees at every count."""
    n = 1 << SMALL_SCALE
    alpha = beta = n / 128.0

    def run_one(n_workers):
        from repro.dist.serve import DistributedEngine

        obs = Observability()
        catalog = GraphCatalog(workdir=tmp_path / f"w{n_workers}", obs=obs)
        graph = catalog.build_partitioned(
            "g", DRAM_PCIE_FLASH, scale=SMALL_SCALE, seed=BENCH_SEED,
            n_partitions=n_workers, alpha=alpha, beta=beta,
        )
        roots = [
            int(r) for r in np.flatnonzero(graph.degrees > 0)[:N_QUERIES]
        ]
        engine = DistributedEngine(graph, obs=obs)
        trees = {}
        for res in engine.run_batch(roots):
            trees[res.root] = res.parent
        latencies = np.array([
            e.attrs["latency_s"]
            for e in obs.tracer.events if e.name == "dist.query"
        ])
        nvm_bytes = graph.worker_nvm_bytes()
        catalog.close()
        return {
            "roots": roots,
            "trees": trees,
            "bytes_per_query": nvm_bytes / N_QUERIES,
            "p99_s": float(np.percentile(latencies, 99)),
            "mean_s": float(latencies.mean()),
        }

    def run_all():
        return {w: run_one(w) for w in WORKER_COUNTS}

    out = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [
            w,
            f"{out[w]['bytes_per_query']:,.0f}",
            f"{out[w]['mean_s'] * 1e3:.3f}",
            f"{out[w]['p99_s'] * 1e3:.3f}",
        ]
        for w in WORKER_COUNTS
    ]
    figure_report.add(
        "Partitioned serving: bytes/query and p99 latency vs worker count",
        ascii_table(
            ["workers", "nvm bytes/query", "mean query ms", "p99 query ms"],
            rows,
        ),
    )
    benchmark.extra_info["p99_s_by_workers"] = {
        str(w): out[w]["p99_s"] for w in WORKER_COUNTS
    }

    # Partitioning is invisible to correctness: every worker count
    # reproduces the single-worker trees byte for byte.
    reference = out[WORKER_COUNTS[0]]
    for w in WORKER_COUNTS[1:]:
        assert out[w]["roots"] == reference["roots"]
        for root in reference["roots"]:
            assert (
                out[w]["trees"][root].tobytes()
                == reference["trees"][root].tobytes()
            ), (w, root)

    # Spreading one traversal over more workers cuts its p99: each level
    # costs the max worker step, and partitions shrink with the fleet.
    assert out[4]["p99_s"] < out[1]["p99_s"]
