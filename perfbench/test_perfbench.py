"""Smoke tests of the benchmark itself, at tiny graph scales.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "8"


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT,
              script: Path = HERE / "run.py") -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def slot_snapshot() -> dict:
    """Every attribute of every loaded ``repro`` module and wrapped class."""
    slots = {}
    for module in tracing.repro_modules():
        for attr, value in vars(module).items():
            slots[(module.__name__, attr)] = value
    for targets in tracing.LAYER_CALLS.values():
        for target in targets:
            owner, attr = tracing.resolve(target)
            if isinstance(owner, type):
                slots[(owner, attr)] = owner.__dict__[attr]
    return slots


def defined_here(value) -> bool:
    """Whether ``value`` (or the function a descriptor holds) is code of
    the benchmark, i.e. a wrapper."""
    fn = getattr(value, "__func__", None) or getattr(value, "func", value)
    code = getattr(fn, "__code__", None)
    return code is not None and Path(code.co_filename).parent == HERE


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, stdout = run_bench(workload, trace)
        assert code == 0, stdout
        result = last_json(stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        for value in result["metrics"].values():
            assert isinstance(value["value"], float)
    run_id = f"{workload}-seed3"
    assert (ROOT / ".perfbench" / "spans" / f"{run_id}.jsonl").stat().st_size


def test_same_seed_gives_same_simulated_clock_values():
    runs = [last_json(run_bench("serve_mut", 1, seed=5)[1]) for _ in range(2)]
    model = [{k: v["value"] for k, v in r["metrics"].items()
              if k.startswith("model.")} for r in runs]
    assert model[0] == model[1]
    assert model[0]["model.nvm_bytes"] > 0


@pytest.mark.parametrize("workload", ["g500_pcie", "serve_mut"])
def test_wrappers_are_gone_after_a_traced_run(tmp_path, workload):
    job = workloads.make_workload(workload, int(TINY))
    before = slot_snapshot()
    assert not [k for k, v in before.items() if defined_here(v)]
    out = workloads.measure_traced(job, 4, tmp_path, "restore")
    assert out["failed"] == 0
    assert out["metrics"]["csr.build_s"] > 0
    after = slot_snapshot()
    assert after.keys() >= before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []
    # Modules first imported during the run hold no wrapper either.
    assert not [k for k, v in after.items() if defined_here(v)]


def test_restore_unbinds_a_wrapper_imported_late():
    import types

    from repro.csr import builder

    late = types.ModuleType("repro._perfbench_late")
    with tracing.Patches() as patches:
        patches.install("repro.csr.builder:build_csr",
                        lambda fn: lambda *a, **k: fn(*a, **k))
        late.build_csr = builder.build_csr  # ``from ... import`` mid-run
        sys.modules[late.__name__] = late
    try:
        assert late.build_csr is builder.build_csr
        assert not defined_here(builder.build_csr)
    finally:
        del sys.modules[late.__name__]


def test_patches_restore_descriptors():
    from repro.graph500 import EdgeList

    raw = EdgeList.__dict__["sorted_edge_keys"]
    calls = []
    with tracing.Patches() as patches:
        patches.install(
            "repro.graph500.edgelist:EdgeList.sorted_edge_keys",
            lambda fn: lambda self: calls.append(1) or fn(self))
        edges = EdgeList(np.array([[0, 1], [1, 2]], dtype=np.int64), 3)
        assert list(edges.sorted_edge_keys) == list(edges.sorted_edge_keys)
    assert calls == [1]  # still a cached property while wrapped
    assert EdgeList.__dict__["sorted_edge_keys"] is raw


def test_doctored_parent_is_reported(tmp_path):
    job = workloads.make_workload("serve_ro", int(TINY))
    requests, _ = job.prepare(6, tmp_path / "traces")
    catalog = job._build(6, tmp_path / "work")
    server = workloads.BFSServer(catalog)
    report = server.serve(requests)
    assert job.check(6, requests, server, report) == []

    root = report.completions[0].request.root
    parent = server.cache.peek(workloads.GRAPH, root).parent.copy()
    edges = catalog.get(workloads.GRAPH).edges
    assert workloads.tree_failures(edges, [(root, parent)]) == []
    leaf = int(np.flatnonzero((parent >= 0) & (np.arange(parent.size) != root))[0])
    parent[leaf] = leaf  # a non-root vertex that is its own parent
    assert len(workloads.tree_failures(edges, [(root, parent)])) == 1

    # Doctor every cached tree, so whichever the check samples is wrong.
    for r in {c.request.root for c in report.completions}:
        entry = server.cache.peek(workloads.GRAPH, r)
        if entry is not None:
            bad = entry.parent.copy()
            bad[bad == r] = -1
            bad[r] = r
            server.cache.put(workloads.GRAPH, r, bad, 0)
    failures = job.check(6, requests, server, report)
    assert failures and all(f.startswith("root ") for f in failures)
    catalog.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run_bench("g500_pcie", 0, cwd=tmp_path,
                             script=tmp_path / HERE.name / "run.py")
    assert code != 0
    assert stdout.strip() == ""
