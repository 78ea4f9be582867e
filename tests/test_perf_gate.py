"""Perf-harness tests: artifact schema round-trip, delta semantics,
the gate's exit codes (a doctored regression must fail it), the
``repro-bfs perf --baseline`` rules, and freshness of the committed
baselines."""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf import (
    SCHEMA_VERSION,
    BenchArtifact,
    BenchMetric,
    artifact_path,
    compare,
    gate,
    get_scenario,
    load,
    scenario_names,
)

ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = ROOT / "benchmarks" / "baselines"


def _artifact(**metrics) -> BenchArtifact:
    return BenchArtifact(
        name="toy",
        description="synthetic",
        seed=7,
        params={"scale": 10},
        simulated_seconds=1.5,
        metrics=metrics,
    )


class TestArtifactRoundTrip:
    def test_write_load_round_trips(self, tmp_path):
        art = _artifact(
            teps=BenchMetric(1e9, "TEPS", higher_is_better=True),
            bytes_per_query=BenchMetric(
                4096.0, "B", higher_is_better=False, tolerance=0.02
            ),
        )
        path = art.write(tmp_path)
        assert path == artifact_path(tmp_path, "toy")
        assert path.name == "BENCH_toy.json"
        back = load(path)
        assert back == art

    def test_json_is_canonical_and_versioned(self, tmp_path):
        art = _artifact(teps=BenchMetric(1e9, "TEPS", True))
        text = art.write(tmp_path).read_text()
        assert text == art.to_json()
        payload = json.loads(text)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert text.endswith("\n")

    def test_unknown_schema_version_refused(self, tmp_path):
        path = artifact_path(tmp_path, "toy")
        payload = json.loads(_artifact().to_json())
        payload["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="schema_version"):
            load(path)

    def test_unreadable_artifact_refused(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            load(bad)


class TestCompare:
    def test_within_tolerance_is_ok(self):
        base = _artifact(teps=BenchMetric(100.0, "TEPS", True, 0.05))
        cand = _artifact(teps=BenchMetric(97.0, "TEPS", True, 0.05))
        (d,) = compare(base, cand)
        assert d.status == "ok"
        assert not d.is_regression

    def test_drop_beyond_tolerance_regresses(self):
        base = _artifact(teps=BenchMetric(100.0, "TEPS", True, 0.05))
        cand = _artifact(teps=BenchMetric(90.0, "TEPS", True, 0.05))
        (d,) = compare(base, cand)
        assert d.status == "regression"
        assert d.rel_change == pytest.approx(-0.10)

    def test_lower_is_better_direction(self):
        base = _artifact(bpq=BenchMetric(100.0, "B", False, 0.05))
        up = _artifact(bpq=BenchMetric(110.0, "B", False, 0.05))
        down = _artifact(bpq=BenchMetric(90.0, "B", False, 0.05))
        assert compare(base, up)[0].status == "regression"
        assert compare(base, down)[0].status == "improved"

    def test_candidate_cannot_loosen_its_gate(self):
        base = _artifact(teps=BenchMetric(100.0, "TEPS", True, 0.05))
        cand = _artifact(teps=BenchMetric(90.0, "TEPS", True, 0.50))
        (d,) = compare(base, cand)
        assert d.status == "regression"
        assert d.tolerance == 0.05

    def test_missing_metric_fails(self):
        base = _artifact(teps=BenchMetric(100.0, "TEPS", True))
        (d,) = compare(base, _artifact())
        assert d.status == "missing"
        assert d.is_regression

    def test_extra_candidate_metric_ignored(self):
        base = _artifact(teps=BenchMetric(100.0, "TEPS", True))
        cand = _artifact(teps=BenchMetric(100.0, "TEPS", True),
                         extra=BenchMetric(1.0, "x", True))
        assert [d.name for d in compare(base, cand)] == ["teps"]

    def test_scenario_name_mismatch_rejected(self):
        base = _artifact()
        with pytest.raises(ConfigurationError, match="different scenarios"):
            compare(base, replace(base, name="other"))


class TestGateExitCodes:
    """The perf gate behind ``repro-bfs perf --baseline``."""

    def test_identical_candidate_passes(self, tmp_path, capsys):
        base = _artifact(teps=BenchMetric(100.0, "TEPS", True))
        base.write(tmp_path / "base")
        code = gate(tmp_path / "base", {"toy": base})
        assert code == 0
        assert "perf gate: PASS" in capsys.readouterr().out

    def test_doctored_regression_exits_nonzero(self, tmp_path, capsys):
        # The acceptance-criteria pin: feed the gate a candidate whose
        # TEPS was doctored 20% down and require a non-zero exit.
        baseline = load(BASELINE_DIR / "BENCH_fig11_degradation.json")
        baseline.write(tmp_path / "base")
        doctored = replace(baseline, metrics={
            k: replace(m, value=m.value * (0.8 if m.higher_is_better
                                           else 1.2))
            for k, m in baseline.metrics.items()
        })
        code = gate(tmp_path / "base", {doctored.name: doctored})
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "perf gate: FAIL" in out

    def test_missing_candidate_artifact_fails(self, tmp_path, capsys):
        _artifact(teps=BenchMetric(1.0, "TEPS", True)).write(
            tmp_path / "base"
        )
        code = gate(tmp_path / "base", {})
        assert code == 1
        assert "missing" in capsys.readouterr().out

    def test_empty_baseline_dir_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "base").mkdir()
        code = gate(tmp_path / "base", {})
        assert code == 2
        assert "no BENCH_" in capsys.readouterr().err


class TestPerfCommandGate:
    """``repro-bfs perf --baseline`` across run/baseline mismatches."""

    def test_orphan_baseline_fails_a_full_run(self, tmp_path, capsys):
        base = tmp_path / "base"
        shutil.copytree(BASELINE_DIR, base)
        _artifact(teps=BenchMetric(1.0, "TEPS", True)).write(base)
        code = main(["perf", "--out", str(tmp_path / "out"),
                     "--baseline", str(base)])
        assert code == 1
        out = capsys.readouterr().out
        assert "toy: FAIL — candidate missing" in out
        assert "perf gate: FAIL" in out

    def test_scenario_without_baseline_is_not_gated(self, tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        shutil.copy(BASELINE_DIR / "BENCH_fig11_degradation.json", base)
        code = main(["perf", "--scenario", "serve_batching",
                     "--out", str(tmp_path / "out"), "--baseline", str(base)])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve_batching: no baseline" in out
        assert "perf gate: PASS" in out

    def test_scenario_subset_skips_other_baselines(self, tmp_path, capsys):
        code = main(["perf", "--scenario", "serve_batching",
                     "--out", str(tmp_path / "out"),
                     "--baseline", str(BASELINE_DIR)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig11_degradation: skipped" in out
        assert "serve_batching:\n" in out
        assert "REGRESSION" not in out


class TestCommittedBaselines:
    """The committed trajectory must stay loadable and reproducible."""

    def test_at_least_two_baselines_committed(self):
        names = sorted(p.name for p in BASELINE_DIR.glob("BENCH_*.json"))
        assert len(names) >= 2
        assert "BENCH_fig11_degradation.json" in names
        assert "BENCH_serve_batching.json" in names

    def test_baselines_load_under_current_schema(self):
        for path in BASELINE_DIR.glob("BENCH_*.json"):
            art = load(path)
            assert art.schema_version == SCHEMA_VERSION
            assert art.metrics, path.name
            assert path.read_text() == art.to_json()

    def test_every_baseline_has_a_registered_scenario(self):
        committed = {
            load(p).name for p in BASELINE_DIR.glob("BENCH_*.json")
        }
        assert committed == set(scenario_names())

    def test_serve_batching_baseline_is_fresh(self, tmp_path):
        """Re-running the scenario at the committed seed reproduces the
        committed bytes — a stale baseline fails here, not in CI."""
        scenario = get_scenario("serve_batching")
        baseline = load(BASELINE_DIR / "BENCH_serve_batching.json")
        art = scenario.run(seed=baseline.seed, workdir=tmp_path)
        assert art.to_json() == baseline.to_json()
