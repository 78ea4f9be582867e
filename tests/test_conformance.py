"""The conformance subsystem: registry, oracles, harness, CLI, gate."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.conformance import (
    ConformanceConfig,
    ConformanceReport,
    GraphCase,
    ReproArtifact,
    TrialSetup,
    check_admissibility,
    check_distance,
    check_validity,
    differential_failures,
    engine_names,
    get_engine,
    register_engine,
    relation_names,
    relations_for,
    run_conformance,
    run_engine,
    unregister_engine,
)
from repro.errors import ConfigurationError
from repro.graph500.edgelist import EdgeList
from repro.obs import Observability

ALL_ENGINES = {"reference", "topdown", "bottomup", "hybrid", "parallel",
               "semi_external", "tiered", "fully_external", "batched",
               "partitioned", "dynamic"}


def _case(pairs, n):
    endpoints = np.array(pairs, dtype=np.int64).T.reshape(2, -1)
    return GraphCase(EdgeList(endpoints, n))


@pytest.fixture()
def path_case():
    # 0-1-2-3 plus an isolated vertex 4.
    return _case([(0, 1), (1, 2), (2, 3)], 5)


@pytest.fixture()
def lossy_engine():
    """A hybrid clone that forgets the last vertex it discovered."""
    real = get_engine("hybrid")

    def broken(case, setup, root, workdir):
        result = real.run(case, setup, root, workdir)
        found = np.flatnonzero(result.parent != -1)
        found = found[found != root]
        if found.size:
            result.parent[found[-1]] = -1
        return result

    register_engine(replace(real, name="lossy", run=broken))
    yield "lossy"
    unregister_engine("lossy")


class TestRegistry:
    def test_all_engines_registered(self):
        assert set(engine_names()) == ALL_ENGINES

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            get_engine("nope")

    def test_double_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_engine(get_engine("hybrid"))

    def test_replace_and_unregister(self):
        spec = replace(get_engine("hybrid"), name="tmp")
        register_engine(spec)
        register_engine(spec, replace=True)
        unregister_engine("tmp")
        with pytest.raises(ConfigurationError):
            get_engine("tmp")

    def test_every_engine_agrees_on_a_path(self, path_case, tmp_path):
        setup = TrialSetup()
        ref = run_engine("reference", path_case, setup, 0, tmp_path)
        for name in engine_names():
            res = run_engine(name, path_case, setup, 0, tmp_path)
            assert differential_failures(
                path_case.edges, ref.parent, res, 0
            ) == [], name

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError):
            TrialSetup(device="floppy")

    def test_setup_description_round_trips(self):
        from repro.semiext.faults import FaultPlan

        setup = TrialSetup(device="ssd", alpha=4.0, beta=8.0,
                           fault=FaultPlan(seed=3, error_rate=0.1))
        again = TrialSetup.from_description(setup.describe())
        assert again == setup

    def test_relations_respect_applicability(self):
        assert {r.name for r in relations_for(get_engine("reference"))} == {
            "permutation", "duplicates",
        }
        assert {r.name for r in relations_for(get_engine("semi_external"))} \
            == set(relation_names()) - {"mutation_idempotence",
                                        "mutation_commute"}
        assert {r.name for r in relations_for(get_engine("dynamic"))} == {
            "permutation", "duplicates",
            "mutation_idempotence", "mutation_commute",
        }

    def test_crash_fields_survive_describe_round_trip(self):
        from repro.semiext.faults import FaultPlan

        setup = TrialSetup(fault=FaultPlan(
            seed=5, crash_at_level=2, crash_torn=True,
        ))
        assert TrialSetup.from_description(setup.describe()) == setup


class TestOracles:
    def test_correct_tree_passes_all(self, path_case, tmp_path):
        ref = run_engine("reference", path_case, TrialSetup(), 0, tmp_path)
        assert check_validity(path_case.edges, ref, 0) is None
        assert check_distance(path_case.edges, ref.parent, ref, 0) is None
        assert check_admissibility(path_case.edges, ref.parent, ref, 0) is None

    def test_distance_mismatch_detected(self, path_case, tmp_path):
        ref = run_engine("reference", path_case, TrialSetup(), 0, tmp_path)
        wrong = run_engine("reference", path_case, TrialSetup(), 0, tmp_path)
        wrong.parent[3] = -1  # vertex 3 never found
        assert "distance" in check_distance(
            path_case.edges, ref.parent, wrong, 0
        )

    def test_fabricated_parent_detected(self, path_case, tmp_path):
        # Vertex 3 claims parent 1: right level parity is impossible and
        # (1, 3) is not an edge — admissibility must fire even though
        # the levels array alone (0,1,2,2) looks like a plain mistake.
        ref = run_engine("reference", path_case, TrialSetup(), 0, tmp_path)
        wrong = run_engine("reference", path_case, TrialSetup(), 0, tmp_path)
        wrong.parent[3] = 1
        assert check_admissibility(
            path_case.edges, ref.parent, wrong, 0
        ) is not None

    def test_out_of_range_parent_detected(self, path_case, tmp_path):
        ref = run_engine("reference", path_case, TrialSetup(), 0, tmp_path)
        wrong = run_engine("reference", path_case, TrialSetup(), 0, tmp_path)
        wrong.parent[3] = 99
        assert "outside" in check_admissibility(
            path_case.edges, ref.parent, wrong, 0
        )


class TestCrashResumeRelation:
    """The durability relation holds for every recoverable engine."""

    RECOVERABLE = ("semi_external", "fully_external", "batched")

    def test_only_external_engines_are_recoverable(self):
        for name in engine_names():
            spec = get_engine(name)
            assert (spec.recoverable is not None) == (
                name in self.RECOVERABLE
            ), name

    @pytest.mark.parametrize("engine", RECOVERABLE)
    @pytest.mark.parametrize("seed", [7, 19, 101])
    def test_crash_resume_bit_identical(self, engine, seed, tmp_path):
        from repro.conformance.relations import get_relation
        from repro.graph500 import generate_edges

        endpoints = generate_edges(scale=7, edge_factor=8, seed=3)
        case = GraphCase(EdgeList(endpoints, 1 << 7))
        spec = get_engine(engine)
        relation = get_relation("crash_resume")
        assert relation.applies(spec)
        failure = relation.check(
            spec, case, TrialSetup(), 1, seed, tmp_path
        )
        assert failure is None, failure


class TestHarness:
    QUICK = dict(trials=2, max_scale=6, artifact_dir=None)

    def test_quick_passes_on_three_seeds_all_engines(self):
        report = run_conformance(
            ConformanceConfig(seeds=(7, 19, 101), **self.QUICK)
        )
        assert report.ok, report.render()
        assert set(report.engines) == ALL_ENGINES
        assert report.trials == 6
        assert report.checks > 0

    def test_same_seed_runs_are_deterministic(self):
        config = ConformanceConfig(seeds=(19,), **self.QUICK)
        assert run_conformance(config) == run_conformance(config)

    def test_engine_subset_and_render(self):
        report = run_conformance(ConformanceConfig(
            seeds=(7,), trials=1, max_scale=5, artifact_dir=None,
            engines=("hybrid",),
        ))
        # the reference is always pulled in as the oracle anchor
        assert report.engines == ("reference", "hybrid")
        assert "all checks passed" in report.render()

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ConformanceConfig(seeds=())
        with pytest.raises(ConfigurationError):
            ConformanceConfig(trials=0)
        with pytest.raises(ConfigurationError):
            ConformanceConfig(engines=("nope",))
        with pytest.raises(ConfigurationError):
            ConformanceConfig(max_scale=1)

    def test_broken_engine_yields_shrunk_replayable_artifact(
        self, lossy_engine, tmp_path
    ):
        config = ConformanceConfig(
            seeds=(7,), trials=2, max_scale=6,
            engines=("reference", lossy_engine),
            artifact_dir=str(tmp_path / "conf"),
        )
        report = run_conformance(config)
        assert not report.ok
        assert report.artifacts
        artifact = ReproArtifact.load(report.failures[0].artifact)
        assert artifact.engine == lossy_engine
        # genuinely shrunk below the original trial draw
        assert artifact.n_vertices < artifact.original["n_vertices"]
        outcome = artifact.replay()
        assert outcome.reproduced
        assert artifact.replay() == outcome  # deterministic replay

    def test_obs_counters_recorded(self):
        from repro.obs.schema import M_CONF_CHECKS, M_CONF_TRIALS

        obs = Observability()
        run_conformance(
            ConformanceConfig(seeds=(7,), trials=1, max_scale=5,
                              artifact_dir=None, engines=("hybrid",)),
            obs=obs,
        )
        names = set(obs.registry.names())
        assert M_CONF_TRIALS in names
        assert M_CONF_CHECKS in names
        spans = {s.name for s in obs.tracer.spans}
        assert "conformance.trial" in spans


class TestCli:
    def test_quick_run_exit_zero(self, capsys, tmp_path):
        code = main(["conformance", "--quick", "--seeds", "7",
                     "--out", str(tmp_path / "conf")])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_quick_sets_defaults_explicit_flags_win(self, monkeypatch,
                                                    tmp_path):
        import repro.conformance

        seen = []

        def fake_run(config, obs):
            seen.append(config)
            return ConformanceReport(engines=(), seeds=config.seeds,
                                     trials=0, checks=0, failures=())

        monkeypatch.setattr(repro.conformance, "run_conformance", fake_run)
        for flags in ([], ["--scale", "10"], ["--trials", "4"]):
            assert main(["conformance", "--quick", "--seeds", "7", *flags,
                         "--out", str(tmp_path)]) == 0
        assert [(c.trials, c.max_scale) for c in seen] == [
            (2, 6), (2, 10), (4, 6),
        ]

    def test_bad_engine_usage_error(self, capsys, tmp_path):
        code = main(["conformance", "--engines", "nope",
                     "--out", str(tmp_path / "conf")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_replay_missing_artifact_usage_error(self, capsys, tmp_path):
        code = main(["conformance", "--replay", str(tmp_path / "no.json")])
        assert code == 2

    def test_failure_artifact_and_replay_flow(
        self, lossy_engine, capsys, tmp_path
    ):
        out = tmp_path / "conf"
        code = main(["conformance", "--seeds", "7", "--trials", "2",
                     "--scale", "6", "--engines", "reference", lossy_engine,
                     "--out", str(out)])
        assert code == 1
        artifacts = sorted(out.glob("repro_*.json"))
        assert artifacts
        capsys.readouterr()
        # replay reproduces deterministically: exit 1, identical output
        code1 = main(["conformance", "--replay", str(artifacts[0])])
        out1 = capsys.readouterr().out
        code2 = main(["conformance", "--replay", str(artifacts[0])])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 1
        assert out1 == out2
        assert "REPRODUCED" in out1

    def test_obs_export_written(self, capsys, tmp_path):
        code = main(["conformance", "--seeds", "7", "--trials", "1",
                     "--scale", "5", "--engines", "hybrid",
                     "--out", str(tmp_path / "conf"),
                     "--obs", str(tmp_path / "obs")])
        assert code == 0
        assert (tmp_path / "obs" / "metrics.prom").exists()


class TestGate:
    def test_gate_writes_report_and_passes(self, tmp_path, capsys):
        out = tmp_path / "conf"
        code = main(["conformance", "--quick", "--seeds", "7",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "conformance_report.json").read_text())
        assert summary["ok"] is True
        assert set(summary["engines"]) == ALL_ENGINES
