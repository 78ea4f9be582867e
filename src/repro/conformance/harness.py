"""The conformance harness: randomized cross-engine agreement testing.

One :func:`run_conformance` call draws ``seeds × trials`` randomized
(graph, scenario, root) triples, runs every registered engine on each,
and applies two families of checks:

* **differential** — tree validity, distance equality and parent
  admissibility against the reference oracle (:mod:`.oracles`);
* **metamorphic** — permutation, duplicate-edge, α/β-schedule and
  fault-vs-clean invariances (:mod:`.relations`), each on a rotating
  subset of the applicable engines so a trial stays cheap.

Any failure is shrunk to a minimal counterexample (:mod:`.shrinker`) and
persisted as a replayable artifact (:mod:`.artifact`).  Everything —
graph draws, scenario draws, relation seeds, engine rotation — derives
from ``numpy`` generators seeded by ``(seed, trial)``, so two runs of
the same config produce the same report, the same failures and the same
artifact bytes.

The graph draws deliberately include the shapes that historically break
BFS engines: Kronecker graphs (the paper's workload), uniform multigraph
noise with self-loops and duplicates, and fragmented graphs whose upper
vertex range is entirely isolated (so roots land in tiny components or
on isolated vertices).
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.graph500 import EdgeList, generate_edges
from repro.graph500.edgelist import EdgeList as _EdgeList  # noqa: F401
from repro.numa.topology import NumaTopology
from repro.obs.schema import (
    M_CONF_ARTIFACTS,
    M_CONF_CHECKS,
    M_CONF_FAILURES,
    M_CONF_SHRINK_EVALS,
    M_CONF_TRIALS,
)
from repro.obs.session import NULL, Observability
from repro.semiext.faults import FaultPlan

from repro.conformance.artifact import ReproArtifact
from repro.conformance.oracles import differential_failures
from repro.conformance.registry import (
    EngineSpec,
    GraphCase,
    TrialSetup,
    engine_names,
    get_engine,
)
from repro.conformance.relations import (
    MetamorphicRelation,
    get_relation,
    relation_names,
)
from repro.conformance.shrinker import shrink_case

__all__ = [
    "ConformanceConfig",
    "ConformanceFailure",
    "ConformanceReport",
    "run_conformance",
]


@dataclass(frozen=True)
class ConformanceConfig:
    """What one conformance run covers.

    ``engines``/``relations`` empty means "all registered"; the
    reference engine is always included (it anchors the differential
    checks and must itself pass validity).
    """

    seeds: tuple[int, ...] = (7, 19, 101)
    trials: int = 3
    max_scale: int = 8
    engines: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()
    artifact_dir: str | None = "conformance"
    shrink: bool = True
    max_shrink_evals: int = 300
    relation_engines: int = 2  # engines exercised per relation per trial

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1: {self.trials}")
        if not 2 <= self.max_scale <= 16:
            raise ConfigurationError(
                f"max_scale must be in [2, 16]: {self.max_scale}"
            )
        for name in self.engines:
            get_engine(name)  # fail fast on typos
        for name in self.relations:
            get_relation(name)

    def resolved_engines(self) -> tuple[str, ...]:
        """The engine set to run, reference always first."""
        names = self.engines or engine_names()
        ordered = ["reference"] + [n for n in names if n != "reference"]
        return tuple(dict.fromkeys(ordered))

    def resolved_relations(self) -> tuple[str, ...]:
        """The metamorphic relation set to apply."""
        return self.relations or relation_names()


@dataclass(frozen=True)
class ConformanceFailure:
    """One confirmed disagreement, post-shrink."""

    seed: int
    trial: int
    engine: str
    check: str  # "differential:<oracle>" | "metamorphic:<relation>"
    message: str
    artifact: str | None  # path, when an artifact directory was configured

    def __str__(self) -> str:
        where = f" -> {self.artifact}" if self.artifact else ""
        return (f"[seed {self.seed} trial {self.trial}] {self.engine} "
                f"{self.check}: {self.message}{where}")


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of one :func:`run_conformance` call."""

    engines: tuple[str, ...]
    seeds: tuple[int, ...]
    trials: int
    checks: int
    failures: tuple[ConformanceFailure, ...]
    artifacts: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every check on every engine passed."""
        return not self.failures

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"conformance: {len(self.engines)} engines "
            f"({', '.join(self.engines)})",
            f"seeds {list(self.seeds)} x {self.trials // len(self.seeds)} "
            f"trials = {self.trials} trials, {self.checks} checks",
        ]
        if self.ok:
            lines.append("all checks passed")
        else:
            lines.append(f"{len(self.failures)} FAILURE(S):")
            lines += [f"  {f}" for f in self.failures]
        return "\n".join(lines)

    def to_json(self) -> str:
        """The machine-readable ``conformance_report.json`` summary."""
        return json.dumps({
            "engines": list(self.engines),
            "seeds": list(self.seeds),
            "trials": self.trials,
            "checks": self.checks,
            "ok": self.ok,
            "failures": [asdict(f) for f in self.failures],
        }, sort_keys=True, indent=1) + "\n"


def _draw_case(rng: np.random.Generator, max_scale: int) -> GraphCase:
    """One randomized graph: Kronecker, uniform noise, or fragmented."""
    scale = int(rng.integers(3, max_scale + 1))
    n = 1 << scale
    style = int(rng.integers(0, 3))
    if style == 0:  # the paper's workload
        endpoints = generate_edges(
            scale,
            edge_factor=int(rng.integers(2, 9)),
            seed=int(rng.integers(1 << 31)),
        )
    elif style == 1:  # uniform multigraph: duplicates and self-loops
        m = int(rng.integers(1, 4 * n))
        endpoints = np.stack([
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
        ]).astype(np.int64)
    else:  # fragmented: the upper half of the id range is isolated
        live = max(n // 2, 1)
        m = int(rng.integers(1, 2 * live + 1))
        endpoints = np.stack([
            rng.integers(0, live, size=m),
            rng.integers(0, live, size=m),
        ]).astype(np.int64)
    topology = NumaTopology(
        n_nodes=int(rng.choice([1, 2, 4])), cores_per_node=2
    )
    return GraphCase(EdgeList(endpoints, n), topology)


def _draw_setup(rng: np.random.Generator) -> TrialSetup:
    """One randomized scenario: device, schedule, maybe a fault plan."""
    fault = None
    if rng.random() < 0.4:
        fault = FaultPlan(
            seed=int(rng.integers(1 << 31)),
            error_rate=0.04,
            torn_rate=0.02,
            gc_rate=0.03,
        )
    return TrialSetup(
        device="pcie" if rng.random() < 0.5 else "ssd",
        alpha=float(rng.choice([2.0, 8.0, 64.0, 1e4])),
        beta=float(rng.choice([4.0, 32.0, 256.0, 1e5])),
        fault=fault,
    )


def _differential(spec: EngineSpec, case: GraphCase, setup: TrialSetup,
                  root: int, workdir: Path) -> list[tuple[str, str]]:
    """Run one engine and return its failing differential checks."""
    try:
        result = spec.run(case, setup, root, workdir)
    except Exception as exc:
        return [("crash", f"{type(exc).__name__}: {exc}")]
    ref = get_engine("reference").run(case, setup, root, workdir)
    return differential_failures(case.edges, ref.parent, result, root)


def _relation_fails(relation: MetamorphicRelation, spec: EngineSpec,
                    case: GraphCase, setup: TrialSetup, root: int,
                    seed: int, workdir: Path) -> str | None:
    try:
        return relation.check(spec, case, setup, root, seed, workdir)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def run_conformance(
    config: ConformanceConfig,
    obs: Observability = NULL,
    workdir: str | Path | None = None,
) -> ConformanceReport:
    """Execute the harness and return a deterministic report.

    ``workdir`` hosts the per-engine NVM store files (scratch space, not
    part of the result); artifacts go to ``config.artifact_dir``.
    """
    if workdir is not None:
        return _run_in(config, obs, Path(workdir))
    with tempfile.TemporaryDirectory(prefix="repro-conf-") as scratch:
        return _run_in(config, obs, Path(scratch))


def _run_in(config: ConformanceConfig, obs: Observability,
            workdir: Path) -> ConformanceReport:
    engines = config.resolved_engines()
    relations = config.resolved_relations()
    failures: list[ConformanceFailure] = []
    artifacts: list[str] = []
    checks = trials = 0

    for seed in config.seeds:
        for trial in range(config.trials):
            rng = np.random.default_rng([seed, trial])
            case = _draw_case(rng, config.max_scale)
            setup = _draw_setup(rng)
            root = int(rng.integers(0, case.n_vertices))
            trials += 1
            obs.counter(M_CONF_TRIALS).inc()
            with obs.span("conformance.trial", seed=seed, trial=trial,
                          n=case.n_vertices, root=root):
                # -- differential sweep over every engine ------------------
                for name in engines:
                    spec = get_engine(name)
                    for check in ("validity", "distance", "admissibility"):
                        obs.counter(M_CONF_CHECKS, engine=name,
                                    check=check).inc()
                        checks += 1
                    for check, message in _differential(
                        spec, case, setup, root, workdir
                    ):
                        failures.append(_handle_failure(
                            config, obs, workdir, seed, trial, spec,
                            f"differential:{check}", message, case, setup,
                            root, int(rng.integers(1 << 31)), artifacts,
                        ))
                # -- metamorphic relations on rotating engine subsets ------
                for rel_name in relations:
                    relation = get_relation(rel_name)
                    applicable = [n for n in engines
                                  if relation.applies(get_engine(n))]
                    if not applicable:
                        continue
                    k = min(len(applicable), config.relation_engines)
                    chosen = rng.choice(applicable, size=k, replace=False)
                    for name in chosen:
                        spec = get_engine(str(name))
                        rel_seed = int(rng.integers(1 << 31))
                        obs.counter(M_CONF_CHECKS, engine=spec.name,
                                    check=rel_name).inc()
                        checks += 1
                        message = _relation_fails(
                            relation, spec, case, setup, root, rel_seed,
                            workdir,
                        )
                        if message is not None:
                            failures.append(_handle_failure(
                                config, obs, workdir, seed, trial, spec,
                                f"metamorphic:{rel_name}", message, case,
                                setup, root, rel_seed, artifacts,
                            ))

    return ConformanceReport(
        engines=engines,
        seeds=config.seeds,
        trials=trials,
        checks=checks,
        failures=tuple(failures),
        artifacts=tuple(artifacts),
    )


def _handle_failure(
    config: ConformanceConfig,
    obs: Observability,
    workdir: Path,
    seed: int,
    trial: int,
    spec: EngineSpec,
    check: str,
    message: str,
    case: GraphCase,
    setup: TrialSetup,
    root: int,
    check_seed: int,
    artifacts: list[str],
) -> ConformanceFailure:
    """Shrink a failure, persist its artifact, return the record."""
    obs.counter(M_CONF_FAILURES, engine=spec.name, check=check).inc()
    kind, _, name = check.partition(":")
    edges, shrunk_root = case.edges, root
    steps = evals = 0
    if config.shrink:
        predicate = _failing_predicate(spec, check, setup, check_seed,
                                       workdir, case.topology)
        with obs.span("conformance.shrink", engine=spec.name, check=check):
            outcome = shrink_case(case.edges, root, predicate,
                                  max_evals=config.max_shrink_evals)
        edges, shrunk_root = outcome.edges, outcome.root
        steps, evals = outcome.steps, outcome.evals
        obs.counter(M_CONF_SHRINK_EVALS).inc(evals)
    artifact = ReproArtifact.from_case(
        engine=spec.name,
        check=check,
        message=message,
        seed=check_seed,
        edges=edges,
        root=shrunk_root,
        setup=setup,
        shrink_steps=steps,
        shrink_evals=evals,
        original={
            "n_vertices": int(case.n_vertices),
            "n_edges": int(case.edges.endpoints.shape[1]),
            "root": int(root),
        },
    )
    path: str | None = None
    if config.artifact_dir is not None:
        path = str(artifact.write(config.artifact_dir))
        artifacts.append(path)
        obs.counter(M_CONF_ARTIFACTS, engine=spec.name).inc()
    return ConformanceFailure(
        seed=seed, trial=trial, engine=spec.name, check=check,
        message=message, artifact=path,
    )


def _failing_predicate(
    spec: EngineSpec,
    check: str,
    setup: TrialSetup,
    check_seed: int,
    workdir: Path,
    topology: NumaTopology,
) -> Callable[[EdgeList, int], bool]:
    """The shrinker's oracle: does this exact check still fail?"""
    kind, _, name = check.partition(":")

    def failing(edges: EdgeList, root: int) -> bool:
        candidate = GraphCase(edges, topology)
        if kind == "metamorphic":
            return _relation_fails(get_relation(name), spec, candidate,
                                   setup, root, check_seed,
                                   workdir) is not None
        observed = _differential(spec, candidate, setup, root, workdir)
        return any(c == name for c, _ in observed)

    return failing
