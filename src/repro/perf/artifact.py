"""Schema-versioned ``BENCH_<name>.json`` artifacts and their diffing.

A :class:`BenchArtifact` is the machine-readable record one benchmark
scenario produces: a named bag of :class:`BenchMetric` values (TEPS,
bytes/query, degradation percentages, …), the seed and parameters that
produced them, and the simulated seconds the run covered.  The JSON
rendering is canonical (sorted keys, fixed indent), so a same-seed
re-run writes a byte-identical file — which is what lets
:func:`compare` treat any difference beyond a metric's declared noise
``tolerance`` as a real regression rather than jitter.

``SCHEMA_VERSION`` gates forward compatibility: :func:`load` refuses an
artifact written by a different schema instead of mis-reading it.
:func:`gate` is the perf gate behind ``repro-bfs perf --baseline``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "SCHEMA_VERSION",
    "BenchMetric",
    "BenchArtifact",
    "MetricDelta",
    "artifact_path",
    "load",
    "compare",
    "gate",
]

#: Version stamped into (and required of) every artifact.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchMetric:
    """One measured value with its comparison semantics."""

    value: float
    unit: str
    higher_is_better: bool
    tolerance: float = 0.05  # relative change treated as noise

    def to_dict(self) -> dict:
        """JSON-safe rendering."""
        return {
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class BenchArtifact:
    """Everything one scenario run measured."""

    name: str
    description: str
    seed: int
    params: dict = field(default_factory=dict)
    simulated_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)  # name -> BenchMetric
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """Deterministic nested-dict rendering."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "params": dict(sorted(self.params.items())),
            "simulated_seconds": self.simulated_seconds,
            "metrics": {
                k: self.metrics[k].to_dict()
                for k in sorted(self.metrics)
            },
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for same-seed runs."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def write(self, outdir: str | Path) -> Path:
        """Write ``BENCH_<name>.json`` into ``outdir``; returns the path."""
        out = artifact_path(outdir, self.name)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json())
        return out


def artifact_path(outdir: str | Path, name: str) -> Path:
    """Where scenario ``name``'s artifact lives under ``outdir``."""
    return Path(outdir) / f"BENCH_{name}.json"


def load(path: str | Path) -> BenchArtifact:
    """Read an artifact back, refusing unknown schema versions."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read artifact {path}: {exc}")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path}: artifact schema_version {version!r} "
            f"!= supported {SCHEMA_VERSION}"
        )
    metrics = {
        k: BenchMetric(
            value=float(m["value"]),
            unit=str(m["unit"]),
            higher_is_better=bool(m["higher_is_better"]),
            tolerance=float(m.get("tolerance", 0.05)),
        )
        for k, m in raw.get("metrics", {}).items()
    }
    return BenchArtifact(
        name=str(raw["name"]),
        description=str(raw.get("description", "")),
        seed=int(raw.get("seed", 0)),
        params=dict(raw.get("params", {})),
        simulated_seconds=float(raw.get("simulated_seconds", 0.0)),
        metrics=metrics,
        schema_version=int(version),
    )


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-candidate verdict."""

    name: str
    unit: str
    baseline: float | None
    candidate: float | None
    rel_change: float  # signed, candidate relative to baseline
    tolerance: float
    higher_is_better: bool
    status: str  # "ok" | "improved" | "regression" | "missing"

    @property
    def is_regression(self) -> bool:
        """True when this delta should fail the gate."""
        return self.status in ("regression", "missing")


def _delta(name: str, base: BenchMetric,
           cand: BenchMetric | None) -> MetricDelta:
    if cand is None:
        return MetricDelta(
            name=name, unit=base.unit, baseline=base.value, candidate=None,
            rel_change=0.0, tolerance=base.tolerance,
            higher_is_better=base.higher_is_better, status="missing",
        )
    if base.value == 0:
        rel = 0.0 if cand.value == 0 else float("inf")
    else:
        rel = (cand.value - base.value) / abs(base.value)
    # The *baseline* declares the comparison semantics: a candidate
    # cannot loosen its own gate by shipping a bigger tolerance.
    worse = -rel if base.higher_is_better else rel
    if worse > base.tolerance:
        status = "regression"
    elif worse < -base.tolerance:
        status = "improved"
    else:
        status = "ok"
    return MetricDelta(
        name=name, unit=base.unit, baseline=base.value,
        candidate=cand.value, rel_change=rel, tolerance=base.tolerance,
        higher_is_better=base.higher_is_better, status=status,
    )


def compare(baseline: BenchArtifact,
            candidate: BenchArtifact) -> list[MetricDelta]:
    """Diff ``candidate`` against ``baseline``, metric by metric.

    Every baseline metric must be present in the candidate (absence is
    a ``missing`` failure — a deleted metric must be removed from the
    baseline deliberately, not silently dropped).  Extra candidate
    metrics are ignored: adding instrumentation is not a regression.
    """
    if baseline.name != candidate.name:
        raise ConfigurationError(
            f"comparing different scenarios: baseline "
            f"{baseline.name!r} vs candidate {candidate.name!r}"
        )
    return [
        _delta(name, baseline.metrics[name], candidate.metrics.get(name))
        for name in sorted(baseline.metrics)
    ]


def _delta_line(d: MetricDelta) -> str:
    if d.status == "missing":
        return (f"  {d.name:28s} MISSING from candidate "
                f"(baseline {d.baseline:g} {d.unit})")
    direction = "higher" if d.higher_is_better else "lower"
    return (f"  {d.name:28s} {d.baseline:>14g} -> "
            f"{d.candidate:>14g} {d.unit:4s} "
            f"{d.rel_change:+8.2%} "
            f"(tol {d.tolerance:.0%}, {direction} is better): "
            f"{d.status.upper()}")


def gate(baseline_dir: str | Path, candidates: dict,
         subset: bool = False) -> int:
    """Gate fresh ``candidates`` (name -> artifact) against baselines.

    Prints every metric line of every ``BENCH_*.json`` in
    ``baseline_dir`` and returns the exit code: ``1`` on a regression,
    a missing metric, or a baseline no candidate answers; ``2`` when
    the directory holds no readable baseline; ``0`` otherwise.  With
    ``subset`` (only some scenarios were run) an unanswered baseline is
    skipped instead of failing.  A candidate without a baseline is
    reported but not gated.
    """
    paths = sorted(Path(baseline_dir).glob("BENCH_*.json"))
    if not paths:
        print(f"error: no BENCH_*.json baselines in {baseline_dir}",
              file=sys.stderr)
        return 2
    try:
        baselines = [load(path) for path in paths]
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = skipped = 0
    for baseline in baselines:
        candidate = candidates.get(baseline.name)
        if candidate is None:
            if subset:
                print(f"{baseline.name}: skipped (not run)")
                skipped += 1
            else:
                print(f"{baseline.name}: FAIL — candidate missing "
                      f"(no registered scenario produced it)")
                failures += 1
            continue
        print(f"{baseline.name}:")
        for d in compare(baseline, candidate):
            print(_delta_line(d))
            failures += d.is_regression
    for name in sorted(set(candidates) - {b.name for b in baselines}):
        print(f"{name}: no baseline in {baseline_dir} (not gated)")
    gated = len(baselines) - skipped
    if failures:
        print(f"\nperf gate: FAIL ({failures} regressing "
              f"metric(s) across {gated} scenario(s))")
        return 1
    print(f"\nperf gate: PASS ({gated} scenario(s) within tolerance)")
    return 0
