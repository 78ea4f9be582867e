"""repro.perf — named benchmark scenarios and their BENCH_*.json record.

The performance-trajectory layer: :mod:`repro.perf.scenarios` registers
seeded, headless benchmark scenarios; :mod:`repro.perf.artifact` defines
the schema-versioned ``BENCH_<name>.json`` they emit and the
tolerance-aware diff and gate behind it.  ``repro-bfs perf`` is the
command-line front end; the committed baselines live in
``benchmarks/baselines/``.
"""

from repro.perf.artifact import (
    SCHEMA_VERSION,
    BenchArtifact,
    BenchMetric,
    MetricDelta,
    artifact_path,
    compare,
    gate,
    load,
)
from repro.perf.scenarios import (
    SCENARIOS,
    BenchScenario,
    get_scenario,
    scenario_names,
)

__all__ = [
    "SCHEMA_VERSION",
    "BenchArtifact",
    "BenchMetric",
    "MetricDelta",
    "artifact_path",
    "compare",
    "gate",
    "load",
    "SCENARIOS",
    "BenchScenario",
    "get_scenario",
    "scenario_names",
]
