#!/usr/bin/env python
"""Bench trend: render metric history across BENCH_*.json snapshots.

Takes two or more artifact directories in chronological order (each the
output of ``repro-bfs perf``, e.g. the committed
``benchmarks/baselines`` followed by one directory per CI run) and
prints, per scenario, every metric's value at each snapshot
plus the relative change from the first snapshot to the last — with the
change flagged when it moves past the *first* snapshot's declared noise
tolerance in the metric's bad direction.  The perf gate answers "did
this run regress"; the trend table answers "where has this metric been
drifting".

Usage::

    repro-bfs perf --out bench-out
    python tools/bench_trend.py benchmarks/baselines bench-out
    python tools/bench_trend.py run1/ run2/ run3/ --scenario dist_scaling

Exit codes: 0 rendered, 2 usage/IO error (a scenario missing from a
later snapshot renders as ``-`` rather than failing — trend is a
report, not a gate).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO / "src"))

from repro.errors import ConfigurationError  # noqa: E402
from repro.perf import load  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    """The trend renderer's command line."""
    parser = argparse.ArgumentParser(
        prog="bench_trend",
        description="Render metric trends across BENCH_*.json artifact "
                    "directories (oldest first).",
    )
    parser.add_argument("dirs", nargs="+", metavar="DIR",
                        help="artifact directories, oldest to newest")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="restrict to one scenario (repeatable; "
                             "default: every scenario in the oldest "
                             "snapshot)")
    return parser


def _snapshot(directory: Path) -> dict:
    """Load every BENCH_*.json under ``directory``, keyed by scenario."""
    artifacts = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        artifact = load(path)
        artifacts[artifact.name] = artifact
    return artifacts


def _format_value(value: float) -> str:
    if value == 0.0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.4g}"


def render_trend(snapshots: list[tuple[str, dict]],
                 scenarios: list[str] | None = None) -> str:
    """The trend table over ``(label, {name: artifact})`` snapshots.

    Scenario and metric sets are anchored on the oldest snapshot; a
    value absent from a later snapshot renders as ``-``.  The ``drift``
    column is the first-to-last relative change, suffixed with ``!``
    when it exceeds the oldest snapshot's tolerance in the metric's bad
    direction.
    """
    if len(snapshots) < 2:
        raise ConfigurationError(
            "trend needs at least two snapshots (oldest first)"
        )
    first_label, first = snapshots[0]
    names = scenarios if scenarios else sorted(first)
    lines: list[str] = []
    for name in names:
        base = first.get(name)
        if base is None:
            raise ConfigurationError(
                f"scenario {name!r} not in oldest snapshot "
                f"{first_label!r}; have {sorted(first)}"
            )
        headers = (["metric"] + [label for label, _ in snapshots]
                   + ["drift"])
        rows: list[list[str]] = []
        for metric_name in sorted(base.metrics):
            base_metric = base.metrics[metric_name]
            cells = [metric_name]
            last_value = None
            for _, artifacts in snapshots:
                artifact = artifacts.get(name)
                metric = (
                    artifact.metrics.get(metric_name)
                    if artifact is not None else None
                )
                if metric is None:
                    cells.append("-")
                else:
                    cells.append(_format_value(metric.value))
                    last_value = metric.value
            if last_value is None or base_metric.value == 0:
                drift = "-" if last_value is None else (
                    "0%" if last_value == 0 else "new"
                )
            else:
                rel = (
                    (last_value - base_metric.value)
                    / abs(base_metric.value)
                )
                worse = -rel if base_metric.higher_is_better else rel
                flag = "!" if worse > base_metric.tolerance else ""
                drift = f"{rel:+.2%}{flag}"
            cells.append(drift)
            rows.append(cells)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines.append(f"== {name} (seed {base.seed}) ==")
        lines.append("  ".join(
            h.ljust(widths[i]) for i, h in enumerate(headers)
        ).rstrip())
        for row in rows:
            lines.append("  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    snapshots: list[tuple[str, dict]] = []
    try:
        for directory in args.dirs:
            path = Path(directory)
            if not path.is_dir():
                print(f"error: {directory}: not a directory",
                      file=sys.stderr)
                return 2
            snapshots.append((str(directory), _snapshot(path)))
        print(render_trend(snapshots, scenarios=args.scenario), end="")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
