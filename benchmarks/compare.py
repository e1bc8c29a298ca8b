#!/usr/bin/env python3
"""Compare a pytest-benchmark JSON run against the committed baseline.

The CI perf job runs the benchmark suite with ``--benchmark-json=bench.json``
and then::

    python benchmarks/compare.py BENCH_BASELINE.json bench.json

Exit status 1 means a *tracked hot path* regressed beyond the tolerance
(default: 2x the baseline mean, overridable per invocation and per
baseline file).  Benchmarks faster than ``min_seconds`` in both runs are
ignored — micro-timings below that floor are scheduler noise, not signal.

Baseline maintenance::

    python benchmarks/compare.py BENCH_BASELINE.json bench.json --update

refreshes the recorded means for the tracked benchmarks (and, for a brand
new baseline, seeds the tracked set from ``--track`` glob patterns).

Run-event attribution::

    REPRO_RUN_EVENTS=events.jsonl pytest benchmarks ...
    python benchmarks/compare.py BENCH_BASELINE.json bench.json --events events.jsonl

appends a per-operator time attribution digest built from the batched
executor's structured run events (see ``repro.sparql.exec.QueryRunEvent``):
which operators the benchmark time went to, how often adaptive reordering
fired, and how many rows each federation endpoint shipped.  ``--events``
alone (without baseline/run) prints just the digest.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path


DEFAULT_TOLERANCE = 2.0
#: Benchmarks whose mean is below this in both runs are never flagged.
DEFAULT_MIN_SECONDS = 0.005


class CompareError(SystemExit):
    """A comparison input is unusable; carries a human-readable message."""

    def __init__(self, message: str) -> None:
        print(f"error: {message}", file=sys.stderr)
        super().__init__(1)


def load_baseline(path: Path) -> dict:
    if not path.exists():
        return {
            "tolerance": DEFAULT_TOLERANCE,
            "min_seconds": DEFAULT_MIN_SECONDS,
            "benchmarks": {},
        }
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CompareError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(baseline, dict) or not isinstance(baseline.get("benchmarks"), dict):
        raise CompareError(
            f"{path} is not a baseline file: expected a JSON object with a "
            f"\"benchmarks\" mapping of tracked names to mean seconds"
        )
    return baseline


def load_run(path: Path) -> dict[str, float]:
    """``{benchmark name: mean seconds}`` from a pytest-benchmark JSON file."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CompareError(f"{path} is not valid JSON: {exc}") from exc
    means: dict[str, float] = {}
    for index, entry in enumerate(payload.get("benchmarks", [])):
        try:
            means[entry["name"]] = float(entry["stats"]["mean"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CompareError(
                f"{path}: benchmark entry #{index} lacks the expected "
                f"name/stats.mean shape — is this really a pytest-benchmark "
                f"--benchmark-json file?"
            ) from exc
    return means


def load_events(path: Path) -> list:
    """Parse a ``REPRO_RUN_EVENTS`` JSONL file into a list of event dicts.

    Trace spans (``"kind": "span"`` lines, rendered by ``repro trace``)
    share the file with run events and are skipped here.
    """
    if not path.exists():
        raise CompareError(f"{path}: run-events file does not exist — did the "
                           f"benchmark run export REPRO_RUN_EVENTS={path}?")
    events = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CompareError(f"{path}:{number}: not valid JSON: {exc}") from exc
        if isinstance(event, dict) and event.get("kind") == "span":
            continue
        if not isinstance(event, dict) or "engine" not in event:
            raise CompareError(
                f"{path}:{number}: not a run event — expected a JSON object "
                f"with engine/rows/operators keys (REPRO_RUN_EVENTS output)"
            )
        events.append(event)
    if not events:
        raise CompareError(f"{path}: no run events recorded")
    return events


def summarize_events(path: Path, top: int = 12) -> None:
    """Print the per-operator time attribution digest for a run-events file."""
    events = load_events(path)
    per_engine: dict[str, int] = {}
    operator_seconds: dict[str, float] = {}
    operator_rows: dict[str, int] = {}
    endpoint_rows: dict[str, int] = {}
    total_elapsed = 0.0
    total_rows = 0
    reorders = 0
    for event in events:
        per_engine[event["engine"]] = per_engine.get(event["engine"], 0) + 1
        total_elapsed += float(event.get("elapsed", 0.0))
        total_rows += int(event.get("rows", 0))
        reorders += len(event.get("adaptivity", []))
        for op in event.get("operators", []):
            name = str(op.get("operator", "?")).split(" est=")[0]
            operator_seconds[name] = operator_seconds.get(name, 0.0) + float(
                op.get("seconds", 0.0)
            )
            operator_rows[name] = operator_rows.get(name, 0) + int(op.get("rows_out", 0))
        for entry in event.get("endpoints", []):
            uri = str(entry.get("dataset", entry.get("endpoint", "?")))
            endpoint_rows[uri] = endpoint_rows.get(uri, 0) + int(
                entry.get("rows_shipped", 0)
            )
    engines = ", ".join(f"{name} x{count}" for name, count in sorted(per_engine.items()))
    print(f"\nrun-event digest from {path}:")
    print(f"  {len(events)} queries ({engines}); {total_rows} rows in "
          f"{total_elapsed * 1000:.1f} ms; {reorders} adaptive reorder(s)")
    ranked = sorted(operator_seconds.items(), key=lambda item: -item[1])
    if ranked:
        width = max(len(name) for name, _ in ranked[:top])
        print("  time by operator (inclusive):")
        for name, seconds in ranked[:top]:
            share = seconds / total_elapsed * 100 if total_elapsed else 0.0
            print(f"    {name:<{width}}  {seconds * 1000:9.2f} ms  ({share:5.1f}%)  "
                  f"{operator_rows[name]} rows")
        if len(ranked) > top:
            print(f"    ... and {len(ranked) - top} more operator(s)")
    if endpoint_rows:
        print("  rows shipped by endpoint:")
        for uri, rows in sorted(endpoint_rows.items(), key=lambda item: -item[1]):
            print(f"    {uri}: {rows}")


def update_baseline(
    baseline_path: Path,
    current: dict[str, float],
    track: list | None,
    tolerance: float | None,
) -> int:
    baseline = load_baseline(baseline_path)
    tracked = set(baseline["benchmarks"])
    if not tracked:
        patterns = track or ["*"]
        tracked = {
            name for name in current
            if any(fnmatch.fnmatch(name, pattern) for pattern in patterns)
        }
    missing = sorted(name for name in tracked if name not in current)
    if missing:
        print("error: tracked benchmarks absent from the run:", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        return 1
    baseline["benchmarks"] = {name: current[name] for name in sorted(tracked)}
    if tolerance is not None:
        baseline["tolerance"] = tolerance
    baseline_path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"baseline updated: {len(tracked)} tracked benchmarks -> {baseline_path}")
    return 0


def compare(baseline_path: Path, run_path: Path, tolerance: float | None) -> int:
    baseline = load_baseline(baseline_path)
    current = load_run(run_path)
    effective_tolerance = tolerance or float(
        baseline.get("tolerance", DEFAULT_TOLERANCE)
    )
    min_seconds = float(baseline.get("min_seconds", DEFAULT_MIN_SECONDS))

    if not baseline["benchmarks"]:
        print(f"error: {baseline_path} tracks no benchmarks; "
              f"seed it with --update --track PATTERN", file=sys.stderr)
        return 1

    regressions = []
    missing = []
    width = max(len(name) for name in baseline["benchmarks"])
    print(f"perf comparison vs {baseline_path} "
          f"(tolerance {effective_tolerance:g}x, floor {min_seconds * 1000:g} ms)")
    for name, recorded in sorted(baseline["benchmarks"].items()):
        measured = current.get(name)
        if measured is None:
            missing.append(name)
            print(f"  {name:<{width}}  MISSING from current run")
            continue
        ratio = measured / recorded if recorded > 0 else float("inf")
        verdict = "ok"
        if measured > max(recorded * effective_tolerance, min_seconds):
            verdict = "REGRESSION"
            regressions.append((name, recorded, measured, ratio))
        print(f"  {name:<{width}}  {recorded * 1000:9.2f} ms -> "
              f"{measured * 1000:9.2f} ms  ({ratio:5.2f}x)  {verdict}")

    if missing:
        print(f"\n{len(missing)} tracked benchmark(s) missing — "
              "did a hot path get renamed without updating the baseline?",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"\n{len(regressions)} tracked hot path(s) regressed "
              f"beyond {effective_tolerance:g}x:", file=sys.stderr)
        for name, recorded, measured, ratio in regressions:
            print(f"  {name}: {recorded * 1000:.2f} ms -> "
                  f"{measured * 1000:.2f} ms ({ratio:.2f}x)", file=sys.stderr)
        return 1
    print("\nall tracked hot paths within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, nargs="?", default=None,
                        help="committed BENCH_BASELINE.json")
    parser.add_argument("run", type=Path, nargs="?", default=None,
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="regression threshold as a multiple of the baseline mean")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baseline from the run instead of comparing")
    parser.add_argument("--track", nargs="*", default=None, metavar="GLOB",
                        help="with --update on a fresh baseline: benchmark name "
                             "patterns to track")
    parser.add_argument("--events", type=Path, default=None, metavar="JSONL",
                        help="REPRO_RUN_EVENTS output: append a per-operator "
                             "time attribution digest (usable on its own)")
    arguments = parser.parse_args(argv)
    if arguments.baseline is None and arguments.events is None:
        parser.error("nothing to do: pass BASELINE RUN to compare, "
                     "and/or --events JSONL to digest run events")
    if arguments.baseline is not None and arguments.run is None:
        parser.error("a baseline needs a run to compare against")
    status = 0
    if arguments.baseline is not None:
        if arguments.update:
            status = update_baseline(arguments.baseline, load_run(arguments.run),
                                     arguments.track, arguments.tolerance)
        else:
            status = compare(arguments.baseline, arguments.run, arguments.tolerance)
    if arguments.events is not None:
        summarize_events(arguments.events)
    return status


if __name__ == "__main__":
    sys.exit(main())
