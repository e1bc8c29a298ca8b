"""Run-vs-run comparison of two E15 ledger documents.

::

    python benchmarks/e15/diff.py A.json B.json [--repeat A2.json]

One row per workload and end-to-end metric: both values, the ratio B/A with
its base, and a verdict against the bound ``BENCHMARK.json`` fixes for the
metric - ``better`` or ``worse`` when B differs from A by more than the
bound, ``within`` otherwise.  With ``--repeat`` (a second run of A's commit)
a metric whose two A runs already differ by more than the bound is reported
``unresolved`` instead.  The per-layer self-time deltas follow.  Exits 1 when
any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


class LedgerError(ValueError):
    """A ledger document is missing, malformed or not comparable."""


def load(path: Path) -> dict:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LedgerError(f"{path}: {exc}") from exc
    if not isinstance(document, dict) or "workloads" not in document:
        raise LedgerError(f"{path}: not an E15 ledger document (no 'workloads')")
    return document


def load_bounds(path: Path) -> list[dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))["end_to_end"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise LedgerError(f"{path}: cannot read metric bounds: {exc}") from exc


def verdict(a: float, b: float, better: str, bound: float, a_repeat: float | None) -> str:
    """How B stands against A for one metric."""
    if a == 0:
        return "unresolved"
    if a_repeat is not None and abs(a_repeat - a) / a > bound:
        return "unresolved"
    worsening = (b - a) / a if better == "lower" else (a - b) / a
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def compare(a: dict, b: dict, repeat: dict | None, bounds: dict[str, dict]) -> tuple[list, list]:
    """``(end-to-end rows, per-layer rows)`` for the workloads both documents have."""
    rows, layers = [], []
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            continue
        if in_a.get("sequence_sha256") != in_b.get("sequence_sha256"):
            raise LedgerError(
                f"{workload}: the two runs sent different request sequences "
                "(different seed or benchmark version); they are not comparable")
        again = (repeat or {"workloads": {}})["workloads"].get(workload, {})
        for name, entry in in_a.get("end_to_end", {}).items():
            if name not in in_b.get("end_to_end", {}) or name not in bounds:
                continue
            value_a, value_b = entry["value"], in_b["end_to_end"][name]["value"]
            value_again = again.get("end_to_end", {}).get(name, {}).get("value")
            rows.append((workload, name, entry["unit"], value_a, value_b,
                         verdict(value_a, value_b, bounds[name]["better"],
                                 bounds[name]["bound"], value_again),
                         bounds[name]["bound"]))
        for name, entry in in_a.get("per_layer", {}).items():
            if entry["unit"] == "ms" and name in in_b.get("per_layer", {}) \
                    and not name.startswith("mix."):
                layers.append((workload, name, entry["value"],
                               in_b["per_layer"][name]["value"]))
    return rows, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the base run")
    parser.add_argument("b", type=Path, help="the run compared against it")
    parser.add_argument("--repeat", type=Path,
                        help="a second run of A's commit, to resolve A's own spread")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json",
                        help="where the metric bounds are read from")
    args = parser.parse_args(argv)
    try:
        bounds = {metric["name"]: metric for metric in load_bounds(args.benchmark)}
        rows, layers = compare(load(args.a), load(args.b),
                               load(args.repeat) if args.repeat else None, bounds)
    except LedgerError as exc:
        print(f"diff.py: {exc}", file=sys.stderr)
        return 2

    print(f"A = {args.a}\nB = {args.b}")
    print(f"{'workload':18s} {'metric':26s} {'A':>12s} {'B':>12s} {'B/A':>7s}  "
          f"{'bound':>5s}  verdict")
    for workload, name, unit, value_a, value_b, outcome, bound in rows:
        ratio = f"{value_b / value_a:7.3f}" if value_a else "    n/a"
        print(f"{workload:18s} {name:26s} {value_a:12.4f} {value_b:12.4f} {ratio}  "
              f"{bound:5.0%}  {outcome}  (base A = {value_a:.4g} {unit})")
    print()
    print(f"{'workload':18s} {'layer self time':34s} {'A ms':>10s} {'B ms':>10s} {'B-A ms':>10s}")
    for workload, name, value_a, value_b in layers:
        print(f"{workload:18s} {name:34s} {value_a:10.4f} {value_b:10.4f} "
              f"{value_b - value_a:+10.4f}")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
