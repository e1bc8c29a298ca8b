#!/usr/bin/env python3
"""Alternating parent/change pairs of E15 runs, with a verdict per metric.

Usage, from a clone of this repository (standard library only)::

    python tools/pairs.py PARENT CHANGE --group endpoint_segment:15:10 \\
        --group endpoint_memory:15:3 --seconds 8 --out BENCH_PRnn-pairs.json
    python tools/pairs.py --aa COMMIT --group endpoint_memory:15:10 --out aa.json

``PARENT`` and ``CHANGE`` are any commit names ``git rev-parse`` accepts.
Each side is checked out into its own clean, detached ``git worktree`` in
a temporary directory (``--workdir`` picks where), and both are removed on
exit, on Ctrl-C and on SIGTERM.  ``--aa`` pairs one commit with itself in
two worktrees: the A/A control, whose every row should read ``within``.

Each ``--group WORKLOAD:SEED:PAIRS`` runs ``PAIRS`` pairs of::

    python3 benchmarks/e15/run.py --workload W --seed S --seconds T --trace 0 --out F

in each worktree.  Odd pairs run the parent first and even pairs the
change first, so drift within a session lands on both sides alike.

The output document keeps every run — pair, side, order, workload, seed,
commit, ``calibration_ms``, exit code, ``correct``, ``attempted``,
``failed`` and the end-to-end metrics ``BENCHMARK.json`` lists — and is
rewritten after each run, so an interrupted session keeps what it
measured.  Per group and metric it adds the parent and change medians,
the parent's interquartile range, the change's wins and losses (pairs in
which it is strictly better or worse, in the direction ``BENCHMARK.json``
calls ``better``) and a verdict:

* ``better``: the change wins at least 9 of every 10 pairs (all 3 of 3)
  and its median beats the parent's by more than the parent IQR;
* ``worse``: the mirror image — it loses that many pairs, its median
  trails by more than the parent IQR, and by more than the metric's
  ``bound`` (a share of the parent median);
* ``unresolved``: a run of the group failed, fewer than 3 clean pairs ran, the
  change median trails by more than the bound without losing consistently,
  or the parent IQR alone is wider than the bound and some change run is
  no better than some parent run;
* ``within``: anything else.

A complete pair (both runs correct) whose two sides' ``calibration_ms``
differ by more than ``CALIBRATION_TOLERANCE`` (its skew, below, is larger
in size) is ``unpaired``: the machine ran one side slower, so the pair
measures the machine as much as the code.  It stays in the document and is
counted per group, but no verdict reads it; a pair missing a calibration
reading is kept.  The verdicts read the clean pairs, so a group left with
fewer than 3 of them reads ``unresolved``.

Medians and IQR are those of the clean pairs, and are reported whenever
there is one, whatever the verdict, with two more fields:

* ``relative``: ``change_median / parent_median - 1`` (``None`` when the
  parent median is 0);
* ``clears_bound``: whether the change's median gain, in the ``better``
  direction, exceeds the metric's ``bound``.  A ``better`` verdict needs
  only the parent IQR, so a gain can be ``better`` and still be smaller
  than the bound a claimed improvement has to clear.

Per group it also reports the calibration skew of each complete pair
(``calibration_ms`` of the change run over the parent run's, minus 1: how
much slower the machine ran the change side's fixed calibration loop) and
their median.  When a group has at least 3 complete pairs and every skew
has the same sign, the group is flagged ``one_sided`` and a warning goes
to stderr: the machine's speed moved with the side, so a verdict there may
measure the machine.  The flag does not change any verdict.

``--calibration-report LEDGER...`` runs nothing: over the complete pairs
of every ``tools/pairs.py`` document given (others are skipped), it prints,
per metric and per workload and over all workloads, the Pearson r between
a pair's calibration skew and its relative gap (``change / parent - 1`` of
the metric) and r's t statistic on ``n - 2`` degrees of freedom.  A signal
that gates pairs should first show ``|r| >= 0.3`` there.

The tool reads ``benchmarks/e15/`` and ``BENCHMARK.json`` and writes
neither.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = ("python3 benchmarks/e15/run.py --workload W --seed S --seconds T "
           "--trace 0 --out F")
#: Share of pairs the change must win (or lose) to be ``better`` (``worse``).
CONSISTENT = 0.9
#: Fewer clean pairs than this cannot resolve anything.
MIN_PAIRS = 3
#: Largest calibration skew (either way) of a pair a verdict reads.
CALIBRATION_TOLERANCE = 0.10


class Group(NamedTuple):
    workload: str
    seed: int
    pairs: int


class Metric(NamedTuple):
    name: str
    better: str   # "lower" or "higher"
    bound: float  # tolerated worsening, as a share of the parent median


#: ``runner(tree, workload, seed, seconds, out) -> exit code``: one E15 run.
Runner = Callable[[Path, str, int, float, Path], int]


def load_metrics(benchmark: Path) -> list[Metric]:
    """The end-to-end metrics ``BENCHMARK.json`` declares, with direction and bound."""
    declared = json.loads(benchmark.read_text(encoding="utf-8"))["end_to_end"]
    return [Metric(entry["name"], entry["better"], float(entry["bound"])) for entry in declared]


# --------------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------------- #
def schedule(groups: Sequence[Group]) -> Iterator[tuple[Group, int, int, str]]:
    """``(group, pair, order, side)`` in run order: odd pairs parent first."""
    for group in groups:
        for pair in range(1, group.pairs + 1):
            sides = SIDES if pair % 2 else SIDES[::-1]
            for order, side in enumerate(sides, 1):
                yield group, pair, order, side


def run_e15(tree: Path, workload: str, seed: int, seconds: float, out: Path) -> int:
    """One untraced E15 run in ``tree``; its stderr tail is echoed on failure."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = [sys.executable, "benchmarks/e15/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
            "--out", str(out)]
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode:
        print("\n".join(done.stderr.splitlines()[-5:]), file=sys.stderr)
    return done.returncode


def record(group: Group, pair: int, order: int, side: str, commit: str,
           exit_code: int, out: Path, metrics: Sequence[Metric]) -> dict:
    """One run's row: what ``run.py --out`` wrote, or nulls where it wrote nothing."""
    row: dict = {"pair": pair, "side": side, "order": order, "workload": group.workload,
                 "seed": group.seed, "commit": commit, "calibration_ms": None,
                 "exit_code": exit_code, "correct": False, "attempted": None, "failed": None}
    try:
        document = json.loads(out.read_text(encoding="utf-8"))
        report = document["workloads"][group.workload]
    except (OSError, ValueError, KeyError):
        report, document = {}, {}
    context = document.get("context", {})
    row["commit"] = context.get("commit") or commit
    row["calibration_ms"] = context.get("calibration_ms")
    row["attempted"] = report.get("attempted")
    row["failed"] = report.get("failed")
    row["correct"] = bool(report) and exit_code == 0 and not report.get("problems")
    measured = report.get("end_to_end", {})
    for metric in metrics:
        row[metric.name] = measured.get(metric.name, {}).get("value")
    return row


def run_pairs(trees: dict[str, Path], commits: dict[str, str], groups: Sequence[Group],
              seconds: float, metrics: Sequence[Metric], scratch: Path,
              runner: Runner = run_e15,
              after_run: Callable[[list[dict]], None] | None = None) -> list[dict]:
    """Every scheduled run, in order; ``after_run`` sees the rows so far."""
    rows: list[dict] = []
    for group, pair, order, side in schedule(groups):
        out = scratch / f"{group.workload}-{group.seed}-{pair}-{side}.json"
        out.unlink(missing_ok=True)
        exit_code = runner(trees[side], group.workload, group.seed, seconds, out)
        row = record(group, pair, order, side, commits[side], exit_code, out, metrics)
        rows.append(row)
        print(f"{group.workload} seed {group.seed} pair {pair}/{group.pairs} {side}: "
              f"exit {exit_code}, correct {row['correct']}", file=sys.stderr)
        if after_run is not None:
            after_run(rows)
    return rows


# --------------------------------------------------------------------------- #
# Verdicts
# --------------------------------------------------------------------------- #
def iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles (inclusive method); 0 below two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], metric: Metric,
            complete: bool = True) -> dict:
    """Compare pair-aligned values of one metric (see the module docstring)."""
    sign = 1.0 if metric.better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change, strict=True)]
    wins = sum(gain > 0 for gain in gains)
    losses = sum(gain < 0 for gain in gains)
    summary: dict = {"better": metric.better, "bound": metric.bound, "pairs": len(gains),
                     "wins": wins, "losses": losses, "parent_median": None,
                     "change_median": None, "parent_iqr": None, "relative": None,
                     "clears_bound": False, "verdict": "unresolved"}
    if not gains:
        return summary
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    # What the complete pairs measured is reported even when it cannot decide.
    summary.update(parent_median=parent_median, change_median=change_median, parent_iqr=spread)
    if parent_median:
        relative = change_median / parent_median - 1
        summary.update(relative=relative, clears_bound=sign * relative > metric.bound)
    if not complete or len(gains) < MIN_PAIRS:
        return summary
    gap = sign * (change_median - parent_median)   # > 0: the change is better
    tolerance = metric.bound * abs(parent_median)
    need = math.ceil(CONSISTENT * len(gains))
    if wins >= need and gap > spread:
        outcome = "better"
    elif losses >= need and -gap > spread and -gap > tolerance:
        outcome = "worse"
    elif -gap > tolerance or (spread > tolerance and min(sign * c for c in change)
                                 <= max(sign * p for p in parent)):
        outcome = "unresolved"
    else:
        outcome = "within"
    summary["verdict"] = outcome
    return summary


def skew(pair: dict[str, dict]) -> float | None:
    """The change run's ``calibration_ms`` over the parent run's, minus 1."""
    parent, change = pair["parent"]["calibration_ms"], pair["change"]["calibration_ms"]
    return change / parent - 1 if parent and change else None


def calibration(complete: Sequence[dict[str, dict]]) -> dict:
    """The complete pairs' calibration skews, their median, and whether they
    all lean the same way (see the module docstring)."""
    skews = [value for value in map(skew, complete) if value is not None]
    one_sided = len(skews) >= MIN_PAIRS and (all(skew > 0 for skew in skews)
                                             or all(skew < 0 for skew in skews))
    return {"skews": skews, "median_skew": statistics.median(skews) if skews else None,
            "one_sided": one_sided}


def pearson(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float] | None:
    """Pearson r of two paired samples and its t statistic (``n - 2``
    degrees of freedom); ``None`` below 3 points or without spread."""
    n = len(xs)
    if n < 3:
        return None
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys, strict=True))
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    if not sxx or not syy:
        return None
    r = sxy / math.sqrt(sxx * syy)
    t = math.inf if abs(r) >= 1 else r * math.sqrt((n - 2) / (1 - r * r))
    return r, t


def calibration_report(documents: Sequence[dict], metrics: Sequence[Metric]) -> list[dict]:
    """Per metric, per workload and then over all (``"*"``): how a complete
    pair's calibration skew tracks its relative gap (see the module docstring)."""
    pairs: list[tuple[str, dict[str, dict], float]] = []
    for payload in documents:
        by_pair: dict[tuple, dict[str, dict]] = {}
        for row in payload["runs"]:
            by_pair.setdefault((row["workload"], row["seed"], row["pair"]), {})[row["side"]] = row
        for (workload, _, _), pair in sorted(by_pair.items()):
            if (all(side in pair and pair[side]["correct"] for side in SIDES)
                    and (value := skew(pair)) is not None):
                pairs.append((workload, pair, value))
    report = []
    for metric in metrics:
        for workload in [*sorted({w for w, _, _ in pairs}), "*"]:
            points = [(value, pair["change"][metric.name] / pair["parent"][metric.name] - 1)
                      for w, pair, value in pairs
                      if workload in (w, "*") and pair["parent"].get(metric.name)
                      and pair["change"].get(metric.name) is not None]
            fit = pearson([x for x, _ in points], [y for _, y in points])
            report.append({"metric": metric.name, "workload": workload, "pairs": len(points),
                           "r": fit[0] if fit else None, "t": fit[1] if fit else None})
    return report


def summarise(rows: Sequence[dict], groups: Sequence[Group],
              metrics: Sequence[Metric]) -> list[dict]:
    """Per group: failed runs, complete pairs and one verdict per metric."""
    summaries = []
    for group in groups:
        by_pair: dict[int, dict[str, dict]] = {}
        for row in rows:
            if (row["workload"], row["seed"]) == (group.workload, group.seed):
                by_pair.setdefault(row["pair"], {})[row["side"]] = row
        failed = sum(not row["correct"] for pair in by_pair.values() for row in pair.values())
        complete = [(number, pair) for number, pair in sorted(by_pair.items())
                    if all(side in pair and pair[side]["correct"] for side in SIDES)]
        unpaired = [number for number, pair in complete
                    if (value := skew(pair)) is not None
                    and abs(value) > CALIBRATION_TOLERANCE]
        clean = [pair for number, pair in complete if number not in unpaired]
        resolved = failed == 0 and len(by_pair) == group.pairs
        summaries.append({
            "workload": group.workload, "seed": group.seed, "pairs": group.pairs,
            "failed_runs": failed,
            "calibration": calibration([pair for _, pair in complete]),
            "unpaired": unpaired,
            "metrics": {
                metric.name: verdict([pair["parent"][metric.name] for pair in clean],
                                     [pair["change"][metric.name] for pair in clean],
                                     metric, resolved)
                for metric in metrics
            },
        })
    return summaries


def document(rows: Sequence[dict], groups: Sequence[Group], metrics: Sequence[Metric],
             commits: dict[str, str], seconds: float, aa: bool) -> dict:
    return {
        "tool": "tools/pairs.py",
        "command": COMMAND,
        "seconds": seconds,
        "parent": commits["parent"],
        "change": commits["change"],
        "aa": aa,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "order": "odd pairs run the parent first, even pairs the change first",
        "runs": list(rows),
        "summary": summarise(rows, groups, metrics),
    }


# --------------------------------------------------------------------------- #
# Worktrees
# --------------------------------------------------------------------------- #
def _git(*args: str, check: bool = True) -> str:
    done = subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True,
                          check=False)
    if check and done.returncode:
        raise SystemExit(f"pairs.py: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def resolve(commit: str) -> str:
    return _git("rev-parse", "--verify", f"{commit}^{{commit}}")


@contextmanager
def worktrees(commits: dict[str, str], workdir: Path | None) -> Iterator[dict[str, Path]]:
    """One clean detached worktree per side, removed however the block ends."""
    root = Path(tempfile.mkdtemp(prefix="pairs-", dir=workdir))
    trees: dict[str, Path] = {}
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        for side, commit in commits.items():
            trees[side] = root / side
            _git("worktree", "add", "--detach", "--quiet", str(trees[side]), commit)
        yield trees
    finally:
        for tree in trees.values():
            _git("worktree", "remove", "--force", str(tree), check=False)
        _git("worktree", "prune", check=False)
        shutil.rmtree(root, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def _group(text: str) -> Group:
    try:
        workload, seed, pairs = text.split(":")
        group = Group(workload, int(seed), int(pairs))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS, got {text!r}") from None
    if group.pairs < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: PAIRS must be at least 1")
    return group


def report_calibration(paths: Sequence[Path], metrics: Sequence[Metric]) -> int:
    documents = []
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("tool") != "tools/pairs.py":
            print(f"pairs.py: {path}: not a tools/pairs.py document, skipped", file=sys.stderr)
            continue
        documents.append(payload)
    report = calibration_report(documents, metrics)
    print(f"calibration skew vs. relative gap over {len(documents)} document(s): "
          f"Pearson r, and its t on n - 2 degrees of freedom")
    for entry in report:
        fit = ("   r      -   t      -" if entry["r"] is None
               else f"   r {entry['r']:+.2f}   t {entry['t']:+.2f}")
        print(f"   {entry['metric']:26s} {entry['workload']:18s} pairs {entry['pairs']:4d}{fit}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commits", nargs="+", metavar="COMMIT",
                        help="PARENT CHANGE, one COMMIT with --aa, or the pairs "
                             "documents with --calibration-report")
    parser.add_argument("--aa", action="store_true", help="pair one commit with itself")
    parser.add_argument("--calibration-report", action="store_true",
                        help="run nothing: correlate calibration skew with each "
                             "pair's gap over the documents given")
    parser.add_argument("--group", action="append", type=_group,
                        metavar="WORKLOAD:SEED:PAIRS", help="pairs to run (repeatable)")
    parser.add_argument("--seconds", type=float, default=8.0, help="timed window per run")
    parser.add_argument("--out", type=Path, help="the pairs document")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the temporary worktrees go (default: the system temp dir)")
    args = parser.parse_args(argv)
    metrics = load_metrics(REPO / "BENCHMARK.json")
    if args.calibration_report:
        return report_calibration([Path(name) for name in args.commits], metrics)
    if not args.group or args.out is None:
        parser.error("--group and --out are required to run pairs")
    if len(args.commits) != (1 if args.aa else 2):
        parser.error("give PARENT and CHANGE, or one COMMIT with --aa")
    names = args.commits * 2 if args.aa else args.commits
    commits = dict(zip(SIDES, map(resolve, names), strict=True))

    def write(rows: list[dict]) -> None:
        payload = document(rows, args.group, metrics, commits, args.seconds, args.aa)
        args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    with worktrees(commits, args.workdir) as trees:
        scratch = next(iter(trees.values())).parent
        rows = run_pairs(trees, commits, args.group, args.seconds, metrics, scratch,
                         after_run=write)
    for summary in summarise(rows, args.group, metrics):
        calibrated = summary["calibration"]
        print(f"== {summary['workload']} seed {summary['seed']}: {summary['pairs']} pairs, "
              f"{summary['failed_runs']} failed run(s), {len(summary['unpaired'])} "
              f"unpaired (calibration skew over {CALIBRATION_TOLERANCE:.0%}), median "
              f"calibration skew {calibrated['median_skew']}")
        if calibrated["one_sided"]:
            print(f"pairs.py: warning: {summary['workload']} seed {summary['seed']}: the "
                  f"calibration skews the same way in all {len(calibrated['skews'])} complete "
                  "pairs; the machine's speed moved with the side", file=sys.stderr)
        for name, entry in summary["metrics"].items():
            print(f"   {name:26s} {entry['verdict']:10s} wins {entry['wins']}/{entry['pairs']}"
                  f"  parent {entry['parent_median']}  change {entry['change_median']}"
                  f"  parent IQR {entry['parent_iqr']}  relative {entry['relative']}"
                  f"  clears bound {entry['clears_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
