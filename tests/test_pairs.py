"""``tools/pairs.py``: alternation, verdict edges, failed runs and the
calibration gate, on a fake runner."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("pairs", REPO_ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

RSS = pairs.Metric("peak_rss_mb", "lower", 0.05)
QPS = pairs.Metric("throughput_qps", "higher", 0.15)
COMMITS = {"parent": "p" * 40, "change": "c" * 40}


def test_the_metrics_are_benchmark_json_end_to_end_rows():
    metrics = pairs.load_metrics(REPO_ROOT / "BENCHMARK.json")
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert [metric.name for metric in metrics] == [entry["name"] for entry in declared]
    assert RSS in metrics and QPS in metrics


def test_odd_pairs_run_the_parent_first_and_even_pairs_the_change():
    groups = [pairs.Group("endpoint_segment", 15, 3), pairs.Group("endpoint_memory", 7, 2)]
    order = [(group.workload, pair, order, side)
             for group, pair, order, side in pairs.schedule(groups)]
    assert order == [
        ("endpoint_segment", 1, 1, "parent"), ("endpoint_segment", 1, 2, "change"),
        ("endpoint_segment", 2, 1, "change"), ("endpoint_segment", 2, 2, "parent"),
        ("endpoint_segment", 3, 1, "parent"), ("endpoint_segment", 3, 2, "change"),
        ("endpoint_memory", 1, 1, "parent"), ("endpoint_memory", 1, 2, "change"),
        ("endpoint_memory", 2, 1, "change"), ("endpoint_memory", 2, 2, "parent"),
    ]


#: Median 51.125, IQR 1.125 (inclusive quartiles), 5% bound 2.556; all exact in binary.
PARENT_RSS = [50.0 + 0.25 * i for i in range(10)]


@pytest.mark.parametrize(("change", "expected"), [
    # 10 of 10 wins, by far more than the IQR: better.
    ([value - 4.75 for value in PARENT_RSS], "better"),
    # 9 of 10 wins is enough.
    ([value - 4.75 for value in PARENT_RSS[:9]] + [53.0], "better"),
    # 8 of 10 wins is not, although the median moved more than the IQR.
    ([value - 4.75 for value in PARENT_RSS[:8]] + [53.0, 53.0], "within"),
    # Every pair won, but the median gap is not larger than the parent IQR.
    ([value - 1.125 for value in PARENT_RSS], "within"),
    ([value - 1.25 for value in PARENT_RSS], "better"),
    # Ties are not wins.
    (list(PARENT_RSS), "within"),
    # Lost every pair, by more than the IQR but less than the bound.
    ([value + 2.0 for value in PARENT_RSS], "within"),
    # ... and by more than the bound.
    ([value + 3.0 for value in PARENT_RSS], "worse"),
    # Worse by more than the bound, but only in 8 of 10 pairs.
    ([value + 4.0 for value in PARENT_RSS[:8]] + [40.0, 40.0], "unresolved"),
])
def test_verdict_edges_for_a_lower_is_better_metric(change, expected):
    assert pairs.verdict(PARENT_RSS, change, RSS)["verdict"] == expected


def test_direction_comes_from_the_metric():
    parent = [30.0, 31.0, 32.0]
    assert pairs.verdict(parent, [40.0, 41.0, 42.0], QPS)["verdict"] == "better"
    assert pairs.verdict(parent, [20.0, 21.0, 22.0], QPS)["verdict"] == "worse"
    summary = pairs.verdict(parent, [40.0, 41.0, 42.0], QPS)
    assert (summary["wins"], summary["losses"], summary["pairs"]) == (3, 0, 3)
    assert summary["parent_median"] == 31.0 and summary["change_median"] == 41.0
    assert summary["parent_iqr"] == 1.0


def test_three_of_three_pairs_resolve_and_two_do_not():
    assert pairs.verdict([50.0, 50.1, 50.2], [45.0, 45.1, 45.2], RSS)["verdict"] == "better"
    assert pairs.verdict([50.0, 50.1, 50.2], [45.0, 45.1, 50.3], RSS)["verdict"] == "within"
    assert pairs.verdict([50.0, 50.1], [45.0, 45.1], RSS)["verdict"] == "unresolved"


CPU = pairs.Metric("server_cpu_ms_per_query", "lower", 0.25)


@pytest.mark.parametrize(("parent", "change", "metric", "outcome", "relative", "clears"), [
    # 51.125 -> 46.375 MB: -9.3%, beyond the 5% bound.
    (PARENT_RSS, [value - 4.75 for value in PARENT_RSS], RSS, "better", -0.0929, True),
    # 51.125 -> 49.875 MB: better by more than the IQR, but only -2.4%.
    (PARENT_RSS, [value - 1.25 for value in PARENT_RSS], RSS, "better", -0.0244, False),
    # A CPU cut of 20.7% against a 25% bound: better, and does not clear it.
    ([10.0, 10.0, 10.0], [7.93, 7.93, 7.93], CPU, "better", -0.207, False),
    # Exactly the bound is not beyond it.
    ([40.0, 40.0, 40.0], [30.0, 30.0, 30.0], CPU, "better", -0.25, False),
    # Higher is better: +32% throughput clears 15%; a throughput fall never clears.
    ([30.0, 31.0, 32.0], [40.0, 41.0, 42.0], QPS, "better", 0.3226, True),
    ([30.0, 31.0, 32.0], [20.0, 21.0, 22.0], QPS, "worse", -0.3226, False),
    # Worse in the lower-is-better direction never clears, however large.
    (PARENT_RSS, [value + 10.0 for value in PARENT_RSS], RSS, "worse", 0.1956, False),
])
def test_relative_change_and_whether_it_clears_the_bound(parent, change, metric, outcome,
                                                           relative, clears):
    summary = pairs.verdict(parent, change, metric)
    assert summary["verdict"] == outcome
    assert summary["relative"] == pytest.approx(relative, abs=5e-5)
    assert summary["clears_bound"] is clears


def test_no_relative_change_without_a_parent_median():
    for summary in (pairs.verdict([], [], RSS, complete=False),
                    pairs.verdict([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], RSS)):
        assert summary["relative"] is None and summary["clears_bound"] is False
    # Two pairs cannot decide, but their relative change is reported.
    summary = pairs.verdict([40.0, 40.0], [30.0, 30.0], RSS)
    assert summary["verdict"] == "unresolved"
    assert (summary["relative"], summary["clears_bound"]) == (-0.25, True)


def test_an_unresolved_group_still_reports_its_complete_pairs():
    # Two pairs: too few to decide, but what they measured is kept.
    summary = pairs.verdict([45.0, 45.7], [45.5, 45.8], RSS)
    assert summary["verdict"] == "unresolved"
    assert (summary["parent_median"], summary["change_median"]) == (45.35, 45.65)
    assert summary["parent_iqr"] == pytest.approx(0.35)
    # Three pairs from a group with a failed run: the same.
    summary = pairs.verdict([50.0, 50.1, 50.2], [45.0, 45.1, 45.2], RSS, complete=False)
    assert summary["verdict"] == "unresolved"
    assert (summary["parent_median"], summary["change_median"]) == (50.1, 45.1)
    # No complete pair: nothing to report.
    summary = pairs.verdict([], [], RSS, complete=False)
    assert summary["verdict"] == "unresolved"
    assert summary["parent_median"] is None and summary["parent_iqr"] is None


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [40.0, 50.0, 60.0, 45.0, 55.0]
    assert pairs.verdict(parent, [value + 0.1 for value in parent], RSS)["verdict"] == "unresolved"
    # ... unless every change run is better than every parent run.
    parent = [40.0, 40.5, 70.0, 69.0, 68.0]            # IQR 28.5, median 68
    change = [39.5, 39.6, 39.7, 39.8, 39.9]            # gap 28.3: not better either
    assert pairs.verdict(parent, change, RSS)["verdict"] == "within"


def _rescore(name: str) -> dict[tuple[str, int], dict]:
    """A committed pairs document's runs, summarised by today's rules."""
    doc = json.loads((REPO_ROOT / name).read_text())
    groups = [pairs.Group(entry["workload"], entry["seed"], entry["pairs"])
              for entry in doc["summary"]]
    metrics = pairs.load_metrics(REPO_ROOT / "BENCHMARK.json")
    return {(entry["workload"], entry["seed"]): entry
            for entry in pairs.summarise(doc["runs"], groups, metrics)}


def test_a_group_whose_calibration_skews_one_way_is_flagged():
    # The draft's three shard_decompose pairs all ran the change side on a
    # slower machine (+0.109 / +0.357 / +0.086).
    draft = _rescore("BENCH_PR45-pairs-draft.json")[("shard_decompose", 15)]
    assert draft["calibration"]["skews"] == pytest.approx([0.109, 0.357, 0.086], abs=5e-4)
    assert draft["calibration"]["median_skew"] == pytest.approx(0.109, abs=5e-4)
    assert draft["calibration"]["one_sided"] is True
    # The document recorded a p50 ``worse``; the two pairs skewed past the
    # tolerance are unpaired now, and the one clean pair resolves nothing.
    recorded = json.loads((REPO_ROOT / "BENCH_PR45-pairs-draft.json").read_text())["summary"]
    (shard,) = [entry for entry in recorded if entry["workload"] == "shard_decompose"]
    assert shard["metrics"]["latency_p50_ms"]["verdict"] == "worse"
    assert draft["unpaired"] == [1, 2]
    assert {entry["verdict"] for entry in draft["metrics"].values()} == {"unresolved"}
    assert draft["metrics"]["latency_p50_ms"]["pairs"] == 1
    # The six-pair rerun's skews have mixed signs.
    rerun = _rescore("BENCH_PR45-pairs.json")[("shard_decompose", 15)]
    skews = rerun["calibration"]["skews"]
    assert len(skews) == 6 and min(skews) < 0 < max(skews)
    assert rerun["calibration"]["one_sided"] is False


def test_calibration_needs_three_complete_pairs_to_flag():
    def pair(parent: float | None, change: float | None) -> dict[str, dict]:
        return {"parent": {"calibration_ms": parent}, "change": {"calibration_ms": change}}

    assert pairs.calibration([pair(10.0, 12.0), pair(10.0, 11.0)])["one_sided"] is False
    three = pairs.calibration([pair(10.0, 12.0), pair(10.0, 11.0), pair(10.0, 9.0)])
    assert three["one_sided"] is False and three["median_skew"] == pytest.approx(0.1)
    slower = pairs.calibration([pair(10.0, 9.0), pair(10.0, 8.0), pair(20.0, 19.0)])
    assert slower["one_sided"] is True and slower["median_skew"] == pytest.approx(-0.1)
    # A run without a calibration reading has no skew.
    assert pairs.calibration([pair(None, 12.0), pair(10.0, None)]) == {
        "skews": [], "median_skew": None, "one_sided": False,
    }


class FakeRunner:
    """Writes what ``run.py --out`` would, with a fixed value per side."""

    def __init__(self, values: dict[str, float], fail: set[tuple[int, str]] = frozenset(),
                 calibration: dict[tuple[int, str], float | None] | None = None):
        self.values = values
        self.fail = fail
        self.calibration = calibration or {}
        self.calls: list[tuple[str, str, int]] = []

    def __call__(self, tree, workload, seed, seconds, out):
        side = tree.name
        pair = sum(call[0] == side for call in self.calls) + 1
        self.calls.append((side, workload, seed))
        if (pair, side) in self.fail:
            return 1                                    # crashed: wrote nothing
        value = self.values[side] + pair / 100
        out.write_text(json.dumps({
            "context": {"commit": COMMITS[side],
                        "calibration_ms": self.calibration.get((pair, side), 12.5)},
            "workloads": {workload: {
                "attempted": 100, "failed": 0, "problems": [],
                "end_to_end": {"peak_rss_mb": {"value": value, "unit": "MB"},
                               "throughput_qps": {"value": 30.0, "unit": "1/s"}},
            }},
        }))
        return 0


def _run(tmp_path, runner, groups, aa=False):
    trees = {side: tmp_path / side for side in pairs.SIDES}
    seen: list[int] = []
    rows = pairs.run_pairs(trees, COMMITS, groups, 8.0, [RSS, QPS], tmp_path, runner,
                           after_run=lambda rows: seen.append(len(rows)))
    assert seen == list(range(1, len(rows) + 1))
    return rows, pairs.document(rows, groups, [RSS, QPS], COMMITS, 8.0, aa)


def test_every_run_is_kept_and_summarised(tmp_path):
    runner = FakeRunner({"parent": 50.0, "change": 45.0})
    groups = [pairs.Group("endpoint_segment", 15, 3)]
    rows, doc = _run(tmp_path, runner, groups)
    assert [call[0] for call in runner.calls] == ["parent", "change", "change", "parent",
                                                  "parent", "change"]
    first = rows[0]
    assert first == {
        "pair": 1, "side": "parent", "order": 1, "workload": "endpoint_segment", "seed": 15,
        "commit": COMMITS["parent"], "calibration_ms": 12.5, "exit_code": 0, "correct": True,
        "attempted": 100, "failed": 0, "peak_rss_mb": 50.01, "throughput_qps": 30.0,
    }
    (summary,) = doc["summary"]
    assert summary["failed_runs"] == 0
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "better"
    assert summary["metrics"]["peak_rss_mb"]["clears_bound"] is True
    assert summary["metrics"]["throughput_qps"]["verdict"] == "within"
    assert summary["metrics"]["throughput_qps"]["relative"] == 0.0
    assert doc["parent"] == COMMITS["parent"] and doc["aa"] is False
    json.dumps(doc)                                    # one serialisable document


def test_a_failed_run_is_kept_and_leaves_its_group_unresolved(tmp_path):
    runner = FakeRunner({"parent": 50.0, "change": 45.0}, fail={(2, "change")})
    groups = [pairs.Group("endpoint_segment", 15, 3), pairs.Group("endpoint_memory", 15, 3)]
    rows, doc = _run(tmp_path, runner, groups)
    failed = [row for row in rows if not row["correct"]]
    assert len(failed) == 1
    assert failed[0]["exit_code"] == 1 and failed[0]["peak_rss_mb"] is None
    assert failed[0]["commit"] == COMMITS["change"]       # from the tool when run.py wrote none
    segment, memory = doc["summary"]
    assert segment["failed_runs"] == 1
    assert {entry["verdict"] for entry in segment["metrics"].values()} == {"unresolved"}
    # Pairs 1 and 3 are complete: their medians are reported.
    assert segment["metrics"]["peak_rss_mb"]["parent_median"] == pytest.approx(50.02)
    assert segment["metrics"]["peak_rss_mb"]["change_median"] == pytest.approx(45.02)
    assert memory["failed_runs"] == 0
    assert memory["metrics"]["peak_rss_mb"]["verdict"] == "better"


def test_an_incorrect_run_counts_as_failed(tmp_path):
    class Incorrect(FakeRunner):
        def __call__(self, tree, workload, seed, seconds, out):
            code = super().__call__(tree, workload, seed, seconds, out)
            if tree.name == "change":
                payload = json.loads(out.read_text())
                payload["workloads"][workload]["problems"] = ["1 of 100 requests failed"]
                out.write_text(json.dumps(payload))
            return code

    rows, doc = _run(tmp_path, Incorrect({"parent": 50.0, "change": 45.0}),
                     [pairs.Group("endpoint_segment", 15, 3)])
    assert [row["correct"] for row in rows if row["side"] == "change"] == [False] * 3
    assert doc["summary"][0]["metrics"]["peak_rss_mb"]["verdict"] == "unresolved"


def test_a_pair_skewed_past_the_tolerance_is_unpaired_counted_and_kept(tmp_path):
    # Pair 2's change side ran its calibration loop 20% slower: the pair is
    # left out of the verdicts, which read pairs 1, 3 and 4 (6.25%: clean).
    runner = FakeRunner({"parent": 50.0, "change": 45.0},
                        calibration={(2, "change"): 15.0, (4, "change"): 13.28125})
    rows, doc = _run(tmp_path, runner, [pairs.Group("endpoint_segment", 15, 4)])
    assert len(rows) == 8                              # every run stays in the document
    (summary,) = doc["summary"]
    assert summary["unpaired"] == [2]
    assert summary["calibration"]["skews"] == pytest.approx([0.0, 0.2, 0.0, 0.0625])
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["pairs"], rss["verdict"]) == (3, "better")
    assert rss["parent_median"] == pytest.approx(50.03)   # pairs 1, 3 and 4


def test_a_group_with_too_few_clean_pairs_is_unresolved(tmp_path):
    runner = FakeRunner({"parent": 50.0, "change": 45.0},
                        calibration={(1, "parent"): 10.0, (3, "change"): 15.0})
    rows, doc = _run(tmp_path, runner, [pairs.Group("endpoint_segment", 15, 3)])
    (summary,) = doc["summary"]
    assert summary["unpaired"] == [1, 3]
    assert {entry["verdict"] for entry in summary["metrics"].values()} == {"unresolved"}
    assert summary["metrics"]["peak_rss_mb"]["pairs"] == 1
    assert summary["metrics"]["peak_rss_mb"]["change_median"] == pytest.approx(45.02)


def test_a_pair_without_a_calibration_reading_is_kept(tmp_path):
    runner = FakeRunner({"parent": 50.0, "change": 45.0}, calibration={(2, "change"): None})
    _, doc = _run(tmp_path, runner, [pairs.Group("endpoint_segment", 15, 3)])
    (summary,) = doc["summary"]
    assert summary["unpaired"] == []
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "better"


def test_group_and_commit_arguments_are_checked(capsys):
    assert pairs._group("endpoint_segment:15:10") == pairs.Group("endpoint_segment", 15, 10)
    for bad in ("endpoint_segment:15", "endpoint_segment:x:3", "endpoint_segment:15:0"):
        with pytest.raises(Exception):  # noqa: B017 - argparse's ArgumentTypeError
            pairs._group(bad)
    with pytest.raises(SystemExit):
        pairs.main(["HEAD", "--group", "endpoint_memory:15:3", "--out", "unused.json"])
    assert "PARENT and CHANGE" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Calibration report
# --------------------------------------------------------------------------- #

def _document(*pairs_, workload="endpoint_memory", tool="tools/pairs.py"):
    """A pairs document of ``(parent_calibration, change_calibration,
    parent_rss, change_rss)`` pairs, numbered from 1."""
    runs = []
    for number, (parent_ms, change_ms, parent_rss, change_rss) in enumerate(pairs_, 1):
        for side, calibration_ms, rss in (("parent", parent_ms, parent_rss),
                                          ("change", change_ms, change_rss)):
            runs.append({"workload": workload, "seed": 15, "pair": number, "side": side,
                         "correct": True, "calibration_ms": calibration_ms,
                         "peak_rss_mb": rss})
    return {"tool": tool, "runs": runs}


def test_pearson_r_and_t_by_hand():
    r, t = pairs.pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert r == pytest.approx(0.8)
    assert t == pytest.approx(0.8 * (2 / 0.36) ** 0.5)
    assert pairs.pearson([1.0, 2.0], [1.0, 2.0]) is None   # too few points
    assert pairs.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None   # no spread


def test_the_report_reads_each_pairs_skew_against_its_relative_gap():
    # Skews 0, +10%, +20%, +30%; the change's RSS gap is twice the skew.
    document = _document(*[(20.0, 20.0 * (1 + s), 50.0, 50.0 * (1 + 2 * s))
                           for s in (0.0, 0.1, 0.2, 0.3)])
    report = pairs.calibration_report([document], [RSS])
    assert [(e["metric"], e["workload"], e["pairs"]) for e in report] == [
        ("peak_rss_mb", "endpoint_memory", 4), ("peak_rss_mb", "*", 4)]
    assert report[-1]["r"] == pytest.approx(1.0)


def test_the_report_pools_documents_and_workloads_and_skips_what_cannot_pair():
    first = _document((20.0, 22.0, 50.0, 51.0), (20.0, 18.0, 50.0, 49.0),
                      (20.0, 20.0, 50.0, 50.0))
    second = _document((20.0, 21.0, 50.0, 52.0), (20.0, 19.0, 50.0, 48.0),
                       (20.0, 20.0, 50.0, 50.5), workload="endpoint_segment")
    # A failed run, a missing calibration and a zero parent value leave the pair out.
    second["runs"].extend(_document((None, 20.0, 50.0, 50.0), (20.0, 20.0, 0.0, 1.0),
                                    (20.0, 20.0, 50.0, 50.0), workload="shard_decompose")["runs"])
    second["runs"][-1]["correct"] = False
    report = {e["workload"]: e for e in pairs.calibration_report([first, second], [RSS])}
    assert {workload: entry["pairs"] for workload, entry in report.items()} == {
        "endpoint_memory": 3, "endpoint_segment": 3, "shard_decompose": 0, "*": 6}
    assert report["shard_decompose"]["r"] is None
    assert report["endpoint_memory"]["r"] == pytest.approx(1.0)


def test_the_calibration_report_command_skips_other_schemas(tmp_path, capsys):
    ledger = tmp_path / "pairs.json"
    ledger.write_text(json.dumps(_document((20.0, 22.0, 50.0, 51.0), (20.0, 18.0, 50.0, 49.0),
                                           (20.0, 20.0, 50.0, 50.5))))
    other = tmp_path / "groups.json"
    other.write_text(json.dumps({"groups": []}))
    assert pairs.main(["--calibration-report", str(ledger), str(other)]) == 0
    out, err = capsys.readouterr()
    assert "over 1 document(s)" in out
    assert "groups.json: not a tools/pairs.py document, skipped" in err
    [row] = [line for line in out.splitlines() if "peak_rss_mb" in line and " * " in line]
    assert "pairs    3" in row


def test_the_report_reproduces_the_committed_pr46_to_pr49_figures():
    documents = [json.loads(path.read_text(encoding="utf-8"))
                 for path in sorted(REPO_ROOT.glob("BENCH_PR4[6-9]*-pairs*.json"))]
    metrics = pairs.load_metrics(REPO_ROOT / "BENCHMARK.json")
    pooled = {entry["metric"]: entry for entry in pairs.calibration_report(documents, metrics)
              if entry["workload"] == "*"}
    assert {name: (entry["pairs"], round(entry["r"], 2)) for name, entry in pooled.items()
            if name in {"server_cpu_ms_per_query", "latency_p50_ms", "setup_s"}} == {
        "server_cpu_ms_per_query": (177, 0.04), "latency_p50_ms": (177, 0.09),
        "setup_s": (177, 0.12)}
    assert all(abs(entry["t"]) < 1.7 for entry in pooled.values())
