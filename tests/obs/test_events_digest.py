"""`benchmarks/compare.py --events`: local and federated runs are digested apart."""

import json

from benchmarks.compare import summarize_events


def event(engine, elapsed, endpoints=()):
    return {
        "query": "q", "engine": engine, "elapsed": elapsed, "rows": 1,
        "operators": [{"operator": "BGPScan", "seconds": elapsed, "rows_out": 1}],
        "adaptivity": [], "endpoints": list(endpoints), "rows_shipped": 0, "plan": "",
    }


def test_a_federated_run_does_not_add_its_nested_time_to_the_local_total(tmp_path, capsys):
    # One federated run of 30 ms that spans two in-process endpoint runs.
    shipped = [{"dataset": "http://x/d", "rows_shipped": 2}]
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in (
        event("planner", 0.010), event("planner", 0.010), event("decompose", 0.030, shipped),
    )))
    summarize_events(path)
    out = capsys.readouterr().out
    assert "local: 2 queries (planner x2); 2 rows in 20.0 ms" in out
    assert "federated: 1 queries (decompose x1); 1 rows in 30.0 ms" in out
    assert "http://x/d: 2" in out
