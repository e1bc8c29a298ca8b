"""Smoke test of the E15 harness at toy size.

Runs the real harness (subprocess, loopback servers, oracle, traced run)
on all four workloads with tiny data, and checks what a broken benchmark
would get wrong first: the exit code, that its output and ``BENCHMARK.json``
name exactly the same workloads and metrics, and that it leaves nothing
behind - no server process, no listening port, no work directory - after a
clean run, after its server dies, and after Ctrl-C.
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.parse
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _server_pids(workdir: Path) -> list[int]:
    """Live ``topology.py`` processes working under ``workdir``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            command = (entry / "cmdline").read_bytes().decode("utf-8", "replace")
        except OSError:
            continue
        if "topology.py" in command and str(workdir) in command:
            pids.append(int(entry.name))
    return pids


def _await_server(workdir: Path, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = _server_pids(workdir)
        if pids:
            return pids[0]
        time.sleep(0.05)
    raise AssertionError("the harness never started a server subprocess")


def _assert_nothing_left(workdir: Path) -> None:
    assert _server_pids(workdir) == []
    assert not workdir.exists() or not any(workdir.iterdir())


def test_all_workloads_at_toy_size(tmp_path):
    started = time.monotonic()
    runs = {
        workload: subprocess.Popen(
            [*RUN, "--seed", "3", "--toy", "--seconds", "0.8", "--workload", workload,
             "--workdir", str(tmp_path / "work"), "--out", str(tmp_path / f"{workload}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for workload in WORKLOADS
    }
    outputs = {workload: run.communicate(timeout=120)[0] for workload, run in runs.items()}
    assert time.monotonic() - started < 30
    for workload, run in runs.items():
        assert run.returncode == 0, outputs[workload]
    _assert_nothing_left(tmp_path / "work")

    for workload in WORKLOADS:
        document = json.loads((tmp_path / f"{workload}.json").read_text(encoding="utf-8"))
        assert list(document["workloads"]) == [workload]
        report = document["workloads"][workload]
        assert report["failed"] == 0 and report["problems"] == []
        assert 1 <= report["untraced"]["samples"] <= 50
        for section in ("end_to_end", "per_layer"):
            declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
            reported = {name: entry["unit"] for name, entry in report[section].items()}
            assert reported == declared
            for name, entry in report[section].items():
                assert math.isfinite(entry["value"]), name
                assert name in outputs[workload]
        for name, entry in report["end_to_end"].items():
            assert entry["value"] > 0, name
        # Every server the run started has let go of its port.
        for url in report["untraced"]["servers"].values():
            address = urllib.parse.urlsplit(url)
            with socket.socket() as probe:
                assert probe.connect_ex((address.hostname, address.port)) != 0


def test_contract_output_is_one_json_object_last(tmp_path):
    done = subprocess.run(
        [*RUN, "--workload", "endpoint_memory", "--seed", "5", "--seconds", "0.5", "--trace", "0",
         "--toy", "--workdir", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in BENCHMARK["end_to_end"]}


def _start_long_run(workdir: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [*RUN, "--workload", "endpoint_memory", "--seed", "5", "--seconds", "20", "--trace", "0",
         "--toy", "--workdir", str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def test_nothing_outlives_a_run_whose_server_dies(tmp_path):
    workdir = tmp_path / "work"
    run = _start_long_run(workdir)
    try:
        server_pid = _await_server(workdir)
        time.sleep(0.8)  # let it reach the timed window
        os.kill(server_pid, signal.SIGKILL)
        output = run.communicate(timeout=60)[0]
    finally:
        run.kill()
        run.wait()
    assert run.returncode not in (0, None), output
    _assert_nothing_left(workdir)


def test_nothing_outlives_ctrl_c(tmp_path):
    workdir = tmp_path / "work"
    run = _start_long_run(workdir)
    try:
        _await_server(workdir)
        time.sleep(0.8)
        run.send_signal(signal.SIGINT)
        output = run.communicate(timeout=60)[0]
    finally:
        run.kill()
        run.wait()
    assert run.returncode not in (0, None), output
    _assert_nothing_left(workdir)
