"""The JSONL event sink: atomic line writes, cached environment lookup."""

import json
import threading

from repro.obs.export import RUN_EVENTS_ENV, EventSink


class TestConfiguration:
    def test_disabled_without_destination(self, monkeypatch):
        monkeypatch.delenv(RUN_EVENTS_ENV, raising=False)
        sink = EventSink()
        assert not sink.enabled
        assert sink.emit({"x": 1}) is False

    def test_environment_is_read_on_refresh_not_per_emit(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        monkeypatch.delenv(RUN_EVENTS_ENV, raising=False)
        sink = EventSink()
        assert not sink.enabled
        # Setting the env var alone changes nothing until refresh() —
        # emit must not consult os.environ on every event.
        monkeypatch.setenv(RUN_EVENTS_ENV, str(path))
        assert sink.emit({"x": 1}) is False
        sink.refresh()
        assert sink.emit({"x": 2}) is True
        [line] = path.read_text().splitlines()
        assert json.loads(line) == {"x": 2}



class TestAtomicWrites:
    def test_concurrent_emits_never_interleave_lines(self, tmp_path, monkeypatch):
        """The regression this sink exists for: parallel federation workers
        emitting events concurrently must each produce one intact JSON line,
        not fragments spliced into each other."""
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv(RUN_EVENTS_ENV, str(path))
        sink = EventSink()
        # Large payloads make torn writes likely if emit isn't atomic.
        payload = {"blob": "x" * 4096}

        def worker(worker_id):
            for sequence in range(50):
                sink.emit({**payload, "worker": worker_id, "seq": sequence})

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        lines = path.read_text().splitlines()
        assert len(lines) == 8 * 50
        seen = set()
        for line in lines:
            record = json.loads(line)  # every line parses — no torn writes
            assert record["blob"] == payload["blob"]
            seen.add((record["worker"], record["seq"]))
        assert len(seen) == 8 * 50  # and none were lost or duplicated

    def test_lines_are_appended_not_truncated(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        path.write_text('{"preexisting": true}\n')
        monkeypatch.setenv(RUN_EVENTS_ENV, str(path))
        sink = EventSink()
        sink.emit({"new": 1})
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"preexisting": True}
        assert json.loads(lines[1]) == {"new": 1}
