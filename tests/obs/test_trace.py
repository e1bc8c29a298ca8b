"""The tracer: span lifecycle, context nesting, traceparent, export."""

import contextvars
import json
import threading

import pytest

from repro.obs.export import EventSink
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    format_traceparent,
    parse_traceparent,
)
from repro.sparql.exec import QueryRunEvent


@pytest.fixture()
def tracer():
    return Tracer(enabled=True)


class TestTraceparent:
    def test_round_trip(self):
        header = format_traceparent("ab" * 16, "cd" * 8)
        assert parse_traceparent(header) == ("ab" * 16, "cd" * 8)

    def test_header_shape(self):
        assert format_traceparent("ab" * 16, "cd" * 8) == (
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        )

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-abc-def-01",                                   # wrong widths
        "00-" + "gg" * 16 + "-" + "cd" * 8 + "-01",        # non-hex trace id
        "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",        # all-zero trace id
        "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",        # all-zero span id
        "00-" + "ab" * 16 + "-" + "cd" * 8,                # missing flags
    ])
    def test_invalid_headers_rejected(self, header):
        assert parse_traceparent(header) is None


class TestSpanLifecycle:
    def test_nested_spans_share_the_trace_and_parent_correctly(self, tracer):
        with tracer.start_span("outer") as outer:
            with tracer.start_span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        [first, second] = tracer.finished_spans()
        assert (first.name, second.name) == ("inner", "outer")  # finish order
        assert second.parent_id is None

    def test_sibling_roots_get_distinct_trace_ids(self, tracer):
        with tracer.start_span("a") as a:
            pass
        with tracer.start_span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_explicit_traceparent_wins_over_context(self, tracer):
        header = format_traceparent("ab" * 16, "cd" * 8)
        with tracer.start_span("outer"):
            span = tracer.start_span("remote-child", traceparent=header)
            assert span.trace_id == "ab" * 16
            assert span.parent_id == "cd" * 8
            span.finish()

    def test_exception_recorded_as_event(self, tracer):
        with pytest.raises(ValueError):
            with tracer.start_span("failing"):
                raise ValueError("boom")
        [span] = tracer.finished_spans()
        [event] = span.events
        assert event["name"] == "exception"
        assert event["type"] == "ValueError"
        assert "boom" in event["message"]

    def test_finish_is_idempotent(self, tracer):
        span = tracer.start_span("once")
        span.finish()
        end = span.end
        span.finish()
        assert span.end == end
        assert len(tracer.finished_spans()) == 1

    def test_ring_capacity_bounds_memory(self):
        tracer = Tracer(enabled=True, capacity=4)
        for index in range(10):
            tracer.start_span(f"s{index}").finish()
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_spans_cross_threads_via_copied_context(self, tracer):
        seen = {}

        def child():
            with tracer.start_span("child") as span:
                seen["trace_id"] = span.trace_id
                seen["parent_id"] = span.parent_id

        with tracer.start_span("parent") as parent:
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(child,)
            )
            thread.start()
            thread.join()
        assert seen["trace_id"] == parent.trace_id
        assert seen["parent_id"] == parent.span_id


class TestDisabledMode:
    def test_start_span_returns_the_shared_noop_singleton(self):
        tracer = Tracer(enabled=False)
        first = tracer.start_span("a", {"k": "v"})
        second = tracer.start_span("b")
        # Identity, not just equality: the disabled path allocates nothing.
        assert first is NOOP_SPAN
        assert second is NOOP_SPAN

    def test_noop_span_is_inert(self):
        with NOOP_SPAN as span:
            span.set_attribute("k", "v").add_event("e", detail=1)
        assert span.attributes == {}
        assert span.events == []
        assert span.traceparent() is None
        assert span.recording is False

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.start_span("invisible"):
            pass
        assert tracer.finished_spans() == []
        assert tracer.current_traceparent() is None


class TestOperatorSpans:
    EVENT = QueryRunEvent(
        query="SelectQuery",
        engine="planner",
        elapsed=0.005,
        rows=5,
        operators=[
            {"depth": 0, "operator": "Project (?s)", "span": "exec.project",
             "seconds": 0.004, "rows_in": 5, "rows_out": 5, "batches": 1},
            {"depth": 1, "operator": "BGPScan", "span": "exec.bgp_scan",
             "seconds": 0.003, "rows_in": 0, "rows_out": 5, "batches": 1},
        ],
    )

    def test_synthesized_tree_nests_by_depth(self, tracer):
        root = tracer.add_operator_spans(self.EVENT, 0.005)
        spans = {span.name: span for span in tracer.finished_spans()}
        assert set(spans) == {"exec.query", "exec.project", "exec.bgp_scan"}
        assert spans["exec.project"].parent_id == root.span_id
        assert spans["exec.bgp_scan"].parent_id == spans["exec.project"].span_id
        assert all(span.trace_id == root.trace_id for span in spans.values())

    def test_durations_come_from_the_stats(self, tracer):
        tracer.add_operator_spans(self.EVENT, 0.005)
        spans = {span.name: span for span in tracer.finished_spans()}
        # The root finishes a hair after the anchor time; allow that skew.
        assert spans["exec.query"].duration == pytest.approx(0.005, abs=0.05)
        # Durations are reconstructed by float subtraction from epoch time,
        # so expect microsecond-level rounding.
        assert spans["exec.project"].duration == pytest.approx(0.004, abs=1e-5)
        assert spans["exec.bgp_scan"].duration == pytest.approx(0.003, abs=1e-5)

    def test_disabled_synthesis_is_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.add_operator_spans(self.EVENT, 0.005) is NOOP_SPAN
        assert tracer.finished_spans() == []


class TestExport:
    def test_finished_spans_export_as_jsonl(self, tmp_path, monkeypatch):
        from repro.obs import trace as trace_module

        path = tmp_path / "events.jsonl"
        sink = EventSink()
        sink.configure(str(path))
        monkeypatch.setattr(trace_module, "SINK", sink)
        tracer = Tracer(enabled=True)
        with tracer.start_span("exported", {"layer": "test"}):
            pass
        [line] = path.read_text().splitlines()
        record = json.loads(line)
        assert record["kind"] == "span"
        assert record["name"] == "exported"
        assert record["attributes"] == {"layer": "test"}
        assert record["duration"] >= 0

    def test_span_json_shape(self, tracer):
        with tracer.start_span("shape") as span:
            span.add_event("marker")
        payload = span.to_json_dict()
        assert payload["kind"] == "span"
        assert set(payload) == {
            "kind", "name", "trace_id", "span_id", "parent_id",
            "start", "end", "duration", "attributes", "events",
        }
        assert isinstance(Span.__slots__, tuple)  # stays allocation-lean
