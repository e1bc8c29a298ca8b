"""Per-layer self times from the traced run's spans.

One client is in flight at a time, so a span belongs to the request whose
client-observed interval contains it (``perf_counter`` is one system-wide
monotonic clock, shared by harness and server process).

A request's wall-clock interval is then tiled, without overlap:

* outside the front backend span            -> front HTTP hop,
* inside it but in no endpoint-client span  -> front backend itself,
* inside an endpoint-client span but in no
  dataset backend span                      -> sub-request HTTP hop,
* inside a dataset backend span             -> dataset backend.

Fan-out and decomposed rounds run their sub-requests concurrently; where
several innermost spans are open at once the instant is shared equally
among them, so the four buckets always sum to the request time.  Each
bucket is finally split by subtracting what was measured inside it - the
replayed pure functions and the store's iterator time - and the rest is
the bucket's own layer (``*.hop_ms``, ``*.self_ms``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

__all__ = ["LAYER_TIMES", "attribute"]

#: The self-time rows of the per-layer table, in pipeline order.
LAYER_TIMES = (
    "server.http.hop_ms",
    "sparql.parser.ms",
    "sparql.analysis.ms",
    "core.mediator.ms",
    "federation.decompose.plan_ms",
    "federation.federator.self_ms",
    "sparql.serializer.ms",
    "federation.http_endpoint.hop_ms",
    "sparql.plan.ms",
    "sparql.exec.self_ms",
    "rdf.store.read_ms",
    "sparql.formats.write_ms",
    "sparql.formats.parse_ms",
)


def _tile(front: dict, clients: list[dict], datasets: list[dict]) -> tuple[float, float, float]:
    """Seconds of ``front``'s interval owned by (front, clients, datasets).

    The front's own work is not all on the handler thread: each sub-request
    is prepared (rewritten, built) on a pool thread before its client span
    opens.  From the end of the previous round of sub-requests until a
    client span opens, its pool thread therefore counts as one more open
    leaf, owned by the front.
    """
    events = []
    for level, spans in ((1, clients), (2, datasets)):
        for span in spans:
            events.append((span["start"], 1, level, span["label"]))
            events.append((span["end"], -1, level, span["label"]))
    ends = sorted(span["end"] for span in clients)
    for span in clients:
        before = bisect_right(ends, span["start"])
        events.append((ends[before - 1] if before else front["start"], 1, 0, ""))
        events.append((span["start"], -1, 0, ""))
    events.sort(key=lambda event: (event[0], event[1]))
    preparing = 0
    open_clients: dict[str, int] = defaultdict(int)
    open_datasets: dict[str, int] = defaultdict(int)
    owned = [0.0, 0.0, 0.0]
    cursor = front["start"]
    for moment, delta, level, label in events:
        moment = min(max(moment, front["start"]), front["end"])
        if moment > cursor:
            in_dataset = sum(open_datasets.values())
            # A client whose server is already executing is not innermost.
            waiting = sum(
                max(0, count - open_datasets.get(name, 0))
                for name, count in open_clients.items()
            )
            if waiting + in_dataset == 0:
                owned[0] += moment - cursor
            else:
                leaves = preparing + waiting + in_dataset
                for bucket, share in enumerate((preparing, waiting, in_dataset)):
                    owned[bucket] += (moment - cursor) * share / leaves
            cursor = moment
        if level == 0:
            preparing += delta
        else:
            (open_clients if level == 1 else open_datasets)[label] += delta
    owned[0] += front["end"] - cursor
    return owned[0], owned[1], owned[2]


def attribute(requests: list[tuple[float, float]], spans: list[dict],
              federated: bool) -> dict[str, float]:
    """Totals over the traced requests: layer milliseconds and counts.

    ``requests`` are the client-observed ``(start, end)`` intervals in send
    order; ``spans`` come from the server's ``spans`` command.
    """
    starts = [start for start, _ in requests]
    per_request: list[list[dict]] = [[] for _ in requests]
    for span in spans:
        index = bisect_right(starts, span["start"]) - 1
        if index >= 0 and span["end"] <= requests[index][1]:
            per_request[index].append(span)

    total: dict[str, float] = defaultdict(float)
    for (start, end), own in zip(requests, per_request, strict=True):
        round_trip = (end - start) * 1e3
        total["trace.request_ms"] += round_trip
        fronts = [s for s in own if s["kind"] == "backend" and s["label"] == "front"]
        clients = [s for s in own if s["kind"] == "endpoint"]
        datasets = [s for s in own if s["kind"] == "backend" and s["label"] != "front"]
        layer: dict[str, float] = defaultdict(float)
        rest: dict[str, float] = {}
        if not fronts:
            # Answered from the front ResponseCache: HTTP and nothing else.
            layer["server.http.hop_ms"] = round_trip
        else:
            front = fronts[0]
            if federated:
                in_front, in_clients, in_datasets = (
                    seconds * 1e3 for seconds in _tile(front, clients, datasets))
            else:
                in_front, in_clients, in_datasets = 0.0, 0.0, (front["end"] - front["start"]) * 1e3
                datasets = [front]

            def measured(spans: list[dict], pairs) -> float:
                """Add what was measured inside ``spans`` to its layers; return the sum."""
                inside = 0.0
                for span in spans:
                    for key, name in pairs:
                        layer[name] += span.get(key, 0.0)
                        inside += span.get(key, 0.0)
                return inside

            layer["server.http.hop_ms"] = (
                round_trip - (front["end"] - front["start"]) * 1e3
                - measured([front], (("write_ms", "sparql.formats.write_ms"),)))
            if federated:
                # Under the decompose strategy the rewrites happen once per
                # sub-request, on the front's threads, before each call.
                rest["federation.federator.self_ms"] = (
                    in_front
                    - measured([front], (("parse_ms", "sparql.parser.ms"),
                                         ("analysis_ms", "sparql.analysis.ms"),
                                         ("translate_ms", "core.mediator.ms"),
                                         ("decompose_ms", "federation.decompose.plan_ms")))
                    - measured(clients, (("translate_ms", "core.mediator.ms"),)))
                rest["federation.http_endpoint.hop_ms"] = (
                    in_clients
                    - measured(clients, (("serialize_ms", "sparql.serializer.ms"),))
                    - measured(datasets, (("write_ms", "sparql.formats.write_ms"),
                                          ("parse_results_ms", "sparql.formats.parse_ms"))))
            rest["sparql.exec.self_ms"] = in_datasets - measured(
                datasets, (("parse_ms", "sparql.parser.ms"),
                           ("analysis_ms", "sparql.analysis.ms"),
                           ("plan_ms", "sparql.plan.ms"),
                           ("store_ms", "rdf.store.read_ms")))

        # Threads of one request interleave under the interpreter lock, so
        # work the tiling cannot see (a rewrite on one pool thread while
        # another already waits on its socket) lands in a neighbour's
        # bucket and leaves its own in debt.  The debt is paid from the
        # other remainders in proportion; the request time is conserved.
        credit = sum(value for value in rest.values() if value > 0)
        debt = -sum(value for value in rest.values() if value < 0)
        scale = max(credit - debt, 0.0) / credit if credit else 0.0
        for name, value in rest.items():
            layer[name] = max(value, 0.0) * scale
        for name, value in layer.items():
            total[name] += max(value, 0.0)

        sent = [s for s in own if s["kind"] == "backend"]
        total["sparql.parser.chars"] += sum(s.get("chars", 0) for s in sent)
        total["sparql.formats.bytes"] += sum(s.get("bytes", 0) for s in sent)
        executed = datasets if fronts else []
        total["exec.queries"] += len(executed)
        total["exec.rows"] += sum(s.get("rows", 0) for s in executed)
        total["rdf.store.calls"] += sum(s.get("store_calls", 0) for s in executed)
        total["rdf.store.ids"] += sum(s.get("store_ids", 0) for s in executed)
        for counter in ("records_read", "range_scans", "lookups"):
            total[f"io.{counter}"] += sum(s.get("io", {}).get(counter, 0) for s in executed)
        if federated and fronts:
            total["federation.http_endpoint.subrequests"] += len(clients)
            total["federation.decompose.ask_probes"] += sum(s["op"] == "ask" for s in clients)
            total["federation.decompose.endpoints_contacted"] += len(
                {s["label"] for s in clients})
            total["federation.federator.failed_datasets"] += len(
                {s["label"] for s in clients if s["failed"]})
            total["rows.shipped"] += sum(s.get("rows", 0) for s in datasets)
            total["rows.answered"] += fronts[0].get("rows", 0)
            total["core.mediator.function_calls"] += fronts[0].get("function_calls", 0)
            total["patterns.in"] += fronts[0].get("patterns_in", 0)
            total["patterns.out"] += fronts[0].get("patterns_out", 0)
    return dict(total)
