"""Labeled metrics: counters, histograms, Prometheus exposition.

A :class:`MetricsRegistry` holds named metric families; each family keeps
one value (or bucket vector) per label combination.  Registries are cheap,
so the HTTP server gives every server instance its own (per-server request
counters stay independent, as the JSON ``/metrics`` payload always
promised), while process-wide instrumentation — the mediator's rewrite
cache — lives in the module-level :data:`REGISTRY`.

Histograms use fixed latency buckets sized for query serving
(:data:`DEFAULT_LATENCY_BUCKETS`) and estimate p50/p95/p99 by linear
interpolation within the bucket that crosses the target rank — the same
estimate a Prometheus ``histogram_quantile`` query would produce.

``render_prometheus`` emits the text exposition format (version 0.0.4):
``# HELP`` / ``# TYPE`` comments, ``name{label="value"} value`` samples,
and the ``_bucket``/``_sum``/``_count`` series for histograms, with a
cumulative ``+Inf`` bucket.  ``tools/check_prom_format.py`` validates the
output in CI.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "rewrite_cache_counter",
]

#: Histogram bucket upper bounds (seconds) for query-serving latencies:
#: sub-millisecond local lookups through multi-second federated fan-outs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(label_names: tuple[str, ...], labels: dict[str, Any]) -> LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple((name, str(labels[name])) for name in label_names)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """A monotonically increasing labeled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        series = self.samples() or ([((), 0.0)] if not self.label_names else [])
        for key, value in series:
            lines.append(f"{self.name}{_render_labels(key)} {_format_value(value)}")
        return lines

    def snapshot(self) -> dict[str, float]:
        """JSON-ready mapping of rendered label sets to values."""
        return {
            _render_labels(key) or "total": value for key, value in self.samples()
        }


class Histogram:
    """A labeled histogram with cumulative buckets and quantile estimates."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(float(bound) for bound in buckets)
        self._lock = threading.Lock()
        #: Per label set: [per-bucket counts..., overflow count].
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.label_names, labels)
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
            counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels: Any) -> int:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Estimated ``q``-quantile (0..1) by in-bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        key = _label_key(self.label_names, labels)
        with self._lock:
            counts = list(self._counts.get(key, ()))
        total = sum(counts)
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        lower = 0.0
        for position, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += counts[position]
            if cumulative >= rank and counts[position]:
                fraction = (rank - previous) / counts[position]
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
            lower = bound
        # The rank landed in the overflow bucket: report its lower bound.
        return self.buckets[-1] if self.buckets else None

    def _series(self) -> list[tuple[LabelKey, list[int], float]]:
        with self._lock:
            return [
                (key, list(counts), self._sums.get(key, 0.0))
                for key, counts in sorted(self._counts.items())
            ]

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key, counts, total_sum in self._series():
            cumulative = 0
            for position, bound in enumerate(self.buckets):
                cumulative += counts[position]
                labels = _render_labels(key, (("le", _format_value(bound)),))
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += counts[-1]
            labels = _render_labels(key, (("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {cumulative}")
        return lines

    def snapshot(self, **labels: Any) -> dict[str, float | int | None]:
        """JSON-ready latency digest: count, p50/p95/p99."""
        return {
            "count": self.count(**labels),
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
        }


Metric = Counter | Histogram


class MetricsRegistry:
    """Get-or-create registry of metric families, keyed by name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, factory, kind: type) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: tuple[str, ...] = ()
    ) -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name, help, labels), Counter)
        assert isinstance(metric, Counter)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, help, labels, buckets), Histogram
        )
        assert isinstance(metric, Histogram)
        return metric

    def metrics(self) -> list[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for metric in self.metrics():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


#: The process-global registry for cross-cutting instrumentation.
REGISTRY = MetricsRegistry()


def rewrite_cache_counter() -> Counter:
    """Mediator rewrite-cache lookups, labeled by hit/miss outcome."""
    return REGISTRY.counter(
        "repro_rewrite_cache_lookups_total",
        "Mediator rewrite-cache lookups by outcome",
        labels=("outcome",),
    )
