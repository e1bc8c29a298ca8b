"""Unit tests for execution policies and circuit breakers."""

import pytest

from repro.federation import (
    CircuitBreaker,
    CircuitState,
    DatasetRegistry,
    ExecutionPolicy,
    LocalSparqlEndpoint,
)
from repro.federation.void import DatasetDescription
from repro.rdf import Graph, URIRef

EX = "http://ex.org/"


def _register(registry: DatasetRegistry, name: str) -> URIRef:
    dataset_uri = URIRef(EX + name)
    registry.register_endpoint(
        DatasetDescription(uri=dataset_uri, endpoint_uri=URIRef(EX + name + "/sparql")),
        LocalSparqlEndpoint(URIRef(EX + name + "/sparql"), Graph(), name=name),
    )
    return dataset_uri


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.timeout is None
        assert policy.max_retries == 0
        assert policy.max_attempts == 1

    def test_retry_delay_grows_exponentially(self):
        policy = ExecutionPolicy(backoff=0.1, backoff_factor=2.0)
        assert policy.retry_delay(0) == pytest.approx(0.1)
        assert policy.retry_delay(1) == pytest.approx(0.2)
        assert policy.retry_delay(2) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(timeout=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(backoff=-0.1)
        with pytest.raises(ValueError):
            ExecutionPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            ExecutionPolicy(failure_threshold=0)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CircuitState.CLOSED
        assert breaker.allow()

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitState.CLOSED
        assert breaker.allow()

    def test_opens_at_threshold_and_refuses(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitState.CLOSED

    def test_half_open_after_reset_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitState.OPEN
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == CircuitState.HALF_OPEN

    def test_half_open_allows_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # no second request until the outcome

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()  # one failure re-opens from half-open
        assert breaker.state == CircuitState.OPEN
        assert not breaker.allow()

    def test_reset(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        breaker.reset()
        assert breaker.state == CircuitState.CLOSED
        assert breaker.consecutive_failures == 0


class TestRegistryPolicies:
    def test_default_policy_applies_to_all(self):
        registry = DatasetRegistry(default_policy=ExecutionPolicy(max_retries=2))
        dataset = _register(registry, "a")
        assert registry.policy_for(dataset).max_retries == 2

    def test_per_dataset_policy_overrides_default(self):
        registry = DatasetRegistry()
        dataset = _register(registry, "a")
        other = _register(registry, "b")
        registry.set_policy(dataset, ExecutionPolicy(timeout=0.5))
        assert registry.policy_for(dataset).timeout == 0.5
        assert registry.policy_for(other).timeout is None

    def test_breaker_created_from_policy(self):
        registry = DatasetRegistry()
        dataset = _register(registry, "a")
        registry.set_policy(dataset, ExecutionPolicy(failure_threshold=2, reset_timeout=7.0))
        breaker = registry.breaker_for(dataset)
        assert breaker.failure_threshold == 2
        assert breaker.reset_timeout == 7.0
        # Stable identity until the policy changes.
        assert registry.breaker_for(dataset) is breaker

    def test_set_policy_rebuilds_breaker(self):
        registry = DatasetRegistry()
        dataset = _register(registry, "a")
        before = registry.breaker_for(dataset)
        registry.set_policy(dataset, ExecutionPolicy(failure_threshold=9))
        after = registry.breaker_for(dataset)
        assert after is not before
        assert after.failure_threshold == 9

    def test_health_reports_states(self):
        registry = DatasetRegistry()
        a = _register(registry, "a")
        b = _register(registry, "b")
        registry.set_policy(b, ExecutionPolicy(failure_threshold=1))
        registry.breaker_for(b).record_failure()
        health = registry.health()
        assert health[a] == CircuitState.CLOSED
        assert health[b] == CircuitState.OPEN

    def test_an_open_breaker_shows_in_health(self):
        registry = DatasetRegistry(default_policy=ExecutionPolicy(failure_threshold=1))
        dataset = _register(registry, "a")
        assert registry.health()[dataset] == CircuitState.CLOSED
        registry.breaker_for(dataset).record_failure()
        assert registry.health()[dataset] == CircuitState.OPEN
