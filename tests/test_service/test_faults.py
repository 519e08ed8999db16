"""Fault injection and the hardening it exercises: registry, quarantine,
deadlines, shedding, dedup, client retries, circuit breakers."""

import asyncio
import http.client
import json
import time

import numpy as np
import pytest

import repro
from repro.exceptions import (
    FaultInjectedError,
    OverloadedError,
    ServiceError,
)
from repro.service import faults
from repro.service.cache import ArtifactCache
from repro.service.client import Client
from repro.service.faults import FaultRegistry, FaultRule, parse_spec
from repro.service.fleet import CircuitBreaker
from repro.service.scheduler import BatchingScheduler
from repro.service.server import ServiceServer, run_server_in_thread

from tests.conftest import random_pauli_terms


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test leaves the process-wide registry disarmed."""
    faults.REGISTRY.clear()
    yield
    faults.REGISTRY.clear()


class TestParseSpec:
    def test_basic_error_rule(self):
        rules = parse_spec("cache.read:error:0.05")
        assert len(rules) == 1
        assert rules[0].site == "cache.read"
        assert rules[0].kind == "error"
        assert rules[0].probability == 0.05

    def test_probability_defaults_to_one(self):
        assert parse_spec("server.handle:error")[0].probability == 1.0

    def test_delay_durations(self):
        assert parse_spec("a:delay:200ms")[0].delay_seconds == pytest.approx(0.2)
        assert parse_spec("a:delay:1.5s")[0].delay_seconds == pytest.approx(1.5)
        assert parse_spec("a:delay:0.25")[0].delay_seconds == pytest.approx(0.25)

    def test_delay_with_probability(self):
        rule = parse_spec("worker.handle:delay:200ms:0.5")[0]
        assert rule.delay_seconds == pytest.approx(0.2)
        assert rule.probability == 0.5

    def test_multiple_rules_and_blank_chunks(self):
        rules = parse_spec("a:error:0.1, ,b:delay:10ms,")
        assert [(rule.site, rule.kind) for rule in rules] == [
            ("a", "error"),
            ("b", "delay"),
        ]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_spec("just-a-site")
        with pytest.raises(ValueError):
            parse_spec("a:frobnicate")
        with pytest.raises(ValueError):
            parse_spec("a:delay")  # delay needs a duration
        with pytest.raises(ValueError):
            parse_spec("a:delay:nonsense")
        with pytest.raises(ValueError):
            parse_spec("a:error:1.5")  # probability out of range


class TestFaultRule:
    def test_dict_round_trip(self):
        rule = FaultRule(
            site="server.handle",
            kind="delay",
            probability=0.25,
            delay_seconds=0.03,
            times=2,
            worker="w1",
        )
        clone = FaultRule.from_dict(rule.to_dict())
        assert clone.site == rule.site
        assert clone.kind == rule.kind
        assert clone.probability == rule.probability
        assert clone.delay_seconds == pytest.approx(rule.delay_seconds)
        assert clone.times == 2
        assert clone.worker == "w1"

    def test_from_dict_accepts_duration_strings(self):
        rule = FaultRule.from_dict({"site": "a", "kind": "delay", "delay": "50ms"})
        assert rule.delay_seconds == pytest.approx(0.05)

    def test_from_dict_rejects_unknown_fields_and_bad_times(self):
        with pytest.raises(ValueError):
            FaultRule.from_dict({"site": "a", "kind": "error", "wat": 1})
        with pytest.raises(ValueError):
            FaultRule.from_dict({"site": "a", "kind": "error", "times": 0})
        with pytest.raises(ValueError):
            FaultRule.from_dict("not-a-dict")


class TestFaultRegistry:
    def test_unarmed_fire_is_a_noop(self):
        registry = FaultRegistry()
        registry.fire("anything")  # must not raise

    def test_error_rule_raises(self):
        registry = FaultRegistry()
        registry.configure("spot:error")
        with pytest.raises(FaultInjectedError):
            registry.fire("spot")
        registry.fire("other.site")  # non-matching site untouched

    def test_delay_rule_sleeps(self):
        registry = FaultRegistry()
        registry.configure("spot:delay:30ms")
        start = time.monotonic()
        registry.fire("spot")
        assert time.monotonic() - start >= 0.025

    def test_times_cap(self):
        registry = FaultRegistry()
        registry.add(FaultRule(site="spot", kind="error", times=2))
        for _ in range(2):
            with pytest.raises(FaultInjectedError):
                registry.fire("spot")
        registry.fire("spot")  # cap exhausted: no more trips

    def test_probability_zero_never_fires(self):
        registry = FaultRegistry()
        registry.configure("spot:error:0.0")
        for _ in range(50):
            registry.fire("spot")

    def test_seeded_registries_agree(self):
        def outcomes(seed):
            registry = FaultRegistry(seed=seed)
            registry.configure("spot:error:0.5")
            fired = []
            for _ in range(40):
                try:
                    registry.fire("spot")
                    fired.append(False)
                except FaultInjectedError:
                    fired.append(True)
            return fired

        assert outcomes(7) == outcomes(7)
        assert any(outcomes(7)) and not all(outcomes(7))

    def test_corrupt_bytes(self):
        registry = FaultRegistry(seed=3)
        registry.configure("spot:corrupt")
        data = b"x" * 64
        mangled = registry.corrupt_bytes("spot", data)
        assert mangled != data
        # non-matching site passes data through untouched
        assert registry.corrupt_bytes("elsewhere", data) == data

    def test_kill_uses_exit_indirection(self):
        registry = FaultRegistry()
        registry.configure("spot:kill")
        codes = []
        registry._exit = codes.append
        registry.fire("spot")
        assert codes == [1]

    def test_fire_async(self):
        registry = FaultRegistry()
        registry.configure("spot:error")

        async def go():
            with pytest.raises(FaultInjectedError):
                await registry.fire_async("spot")

        asyncio.run(go())

    def test_configure_replaces_and_clear_disarms(self):
        registry = FaultRegistry()
        registry.configure("a:error")
        registry.configure("b:error")
        assert [rule.site for rule in registry.active()] == ["b"]
        registry.clear()
        assert not registry.armed
        registry.fire("b")


class TestQuarantine:
    def _store_one(self, cache, rng, seed=0):
        terms = random_pauli_terms(rng, 4, 5)
        result = repro.compile(terms, level=1)
        key = cache.key_for(terms, level=1)
        cache.put(key, result)
        return key

    def test_corrupt_artifact_is_quarantined(self, tmp_path, rng):
        cache = ArtifactCache(tmp_path / "cache")
        key = self._store_one(cache, rng)
        cache.forget_memory()
        path = cache._objects.path(key)
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert cache.corrupt_artifacts == 1
        assert not path.exists()
        assert cache.quarantine_entries() == 1
        assert cache.stats()["corrupt_artifacts"] == 1

    def test_injected_corruption_degrades_to_a_miss(self, tmp_path, rng):
        cache = ArtifactCache(tmp_path / "cache")
        key = self._store_one(cache, rng)
        cache.forget_memory()
        faults.REGISTRY.reseed(5)
        faults.REGISTRY.configure("cache.read:corrupt")
        assert cache.get(key) is None
        faults.REGISTRY.clear()
        assert cache.corrupt_artifacts == 1

    def test_injected_read_error_degrades_to_a_miss(self, tmp_path, rng):
        cache = ArtifactCache(tmp_path / "cache")
        key = self._store_one(cache, rng)
        cache.forget_memory()
        faults.REGISTRY.configure("cache.read:error")
        assert cache.get(key) is None
        faults.REGISTRY.clear()
        assert cache.read_errors == 1
        # the artifact itself was never touched: next read hits disk
        assert cache.get(key) is not None

    def test_quarantine_is_bounded(self, tmp_path, rng):
        cache = ArtifactCache(tmp_path / "cache")
        cache.max_quarantine = 3
        for seed in range(5):
            key = self._store_one(cache, np.random.default_rng(seed + 100))
            cache.forget_memory()
            cache._objects.path(key).write_text("broken")
            assert cache.get(key) is None
            time.sleep(0.01)  # distinct mtimes for the oldest-first prune
        assert cache.corrupt_artifacts == 5
        assert cache.quarantine_entries() <= 3


class TestSchedulerShedding:
    def test_queue_depth_sheds_with_retry_after(self, rng):
        terms = [random_pauli_terms(rng, 4, 4) for _ in range(3)]

        async def go():
            scheduler = BatchingScheduler(max_queue_depth=1)
            try:
                outcomes = await asyncio.gather(
                    *(scheduler.submit(t, level=1) for t in terms),
                    return_exceptions=True,
                )
            finally:
                scheduler.close()
            return outcomes

        outcomes = asyncio.run(go())
        shed = [o for o in outcomes if isinstance(o, OverloadedError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(shed) == 2 and len(served) == 1
        assert shed[0].retry_after > 0


@pytest.fixture(scope="module")
def fault_server(tmp_path_factory):
    server = ServiceServer(
        cache_dir=str(tmp_path_factory.mktemp("fault-cache")),
        enable_faults=True,
    )
    with run_server_in_thread(server):
        yield server


def _raw_post(server, path, payload, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        base = {"Content-Type": "application/json"}
        base.update(headers or {})
        conn.request("POST", path, json.dumps(payload).encode(), base)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestServerHardening:
    def test_fault_endpoint_requires_opt_in(self, tmp_path):
        server = ServiceServer()
        with run_server_in_thread(server):
            status, payload = _raw_post(server, "/fault", {"spec": "a:error"})
        assert status == 403
        assert payload["type"] == "FaultsDisabled"
        assert not faults.REGISTRY.active()

    def test_fault_endpoint_arms_and_reports(self, fault_server):
        status, payload = _raw_post(
            fault_server, "/fault", {"clear": True, "spec": "cache.read:error:0.5"}
        )
        assert status == 200
        assert payload["active"] == [
            {"site": "cache.read", "kind": "error", "probability": 0.5}
        ]
        status, payload = _raw_post(fault_server, "/fault", {"clear": True})
        assert status == 200 and payload["active"] == []

    def test_fault_endpoint_rejects_bad_specs(self, fault_server):
        status, payload = _raw_post(fault_server, "/fault", {"spec": "nope"})
        assert status == 400 and payload["type"] == "FaultSpec"
        status, _ = _raw_post(
            fault_server, "/fault", {"rules": [{"site": "a", "kind": "error", "x": 1}]}
        )
        assert status == 400

    def test_injected_handler_fault_is_a_500(self, fault_server):
        _raw_post(
            fault_server,
            "/fault",
            {"clear": True, "rules": [{"site": "server.handle", "kind": "error", "times": 1}]},
        )
        with Client(port=fault_server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 500
            assert client.healthz()["status"] == "ok"  # one-shot rule expired

    def test_exhausted_deadline_is_a_504(self, fault_server, rng):
        with Client(port=fault_server.port, deadline=0.0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.compile(random_pauli_terms(rng, 4, 4), level=1)
        assert excinfo.value.status == 504

    def test_malformed_deadline_is_ignored(self, fault_server):
        conn = http.client.HTTPConnection("127.0.0.1", fault_server.port, timeout=30)
        try:
            conn.request("GET", "/healthz", headers={"X-Repro-Deadline": "soon"})
            assert conn.getresponse().status == 200
        finally:
            conn.close()

    def test_request_id_deduplicates_posts(self, fault_server, rng):
        from repro.service.serialize import program_to_wire

        payload = {
            "program": program_to_wire(random_pauli_terms(rng, 4, 4)),
            "level": 1,
            "include_result": False,
        }
        headers = {"X-Repro-Request-Id": "dedup-test-1"}
        status, first = _raw_post(fault_server, "/compile", payload, headers)
        assert status == 200 and "deduplicated" not in first
        status, replay = _raw_post(fault_server, "/compile", payload, headers)
        assert status == 200
        assert replay["deduplicated"] is True
        assert replay["key"] == first["key"]
        assert fault_server.telemetry.counter("service.request_dedup_hits") >= 1


class TestClientRetries:
    def test_retries_heal_transient_500s(self, fault_server):
        _raw_post(
            fault_server,
            "/fault",
            {"clear": True, "rules": [{"site": "server.handle", "kind": "error", "times": 2}]},
        )
        with Client(port=fault_server.port, retries=3, backoff=0.001) as client:
            assert client.healthz()["status"] == "ok"
            assert client.retries_performed == 2

    def test_4xx_is_never_retried(self, fault_server):
        with Client(port=fault_server.port, retries=3, backoff=0.001) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404
            assert client.retries_performed == 0

    def test_exhausted_retries_raise_the_last_error(self, fault_server):
        _raw_post(
            fault_server,
            "/fault",
            {"clear": True, "rules": [{"site": "server.handle", "kind": "error", "times": 5}]},
        )
        try:
            with Client(port=fault_server.port, retries=1, backoff=0.001) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.healthz()
                assert excinfo.value.status == 500
                assert client.retries_performed == 1
        finally:
            _raw_post(fault_server, "/fault", {"clear": True})

    def test_transport_errors_retry_to_a_live_server(self, fault_server):
        with Client(port=fault_server.port, retries=2, backoff=0.001) as client:
            client.healthz()
            # poison the keep-alive socket; the free reconnect plus the retry
            # layer must absorb it without surfacing an error
            client._connection.sock.close()
            assert client.healthz()["status"] == "ok"


class TestTraceFaultSite:
    """Tracing and fault injection must compose, in both directions."""

    def test_trace_endpoints_have_their_own_fault_site(self, fault_server):
        from repro.observability import TRACER

        TRACER.clear()
        _raw_post(
            fault_server,
            "/fault",
            {"clear": True, "rules": [{"site": "server.trace", "kind": "error", "times": 1}]},
        )
        try:
            with Client(port=fault_server.port, trace=True) as client:
                # the serving path is untouched while /trace is faulted...
                assert client.healthz()["status"] == "ok"
                with pytest.raises(ServiceError) as excinfo:
                    client._request("GET", f"/trace/{client.last_trace_id}")
                assert excinfo.value.status == 500
                # ...and the one-shot rule expired: the trace is still there
                assert client.trace() is not None
        finally:
            _raw_post(fault_server, "/fault", {"clear": True})

    def test_tracing_never_masks_injected_faults(self, fault_server):
        from repro.observability import TRACER

        TRACER.clear()
        _raw_post(
            fault_server,
            "/fault",
            {"clear": True, "rules": [{"site": "server.handle", "kind": "error", "times": 1}]},
        )
        try:
            with Client(port=fault_server.port, trace=True) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.healthz()
                assert excinfo.value.status == 500  # fault fires despite tracing
                spans = TRACER.trace(client.last_trace_id)
                (handle,) = [s for s in spans if s["name"] == "server.handle"]
                assert "FaultInjectedError" in handle["error"]
        finally:
            _raw_post(fault_server, "/fault", {"clear": True})


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60.0)
        assert breaker.record_failure() is None
        assert breaker.record_failure() is None
        assert breaker.record_failure() == "trip"
        assert breaker.state == "open"
        assert breaker.allow() == (False, None)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=60.0)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is None
        assert breaker.state == "closed"

    def test_half_open_probe_and_reset(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.01)
        assert breaker.record_failure() == "trip"
        time.sleep(0.02)
        assert breaker.allow() == (True, "probe")
        # only one probe may be outstanding
        assert breaker.allow() == (False, None)
        assert breaker.record_success() == "reset"
        assert breaker.state == "closed"
        assert breaker.allow() == (True, None)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow() == (True, "probe")
        assert breaker.record_failure() == "trip"
        assert breaker.state == "open"
        assert breaker.allow() == (False, None)

    def test_release_probe_frees_the_slot(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow() == (True, "probe")
        breaker.release_probe()  # aborted forward: no verdict
        assert breaker.allow() == (True, "probe")

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(threshold=0)
        for _ in range(10):
            breaker.record_failure()
        assert breaker.allow() == (True, None)
