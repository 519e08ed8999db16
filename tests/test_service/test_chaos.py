"""Chaos suite: a 2-worker fleet under injected kills, corruption and slow
handlers must answer every request definitively and converge healthy."""

import http.client
import json
import threading
import time

import numpy as np
import pytest

import repro
from repro.service import faults
from repro.service.client import Client
from repro.service.fleet import FleetFront
from repro.service.server import run_server_in_thread

from tests.conftest import random_pauli_terms

#: load shape: THREADS clients, each issuing REQUESTS_PER_THREAD compiles
#: drawn round-robin from PROGRAM_POOL distinct programs (a cached-hit-heavy
#: mix, like production traffic)
THREADS = 4
REQUESTS_PER_THREAD = 50
PROGRAM_POOL = 10


@pytest.fixture(autouse=True)
def clean_front_registry():
    """The front shares this process's registry; never leak rules across tests."""
    faults.REGISTRY.clear()
    yield
    faults.REGISTRY.clear()


@pytest.fixture(scope="module")
def chaos_fleet(tmp_path_factory):
    front = FleetFront(
        workers=2,
        cache_dir=str(tmp_path_factory.mktemp("chaos-cache")),
        worker_args=["--sweep-interval", "0"],
        enable_faults=True,
        breaker_cooldown=0.2,
    )
    with run_server_in_thread(front, startup_timeout=90.0):
        yield front


def _post(front, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=90)
    try:
        conn.request(
            "POST", path, json.dumps(payload).encode(),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _get(front, path, timeout=90):
    conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _key_owned_by(front, slot):
    """A well-formed (64-hex) artifact key the ring routes to ``slot``."""
    for index in range(10_000):
        key = f"{index:064x}"
        if front.ring.lookup(key) == slot:
            return key
    raise AssertionError(f"no key found for slot {slot}")


def _wait_healthy(front, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status, payload = _get(front, "/healthz")
            if status == 200 and payload["status"] == "ok":
                return payload
        except OSError:
            pass
        time.sleep(0.2)
    raise AssertionError("fleet did not converge healthy in time")


class TestChaos:
    def test_worker_kill_mid_request_is_healed(self, chaos_fleet):
        """A hard worker kill mid-request: respawn + retry, never a hang."""
        deaths_before = chaos_fleet.telemetry.counter("fleet.worker_deaths")
        status, payload = _post(
            chaos_fleet,
            "/fault",
            {
                "clear": True,
                "rules": [
                    {"site": "server.handle", "kind": "kill", "times": 1,
                     "worker": "w1"},
                ],
            },
        )
        assert status == 200
        assert payload["workers"]["w1"]["status"] == 200
        # the first w1-bound request eats the kill; the front respawns the
        # worker into its slot and re-sends, so the caller still gets the
        # definitive answer (a 404 for a key nobody stored)
        key = _key_owned_by(chaos_fleet, "w1")
        status, _ = _get(chaos_fleet, f"/result/{key}")
        assert status == 404
        assert chaos_fleet.telemetry.counter("fleet.worker_deaths") > deaths_before
        health = _wait_healthy(chaos_fleet)
        assert health["workers"] == 2

    def test_front_upstream_fault_degrades_then_recovers(self, chaos_fleet):
        # no "clear" here: clearing broadcasts to the workers through the
        # same upstream path and would consume the trips before the probe
        status, _ = _post(
            chaos_fleet,
            "/fault",
            {"rules": [{"site": "fleet.upstream", "kind": "error", "times": 2}]},
        )
        assert status == 200
        # one /healthz forwards to both workers, eating both trips: the
        # report is a definitive degraded aggregate, not a hang
        status, payload = _get(chaos_fleet, "/healthz")
        assert status == 500
        assert payload["status"] == "degraded"
        _wait_healthy(chaos_fleet)

    def test_chaos_load_every_request_answered(self, chaos_fleet):
        """The tentpole scenario: kills + corruption + slow handlers +
        transient errors under concurrent load.  Every request must resolve
        (no hangs), virtually all successfully thanks to retries, every
        returned artifact bit-exact, and the fleet healthy afterwards."""
        rng = np.random.default_rng(2026)
        programs = [random_pauli_terms(rng, 4, 5) for _ in range(PROGRAM_POOL)]
        references = [repro.compile(terms, level=1) for terms in programs]

        status, _ = _post(
            chaos_fleet,
            "/fault",
            {
                "clear": True,
                "seed": 1234,
                "rules": [
                    # a slow handler a fifth of the time
                    {"site": "server.handle", "kind": "delay", "delay_ms": 25,
                     "probability": 0.2},
                    # transient 500s the client retries through
                    {"site": "server.handle", "kind": "error",
                     "probability": 0.05, "times": 4},
                    # disk rot on the shared cache
                    {"site": "cache.read", "kind": "corrupt", "probability": 0.1},
                    # compile-phase failures
                    {"site": "scheduler.compile", "kind": "error",
                     "probability": 0.3, "times": 2},
                    # and at most one hard crash per worker
                    {"site": "server.handle", "kind": "kill",
                     "probability": 0.01, "times": 1},
                ],
            },
        )
        assert status == 200

        results_lock = threading.Lock()
        outcomes = []  # (program_index, circuit-or-None, error-or-None)
        retries_total = [0]

        def _worker(thread_index):
            with Client(
                port=chaos_fleet.port, timeout=90.0, retries=4, backoff=0.02
            ) as client:
                for i in range(REQUESTS_PER_THREAD):
                    index = (thread_index * REQUESTS_PER_THREAD + i) % PROGRAM_POOL
                    try:
                        response = client.compile(programs[index], level=1)
                        record = (index, response.result.circuit, None)
                    except Exception as error:  # noqa: BLE001 — recorded, asserted on
                        record = (index, None, error)
                    with results_lock:
                        outcomes.append(record)
                with results_lock:
                    retries_total[0] += client.retries_performed

        threads = [
            threading.Thread(target=_worker, args=(n,), daemon=True)
            for n in range(THREADS)
        ]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        hung = [thread for thread in threads if thread.is_alive()]
        assert not hung, f"{len(hung)} load threads hung — requests never resolved"
        elapsed = time.monotonic() - start

        total = THREADS * REQUESTS_PER_THREAD
        assert len(outcomes) == total, "every request must produce an outcome"
        failures = [(index, error) for index, _, error in outcomes if error is not None]
        success_rate = 1.0 - len(failures) / total
        assert success_rate >= 0.99, (
            f"success rate {success_rate:.3f} under chaos "
            f"(failures: {failures[:5]}, elapsed {elapsed:.1f}s)"
        )
        # corruption or crashes must never serve a wrong artifact
        for index, circuit, error in outcomes:
            if error is None:
                assert circuit == references[index].circuit

        # disarm everything and require convergence back to healthy
        status, _ = _post(chaos_fleet, "/fault", {"clear": True})
        assert status == 200
        _wait_healthy(chaos_fleet)
        stats = chaos_fleet.stats()
        assert all(entry["alive"] for entry in stats["workers"].values())
        assert all(
            entry["in_flight"] == 0 for entry in stats["workers"].values()
        )

        # the artifacts stayed bit-exact on disk too: a fresh client re-reads
        # every program through the (now fault-free) cache path
        with Client(port=chaos_fleet.port, timeout=90.0) as client:
            for index, terms in enumerate(programs):
                response = client.compile(terms, level=1)
                assert response.result.circuit == references[index].circuit

    def test_metrics_expose_hardening_counters(self, chaos_fleet):
        status, payload = _get(chaos_fleet, "/metrics")
        assert status == 200
        for entry in payload["per_worker"]:
            assert entry["breaker"]["state"] in ("closed", "open", "half-open")
            assert "max_queue_depth" in entry["scheduler"]
            assert "jobs_shed" in entry["scheduler"]
        assert "corrupt_artifacts" in payload["cache"]
        assert "read_errors" in payload["cache"]


class TestDrainTimeout:
    def test_draining_restart_past_drain_timeout_does_not_wedge(self, chaos_fleet):
        """Satellite: a request stuck on a worker cannot wedge a draining
        restart — the drain gives up after ``drain_timeout``, the worker is
        replaced anyway, and the stuck caller still gets a definitive answer
        (the front re-sends to the respawned worker)."""
        _post(chaos_fleet, "/fault", {"clear": True})
        old_timeout = chaos_fleet.drain_timeout
        chaos_fleet.drain_timeout = 1.0
        try:
            # wedge w0 with a one-shot 20 s handler stall, then send it the
            # request that eats the stall
            status, _ = _post(
                chaos_fleet,
                "/fault",
                {"rules": [{"site": "server.handle", "kind": "delay",
                            "delay_ms": 20_000, "times": 1, "worker": "w0"}]},
            )
            assert status == 200
            key = _key_owned_by(chaos_fleet, "w0")
            stuck_outcome = []

            def _stuck_request():
                try:
                    stuck_outcome.append(_get(chaos_fleet, f"/result/{key}"))
                except Exception as error:  # noqa: BLE001 — recorded, asserted on
                    stuck_outcome.append(error)

            stuck = threading.Thread(target=_stuck_request, daemon=True)
            stuck.start()
            time.sleep(0.5)  # let it reach the stalled worker

            timeouts_before = chaos_fleet.telemetry.counter("fleet.drain_timeouts")
            start = time.monotonic()
            status, payload = _post(chaos_fleet, "/fleet/restart", {})
            elapsed = time.monotonic() - start
            assert status == 200
            assert payload["restarted"] == ["w0", "w1"]
            # the restart gave up draining instead of waiting out the stall
            assert elapsed < 15.0, f"restart took {elapsed:.1f}s — drain wedged"
            assert (
                chaos_fleet.telemetry.counter("fleet.drain_timeouts")
                > timeouts_before
            )

            # the stuck caller resolves (its retry reaches the fresh worker,
            # which has no stall armed and answers 404) — never a hang
            stuck.join(timeout=60)
            assert not stuck.is_alive(), "the drained-over request hung"
            assert stuck_outcome and not isinstance(stuck_outcome[0], Exception)
            assert stuck_outcome[0][0] == 404
            _wait_healthy(chaos_fleet)
        finally:
            chaos_fleet.drain_timeout = old_timeout
            _post(chaos_fleet, "/fault", {"clear": True})
