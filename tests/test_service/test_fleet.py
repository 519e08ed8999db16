"""The multi-worker fleet: hash ring, sharding front, restarts, rollups."""

import collections
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import ServiceError
from repro.service.client import Client
from repro.service.fleet import DEFAULT_VNODES, FleetFront, HashRing
from repro.service.server import run_server_in_thread

from tests.conftest import random_pauli_terms


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing(["w0", "w1", "w2"])
        again = HashRing(["w0", "w1", "w2"])
        keys = [f"artifact-{i}" for i in range(200)]
        assert [ring.lookup(k) for k in keys] == [again.lookup(k) for k in keys]

    def test_slots_split_the_key_space_roughly_evenly(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        counts = collections.Counter(ring.lookup(f"key-{i}") for i in range(4000))
        assert set(counts) == {"w0", "w1", "w2", "w3"}
        assert min(counts.values()) > 4000 / 4 * 0.5

    def test_single_slot_owns_everything(self):
        ring = HashRing(["only"])
        assert {ring.lookup(f"k{i}") for i in range(50)} == {"only"}

    def test_points_keyed_by_slot_name_not_order(self):
        # a restarted worker re-enters under its slot name and must inherit
        # exactly its old ranges, whatever order the slots were listed in
        forward = HashRing(["w0", "w1"])
        reversed_ = HashRing(["w1", "w0"])
        keys = [f"key-{i}" for i in range(300)]
        assert [forward.lookup(k) for k in keys] == [reversed_.lookup(k) for k in keys]

    def test_empty_ring_rejected(self):
        with pytest.raises(ServiceError):
            HashRing([])

    def test_vnode_count(self):
        ring = HashRing(["a", "b"], vnodes=8)
        assert len(ring._points) == 16
        assert HashRing(["a"]).vnodes == DEFAULT_VNODES


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    front = FleetFront(
        workers=2,
        cache_dir=str(tmp_path_factory.mktemp("fleet-cache")),
        worker_args=["--sweep-interval", "0"],
    )
    with run_server_in_thread(front, startup_timeout=90.0):
        yield front


@pytest.fixture
def client(fleet):
    with Client(port=fleet.port) as instance:
        yield instance


def _post(fleet, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", fleet.port, timeout=90)
    try:
        body = json.dumps(payload or {}).encode()
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestFleetServing:
    def test_validates_worker_count(self):
        with pytest.raises(ServiceError):
            FleetFront(workers=0)

    def test_healthz_aggregates_all_workers(self, client, fleet):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["fleet"] is True
        assert payload["workers"] == 2
        assert {entry["slot"] for entry in payload["worker_health"]} == {"w0", "w1"}

    def test_compile_miss_then_hit(self, client):
        terms = random_pauli_terms(_rng(10), 4, 6)
        reference = repro.compile(terms, level=3)
        first = client.compile(terms)
        second = client.compile(terms)
        assert not first.cache_hit
        assert second.cache_hit
        assert first.result.circuit == reference.circuit
        assert second.result.circuit == reference.circuit

    def test_result_roundtrip_through_the_ring(self, client):
        terms = random_pauli_terms(_rng(11), 4, 6)
        response = client.compile(terms)
        fetched = client.result(response.key)
        assert fetched is not None
        assert fetched.circuit == response.result.circuit
        assert client.delete_result(response.key)
        assert client.result(response.key) is None

    def test_requests_shard_across_workers(self, client, fleet):
        for seed in range(12, 32):
            client.compile(random_pauli_terms(_rng(seed), 4, 5), include_result=False)
        per_worker = {
            entry["slot"]: entry["scheduler"]["jobs_submitted"]
            for entry in client.metrics()["per_worker"]
        }
        assert all(jobs > 0 for jobs in per_worker.values()), per_worker

    def test_metrics_rollup(self, client):
        client.compile(random_pauli_terms(_rng(40), 4, 5), include_result=False)
        payload = client.metrics()
        assert payload["workers"] == 2
        assert payload["scheduler"]["jobs_submitted"] == sum(
            entry["scheduler"]["jobs_submitted"] for entry in payload["per_worker"]
        )
        assert payload["telemetry"]["counters"]["service.http_requests"] >= 1
        assert payload["cache"]["hits"] >= 1
        assert payload["fleet"]["counters"]["fleet.http_requests"] >= 1

    def test_bind_shards_on_template_key(self, client, fleet):
        from repro.parametric import ParametricProgram

        terms = random_pauli_terms(_rng(41), 4, 6)
        program = ParametricProgram.from_terms(terms, [i % 2 for i in range(6)])
        handle = client.compile_template(program)
        local = None
        for _ in range(3):
            response = client.bind([0.3, 0.7], template_key=handle.template_key)
            if local is None:
                local = response.result
            assert response.result.circuit == local.circuit
        # the ring sends every bind of this template to one worker
        slot = fleet.ring.lookup(handle.template_key)
        assert slot in fleet.workers

    def test_unknown_path_propagates_worker_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestFleetLifecycle:
    def test_rolling_restart_preserves_cache(self, client, fleet):
        terms = random_pauli_terms(_rng(50), 4, 6)
        first = client.compile(terms)
        status, payload = _post(fleet, "/fleet/restart")
        assert status == 200
        assert payload["restarted"] == ["w0", "w1"]
        # the shared disk cache survives the worker processes
        second = client.compile(terms)
        assert second.cache_hit
        assert second.key == first.key
        assert client.healthz()["status"] == "ok"

    def test_dead_worker_is_respawned_on_traffic(self, client, fleet):
        for handle in fleet.workers.values():
            handle.process.kill()
            handle.process.wait()
        assert client.healthz()["status"] == "ok"
        stats = fleet.stats()
        assert all(entry["alive"] for entry in stats["workers"].values())
        assert fleet.telemetry.counter("fleet.worker_deaths") >= 1


def _child_pids(pid: int) -> "list[int]":
    listed = subprocess.run(["pgrep", "-P", str(pid)], capture_output=True, text=True)
    return [int(token) for token in listed.stdout.split()]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    with_state = stat.read_text() if stat.exists() else ""
    # an unreaped zombie has exited: it can no longer serve or hold a port
    return ") Z " not in with_state


@pytest.mark.skipif(
    os.name != "posix" or shutil.which("pgrep") is None,
    reason="SIGTERM delivery and pgrep are POSIX-only",
)
def test_sigterm_on_the_front_terminates_its_workers(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    front = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "--workers", "1", "--port", "0",
            "--cache-dir", str(tmp_path / "cache"), "--sweep-interval", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    workers: "list[int]" = []
    try:
        line = front.stdout.readline()
        assert re.search(r"listening on http://", line), line
        workers = _child_pids(front.pid)
        assert len(workers) == 1, workers
        front.send_signal(signal.SIGTERM)
        assert front.wait(timeout=15) == 0, front.stdout.read()
        deadline = time.monotonic() + 15
        while _alive(workers[0]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(workers[0]), f"worker {workers[0]} outlived its front"
    finally:
        if front.poll() is None:
            front.kill()
            front.wait()
        front.stdout.close()
        for pid in workers:  # never leak a worker past a failed assertion
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(
    os.name != "posix" or shutil.which("pgrep") is None,
    reason="SIGTERM delivery and pgrep are POSIX-only",
)
def test_sigterm_on_a_single_server_terminates_its_pool(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "--port", "0",
            "--cache-dir", "none", "--pool-workers", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    children: "list[int]" = []
    try:
        line = server.stdout.readline()
        assert re.search(r"listening on http://", line), line
        children = _child_pids(server.pid)
        assert len(children) == 1, children
        server.send_signal(signal.SIGTERM)
        # still the abrupt default exit, killed by the signal
        assert server.wait(timeout=15) == -signal.SIGTERM, server.stdout.read()
        deadline = time.monotonic() + 15
        while any(_alive(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in children), (
            f"pool workers {children} outlived their server"
        )
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
        for pid in children:  # never leak a pool worker past a failed assertion
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
