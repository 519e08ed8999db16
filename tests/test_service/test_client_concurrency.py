"""Client connection behavior: keep-alive reuse, restarts, fleet drains."""

import threading

import numpy as np
import pytest

from repro.service.client import Client
from repro.service.fleet import FleetFront
from repro.service.server import ServiceServer, run_server_in_thread

from tests.conftest import random_pauli_terms


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestKeepAliveReuse:
    def test_sequential_requests_share_one_connection(self, tmp_path):
        server = ServiceServer(cache_dir=tmp_path)
        with run_server_in_thread(server):
            with Client(port=server.port) as client:
                client.healthz()
                connection = client._connection
                assert connection is not None
                for seed in range(3):
                    client.compile(
                        random_pauli_terms(_rng(seed), 4, 5), include_result=False
                    )
                    client.metrics()
                # every request rode the same keep-alive socket
                assert client._connection is connection

    def test_threads_with_own_clients_agree(self, tmp_path):
        server = ServiceServer(cache_dir=tmp_path)
        terms = random_pauli_terms(_rng(7), 4, 6)
        keys = []
        errors = []

        def _one():
            try:
                with Client(port=server.port) as client:
                    keys.append(client.compile(terms, include_result=False).key)
            except Exception as error:  # noqa: BLE001 — surfaced by the assert
                errors.append(error)

        with run_server_in_thread(server):
            threads = [threading.Thread(target=_one) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(set(keys)) == 1  # all six resolved to one artifact


class TestServerRestartMidSession:
    def test_client_survives_a_server_restart(self, tmp_path):
        first = ServiceServer(cache_dir=tmp_path)
        terms = random_pauli_terms(_rng(20), 4, 6)
        with run_server_in_thread(first):
            port = first.port
            client = Client(port=port)
            miss = client.compile(terms)
            assert not miss.cache_hit
        # same port, fresh process-equivalent: the keep-alive socket the
        # client still holds is now dead and must be replaced transparently
        second = ServiceServer(cache_dir=tmp_path, port=port)
        with run_server_in_thread(second):
            hit = client.compile(terms)
            assert hit.cache_hit  # the disk cache outlived the restart
            assert hit.key == miss.key
        client.close()

    def test_client_reports_connection_refused_when_down(self, tmp_path):
        server = ServiceServer(cache_dir=tmp_path)
        with run_server_in_thread(server):
            port = server.port
            client = Client(port=port, timeout=2.0)
            client.healthz()
        with pytest.raises(OSError):
            client.healthz()
        client.close()


class TestFleetDrainMidSession:
    def test_keep_alive_sessions_span_a_rolling_restart(self, tmp_path):
        fleet = FleetFront(
            workers=2,
            cache_dir=str(tmp_path / "cache"),
            worker_args=["--sweep-interval", "0"],
        )
        terms = random_pauli_terms(_rng(30), 4, 6)
        with run_server_in_thread(fleet, startup_timeout=90.0):
            with Client(port=fleet.port) as client:
                before = client.compile(terms)
                connection = client._connection
                import http.client as http_client
                import json

                conn = http_client.HTTPConnection("127.0.0.1", fleet.port, timeout=90)
                conn.request(
                    "POST", "/fleet/restart", b"{}",
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["restarted"] == ["w0", "w1"]
                conn.close()
                # the front never dropped our keep-alive session, and the
                # restarted worker re-warms from the shared disk cache
                after = client.compile(terms)
                assert client._connection is connection
                assert after.cache_hit
                assert after.key == before.key
