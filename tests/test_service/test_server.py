"""The asyncio HTTP front-end: endpoints, errors, concurrency, batching."""

import http.client
import json
import threading

import numpy as np
import pytest

import repro
from repro.exceptions import ServiceError
from repro.service.client import Client
from repro.service.serialize import program_to_wire
from repro.service.server import ServiceServer, run_server_in_thread

from tests.conftest import random_pauli_terms


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    instance = ServiceServer(
        cache_dir=tmp_path_factory.mktemp("service-cache"),
    )
    with run_server_in_thread(instance):
        yield instance


@pytest.fixture
def client(server):
    with Client(port=server.port) as instance:
        yield instance


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["caching"] is True

    def test_compile_miss_then_hit_identical(self, client):
        terms = random_pauli_terms(_rng(1), 4, 6)
        reference = repro.compile(terms, level=3)
        first = client.compile(terms)
        second = client.compile(terms)
        assert not first.cache_hit
        assert second.cache_hit
        assert first.result.circuit == reference.circuit
        assert second.result.circuit == reference.circuit
        assert second.result.extracted_clifford == reference.extracted_clifford
        assert first.key == second.key

    def test_metrics_reflect_traffic(self, client):
        terms = random_pauli_terms(_rng(2), 4, 5)
        client.compile(terms)
        payload = client.metrics()
        assert payload["telemetry"]["counters"]["service.http_requests"] >= 1
        assert payload["cache"]["disk_entries"] >= 1
        assert payload["scheduler"]["jobs_submitted"] >= 1

    def test_result_fetch_by_key(self, client):
        terms = random_pauli_terms(_rng(3), 4, 5)
        response = client.compile(terms)
        fetched = client.result(response.key)
        assert fetched is not None
        assert fetched.circuit == response.result.circuit

    def test_result_unknown_key_is_none(self, client):
        assert client.result("0" * 64) is None

    def test_include_result_false_returns_metrics_only(self, client):
        terms = random_pauli_terms(_rng(4), 4, 5)
        response = client.compile(terms, include_result=False)
        assert response.result is None
        assert response.metrics["cx_count"] >= 0
        # the artifact is still stored and fetchable
        assert client.result(response.key) is not None

    def test_compile_batch(self, client):
        programs = [random_pauli_terms(_rng(5 + i), 4, 5) for i in range(3)]
        responses = client.compile_batch(programs)
        assert len(responses) == 3
        for program, response in zip(programs, responses):
            assert response.result.circuit == repro.compile(program, level=3).circuit

    def test_compile_with_level_and_pipeline(self, client):
        terms = random_pauli_terms(_rng(8), 4, 5)
        level0 = client.compile(terms, level=0)
        named = client.compile(terms, pipeline="quclear")
        assert level0.key != named.key
        assert level0.result.circuit == repro.compile(terms, level=0).circuit

    def test_compile_for_target(self, client):
        terms = random_pauli_terms(_rng(9), 4, 5)
        routed = client.compile(terms, target="sycamore")
        assert routed.result.metadata.get("routed") is True


class TestErrors:
    def test_unknown_path_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_missing_program_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/compile", {"level": 3})
        assert excinfo.value.status == 400

    def test_empty_program_400_with_clear_type(self, server, client):
        payload = program_to_wire(random_pauli_terms(_rng(10), 4, 5))
        payload["x_words"]["shape"] = [0, 1]
        payload["x_words"]["data"] = ""
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/compile", {"program": payload})
        assert excinfo.value.status == 400

    def test_zero_qubit_program_reports_invalid_program(self, client):
        # an empty-register program passes deserialization but must be
        # rejected by the shared entry-point validation, as InvalidProgramError
        from repro.paulis.pauli import PauliString
        from repro.paulis.term import PauliTerm

        payload = program_to_wire([PauliTerm(PauliString([], []), 1.0)])
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/compile", {"program": payload})
        assert excinfo.value.status == 400
        assert "InvalidProgramError" in str(excinfo.value)

    def test_bad_level_400(self, client):
        payload = {
            "program": program_to_wire(random_pauli_terms(_rng(11), 4, 5)),
            "level": "three",
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/compile", payload)
        assert excinfo.value.status == 400

    def test_unknown_pipeline_400(self, client):
        payload = {
            "program": program_to_wire(random_pauli_terms(_rng(12), 4, 5)),
            "pipeline": "not-a-compiler",
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/compile", payload)
        assert excinfo.value.status == 400

    def test_malformed_json_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/compile",
                body=b"{truncated",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in body["error"] or "json" in body["error"]
        finally:
            connection.close()

    def test_batch_reports_per_entry_errors(self, client):
        good = program_to_wire(random_pauli_terms(_rng(13), 4, 5))
        bad = {"format": "repro.program/v1", "kind": "mystery"}
        decoded = client._request(
            "POST", "/compile_batch", {"programs": [good, bad], "include_result": False}
        )
        entries = decoded["results"]
        assert "error" not in entries[0]
        assert "error" in entries[1]

    def test_malformed_content_length_gets_a_400(self, server):
        # a non-numeric Content-Length must produce an HTTP error response,
        # not a silently dropped connection
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /compile HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: abc\r\n"
                b"\r\n"
            )
            response = sock.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400"), response[:80]

    def test_negative_content_length_gets_a_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /compile HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: -5\r\n"
                b"\r\n"
            )
            response = sock.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400"), response[:80]

    def test_server_survives_errors(self, client):
        # after every error above, a normal request must still work
        response = client.compile(random_pauli_terms(_rng(14), 4, 5))
        assert response.result is not None


class TestConcurrency:
    def test_32_concurrent_compiles_no_lost_or_corrupt_responses(self, server):
        # half identical (exercises within-batch dedup), half distinct
        identical = random_pauli_terms(_rng(20), 5, 6)
        distinct = [random_pauli_terms(_rng(30 + i), 5, 6) for i in range(16)]
        programs = [identical] * 16 + distinct
        references = {
            id(program): repro.compile(program, level=3) for program in programs
        }
        responses = [None] * len(programs)
        errors = []

        def worker(index, program):
            try:
                with Client(port=server.port) as worker_client:
                    responses[index] = worker_client.compile(program)
            except Exception as error:  # noqa: BLE001 — recorded for the assert
                errors.append((index, error))

        threads = [
            threading.Thread(target=worker, args=(index, program))
            for index, program in enumerate(programs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, f"lost responses: {errors}"
        assert all(response is not None for response in responses)
        for program, response in zip(programs, responses):
            assert response.result.circuit == references[id(program)].circuit, (
                "corrupted response for a concurrent request"
            )

    def test_batch_endpoint_coalesces_into_few_batches(self, server):
        programs = [random_pauli_terms(_rng(60 + i), 4, 5) for i in range(6)]
        with Client(port=server.port) as batch_client:
            before = batch_client.metrics()["scheduler"]["batches_flushed"]
            batch_client.compile_batch(programs, use_cache=False)
            after = batch_client.metrics()["scheduler"]["batches_flushed"]
        # 6 programs submitted in one loop tick: one batch, not six
        assert after - before == 1


class TestParametricEndpoints:
    @staticmethod
    def _program(seed=60, num_terms=8):
        from repro.parametric import ParametricProgram

        terms = random_pauli_terms(_rng(seed), 4, num_terms)
        return ParametricProgram.from_terms(
            terms, [index % 2 for index in range(num_terms)]
        )

    def test_compile_template_miss_then_hit(self, client):
        program = self._program(seed=61)
        first = client.compile_template(program, level=3)
        second = client.compile_template(program, level=3)
        assert not first.cache_hit
        assert second.cache_hit
        assert first.template_key == second.template_key
        assert first.num_terms == 8
        assert first.num_params == 2
        assert first.level == 3
        assert first.skeleton_gates > 0

    def test_bind_by_key_matches_local_compile(self, client):
        program = self._program(seed=62)
        handle = client.compile_template(program, level=3)
        params = [0.37, -1.42]
        response = client.bind(params, template_key=handle.template_key)
        assert response.cache_hit
        assert response.key == handle.template_key
        reference = repro.compile(program.to_sum(params), level=3)
        assert response.result.circuit == reference.circuit
        assert response.result.extracted_clifford == reference.extracted_clifford
        assert response.compiler == reference.name

    def test_bind_inline_template(self, client):
        from repro.parametric import compile_template

        program = self._program(seed=63)
        template = compile_template(program, level=2)
        params = [1.05, 0.55]
        response = client.bind(params, template=template)
        assert not response.cache_hit
        assert response.key is None
        reference = repro.compile(program.to_sum(params), level=2)
        assert response.result.circuit == reference.circuit

    def test_bind_without_result_payload(self, client):
        program = self._program(seed=64)
        handle = client.compile_template(program, level=3)
        response = client.bind(
            [0.9, 0.1], template_key=handle.template_key, include_result=False
        )
        assert response.result is None
        assert response.metrics is not None

    def test_include_template_round_trips(self, client):
        program = self._program(seed=65)
        handle = client.compile_template(program, level=3, include_template=True)
        assert handle.template is not None
        params = [0.21, 0.84]
        local = handle.template.bind(params)
        remote = client.bind(params, template_key=handle.template_key)
        assert local.circuit == remote.result.circuit

    def test_bind_unknown_key_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.bind([0.1, 0.2], template_key="ab" * 32)
        assert excinfo.value.status == 404

    def test_bind_nan_params_rejected(self, client):
        program = self._program(seed=66)
        handle = client.compile_template(program, level=3)
        with pytest.raises(ServiceError) as excinfo:
            client.bind([float("nan"), 0.2], template_key=handle.template_key)
        assert excinfo.value.status == 400
        assert "InvalidProgramError" in str(excinfo.value)

    def test_bind_wrong_arity_rejected(self, client):
        program = self._program(seed=67)
        handle = client.compile_template(program, level=3)
        with pytest.raises(ServiceError) as excinfo:
            client.bind([0.1, 0.2, 0.3], template_key=handle.template_key)
        assert excinfo.value.status == 400

    def test_template_custom_pipeline_rejected(self, client):
        from repro.service.serialize import parametric_program_to_wire

        program = self._program(seed=68)
        payload = {
            "program": parametric_program_to_wire(program),
            "pipeline": "quclear",
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/compile_template", payload)
        assert excinfo.value.status == 400
        assert "preset levels only" in str(excinfo.value)

    def test_delete_result_lifecycle(self, client):
        terms = random_pauli_terms(_rng(69), 4, 6)
        response = client.compile(terms, include_result=False)
        assert client.result(response.key) is not None
        assert client.delete_result(response.key) is True
        assert client.result(response.key) is None
        assert client.delete_result(response.key) is False

    def test_metrics_count_parametric_traffic(self, client):
        program = self._program(seed=70)
        handle = client.compile_template(program, level=3)
        client.bind([0.5, 0.6], template_key=handle.template_key)
        counters = client.metrics()["telemetry"]["counters"]
        assert counters["service.template_requests"] >= 1
        assert counters["service.bind_requests"] >= 1
        assert counters.get("service.results_deleted", 0) >= 1
        latency = client.metrics()["telemetry"]["latency"]
        assert latency["service.bind_seconds"]["count"] >= 1
        assert latency["service.template_compile_seconds"]["count"] >= 1
