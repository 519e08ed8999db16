"""The warm-hit path: raw-wire keys, inline memory hits, spliced responses."""

import base64
import http.client
import json

import numpy as np
import pytest

import repro
from repro.observability import TRACER
from repro.paulis.packed import words_for_qubits
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.service.cache import ArtifactCache, cache_key, wire_cache_key
from repro.service.client import Client
from repro.service.serialize import (
    encode_array,
    program_from_wire,
    program_to_wire,
    result_to_wire,
)
from repro.service.server import ServiceServer, run_server_in_thread

from tests.conftest import random_pauli, random_pauli_terms


def _post(port, path, payload, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", path, json.dumps(payload).encode(),
            {"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _canonical(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _signed_terms(rng, num_qubits, num_terms):
    """Terms whose Paulis carry random signs, so packed phases span 0..3."""
    return [
        PauliTerm(random_pauli(rng, num_qubits), float(rng.uniform(-np.pi, np.pi)))
        for _ in range(num_terms)
    ]


def _shift_phases(wire, turns):
    """Add whole turns (multiples of 4) to every wire phase: same program."""
    phases = np.frombuffer(base64.b64decode(wire["phases"]["data"]), dtype="<i8")
    wire["phases"] = encode_array(phases + 4 * turns, "<i8")
    return wire


class TestWireKey:
    @pytest.mark.parametrize("num_qubits", [3, 64, 70, 129])
    @pytest.mark.parametrize("kind", ["terms", "sum"])
    def test_matches_cache_key_of_the_decoded_program(self, num_qubits, kind):
        rng = np.random.default_rng(num_qubits)
        # signed rows: under kind "sum" the decoder folds the signs into the
        # coefficients, and the raw key must fold them the same way
        wire = dict(program_to_wire(_signed_terms(rng, num_qubits, 9)), kind=kind)
        wire = json.loads(json.dumps(_shift_phases(wire, turns=3)))
        for options in ({}, {"level": 1}, {"pipeline": "quclear"}, {"target": "sycamore"}):
            assert wire_cache_key(wire, **options) == cache_key(
                program_from_wire(wire), **options
            )

    def test_terms_and_sum_share_the_raw_key(self, rng):
        terms = random_pauli_terms(rng, 6, 7)
        assert wire_cache_key(program_to_wire(terms)) == wire_cache_key(
            program_to_wire(SparsePauliSum(terms))
        )


def _shape_shifted(wire):
    """x/z reshaped to (R, W+1)/(R, W-1) over the same concatenated bytes."""
    rows, words = wire["x_words"]["shape"]
    joined = b"".join(base64.b64decode(wire[name]["data"]) for name in ("x_words", "z_words"))
    cut = rows * (words + 1) * 8
    crafted = dict(wire)
    halves = (("x_words", words + 1, joined[:cut]), ("z_words", words - 1, joined[cut:]))
    for name, width, data in halves:
        crafted[name] = {"shape": [rows, width], "data": base64.b64encode(data).decode()}
    return crafted


def _malformed(wire):
    """(name, payload, 400 type the scheduler path has always answered)."""
    bad_base64 = json.loads(json.dumps(wire))
    bad_base64["x_words"]["data"] = "!!not base64!!"
    nan = json.loads(json.dumps(wire))
    coefficients = np.frombuffer(base64.b64decode(nan["coefficients"]["data"]), dtype="<f8").copy()
    coefficients[0] = np.nan
    nan["coefficients"] = encode_array(coefficients, "<f8")
    short = json.loads(json.dumps(wire))
    short["coefficients"] = encode_array(coefficients[1:], "<f8")
    few_phases = json.loads(json.dumps(wire))
    few_phases["phases"] = encode_array(np.zeros(len(coefficients) - 1), "<i8")
    mystery = dict(wire, kind="mystery")
    return [
        ("shape-shifted words", _shape_shifted(wire), "WireFormatError"),
        ("bad base64", bad_base64, "WireFormatError"),
        ("NaN coefficient", nan, "InvalidProgramError"),
        ("short coefficients", short, "WireFormatError"),
        ("short phases", few_phases, "PauliError"),
        ("unknown kind", mystery, "WireFormatError"),
    ]


@pytest.fixture(scope="module")
def warm_server(tmp_path_factory):
    server = ServiceServer(
        cache=ArtifactCache(str(tmp_path_factory.mktemp("hit-cache"))),
        trace_sample=0.0,
    )
    with run_server_in_thread(server):
        yield server


class TestMalformedPayloads:
    def test_rejected_with_the_same_type_while_the_original_is_warm(self, warm_server):
        rng = np.random.default_rng(20)
        terms = random_pauli_terms(rng, 70, 6)
        assert words_for_qubits(70) == 2  # the shape shift needs W - 1 > 0
        wire = program_to_wire(terms)
        assert _post(warm_server.port, "/compile", {"program": wire})[0] == 200
        assert _post(warm_server.port, "/compile", {"program": wire})[1]["cache_hit"]
        for name, payload, kind in _malformed(wire):
            status, body = _post(warm_server.port, "/compile", {"program": payload})
            assert (status, body.get("type")) == (400, kind), name
            status, body = _post(warm_server.port, "/compile_batch", {"programs": [payload, wire]})
            assert status == 200, name
            assert body["results"][0]["type"] == kind, name
            assert body["results"][1]["cache_hit"] is True, name


def _expected_hit(key, result, include_result):
    expected = {
        "key": key,
        "cache_hit": True,
        "metrics": result.metrics(),
        "compiler": result.name,
    }
    if include_result:
        expected["result"] = result_to_wire(result)
    return json.loads(_canonical(expected))


class TestSplicedHits:
    @pytest.mark.parametrize("include_result", [True, False])
    def test_response_equals_the_encoded_result(self, warm_server, include_result):
        rng = np.random.default_rng(10 + include_result)
        terms = random_pauli_terms(rng, 5, 8)
        request = {"program": program_to_wire(terms), "include_result": include_result}
        cold = _post(warm_server.port, "/compile", request)[1]
        assert cold["cache_hit"] is False
        status, hit = _post(warm_server.port, "/compile", request)
        assert status == 200
        result = warm_server.cache.get(cold["key"])
        expected = _expected_hit(cold["key"], result, include_result)
        assert hit == expected
        if include_result:
            # bit-identical: the same JSON text, down to every float
            assert _canonical(hit["result"]) == _canonical(expected["result"])
            assert _canonical(cold["result"]) == _canonical(expected["result"])

    def test_batch_entries_and_result_fetch_splice_too(self, warm_server):
        rng = np.random.default_rng(30)
        programs = [random_pauli_terms(rng, 4, 6) for _ in range(3)]
        wires = [program_to_wire(program) for program in programs]
        _post(warm_server.port, "/compile_batch", {"programs": wires[:2]})
        status, body = _post(warm_server.port, "/compile_batch", {"programs": wires})
        assert status == 200
        assert [entry["cache_hit"] for entry in body["results"]] == [True, True, False]
        with Client(port=warm_server.port) as client:
            for program, entry in zip(programs, body["results"]):
                result = warm_server.cache.get(entry["key"])
                assert entry == _expected_hit(entry["key"], result, True) | {
                    "cache_hit": entry["cache_hit"]
                }
                assert client.result(entry["key"]).circuit == repro.compile(program).circuit

    def test_request_id_replay_of_a_spliced_hit(self, warm_server):
        rng = np.random.default_rng(40)
        request = {"program": program_to_wire(random_pauli_terms(rng, 4, 7))}
        _post(warm_server.port, "/compile", request)
        headers = {"X-Repro-Request-Id": "spliced-replay-1"}
        status, first = _post(warm_server.port, "/compile", request, headers)
        assert status == 200 and first["cache_hit"] and "deduplicated" not in first
        status, replay = _post(warm_server.port, "/compile", request, headers)
        assert status == 200 and replay.pop("deduplicated") is True
        assert replay == first

    def test_traced_hit_reads_under_handle_without_queueing(self, warm_server):
        rng = np.random.default_rng(50)
        terms = random_pauli_terms(rng, 5, 6)
        with Client(port=warm_server.port, trace=True) as client:
            client.compile(terms)
            hit = client.compile(terms)
            spans = TRACER.trace(client.last_trace_id)
        assert hit.cache_hit
        names = [span["name"] for span in spans]
        assert "scheduler.queue_wait" not in names
        assert "scheduler.batch" not in names
        handle = next(span for span in spans if span["name"] == "server.handle")
        read = next(span for span in spans if span["name"] == "cache.read")
        assert read["parent_id"] == handle["span_id"]
        assert read["tags"]["hit"] is True

    def test_hit_counts_like_a_scheduler_hit(self, warm_server):
        rng = np.random.default_rng(60)
        request = {"program": program_to_wire(random_pauli_terms(rng, 4, 9))}
        _post(warm_server.port, "/compile", request)
        before = warm_server.telemetry.snapshot()
        submitted = warm_server.scheduler.jobs_submitted
        _post(warm_server.port, "/compile", request)
        after = warm_server.telemetry.snapshot()
        hits = "service.cache_hits"
        assert after["counters"][hits] == before["counters"][hits] + 1
        for name in ("service.key_seconds", "service.cache_lookup_seconds"):
            assert after["latency"][name]["count"] == before["latency"][name]["count"] + 1
        assert warm_server.scheduler.jobs_submitted == submitted


class TestSchedulerPath:
    def test_only_a_memory_hit_skips_the_scheduler(self, tmp_path):
        rng = np.random.default_rng(70)
        cache = ArtifactCache(str(tmp_path / "cache"))
        on_disk, in_memory, fresh = (random_pauli_terms(rng, 4, 6) for _ in range(3))
        cache.put(cache.key_for(on_disk), repro.compile(on_disk))
        cache.forget_memory()
        cache.put(cache.key_for(in_memory), repro.compile(in_memory))
        server = ServiceServer(cache=cache)
        with run_server_in_thread(server), Client(port=server.port) as client:
            for name, program, submitted, cache_hit in (
                ("memory hit", in_memory, 0, True),
                ("disk hit", on_disk, 1, True),
                ("miss", fresh, 1, False),
            ):
                before = server.scheduler.jobs_submitted
                response = client.compile(program)
                assert server.scheduler.jobs_submitted - before == submitted, name
                assert response.cache_hit == cache_hit, name


class TestRecompileAfterDamage:
    def test_damaged_artifact_is_recompiled_not_a_500(self, tmp_path):
        rng = np.random.default_rng(80)
        cache = ArtifactCache(str(tmp_path / "cache"))
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms))
        path = cache.objects_dir / f"{key}.json"
        artifact = json.loads(path.read_text())
        artifact["compile_seconds"] = None
        path.write_text(json.dumps(artifact))
        cache.forget_memory()
        server = ServiceServer(cache=cache)
        with run_server_in_thread(server), Client(port=server.port) as client:
            responses = [client.compile(terms) for _ in range(3)]
        assert [response.cache_hit for response in responses] == [False, True, True]
        assert responses[0].result.circuit == repro.compile(terms).circuit
        assert cache.corrupt_artifacts == 1

