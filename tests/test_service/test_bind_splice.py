"""``POST /bind`` responses spliced from a per-template pre-encoded result.

A non-degenerate bind answers from the template's
:class:`~repro.service.serialize.BoundResultSkeleton`: the fresh angles and
coefficients go into slots of bytes encoded once.  These tests hold the
served bytes to the encoding of ``template.bind(params)`` — the response the
server built before the splice existed — byte for byte outside the timing
fields, across every level, both ways of naming the template, constant
terms, ``include_result: false``, degenerate fallbacks and retried requests.
"""

import gc
import http.client
import json
import weakref

import numpy as np
import pytest

import repro
from repro.parametric import ParametricProgram, compile_template
from repro.service.serialize import (
    bind_request_to_wire,
    bound_result_skeleton,
    parametric_program_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.service.server import ServiceServer, run_server_in_thread

from tests.conftest import random_pauli_terms


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    instance = ServiceServer(
        cache_dir=tmp_path_factory.mktemp("bind-splice-cache"),
    )
    with run_server_in_thread(instance):
        yield instance


def _post(server, path, payload, headers=None) -> bytes:
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        connection.request(
            "POST", path, body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body
    finally:
        connection.close()


def _program(seed, num_terms=10, num_params=3, constant=False):
    terms = random_pauli_terms(np.random.default_rng(seed), 5, num_terms)
    slots = [index % num_params for index in range(num_terms)]
    if constant:
        slots[0] = slots[num_terms // 2] = -1
    return ParametricProgram.from_terms(terms, slots)


def _store(server, program, level) -> str:
    body = _post(server, "/compile_template", {
        "program": parametric_program_to_wire(program), "level": level,
    })
    return json.loads(body)["template_key"]


def _bind(server, params, template_key=None, template=None, include_result=True,
          headers=None) -> bytes:
    payload = bind_request_to_wire(params, template_key=template_key, template=template)
    payload["include_result"] = include_result
    return _post(server, "/bind", payload, headers)


def _expected_bytes(reference, body, template_key, include_result, degenerate=False):
    """What the unspliced encoder writes, with the served timing copied in."""
    served = json.loads(body)
    reference.compile_seconds = served["metrics"]["compile_seconds"]
    entry = {
        "template_key": template_key,
        "cache_hit": template_key is not None,
        "degenerate": degenerate,
        "metrics": reference.metrics(),
        "compiler": reference.name,
    }
    if include_result:
        assert served["result"]["compile_seconds"] == reference.compile_seconds
        entry["result"] = result_to_wire(reference)
    return json.dumps(entry, separators=(",", ":")).encode()


def _result_bytes(body: bytes) -> bytes:
    """The raw ``result`` member of a bind response (always its last member)."""
    head, separator, tail = body.partition(b',"result":')
    assert separator and tail.endswith(b"}")
    return tail[:-1]


class TestSpliceEquivalence:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_by_key_matches_encoded_bind(self, server, level):
        program = _program(100 + level)
        key = _store(server, program, level)
        local = compile_template(program, level=level)
        rng = np.random.default_rng(level)
        for _ in range(3):
            params = rng.uniform(-np.pi, np.pi, program.num_params)
            body = _bind(server, params, template_key=key)
            reference = local.bind(params)
            assert body == _expected_bytes(reference, body, key, True)
            decoded = result_from_wire(json.loads(body)["result"])
            assert decoded.circuit == reference.circuit
            assert (decoded.extraction is None) == (level < 2)

    @pytest.mark.parametrize("level", [0, 3])
    def test_inline_template_matches_encoded_bind(self, server, level):
        program = _program(110 + level)
        template = compile_template(program, level=level)
        params = [0.31, -1.7, 2.2]
        body = _bind(server, params, template=template)
        assert body == _expected_bytes(template.bind(params), body, None, True)

    @pytest.mark.parametrize("level", [1, 3])
    def test_constant_terms(self, server, level):
        program = _program(120 + level, constant=True)
        key = _store(server, program, level)
        local = compile_template(program, level=level)
        params = [0.9, -0.4, 1.25]
        body = _bind(server, params, template_key=key)
        assert body == _expected_bytes(local.bind(params), body, key, True)

    @pytest.mark.parametrize("level", [0, 3])
    def test_without_result(self, server, level):
        program = _program(130 + level)
        key = _store(server, program, level)
        local = compile_template(program, level=level)
        params = [1.1, 0.2, -0.6]
        body = _bind(server, params, template_key=key, include_result=False)
        assert b'"result"' not in body
        assert body == _expected_bytes(local.bind(params), body, key, False)

    def test_raw_result_bytes_match_outside_compile_seconds(self, server):
        program = _program(140)
        key = _store(server, program, 3)
        local = compile_template(program, level=3)
        params = [0.5, 0.25, -2.0]
        body = _bind(server, params, template_key=key)
        reference = local.bind(params)
        reference.compile_seconds = json.loads(body)["result"]["compile_seconds"]
        assert _result_bytes(body) == json.dumps(
            result_to_wire(reference), separators=(",", ":")
        ).encode()


class TestFallbackAndRetry:
    def test_degenerate_binding_returns_full_compile(self, server):
        program = _program(150)
        key = _store(server, program, 3)
        template = server.cache.get_template(key)
        counters = server.telemetry.snapshot()["counters"]
        degenerate_before = counters.get("service.degenerate_binds", 0)
        requests_before = counters.get("service.bind_requests", 0)
        binds_before, fallbacks_before = template.binds, template.fallback_binds

        params = [0.0, 1.3, -0.7]  # a zero coefficient lands in the kill window
        body = _bind(server, params, template_key=key)
        served = json.loads(body)
        assert served["degenerate"] is True
        reference = repro.compile(program.to_sum(params), level=3)
        decoded = result_from_wire(served["result"])
        assert decoded.circuit == reference.circuit
        assert decoded.extracted_clifford == reference.extracted_clifford
        expected = result_to_wire(reference)
        for timed in (served["result"], expected):
            timed.pop("compile_seconds")
            timed["metadata"].pop("pass_timings")
            timed["extraction"].pop("elapsed_seconds")
        assert served["result"] == expected

        counters = server.telemetry.snapshot()["counters"]
        assert counters["service.degenerate_binds"] == degenerate_before + 1
        assert counters["service.bind_requests"] == requests_before + 1
        assert template.binds == binds_before + 1
        assert template.fallback_binds == fallbacks_before + 1

    def test_retry_replays_the_stored_bytes(self, server):
        program = _program(160)
        key = _store(server, program, 3)
        headers = {"X-Repro-Request-Id": "bind-splice-retry-1"}
        params = [0.8, -0.1, 0.45]
        first = _bind(server, params, template_key=key, headers=headers)
        requests = server.telemetry.snapshot()["counters"]["service.bind_requests"]
        retried = _bind(server, params, template_key=key, headers=headers)
        counters = server.telemetry.snapshot()["counters"]
        assert counters["service.bind_requests"] == requests
        assert counters["service.request_dedup_hits"] >= 1
        assert _result_bytes(retried) == _result_bytes(first)
        assert json.loads(retried) == {**json.loads(first), "deduplicated": True}


class TestSkeletonLifetime:
    def test_skeleton_is_built_once_and_lives_on_its_template(self):
        program = _program(170)
        template = compile_template(program, level=3)
        skeleton = bound_result_skeleton(template, template.replay([0.2, 0.4, 0.6]))
        assert bound_result_skeleton(template, template.replay([0.1, 0.3, 0.5])) is skeleton
        assert template._bound_skeleton is skeleton
        alive = weakref.ref(template)
        del template
        gc.collect()
        assert alive() is None
