"""Wire round-trips for the ``repro.parametric/v1`` payloads."""

import json

import numpy as np
import pytest

import repro
from repro.circuits.qasm import to_qasm
from repro.exceptions import WireFormatError
from repro.parametric import ParametricProgram, compile_template
from repro.parametric.template import _diff_results
from repro.service.serialize import (
    PARAMETRIC_FORMAT,
    bind_request_from_wire,
    bind_request_to_wire,
    encode_array,
    parametric_program_from_wire,
    parametric_program_to_wire,
    result_to_wire,
    template_from_wire,
    template_to_wire,
)

from tests.conftest import random_pauli_terms


def _rng(seed):
    return np.random.default_rng(seed)


def _program(seed=3, num_qubits=4, num_terms=10, num_params=3):
    terms = random_pauli_terms(_rng(seed), num_qubits, num_terms)
    slots = [index % num_params for index in range(num_terms)]
    return ParametricProgram.from_terms(terms, slots)


def _json_round_trip(payload):
    """Payloads must survive actual JSON, not just dict copying."""
    return json.loads(json.dumps(payload))


class TestProgramWire:
    def test_round_trip_is_exact(self):
        program = _program()
        restored = parametric_program_from_wire(
            _json_round_trip(parametric_program_to_wire(program))
        )
        assert restored.num_qubits == program.num_qubits
        assert restored.num_params == program.num_params
        np.testing.assert_array_equal(restored.slots, program.slots)
        np.testing.assert_array_equal(restored.scales, program.scales)
        for index in range(program.num_terms):
            assert restored.table.row(index) == program.table.row(index)

    def test_format_tag(self):
        payload = parametric_program_to_wire(_program())
        assert payload["format"] == PARAMETRIC_FORMAT == "repro.parametric/v1"

    def test_wrong_format_rejected(self):
        payload = parametric_program_to_wire(_program())
        payload["format"] = "repro.parametric/v999"
        with pytest.raises(WireFormatError):
            parametric_program_from_wire(payload)

    def test_wrong_kind_rejected(self):
        payload = parametric_program_to_wire(_program())
        payload["kind"] = "template"
        with pytest.raises(WireFormatError, match="kind"):
            parametric_program_from_wire(payload)

    def test_missing_field_rejected(self):
        payload = parametric_program_to_wire(_program())
        del payload["slots"]
        with pytest.raises(WireFormatError):
            parametric_program_from_wire(payload)

    def test_tampered_payload_revalidates(self):
        # the decoder runs the full ParametricProgram validation: a slot
        # pointing outside the declared arity must not slip through the wire
        payload = parametric_program_to_wire(_program(num_params=3))
        payload["num_params"] = 1
        with pytest.raises(WireFormatError, match="malformed parametric program"):
            parametric_program_from_wire(payload)


class TestTemplateWire:
    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_bind_after_round_trip_is_bit_identical(self, level):
        program = _program(seed=5)
        template = compile_template(program, level=level)
        restored = template_from_wire(_json_round_trip(template_to_wire(template)))
        params = _rng(55).uniform(-np.pi, np.pi, program.num_params)
        mismatch = _diff_results(restored.bind(params), template.bind(params))
        assert mismatch is None, f"restored template diverged on {mismatch}"
        reference = repro.compile(program.to_sum(params), level=level)
        assert to_qasm(restored.bind(params).circuit) == to_qasm(reference.circuit)

    def test_round_trip_preserves_structure(self):
        template = compile_template(_program(seed=6), level=3)
        restored = template_from_wire(_json_round_trip(template_to_wire(template)))
        assert restored.level == template.level
        assert restored.name == template.name
        assert restored.skeleton_gate_count == template.skeleton_gate_count
        assert restored.rotation_count == template.rotation_count
        assert restored._positions == template._positions
        assert restored._chains == template._chains
        assert restored._normalize == template._normalize
        assert restored._always_fallback == template._always_fallback
        assert restored._metadata_base == template._metadata_base
        assert restored._extraction_metadata == template._extraction_metadata

    def test_wrong_kind_rejected(self):
        payload = template_to_wire(compile_template(_program(seed=7), level=1))
        payload["kind"] = "program"
        with pytest.raises(WireFormatError, match="kind"):
            template_from_wire(payload)

    def test_inconsistent_chain_arrays_rejected(self):
        payload = template_to_wire(compile_template(_program(seed=8), level=1))
        payload["chain_offsets"] = encode_array(
            np.array([0, 1], dtype=np.int64), "<i8"
        )
        with pytest.raises(WireFormatError, match="inconsistent chain arrays"):
            template_from_wire(payload)

    def test_missing_skeleton_rejected(self):
        payload = template_to_wire(compile_template(_program(seed=9), level=1))
        del payload["skeleton"]
        with pytest.raises(WireFormatError):
            template_from_wire(payload)


class TestBoundResultWire:
    @staticmethod
    def _untimed(result):
        payload = _json_round_trip(result_to_wire(result))
        payload.pop("compile_seconds")
        payload["metadata"].pop("pass_timings")
        if payload["extraction"] is not None:
            payload["extraction"].pop("elapsed_seconds")
        return payload

    @pytest.mark.parametrize("level", [2, 3])
    def test_bind_encodes_like_a_compile_where_rewriting_removes_gates(self, level):
        program = ParametricProgram.from_terms(
            random_pauli_terms(_rng(17), 3, 5), [0, 1, 2, 0, 1]
        )
        params = np.array([0.7, -1.3, 0.4])
        concrete = program.to_sum(params)
        compiled = repro.compile(concrete, level=level)
        assert compiled.extraction.metadata["stage_counters"]["rotations_merged"] > 0
        bound = compile_template(program, level=level).bind(params)
        assert self._untimed(bound) == self._untimed(compiled)


class TestBindRequestWire:
    def test_round_trip_by_key(self):
        payload = _json_round_trip(
            bind_request_to_wire([0.25, -1.5], template_key="ab12")
        )
        key, template_payload, params = bind_request_from_wire(payload)
        assert key == "ab12"
        assert template_payload is None
        assert params == [0.25, -1.5]

    def test_round_trip_inline(self):
        template = compile_template(_program(seed=10), level=1)
        payload = _json_round_trip(bind_request_to_wire([0.5, 0.5, 0.5], template=template))
        key, template_payload, params = bind_request_from_wire(payload)
        assert key is None
        assert params == [0.5, 0.5, 0.5]
        restored = template_from_wire(template_payload)
        assert restored.skeleton_gate_count == template.skeleton_gate_count

    def test_encoder_rejects_both_and_neither(self):
        template = compile_template(_program(seed=10), level=1)
        with pytest.raises(WireFormatError, match="never both and never neither"):
            bind_request_to_wire([0.1], template_key="ab", template=template)
        with pytest.raises(WireFormatError, match="never both and never neither"):
            bind_request_to_wire([0.1])

    def test_decoder_rejects_both_and_neither(self):
        payload = bind_request_to_wire([0.1, 0.2, 0.3], template_key="ab12")
        payload["template"] = {"format": PARAMETRIC_FORMAT, "kind": "template"}
        with pytest.raises(WireFormatError, match="never both and never neither"):
            bind_request_from_wire(payload)
        payload["template"] = None
        payload["template_key"] = None
        with pytest.raises(WireFormatError, match="never both and never neither"):
            bind_request_from_wire(payload)

    def test_decoder_rejects_non_string_key(self):
        payload = bind_request_to_wire([0.1], template_key="ab12")
        payload["template_key"] = 17
        with pytest.raises(WireFormatError, match="template_key"):
            bind_request_from_wire(payload)

    def test_decoder_rejects_non_list_params(self):
        payload = bind_request_to_wire([0.1], template_key="ab12")
        payload["params"] = "0.1"
        with pytest.raises(WireFormatError, match="params"):
            bind_request_from_wire(payload)
