"""Round-trip exactness of the wire format (programs, circuits, results)."""

import json

import numpy as np
import pytest

import repro
from repro.circuits.qasm import to_qasm
from repro.exceptions import WireFormatError
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.service.serialize import (
    circuit_from_wire,
    circuit_to_wire,
    decode_array,
    encode_array,
    pauli_from_wire,
    pauli_to_wire,
    program_from_wire,
    program_to_wire,
    result_from_wire,
    result_to_wire,
    sum_from_wire,
    sum_to_wire,
    tableau_from_wire,
    tableau_to_wire,
)

from tests.conftest import (
    random_clifford_circuit,
    random_pauli,
    random_pauli_terms,
)


def _json_roundtrip(payload: dict) -> dict:
    """Force the payload through actual JSON text, as the service does."""
    return json.loads(json.dumps(payload))


class TestArrayEncoding:
    def test_uint64_roundtrip(self, rng):
        words = rng.integers(0, 2**63, size=(7, 3), dtype=np.uint64)
        restored = decode_array(_json_roundtrip(encode_array(words, "<u8")), "<u8")
        assert np.array_equal(words, restored)

    def test_float64_bit_exact(self, rng):
        values = rng.standard_normal(100)
        restored = decode_array(_json_roundtrip(encode_array(values, "<f8")), "<f8")
        assert values.tobytes() == restored.tobytes()

    def test_wrong_byte_count_rejected(self):
        payload = encode_array(np.zeros(4, dtype=np.int64), "<i8")
        payload["shape"] = [5]
        with pytest.raises(WireFormatError):
            decode_array(payload, "<i8")

    def test_invalid_base64_rejected(self):
        payload = {"shape": [1], "data": "!!not-base64!!"}
        with pytest.raises(WireFormatError):
            decode_array(payload, "<i8")


class TestPauliWire:
    @pytest.mark.parametrize("num_qubits", [1, 5, 64, 70, 130])
    def test_roundtrip_preserves_words_and_phase(self, rng, num_qubits):
        for _ in range(5):
            pauli = random_pauli(rng, num_qubits)
            restored = pauli_from_wire(_json_roundtrip(pauli_to_wire(pauli)))
            assert restored.num_qubits == pauli.num_qubits
            assert np.array_equal(restored.x_words, pauli.x_words)
            assert np.array_equal(restored.z_words, pauli.z_words)
            assert restored.phase == pauli.phase

    def test_format_tag_checked(self, rng):
        payload = pauli_to_wire(random_pauli(rng, 4))
        payload["format"] = "repro.program/v1"
        with pytest.raises(WireFormatError):
            pauli_from_wire(payload)


class TestProgramWire:
    @pytest.mark.parametrize("num_qubits", [3, 64, 97])
    def test_term_list_roundtrip_bit_exact(self, rng, num_qubits):
        terms = random_pauli_terms(rng, num_qubits, 40)
        restored = program_from_wire(_json_roundtrip(program_to_wire(terms)))
        assert isinstance(restored, list)
        assert len(restored) == len(terms)
        for original, back in zip(terms, restored):
            assert np.array_equal(back.pauli.x_words, original.pauli.x_words)
            assert np.array_equal(back.pauli.z_words, original.pauli.z_words)
            assert back.pauli.phase == original.pauli.phase
            # float64 equality, not approx: the coefficient bytes travel raw
            assert back.coefficient == original.coefficient

    def test_sum_roundtrip_reproduces_packed_store(self, rng):
        terms = random_pauli_terms(rng, 70, 60)
        observable = SparsePauliSum(terms)
        restored = sum_from_wire(_json_roundtrip(sum_to_wire(observable)))
        assert isinstance(restored, SparsePauliSum)
        original_table = observable.packed_table
        restored_table = restored.packed_table
        assert np.array_equal(restored_table.x_words, original_table.x_words)
        assert np.array_equal(restored_table.z_words, original_table.z_words)
        assert np.array_equal(restored_table.phases, original_table.phases)
        assert (
            restored.coefficient_vector().tobytes()
            == observable.coefficient_vector().tobytes()
        )

    def test_kind_is_preserved(self, rng):
        terms = random_pauli_terms(rng, 4, 5)
        assert isinstance(program_from_wire(program_to_wire(terms)), list)
        assert isinstance(
            program_from_wire(program_to_wire(SparsePauliSum(terms))), SparsePauliSum
        )

    def test_empty_program_rejected(self):
        with pytest.raises(WireFormatError):
            program_to_wire([])

    def test_coefficient_count_mismatch_rejected(self, rng):
        payload = program_to_wire(random_pauli_terms(rng, 4, 5))
        payload["coefficients"] = encode_array(np.zeros(3), "<f8")
        with pytest.raises(WireFormatError):
            program_from_wire(payload)

    def test_unknown_kind_rejected(self, rng):
        payload = program_to_wire(random_pauli_terms(rng, 4, 5))
        payload["kind"] = "mystery"
        with pytest.raises(WireFormatError):
            program_from_wire(payload)


class TestCircuitWire:
    def test_clifford_circuit_roundtrip(self, rng):
        circuit = random_clifford_circuit(rng, 6, 60)
        assert circuit_from_wire(_json_roundtrip(circuit_to_wire(circuit))) == circuit

    def test_rotation_angles_bit_exact(self, rng):
        circuit = repro.QuantumCircuit(3)
        for _ in range(25):
            circuit.rz(float(rng.standard_normal()), int(rng.integers(3)))
        restored = circuit_from_wire(_json_roundtrip(circuit_to_wire(circuit)))
        assert [g.params for g in restored] == [g.params for g in circuit]

    def test_qubit_count_mismatch_rejected(self, rng):
        circuit = random_clifford_circuit(rng, 4, 10)
        # v1 carries the register twice (the field and the QASM qreg)
        legacy = {"format": "repro.circuit/v1", "num_qubits": 9, "qasm": to_qasm(circuit)}
        with pytest.raises(WireFormatError):
            circuit_from_wire(legacy)
        # v2 has one declaration: a register too small for the gates fails
        payload = circuit_to_wire(circuit)
        payload["num_qubits"] = max(qubit for gate in circuit for qubit in gate.qubits)
        with pytest.raises(WireFormatError):
            circuit_from_wire(payload)


def _every_gate_kind(num_qubits: int, angles) -> "repro.QuantumCircuit":
    from repro.circuits.gate import SINGLE_QUBIT_GATES, TWO_QUBIT_GATES, Gate

    circuit = repro.QuantumCircuit(num_qubits)
    angles = iter(angles)
    last = num_qubits - 1
    for name in sorted(SINGLE_QUBIT_GATES):
        for qubit in {0, last}:
            params = (next(angles),) if name.startswith("r") else ()
            circuit.append(Gate(name, (qubit,), params))
    if num_qubits > 1:
        for name in sorted(TWO_QUBIT_GATES):
            for pair in {(0, last), (last, 0)}:
                params = (next(angles),) if name.startswith("r") else ()
                circuit.append(Gate(name, pair, params))
    return circuit


def _bits(circuit) -> list:
    return [
        (gate.name, gate.qubits, np.array(gate.params, dtype="<f8").tobytes())
        for gate in circuit
    ]


class TestCircuitWireV2:
    #: signed zeros, subnormals, extremes, and template sentinel codes
    ANGLES = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, np.pi, 1.0, -2.0, 17.0, -1e-17, 3.0]

    @pytest.mark.parametrize("num_qubits", [1, 64, 129])
    def test_every_gate_kind_round_trips_bit_exactly(self, num_qubits):
        circuit = _every_gate_kind(num_qubits, self.ANGLES * 4)
        payload = _json_roundtrip(circuit_to_wire(circuit))
        assert payload["format"] == "repro.circuit/v2"
        restored = circuit_from_wire(payload)
        assert restored.num_qubits == num_qubits
        assert _bits(restored) == _bits(circuit)
        assert circuit_from_wire(_json_roundtrip(circuit_to_wire(restored))) == circuit

    def test_empty_circuit_round_trips(self):
        empty = repro.QuantumCircuit(3)
        assert circuit_from_wire(_json_roundtrip(circuit_to_wire(empty))) == empty

    def test_template_skeleton_sentinels_round_trip_bit_exactly(self, rng):
        from repro.parametric import ParametricProgram, compile_template
        from repro.service.serialize import template_from_wire, template_to_wire

        terms = random_pauli_terms(rng, 5, 10)
        template = compile_template(ParametricProgram.from_terms(terms, list(range(10))))
        restored = template_from_wire(_json_roundtrip(template_to_wire(template)))
        assert _bits(restored._skeleton) == _bits(template._skeleton)

    def test_v1_payloads_still_decode(self, rng):
        circuit = _every_gate_kind(4, self.ANGLES * 4)
        legacy = {"format": "repro.circuit/v1", "num_qubits": 4, "qasm": to_qasm(circuit)}
        assert _bits(circuit_from_wire(legacy)) == _bits(circuit)

    @staticmethod
    def _rewrite(payload, field, array, dtype):
        payload = dict(payload)
        payload[field] = encode_array(array, dtype)
        return payload

    def test_rejects_malformed_arrays(self, rng):
        payload = circuit_to_wire(_every_gate_kind(4, self.ANGLES * 4))
        ops = decode_array(payload["ops"], "<u1")
        qubits = decode_array(payload["qubits"], "<u4")
        angles = decode_array(payload["angles"], "<f8")
        bad_op, bad_qubit = ops.copy(), qubits.copy()
        bad_op[3] = 16
        bad_qubit[5, 0] = 4
        repeated = qubits.copy()
        repeated[-1] = (2, 2)
        for broken in (
            self._rewrite(payload, "ops", bad_op, "<u1"),
            self._rewrite(payload, "qubits", bad_qubit, "<u4"),
            self._rewrite(payload, "qubits", repeated, "<u4"),
            self._rewrite(payload, "qubits", qubits[1:], "<u4"),
            self._rewrite(payload, "angles", angles[1:], "<f8"),
            self._rewrite(payload, "angles", np.append(angles, 1.0), "<f8"),
            dict(payload, num_qubits=None),
            dict(payload, format="repro.circuit/v3"),
        ):
            with pytest.raises(WireFormatError):
                circuit_from_wire(broken)


class TestTableauWire:
    @pytest.mark.parametrize("num_qubits", [2, 8, 70])
    def test_roundtrip_is_content_identical(self, rng, num_qubits):
        circuit = random_clifford_circuit(rng, num_qubits, 40)
        tableau = repro.CliffordTableau.from_circuit(circuit)
        restored = tableau_from_wire(_json_roundtrip(tableau_to_wire(tableau)))
        assert restored.content_key() == tableau.content_key()


class TestResultWire:
    @pytest.mark.parametrize("level", [0, 2, 3])
    def test_roundtrip_across_levels(self, rng, level):
        terms = random_pauli_terms(rng, 5, 12)
        result = repro.compile(terms, level=level)
        restored = result_from_wire(_json_roundtrip(result_to_wire(result)))
        assert restored.circuit == result.circuit
        assert restored.extracted_clifford == result.extracted_clifford
        assert restored.name == result.name
        assert restored.metadata == result.metadata
        if result.extraction is None:
            assert restored.extraction is None
        else:
            assert (
                restored.extraction.conjugation.content_key()
                == result.extraction.conjugation.content_key()
            )
            assert restored.extraction.rotation_count == result.extraction.rotation_count
            assert (
                restored.extraction.optimized_circuit
                == result.extraction.optimized_circuit
            )
            assert (
                restored.extraction.extracted_clifford
                == result.extraction.extracted_clifford
            )

    def test_pass_timings_bit_exact(self, rng):
        result = repro.compile(random_pauli_terms(rng, 4, 8), level=3)
        restored = result_from_wire(_json_roundtrip(result_to_wire(result)))
        assert restored.pass_timings == result.pass_timings
        for name, seconds in result.pass_timings.items():
            # equality of repr proves the float survived JSON bit-for-bit
            assert repr(restored.pass_timings[name]) == repr(seconds)

    def test_wide_register_roundtrip(self, rng):
        # >64 qubits: the packed store spans two words per row
        terms = random_pauli_terms(rng, 70, 10)
        result = repro.compile(terms, level=3)
        restored = result_from_wire(_json_roundtrip(result_to_wire(result)))
        assert restored.circuit == result.circuit
        assert (
            restored.extraction.conjugation.content_key()
            == result.extraction.conjugation.content_key()
        )

    def test_routed_result_roundtrip(self, rng):
        terms = random_pauli_terms(rng, 6, 8)
        result = repro.compile(terms, target="sycamore", level=3)
        restored = result_from_wire(_json_roundtrip(result_to_wire(result)))
        assert restored.circuit == result.circuit
        assert restored.metadata.get("routed") is True

    def test_to_dict_from_dict_methods(self, rng):
        result = repro.compile(random_pauli_terms(rng, 4, 6), level=3)
        restored = repro.CompilationResult.from_dict(result.to_dict())
        assert restored.circuit == result.circuit

    def test_sum_program_result_roundtrip(self, rng):
        observable = SparsePauliSum(random_pauli_terms(rng, 5, 10))
        result = repro.compile(observable, level=3)
        restored = result_from_wire(_json_roundtrip(result_to_wire(result)))
        assert restored.circuit == result.circuit

    def test_absorption_still_works_after_roundtrip(self, rng):
        # the deserialized result rebuilds its lazy absorbers from the
        # restored tableau (no conjugation cache travels on the wire)
        terms = random_pauli_terms(rng, 4, 8)
        result = repro.compile(terms, level=3)
        restored = result_from_wire(result_to_wire(result))
        observable = random_pauli(rng, 4)
        original = result.absorb_observables([observable])
        recovered = restored.absorb_observables([observable])
        assert [(a.updated, a.sign) for a in recovered] == [
            (a.updated, a.sign) for a in original
        ]

    def test_extraction_terms_preserved(self, rng):
        terms = random_pauli_terms(rng, 4, 7)
        result = repro.compile(terms, level=3)
        restored = result_from_wire(result_to_wire(result))
        assert len(restored.extraction.terms) == len(result.extraction.terms)
        for original, back in zip(result.extraction.terms, restored.extraction.terms):
            assert back.pauli == original.pauli
            assert back.coefficient == original.coefficient

    def test_rejects_foreign_format(self):
        with pytest.raises(WireFormatError):
            result_from_wire({"format": "repro.result/v999"})


def test_public_reexports():
    from repro.service import WIRE_VERSION, program_to_wire as exported

    assert WIRE_VERSION == 1
    assert exported is program_to_wire
