"""Streaming-vs-legacy peephole equivalence suite.

The streaming wire-indexed engine
(:mod:`repro.transpile.wire_optimizer`) must reach the same rewrite fixpoint
as the iterated legacy sweeps (:func:`repro.transpile.peephole.peephole_optimize`,
the unoptimized ground truth): identical gate count and a statevector match
up to global phase, on randomized gate tails covering symmetric gates with
reversed qubit order, near-zero and >2*pi merged angles, and fixpoints the
legacy default iteration cap cannot reach.  The preset pipelines' local
rewriting is held to the same oracle: a compile equals the raw extraction
streamed once through the engine.
"""

import math

import numpy as np
import pytest

import repro
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.statevector import circuits_equivalent
from repro.core.extraction import CliffordExtractor
from repro.exceptions import CircuitError
from repro.service.serialize import result_to_wire
from repro.synthesis.trotter import synthesize_trotter_circuit
from repro.transpile.peephole import peephole_optimize
from repro.transpile.wire_optimizer import (
    GateStreamOptimizer,
    streaming_peephole_optimize,
)

from tests.conftest import random_pauli_terms

_FIXED_1Q = ["h", "x", "y", "z", "s", "sdg", "sx", "sxdg"]
_FIXED_2Q = ["cx", "cz", "swap"]
_ROT_1Q = ["rz", "rx", "ry"]

#: a fixpoint beyond any case this suite generates; the legacy default cap
#: of 20 is deliberately NOT used — the streaming engine has no cap at all
_LEGACY_FIXPOINT_ITERATIONS = 128


def _random_tail(rng, num_qubits: int, num_gates: int) -> QuantumCircuit:
    """A random gate tail stressing every rewrite rule at once."""
    circuit = QuantumCircuit(num_qubits)
    angle_pool = [0.0, 1e-13, 7.5, 2.0 * math.pi + 0.25, -9.0]
    for _ in range(num_gates):
        draw = rng.random()
        if draw < 0.35:
            circuit.append(Gate(str(rng.choice(_FIXED_1Q)), (int(rng.integers(num_qubits)),)))
        elif draw < 0.6:
            pair = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(Gate(str(rng.choice(_FIXED_2Q)), (int(pair[0]), int(pair[1]))))
        elif draw < 0.85:
            angle = (
                float(rng.choice(angle_pool))
                if rng.random() < 0.3
                else float(rng.uniform(-8.0, 8.0))
            )
            circuit.append(Gate(str(rng.choice(_ROT_1Q)), (int(rng.integers(num_qubits)),), (angle,)))
        else:
            pair = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(Gate("rzz", (int(pair[0]), int(pair[1])), (float(rng.uniform(-8.0, 8.0)),)))
        if rng.random() < 0.05:
            circuit.append(Gate("i", (int(rng.integers(num_qubits)),)))
    return circuit


def _assert_matches_legacy(circuit: QuantumCircuit) -> QuantumCircuit:
    legacy = peephole_optimize(circuit, max_iterations=_LEGACY_FIXPOINT_ITERATIONS)
    streamed = streaming_peephole_optimize(circuit)
    assert len(streamed) == len(legacy), (
        f"gate count diverged: streaming {len(streamed)} vs legacy {len(legacy)}\n"
        f"input: {list(circuit)}"
    )
    assert circuits_equivalent(streamed, legacy, tolerance=1e-6)
    return streamed


class TestRandomizedEquivalence:
    def test_random_gate_tails(self, rng):
        for _ in range(60):
            num_qubits = int(rng.integers(2, 5))
            circuit = _random_tail(rng, num_qubits, int(rng.integers(1, 60)))
            streamed = _assert_matches_legacy(circuit)
            assert circuits_equivalent(circuit, streamed, tolerance=1e-6)

    def test_random_trotter_tails(self, rng):
        # mirrored V-blocks between adjacent terms: heavy cancellation load
        for _ in range(10):
            terms = random_pauli_terms(rng, 4, int(rng.integers(2, 9)))
            circuit = synthesize_trotter_circuit(terms)
            _assert_matches_legacy(circuit)

    def test_streaming_is_idempotent(self, rng):
        for _ in range(20):
            circuit = _random_tail(rng, 3, int(rng.integers(1, 50)))
            once = streaming_peephole_optimize(circuit)
            twice = streaming_peephole_optimize(once)
            assert list(once) == list(twice)


class TestSymmetricGates:
    """cz/swap/rzz act on unordered pairs: reversed listings must match."""

    def test_reversed_cz_cancels_through_commuting_rotation(self):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1).rz(0.4, 0).cz(1, 0)
        streamed = _assert_matches_legacy(circuit)
        assert streamed.cx_count() == 0

    def test_reversed_swap_cancels(self):
        circuit = QuantumCircuit(3)
        circuit.swap(2, 0).swap(0, 2)
        assert len(streaming_peephole_optimize(circuit)) == 0

    def test_reversed_rzz_merges_at_earliest_position(self):
        circuit = QuantumCircuit(2)
        circuit.rzz(0.3, 0, 1).rzz(0.4, 1, 0)
        streamed = _assert_matches_legacy(circuit)
        assert len(streamed) == 1
        assert streamed.gates[0].qubits == (0, 1)
        assert streamed.gates[0].params[0] == pytest.approx(0.7)

    def test_reversed_opposite_rzz_cancel(self):
        circuit = QuantumCircuit(2)
        circuit.rzz(0.3, 0, 1).rzz(-0.3, 1, 0)
        assert len(streaming_peephole_optimize(circuit)) == 0

    def test_reversed_cx_does_not_cancel(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).cx(1, 0)
        streamed = _assert_matches_legacy(circuit)
        assert streamed.cx_count() == 2


class TestAngleEdgeCases:
    def test_near_zero_rotation_dropped_on_arrival(self):
        circuit = QuantumCircuit(1)
        circuit.rz(1e-13, 0)
        assert len(streaming_peephole_optimize(circuit)) == 0

    def test_merge_to_exact_zero_cancels_and_unblocks(self):
        # the zero-merged rotation disappears; the CNOTs around it cancel
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1).rz(0.8, 1)
        circuit.append(Gate("rz", (1,), (-0.8,)))
        circuit.cx(0, 1)
        streamed = _assert_matches_legacy(circuit)
        assert len(streamed) == 0

    def test_angle_beyond_two_pi_normalizes(self):
        circuit = QuantumCircuit(1)
        circuit.rz(3.0 * math.pi, 0)
        streamed = _assert_matches_legacy(circuit)
        assert len(streamed) == 1
        assert streamed.gates[0].params[0] == pytest.approx(-math.pi)

    def test_merged_angle_beyond_two_pi_normalizes(self):
        circuit = QuantumCircuit(1)
        circuit.rx(3.5, 0).rx(3.5, 0)
        streamed = _assert_matches_legacy(circuit)
        assert len(streamed) == 1
        assert streamed.gates[0].params[0] == pytest.approx(
            math.remainder(7.0, 4.0 * math.pi)
        )

    def test_full_four_pi_turn_vanishes(self):
        circuit = QuantumCircuit(1)
        circuit.rz(2.0 * math.pi, 0).rz(2.0 * math.pi, 0)
        assert len(streaming_peephole_optimize(circuit)) == 0

    def test_many_rotations_merge_into_first(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.1, 0).cz(0, 1).rz(0.2, 0).rz(0.3, 0)
        streamed = _assert_matches_legacy(circuit)
        assert streamed.count_ops()["rz"] == 1
        assert streamed.gates[0].name == "rz"
        assert streamed.gates[0].params[0] == pytest.approx(0.6)


class TestBeyondLegacyIterationCap:
    def test_deep_palindrome_needs_more_than_twenty_sweeps(self):
        # alternating non-commuting self-inverse layers: the legacy engine
        # peels exactly one palindrome layer per sweep
        layers = [Gate("h" if depth % 2 else "x", (0,)) for depth in range(25)]
        circuit = QuantumCircuit(1, layers + list(reversed(layers)))
        capped = peephole_optimize(circuit)  # legacy default: 20 sweeps
        assert len(capped) == 10  # five layers it never reached
        uncapped = peephole_optimize(circuit, max_iterations=64)
        assert len(uncapped) == 0
        # the streaming engine has no cap: one pass reaches the true fixpoint
        assert len(streaming_peephole_optimize(circuit)) == 0

    def test_two_qubit_palindrome(self):
        layers = [
            Gate("cx", (0, 1)) if depth % 2 else Gate("h", (1,)) for depth in range(23)
        ]
        circuit = QuantumCircuit(2, layers + list(reversed(layers)))
        streamed = streaming_peephole_optimize(circuit)
        assert len(streamed) == 0
        assert len(peephole_optimize(circuit, max_iterations=64)) == 0


class TestGateStreamOptimizer:
    def test_cancels_pairs_and_drops_identity(self):
        optimizer = GateStreamOptimizer(2)
        optimizer.extend(
            [Gate("cx", (0, 1)), Gate("cx", (0, 1)), Gate("swap", (0, 1)), Gate("i", (0,))]
        )
        assert len(optimizer) == 1  # the two CNOTs cancelled, i dropped
        assert [gate.name for gate in optimizer.gates()] == ["swap"]

    def test_rejects_empty_register(self):
        with pytest.raises(CircuitError):
            GateStreamOptimizer(0)

    def test_compaction_keeps_result_correct(self, rng):
        # drive far more kills than the compaction threshold
        optimizer = GateStreamOptimizer(2)
        for _ in range(2000):
            optimizer.append(Gate("h", (0,)))
            optimizer.append(Gate("h", (0,)))
        optimizer.append(Gate("h", (0,)))
        assert len(optimizer) == 1
        assert [gate.name for gate in optimizer.gates()] == ["h"]


#: the extractor flags of the preset levels that run Clifford Extraction
_PRESET_EXTRACTION_FLAGS = {
    2: {"reorder_within_blocks": False, "cross_block_lookahead": False},
    3: {},
}


def _preset_programs():
    """Seeded random programs, plus one whose extraction rewriting shrinks."""
    rng = np.random.default_rng(2024)
    return [pytest.param(random_pauli_terms(np.random.default_rng(17), 3, 5), id="seed-17")] + [
        pytest.param(random_pauli_terms(rng, 4, 6), id=f"random-{index}") for index in range(4)
    ]


class TestPresetLocalRewriting:
    """The presets' local rewriting is extraction's rotation merge, which must
    equal the Peephole stream over the unmerged emission."""

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("terms", _preset_programs())
    def test_compile_is_extraction_then_one_stream(self, level, terms):
        result = repro.compile(terms, level=level)
        trace, merges = CliffordExtractor(**_PRESET_EXTRACTION_FLAGS[level]).trace(terms)
        raw = QuantumCircuit(merges.num_qubits, merges.unmerged_gates())
        streamed = streaming_peephole_optimize(raw)
        assert result.circuit.gates == streamed.gates
        assert result.extracted_clifford.gates == trace.extracted_clifford.gates

        legacy = peephole_optimize(raw, max_iterations=_LEGACY_FIXPOINT_ITERATIONS)
        assert len(result.circuit) == len(legacy)
        assert circuits_equivalent(result.circuit, legacy, tolerance=1e-6)

        raw_cx = raw.cx_count()
        assert result.metadata["pre_optimization_cx"] == raw_cx
        assert result.extraction.metadata["pre_optimization_cx"] == raw_cx

        # the extraction record carries the circuit that runs, so the wire
        # payload stores it once
        assert result.extraction.optimized_circuit == result.circuit
        wire = result_to_wire(result)
        assert wire["extraction"]["optimized_circuit"] == {"same_as": "circuit"}

    def test_seed_17_program_loses_a_gate_to_rewriting(self):
        terms = random_pauli_terms(np.random.default_rng(17), 3, 5)
        trace, merges = CliffordExtractor().trace(terms)
        assert len(repro.compile(terms, level=3).circuit) < len(merges.unmerged_gates())
        assert trace.metadata["stage_counters"]["rotations_merged"] > 0
