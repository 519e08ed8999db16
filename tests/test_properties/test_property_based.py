"""Hypothesis property-based tests for the core data structures and invariants.

These tests complement the example-based suites: they search the input space
for violations of the algebraic laws everything else relies on (Pauli group
structure, Clifford conjugation being a signed group automorphism, extraction
preserving the program unitary, GF(2) synthesis round-trips).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.circuits.statevector import circuits_equivalent
from repro.clifford.tableau import CliffordTableau
from repro.core.extraction import CliffordExtractor
from repro.linear.cnot_synthesis import cnot_network_matrix, synthesize_cnot_network
from repro.linear.gf2 import gf2_inverse, gf2_is_invertible, gf2_matvec
from repro.paulis.pauli import PauliString
from repro.paulis.term import PauliTerm
from repro.synthesis.trotter import synthesize_trotter_circuit
from repro.transpile.peephole import peephole_optimize

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
pauli_labels = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
)


def paulis(num_qubits: int):
    return st.tuples(
        st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits),
        st.sampled_from([1, -1]),
    ).map(lambda pair: PauliString.from_label(pair[0], sign=pair[1]))


def clifford_circuits(num_qubits: int, max_gates: int = 12):
    single = st.tuples(
        st.sampled_from(["h", "s", "sdg", "x", "y", "z", "sx", "sxdg"]),
        st.integers(0, num_qubits - 1),
    ).map(lambda pair: Gate(pair[0], (pair[1],)))
    if num_qubits > 1:
        two = st.tuples(
            st.sampled_from(["cx", "cz", "swap"]),
            st.permutations(range(num_qubits)).map(lambda p: (p[0], p[1])),
        ).map(lambda pair: Gate(pair[0], pair[1]))
        gate = st.one_of(single, two)
    else:
        gate = single
    return st.lists(gate, min_size=0, max_size=max_gates).map(
        lambda gates: QuantumCircuit(num_qubits, gates)
    )


def small_programs():
    def build(data):
        num_qubits, rows = data
        terms = []
        for label_bits, angle in rows:
            label = "".join("IXYZ"[b] for b in label_bits)
            if set(label) == {"I"}:
                label = "Z" + label[1:]
            terms.append(PauliTerm(PauliString.from_label(label), angle))
        return terms

    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, 3), min_size=n, max_size=n),
                    st.floats(-3.0, 3.0, allow_nan=False),
                ),
                min_size=1,
                max_size=5,
            ),
        )
    ).map(build)


# --------------------------------------------------------------------------- #
# Pauli algebra laws
# --------------------------------------------------------------------------- #
class TestPauliAlgebraProperties:
    @given(pauli_labels)
    def test_label_roundtrip(self, label):
        pauli = PauliString.from_label(label)
        assert PauliString.from_label(pauli.to_label()) == pauli

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
    def test_product_matches_matrices(self, pair):
        first, second = pair
        product = first @ second
        assert np.allclose(product.to_matrix(), first.to_matrix() @ second.to_matrix())

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(paulis(n), paulis(n))))
    def test_commutation_is_symmetric(self, pair):
        first, second = pair
        assert first.commutes_with(second) == second.commutes_with(first)

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(paulis(n), paulis(n), paulis(n))))
    def test_product_associative(self, triple):
        first, second, third = triple
        assert (first @ second) @ third == first @ (second @ third)

    @given(st.integers(1, 5).flatmap(paulis))
    def test_self_product_is_identity_up_to_phase(self, pauli):
        square = pauli @ pauli
        assert square.is_identity()

    @given(st.integers(1, 5).flatmap(paulis))
    def test_adjoint_is_involution(self, pauli):
        assert pauli.adjoint().adjoint() == pauli

    @given(st.integers(1, 5).flatmap(paulis))
    def test_weight_bounds(self, pauli):
        assert 0 <= pauli.weight <= pauli.num_qubits
        assert len(pauli.support) == pauli.weight


# --------------------------------------------------------------------------- #
# Clifford conjugation laws
# --------------------------------------------------------------------------- #
class TestCliffordProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(clifford_circuits(n), paulis(n), paulis(n))
        )
    )
    def test_conjugation_is_group_homomorphism(self, data):
        circuit, first, second = data
        tableau = CliffordTableau.from_circuit(circuit)
        left = tableau.conjugate(first @ second)
        right = tableau.conjugate(first) @ tableau.conjugate(second)
        assert left == right

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(clifford_circuits(n), paulis(n))))
    def test_conjugation_preserves_weight_of_identity_and_hermiticity(self, data):
        circuit, pauli = data
        image = CliffordTableau.from_circuit(circuit).conjugate(pauli)
        assert image.is_identity() == pauli.is_identity()
        assert image.is_hermitian() == pauli.is_hermitian()

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(clifford_circuits(n), paulis(n))))
    def test_inverse_circuit_undoes_conjugation(self, data):
        circuit, pauli = data
        forward = CliffordTableau.from_circuit(circuit)
        backward = CliffordTableau.from_circuit(circuit.inverse())
        assert backward.conjugate(forward.conjugate(pauli)) == pauli


# --------------------------------------------------------------------------- #
# Extraction and peephole invariants
# --------------------------------------------------------------------------- #
class TestCompilationProperties:
    @settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(small_programs())
    def test_extraction_preserves_unitary(self, terms):
        result = CliffordExtractor().extract(terms)
        original = synthesize_trotter_circuit(terms)
        reconstructed = result.optimized_circuit.compose(result.extracted_clifford)
        assert circuits_equivalent(original, reconstructed)

    @settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(small_programs())
    def test_extraction_emits_one_rotation_per_term(self, terms):
        result, merges = CliffordExtractor().trace(terms)
        non_identity = sum(1 for term in terms if not term.pauli.is_identity())
        assert sum(gate.name == "rz" for gate in merges.unmerged_gates()) == non_identity
        merged = result.metadata["stage_counters"]["rotations_merged"]
        assert len(merges.positions) + merged == non_identity

    @settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 4).flatmap(lambda n: clifford_circuits(n, max_gates=20)))
    def test_peephole_preserves_clifford_unitary(self, circuit):
        optimized = peephole_optimize(circuit)
        assert len(optimized) <= len(circuit)
        assert circuits_equivalent(circuit, optimized)


# --------------------------------------------------------------------------- #
# GF(2) linear algebra invariants
# --------------------------------------------------------------------------- #
def invertible_gf2_matrices(size: int):
    def to_matrix(circuit_spec):
        matrix = np.eye(size, dtype=bool)
        for control, target in circuit_spec:
            if control != target:
                matrix[target] ^= matrix[control]
        return matrix

    return st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        min_size=0,
        max_size=3 * size,
    ).map(to_matrix)


class TestLinearProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(2, 6).flatmap(invertible_gf2_matrices))
    def test_synthesis_roundtrip(self, matrix):
        circuit = synthesize_cnot_network(matrix)
        assert np.array_equal(cnot_network_matrix(circuit), matrix)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                invertible_gf2_matrices(n),
                st.lists(st.booleans(), min_size=n, max_size=n),
            )
        )
    )
    def test_inverse_undoes_matvec(self, data):
        matrix, vector_bits = data
        assert gf2_is_invertible(matrix)
        vector = np.array(vector_bits, dtype=bool)
        image = gf2_matvec(matrix, vector)
        assert np.array_equal(gf2_matvec(gf2_inverse(matrix), image), vector)
