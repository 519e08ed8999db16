"""Tests for measurement grouping, backends and the hybrid executor."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.statevector import Statevector
from repro.core.extraction import CliffordExtractor
from repro.core.measurement_grouping import (
    MeasurementGroup,
    group_observables,
    measurement_savings,
    qubitwise_commute,
)
from repro.core.absorption import ObservableAbsorber
from repro.exceptions import AbsorptionError, CircuitError
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.simulation.backends import StabilizerBackend, StatevectorBackend
from repro.simulation.executor import HybridExecutor
from repro.synthesis.trotter import synthesize_trotter_circuit
from repro.workloads.qaoa import maxcut_qaoa_terms, regular_graph

from tests.conftest import random_pauli_terms


class TestQubitwiseCommutation:
    def test_identity_always_commutes(self):
        assert qubitwise_commute(PauliString.from_label("IZI"), PauliString.from_label("XIZ"))

    def test_conflicting_letters(self):
        assert not qubitwise_commute(PauliString.from_label("XZ"), PauliString.from_label("XX"))

    def test_equal_letters(self):
        assert qubitwise_commute(PauliString.from_label("XZ"), PauliString.from_label("XZ"))

    def test_size_mismatch(self):
        with pytest.raises(AbsorptionError):
            qubitwise_commute(PauliString.from_label("X"), PauliString.from_label("XX"))


class TestMeasurementGrouping:
    def _absorbed(self, rng, labels):
        terms = random_pauli_terms(rng, len(labels[0]), 4)
        extraction = CliffordExtractor().extract(terms)
        absorber = ObservableAbsorber(extraction.conjugation)
        # Use an identity conjugation-free absorber for deterministic grouping:
        # the grouping operates on the *updated* observables whatever they are.
        return [absorber.absorb_pauli(PauliString.from_label(label)) for label in labels]

    def test_grouping_reduces_executions(self, rng):
        absorbed = self._absorbed(rng, ["ZZI", "ZIZ", "IZZ", "XXI"])
        savings = measurement_savings(absorbed)
        assert savings["num_groups"] <= savings["num_observables"]
        assert savings["saved_executions"] >= 0

    def test_groups_are_internally_compatible(self, rng):
        absorbed = self._absorbed(rng, ["ZZI", "XIX", "IZZ", "XXX", "ZII", "IXI"])
        for group in group_observables(absorbed):
            for i, first in enumerate(group.members):
                for second in group.members[i + 1 :]:
                    assert qubitwise_commute(first.updated, second.updated)

    def test_group_rejects_incompatible_member(self, rng):
        absorbed = self._absorbed(rng, ["ZZ", "XX"])
        group = MeasurementGroup()
        group.add(absorbed[0])
        if not group.accepts(absorbed[1]):
            with pytest.raises(AbsorptionError):
                group.add(absorbed[1])

    def test_group_expectations_match_individual(self, rng):
        """Grouped CA-Post must equal per-observable CA-Post exactly."""
        terms = random_pauli_terms(rng, 3, 4)
        extraction = CliffordExtractor().extract(terms)
        absorber = ObservableAbsorber(extraction.conjugation)
        observables = [PauliString.from_label(label) for label in ["ZZI", "ZIZ", "IZZ"]]
        absorbed = [absorber.absorb_pauli(observable) for observable in observables]
        groups = group_observables(absorbed)
        original_state = Statevector.from_circuit(synthesize_trotter_circuit(terms))
        for group in groups:
            circuit = extraction.optimized_circuit.compose(group.measurement_circuit())
            probabilities = Statevector.from_circuit(circuit).probability_dict()
            counts = {key: int(round(value * 10**7)) for key, value in probabilities.items()}
            values = group.expectations_from_counts(counts)
            for member, value in zip(group.members, values):
                exact = original_state.expectation_value(member.original)
                assert value == pytest.approx(exact, abs=1e-5)

    def test_empty_counts_rejected(self, rng):
        absorbed = self._absorbed(rng, ["ZZ"])
        group = group_observables(absorbed)[0]
        with pytest.raises(AbsorptionError):
            group.expectations_from_counts({})


class TestBackends:
    def test_statevector_backend_counts(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        counts = StatevectorBackend(seed=3).run(circuit, shots=500)
        assert sum(counts.values()) == 500
        assert set(counts) <= {"00", "01"}

    def test_stabilizer_backend_matches_statevector(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        counts = StabilizerBackend(seed=3).run(circuit, shots=300)
        assert set(counts) <= {"00", "11"}

    def test_stabilizer_backend_rejects_rotations(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        with pytest.raises(CircuitError):
            StabilizerBackend().run(circuit, shots=10)

    def test_probabilities_helper(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        assert StatevectorBackend().probabilities(circuit) == {"1": 1.0}


class TestHybridExecutor:
    def test_expectation_matches_exact(self, rng):
        terms = random_pauli_terms(rng, 3, 4)
        observable = SparsePauliSum.from_labels(["ZZI", "IXX", "ZIZ"], [0.5, -0.75, 1.0])
        executor = HybridExecutor(shots=200_000)
        estimate = executor.estimate_expectation(terms, observable)
        exact = Statevector.from_circuit(synthesize_trotter_circuit(terms)).expectation_value(
            observable
        )
        assert estimate.value == pytest.approx(exact, abs=0.05)
        assert estimate.num_circuit_executions <= estimate.num_observables

    def test_grouping_reduces_circuit_executions(self, rng):
        terms = random_pauli_terms(rng, 3, 3)
        observable = SparsePauliSum.from_labels(["ZZI", "ZIZ", "IZZ", "ZII"], [1, 1, 1, 1])
        grouped = HybridExecutor(shots=1000, group_measurements=True).estimate_expectation(
            terms, observable
        )
        ungrouped = HybridExecutor(shots=1000, group_measurements=False).estimate_expectation(
            terms, observable
        )
        assert grouped.num_circuit_executions <= ungrouped.num_circuit_executions
        assert ungrouped.num_circuit_executions == 4

    def test_sample_distribution_matches_original(self):
        graph = regular_graph(6, 2, seed=8)
        terms = maxcut_qaoa_terms(graph, gamma=0.6, beta=0.3)
        prep = QuantumCircuit(6)
        for qubit in range(6):
            prep.h(qubit)
        executor = HybridExecutor(shots=60_000)
        estimate = executor.sample_distribution(terms, state_preparation=prep)
        original = Statevector.from_circuit(
            prep.compose(synthesize_trotter_circuit(terms))
        ).probability_dict()
        total = sum(estimate.counts.values())
        for bits, probability in original.items():
            if probability > 0.05:
                assert estimate.counts.get(bits, 0) / total == pytest.approx(probability, abs=0.03)

    def test_single_observable_wrapper(self, rng):
        terms = random_pauli_terms(rng, 2, 3)
        executor = HybridExecutor(shots=100_000)
        value = executor.expected_observable_value(terms, PauliString.from_label("ZZ"))
        exact = Statevector.from_circuit(synthesize_trotter_circuit(terms)).expectation_value(
            PauliString.from_label("ZZ")
        )
        assert value == pytest.approx(exact, abs=0.05)
