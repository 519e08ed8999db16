"""End-to-end tests of the QuCLEAR flow (paper Fig. 6) through the pipeline API."""

import pytest

import repro
from repro.circuits.statevector import Statevector, circuits_equivalent
from repro.compiler import quclear_pipeline
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.synthesis.trotter import rotation_terms_from_hamiltonian, synthesize_trotter_circuit
from repro.workloads.registry import get_benchmark

from tests.conftest import random_pauli_terms


class TestCompile:
    def test_compile_equivalence_with_local_opt(self, rng):
        for _ in range(6):
            terms = random_pauli_terms(rng, 3, 6)
            result = repro.compile(terms, level=3)
            original = synthesize_trotter_circuit(terms)
            reconstructed = result.circuit.compose(result.extracted_clifford)
            assert circuits_equivalent(original, reconstructed)

    def test_local_opt_never_increases_cx(self, rng):
        terms = random_pauli_terms(rng, 4, 8)
        with_opt = quclear_pipeline(local_optimize=True).run(terms)
        without_opt = quclear_pipeline(local_optimize=False).run(terms)
        assert with_opt.cx_count() <= without_opt.cx_count()

    def test_compile_beats_native_on_chemistry_like_terms(self, rng):
        # High-weight Pauli strings: extraction should roughly halve the CNOTs.
        labels = ["XXYZ", "YZXX", "ZZZZ", "XYXY", "ZXYZ", "YYXX"]
        terms = [PauliTerm.from_label(label, 0.1 * (i + 1)) for i, label in enumerate(labels)]
        result = repro.compile(terms, level=3)
        native = synthesize_trotter_circuit(terms)
        assert result.cx_count() < native.cx_count()

    def test_metrics_keys(self, rng):
        terms = random_pauli_terms(rng, 3, 3)
        metrics = repro.compile(terms, level=3).metrics()
        assert set(metrics) == {
            "cx_count",
            "entangling_depth",
            "single_qubit_count",
            "compile_seconds",
        }

    def test_compile_hamiltonian(self):
        hamiltonian = SparsePauliSum.from_labels(["ZZI", "IZZ", "XII"], [0.5, 0.5, 0.3])
        terms = rotation_terms_from_hamiltonian(hamiltonian, time=0.7)
        result = repro.compile(terms, level=3)
        original = synthesize_trotter_circuit(terms)
        reconstructed = result.circuit.compose(result.extracted_clifford)
        assert circuits_equivalent(original, reconstructed)

    def test_compile_accepts_sparse_pauli_sum(self):
        observable = SparsePauliSum.from_labels(["ZZ", "XX"], [0.3, 0.4])
        terms = [PauliTerm(t.pauli, t.coefficient) for t in observable]
        result = repro.compile(observable, level=3)
        assert result.metadata["rotation_count"] == 2
        assert result.circuit == repro.compile(terms, level=3).circuit

    @pytest.mark.parametrize("workload", ["UCC-(2,4)", "MaxCut-(n15, r4)"])
    def test_default_pipeline_matches_level3_on_benchmarks(self, workload):
        terms = get_benchmark(workload).terms()
        pipeline = quclear_pipeline().run(terms)
        preset = repro.compile(terms, level=3)
        assert pipeline.circuit == preset.circuit
        assert pipeline.cx_count() == preset.cx_count()
        assert pipeline.entangling_depth() == preset.entangling_depth()

    def test_compile_time_recorded(self, rng):
        terms = random_pauli_terms(rng, 3, 3)
        assert repro.compile(terms, level=3).compile_seconds > 0


class TestHybridWorkflows:
    def test_observable_workflow(self, rng):
        terms = random_pauli_terms(rng, 3, 5)
        observable = PauliString.from_label("ZXY")
        result = repro.compile(terms, level=3)
        absorbed = result.absorb_observables([observable])[0]
        optimized_value = absorbed.sign * Statevector.from_circuit(
            result.circuit
        ).expectation_value(absorbed.updated)
        original_value = Statevector.from_circuit(
            synthesize_trotter_circuit(terms)
        ).expectation_value(observable)
        assert optimized_value == pytest.approx(original_value, abs=1e-9)

    def test_probability_workflow(self):
        num_qubits = 4
        terms = []
        for first, second in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            terms.append(
                PauliTerm(
                    PauliString.from_sparse(num_qubits, [(first, "Z"), (second, "Z")]), 0.6
                )
            )
        for qubit in range(num_qubits):
            terms.append(PauliTerm(PauliString.single(num_qubits, qubit, "X"), 0.9))
        result = repro.compile(terms, level=3)
        absorber = result.probability_absorber()
        original = Statevector.from_circuit(synthesize_trotter_circuit(terms)).probability_dict()
        measured = Statevector.from_circuit(
            result.circuit.compose(absorber.pre_circuit())
        ).probability_dict()
        recovered = absorber.map_probabilities(measured)
        for key, value in original.items():
            assert recovered.get(key, 0.0) == pytest.approx(value, abs=1e-9)

    def test_ablation_flags_change_behaviour(self, rng):
        """All feature combinations still produce correct circuits."""
        terms = random_pauli_terms(rng, 3, 6)
        original = synthesize_trotter_circuit(terms)
        for reorder in (False, True):
            for recursive in (False, True):
                result = quclear_pipeline(
                    reorder_within_blocks=reorder,
                    recursive_tree=recursive,
                    local_optimize=False,
                ).run(terms)
                reconstructed = result.circuit.compose(result.extracted_clifford)
                assert circuits_equivalent(original, reconstructed)

    @pytest.mark.parametrize("reorder", [False, True])
    @pytest.mark.parametrize("recursive", [False, True])
    def test_peephole_keeps_every_ablation_correct(self, reorder, recursive, rng):
        terms = random_pauli_terms(rng, 3, 6)
        flags = {"reorder_within_blocks": reorder, "recursive_tree": recursive}
        optimized = quclear_pipeline(local_optimize=True, **flags).run(terms)
        plain = quclear_pipeline(local_optimize=False, **flags).run(terms)
        reconstructed = optimized.circuit.compose(optimized.extracted_clifford)
        assert circuits_equivalent(synthesize_trotter_circuit(terms), reconstructed)
        assert optimized.cx_count() <= plain.cx_count()
        # extraction already merged rotations: the extra pass finds nothing
        assert optimized.circuit == plain.circuit == optimized.extraction.optimized_circuit
