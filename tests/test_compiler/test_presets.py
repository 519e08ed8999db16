"""Property-based correctness of the preset pipelines.

Every optimization level must preserve the program unitary: the compiled
circuit followed by the extracted Clifford tail (when there is one) must be
statevector-equivalent to naive direct synthesis, on random Pauli programs.
"""

import pytest

import repro
from repro.circuits.statevector import circuits_equivalent
from repro.compiler import preset_pipeline
from repro.exceptions import CompilerError
from repro.synthesis.trotter import synthesize_trotter_circuit

from tests.conftest import random_pauli_terms


class TestPresetEquivalence:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_levels_preserve_statevector_on_random_programs(self, level, rng):
        for _ in range(5):
            terms = random_pauli_terms(rng, 3, 6)
            result = repro.compile(terms, level=level)
            reconstructed = result.circuit
            if result.extracted_clifford is not None:
                reconstructed = reconstructed.compose(result.extracted_clifford)
            original = synthesize_trotter_circuit(terms)
            assert circuits_equivalent(original, reconstructed), f"level {level} broke equivalence"

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_levels_preserve_statevector_on_four_qubits(self, level, rng):
        terms = random_pauli_terms(rng, 4, 5)
        result = repro.compile(terms, level=level)
        reconstructed = result.circuit
        if result.extracted_clifford is not None:
            reconstructed = reconstructed.compose(result.extracted_clifford)
        assert circuits_equivalent(synthesize_trotter_circuit(terms), reconstructed)

    def test_higher_levels_never_do_worse_than_native(self, rng):
        terms = random_pauli_terms(rng, 4, 8)
        native_cx = repro.compile(terms, level=0).cx_count()
        for level in (1, 2, 3):
            assert repro.compile(terms, level=level).cx_count() <= native_cx

    def test_level3_extracts_a_clifford_tail(self, rng):
        terms = random_pauli_terms(rng, 3, 5)
        result = repro.compile(terms, level=3)
        assert result.extracted_clifford is not None
        assert result.extraction is not None

    def test_level0_has_no_extraction(self, rng):
        terms = random_pauli_terms(rng, 3, 5)
        result = repro.compile(terms, level=0)
        assert result.extracted_clifford is None
        with pytest.raises(CompilerError):
            result.observable_absorber()

    def test_only_level1_and_the_ablation_run_the_peephole_pass(self):
        from repro.compiler import quclear_pipeline

        names = {level: preset_pipeline(level).pass_names() for level in range(4)}
        assert "Peephole" in names[1]
        assert names[2] == names[3] == [
            "GroupCommuting", "CliffordExtraction", "SabreRouting", "PostRoutingPeephole",
        ]
        assert "Peephole" in quclear_pipeline(local_optimize=True).pass_names()
        assert "Peephole" not in quclear_pipeline().pass_names()

    def test_invalid_level(self, rng):
        with pytest.raises(CompilerError):
            repro.compile(random_pauli_terms(rng, 2, 2), level=7)

    def test_explicit_pipeline_wins_over_level(self, rng):
        terms = random_pauli_terms(rng, 3, 4)
        result = repro.compile(terms, level=3, pipeline="naive")
        assert result.name == "naive"

    def test_pipeline_instance_accepted(self, rng):
        terms = random_pauli_terms(rng, 3, 4)
        result = repro.compile(terms, pipeline=preset_pipeline(1))
        assert result.name == "level1"

    def test_bad_pipeline_argument(self, rng):
        with pytest.raises(CompilerError):
            repro.compile(random_pauli_terms(rng, 2, 2), pipeline=3.5)


class TestDeviceAwareCompile:
    def test_compile_with_coupling_map_routes(self, rng):
        from repro.transpile.coupling import CouplingMap

        terms = random_pauli_terms(rng, 4, 6)
        coupling = CouplingMap.line(4)
        result = repro.compile(terms, target=coupling, level=3)
        for gate in result.circuit:
            if gate.num_qubits == 2:
                assert coupling.are_connected(*gate.qubits)

    def test_compile_with_named_target(self, rng):
        terms = random_pauli_terms(rng, 3, 4)
        result = repro.compile(terms, target="sycamore", level=1)
        assert result.circuit.num_qubits == 64

    def test_target_with_routingless_pipeline_gets_routing_appended(self, rng):
        from repro.transpile.coupling import CouplingMap

        terms = random_pauli_terms(rng, 4, 6)
        coupling = CouplingMap.line(4)
        result = repro.compile(terms, target=coupling, pipeline="tket-like")
        assert result.name == "tket-like+routing"
        for gate in result.circuit:
            if gate.num_qubits == 2:
                assert coupling.are_connected(*gate.qubits)

    def test_routed_result_refuses_absorption(self, rng):
        from repro.transpile.coupling import CouplingMap
        from repro.paulis.pauli import PauliString

        terms = random_pauli_terms(rng, 4, 6)
        result = repro.compile(terms, target=CouplingMap.line(4), level=3)
        if not result.metadata.get("routed"):
            pytest.skip("routing inserted no swaps for this seed")
        with pytest.raises(CompilerError, match="routed"):
            result.absorb_observables([PauliString.from_label("ZZZZ")])
        with pytest.raises(CompilerError, match="routed"):
            result.probability_absorber()

    def test_cached_absorbers_also_refuse_routed_results(self, rng):
        # AbsorptionPrep placed before routing caches logical-space absorbers;
        # the guard must reject them once the circuit has been routed.
        from repro.compiler import (
            AbsorptionPrep,
            CliffordExtraction,
            GroupCommuting,
            Pipeline,
            SabreRouting,
        )
        from repro.transpile.coupling import CouplingMap

        terms = random_pauli_terms(rng, 4, 6)
        pipeline = Pipeline(
            [GroupCommuting(), CliffordExtraction(), AbsorptionPrep(), SabreRouting()]
        )
        result = pipeline.run(terms, target=CouplingMap.line(4))
        if not result.metadata.get("routed"):
            pytest.skip("routing inserted no swaps for this seed")
        assert result.properties.get("observable_absorber") is not None
        with pytest.raises(CompilerError, match="routed"):
            result.observable_absorber()
        with pytest.raises(CompilerError, match="routed"):
            result.probability_absorber()

    def test_small_target_rejected_even_without_routing_pass(self, rng):
        from repro import Target

        terms = random_pauli_terms(rng, 6, 4)
        with pytest.raises(CompilerError, match="needs 6 qubits"):
            repro.compile(terms, target=Target.fully_connected(3), level=0)

    def test_result_properties_read_missing_keys_as_none(self, rng):
        terms = random_pauli_terms(rng, 3, 4)
        result = repro.compile(terms, level=3)
        assert result.properties["never-recorded"] is None

    def test_registry_compile_with_target_appends_routing(self, rng):
        from repro.transpile.coupling import CouplingMap

        terms = random_pauli_terms(rng, 4, 6)
        coupling = CouplingMap.line(4)
        result = repro.get_registry().compile("qiskit-like", terms, target=coupling)
        for gate in result.circuit:
            if gate.num_qubits == 2:
                assert coupling.are_connected(*gate.qubits)
        assert "swap_count" in result.metadata

    def test_lazy_absorbers_are_cached(self, rng):
        terms = random_pauli_terms(rng, 3, 4)
        result = repro.compile(terms, level=3)
        assert result.observable_absorber() is result.observable_absorber()

    def test_registry_compile_rejects_empty_program(self):
        with pytest.raises(CompilerError, match="non-empty"):
            repro.get_registry().compile("naive", [])

    def test_registry_rejects_unknown_compiler(self, rng):
        with pytest.raises(CompilerError, match="unknown compiler"):
            repro.get_registry().compile("nope", random_pauli_terms(rng, 3, 3))

    def test_targetless_compile_matches_logical_pipeline(self, rng):
        from repro.compiler import quclear_pipeline

        terms = random_pauli_terms(rng, 3, 5)
        preset = repro.compile(terms, level=3)
        logical = quclear_pipeline().run(terms)
        # without a target the device stages are no-ops: identical circuits
        assert preset.circuit.gates == logical.circuit.gates
