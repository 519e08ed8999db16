"""Tests for the baseline compilers and the evaluation harness."""

import pytest

from repro.baselines import (
    compile_naive,
    compile_paulihedral_like,
    compile_qiskit_like,
    compile_rustiq_like,
    compile_tket_like,
)
from repro.compiler import get_registry
from repro.circuits.statevector import circuits_equivalent
from repro.evaluation.breakdown import absorption_style, feature_breakdown, local_optimization_ablation
from repro.evaluation.comparison import compare_compilers, compare_on_benchmark
from repro.evaluation.mapping import compare_mapped_compilers
from repro.evaluation.reporting import format_table
from repro.paulis.term import PauliTerm
from repro.synthesis.trotter import synthesize_trotter_circuit
from repro.transpile.coupling import CouplingMap
from repro.workloads.qaoa import maxcut_qaoa_terms, regular_graph

from tests.conftest import random_pauli_terms


#: every baseline function under its registry name
BASELINES = {
    "naive": compile_naive,
    "qiskit-like": compile_qiskit_like,
    "paulihedral-like": compile_paulihedral_like,
    "tket-like": compile_tket_like,
    "rustiq-like": compile_rustiq_like,
}

CHEMISTRY_LIKE_LABELS = ["XXYZ", "YZXX", "ZZZZ", "XYXY", "ZXYZ", "YYXX", "XZZY", "ZYXZ"]


def _chemistry_like_terms():
    return [
        PauliTerm.from_label(label, 0.13 * (index + 1))
        for index, label in enumerate(CHEMISTRY_LIKE_LABELS)
    ]


class TestBaselineCorrectness:
    """Every baseline must preserve the program unitary exactly."""

    @pytest.mark.parametrize("compiler", list(BASELINES.values()))
    def test_unitary_preserved_on_random_programs(self, compiler, rng):
        terms = random_pauli_terms(rng, 3, 5)
        original = synthesize_trotter_circuit(terms)
        result = compiler(terms)
        assert circuits_equivalent(original, result.circuit)

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_unitary_preserved_on_chemistry_terms(self, name):
        terms = _chemistry_like_terms()
        original = synthesize_trotter_circuit(terms)
        result = get_registry().compile(name, terms)
        assert circuits_equivalent(original, result.circuit)

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_functions_match_registry(self, name, rng):
        terms = random_pauli_terms(rng, 3, 5)
        direct = BASELINES[name](terms)
        registered = get_registry().compile(name, terms)
        assert direct.circuit == registered.circuit


class TestBaselineBehaviour:
    def test_qiskit_like_not_worse_than_naive(self, rng):
        terms = random_pauli_terms(rng, 4, 8)
        assert compile_qiskit_like(terms).cx_count() <= compile_naive(terms).cx_count()

    def test_paulihedral_like_benefits_from_commuting_terms(self):
        # Two identical commuting blocks: the mirrored trees must cancel.
        terms = [
            PauliTerm.from_label("ZZZI", 0.3),
            PauliTerm.from_label("IZZZ", 0.4),
            PauliTerm.from_label("ZZZI", 0.5),
        ]
        paulihedral = compile_paulihedral_like(terms)
        naive = compile_naive(terms)
        assert paulihedral.cx_count() < naive.cx_count()

    def test_rustiq_like_metadata(self, rng):
        terms = random_pauli_terms(rng, 3, 5)
        result = compile_rustiq_like(terms)
        assert "network_cx" in result.metadata and "frame_cx" in result.metadata

    def test_tket_like_reports_blocks(self, rng):
        terms = random_pauli_terms(rng, 3, 5)
        assert "num_blocks" in compile_tket_like(terms).metadata

    def test_metrics_keys(self, rng):
        terms = random_pauli_terms(rng, 3, 4)
        metrics = compile_naive(terms).metrics()
        assert set(metrics) == {
            "cx_count",
            "entangling_depth",
            "single_qubit_count",
            "compile_seconds",
        }


class TestEvaluationHarness:
    def test_compare_compilers_contains_all_entries(self):
        terms = _chemistry_like_terms()
        comparison = compare_compilers(terms, workload="unit-test")
        assert set(comparison.results) == {
            "QuCLEAR",
            "qiskit-like",
            "rustiq-like",
            "paulihedral-like",
            "tket-like",
        }
        assert comparison.num_paulis == len(terms)

    def test_quclear_wins_on_chemistry_like_terms(self):
        comparison = compare_compilers(_chemistry_like_terms(), workload="chemistry")
        assert comparison.best_compiler("cx_count") == "QuCLEAR"
        assert comparison.reduction_vs("qiskit-like") > 0

    def test_compare_on_benchmark(self):
        comparison = compare_on_benchmark("UCC-(2,4)", compilers=("QuCLEAR", "qiskit-like"))
        assert comparison.workload == "UCC-(2,4)"
        assert comparison.cx_counts()["QuCLEAR"] < comparison.cx_counts()["qiskit-like"]

    def test_feature_breakdown_monotone_for_chemistry(self):
        breakdown = feature_breakdown(_chemistry_like_terms())
        assert set(breakdown) == {
            "native",
            "tree_extraction",
            "commutation",
            "absorption",
            "local_optimization",
        }
        # Absorption always removes the tail, and the local pass never adds gates.
        assert breakdown["absorption"] <= breakdown["commutation"]
        assert breakdown["local_optimization"] <= breakdown["absorption"]
        assert breakdown["local_optimization"] < breakdown["native"]

    def test_local_optimization_ablation(self):
        ablation = local_optimization_ablation(_chemistry_like_terms())
        assert (
            ablation["with_local_optimization"]["cx_count"]
            <= ablation["without_local_optimization"]["cx_count"]
        )

    def test_absorption_style_detection(self):
        qaoa_terms = maxcut_qaoa_terms(regular_graph(6, 2, seed=4))
        assert absorption_style(qaoa_terms) == "probabilities"
        assert absorption_style(_chemistry_like_terms()) == "observables"

    def test_mapped_comparison(self):
        terms = maxcut_qaoa_terms(regular_graph(8, 2, seed=4))
        coupling = CouplingMap.grid(3, 3)
        comparison = compare_mapped_compilers(terms, coupling, compilers=("QuCLEAR", "qiskit-like"))
        assert set(comparison.results) == {"QuCLEAR", "qiskit-like"}
        for metrics in comparison.results.values():
            assert "swap_count" in metrics

    def test_format_table(self):
        rows = [{"name": "a", "value": 1.23456}, {"name": "b", "value": 7}]
        text = format_table(rows)
        assert "name" in text and "1.235" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"
