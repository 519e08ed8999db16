"""Collect the paper-vs-measured data recorded in EXPERIMENTS.md.

Runs the evaluation harness over the medium benchmark tier and prints the
per-experiment numbers as markdown tables.  This is the script that produced
the tables committed in EXPERIMENTS.md; re-run it after changing the compiler
to refresh them, and update the file's header (commit, host, command):

    PYTHONPATH=src python scripts/collect_experiment_data.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.absorption import ObservableAbsorber, absorb_probabilities
from repro.core.extraction import CliffordExtractor
from repro.evaluation.breakdown import feature_breakdown, local_optimization_ablation
from repro.evaluation.comparison import compare_on_benchmark
from repro.evaluation.mapping import compare_mapped_compilers
from repro.paulis.pauli import PauliString
from repro.synthesis.trotter import synthesize_trotter_circuit
from repro.transpile.coupling import CouplingMap
from repro.workloads.registry import MEDIUM_BENCHMARKS, get_benchmark

TABLE3_BENCHMARKS = MEDIUM_BENCHMARKS
FIG11_BENCHMARKS = ["UCC-(4,8)", "H2O", "LABS-(n15)", "MaxCut-(n20, r12)"]


def table2() -> None:
    print("## Table II — benchmark inventory (measured)\n")
    print("| benchmark | qubits | #Pauli (paper) | #Pauli (measured) | #CNOT (paper) | #CNOT (measured) |")
    print("|---|---|---|---|---|---|")
    for name in TABLE3_BENCHMARKS:
        spec = get_benchmark(name)
        terms = spec.terms()
        native = synthesize_trotter_circuit(terms)
        print(
            f"| {name} | {spec.num_qubits} | {spec.paper_num_paulis} | {len(terms)} "
            f"| {spec.paper_num_cnots} | {native.cx_count()} |"
        )
    print()


def table3() -> None:
    print("## Table III — fully connected device (measured)\n")
    print("| benchmark | compiler | CNOT | entangling depth | compile time (s) |")
    print("|---|---|---|---|---|")
    for name in TABLE3_BENCHMARKS:
        comparison = compare_on_benchmark(name)
        for compiler, metrics in comparison.results.items():
            print(
                f"| {name} | {compiler} | {int(metrics['cx_count'])} "
                f"| {int(metrics['entangling_depth'])} | {metrics['compile_seconds']:.3f} |"
            )
    print()


def table4() -> None:
    print("## Table IV — Clifford absorption runtime (measured, seconds)\n")
    chem = CliffordExtractor().extract(get_benchmark("UCC-(4,8)").terms())
    qaoa = CliffordExtractor().extract(get_benchmark("MaxCut-(n20, r12)").terms())
    absorber = ObservableAbsorber(chem.conjugation)
    prob = absorb_probabilities(qaoa)
    rng = np.random.default_rng(5)
    print("| count | observables (UCC-(4,8)) | states (MaxCut-(n20, r12)) |")
    print("|---|---|---|")
    for count in [10, 50, 100, 500, 1000]:
        observables = []
        for _ in range(count):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(chem.num_qubits))
            if set(label) == {"I"}:
                label = "Z" + label[1:]
            observables.append(PauliString.from_label(label))
        start = time.perf_counter()
        absorber.absorb_all(observables)
        observable_seconds = time.perf_counter() - start

        counts = {}
        while len(counts) < count:
            bits = "".join(rng.choice(["0", "1"]) for _ in range(qaoa.num_qubits))
            counts[bits] = 1
        start = time.perf_counter()
        prob.map_counts(counts)
        state_seconds = time.perf_counter() - start
        print(f"| {count} | {observable_seconds:.4f} | {state_seconds:.4f} |")
    print()


def table4_pass_timings() -> None:
    print("## Table IV addendum — QuCLEAR per-pass compile-time breakdown (measured, seconds)\n")
    import repro
    from repro.evaluation.reporting import format_pass_timings

    result = repro.compile(get_benchmark("UCC-(4,8)").terms(), level=3)
    print("```")
    print(format_pass_timings(result.metadata["pass_timings"]))
    print("```")
    print()


def fig9() -> None:
    print("## Fig. 9 — with / without local optimization (measured CNOTs)\n")
    print("| benchmark | without local opt | with local opt |")
    print("|---|---|---|")
    for name in TABLE3_BENCHMARKS:
        ablation = local_optimization_ablation(get_benchmark(name).terms())
        print(
            f"| {name} | {int(ablation['without_local_optimization']['cx_count'])} "
            f"| {int(ablation['with_local_optimization']['cx_count'])} |"
        )
    print()


def fig10() -> None:
    print("## Fig. 10 — feature breakdown (measured CNOTs)\n")
    print("| benchmark | native | +tree extraction | +commutation | +absorption | +local opt |")
    print("|---|---|---|---|---|---|")
    for name in ["UCC-(4,8)", "MaxCut-(n20, r8)"]:
        breakdown = feature_breakdown(get_benchmark(name).terms())
        print(
            f"| {name} | {breakdown['native']} | {breakdown['tree_extraction']} "
            f"| {breakdown['commutation']} | {breakdown['absorption']} "
            f"| {breakdown['local_optimization']} |"
        )
    print()


def fig11() -> None:
    print("## Fig. 11 — mapping to limited connectivity (measured CNOTs)\n")
    print("| benchmark | device | QuCLEAR | qiskit-like | paulihedral-like | tket-like |")
    print("|---|---|---|---|---|---|")
    for device_name, factory in [("sycamore", CouplingMap.sycamore), ("ibm-manhattan", CouplingMap.ibm_manhattan)]:
        for name in FIG11_BENCHMARKS:
            comparison = compare_mapped_compilers(name, factory())
            counts = comparison.cx_counts()
            print(
                f"| {name} | {device_name} | {counts['QuCLEAR']} | {counts['qiskit-like']} "
                f"| {counts['paulihedral-like']} | {counts['tket-like']} |"
            )
    print()


if __name__ == "__main__":
    table2()
    table3()
    table4()
    table4_pass_timings()
    fig9()
    fig10()
    fig11()
