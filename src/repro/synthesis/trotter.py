"""Direct (unoptimized) synthesis of quantum-simulation circuits.

A quantum-simulation program is a sequence of exponentiated Pauli strings
``exp(-i t_k/2 P_k)``.  This module concatenates the V-shaped building block
of :mod:`repro.synthesis.pauli_rotation` for every term, producing the
"native" circuits whose gate counts are listed in Table II of the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import SynthesisError
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.synthesis.pauli_rotation import synthesize_pauli_rotation


def synthesize_trotter_circuit(
    terms: Sequence[PauliTerm] | SparsePauliSum,
    tree: str = "chain",
) -> QuantumCircuit:
    """Concatenate one Pauli-rotation block per term, in order."""
    term_list = list(terms)
    if not term_list:
        raise SynthesisError("cannot synthesize a circuit from zero Pauli terms")
    num_qubits = term_list[0].num_qubits
    for term in term_list:
        if term.num_qubits != num_qubits:
            raise SynthesisError("all Pauli terms must act on the same number of qubits")
    circuit = QuantumCircuit(num_qubits)
    for term in term_list:
        synthesize_pauli_rotation(term, tree=tree, into=circuit)
    return circuit


def rotation_terms_from_hamiltonian(
    hamiltonian: SparsePauliSum, time: float = 1.0, repetitions: int = 1
) -> list[PauliTerm]:
    """First-order Trotter rotation list for ``exp(-i H t)``.

    Every Hamiltonian term ``c * P`` becomes a rotation
    ``exp(-i * (2 c t / repetitions) / 2 * P)`` repeated ``repetitions`` times.
    """
    if repetitions < 1:
        raise SynthesisError("repetitions must be at least 1")
    step_terms = [
        PauliTerm(term.pauli.copy(), 2.0 * term.coefficient * time / repetitions)
        for term in hamiltonian
    ]
    rotations: list[PauliTerm] = []
    for _ in range(repetitions):
        rotations.extend(step_terms)
    return rotations


def count_native_gates(terms: Iterable[PauliTerm]) -> dict[str, int]:
    """Native gate counts of the unoptimized circuit (Table II columns)."""
    circuit = synthesize_trotter_circuit(list(terms))
    return {
        "cx": circuit.cx_count(),
        "single_qubit": circuit.single_qubit_count(),
        "total": len(circuit),
        "entangling_depth": circuit.entangling_depth(),
    }
