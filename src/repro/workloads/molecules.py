"""Synthetic molecular Hamiltonians for the Hamiltonian-simulation benchmarks.

The paper's LiH, H2O and benzene benchmarks are built from electronic-
structure integrals computed with quantum-chemistry packages that are not
available offline.  QuCLEAR's behaviour, however, depends only on the
*structure* of the Pauli strings (qubit count, weight distribution,
commutation relations), not on the physical coefficient values.  This module
therefore generates seeded synthetic Hamiltonians that mimic the
Jordan–Wigner structure of molecular Hamiltonians:

* single-qubit ``Z`` terms (orbital energies),
* ``Z Z`` pairs (Coulomb/exchange terms),
* hopping strings ``X Z..Z X`` + ``Y Z..Z Y`` between orbital pairs,
* two-electron strings of weight four mixing ``X``/``Y`` on four orbitals with
  a ``Z`` chain in between,

drawn until the published term count for each molecule is reached.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import WorkloadError
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm

#: published (qubit count, Pauli-term count) per molecule (paper Table II)
MOLECULE_SPECIFICATIONS: dict[str, tuple[int, int]] = {
    "LiH": (6, 61),
    "H2O": (8, 184),
    "benzene": (12, 1254),
}


def _hopping_string(num_qubits: int, first: int, second: int, letter: str) -> PauliString:
    """A JW hopping string: ``letter`` on the endpoints, ``Z`` chain between."""
    low, high = sorted((first, second))
    ops = [(low, letter), (high, letter)] + [(q, "Z") for q in range(low + 1, high)]
    return PauliString.from_sparse(num_qubits, ops)


def _double_excitation_string(
    num_qubits: int, orbitals: tuple[int, int, int, int], letters: tuple[str, str, str, str]
) -> PauliString:
    ops = list(zip(orbitals, letters))
    chain = [
        (q, "Z")
        for q in range(min(orbitals) + 1, max(orbitals))
        if q not in orbitals
    ]
    return PauliString.from_sparse(num_qubits, ops + chain)


def synthetic_electronic_hamiltonian(
    num_qubits: int, num_terms: int, seed: int = 2024
) -> SparsePauliSum:
    """A seeded Hamiltonian with Jordan–Wigner-like term structure."""
    if num_qubits < 2:
        raise WorkloadError("an electronic Hamiltonian needs at least two qubits")
    if num_terms < 1:
        raise WorkloadError("the Hamiltonian needs at least one term")
    target_terms = num_terms
    rng = np.random.default_rng(seed)

    seen: set[str] = set()
    terms: list[PauliTerm] = []

    def push(pauli: PauliString, scale: float) -> None:
        label = pauli.to_label(include_sign=False)
        if label in seen or pauli.is_identity():
            return
        seen.add(label)
        terms.append(PauliTerm(pauli, float(rng.normal(0.0, scale))))

    # Orbital energies and pair interactions first (always present).
    for qubit in range(num_qubits):
        push(PauliString.single(num_qubits, qubit, "Z"), 0.5)
    for first in range(num_qubits):
        for second in range(first + 1, num_qubits):
            push(
                PauliString.from_sparse(num_qubits, [(first, "Z"), (second, "Z")]), 0.25
            )
            if len(terms) >= target_terms:
                return SparsePauliSum(terms[:target_terms])

    # Hopping and double-excitation strings until the published size is reached.
    while len(terms) < target_terms:
        kind = rng.random()
        if kind < 0.4:
            first, second = sorted(rng.choice(num_qubits, size=2, replace=False))
            letter = "X" if rng.random() < 0.5 else "Y"
            push(_hopping_string(num_qubits, int(first), int(second), letter), 0.1)
        else:
            orbitals = tuple(int(q) for q in rng.choice(num_qubits, size=4, replace=False))
            letters = tuple(rng.choice(["X", "Y"], size=4))
            if list(letters).count("Y") % 2 != 0:
                # JW two-electron terms always carry an even number of Y's.
                continue
            push(_double_excitation_string(num_qubits, orbitals, letters), 0.05)
    return SparsePauliSum(terms[:target_terms])


def molecular_hamiltonian(
    molecule: str, seed: int = 2024, num_terms: int | None = None
) -> SparsePauliSum:
    """A synthetic molecular Hamiltonian with the published size for ``molecule``."""
    if molecule not in MOLECULE_SPECIFICATIONS:
        raise WorkloadError(
            f"unknown molecule {molecule!r}; choose one of {sorted(MOLECULE_SPECIFICATIONS)}"
        )
    num_qubits, published_terms = MOLECULE_SPECIFICATIONS[molecule]
    target_terms = num_terms if num_terms is not None else published_terms
    return synthetic_electronic_hamiltonian(num_qubits, target_terms, seed=seed)


def hamiltonian_simulation_terms(
    molecule: str, time: float = 1.0, seed: int = 2024
) -> list[PauliTerm]:
    """Rotation program for one Trotter step of ``exp(-i H t)``."""
    from repro.synthesis.trotter import rotation_terms_from_hamiltonian

    hamiltonian = molecular_hamiltonian(molecule, seed=seed)
    return rotation_terms_from_hamiltonian(hamiltonian, time=time)
