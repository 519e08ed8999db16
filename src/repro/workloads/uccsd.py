"""UCCSD ansatz generator (Jordan–Wigner encoded).

The chemistry benchmarks UCC-(n_e, n_so) of the paper are UCCSD ansatz
circuits for ``n_e`` electrons in ``n_so`` spin orbitals.  Every spin-
preserving single and double excitation contributes an anti-Hermitian
generator ``T - T†`` whose Jordan–Wigner image is a sum of Pauli strings with
purely imaginary weights; Trotterizing ``exp(theta (T - T†))`` yields one
Pauli rotation per string.  The rotation angles are the variational
parameters; deterministic pseudo-random values are used so that benchmark
circuits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import WorkloadError
from repro.paulis.term import PauliTerm
from repro.workloads.fermion import anti_hermitian_excitation


@dataclass(frozen=True)
class Excitation:
    """A spin-preserving excitation from occupied to virtual spin orbitals."""

    occupied: tuple[int, ...]
    virtual: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.occupied)


def _spin_of(spin_orbital: int, num_spatial: int) -> int:
    """Block ordering: alpha spin orbitals first, then beta."""
    return 0 if spin_orbital < num_spatial else 1


def uccsd_excitations(num_electrons: int, num_spin_orbitals: int) -> list[Excitation]:
    """Spin-preserving single and double excitations (block spin ordering)."""
    if num_spin_orbitals % 2 != 0:
        raise WorkloadError("the number of spin orbitals must be even")
    if not 0 < num_electrons < num_spin_orbitals:
        raise WorkloadError("the electron count must be between 1 and the orbital count - 1")
    if num_electrons % 2 != 0:
        raise WorkloadError("only closed-shell (even electron) systems are generated")
    num_spatial = num_spin_orbitals // 2
    occupied_per_spin = num_electrons // 2
    occupied = [orbital for orbital in range(occupied_per_spin)] + [
        num_spatial + orbital for orbital in range(occupied_per_spin)
    ]
    virtual = [orbital for orbital in range(num_spin_orbitals) if orbital not in occupied]

    excitations: list[Excitation] = []
    # Singles: same spin sector.
    for occ in occupied:
        for vir in virtual:
            if _spin_of(occ, num_spatial) == _spin_of(vir, num_spatial):
                excitations.append(Excitation((occ,), (vir,)))
    # Doubles: total spin preserved.
    for index_i, occ_i in enumerate(occupied):
        for occ_j in occupied[index_i + 1 :]:
            for index_a, vir_a in enumerate(virtual):
                for vir_b in virtual[index_a + 1 :]:
                    occupied_spin = _spin_of(occ_i, num_spatial) + _spin_of(occ_j, num_spatial)
                    virtual_spin = _spin_of(vir_a, num_spatial) + _spin_of(vir_b, num_spatial)
                    if occupied_spin == virtual_spin:
                        excitations.append(Excitation((occ_i, occ_j), (vir_a, vir_b)))
    return excitations


def uccsd_ansatz_terms(
    num_electrons: int,
    num_spin_orbitals: int,
    parameters: list[complex] | None = None,
    seed: int = 7,
    complex_amplitudes: bool = True,
) -> list[PauliTerm]:
    """Pauli-rotation program of the UCCSD ansatz.

    With ``complex_amplitudes`` (the default, matching the paper's Table II
    term counts of 4 Pauli strings per single and 16 per double excitation)
    every excitation carries a complex amplitude ``t`` and the anti-Hermitian
    generator is ``t T - conj(t) T†``.  Real amplitudes halve the term count
    because the ``XX``/``YY`` style strings cancel between ``T`` and ``T†``.

    The rotation angle of a Pauli string with purely imaginary Jordan–Wigner
    weight ``i w`` is ``-2 w`` in the ``exp(-i angle/2 P)`` convention.
    """
    excitations = uccsd_excitations(num_electrons, num_spin_orbitals)
    if parameters is None:
        rng = np.random.default_rng(seed)
        magnitudes = rng.uniform(0.05, 0.5, size=len(excitations))
        if complex_amplitudes:
            phases = rng.uniform(0.0, 2.0 * np.pi, size=len(excitations))
            parameters = list(magnitudes * np.exp(1j * phases))
        else:
            parameters = list(magnitudes)
    if len(parameters) != len(excitations):
        raise WorkloadError(
            f"expected {len(excitations)} parameters, got {len(parameters)}"
        )
    terms: list[PauliTerm] = []
    for excitation, amplitude in zip(excitations, parameters):
        generator = anti_hermitian_excitation(
            excitation.virtual, excitation.occupied, num_spin_orbitals, amplitude=amplitude
        )
        # t T - conj(t) T† is anti-Hermitian, so every Pauli weight is purely
        # imaginary: exp(A) = prod_k exp(i w_k P_k)   (Trotterized).
        for pauli, coefficient in generator.items():
            if abs(coefficient.real) > 1e-10:
                raise WorkloadError("excitation generator is not anti-Hermitian")
            weight = coefficient.imag
            if abs(weight) < 1e-12:
                continue
            terms.append(PauliTerm(pauli.copy(), -2.0 * weight))
    return terms
