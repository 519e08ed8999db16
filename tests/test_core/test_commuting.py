"""The bit-column commuting-block scan against a pairwise symplectic check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commuting import commuting_block_bounds
from repro.paulis.packed import PackedPauliTable
from repro.paulis.pauli import PauliString


def brute_force_bounds(paulis: list[PauliString]) -> list[int]:
    """Greedy blocks from an explicit pairwise symplectic product."""

    def anticommute(a: PauliString, b: PauliString) -> bool:
        x_a, z_a = a.x, a.z
        x_b, z_b = b.x, b.z
        return bool(np.count_nonzero((x_a & z_b) ^ (z_a & x_b)) % 2)

    bounds = [0]
    start = 0
    for index in range(1, len(paulis)):
        if any(anticommute(paulis[index], paulis[other]) for other in range(start, index)):
            bounds.append(index)
            start = index
    bounds.append(len(paulis))
    return bounds


def random_program(rng, num_qubits, rows, density):
    paulis = []
    for _ in range(rows):
        x = rng.random(num_qubits) < density
        z = rng.random(num_qubits) < density
        paulis.append(PauliString(x, z, int(np.count_nonzero(x & z))))
    return paulis


@pytest.mark.parametrize(
    "num_qubits, density", [(2, 0.5), (5, 0.3), (12, 0.1), (64, 0.02), (70, 0.02), (130, 0.01)]
)
def test_matches_pairwise_symplectic_check(rng, num_qubits, density):
    for _ in range(8):
        paulis = random_program(rng, num_qubits, int(rng.integers(1, 60)), density)
        table = PackedPauliTable.from_paulis(paulis)
        assert commuting_block_bounds(table) == brute_force_bounds(paulis)


def test_long_commuting_block_then_a_split(rng):
    """A block longer than a machine word, closed by one anticommuting row."""
    paulis = [PauliString.from_label("Z" * 3) for _ in range(100)]
    paulis.append(PauliString.from_label("XII"))
    paulis.append(PauliString.from_label("XIX"))
    table = PackedPauliTable.from_paulis(paulis)
    assert commuting_block_bounds(table) == [0, 100, 102]
    assert brute_force_bounds(paulis) == [0, 100, 102]


def test_empty_and_single_row():
    assert commuting_block_bounds(PackedPauliTable.zeros(0, 4)) == [0, 0]
    single = PackedPauliTable.from_paulis([PauliString.from_label("XYZ")])
    assert commuting_block_bounds(single) == [0, 1]
