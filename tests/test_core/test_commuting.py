"""The row-word commuting-block scan against a pairwise symplectic check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commuting import commuting_block_bounds
from repro.paulis.packed import PackedPauliTable
from repro.paulis.pauli import PauliString


def brute_force_bounds(paulis: list[PauliString]) -> list[int]:
    """Greedy blocks from an explicit pairwise symplectic product."""
    x = np.array([pauli.x for pauli in paulis], dtype=bool).reshape(len(paulis), -1)
    z = np.array([pauli.z for pauli in paulis], dtype=bool).reshape(len(paulis), -1)
    bounds = [0]
    start = 0
    for index in range(1, len(paulis)):
        # the product of row `index` with every row of the current block
        products = (x[start:index] & z[index]) ^ (z[start:index] & x[index])
        if np.any(np.count_nonzero(products, axis=1) % 2):
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
    "num_qubits, density",
    [(1, 0.5), (2, 0.5), (5, 0.3), (12, 0.1), (64, 0.02), (65, 0.02), (70, 0.02), (130, 0.01)],
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


def pair_blocks(rng, num_qubits, blocks, rows):
    """Blocks of XX, YY and ZZ on one random pair each: they commute with
    each other, and a Z after an X in the block sends a row to the exact check."""
    paulis = []
    for _ in range(blocks):
        pair = rng.choice(num_qubits, 2, replace=False)
        for _ in range(rows):
            letter = "XYZ"[int(rng.integers(3))]
            label = ["I"] * num_qubits
            for qubit in pair:
                label[qubit] = letter
            paulis.append(PauliString.from_label("".join(label)))
    return paulis


def z_blocks_closed_by_x(rng, num_qubits, blocks, rows):
    """Z-only blocks longer than a machine word, each closed by one X."""
    paulis = []
    for _ in range(blocks):
        for _ in range(rows):
            z = rng.random(num_qubits) < 0.3
            z[int(rng.integers(num_qubits))] = True
            paulis.append(PauliString(np.zeros(num_qubits, dtype=bool), z))
        label = ["I"] * num_qubits
        label[int(rng.integers(num_qubits))] = "X"
        paulis.append(PauliString.from_label("".join(label)))
    return paulis


class TestAdversarialShapes:
    def test_identical_all_y_rows(self):
        paulis = [PauliString.from_label("Y" * 8)] * 3000
        table = PackedPauliTable.from_paulis(paulis)
        assert commuting_block_bounds(table) == brute_force_bounds(paulis) == [0, 3000]

    @pytest.mark.parametrize("num_qubits", [2, 64, 65, 130])
    def test_pair_blocks_longer_than_2n(self, rng, num_qubits):
        paulis = pair_blocks(rng, num_qubits, 4, 2 * num_qubits + 7)
        table = PackedPauliTable.from_paulis(paulis)
        assert commuting_block_bounds(table) == brute_force_bounds(paulis)

    @pytest.mark.parametrize("num_qubits", [1, 64, 65, 130])
    def test_z_blocks_closed_by_one_x(self, rng, num_qubits):
        paulis = z_blocks_closed_by_x(rng, num_qubits, 3, 70)
        table = PackedPauliTable.from_paulis(paulis)
        bounds = commuting_block_bounds(table)
        assert bounds == brute_force_bounds(paulis)
        assert len(bounds) >= 3


def test_exact_check_reads_at_most_2n_block_rows(rng, monkeypatch):
    """The exact check compares a row against a spanning set the scan folds to
    a basis, never against an unbounded list of block rows."""
    import repro.core.commuting as commuting

    compared: list[int] = []
    check = commuting._anticommutes_with_any

    def counted(row, span):
        compared.append(len(span))
        return check(row, span)

    monkeypatch.setattr(commuting, "_anticommutes_with_any", counted)
    for num_qubits, paulis in (
        (8, [PauliString.from_label("Y" * 8)] * 2000),
        (5, pair_blocks(rng, 5, 6, 200)),
        (65, pair_blocks(rng, 65, 2, 300)),
    ):
        compared.clear()
        commuting_block_bounds(PackedPauliTable.from_paulis(paulis))
        assert len(compared) > len(paulis) // 3
        assert max(compared) <= 2 * num_qubits
