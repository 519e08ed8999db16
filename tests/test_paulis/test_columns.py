"""Column-major Pauli tables against the row-major packed engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.gate import Gate
from repro.exceptions import CliffordError
from repro.paulis.columns import PauliColumns, bit_planes
from repro.paulis.packed import PackedPauliTable

from tests.conftest import random_clifford_circuit, random_pauli


def random_table(rng, num_qubits, rows):
    return PackedPauliTable.from_paulis(random_pauli(rng, num_qubits) for _ in range(rows))


def assert_same_rows(columns: PauliColumns, table: PackedPauliTable) -> None:
    back = columns.to_table()
    assert np.array_equal(back.x_words, table.x_words)
    assert np.array_equal(back.z_words, table.z_words)
    assert np.array_equal(back.phases % 4, table.phases % 4)


class TestConversion:
    @pytest.mark.parametrize("num_qubits", [1, 5, 64, 65, 130])
    def test_round_trip(self, rng, num_qubits):
        table = random_table(rng, num_qubits, 11)
        columns = PauliColumns.from_table(table)
        assert columns.num_rows == 11
        assert_same_rows(columns, table)
        for index in range(11):
            assert columns.row(index) == table.row(index)
            assert columns.phase(index) == int(table.phases[index]) % 4

    def test_generator_rows_ride_on_top(self, rng):
        table = random_table(rng, 3, 4)
        columns = PauliColumns.from_table(table, generator_rows=True)
        assert columns.num_rows == 4 + 6
        generators = columns.to_table(4, 10).to_paulis()
        labels = [p.to_label() for p in generators]
        assert labels == ["IIX", "IIZ", "IXI", "IZI", "XII", "ZII"]

    @pytest.mark.parametrize("num_qubits", [3, 70])
    def test_drop_rows_keeps_the_rest_in_place(self, rng, num_qubits):
        table = random_table(rng, num_qubits, 300)
        columns = PauliColumns.from_table(table)
        x_columns = columns.x
        columns.drop_rows(257)
        assert columns.x is x_columns and columns.num_rows == 43
        assert_same_rows(columns, table.select(np.arange(257, 300)))

    def test_empty_table(self):
        columns = PauliColumns.from_table(PackedPauliTable.zeros(0, 3))
        assert columns.num_rows == 0
        assert columns.to_table().num_rows == 0

    def test_bit_planes_pack_each_row(self):
        bits = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 1]], dtype=bool)
        assert bit_planes(bits) == [0b101, 0, 0b110]


class TestGateStreaming:
    @pytest.mark.parametrize("num_qubits", [2, 7, 66])
    def test_matches_packed_apply_gates(self, rng, num_qubits):
        for _ in range(5):
            table = random_table(rng, num_qubits, 9)
            circuit = random_clifford_circuit(rng, num_qubits, 40)
            columns = PauliColumns.from_table(table)
            columns.apply_gates(list(circuit))
            table.apply_gates(list(circuit))
            assert_same_rows(columns, table)

    def test_every_gate_kind(self, rng):
        gates = [Gate(name, (1,)) for name in ("i", "h", "s", "sdg", "sx", "sxdg", "x", "y", "z")]
        gates += [Gate(name, (2, 0)) for name in ("cx", "cz", "swap")]
        for gate in gates:
            table = random_table(rng, 3, 16)
            columns = PauliColumns.from_table(table)
            columns.apply_gates([gate])
            table.apply_gates([gate])
            assert_same_rows(columns, table)

    @pytest.mark.parametrize("start, stop", [(0, 4), (3, None), (2, 7), (5, 5)])
    def test_row_range_leaves_other_rows_alone(self, rng, start, stop):
        table = random_table(rng, 6, 9)
        circuit = random_clifford_circuit(rng, 6, 30)
        columns = PauliColumns.from_table(table)
        columns.apply_gates(list(circuit), start=start, stop=stop)
        table.apply_gates(list(circuit), start=start, stop=stop)
        assert_same_rows(columns, table)

    def test_columns_are_mutated_in_place(self, rng):
        columns = PauliColumns.from_table(random_table(rng, 4, 5))
        x_columns = columns.x
        columns.apply_gates([Gate("cx", (0, 1)), Gate("h", (2,))], start=1)
        assert columns.x is x_columns

    def test_rejects_non_clifford_gates(self, rng):
        columns = PauliColumns.from_table(random_table(rng, 2, 3))
        with pytest.raises(CliffordError):
            columns.apply_gates([Gate("rz", (0,), (0.3,))])
