"""The packed numpy kernels against a pure-Python-int reference.

The reference below shares no code with :mod:`repro.paulis.packed`: each row
is a pair of Python ints ``x`` / ``z`` (bit ``q`` = qubit ``q``, no words, no
numpy) plus a phase exponent of ``i`` modulo 4, and every gate rule is written
out per row.  Registers of 3, 64, 70 and 129 qubits put qubits inside one
word, exactly on a word boundary and across two and three words, where a
shift or word-index slip in the vectorized kernels would show.

The reference's own rules are pinned to :mod:`repro.clifford.conjugation`,
the ground truth of the packed engine, by ``test_oracle_matches_conjugation``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.circuits.gate import Gate
from repro.clifford.conjugation import conjugate_pauli_by_gate
from repro.clifford.engine import PackedConjugator
from repro.exceptions import CliffordError
from repro.paulis.packed import PackedPauliTable, apply_gate_to_words, pack_bits

from tests.conftest import random_clifford_circuit, random_pauli, random_pauli_terms

REGISTERS = [3, 64, 70, 129]
GATES_1Q = ["i", "h", "s", "sdg", "sx", "sxdg", "x", "y", "z"]
GATES_2Q = ["cx", "cz", "swap"]
INVERSES = {"s": "sdg", "sdg": "s", "sx": "sxdg", "sxdg": "sx"}


# ---------------------------------------------------------------------- #
# The Python-int reference
# ---------------------------------------------------------------------- #
def oracle_rows(table: PackedPauliTable) -> list[list[int]]:
    """``[x, z, phase]`` per row, with ``x`` / ``z`` as Python ints."""
    rows = []
    for index in range(table.num_rows):
        x = sum(int(word) << (64 * k) for k, word in enumerate(table.x_words[index]))
        z = sum(int(word) << (64 * k) for k, word in enumerate(table.z_words[index]))
        rows.append([x, z, int(table.phases[index]) % 4])
    return rows


def _bit(value: int, qubit: int) -> int:
    return (value >> qubit) & 1


def oracle_apply_gate(row: list[int], gate: Gate) -> None:
    """``row -> g row g†`` in place, in the explicit-phase convention."""
    x, z, phase = row
    name = gate.name
    if name in GATES_2Q:
        a, b = gate.qubits
        xa, xb, za, zb = _bit(x, a), _bit(x, b), _bit(z, a), _bit(z, b)
        if name == "cx":
            x ^= xa << b
            z ^= zb << a
        elif name == "cz":
            phase += 2 * (xa & xb)
            z ^= (xb << a) ^ (xa << b)
        else:
            x ^= (xa ^ xb) * ((1 << a) | (1 << b))
            z ^= (za ^ zb) * ((1 << a) | (1 << b))
    else:
        (q,) = gate.qubits
        xq, zq = _bit(x, q), _bit(z, q)
        if name == "h":
            phase += 2 * (xq & zq)
            x ^= (xq ^ zq) << q
            z ^= (xq ^ zq) << q
        elif name in ("s", "sdg"):
            phase += xq if name == "s" else 3 * xq
            z ^= xq << q
        elif name in ("sx", "sxdg"):
            phase += 3 * zq if name == "sx" else zq
            x ^= zq << q
        elif name == "x":
            phase += 2 * zq
        elif name == "y":
            phase += 2 * (xq ^ zq)
        elif name == "z":
            phase += 2 * xq
        elif name != "i":
            raise ValueError(f"no reference rule for {name!r}")
    row[:] = [x, z, phase % 4]


def oracle_apply_basis_layer(row: list[int], y_mask: int, h_mask: int, num_qubits: int) -> None:
    """``sdg`` on every ``y_mask`` qubit, then ``h`` on every ``h_mask`` qubit."""
    for qubit in range(num_qubits):
        if _bit(y_mask, qubit):
            oracle_apply_gate(row, Gate("sdg", (qubit,)))
    for qubit in range(num_qubits):
        if _bit(h_mask, qubit):
            oracle_apply_gate(row, Gate("h", (qubit,)))


def assert_matches_oracle(table: PackedPauliTable, rows: list[list[int]], context="") -> None:
    __tracebackhide__ = True
    assert oracle_rows(table) == rows, context


def _words(value: int, num_qubits: int) -> np.ndarray:
    bits = np.array([_bit(value, q) for q in range(num_qubits)], dtype=bool)
    return pack_bits(bits)


def random_table(rng, num_qubits: int, num_rows: int = 12) -> PackedPauliTable:
    return PackedPauliTable.from_paulis(random_pauli(rng, num_qubits) for _ in range(num_rows))


# ---------------------------------------------------------------------- #
# The kernels against the reference
# ---------------------------------------------------------------------- #
def test_oracle_matches_conjugation(rng):
    for name in GATES_1Q + GATES_2Q:
        pauli = random_pauli(rng, 5)
        qubits = (1, 3) if name in GATES_2Q else (3,)
        gate = Gate(name, qubits)
        (row,) = oracle_rows(PackedPauliTable.from_paulis([pauli]))
        oracle_apply_gate(row, gate)
        expected = oracle_rows(PackedPauliTable.from_paulis([conjugate_pauli_by_gate(pauli, gate)]))
        assert [row] == expected, name


@pytest.mark.parametrize("num_qubits", REGISTERS)
def test_apply_gate_matches_oracle(rng, num_qubits):
    table = random_table(rng, num_qubits)
    rows = oracle_rows(table)
    top = num_qubits - 1
    for name in GATES_1Q:
        for qubit in sorted({0, top // 2, top}):
            gate = Gate(name, (qubit,))
            table.apply_gate(gate)
            for row in rows:
                oracle_apply_gate(row, gate)
            assert_matches_oracle(table, rows, gate)
    for name in GATES_2Q:
        for pair in [(0, top), (top, 0), (top // 2, top)]:
            if pair[0] == pair[1]:
                continue
            gate = Gate(name, pair)
            table.apply_gate(gate)
            for row in rows:
                oracle_apply_gate(row, gate)
            assert_matches_oracle(table, rows, gate)


@pytest.mark.parametrize("num_qubits", REGISTERS)
@pytest.mark.parametrize("name", GATES_1Q + GATES_2Q)
def test_gate_kernel_matches_oracle(rng, name, num_qubits):
    """One raw word kernel on row-slice views, at the low, word-edge and top qubits."""
    table = random_table(rng, num_qubits)
    rows = oracle_rows(table)
    top = num_qubits - 1
    edges = sorted({q for q in (0, 63, 64, top) if q <= top})
    if name in GATES_2Q:
        placements = [(a, b) for a in edges for b in edges if a != b]
    else:
        placements = [(q,) for q in edges]
    x_words, z_words, phases = table.x_words, table.z_words, table.phases
    for qubits in placements:
        gate = Gate(name, qubits)
        apply_gate_to_words(x_words[2:], z_words[2:], phases[2:], gate)
        for row in rows[2:]:
            oracle_apply_gate(row, gate)
        assert_matches_oracle(table, rows, gate)


def test_gate_kernel_rejects_non_clifford(rng):
    table = random_table(rng, 3, num_rows=2)
    before = oracle_rows(table)
    with pytest.raises(CliffordError, match="'rz'"):
        apply_gate_to_words(table.x_words, table.z_words, table.phases, Gate("rz", (1,), (0.5,)))
    assert oracle_rows(table) == before


@pytest.mark.parametrize("num_qubits", REGISTERS)
def test_apply_basis_layer_matches_oracle(rng, num_qubits):
    table = random_table(rng, num_qubits)
    rows = oracle_rows(table)
    for _ in range(4):
        current = random_pauli(rng, num_qubits)
        (x, z, _) = oracle_rows(PackedPauliTable.from_paulis([current]))[0]
        y_mask, h_mask = x & z, x
        table.apply_basis_layer(_words(y_mask, num_qubits), _words(h_mask, num_qubits), start=2)
        for row in rows[2:]:
            oracle_apply_basis_layer(row, y_mask, h_mask, num_qubits)
        assert_matches_oracle(table, rows)


@pytest.mark.parametrize("num_qubits", REGISTERS)
def test_conjugate_table_matches_oracle(rng, num_qubits):
    circuit = random_clifford_circuit(rng, num_qubits, 60)
    table = random_table(rng, num_qubits)
    rows = oracle_rows(table)
    for gate in circuit:
        for row in rows:
            oracle_apply_gate(row, gate)
    conjugated = PackedConjugator.from_circuit(circuit).conjugate_table(table)
    assert_matches_oracle(conjugated, rows)


@pytest.mark.parametrize("num_qubits", REGISTERS)
def test_apply_gates_suffix_and_circuit_match_oracle(rng, num_qubits):
    circuit = random_clifford_circuit(rng, num_qubits, 40)
    gates = list(circuit)
    table = random_table(rng, num_qubits)
    rows = oracle_rows(table)
    table.apply_gates(gates, start=3, stop=9)
    for row in rows[3:9]:
        for gate in gates:
            oracle_apply_gate(row, gate)
    assert_matches_oracle(table, rows, "apply_gates")
    table.apply_circuit(circuit)
    for row in rows:
        for gate in gates:
            oracle_apply_gate(row, gate)
    assert_matches_oracle(table, rows, "apply_circuit")


@pytest.mark.parametrize("num_qubits", REGISTERS)
def test_row_metrics_match_oracle(rng, num_qubits):
    table = random_table(rng, num_qubits, num_rows=16)
    rows = oracle_rows(table)
    weights = [(x | z).bit_count() for x, z, _ in rows]
    num_y = [(x & z).bit_count() for x, z, _ in rows]
    assert table.weights().tolist() == weights
    assert table.weights(4, 11).tolist() == weights[4:11]
    assert table.argsort_weights().tolist() == sorted(range(len(rows)), key=weights.__getitem__)
    assert table.num_y().tolist() == num_y
    signs = [(phase - y) % 4 for (_, _, phase), y in zip(rows, num_y)]
    assert table.signs().tolist() == signs
    assert table.hermitian_mask().tolist() == [sign % 2 == 0 for sign in signs]
    assert oracle_rows(table.bare()) == [[x, z, y % 4] for (x, z, _), y in zip(rows, num_y)]
    keys = [table.row_key(index) for index in range(len(rows))]
    for i, (xi, zi, _) in enumerate(rows):
        for j, (xj, zj, _) in enumerate(rows):
            assert (keys[i] == keys[j]) == ((xi, zi) == (xj, zj))


@pytest.mark.parametrize("num_qubits", [3, 66])
@pytest.mark.parametrize("level", [2, 3])
def test_extracted_conjugation_matches_oracle(rng, level, num_qubits):
    """A compile's frozen map is ``P -> U_CL† P U_CL`` for its extracted tail."""
    result = repro.compile(random_pauli_terms(rng, num_qubits, 16), level=level)
    tableau = result.extraction.conjugation
    assert isinstance(tableau.packed_rows().x_words, np.ndarray)
    assert tableau.packed_rows().x_words.dtype == np.uint64
    table = random_table(rng, num_qubits)
    rows = oracle_rows(table)
    for gate in reversed(list(result.extracted_clifford)):
        inverse = Gate(INVERSES.get(gate.name, gate.name), gate.qubits)
        for row in rows:
            oracle_apply_gate(row, inverse)
    assert_matches_oracle(tableau.conjugate_table(table), rows, "tableau")
    conjugator = PackedConjugator.from_tableau(tableau)
    assert_matches_oracle(conjugator.conjugate_table(table), rows, "conjugator")
