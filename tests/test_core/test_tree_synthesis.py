"""Differential tests: the column-mask tree against the callable-guided oracle.

:func:`~repro.core.tree_synthesis.synthesize_tree_on_columns` (the tree the
extractor runs) must emit exactly the gates and root that
:func:`~repro.core.tree_synthesis.synthesize_tree` emits when its lookahead
hands out the same guide rows one depth at a time.  The guide sequence is
built the way the extractor builds it: the chosen next row of the block,
the block's other waiting rows in ascending order, then the later blocks.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.tree_synthesis import (
    CxGates,
    synthesize_tree,
    synthesize_tree_on_columns,
)
from repro.exceptions import SynthesisError

_LETTERS = ("I", "X", "Z", "Y")  # indexed by x_bit | (z_bit << 1)

RECURSIVE = (True, False)
MAX_DEPTHS = (None, 0, 1, 2, 3, 6)
CROSS_BLOCK = (True, False)


class _RowGuide:
    """The ``letter`` protocol of a lookahead guide, over one column-table row."""

    def __init__(self, x_columns, z_columns, row):
        self.x_columns, self.z_columns, self.row = x_columns, z_columns, row

    def letter(self, qubit: int) -> str:
        x_bit = (self.x_columns[qubit] >> self.row) & 1
        z_bit = (self.z_columns[qubit] >> self.row) & 1
        return _LETTERS[x_bit | (z_bit << 1)]


def _oracle(support, x_columns, z_columns, sequence, recursive, max_depth):
    def lookahead(depth):
        if depth < len(sequence):
            return _RowGuide(x_columns, z_columns, sequence[depth])
        return None

    return synthesize_tree(support, lookahead, recursive=recursive, max_depth=max_depth)


def _random_columns(rng, num_qubits, num_rows):
    """Columns of random rows, many of them near-copies of an earlier row.

    Near-copies make groups agree on runs of guides, so the skip to the
    first splitting row is exercised.  Bits above ``num_rows`` stand in for
    the tableau generator rows and must never be read.
    """
    rows = []
    for index in range(num_rows):
        if rows and rng.random() < 0.4:
            letters = list(rows[int(rng.integers(index))])
            for qubit in rng.choice(num_qubits, size=int(rng.integers(0, 3)), replace=True):
                letters[int(qubit)] = int(rng.integers(4))
        else:
            density = rng.uniform(0.1, 0.9)
            letters = [
                int(rng.integers(1, 4)) if rng.random() < density else 0
                for _ in range(num_qubits)
            ]
        rows.append(letters)
    x_columns, z_columns = [], []
    for qubit in range(num_qubits):
        x = z = 0
        for row, letters in enumerate(rows):
            x |= (letters[qubit] & 1) << row
            z |= (letters[qubit] >> 1) << row
        noise = int(rng.integers(1 << 30))
        x_columns.append(x | noise << num_rows)
        z_columns.append(z | (noise ^ 0x2AAAAAAA) << num_rows)
    return x_columns, z_columns


def _random_case(rng):
    """A column table, a block state as the extractor keeps it, and a support."""
    num_qubits = int(rng.integers(2, 71))
    num_rows = int(rng.integers(2, 40))
    x_columns, z_columns = _random_columns(rng, num_qubits, num_rows)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, num_rows), size=int(rng.integers(0, 4))))
    bounds = sorted({0, *cuts, num_rows})
    block = int(rng.integers(len(bounds) - 1))
    block_start, block_end = bounds[block], bounds[block + 1]
    # rows of the block not yet emitted: any subset; the next row is any of them
    waiting = [row for row in range(block_start, block_end) if rng.random() < 0.7]
    first_row = int(rng.choice(waiting)) if waiting else -1
    rest = [row for row in waiting if row != first_row]
    support_size = int(rng.integers(1, num_qubits + 1))
    support = sorted(int(q) for q in rng.choice(num_qubits, size=support_size, replace=False))
    return x_columns, z_columns, block_end, num_rows, first_row, rest, support


def _sequence_and_masks(first_row, rest, block_end, num_rows, cross_block):
    later_rows = list(rest) + (list(range(block_end, num_rows)) if cross_block else [])
    sequence = ([first_row] if first_row >= 0 else []) + later_rows
    mask = 0
    for row in later_rows:
        mask |= 1 << row
    return sequence, mask


def test_matches_callable_oracle_on_random_tables(rng):
    cx_gates = CxGates()
    for _ in range(150):
        x_columns, z_columns, block_end, num_rows, first_row, rest, support = _random_case(rng)
        for recursive, max_depth, cross_block in itertools.product(
            RECURSIVE, MAX_DEPTHS, CROSS_BLOCK
        ):
            sequence, later_rows = _sequence_and_masks(
                first_row, rest, block_end, num_rows, cross_block
            )
            expected = _oracle(support, x_columns, z_columns, sequence, recursive, max_depth)
            got = synthesize_tree_on_columns(
                support, x_columns, z_columns, first_row, later_rows,
                recursive, max_depth, cx_gates,
            )
            assert got == expected, (support, sequence, recursive, max_depth)


def test_split_at_first_row_continues_from_lowest_waiting_row():
    """After the chosen next row, sub-groups are guided by the lowest waiting row.

    The chosen row 5 splits {q0, q1} (Z) from q2 (X).  The waiting rows are 2
    and 7: row 2 orders {q0, q1} as X then Z, row 7 the other way round.
    Guides that skipped the rows below the chosen one would use row 7.
    """
    letters = {  # row -> letters on q0, q1, q2
        2: "XZI",
        5: "ZZX",
        7: "ZXI",
    }
    x_columns = [0, 0, 0]
    z_columns = [0, 0, 0]
    for row, word in letters.items():
        for qubit, letter in enumerate(word):
            x_columns[qubit] |= (letter in "XY") << row
            z_columns[qubit] |= (letter in "ZY") << row
    support = [0, 1, 2]
    later_rows = (1 << 2) | (1 << 7)

    gates, root = synthesize_tree_on_columns(support, x_columns, z_columns, 5, later_rows)
    expected = _oracle(support, x_columns, z_columns, [5, 2, 7], True, None)
    assert (gates, root) == expected
    assert [gate.qubits for gate in gates] == [(1, 0), (0, 2)]
    assert root == 2
    skipping = _oracle(support, x_columns, z_columns, [5, 7], True, None)
    assert skipping != expected


def test_no_guides_gives_a_chain():
    x_columns = [0b1, 0b0, 0b1]
    z_columns = [0b0, 0b1, 0b1]
    gates, root = synthesize_tree_on_columns([0, 1, 2], x_columns, z_columns, -1, 0)
    assert [gate.qubits for gate in gates] == [(0, 1), (1, 2)]
    assert root == 2


def test_single_qubit_and_empty_supports():
    assert synthesize_tree_on_columns([4], [0] * 5, [0] * 5, 0, 0) == ([], 4)
    with pytest.raises(SynthesisError):
        synthesize_tree_on_columns([], [0], [0], 0, 0)


def test_cx_table_interns_gates():
    cx_gates = CxGates()
    assert cx_gates[0, 1] is cx_gates[0, 1]
    assert cx_gates[0, 1].qubits == (0, 1)
