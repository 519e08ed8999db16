"""Partitioning of a Pauli-rotation sequence into commuting blocks.

QuCLEAR only reorders Pauli strings *inside* a block of mutually commuting
strings; the blocks themselves stay in program order.  This keeps the
optimization free of any high-level knowledge about the benchmark (unlike
Paulihedral, which also reorders blocks).

The scan runs on bit columns (:mod:`repro.paulis.columns`): one Python
integer per qubit whose bit ``r`` is row ``r``'s bit there.  Row ``r``
anticommutes with row ``s`` iff bit ``s`` of
``XOR_{q: x_rq} z[q]  ^  XOR_{q: z_rq} x[q]`` is set, so testing one string
against the whole current block costs O(weight) integer operations.
"""

from __future__ import annotations

from typing import Sequence

from repro.paulis.columns import bit_planes, table_bits
from repro.paulis.packed import PackedPauliTable
from repro.paulis.term import PauliTerm


def commuting_block_bounds(table: PackedPauliTable) -> list[int]:
    """Greedy commuting-block boundaries of a packed Pauli program.

    Returns the block start offsets plus the final row count, so block ``k``
    is the row range ``[bounds[k], bounds[k + 1])``.  This is the table-native
    form the extractor consumes — no term objects are materialized.  The
    table is transposed to bit columns once.
    """
    x_bits, z_bits = table_bits(table)
    x_columns, z_columns = bit_planes(x_bits.T), bit_planes(z_bits.T)
    bounds = [0]
    start = 0
    for index, (x_row, z_row) in enumerate(zip(bit_planes(x_bits), bit_planes(z_bits))):
        parity = 0
        while x_row:
            low = x_row & -x_row
            parity ^= z_columns[low.bit_length() - 1]
            x_row ^= low
        while z_row:
            low = z_row & -z_row
            parity ^= x_columns[low.bit_length() - 1]
            z_row ^= low
        # bits [start, index) are the rows of the current block
        if (parity >> start) & ((1 << (index - start)) - 1):
            bounds.append(index)
            start = index
    bounds.append(len(table))
    return bounds


def convert_commute_sets(terms: Sequence[PauliTerm]) -> list[list[PauliTerm]]:
    """Greedy split of ``terms`` into maximal runs of mutually commuting strings.

    Scanning the sequence in order, a term joins the current block when it
    commutes with every string already in the block; otherwise it starts a
    new block.  The concatenation of the returned blocks is a permutation-free
    copy of the input (order inside blocks is preserved here; reordering
    happens later during extraction).
    """
    term_list = list(terms)
    if not term_list:
        return []
    table = PackedPauliTable.from_paulis(t.pauli for t in term_list)
    bounds = commuting_block_bounds(table)
    return [term_list[a:b] for a, b in zip(bounds, bounds[1:])]


def count_commuting_blocks(terms: Sequence[PauliTerm]) -> int:
    """Number of commuting blocks the sequence splits into."""
    return len(convert_commute_sets(terms))
