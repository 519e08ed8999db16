"""Partitioning of a Pauli-rotation sequence into commuting blocks.

QuCLEAR only reorders Pauli strings *inside* a block of mutually commuting
strings; the blocks themselves stay in program order.  This keeps the
optimization free of any high-level knowledge about the benchmark (unlike
Paulihedral, which also reorders blocks).

The scan runs on rows: each row's x and z bits are one Python integer each,
read straight off the packed words, and the current block keeps the OR of
its rows' x bits and of their z bits.  A row whose x bits miss the block's
z bits and whose z bits miss its x bits shares no anticommuting letter with
any row of the block, so one test admits it.  Any other row is checked
exactly, by its symplectic product with a spanning set of the block: the
rows admitted since the block began, folded to a GF(2) basis whenever more
than ``2n`` of them pile up.  A commuting block spans an isotropic subspace
of dimension at most ``n``, so the check costs at most ``2n`` products per
row however long the block grows.
"""

from __future__ import annotations

from typing import Sequence

from repro.paulis.packed import PackedPauliTable, row_ints
from repro.paulis.term import PauliTerm


def _gf2_basis(vectors: list[int]) -> list[int]:
    """A GF(2) basis of the span of ``vectors`` (bit vectors as ints)."""
    pivots: dict[int, int] = {}
    for vector in vectors:
        while vector:
            top = vector.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = vector
                break
            vector ^= pivot
    return list(pivots.values())


def _anticommutes_with_any(row: int, span: list[int]) -> bool:
    """Whether the row ``x | z << n`` anticommutes with some ``z | x << n`` of ``span``."""
    for swapped in span:
        if (row & swapped).bit_count() & 1:
            return True
    return False


def commuting_block_bounds(table: PackedPauliTable) -> list[int]:
    """Greedy commuting-block boundaries of a packed Pauli program.

    Returns the block start offsets plus the final row count, so block ``k``
    is the row range ``[bounds[k], bounds[k + 1])``.  This is the table-native
    form the extractor consumes — no term objects are materialized, and no
    bit columns are built: the scan reads one integer per row and half.
    """
    num_qubits = table.num_qubits
    x_rows, z_rows = row_ints(table.x_words), row_ints(table.z_words)
    limit = 2 * num_qubits
    bounds = [0]
    block_x = block_z = 0
    # span spans the block's rows below `spanned`, each as z | x << n; it is
    # extended only when a row needs the exact check
    span: list[int] = []
    spanned = 0
    for index, (x_row, z_row) in enumerate(zip(x_rows, z_rows)):
        if x_row & block_z or z_row & block_x:
            for other in range(spanned, index):
                span.append(z_rows[other] | x_rows[other] << num_qubits)
                if len(span) > limit:
                    span = _gf2_basis(span)
            spanned = index
            if _anticommutes_with_any(x_row | z_row << num_qubits, span):
                bounds.append(index)
                block_x = block_z = 0
                span = []
        block_x |= x_row
        block_z |= z_row
    bounds.append(len(x_rows))
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
