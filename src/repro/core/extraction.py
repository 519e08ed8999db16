"""Clifford Extraction (Algorithm 2 of the paper), on bit columns.

The extractor walks the Pauli-rotation program term by term.  For every term
it synthesizes only the *left* half of the usual V-shaped block (basis-change
layer, CNOT parity tree, ``Rz`` on the root); the mirrored right half — a
Clifford — is never emitted.  Instead its effect is pushed through the rest of
the program by conjugating every later Pauli string, and the accumulated
Clifford tail is returned separately so that Clifford Absorption can dispose
of it classically.

The pass runs on a column-major table
(:class:`~repro.paulis.columns.PauliColumns`): one Python integer per qubit
and symplectic half whose bit ``r`` belongs to row ``base + r``, with the
``2n`` tableau generator rows riding in the top bits.  Every emitted gate is
a few big-integer operations that conjugate all rows at once (a CX is two
XORs).  ``base`` starts at 0; once more than :data:`REBASE_ROWS` rows below
the lowest row still to be emitted are dead, the columns drop them and
``base`` grows, so gates stop paying for rows nobody reads.  Coefficients,
merge chains and the tableau slice use absolute rows ``base + r``.  The
input is transposed to columns once, and the per-term loop reads everything
else off the same integers:

* the term's support, basis-change layer, Hermiticity and root checks are
  mask tests against its row's bit, with the layer's gates taken from
  per-compile tables (no :class:`~repro.circuits.gate.Gate` is built per
  term except the rotation);
* in-block reordering never moves a row: a commuting block's rows still
  waiting are a bit mask, and the row chosen to go next is emitted right
  after, so the rest always stay in ascending row order;
* that makes the tree's guide sequence (the chosen next row, the other
  waiting rows, then the later blocks) one row plus one mask, and the tree
  (:func:`~repro.core.tree_synthesis.synthesize_tree_on_columns`) jumps
  straight to the first guide row on which a group of qubits splits;
* the selection's bit-sliced count of each waiting row's off-support
  letters is kept across a block's terms and updated only for the qubits
  that joined or left the support.

Rotation merging happens here too: the only local rewrite left on the
emission is folding a term conjugated to a lone ``±Z`` into the ``Rz`` still
open on its wire (no basis gate or CNOT target on it since).  A folded term
joins that rotation's chain of ``(row, sign)`` entries, and the angles are
summed with the streaming peephole's arithmetic, so the circuit is
gate-for-gate what :class:`~repro.transpile.wire_optimizer.GateStreamOptimizer`
makes of the unmerged emission.  A sum in the ``1e-12`` kill window streams
the unmerged emission instead: deleting a rotation can expose cancellations.

The original per-term loop is preserved in
:mod:`repro.core.extraction_legacy` as the ground truth the equivalence tests
diff bit-for-bit (against the unmerged emission).

The equivalence maintained throughout is::

    original_circuit  ==  optimized_circuit  followed by  extracted_clifford

which the test-suite checks against dense statevector simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate, cached_gate, trusted_gate
from repro.clifford.engine import stream_gates_over_suffix
from repro.clifford.tableau import CliffordTableau
from repro.core.commuting import commuting_block_bounds
from repro.core.tree_synthesis import CxGates, chain_tree_cost
# imported under the stage name the hot path (and the perfbench probes) use
from repro.core.tree_synthesis import synthesize_tree_on_columns as synthesize_tree
from repro.exceptions import SynthesisError
from repro.paulis.columns import PauliColumns
from repro.paulis.packed import PackedPauliTable, apply_gate_to_words
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.transpile.wire_optimizer import _TWO_PI, _ZERO_EPS, GateStreamOptimizer, merged_angles

#: integer counters recorded in ``ExtractionResult.metadata["stage_counters"]``
STAGE_COUNTERS = (
    "rotations", "basis_gates", "tree_cx", "candidates_scored", "rows_moved", "rotations_merged"
)

#: dead rows (below the lowest row still to be emitted) the columns may carry
#: before they are shifted out
REBASE_ROWS = 256

@dataclass
class ExtractionResult:
    """Output of a Clifford Extraction pass.

    Attributes
    ----------
    optimized_circuit:
        The circuit ``U'`` that still has to run on quantum hardware.
    extracted_clifford:
        The Clifford tail ``U_CL`` (in time order) such that the original
        program equals ``optimized_circuit`` followed by ``extracted_clifford``.
    conjugation:
        The tableau of the map ``P -> U_CL† P U_CL`` — exactly the map that
        Clifford Absorption applies to measurement observables.
    terms:
        The input rotation terms, unchanged.
    rotation_count:
        Number of non-identity terms rotated, folded ones included.
    elapsed_seconds:
        Wall-clock time of the pass, from the column transpose on.
    stage_seconds:
        That time split into ``transpose`` (program to bit columns),
        ``term_loop`` (every term's basis layer, selection, tree and
        rotation) and ``tail`` (the Clifford tail and the tableau).  The
        clock is read per pass, never per term.
    metadata:
        Pass flags, ``pre_optimization_cx`` (the CNOT count before any
        rewriting) and ``stage_counters``: integer counts of the rotations,
        basis-change gates and tree CNOTs emitted, the candidates whose cost
        the in-block selection evaluated, the rows it moved, and the
        rotations folded into an earlier ``Rz`` (``rotations_merged``).
    """

    optimized_circuit: QuantumCircuit
    extracted_clifford: QuantumCircuit
    conjugation: CliffordTableau
    terms: list[PauliTerm]
    rotation_count: int = 0
    elapsed_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)

    @property
    def num_qubits(self) -> int:
        return self.optimized_circuit.num_qubits


class RotationMerges(NamedTuple):
    """Where one extraction folded rotations.

    ``gates`` is the emission without the folded rotations; ``gates[positions[k]]``
    carries the raw angle of the first ``(row, sign)`` entry of ``chains[k]``.
    ``folded`` holds each folded rotation and the index of ``gates`` it was
    emitted before; ``dirty`` the chains whose angle needs summing or
    normalizing (a chain may repeat).
    """

    num_qubits: int
    gates: list[Gate]
    positions: list[int]
    chains: list[list[tuple[int, float]]]
    folded: list[tuple[int, Gate]]
    dirty: list[int]
    coefficients: np.ndarray

    def unmerged_gates(self) -> list[Gate]:
        """The emission with every folded rotation back in its place."""
        gates = self.gates.copy()
        for position, rotation in reversed(self.folded):
            gates.insert(position, rotation)
        return gates

    def realize(self) -> QuantumCircuit:
        """The circuit that runs: every chain's angle summed and normalized."""
        gates = self.gates.copy() if self.dirty else self.gates
        angles = merged_angles([self.chains[k] for k in self.dirty], self.coefficients)
        if angles is None:
            gates = GateStreamOptimizer(self.num_qubits).extend(self.unmerged_gates()).gates()
        else:
            for chain, angle in zip(self.dirty, angles):
                position = self.positions[chain]
                gates[position] = trusted_gate("rz", gates[position].qubits, (angle,))
        return QuantumCircuit.from_trusted_gates(self.num_qubits, gates)


class _OffSupportCount:
    """Bit-sliced count of each waiting row's letters off the support, kept
    across the selections of one commuting block.

    ``digits[k]`` holds bit ``k`` of every row's count (row ``r`` at bit
    ``r``), summed over the qubits outside the support of the last
    :meth:`update`.  ``added[q]`` is the column qubit ``q`` contributed
    (``None`` while it is not counted), so an update subtracts exactly that
    for the qubits that joined the support and adds the current column of
    the qubits that left it; every other qubit's column still holds.  Between
    two selections of a block only the last term's tree runs CNOTs, on that
    term's support, which is not counted; a basis layer's single-qubit gates
    move a letter among X, Y and Z but never to or from I.  A new block
    starts a new count, and a rebase shifts it with the columns.
    """

    __slots__ = ("digits", "added", "uncounted")

    def __init__(self, num_qubits: int):
        self.digits: list[int] = []
        self.added: list[int | None] = [None] * num_qubits
        self.uncounted: Sequence[int] = range(num_qubits)

    def update(
        self, x_columns: list[int], z_columns: list[int], candidates: int, support: list[int]
    ) -> list[int]:
        """The count over the qubits outside ``support``, for the ``candidates`` rows."""
        digits, added = self.digits, self.added
        for qubit in support:
            borrow = added[qubit]
            if borrow is not None:
                added[qubit] = None
                for place, digit in enumerate(digits):
                    if not borrow:
                        break
                    digits[place] = digit ^ borrow
                    borrow &= ~digit
        in_support = set(support)
        for qubit in self.uncounted:
            if qubit in in_support:
                continue
            carry = (x_columns[qubit] | z_columns[qubit]) & candidates
            added[qubit] = carry
            for place, digit in enumerate(digits):
                if not carry:
                    break
                digits[place] = digit ^ carry
                carry &= digit
            if carry:
                digits.append(carry)
        self.uncounted = support
        while digits and not digits[-1]:
            digits.pop()
        return digits

    def shift(self, dead: int) -> None:
        """Follow :meth:`PauliColumns.drop_rows`: row ``dead + r`` becomes row ``r``."""
        self.digits[:] = [digit >> dead for digit in self.digits]
        self.added[:] = [None if column is None else column >> dead for column in self.added]


def _conjugate_through_gates(pauli: PauliString, gates: Sequence[Gate]) -> PauliString:
    """Apply ``P -> g P g†`` for each gate in order, on the packed words."""
    x_words = pauli.x_words.reshape(1, -1).copy()
    z_words = pauli.z_words.reshape(1, -1).copy()
    phase = np.array([pauli.phase], dtype=np.int64)
    for gate in gates:
        apply_gate_to_words(x_words, z_words, phase, gate)
    return PauliString.from_words(
        pauli.num_qubits, x_words[0], z_words[0], int(phase[0]) % 4
    )


def _resolve_block_bounds(
    table: PackedPauliTable,
    blocks: list[list[PauliTerm]] | None,
    block_bounds: Sequence[int] | None,
) -> list[int]:
    """Block boundaries as row offsets (``bounds[k] .. bounds[k+1]``)."""
    if block_bounds is not None:
        bounds = [int(b) for b in block_bounds]
        if bounds[0] != 0 or bounds[-1] != len(table):
            raise SynthesisError(
                f"block bounds {bounds[0]}..{bounds[-1]} do not span the "
                f"{len(table)}-row program"
            )
        return bounds
    if blocks is not None:
        bounds = [0]
        for block in blocks:
            bounds.append(bounds[-1] + len(block))
        if bounds[-1] != len(table):
            raise SynthesisError(
                f"blocks hold {bounds[-1]} terms, program has {len(table)} rows"
            )
        return bounds
    return commuting_block_bounds(table)


class CliffordExtractor:
    """Clifford Extraction with the recursive CNOT-tree heuristic.

    The pass is table-native: it accepts either a sequence of
    :class:`~repro.paulis.term.PauliTerm` or a whole
    :class:`~repro.paulis.sum.SparsePauliSum` (whose packed store is consumed
    directly, no term materialization on the hot path) and produces output
    bit-identical to
    :class:`~repro.core.extraction_legacy.LegacyCliffordExtractor`.

    Parameters
    ----------
    reorder_within_blocks:
        Enable the ``find_next_pauli`` greedy reordering inside commuting
        blocks (the "commutation" feature of the paper's Fig. 10).
    recursive_tree:
        Use the recursive tree-synthesis heuristic; when ``False`` the
        sub-trees degenerate to chains guided only by the immediately
        following Pauli.
    cross_block_lookahead:
        Allow the tree of the last string in a block to be guided by strings
        of later blocks (the block order itself is never changed).
    max_lookahead:
        Optional cap on how many future strings may guide a single tree.

    ``optimized_circuit`` is the emission with rotations merged (see the
    module docstring); no other local rewriting is left for a pipeline.
    """

    def __init__(
        self,
        reorder_within_blocks: bool = True,
        recursive_tree: bool = True,
        cross_block_lookahead: bool = True,
        max_lookahead: int | None = None,
    ):
        self.reorder_within_blocks = reorder_within_blocks
        self.recursive_tree = recursive_tree
        self.cross_block_lookahead = cross_block_lookahead
        self.max_lookahead = max_lookahead

    # ------------------------------------------------------------------ #
    def extract(
        self,
        terms: Sequence[PauliTerm] | SparsePauliSum,
        blocks: list[list[PauliTerm]] | None = None,
        block_bounds: Sequence[int] | None = None,
        packed_table: PackedPauliTable | None = None,
    ) -> ExtractionResult:
        """Run Clifford Extraction over a Pauli-rotation program.

        ``blocks`` (term lists) or ``block_bounds`` (row offsets into the
        program, the table-native form) may carry the commuting-block
        partition when a pipeline already computed it (the ``GroupCommuting``
        pass); both must partition the program *in order*.  When neither is
        given the partition is computed here on the packed store.

        ``packed_table`` may hand over an already-packed table of the
        program's Paulis (row ``k`` = ``terms[k].pauli``, e.g. the table the
        grouping pass scanned) so they are not re-packed here; it is read,
        never mutated.  :class:`SparsePauliSum` input always uses the sum's
        own store.  The input is transposed to bit columns once and the
        rest of the pass runs on them.

        This is :meth:`trace` followed by :meth:`RotationMerges.realize`.
        """
        result, merges = self.trace(terms, blocks, block_bounds, packed_table)
        result.optimized_circuit = merges.realize()
        return result

    def trace(
        self,
        terms: Sequence[PauliTerm] | SparsePauliSum,
        blocks: list[list[PauliTerm]] | None = None,
        block_bounds: Sequence[int] | None = None,
        packed_table: PackedPauliTable | None = None,
    ) -> tuple[ExtractionResult, RotationMerges]:
        """:meth:`extract` without summing merged angles: the result's
        ``optimized_circuit`` is ``merges.gates``.  Templates read their
        chains from the returned record."""
        if isinstance(terms, SparsePauliSum):
            source_sum: SparsePauliSum | None = terms
            term_list: list[PauliTerm] | None = None
            table = source_sum.packed_table
            coefficients = source_sum.coefficient_vector()
            num_qubits = source_sum.num_qubits
        else:
            source_sum = None
            term_list = list(terms)
            if not term_list:
                raise SynthesisError("cannot extract from an empty Pauli program")
            num_qubits = term_list[0].num_qubits
            for term in term_list:
                if term.num_qubits != num_qubits:
                    raise SynthesisError("all Pauli terms must act on the same qubit count")
            if packed_table is not None and (
                packed_table.num_rows != len(term_list)
                or packed_table.num_qubits != num_qubits
            ):
                raise SynthesisError(
                    f"packed_table shape ({packed_table.num_rows} rows, "
                    f"{packed_table.num_qubits} qubits) does not match the "
                    f"{len(term_list)}-term, {num_qubits}-qubit program"
                )
            table = (
                packed_table
                if packed_table is not None
                else PackedPauliTable.from_paulis(t.pauli for t in term_list)
            )
            coefficients = np.array([t.coefficient for t in term_list], dtype=float)

        start = time.perf_counter()
        num_rows = len(table)
        bounds = _resolve_block_bounds(table, blocks, block_bounds)

        # One column table for the whole pass: the program rows followed by
        # the 2n tableau generator rows, so every gate updates the remaining
        # program AND the conjugation tableau in the same column operation.
        columns = PauliColumns.from_table(table, generator_rows=True)
        x_columns, z_columns = columns.x, columns.z
        transposed = time.perf_counter()

        optimized_gates: list[Gate] = []
        left_gates: list[Gate] = []
        # per emitted rz its position and chain; per qubit the chain of its
        # open rz (-1: none), closed by a basis gate or a CX target
        positions: list[int] = []
        chains: list[list[tuple[int, float]]] = []
        folded: list[tuple[int, Gate]] = []
        dirty: list[int] = []
        open_rz = [-1] * num_qubits
        counters = dict.fromkeys(STAGE_COUNTERS, 0)
        cx_gates = CxGates()
        h_gates = [cached_gate("h", (qubit,)) for qubit in range(num_qubits)]
        sdg_gates = [cached_gate("sdg", (qubit,)) for qubit in range(num_qubits)]
        reorder = self.reorder_within_blocks
        recursive = self.recursive_tree
        max_lookahead = self.max_lookahead
        cross_blocks = self.cross_block_lookahead
        program_rows = (1 << num_rows) - 1
        # column bit r is row base + r; rows below base are gone
        base = 0

        for block_start, block_end in zip(bounds, bounds[1:]):
            # Row bits keep program order and move only all together, when
            # a rebase shifts them down; the block's waiting rows are a bit
            # mask.  The row chosen to go next is emitted right after the current
            # one, so the logical order of the block is always: the current
            # row, the chosen next row, the other waiting rows in ascending
            # order.  That is also the tree's guide sequence, followed by the
            # later blocks (not reordered yet) when lookahead may cross.
            waiting = ((1 << (block_end - base)) - 1) ^ ((1 << (block_start - base)) - 1)
            beyond = program_rows >> block_end << block_end >> base if cross_blocks else 0
            row = block_start - base
            off_support = _OffSupportCount(num_qubits)
            while waiting:
                if row >= REBASE_ROWS:
                    # every row below the lowest waiting one (row among them)
                    # is emitted
                    dead = (waiting & -waiting).bit_length() - 1
                    if dead >= REBASE_ROWS:
                        columns.drop_rows(dead)
                        off_support.shift(dead)
                        base += dead
                        row -= dead
                        waiting >>= dead
                        beyond >>= dead
                bit = 1 << row
                waiting ^= bit
                next_row = (waiting & -waiting).bit_length() - 1
                support: list[int] = []
                basis_gates: list[Gate] = []
                num_y = 0
                for qubit in range(num_qubits):
                    if x_columns[qubit] & bit:
                        support.append(qubit)
                        open_rz[qubit] = -1
                        if z_columns[qubit] & bit:
                            num_y += 1
                            basis_gates.append(sdg_gates[qubit])
                        basis_gates.append(h_gates[qubit])
                    elif z_columns[qubit] & bit:
                        support.append(qubit)
                if not support:
                    # exp(-i theta/2 I) is a global phase; nothing to emit.
                    row = next_row
                    continue
                if bool(columns.p0 & bit) != num_y & 1:
                    raise SynthesisError(
                        f"term {columns.row(row)!r} conjugated to a non-Hermitian Pauli"
                    )
                if basis_gates:
                    columns.apply_gates(basis_gates)

                if reorder and waiting & (waiting - 1):
                    best = self._find_next_row(
                        columns, waiting, support, counters, off_support
                    )
                    if best != next_row:
                        next_row = best
                        counters["rows_moved"] += 1
                later_rows = (waiting ^ (1 << next_row) if waiting else 0) | beyond
                tree_gates, root = synthesize_tree(
                    support, x_columns, z_columns, next_row, later_rows,
                    recursive, max_lookahead, cx_gates,
                )
                stream_gates_over_suffix(columns, tree_gates)

                # Only support qubits were touched, so the row is Z on its
                # root iff it is so on the support.
                for qubit in support:
                    if x_columns[qubit] & bit or bool(z_columns[qubit] & bit) != (qubit == root):
                        raise SynthesisError(
                            "internal error: the synthesized tree does not reduce the "
                            "current Pauli to Z on its root "
                            f"(got {columns.row(row).to_label()!r})"
                        )
                # a Hermitian Z carries phase exponent 0 or 2: the high bit
                sign = -1.0 if columns.p1 & bit else 1.0
                angle = sign * float(coefficients[base + row])
                rotation = trusted_gate("rz", (root,), (angle,))
                counters["rotations"] += 1
                chain = -1 if basis_gates or tree_gates else open_rz[root]
                if chain >= 0:
                    # a lone Z on a wire whose rz is still open: fold into it
                    chains[chain].append((base + row, sign))
                    folded.append((len(optimized_gates), rotation))
                    dirty.append(chain)
                    counters["rotations_merged"] += 1
                else:
                    optimized_gates.extend(basis_gates)
                    optimized_gates.extend(tree_gates)
                    for gate in tree_gates:
                        open_rz[gate.qubits[1]] = -1
                    open_rz[root] = len(chains)
                    if not _ZERO_EPS <= abs(angle) <= _TWO_PI:
                        dirty.append(len(chains))
                    positions.append(len(optimized_gates))
                    chains.append([(base + row, sign)])
                    optimized_gates.append(rotation)
                counters["basis_gates"] += len(basis_gates)
                counters["tree_cx"] += len(tree_gates)
                left_gates.extend(basis_gates)
                left_gates.extend(tree_gates)
                row = next_row
        looped = time.perf_counter()

        optimized = QuantumCircuit.from_trusted_gates(num_qubits, optimized_gates)
        # The left halves hold only h, cx and sdg: the tail is their reverse
        # with each sdg swapped for the interned s.
        s_gates = [cached_gate("s", (qubit,)) for qubit in range(num_qubits)]
        extracted = QuantumCircuit.from_trusted_gates(num_qubits, [
            s_gates[gate.qubits[0]] if gate.name == "sdg" else gate
            for gate in reversed(left_gates)
        ])
        conjugation = CliffordTableau.from_packed_rows(
            columns.to_table(num_rows - base, columns.num_rows)
        )
        end = time.perf_counter()
        if term_list is None:
            term_list = source_sum.terms
        metadata = {
            "num_blocks": len(bounds) - 1,
            "reorder_within_blocks": self.reorder_within_blocks,
            "recursive_tree": self.recursive_tree,
            "stage_counters": counters,
            "pre_optimization_cx": counters["tree_cx"],
        }
        result = ExtractionResult(
            optimized_circuit=optimized,
            extracted_clifford=extracted,
            conjugation=conjugation,
            terms=term_list,
            rotation_count=counters["rotations"],
            elapsed_seconds=end - start,
            metadata=metadata,
            stage_seconds={
                "transpose": transposed - start,
                "term_loop": looped - transposed,
                "tail": end - looped,
            },
        )
        merges = RotationMerges(
            num_qubits, optimized_gates, positions, chains, folded, dirty, coefficients
        )
        return result, merges

    # ------------------------------------------------------------------ #
    def _find_next_row(
        self,
        columns: PauliColumns,
        candidates: int,
        support: list[int],
        counters: dict[str, int],
        off_support: _OffSupportCount,
    ) -> int:
        """Greedy choice of the row to place right after the current one.

        ``candidates`` is the bit mask of the block's waiting rows, whose row
        order is their program order (see the extraction loop).  Returns the
        argmin over (cost, row) — bit-identical to the legacy
        ``find_next_pauli``, where a candidate's cost is its weight after
        conjugation through the non-recursive chain tree the current support
        would get with the candidate as the only guide.

        That cost is the candidate's off-support weight (tree-invariant) plus
        :func:`chain_tree_cost` of its letter counts on the support (mask
        tests against the candidate's bit), which is zero exactly when the
        candidate is the identity on the support.  The off-support weights of
        all candidates are a bit-sliced counter, one plane per binary digit,
        that ``off_support`` keeps across the block's selections: each call
        updates it only for the qubits that joined or left the support.  The
        weight classes are visited in ascending order: a class holding a
        candidate that is the identity on the support is decided without any
        cost evaluation, and no class above the best cost found is visited.
        """
        x_columns, z_columns = columns.x, columns.z
        digits = off_support.update(x_columns, z_columns, candidates, support)
        if not candidates & (candidates - 1):
            return candidates.bit_length() - 1
        on_support = 0
        support_columns = []
        for qubit in support:
            x_column, z_column = x_columns[qubit], z_columns[qubit]
            on_support |= x_column | z_column
            support_columns.append((x_column, z_column))
        identity_on_support = candidates & ~on_support
        size = len(support)

        best_cost: int | None = None
        best_row = -1
        left = candidates
        weight = 0
        while left and (best_cost is None or weight <= best_cost):
            weight_class = left
            for place, digit in enumerate(digits):
                weight_class &= digit if (weight >> place) & 1 else ~digit
            if weight_class:
                left ^= weight_class
                free = weight_class & identity_on_support
                if free:
                    # costs `weight`: beats the rest of this class and every
                    # later class, so only the row order can still matter
                    row = (free & -free).bit_length() - 1
                    if best_cost is None or weight < best_cost or row < best_row:
                        best_cost, best_row = weight, row
                    break
                # every candidate of this class costs at least weight + 1
                while weight_class and (best_cost is None or best_cost > weight):
                    low = weight_class & -weight_class
                    weight_class ^= low
                    row = low.bit_length() - 1
                    if best_cost is not None and best_cost == weight + 1 and row > best_row:
                        break
                    counters["candidates_scored"] += 1
                    num_z = num_y = num_x = 0
                    for x_column, z_column in support_columns:
                        if x_column & low:
                            if z_column & low:
                                num_y += 1
                            else:
                                num_x += 1
                        elif z_column & low:
                            num_z += 1
                    cost = weight + chain_tree_cost(
                        num_z, size - num_z - num_y - num_x, num_y, num_x
                    )
                    if best_cost is None or (cost, row) < (best_cost, best_row):
                        best_cost, best_row = cost, row
            weight += 1
        return best_row
