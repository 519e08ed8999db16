"""Recursive CNOT-tree synthesis (Algorithm 1 of the paper).

Given the support of the Pauli string currently being synthesized and the
Pauli strings that follow it in the program, the algorithm builds a CNOT
parity tree whose *extraction* (commutation through the rest of the circuit)
minimises the weight of the following strings:

1. the support qubits are grouped by the letter the *next* Pauli carries on
   them (``I``, ``X``, ``Y``, ``Z`` sub-trees);
2. each group is synthesized recursively, using the Pauli one position
   further down the program to order the qubits inside the group;
3. the four group roots are connected with the pairing that Table I of the
   paper shows to be weight-reducing: ``Z -> Y``, ``I -> X`` and finally the
   ``Z/Y`` survivor into the ``I/X`` survivor, which becomes the tree root
   carrying the ``Rz`` rotation.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.circuits.gate import Gate, cached_gate
from repro.exceptions import SynthesisError
from repro.paulis.pauli import PauliString

#: order in which group roots are considered when connecting (paper Sec. V-A)
_ROOT_PRIORITY = ("Z", "I", "Y", "X")

#: a callable returning the (already conjugated) Pauli ``depth`` positions
#: after the current one, or None when the program ends before that.  Any
#: object exposing ``letter(qubit) -> "I"|"X"|"Y"|"Z"`` works — the
#: extractor hands out column-table row guides instead of full PauliStrings.
LookaheadProvider = Callable[[int], "PauliString | None"]


class ColumnRowGuide:
    """A read-only letter view over one row of a column-major Pauli table.

    Reads row ``row`` straight out of the per-qubit bit columns of a
    :class:`~repro.paulis.columns.PauliColumns` (``x_columns[q]`` bit ``row``
    is the row's x bit on qubit ``q``), so the ``guide.letter(qubit)`` calls
    of :func:`synthesize_tree` are two integer bit tests.  The view is live:
    it is valid until the table is next conjugated.  Only the guide protocol
    of the lookahead is implemented — this is not a :class:`PauliString`.
    """

    __slots__ = ("_x_columns", "_z_columns", "_row")

    _LETTERS = ("I", "X", "Z", "Y")  # indexed by x_bit | (z_bit << 1)

    def __init__(self, x_columns: Sequence[int], z_columns: Sequence[int], row: int):
        self._x_columns = x_columns
        self._z_columns = z_columns
        self._row = row

    def letter(self, qubit: int) -> str:
        row = self._row
        x_bit = (self._x_columns[qubit] >> row) & 1
        z_bit = (self._z_columns[qubit] >> row) & 1
        return self._LETTERS[x_bit | (z_bit << 1)]


def chain_tree(
    tree_qubits: Sequence[int], out: list[Gate] | None = None
) -> tuple[list[Gate], int]:
    """A plain CNOT chain over ``tree_qubits``; the last qubit is the root.

    ``out`` may be an existing gate list to append into (the recursive
    synthesizer threads one shared accumulator through all sub-trees instead
    of concatenating per-level lists).
    """
    qubits = list(tree_qubits)
    if not qubits:
        raise SynthesisError("cannot synthesize a tree over an empty support")
    gates = out if out is not None else []
    for index in range(len(qubits) - 1):
        gates.append(cached_gate("cx", (qubits[index], qubits[index + 1])))
    return gates, qubits[-1]


def _group_by_letter(
    tree_qubits: Sequence[int], guide: PauliString
) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {"I": [], "X": [], "Y": [], "Z": []}
    for qubit in tree_qubits:
        groups[guide.letter(qubit)].append(qubit)
    return groups


def _connect_roots(roots: dict[str, int], gates: list[Gate]) -> int:
    """Connect the sub-tree roots; returns the overall tree root.

    The pairing follows the paper: the ``Z`` root feeds the ``Y`` root
    (``ZY -> IY``), the ``I`` root feeds the ``X`` root (``IX`` stays put but
    keeps the root on the ``X`` side), and finally the ``Z/Y`` survivor feeds
    the ``I/X`` survivor (``YX -> YI``).
    """
    def connect(first: str, second: str) -> int | None:
        first_root = roots.get(first)
        second_root = roots.get(second)
        if first_root is None and second_root is None:
            return None
        if first_root is None:
            return second_root
        if second_root is None:
            return first_root
        gates.append(cached_gate("cx", (first_root, second_root)))
        return second_root

    zy_root = connect("Z", "Y")
    ix_root = connect("I", "X")
    if zy_root is None and ix_root is None:
        raise SynthesisError("cannot connect roots of an empty tree")
    if zy_root is None:
        return ix_root
    if ix_root is None:
        return zy_root
    gates.append(cached_gate("cx", (zy_root, ix_root)))
    return ix_root


def chain_tree_cost(x_bits: Sequence[int], z_bits: Sequence[int]) -> int:
    """Support weight of a guide after conjugation through its chain tree.

    ``x_bits`` / ``z_bits`` are the guide's symplectic bits on the support of
    the Pauli currently being synthesized, in support (ascending-qubit) order.
    The function replays — on plain Python integers, without building
    :class:`~repro.circuits.gate.Gate` objects — exactly the non-recursive
    tree that :func:`synthesize_tree` would emit for this guide (per-letter
    chains connected ``Z -> Y``, ``I -> X``, ``Z/Y -> I/X``) and the CNOT
    conjugation rule ``x_t ^= x_c``, ``z_c ^= z_t``, returning the guide's
    remaining weight on the support.  This is the cheap cost model of
    Algorithm 2's ``find_next_pauli``; adding the guide's (tree-invariant)
    off-support weight gives the exact cost the legacy extractor computes.
    """
    groups: dict[str, list[int]] = {"I": [], "X": [], "Y": [], "Z": []}
    for index, (x_bit, z_bit) in enumerate(zip(x_bits, z_bits)):
        if x_bit:
            groups["Y" if z_bit else "X"].append(index)
        else:
            groups["Z" if z_bit else "I"].append(index)
    gates: list[tuple[int, int]] = []
    roots: dict[str, int] = {}
    for letter in _ROOT_PRIORITY:
        members = groups[letter]
        if not members:
            continue
        gates.extend(zip(members, members[1:]))
        roots[letter] = members[-1]

    def connect(first: str, second: str) -> int | None:
        first_root = roots.get(first)
        second_root = roots.get(second)
        if first_root is None:
            return second_root
        if second_root is None:
            return first_root
        gates.append((first_root, second_root))
        return second_root

    zy_root = connect("Z", "Y")
    ix_root = connect("I", "X")
    if zy_root is not None and ix_root is not None:
        gates.append((zy_root, ix_root))

    x = [int(bit) for bit in x_bits]
    z = [int(bit) for bit in z_bits]
    for control, target in gates:
        x[target] ^= x[control]
        z[control] ^= z[target]
    return sum(1 for x_bit, z_bit in zip(x, z) if x_bit | z_bit)


def synthesize_tree(
    tree_qubits: Sequence[int],
    lookahead: LookaheadProvider,
    recursive: bool = True,
    depth: int = 0,
    max_depth: int | None = None,
    out: list[Gate] | None = None,
) -> tuple[list[Gate], int]:
    """Synthesize a CNOT parity tree over ``tree_qubits``.

    Parameters
    ----------
    tree_qubits:
        Support of the Pauli currently being synthesized (or a subset of it
        during recursion).
    lookahead:
        ``lookahead(d)`` must return the Pauli ``d + 1`` positions after the
        current one, already conjugated by the Clifford extracted so far and
        by the current string's basis-change layer, or ``None`` past the end
        of the program.
    recursive:
        When ``False``, the sub-trees are plain chains (the cheap variant used
        for cost estimation inside ``find_next_pauli``).
    max_depth:
        Optional cap on the recursion depth (how many future strings guide the
        tree).  ``None`` means unbounded.
    out:
        Optional gate list to append into; the recursion threads one shared
        accumulator through every sub-tree, so no per-level lists are
        concatenated.

    Returns
    -------
    (gates, root):
        The CNOT gates in circuit (time) order (the ``out`` list when one was
        given) and the root qubit where the ``Rz`` rotation is placed.
    """
    qubits = list(tree_qubits)
    if not qubits:
        raise SynthesisError("cannot synthesize a tree over an empty support")
    gates = out if out is not None else []
    if len(qubits) == 1:
        return gates, qubits[0]
    if max_depth is not None and depth >= max_depth:
        return chain_tree(qubits, out=gates)
    guide = lookahead(depth)
    if guide is None:
        return chain_tree(qubits, out=gates)

    groups = _group_by_letter(qubits, guide)
    roots: dict[str, int] = {}
    for letter in _ROOT_PRIORITY:
        members = groups[letter]
        if not members:
            continue
        if len(members) == 1:
            roots[letter] = members[0]
        elif recursive:
            _, sub_root = synthesize_tree(
                members,
                lookahead,
                recursive=True,
                depth=depth + 1,
                max_depth=max_depth,
                out=gates,
            )
            roots[letter] = sub_root
        else:
            _, sub_root = chain_tree(members, out=gates)
            roots[letter] = sub_root
    root = _connect_roots(roots, gates)
    return gates, root
