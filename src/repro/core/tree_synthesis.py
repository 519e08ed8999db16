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

The module has two implementations of that recursion, which emit the same
gates:

* :func:`synthesize_tree_on_columns` is the one Clifford Extraction runs.  It
  reads the guides straight out of the extractor's bit columns: a group whose
  letters agree on a guide forms a single sub-group there, so the recursion
  level is skipped.  The first guide row on which a group's letters differ is
  the lowest set bit of ``(OR_x ^ AND_x) | (OR_z ^ AND_z)`` over the group's
  columns, masked to the guide rows still ahead, and every letter is read
  by a mask test against that row's bit.
* :func:`synthesize_tree` asks a callable for one guide per depth and groups
  by ``guide.letter(qubit)``.  It is the reference the legacy extractor and
  the differential tests use.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.circuits.gate import Gate, cached_gate
from repro.exceptions import SynthesisError
from repro.paulis.pauli import PauliString

#: order in which group roots are considered when connecting (paper Sec. V-A)
_ROOT_PRIORITY = ("Z", "I", "Y", "X")

#: slot in ``_ROOT_PRIORITY`` of the letter with bits ``x | (z << 1)`` (I, X, Z, Y)
_PRIORITY_SLOT = (1, 3, 0, 2)

#: a callable returning the (already conjugated) Pauli ``depth`` positions
#: after the current one, or None when the program ends before that.  Any
#: object exposing ``letter(qubit) -> "I"|"X"|"Y"|"Z"`` works.
LookaheadProvider = Callable[[int], "PauliString | None"]


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


class CxGates(dict):
    """Interned ``cx`` gates of one compile, keyed by ``(control, target)``.

    A tree emits the same few CNOTs over and over; a plain dict lookup hands
    out the shared :class:`Gate`, and only a first use asks the global
    :func:`~repro.circuits.gate.cached_gate` intern.
    """

    __slots__ = ()

    def __missing__(self, key: tuple[int, int]) -> Gate:
        gate = self[key] = cached_gate("cx", key)
        return gate


def _first_rows(first_row: int, later_rows: int, count: int) -> tuple[int, int]:
    """The guide sequence ``first_row, *later_rows`` cut to its first ``count`` rows."""
    if count <= 0:
        return -1, 0
    if first_row >= 0:
        count -= 1
    if later_rows.bit_count() <= count:
        return first_row, later_rows
    rest = later_rows
    for _ in range(count):
        rest &= rest - 1
    return first_row, later_rows ^ rest


def synthesize_tree_on_columns(
    tree_qubits: Sequence[int],
    x_columns: Sequence[int],
    z_columns: Sequence[int],
    first_row: int,
    later_rows: int,
    recursive: bool = True,
    max_depth: int | None = None,
    cx_gates: CxGates | None = None,
) -> tuple[list[Gate], int]:
    """Synthesize a CNOT parity tree guided by rows of a column table.

    ``x_columns[q]`` / ``z_columns[q]`` hold the guides' bits on qubit ``q``,
    bit ``r`` for row ``r`` (a :class:`~repro.paulis.columns.PauliColumns`).
    The guide sequence is ``first_row`` (skipped when negative) followed by
    the set bits of ``later_rows`` in ascending order; guide ``d`` plays the
    part of ``lookahead(d)`` in :func:`synthesize_tree`, which returns the
    same gates and root over the same sequence.  ``recursive=False`` and
    ``max_depth`` cut the sequence to one and to ``max_depth`` guides.
    ``cx_gates`` is the compile's CNOT table; a fresh one is used when absent.
    ``tree_qubits`` must be in ascending order, as supports are.
    """
    qubits = list(tree_qubits)
    if not qubits:
        raise SynthesisError("cannot synthesize a tree over an empty support")
    gates: list[Gate] = []
    if len(qubits) == 1:
        return gates, qubits[0]
    if not recursive:
        max_depth = 1 if max_depth is None else min(max_depth, 1)
    if max_depth is not None:
        first_row, later_rows = _first_rows(first_row, later_rows, max_depth)
    if cx_gates is None:
        cx_gates = CxGates()
    first_bit = 1 << first_row if first_row >= 0 else 0
    root = _column_tree(qubits, x_columns, z_columns, first_bit, later_rows, gates, cx_gates)
    return gates, root


def _column_tree(
    qubits: list[int],
    x_columns: Sequence[int],
    z_columns: Sequence[int],
    first_bit: int,
    ahead: int,
    gates: list[Gate],
    cx_gates: CxGates,
) -> int:
    """Emit the tree over ``qubits`` (two or more) into ``gates``; returns its root.

    ``first_bit`` is the first guide row's bit (``0``: none), ``ahead`` the
    mask of the guide rows after it.
    """
    or_x = or_z = 0
    and_x = and_z = -1
    for qubit in qubits:
        x_column = x_columns[qubit]
        z_column = z_columns[qubit]
        or_x |= x_column
        and_x &= x_column
        or_z |= z_column
        and_z &= z_column
    split = (or_x ^ and_x) | (or_z ^ and_z)
    if split & first_bit:
        # sub-groups go on from the first of the later rows
        bit = first_bit
    else:
        split &= ahead
        if not split:
            gates.extend(map(cx_gates.__getitem__, zip(qubits, qubits[1:])))
            return qubits[-1]
        bit = split & -split
        ahead &= -(bit << 1)

    z_group: list[int] = []
    i_group: list[int] = []
    y_group: list[int] = []
    x_group: list[int] = []
    for qubit in qubits:
        if x_columns[qubit] & bit:
            (y_group if z_columns[qubit] & bit else x_group).append(qubit)
        elif z_columns[qubit] & bit:
            z_group.append(qubit)
        else:
            i_group.append(qubit)
    roots = []
    for group in (z_group, i_group, y_group, x_group):  # _ROOT_PRIORITY
        if len(group) > 1:
            roots.append(_column_tree(group, x_columns, z_columns, 0, ahead, gates, cx_gates))
        else:
            roots.append(group[0] if group else -1)
    pairs, root = _root_pairs(*roots)
    gates.extend(map(cx_gates.__getitem__, pairs))
    return root


def _root_pairs(
    z_root: int, i_root: int, y_root: int, x_root: int
) -> tuple[list[tuple[int, int]], int]:
    """The CNOTs of :func:`_connect_roots` over the group roots (``-1``: no group).

    Returns the ``(control, target)`` pairs in emission order and the root.
    """
    pairs = []
    zy_root = y_root
    if z_root >= 0:
        if y_root >= 0:
            pairs.append((z_root, y_root))
        else:
            zy_root = z_root
    ix_root = x_root
    if i_root >= 0:
        if x_root >= 0:
            pairs.append((i_root, x_root))
        else:
            ix_root = i_root
    if zy_root < 0:
        return pairs, ix_root
    if ix_root < 0:
        return pairs, zy_root
    pairs.append((zy_root, ix_root))
    return pairs, ix_root


def chain_tree_cost(num_z: int, num_i: int, num_y: int, num_x: int) -> int:
    """Support weight of a guide after conjugation through its chain tree.

    Counts in, weight out: the arguments are how many of the guide's letters
    on the support of the Pauli currently being synthesized are ``Z``, ``I``,
    ``Y`` and ``X``.  The non-recursive tree :func:`synthesize_tree` emits for
    this guide groups the support by letter, so the weight it leaves depends
    on those counts alone.  Per group, under ``x_t ^= x_c``, ``z_c ^= z_t``:

    * a ``Z`` chain leaves one ``Z`` on its root, which the ``Z -> Y`` CNOT
      clears when a ``Y`` group exists;
    * a ``Y`` chain of ``k`` leaves ``k // 2`` letters off its root and a
      ``Y`` (``k`` odd) or ``Z`` (``k`` even) on it;
    * an ``X`` chain of ``k`` alternates ``X, I, X, ...``: ``k // 2`` off its
      root, an ``X`` on it when ``k`` is odd;
    * an ``I`` chain stays ``I``, and the ``I -> X`` CNOT changes nothing;
    * the final ``Z/Y -> I/X`` CNOT flips the ``I/X`` survivor's ``X`` bit
      exactly when the ``Z/Y`` survivor is a ``Y``.

    :func:`_chain_tree_replay` replays the tree letter by letter and is the
    oracle the tests hold this closed form to.  This is the cheap cost model
    of Algorithm 2's ``find_next_pauli``; adding the guide's (tree-invariant)
    off-support weight gives the exact cost the legacy extractor computes.
    """
    odd_y = num_y & 1
    if num_x:
        root = (num_x & 1) ^ odd_y
    else:
        root = odd_y if num_i else 0
    zy_weight = num_y // 2 + 1 if num_y else (1 if num_z else 0)
    return zy_weight + num_x // 2 + root


def _chain_tree_replay(x_bits: Sequence[int], z_bits: Sequence[int]) -> int:
    """:func:`chain_tree_cost` of a guide given bit by bit, by replaying its tree.

    ``x_bits`` / ``z_bits`` are the guide's symplectic bits on the support,
    in support (ascending-qubit) order.  Replays — on plain Python integers,
    without building :class:`~repro.circuits.gate.Gate` objects — exactly the
    non-recursive tree :func:`synthesize_tree` would emit for this guide
    (per-letter chains connected ``Z -> Y``, ``I -> X``, ``Z/Y -> I/X``) and
    returns the guide's remaining weight on the support.  The reference of
    the closed form; keep it unoptimized.
    """
    x = [int(bit) for bit in x_bits]
    z = [int(bit) for bit in z_bits]
    groups: tuple[list[int], ...] = ([], [], [], [])  # _ROOT_PRIORITY: Z, I, Y, X
    for index, (x_bit, z_bit) in enumerate(zip(x, z)):
        groups[_PRIORITY_SLOT[x_bit | (z_bit << 1)]].append(index)
    # the chains touch disjoint positions, so each is replayed as it is built
    roots = []
    for members in groups:
        for control, target in zip(members, members[1:]):
            x[target] ^= x[control]
            z[control] ^= z[target]
        roots.append(members[-1] if members else -1)
    for control, target in _root_pairs(*roots)[0]:
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
