"""Streaming wire-indexed peephole optimization.

:class:`GateStreamOptimizer` is the amortized-linear replacement for the
iterated whole-list sweeps of :func:`repro.transpile.peephole.peephole_optimize`
(which stays, unoptimized, as the equivalence ground truth — the repo pattern
of ``extraction_legacy`` / ``conjugation``).  Instead of materializing a gate
tail and then rescanning it up to ``max_iterations`` times, the optimizer
applies every local rewrite *eagerly, at gate-append time*:

* **inverse-pair cancellation** — an arriving parameterless gate walks
  backward over the pending gates *on its own wires only* (per-qubit frontier
  stacks; gates on disjoint qubits are never even visited) and cancels with
  the nearest inverse partner reachable through commuting gates;
* **same-axis rotation merging** — an arriving rotation merges its angle into
  the nearest reachable rotation of the same name on the same (unordered,
  for ``rzz``) qubits, normalizing with ``math.remainder(angle, 4*pi)`` and
  deleting the survivor when the merged angle is (near-)zero;
* **identity removal** — explicit ``i`` gates are dropped on arrival.

Because a cancellation partner must itself commute through every gate it
passes — and partner gates are commutation-equivalent to the gates they
cancel/merge with — removing a pending gate can never unblock a rewrite
between two gates that are *both* already pending.  Appending therefore needs
no retroactive re-checks: one pass over the gate stream reaches the same
fixpoint the legacy engine iterates toward, with no ``max_iterations`` cap
(the randomized suite in ``tests/test_transpile/test_peephole_equivalence.py``
diffs gate counts and statevectors against the legacy engine, including
fixpoints the legacy default cap of 20 sweeps cannot reach).

The walk visits only gates sharing a wire with the arriving gate, so the
amortized cost per appended gate is the length of its blocked-commuting
prefix on its own wires — O(G) total for the CNOT-tree tails Clifford
extraction emits, where almost every cancellation partner sits at the top of
a wire stack.

Local rewriting runs in one place per level: at level 1 (and after routing)
the :class:`~repro.compiler.passes.Peephole` pass streams the circuit through
:func:`streaming_peephole_optimize`; at levels 2-3
:class:`~repro.core.extraction.CliffordExtractor` merges rotations as it emits,
with :func:`merged_angles`, and this engine is the oracle it is tested against.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import (
    SINGLE_QUBIT_GATES,
    TWO_QUBIT_GATES,
    Gate,
)
from repro.exceptions import CircuitError
from repro.transpile.peephole import (
    _INVERSE_PAIRS,
    _ROTATIONS,
    _SELF_INVERSE,
    _SYMMETRIC_GATES,
    _TWO_PI,
    gates_commute,
)

#: rotations are normalized into ``[-2*pi, 2*pi]`` (two full turns are an
#: identity for the ``exp(-i theta/2 P)`` convention), exactly as the legacy
#: merge pass does
_FOUR_PI = 2.0 * _TWO_PI

#: angles this close to zero (after normalization) are dropped entirely
_ZERO_EPS = 1e-12

#: parameterless gate -> the name that cancels it
_PARTNER_NAME: dict[str, str] = {name: name for name in _SELF_INVERSE}
_PARTNER_NAME.update(dict(_INVERSE_PAIRS))

#: rebuild bookkeeping once this many cancelled gates linger in the buffers
_COMPACT_MIN_DEAD = 256


def overlap_pattern(qubits: tuple[int, ...], other: tuple[int, ...]) -> tuple[int, ...]:
    """Where each qubit of a gate sits in another gate's qubits (``-1``: absent)."""
    first = qubits[0]
    head = other.index(first) if first in other else -1
    if len(qubits) == 1:
        return (head,)
    second = qubits[1]
    return (head, other.index(second) if second in other else -1)


def _commutation_table() -> dict[tuple[str, str, tuple[int, ...]], bool]:
    """``gates_commute`` verdicts keyed by ``(name, other_name, overlap pattern)``.

    A verdict depends only on the two names and on which qubits the gates
    share, so one representative pair per pattern decides every pair.  Built
    once from the ground-truth ``gates_commute``; the streaming optimizer
    never calls it per gate.
    """
    names = sorted(SINGLE_QUBIT_GATES | TWO_QUBIT_GATES)
    table = {}
    for name in names:
        for other_name in names:
            size = 1 if name in SINGLE_QUBIT_GATES else 2
            other_size = 1 if other_name in SINGLE_QUBIT_GATES else 2
            for pattern in itertools.product(range(-1, other_size), repeat=size):
                taken = [position for position in pattern if position >= 0]
                if len(taken) != len(set(taken)):
                    continue
                qubits = tuple(range(size))
                other = [size + slot for slot in range(other_size)]
                for qubit, position in zip(qubits, pattern):
                    if position >= 0:
                        other[position] = qubit
                table[name, other_name, pattern] = gates_commute(
                    _representative(name, qubits), _representative(other_name, tuple(other))
                )
    return table


def _representative(name: str, qubits: tuple[int, ...]) -> Gate:
    return Gate(name, qubits, (0.5,) if name in _ROTATIONS else ())


#: every commutation verdict the backward scans can ask for
_COMMUTES = _commutation_table()


def _verdict_rows() -> tuple[dict, dict]:
    """``_COMMUTES`` regrouped for the scans, which index instead of hashing a pattern.

    One-qubit gates: ``[name][other_name][position]``, the position of the
    gate's wire in the pending gate's qubits.  Two-qubit gates:
    ``[name][other_name][code]`` with ``code = 3 * (p0 + 1) + (p1 + 1)`` for
    the overlap pattern ``(p0, p1)``.
    """
    one: dict[str, dict[str, tuple]] = {}
    two: dict[str, dict[str, tuple]] = {}
    for (name, other_name, pattern), verdict in _COMMUTES.items():
        if len(pattern) == 1:
            row = one.setdefault(name, {}).setdefault(other_name, [None, None])
            row[pattern[0]] = verdict
        else:
            row = two.setdefault(name, {}).setdefault(other_name, [None] * 9)
            row[3 * (pattern[0] + 1) + pattern[1] + 1] = verdict
    def freeze(rows: dict) -> dict:
        return {
            name: {other: tuple(row) for other, row in by_other.items()}
            for name, by_other in rows.items()
        }

    return freeze(one), freeze(two)


_ONE_QUBIT_VERDICTS, _TWO_QUBIT_VERDICTS = _verdict_rows()

#: name -> (name of the gate it merges or cancels with, whether its two
#: qubits may be swapped, whether it is a rotation)
_KINDS: dict[str, tuple[str | None, bool, bool]] = {
    name: (
        name if name in _ROTATIONS else _PARTNER_NAME.get(name),
        name in _SYMMETRIC_GATES,
        name in _ROTATIONS,
    )
    for name in SINGLE_QUBIT_GATES | TWO_QUBIT_GATES
}


class _Node:
    """One pending gate: mutable so rotation merges update it in place.

    ``name`` and ``qubits`` are the gate's, kept on the node for the scans
    (a merge replaces ``gate`` but never changes either).
    """

    __slots__ = ("gate", "name", "qubits", "raw_angle", "seq", "alive")

    def __init__(self, gate: Gate, raw_angle: float | None, seq: int):
        self.gate = gate
        self.name = gate.name
        self.qubits = gate.qubits
        #: un-normalized accumulated angle for rotations (the legacy merge
        #: pass sums raw params before normalizing once; accumulating the raw
        #: sum keeps the merged float bit-identical to the legacy result)
        self.raw_angle = raw_angle
        self.seq = seq
        self.alive = True


class GateStreamOptimizer:
    """Maintains the peephole fixpoint of a gate stream, one append at a time.

    Gates go in through :meth:`append` / :meth:`extend`; the surviving
    optimized tail comes out of :meth:`gates` (original emission order, with
    merged rotations sitting at their earliest position).  The optimizer is
    single-use per tail: feed the whole stream, read the result.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise CircuitError("a gate stream needs at least one qubit")
        self.num_qubits = int(num_qubits)
        #: per-qubit frontier stacks of pending nodes (wire-indexed)
        self._wires: list[list[_Node]] = [[] for _ in range(self.num_qubits)]
        #: all nodes in arrival order (dead ones compacted away periodically)
        self._order: list[_Node] = []
        self._live = 0
        self._dead = 0
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of gates currently surviving."""
        return self._live

    def gates(self) -> list[Gate]:
        """The surviving gates, in emission order."""
        return [node.gate for node in self._order if node.alive]

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates())

    # ------------------------------------------------------------------ #
    # Streaming input
    # ------------------------------------------------------------------ #
    def extend(self, gates: Iterable[Gate]) -> "GateStreamOptimizer":
        self._feed(gates)
        return self

    def append(self, gate: Gate) -> "GateStreamOptimizer":
        self._feed((gate,))
        return self

    def _feed(self, gates: Iterable[Gate]) -> None:
        """Apply every rewrite an arriving gate enables, gate by gate.

        The backward scan visits only the frontier stacks of the arriving
        gate's own wires, so pending gates on disjoint qubits — which
        trivially commute — cost nothing, unlike the legacy whole-list sweep.
        It stops at the first non-commuting pending gate.  A rotation matches
        (merges with) its own name; a parameterless gate matches its inverse
        partner.  Gate names uniquely determine whether params are carried,
        so a name match is a full kind match.
        """
        wires = self._wires
        order = self._order
        for gate in gates:
            name = gate.name
            partner, symmetric, rotation = _KINDS[name]
            if name == "i":
                continue
            qubits = gate.qubits
            match = None
            if len(qubits) == 1:
                (wire,) = qubits
                verdicts = _ONE_QUBIT_VERDICTS[name]
                for node in reversed(wires[wire]):
                    if not node.alive:
                        continue
                    other = node.qubits
                    if node.name == partner and other == qubits:
                        match = node
                        break
                    if not verdicts[node.name][other[0] != wire]:
                        break
            else:
                match = self._scan_two(name, qubits, partner, symmetric)
            if rotation:
                self._merge_rotation(gate, match)
            elif match is not None:
                self._kill(match)
            else:  # _push, inlined for the gate that matches nothing
                node = _Node(gate, None, self._seq)
                self._seq += 1
                order.append(node)
                for wire in qubits:
                    wires[wire].append(node)
                self._live += 1

    def _scan_two(self, name, qubits, partner, symmetric) -> "_Node | None":
        """The match of an arriving two-qubit gate, walking both wires newest first."""
        first, second = qubits
        flipped = (second, first) if symmetric else None
        verdicts = _TWO_QUBIT_VERDICTS[name]
        wires = self._wires
        stack_a = wires[first]
        stack_b = wires[second]
        index_a = len(stack_a) - 1
        index_b = len(stack_b) - 1
        while True:
            while index_a >= 0 and not stack_a[index_a].alive:
                index_a -= 1
            while index_b >= 0 and not stack_b[index_b].alive:
                index_b -= 1
            if index_a < 0:
                if index_b < 0:
                    return None
                node = stack_b[index_b]
                index_b -= 1
            elif index_b < 0 or stack_a[index_a].seq >= stack_b[index_b].seq:
                node = stack_a[index_a]
                index_a -= 1
                # a pending two-qubit gate sharing both wires sits on both
                # stacks; step past it on both
                if index_b >= 0 and stack_b[index_b] is node:
                    index_b -= 1
            else:
                node = stack_b[index_b]
                index_b -= 1
            other = node.qubits
            if node.name == partner and (other == qubits or other == flipped):
                return node
            head = other[0]
            if len(other) == 1:
                code = 3 if head == first else 1
            else:
                tail = other[1]
                code = (3 if head == first else 6 if tail == first else 0) + (
                    1 if head == second else 2 if tail == second else 0
                )
            if not verdicts[node.name][code]:
                return None

    # ------------------------------------------------------------------ #
    # Rewrite application
    # ------------------------------------------------------------------ #
    def _merge_rotation(self, gate: Gate, node: "_Node | None") -> None:
        """Fold the arriving rotation into ``node`` (or push it, normalized)."""
        angle = gate.params[0]
        if node is not None:
            other = node.gate
            raw = node.raw_angle + angle
            merged = math.remainder(raw, _FOUR_PI)
            if abs(merged) < _ZERO_EPS or abs(abs(merged) - _FOUR_PI) < _ZERO_EPS:
                self._kill(node)
            else:
                node.raw_angle = raw
                if merged != other.params[0]:
                    node.gate = Gate(gate.name, other.qubits, (merged,))
            return
        normalized = math.remainder(angle, _FOUR_PI)
        if abs(normalized) < _ZERO_EPS or abs(abs(normalized) - _FOUR_PI) < _ZERO_EPS:
            return
        if normalized != angle:
            gate = Gate(gate.name, gate.qubits, (normalized,))
        self._push(gate, angle)

    # ------------------------------------------------------------------ #
    # Buffer maintenance
    # ------------------------------------------------------------------ #
    def _push(self, gate: Gate, raw_angle: float | None) -> None:
        node = _Node(gate, raw_angle, self._seq)
        self._seq += 1
        self._order.append(node)
        for qubit in gate.qubits:
            self._wires[qubit].append(node)
        self._live += 1

    def _kill(self, node: _Node) -> None:
        node.alive = False
        self._live -= 1
        self._dead += 1
        for qubit in node.qubits:
            stack = self._wires[qubit]
            while stack and not stack[-1].alive:
                stack.pop()
        if self._dead > _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop dead nodes from all buffers (amortized against the kills)."""
        self._order[:] = [node for node in self._order if node.alive]
        for qubit, stack in enumerate(self._wires):
            self._wires[qubit] = [node for node in stack if node.alive]
        self._dead = 0


def merged_angles(chains, coefficients) -> list[float] | None:
    """Each chain's merged angle as the stream computes it, or ``None``.

    A chain lists the ``(term, sign)`` rotations merged into one gate, in
    stream order: their raw left-to-right sum, normalized with
    ``math.remainder(·, 4*pi)``.  ``None`` when a prefix lands in the kill
    window, where the stream deletes the gate.
    """
    angles: list[float] = []
    append = angles.append
    remainder = math.remainder
    for chain in chains:
        acc = 0.0
        merged = 0.0
        for term, sign in chain:
            acc += sign * coefficients[term]
            merged = remainder(acc, _FOUR_PI)
            if -_ZERO_EPS < merged < _ZERO_EPS:
                return None
        append(merged)
    return angles


def streaming_peephole_optimize(circuit: QuantumCircuit) -> QuantumCircuit:
    """Peephole-optimize a circuit in one streaming pass.

    Reaches the same fixpoint as the legacy
    :func:`~repro.transpile.peephole.peephole_optimize` (without its
    ``max_iterations`` cap) by streaming the gate list through a
    :class:`GateStreamOptimizer`.
    """
    optimizer = GateStreamOptimizer(circuit.num_qubits)
    optimizer.extend(circuit)
    return QuantumCircuit.from_trusted_gates(circuit.num_qubits, optimizer.gates())
