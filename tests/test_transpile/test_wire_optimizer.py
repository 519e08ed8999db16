"""The streaming optimizer's commutation table against the ground-truth check."""

from __future__ import annotations

import itertools

from repro.circuits.gate import SINGLE_QUBIT_GATES, TWO_QUBIT_GATES, Gate
from repro.transpile.peephole import gates_commute
from repro.transpile.wire_optimizer import _COMMUTES, overlap_pattern

NAMES = sorted(SINGLE_QUBIT_GATES | TWO_QUBIT_GATES)


def make_gate(name: str, qubits: tuple[int, ...]) -> Gate:
    return Gate(name, qubits, (0.7,) if name in ("rz", "rx", "ry", "rzz") else ())


def placements(name: str):
    size = 1 if name in SINGLE_QUBIT_GATES else 2
    # four wires are enough to realize every way two gates can overlap
    return itertools.permutations(range(4), size)


def test_table_matches_gates_commute_on_every_overlap():
    seen = set()
    for name, other_name in itertools.product(NAMES, NAMES):
        for qubits in placements(name):
            for other_qubits in placements(other_name):
                gate = make_gate(name, qubits)
                other = make_gate(other_name, other_qubits)
                key = (name, other_name, overlap_pattern(qubits, other_qubits))
                assert _COMMUTES[key] == gates_commute(gate, other), (gate, other)
                seen.add(key)
    # every table entry is reachable, so none of it is dead weight
    assert seen == set(_COMMUTES)


def test_overlap_pattern():
    assert overlap_pattern((3,), (3, 5)) == (0,)
    assert overlap_pattern((5,), (3, 5)) == (1,)
    assert overlap_pattern((3, 5), (5, 3)) == (1, 0)
    assert overlap_pattern((3, 5), (5, 7)) == (-1, 0)
    assert overlap_pattern((3, 5), (7,)) == (-1, -1)
