"""Synthesis of a single Pauli rotation ``exp(-i * theta/2 * P)``.

The synthesized circuit is the standard "V-shape" of the paper's Fig. 1:

* a layer of single-qubit basis-change Cliffords mapping every non-identity
  Pauli factor to ``Z``,
* a CNOT parity tree collecting the parity of the support onto a root qubit,
* an ``Rz`` rotation on the root,
* the mirrored tree and mirrored basis layer.

The angle convention matches ``Rz``: the circuit implements
``exp(-i * theta / 2 * P)``.  A ``-1`` sign carried by the Pauli string flips
the sign of the angle.
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.exceptions import SynthesisError
from repro.paulis.pauli import PauliString
from repro.paulis.term import PauliTerm


def basis_change_gates(pauli: PauliString) -> list[Gate]:
    """Single-qubit gates mapping every non-identity factor of ``pauli`` to ``Z``.

    The returned gates ``g`` satisfy, per qubit, ``g P_q g† = Z`` when applied
    in list order (``sdg`` then ``h`` for a ``Y`` factor, ``h`` for ``X``).
    """
    gates: list[Gate] = []
    for qubit in range(pauli.num_qubits):
        letter = pauli.letter(qubit)
        if letter == "X":
            gates.append(Gate("h", (qubit,)))
        elif letter == "Y":
            gates.append(Gate("sdg", (qubit,)))
            gates.append(Gate("h", (qubit,)))
    return gates


def cnot_chain_gates(support: list[int]) -> tuple[list[Gate], int]:
    """A linear CNOT parity chain over ``support``.

    Each qubit is the control of one CNOT targeting the next qubit in the
    list; the last qubit becomes the parity root.  Returns the gates and the
    root qubit.
    """
    if not support:
        raise SynthesisError("cannot build a parity chain over an empty support")
    gates = [
        Gate("cx", (support[index], support[index + 1]))
        for index in range(len(support) - 1)
    ]
    return gates, support[-1]


def cnot_balanced_tree_gates(support: list[int]) -> tuple[list[Gate], int]:
    """A balanced (logarithmic-depth) CNOT parity tree over ``support``.

    Pairs of qubits are merged level by level; the survivor of the final merge
    is the parity root.
    """
    if not support:
        raise SynthesisError("cannot build a parity tree over an empty support")
    gates: list[Gate] = []
    active = list(support)
    while len(active) > 1:
        survivors: list[int] = []
        for index in range(0, len(active) - 1, 2):
            control, target = active[index], active[index + 1]
            gates.append(Gate("cx", (control, target)))
            survivors.append(target)
        if len(active) % 2 == 1:
            survivors.append(active[-1])
        active = survivors
    return gates, active[0]


def synthesize_pauli_rotation(term: PauliTerm, tree: str = "chain", into=None):
    """Synthesize ``exp(-i * coefficient / 2 * P)``.

    With ``into=None`` a standalone :class:`QuantumCircuit` is returned.
    ``into`` may be any gate sink with ``append``/``extend`` (another
    circuit, say), in which case the V-shaped block is appended to it and
    the sink is returned.
    """
    pauli = term.pauli
    sink = into if into is not None else QuantumCircuit(pauli.num_qubits)
    if pauli.is_identity():
        # Identity rotations are global phases; nothing to synthesize.
        return sink
    sign = pauli.sign
    if sign not in (1, -1):
        raise SynthesisError(f"cannot exponentiate a non-Hermitian Pauli {pauli!r}")
    angle = term.coefficient if sign == 1 else -term.coefficient

    basis = basis_change_gates(pauli)
    support = pauli.support
    if tree == "chain":
        tree_gates, root = cnot_chain_gates(support)
    elif tree == "balanced":
        tree_gates, root = cnot_balanced_tree_gates(support)
    else:
        raise SynthesisError(f"unknown tree style {tree!r}")

    sink.extend(basis)
    sink.extend(tree_gates)
    sink.append(Gate("rz", (root,), (float(angle),)))
    sink.extend(gate.inverse() for gate in reversed(tree_gates))
    sink.extend(gate.inverse() for gate in reversed(basis))
    return sink
