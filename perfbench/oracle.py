"""Correctness oracles: an in-place statevector and output digests.

The Table III oracle simulates the naive circuit (one V-shaped block per
Pauli rotation, ``synthesize_trotter_circuit``) and the compiled circuit
followed by its extracted Clifford tail on the same seeded random state, and
requires the two states to agree up to a global phase.  The repository's own
``Statevector`` does the same but reshapes and copies the whole state per
gate, which at 20 qubits costs tens of seconds per row; the simulator here
updates half- or quarter-views of one array in place.  ``check_simulator``
pins it to the repository's ``Statevector`` on a random small circuit.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: 1 - |<a|b>| above this is a mismatch (complex128, thousands of gates)
TOLERANCE = 1e-8

_DIAGONAL_1Q = frozenset({"i", "z", "s", "sdg", "rz"})


def apply_gates(state: np.ndarray, gates) -> np.ndarray:
    """Apply ``gates`` to ``state`` in place (qubit 0 least significant).

    Hadamards are applied unnormalized and the state is rescaled by exact
    powers of two, so only the direction of the result is meaningful.
    """
    scratch = np.empty(state.size // 2, dtype=state.dtype)
    unscaled = 0
    for gate in gates:
        name, qubits = gate.name, gate.qubits
        if len(qubits) == 1:
            view = state.reshape(-1, 2, 1 << qubits[0])
            low, high = view[:, 0, :], view[:, 1, :]
            if name == "h":
                buffer = scratch.reshape(low.shape)
                np.add(low, high, out=buffer)
                np.subtract(low, high, out=high)
                np.copyto(low, buffer)
                unscaled += 1
                if unscaled == 64:
                    state *= 2.0 ** -32
                    unscaled = 0
            elif name in _DIAGONAL_1Q:
                matrix = gate.matrix()
                if matrix[0, 0] != 1:
                    low *= matrix[0, 0]
                if matrix[1, 1] != 1:
                    high *= matrix[1, 1]
            else:
                matrix = gate.matrix()
                buffer = scratch.reshape(low.shape)
                np.copyto(buffer, low)
                low *= matrix[0, 0]
                low += matrix[0, 1] * high
                high *= matrix[1, 1]
                high += matrix[1, 0] * buffer
            continue
        first, second = qubits
        top, bottom = max(first, second), min(first, second)
        view = state.reshape(-1, 2, 1 << (top - bottom - 1), 2, 1 << bottom)

        def part(bit_first: int, bit_second: int):
            index = [slice(None)] * 5
            index[1 if first == top else 3] = bit_first
            index[1 if second == top else 3] = bit_second
            return view[tuple(index)]

        if name == "cx":
            flip_off, flip_on = part(1, 0), part(1, 1)
            buffer = scratch[: state.size // 4].reshape(flip_off.shape)
            np.copyto(buffer, flip_off)
            np.copyto(flip_off, flip_on)
            np.copyto(flip_on, buffer)
        elif name == "cz":
            part(1, 1)[...] *= -1
        else:
            # generic two-qubit gate; matrix index = 2 * bit(second) + bit(first)
            matrix = gate.matrix()
            parts = [part(k & 1, k >> 1).copy() for k in range(4)]
            for row in range(4):
                out = part(row & 1, row >> 1)
                out[...] = 0
                for column in range(4):
                    if matrix[row, column] != 0:
                        out += matrix[row, column] * parts[column]
    return state


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = 1 << num_qubits
    state = rng.normal(size=size) + 1j * rng.normal(size=size)
    return state / np.linalg.norm(state)


def states_agree(first: np.ndarray, second: np.ndarray) -> bool:
    """Equal up to a global phase (and the Hadamard normalization)."""
    first = first / np.linalg.norm(first)
    second = second / np.linalg.norm(second)
    return bool(1.0 - abs(np.vdot(first, second)) < TOLERANCE)


def evolve(task: tuple) -> np.ndarray:
    """``(num_qubits, gates or terms, seed)`` -> the evolved random state.

    Runs in a worker process.  Given Pauli terms instead of gates, it evolves
    the naive circuit ``synthesize_trotter_circuit(terms)``: the reference.
    """
    from repro.paulis.term import PauliTerm
    from repro.synthesis.trotter import synthesize_trotter_circuit

    num_qubits, gates, seed = task
    if gates and isinstance(gates[0], PauliTerm):
        gates = synthesize_trotter_circuit(gates).gates
    return apply_gates(random_state(num_qubits, seed), gates)


def recompile(terms) -> str:
    """The circuit digest of an in-process compile."""
    import repro

    return circuit_digest(repro.compile(terms, level=3))


def check_simulator(seed: int) -> bool:
    """The in-place simulator agrees with the repository's ``Statevector``."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.gate import Gate
    from repro.circuits.statevector import Statevector

    rng = np.random.default_rng(seed)
    num_qubits = 5
    names = ["h", "s", "sdg", "sx", "sxdg", "x", "rz", "cx", "cz", "swap", "rzz"]
    gates = []
    for _ in range(200):
        name = names[int(rng.integers(len(names)))]
        pair = tuple(int(q) for q in rng.choice(num_qubits, 2, replace=False))
        if name in ("cx", "cz", "swap"):
            gates.append(Gate(name, pair))
        elif name == "rzz":
            gates.append(Gate(name, pair, (float(rng.normal()),)))
        elif name == "rz":
            gates.append(Gate(name, pair[:1], (float(rng.normal()),)))
        else:
            gates.append(Gate(name, pair[:1]))
    start = random_state(num_qubits, seed)
    expected = Statevector(num_qubits, start)
    expected.apply_circuit(QuantumCircuit(num_qubits, gates))
    return states_agree(expected.data, apply_gates(start.copy(), gates))


# ---------------------------------------------------------------------- #
def circuit_digest(result) -> str:
    """SHA-256 over the gates of the circuit and of the extracted tail."""
    digest = hashlib.sha256()
    for circuit in (result.circuit, result.extracted_clifford):
        if circuit is not None:
            digest.update(repr([(g.name, g.qubits, g.params) for g in circuit.gates]).encode())
        digest.update(b"|")
    return digest.hexdigest()


def program_digest(terms) -> str:
    """SHA-256 over the Pauli labels and exact coefficients of a program."""
    return hashlib.sha256(
        repr([(t.pauli.to_label(), t.coefficient) for t in terms]).encode()
    ).hexdigest()


def same_gates(first, second) -> bool:
    """Gate-for-gate equality of two results' circuits and tails."""
    return (
        first.circuit.gates == second.circuit.gates
        and (first.extracted_clifford is None) == (second.extracted_clifford is None)
        and (
            first.extracted_clifford is None
            or first.extracted_clifford.gates == second.extracted_clifford.gates
        )
    )
