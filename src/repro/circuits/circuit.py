"""The :class:`QuantumCircuit` container and its structural metrics."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.circuits.gate import CX_EQUIVALENT_WEIGHT, Gate
from repro.exceptions import CircuitError


class QuantumCircuit:
    """An ordered list of gates on a fixed number of qubits.

    The class intentionally mirrors the small subset of the Qiskit
    ``QuantumCircuit`` API that the QuCLEAR pipeline needs: gate-append
    helpers, composition, inversion and the structural metrics reported in the
    paper (CNOT count, entangling depth, single-qubit gate count).
    """

    def __init__(self, num_qubits: int, gates: Iterable[Gate] | None = None):
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._gates: list[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------ #
    # Basic container behaviour
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def gates(self) -> list[Gate]:
        """The live gate list — NOT a copy; treat as read-only.

        Every hot loop that reads ``circuit.gates`` used to pay an O(gates)
        list copy per access.  Mutation must go through :meth:`append` /
        :meth:`extend` (which bounds-check); callers that need an independent
        mutable list should take ``list(circuit)`` explicitly.
        """
        return self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self._num_qubits == other._num_qubits and self._gates == other._gates

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(num_qubits={self._num_qubits}, "
            f"gates={len(self._gates)}, cx={self.cx_count()})"
        )

    def copy(self) -> "QuantumCircuit":
        clone = QuantumCircuit(self._num_qubits)
        clone._gates = list(self._gates)
        return clone

    # ------------------------------------------------------------------ #
    # Gate appending
    # ------------------------------------------------------------------ #
    def append(self, gate: Gate) -> "QuantumCircuit":
        for qubit in gate.qubits:
            if not 0 <= qubit < self._num_qubits:
                raise CircuitError(
                    f"gate {gate!r} addresses qubit {qubit} outside 0..{self._num_qubits - 1}"
                )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        for gate in gates:
            self.append(gate)
        return self

    def i(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("i", (qubit,)))

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("x", (qubit,)))

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("y", (qubit,)))

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("z", (qubit,)))

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("h", (qubit,)))

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("s", (qubit,)))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("sdg", (qubit,)))

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("sx", (qubit,)))

    def sxdg(self, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("sxdg", (qubit,)))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("rz", (qubit,), (float(theta),)))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("rx", (qubit,), (float(theta),)))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.append(Gate("ry", (qubit,), (float(theta),)))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(Gate("cx", (control, target)))

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(Gate("cz", (control, target)))

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(Gate("swap", (qubit_a, qubit_b)))

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.append(Gate("rzz", (qubit_a, qubit_b), (float(theta),)))

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #
    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit running ``self`` first, then ``other``."""
        if other.num_qubits != self._num_qubits:
            raise CircuitError(
                f"cannot compose circuits on {self._num_qubits} and {other.num_qubits} qubits"
            )
        combined = self.copy()
        combined._gates.extend(other._gates)
        return combined

    def inverse(self) -> "QuantumCircuit":
        """The inverse circuit (gates reversed, each inverted)."""
        inverted = QuantumCircuit(self._num_qubits)
        inverted._gates = [gate.inverse() for gate in reversed(self._gates)]
        return inverted

    def remapped(self, mapping: dict[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Translate every gate's qubits through ``mapping``."""
        target_size = num_qubits if num_qubits is not None else self._num_qubits
        remapped = QuantumCircuit(target_size)
        for gate in self._gates:
            remapped.append(gate.remapped(mapping))
        return remapped

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(gate.name for gate in self._gates)

    def cx_count(self) -> int:
        """Number of CNOT-equivalent two-qubit gates (SWAP counts as 3)."""
        weights = CX_EQUIVALENT_WEIGHT
        total = 0
        for gate in self._gates:
            weight = weights.get(gate.name)
            if weight is not None:
                total += weight
        return total

    def single_qubit_count(self) -> int:
        """Number of single-qubit gate instances (identities excluded)."""
        return sum(1 for gate in self._gates if gate.num_qubits == 1 and gate.name != "i")

    def depth(self, entangling_only: bool = False) -> int:
        """Circuit depth; with ``entangling_only`` count only two-qubit layers."""
        levels = [0] * self._num_qubits
        for gate in self._gates:
            if entangling_only and gate.num_qubits < 2:
                continue
            start = max(levels[q] for q in gate.qubits)
            for qubit in gate.qubits:
                levels[qubit] = start + 1
        return max(levels) if levels else 0

    def entangling_depth(self) -> int:
        """Depth counting only entangling (two-qubit) gates."""
        return self.depth(entangling_only=True)

    def num_parameters(self) -> int:
        """Number of parameterised rotation gates."""
        return sum(1 for gate in self._gates if gate.params)

    def used_qubits(self) -> list[int]:
        """Sorted list of qubits touched by at least one gate."""
        touched = set()
        for gate in self._gates:
            touched.update(gate.qubits)
        return sorted(touched)

    def metrics(self) -> dict[str, int]:
        """Bundle of the metrics reported in the paper's tables."""
        return {
            "num_qubits": self._num_qubits,
            "total_gates": len(self._gates),
            "cx_count": self.cx_count(),
            "single_qubit_count": self.single_qubit_count(),
            "depth": self.depth(),
            "entangling_depth": self.entangling_depth(),
        }

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trusted_gates(cls, num_qubits: int, gates: list[Gate]) -> "QuantumCircuit":
        """Adopt ``gates`` without per-gate bounds checks (and without copying).

        For producers that already guarantee every gate addresses qubits in
        ``0..num_qubits-1`` — the synthesis passes build circuits from gates
        they generated themselves, where re-validating each append is pure
        overhead.  Ownership of the list transfers to the circuit.
        """
        circuit = cls(num_qubits)
        circuit._gates = gates
        return circuit

