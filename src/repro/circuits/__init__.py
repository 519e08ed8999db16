"""Gate-level circuit substrate.

This sub-package replaces the Qiskit dependency of the original QuCLEAR
artifact: it provides a minimal but complete gate model (:class:`Gate`),
a :class:`QuantumCircuit` container with the metrics used throughout the
paper's evaluation (CNOT count, entangling depth, single-qubit count), and a
dense :class:`Statevector` simulator used by the correctness tests and the
hybrid-execution examples.
"""

from repro.circuits.gate import Gate, GATE_DEFINITIONS
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import from_qasm, to_qasm
from repro.circuits.statevector import Statevector

__all__ = [
    "Gate",
    "GATE_DEFINITIONS",
    "QuantumCircuit",
    "Statevector",
    "from_qasm",
    "to_qasm",
]
