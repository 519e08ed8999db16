"""OpenQASM 2.0 export / import for interoperability with other toolchains.

QuCLEAR is platform independent: the optimized circuit can be executed by any
quantum software stack.  This module serialises :class:`QuantumCircuit`
objects to OpenQASM 2.0 (the lowest common denominator understood by Qiskit,
tket, Cirq importers, ...) and parses the same subset back.
"""

from __future__ import annotations

import math
import re

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate, cached_gate
from repro.exceptions import CircuitError

_QASM_NAMES = {
    "i": "id",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "s",
    "sdg": "sdg",
    "sx": "sx",
    "sxdg": "sxdg",
    "cx": "cx",
    "cz": "cz",
    "swap": "swap",
    "rz": "rz",
    "rx": "rx",
    "ry": "ry",
    "rzz": "rzz",
}
_REVERSE_NAMES = {value: key for key, value in _QASM_NAMES.items()}

_STATEMENT = re.compile(
    r"^(?P<name>[a-z]+)\s*(?:\((?P<params>[^)]*)\))?\s+(?P<operands>.+?);$"
)
_OPERAND = re.compile(r"q\[(\d+)\]")


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise a circuit to an OpenQASM 2.0 program string."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for gate in circuit:
        if gate.name not in _QASM_NAMES:
            raise CircuitError(f"gate {gate.name!r} has no OpenQASM 2.0 spelling")
        name = _QASM_NAMES[gate.name]
        params = f"({', '.join(repr(p) for p in gate.params)})" if gate.params else ""
        operands = ", ".join(f"q[{qubit}]" for qubit in gate.qubits)
        lines.append(f"{name}{params} {operands};")
    return "\n".join(lines) + "\n"


#: statement prefixes that carry no gate (skipped by the parser)
_SKIPPED_PREFIXES = ("OPENQASM", "include", "creg", "barrier", "measure")


def from_qasm(text: str) -> QuantumCircuit:
    """Parse the OpenQASM 2.0 subset produced by :func:`to_qasm`.

    Artifacts and templates stored as ``repro.circuit/v1`` carry their
    circuits as QASM text and decode through here, so the common statement
    shape — ``name q[i];`` / ``name(angle) q[i], q[j];`` with plain float
    literals — is handled with string splitting and interned parameterless
    gates; the regex/expression machinery remains as the fallback for
    hand-written programs (``pi``-expressions, odd whitespace).
    """
    num_qubits: int | None = None
    gates: list[Gate] = []
    reverse_names = _REVERSE_NAMES
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if "//" in line:
            line = line.split("//")[0].strip()
            if not line:
                continue
        if line.startswith(_SKIPPED_PREFIXES):
            continue
        if line.startswith("qreg"):
            match = re.search(r"qreg\s+\w+\[(\d+)\];", line)
            if match is None:
                raise CircuitError(f"cannot parse register declaration {line!r}")
            num_qubits = int(match.group(1))
            continue
        gate = _parse_statement_fast(line, reverse_names)
        if gate is None:
            gate = _parse_statement_slow(line)
        gates.append(gate)
    if num_qubits is None:
        raise CircuitError("the OpenQASM program declares no quantum register")
    return QuantumCircuit(num_qubits, gates)


def _parse_statement_fast(line: str, reverse_names: dict) -> Gate | None:
    """Parse one canonical ``to_qasm``-shaped statement, or None to fall back."""
    if not line.endswith(";"):
        return None
    body = line[:-1]
    params: tuple[float, ...] = ()
    head, sep, operands = body.partition(" ")
    if "(" in head:
        name_text, _, params_text = head.partition("(")
        if not params_text.endswith(")"):
            return None
        try:
            params = (float(params_text[:-1]),)
        except ValueError:
            return None
    else:
        name_text = head
    name = reverse_names.get(name_text)
    if name is None or not sep:
        return None
    qubits = []
    for token in operands.split(","):
        token = token.strip()
        if not (token.startswith("q[") and token.endswith("]")):
            return None
        try:
            qubits.append(int(token[2:-1]))
        except ValueError:
            return None
    try:
        if params:
            return Gate(name, tuple(qubits), params)
        return cached_gate(name, tuple(qubits))
    except CircuitError:
        return None


def _parse_statement_slow(line: str) -> Gate:
    """The general regex/expression parser (``pi`` arithmetic, odd spacing)."""
    match = _STATEMENT.match(line)
    if match is None:
        raise CircuitError(f"cannot parse OpenQASM statement {line!r}")
    qasm_name = match.group("name")
    if qasm_name not in _REVERSE_NAMES:
        raise CircuitError(f"unsupported OpenQASM gate {qasm_name!r}")
    params_text = match.group("params")
    params: tuple[float, ...] = ()
    if params_text:
        params = tuple(_evaluate_parameter(p) for p in params_text.split(","))
    qubits = tuple(int(index) for index in _OPERAND.findall(match.group("operands")))
    return Gate(_REVERSE_NAMES[qasm_name], qubits, params)


def _evaluate_parameter(text: str) -> float:
    """Evaluate a numeric OpenQASM parameter expression (numbers and ``pi``)."""
    cleaned = text.strip()
    if not re.fullmatch(r"[0-9eE+\-*/(). pi]*", cleaned):
        raise CircuitError(f"unsupported parameter expression {text!r}")
    try:
        return float(eval(cleaned, {"__builtins__": {}}, {"pi": math.pi}))
    except Exception as error:
        raise CircuitError(f"cannot evaluate parameter expression {text!r}") from error
