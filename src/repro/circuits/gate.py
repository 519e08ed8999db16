"""Gate primitives used by :class:`repro.circuits.QuantumCircuit`.

Only the gates actually needed by the QuCLEAR pipeline and its baselines are
defined: the Clifford generators (H, S, S†, X, Y, Z, CX, CZ, SWAP), the
parameterised rotations (RZ, RX, RY) and the combined square-root-of-X gates
(SX, SX†) used when changing measurement bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.exceptions import CircuitError

#: names of gates that act on exactly one qubit
SINGLE_QUBIT_GATES = frozenset(
    {"i", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "rz", "rx", "ry"}
)

#: names of gates that act on exactly two qubits
TWO_QUBIT_GATES = frozenset({"cx", "cz", "swap", "rzz"})

#: Clifford gates (no free parameters)
CLIFFORD_GATES = frozenset(
    {"i", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "cx", "cz", "swap"}
)

#: CNOT-equivalent cost per two-qubit gate, the weighting behind every
#: ``cx_count`` metric in the evaluation (SWAP decomposes into 3 CNOTs)
CX_EQUIVALENT_WEIGHT = {"cx": 1, "cz": 1, "rzz": 1, "swap": 3}

_INVERSE_NAME = {
    "i": "i",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "sdg",
    "sdg": "s",
    "sx": "sxdg",
    "sxdg": "sx",
    "cx": "cx",
    "cz": "cz",
    "swap": "swap",
}


def _rotation_matrix(axis: str, theta: float) -> np.ndarray:
    half = theta / 2.0
    cos = math.cos(half)
    sin = math.sin(half)
    if axis == "z":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)
    if axis == "x":
        return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)
    if axis == "y":
        return np.array([[cos, -sin], [sin, cos]], dtype=complex)
    raise CircuitError(f"unknown rotation axis {axis!r}")


#: matrices of the fixed (non-parameterised) gates
GATE_DEFINITIONS: dict[str, np.ndarray] = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "sx": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    "sxdg": np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
    # Little-endian: the first listed qubit (the control) is the least
    # significant bit of the 4x4 basis ordering |q1 q0>.
    "cx": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


@dataclass(frozen=True)
class Gate:
    """A single gate instance applied to specific qubits.

    Attributes
    ----------
    name:
        Lower-case gate name (``"h"``, ``"cx"``, ``"rz"``, ...).
    qubits:
        Target qubits.  For ``cx`` the first entry is the control and the
        second the target.
    params:
        Rotation angles for parameterised gates, empty otherwise.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        name = self.name
        if name in SINGLE_QUBIT_GATES:
            expected = 1
        elif name in TWO_QUBIT_GATES:
            expected = 2
        else:
            raise CircuitError(f"unsupported gate name {name!r}")
        if len(self.qubits) != expected:
            raise CircuitError(
                f"gate {name!r} expects {expected} qubit(s), got {self.qubits!r}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"gate {name!r} has repeated qubits {self.qubits!r}")
        if name in ("rz", "rx", "ry", "rzz"):
            if len(self.params) != 1:
                raise CircuitError(f"gate {name!r} requires exactly one angle")
        elif self.params:
            raise CircuitError(f"gate {name!r} takes no parameters")

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_clifford(self) -> bool:
        return self.name in CLIFFORD_GATES

    @property
    def is_diagonal(self) -> bool:
        """True when the gate is diagonal in the computational basis."""
        return self.name in ("i", "z", "s", "sdg", "rz", "cz", "rzz")

    def inverse(self) -> "Gate":
        """The inverse gate."""
        if self.name in _INVERSE_NAME:
            return cached_gate(_INVERSE_NAME[self.name], self.qubits)
        if self.name in ("rz", "rx", "ry", "rzz"):
            return Gate(self.name, self.qubits, (-self.params[0],))
        raise CircuitError(f"cannot invert gate {self.name!r}")

    def matrix(self) -> np.ndarray:
        """The gate's unitary matrix on its own qubits (little-endian)."""
        if self.name in GATE_DEFINITIONS:
            return GATE_DEFINITIONS[self.name].copy()
        if self.name in ("rz", "rx", "ry"):
            return _rotation_matrix(self.name[1], self.params[0])
        if self.name == "rzz":
            half = self.params[0] / 2.0
            return np.diag(
                [
                    np.exp(-1j * half),
                    np.exp(1j * half),
                    np.exp(1j * half),
                    np.exp(-1j * half),
                ]
            ).astype(complex)
        raise CircuitError(f"no matrix available for gate {self.name!r}")

    def remapped(self, mapping: dict[int, int]) -> "Gate":
        """A copy of the gate with its qubits translated through ``mapping``."""
        return Gate(self.name, tuple(mapping[q] for q in self.qubits), self.params)

    def __repr__(self) -> str:
        if self.params:
            params = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({params}) {list(self.qubits)}"
        return f"{self.name} {list(self.qubits)}"


def trusted_gate(name: str, qubits: Tuple[int, ...], params: Tuple[float, ...] = ()) -> Gate:
    """A :class:`Gate` built without running its validation.

    Value-identical to ``Gate(name, qubits, params)`` — ``__post_init__``
    only validates — for hot loops whose gates are valid by construction
    (the rotation of every extracted term).  The fields are set one by one,
    as the frozen dataclass ``__init__`` does: filling ``__dict__`` in one
    ``update`` would make the instance keep a full dict (248 instead of 104
    bytes per gate).
    """
    gate = _new_object(Gate)
    _set_field(gate, "name", name)
    _set_field(gate, "qubits", qubits)
    _set_field(gate, "params", params)
    return gate


_new_object = object.__new__
_set_field = object.__setattr__


@lru_cache(maxsize=None)
def cached_gate(name: str, qubits: Tuple[int, ...]) -> Gate:
    """An interned parameterless :class:`Gate` instance.

    Gates are frozen and value-compared, so sharing instances is safe; the
    synthesis hot loops emit the same small set of ``h``/``sdg``/``cx`` gates
    over and over, and interning skips the dataclass construction +
    validation cost on every repeat.  Parameterised gates (rotations) carry
    float angles and are deliberately not interned.
    """
    return Gate(name, qubits)
