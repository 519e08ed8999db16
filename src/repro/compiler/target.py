"""Device description consumed by device-aware passes.

A :class:`Target` bundles what the compiler needs to know about the machine it
is compiling for: qubit count, connectivity (a
:class:`~repro.transpile.coupling.CouplingMap`, ``None`` meaning all-to-all)
and the native basis-gate set.  The evaluation devices of the paper's Fig. 11
are available as named factories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import SINGLE_QUBIT_GATES, TWO_QUBIT_GATES
from repro.exceptions import CompilerError
from repro.transpile.coupling import CouplingMap

#: the default native gate set assumed when a device does not specify one —
#: everything the circuit substrate can express, so the default never rejects
DEFAULT_BASIS_GATES = frozenset(SINGLE_QUBIT_GATES | TWO_QUBIT_GATES)


@dataclass(frozen=True)
class Target:
    """What the compiler knows about the device it is compiling for."""

    num_qubits: int
    coupling: CouplingMap | None = None
    basis_gates: frozenset[str] = field(default=DEFAULT_BASIS_GATES)
    name: str = "generic"

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise CompilerError("a target needs at least one qubit")
        if self.coupling is not None and self.coupling.num_qubits != self.num_qubits:
            raise CompilerError(
                f"target has {self.num_qubits} qubits but its coupling map has "
                f"{self.coupling.num_qubits}"
            )

    # ------------------------------------------------------------------ #
    @property
    def is_fully_connected(self) -> bool:
        """True when any qubit pair may interact directly."""
        if self.coupling is None:
            return True
        num_pairs = self.num_qubits * (self.num_qubits - 1) // 2
        return len(self.coupling.edges) >= num_pairs

    def supports_gate(self, gate_name: str) -> bool:
        return gate_name in self.basis_gates

    def validate_circuit(self, circuit: QuantumCircuit) -> None:
        """Raise when ``circuit`` cannot possibly fit on this target."""
        if circuit.num_qubits > self.num_qubits:
            raise CompilerError(
                f"circuit needs {circuit.num_qubits} qubits, "
                f"target {self.name!r} has {self.num_qubits}"
            )
        unsupported = {g.name for g in circuit} - self.basis_gates
        if unsupported:
            raise CompilerError(
                f"circuit uses gates outside target {self.name!r}'s basis: "
                f"{sorted(unsupported)}"
            )

    def __repr__(self) -> str:
        connectivity = "all-to-all" if self.coupling is None else self.coupling.name
        return f"Target({self.name!r}, qubits={self.num_qubits}, coupling={connectivity})"

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coupling(cls, coupling: CouplingMap, basis_gates: frozenset[str] | None = None) -> "Target":
        return cls(
            num_qubits=coupling.num_qubits,
            coupling=coupling,
            basis_gates=DEFAULT_BASIS_GATES if basis_gates is None else basis_gates,
            name=coupling.name,
        )

    @classmethod
    def fully_connected(cls, num_qubits: int) -> "Target":
        return cls(num_qubits=num_qubits, coupling=None, name=f"full-{num_qubits}")

    @classmethod
    def sycamore(cls) -> "Target":
        """The 64-qubit 2-D grid stand-in for Google Sycamore (Fig. 11)."""
        return cls.from_coupling(CouplingMap.sycamore())

    @classmethod
    def ibm_manhattan(cls) -> "Target":
        """The 65-qubit heavy-hex stand-in for IBM Manhattan (Fig. 11)."""
        return cls.from_coupling(CouplingMap.ibm_manhattan())

    @classmethod
    def named(cls, name: str) -> "Target":
        """Resolve one of the known device names."""
        factories = {
            "sycamore": cls.sycamore,
            "sycamore-64": cls.sycamore,
            "ibm-manhattan": cls.ibm_manhattan,
            "ibm-manhattan-65": cls.ibm_manhattan,
        }
        try:
            return factories[name.strip().lower()]()
        except KeyError as error:
            raise CompilerError(
                f"unknown target {name!r}; available: {sorted(set(factories))}"
            ) from error


def as_target(target: "Target | CouplingMap | str | None") -> "Target | None":
    """Normalize the ``target=`` argument accepted by the public API."""
    if target is None or isinstance(target, Target):
        return target
    if isinstance(target, CouplingMap):
        return Target.from_coupling(target)
    if isinstance(target, str):
        return Target.named(target)
    raise CompilerError(f"cannot interpret {target!r} as a compilation target")
