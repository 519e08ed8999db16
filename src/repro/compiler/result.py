"""The unified result type returned by every registered compiler pipeline.

Every pipeline in the :class:`~repro.compiler.registry.CompilerRegistry` —
QuCLEAR presets and baselines alike — produces the same object, so the
evaluation harness never has to branch on the compiler kind.

Pipelines that perform Clifford Extraction populate :attr:`extracted_clifford`
and :attr:`extraction`; direct-synthesis pipelines leave them ``None`` and the
absorption helpers raise :class:`~repro.exceptions.CompilerError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.context import PropertySet
from repro.exceptions import CompilerError
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.core.absorption import (
        AbsorbedObservable,
        ObservableAbsorber,
        ProbabilityAbsorber,
    )
    from repro.core.extraction import ExtractionResult


@dataclass
class CompilationResult:
    """Everything produced by one compiler-pipeline run.

    Attributes
    ----------
    circuit:
        The circuit that has to execute on quantum hardware.
    extracted_clifford:
        The Clifford tail handled classically by Clifford Absorption, or
        ``None`` when the pipeline performed no extraction.
    extraction:
        The underlying :class:`~repro.core.extraction.ExtractionResult`
        (conjugation tableau, metadata, ...), when available.
    compile_seconds:
        Wall-clock time of the full pipeline run.
    name:
        Name of the pipeline that produced the result (``"quclear"``,
        ``"qiskit-like"``, ...).
    metadata:
        Free-form per-run information; pipelines always record the per-pass
        wall-clock breakdown under ``metadata["pass_timings"]``.
    properties:
        The :class:`~repro.compiler.context.PropertySet` accumulated by the
        passes (conjugation tableau, absorbers, routing result, ...).
    """

    circuit: QuantumCircuit
    extracted_clifford: QuantumCircuit | None = None
    extraction: "ExtractionResult | None" = None
    compile_seconds: float = 0.0
    name: str = "quclear"
    metadata: dict = field(default_factory=dict)
    properties: PropertySet = field(default_factory=PropertySet)

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    def cx_count(self) -> int:
        return self.circuit.cx_count()

    def entangling_depth(self) -> int:
        return self.circuit.entangling_depth()

    @property
    def pass_timings(self) -> dict[str, float]:
        """Per-pass wall-clock seconds recorded by the pipeline, in run order."""
        return self.metadata.get("pass_timings", {})

    def metrics(self) -> dict[str, float]:
        """The metrics reported in the paper's Table III."""
        return {
            "cx_count": self.circuit.cx_count(),
            "entangling_depth": self.circuit.entangling_depth(),
            "single_qubit_count": self.circuit.single_qubit_count(),
            "compile_seconds": self.compile_seconds,
        }

    # ------------------------------------------------------------------ #
    # Wire serialization (the service substrate)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """This result as a JSON-safe wire payload.

        Circuits travel as opcode / qubit / angle arrays
        (``repro.circuit/v2``), the conjugation tableau as its packed
        generator rows, metadata and pass timings bit-exactly;
        :meth:`from_dict` reverses it.  ``properties`` stay behind — they
        hold process-local machinery (conjugation caches, lazy absorbers)
        that the receiving side rebuilds on demand.  See
        :mod:`repro.service.serialize` for the format definition.
        """
        from repro.service.serialize import result_to_wire

        return result_to_wire(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CompilationResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        from repro.service.serialize import result_from_wire

        return result_from_wire(payload)

    # ------------------------------------------------------------------ #
    # Clifford Absorption helpers (extraction-based pipelines only)
    # ------------------------------------------------------------------ #
    def _require_extraction(self) -> "ExtractionResult":
        if self.extraction is None:
            raise CompilerError(
                f"pipeline {self.name!r} performed no Clifford Extraction; "
                "absorption helpers are unavailable"
            )
        if self.metadata.get("routed"):
            raise CompilerError(
                "the circuit was routed to a device, so its outcomes are "
                "permuted by the final layout; the logical-space Clifford "
                "absorption helpers would give wrong answers — compile "
                "without a target for absorption workflows"
            )
        return self.extraction

    def observable_absorber(self) -> "ObservableAbsorber":
        """CA module for observable (expectation-value) workloads."""
        extraction = self._require_extraction()
        cached = self.properties.get("observable_absorber")
        if cached is not None:
            return cached
        from repro.core.absorption import ObservableAbsorber

        absorber = ObservableAbsorber(
            extraction.conjugation, cache=self.properties["conjugation_cache"]
        )
        self.properties["observable_absorber"] = absorber
        return absorber

    def absorb_observables(
        self, observables: Iterable[PauliString] | SparsePauliSum
    ) -> "list[AbsorbedObservable]":
        absorber = self.observable_absorber()
        if isinstance(observables, SparsePauliSum):
            return absorber.absorb_table(observables)
        return absorber.absorb_all(observables)

    def probability_absorber(self) -> "ProbabilityAbsorber":
        """CA module for probability-distribution (QAOA) workloads."""
        self._require_extraction()
        cached = self.properties.get("probability_absorber")
        if cached is not None:
            return cached
        from repro.core.absorption import build_probability_absorber

        absorber = build_probability_absorber(self.extracted_clifford)
        self.properties["probability_absorber"] = absorber
        return absorber
