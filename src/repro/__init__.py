"""Reproduction of *QuCLEAR: Clifford Extraction and Absorption for Quantum
Circuit Optimization* (HPCA 2025).

The public API centers on the composable pass-pipeline compiler:

* :func:`repro.compile` — the one-call entry point: pick a preset
  ``level`` (0..3, 3 = the full QuCLEAR flow), an optional device
  :class:`~repro.compiler.Target`, or any registered pipeline.
* :func:`repro.compile_many` — the batch entry point: compile independent
  programs serially with a shared conjugation-tableau cache, or on a
  :class:`~repro.compiler.CompilePool` when the batch is large enough.
* :mod:`repro.compiler` — the pass/pipeline machinery: :class:`Pipeline`,
  :class:`Target`, the :class:`CompilerRegistry` (QuCLEAR *and* every
  baseline under one roof), and the individual passes.
* :class:`PauliString`, :class:`PauliTerm`, :class:`SparsePauliSum` — the
  Pauli-string program representation, thin views over the bit-packed
  symplectic store (:class:`PackedPauliTable`, 64 qubits per ``uint64``
  word) that the vectorized Clifford-conjugation engine operates on.
* :class:`QuantumCircuit`, :class:`Statevector` — the circuit substrate.
* :mod:`repro.parametric` — template compilation for VQE/QAOA traffic:
  :func:`repro.compile_template` runs the pipeline once per ansatz
  structure, :meth:`CompiledTemplate.bind` substitutes angles in
  microseconds with results bit-identical to a full compile.
* :mod:`repro.service` — compilation as a service: a versioned wire format
  (``CompilationResult.to_dict()/from_dict()``), a persistent
  content-addressed artifact cache, and a batching HTTP front-end
  (``python -m repro.service``).
* :mod:`repro.workloads` — the benchmark workload generators of Table II.
* :mod:`repro.baselines` — re-implementations of the comparison compilers.

Quick start::

    import repro
    from repro import PauliTerm

    terms = [PauliTerm.from_label("ZZZZ", 0.3), PauliTerm.from_label("YYXX", 0.5)]
    result = repro.compile(terms, level=3)
    print(result.cx_count(), "CNOTs instead of", 12)
    print(result.metadata["pass_timings"])     # per-pass wall-clock breakdown

    # Device-aware compilation (routes to the coupling map):
    routed = repro.compile(terms, target="sycamore")

    # Any registered compiler, one unified result type:
    baseline = repro.compile(terms, pipeline="qiskit-like")
"""

from repro.circuits import Gate, QuantumCircuit, Statevector
from repro.clifford import (
    CliffordTableau,
    ConjugationCache,
    PackedConjugator,
    StabilizerState,
)
from repro.core import (
    CliffordExtractor,
    ExtractionResult,
    LegacyCliffordExtractor,
    ObservableAbsorber,
    ProbabilityAbsorber,
    absorb_observables,
    absorb_probabilities,
)
from repro.paulis import PackedPauliTable, PauliString, PauliTerm, SparsePauliSum
from repro.compiler import (
    CompilationResult,
    CompilerRegistry,
    Pipeline,
    Target,
    compile,
    compile_many,
    get_registry,
    preset_pipeline,
)
from repro.parametric import (
    BoundProgram,
    CompiledTemplate,
    ParametricProgram,
    compile_template,
)

__version__ = "1.3.0"

__all__ = [
    "Gate",
    "QuantumCircuit",
    "Statevector",
    "CliffordTableau",
    "StabilizerState",
    "CliffordExtractor",
    "LegacyCliffordExtractor",
    "CompilationResult",
    "ExtractionResult",
    "ObservableAbsorber",
    "ProbabilityAbsorber",
    "absorb_observables",
    "absorb_probabilities",
    "PackedPauliTable",
    "PauliString",
    "PauliTerm",
    "SparsePauliSum",
    "ConjugationCache",
    "PackedConjugator",
    "CompilerRegistry",
    "Pipeline",
    "Target",
    "compile",
    "compile_many",
    "get_registry",
    "preset_pipeline",
    "BoundProgram",
    "CompiledTemplate",
    "ParametricProgram",
    "compile_template",
    "__version__",
]
