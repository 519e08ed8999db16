"""Template compilation: run the pipeline once, bind angles in microseconds.

Every pass in the preset pipelines is *structurally* driven: commuting-block
grouping, the greedy in-block reordering, tree synthesis, and the extracted
Clifford tail read only the Pauli words — rotation angles appear exclusively
as the ``rz`` parameters on tree roots.  Local rewriting is almost angle-free
too: which rotations merge is decided by the gate structure, and the only
angle-dependent *decision* is dropping a (near-)zero merged rotation.

:func:`compile_template` exploits this: it traces the preset once over a
:class:`~repro.parametric.program.ParametricProgram`, records which input
terms fold into each surviving rotation and in what order (a *merge chain*),
and keeps the angle-free gate skeleton plus the pre-extracted tail and
conjugation tableau.  At levels 2-3 the chains are extraction's own merge
record (:meth:`~repro.core.extraction.CliffordExtractor.trace`, which folds
rotations as it emits and never sums an angle there).  At level 1 the
peephole engine is re-run with *sentinel* coefficients (term ``i`` carries
``float(i + 1)``) that :class:`_SymbolicStream` decodes into chains.
:meth:`CompiledTemplate.bind` then substitutes concrete angles by replaying
only the chain arithmetic — no pass executes, no gate is re-scanned — and the
result is bit-identical to a from-scratch :func:`repro.compile` at the same
angles.

The one case the skeleton cannot reproduce is a *degenerate* binding: a
merged rotation whose angle lands within ``1e-12`` of zero, which the
concrete pipeline would delete (changing the gate structure).  Binding
detects this while replaying the chain prefix sums and transparently falls
back to a full compile, so correctness never depends on the fast path.

Template construction ends with a self-check: one concrete compile at generic
calibration angles is compared gate-for-gate (and tableau-for-tableau)
against the template's own fast bind, so a trace that diverged from the real
pipeline fails loudly at ``compile_template`` time, never at serving time.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.clifford.tableau import CliffordTableau
from repro.compiler.api import compile as _compile_concrete
from repro.compiler.context import PropertySet
from repro.compiler.presets import MAX_OPTIMIZATION_LEVEL
from repro.compiler.result import CompilationResult
from repro.compiler.target import Target, as_target
from repro.core.extraction import CliffordExtractor, ExtractionResult
from repro.exceptions import CompilerError
from repro.parametric.program import ParametricProgram, validate_parameters
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.synthesis.trotter import synthesize_trotter_circuit
from repro.transpile.wire_optimizer import GateStreamOptimizer, merged_angles

#: feature flags of the extraction presets, keyed by optimization level
_EXTRACTION_FLAGS = {
    2: dict(reorder_within_blocks=False, cross_block_lookahead=False),
    3: dict(reorder_within_blocks=True, cross_block_lookahead=True),
}

#: calibration attempts before declaring every binding degenerate
_CALIBRATION_ATTEMPTS = 8


class _SymbolicStream(GateStreamOptimizer):
    """The peephole engine re-run with symbolic rotation angles (level 1).

    Structural behaviour (scans, commutation checks, inverse-pair kills) is
    inherited unchanged; only :meth:`_merge_rotation` is replaced.  A sentinel
    rotation is never normalized, never deleted, and never updates a float —
    instead its decoded ``(term_index, sign)`` entry is appended to the
    surviving node's *merge chain*, recording exactly which input terms the
    concrete engine would sum into that gate, in the same order.

    Rotation nodes are pinned by strong references for the stream's lifetime
    (they are never killed — a rotation only matches other rotations), so the
    ``id``-keyed chain map cannot suffer from recycled ids.
    """

    def __init__(self, num_qubits: int, num_terms: int):
        super().__init__(num_qubits)
        self._num_terms = num_terms
        self._chain_nodes: list = []
        self._chains: dict[int, list[tuple[int, float]]] = {}

    def _merge_rotation(self, gate: Gate, node) -> None:
        entry = _sentinel_entry(gate.params[0], self._num_terms)
        if node is not None:
            self._chains[id(node)].append(entry)
            return
        self._push(gate, 0.0)
        fresh = self._order[-1]
        self._chains[id(fresh)] = [entry]
        self._chain_nodes.append(fresh)

    def finalize(self) -> tuple[list[Gate], list[int], list[list[tuple[int, float]]]]:
        """Surviving gates, rotation positions within them, and their chains."""
        skeleton: list[Gate] = []
        positions: list[int] = []
        chains: list[list[tuple[int, float]]] = []
        for node in self._order:
            if not node.alive:
                continue
            chain = self._chains.get(id(node))
            if chain is not None:
                positions.append(len(skeleton))
                chains.append(chain)
            skeleton.append(node.gate)
        return skeleton, positions, chains


def _sentinel_entry(param: float, num_terms: int) -> tuple[int, float]:
    """Decode a sentinel rotation angle into its ``(term_index, sign)`` entry."""
    code = int(round(param))
    if code == 0 or float(code) != param or abs(code) > num_terms:
        raise CompilerError(
            f"template trace produced a non-sentinel rotation angle {param!r}; "
            "the pipeline must have transformed an angle it was not expected to"
        )
    return abs(code) - 1, 1.0 if code > 0 else -1.0


def _generic_parameters(num_params: int, attempt: int) -> np.ndarray:
    """Deterministic calibration angles, irrational-ish so sums never vanish."""
    golden = 0.6180339887498949
    shift = attempt * 0.0137203
    return np.array(
        [0.25 + 2.0 * (((i + 1) * golden) % 1.0) + shift for i in range(num_params)],
        dtype=np.float64,
    )


class BindReplay(NamedTuple):
    """One binding's per-bind work, as :meth:`CompiledTemplate.replay` left it.

    ``coefficients`` holds one value per input term and ``angles`` one per
    skeleton rotation, in skeleton order; both are ``None`` for a degenerate
    binding, whose full-pipeline result is ``fallback``.
    """

    coefficients: list[float] | None
    angles: list[float] | None
    #: ``time.perf_counter()`` after validation, where compile time starts
    start: float
    fallback: CompilationResult | None


class CompiledTemplate:
    """A pipeline run frozen into an angle-bindable skeleton.

    Produced by :func:`compile_template`.  :meth:`bind` is the in-process
    entry point; it and the service's ``POST /bind`` share :meth:`replay`,
    the validate-and-replay step.  All bindings share the tail circuit,
    conjugation tableau and Pauli rows — results are value-immutable by
    convention, so the sharing is safe and keeps a bind allocation-light.
    """

    def __init__(
        self,
        program: ParametricProgram,
        level: int,
        target: Target | None,
        skeleton: list[Gate],
        positions: list[int],
        chains: list[list[tuple[int, float]]],
        normalize: bool,
        tail: QuantumCircuit | None,
        conjugation: CliffordTableau | None,
        rotation_count: int,
        name: str,
        metadata_base: dict,
        extraction_metadata: dict,
        always_fallback: bool = False,
    ):
        self.program = program
        self.level = int(level)
        self.target = target
        self.name = name
        self.num_qubits = program.num_qubits
        self.num_params = program.num_params
        self.num_terms = program.num_terms
        self._skeleton = skeleton
        self._positions = positions
        self._chains = chains
        self._normalize = bool(normalize)
        self._tail = tail
        self._conjugation = conjugation
        self._rotation_count = int(rotation_count)
        self._metadata_base = metadata_base
        self._extraction_metadata = extraction_metadata
        self._always_fallback = bool(always_fallback)
        #: pauli of each input term, materialized once and shared by every
        #: bind result's ``extraction.terms``
        self._row_paulis = (
            [program.table.row(index) for index in range(program.num_terms)]
            if tail is not None
            else []
        )
        self.binds = 0
        self.fallback_binds = 0
        #: the service's pre-encoded bound result
        #: (:func:`repro.service.serialize.bound_result_skeleton`), built at
        #: the first non-degenerate ``POST /bind`` and freed with the template
        self._bound_skeleton = None

    # ------------------------------------------------------------------ #
    @property
    def skeleton_gate_count(self) -> int:
        return len(self._skeleton)

    @property
    def rotation_count(self) -> int:
        return self._rotation_count

    def __repr__(self) -> str:
        return (
            f"CompiledTemplate({self.program!r}, level={self.level}, "
            f"name={self.name!r}, {len(self._skeleton)} gates)"
        )

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, params: Sequence[float] | np.ndarray) -> CompilationResult:
        """Compile this template at concrete angles.

        Runs :meth:`replay` and stitches the skeleton into a fresh
        :class:`~repro.compiler.result.CompilationResult` — bit-identical to
        ``repro.compile`` of the bound program.  Degenerate bindings (a
        merged rotation within ``1e-12`` of zero, which the concrete pipeline
        would delete) return the full pipeline's result instead.
        """
        replay = self.replay(params)
        if replay.fallback is not None:
            return replay.fallback
        return self.assemble(replay)

    def replay(self, params: Sequence[float] | np.ndarray) -> "BindReplay":
        """The per-bind work: validate ``params`` and replay the merge chains.

        Validates ``params`` (arity + NaN/inf rejection), evaluates the term
        coefficients and replays the chains into one angle per skeleton
        rotation; a degenerate binding runs the full pipeline instead and
        carries its result as :attr:`BindReplay.fallback`.  Counts
        :attr:`binds` and :attr:`fallback_binds`.  :meth:`bind` builds a
        result object from the replay; the service splices its arrays into a
        pre-encoded payload (:mod:`repro.service.serialize`).
        """
        array = validate_parameters(
            params, self.num_params, source="repro.parametric.bind"
        )
        start = time.perf_counter()
        self.binds += 1
        coefficients = angles = None
        if not self._always_fallback:
            coefficients = self.program._evaluate_validated(array).tolist()
            angles = self._chain_angles(coefficients)
        if angles is None:
            self.fallback_binds += 1
            return BindReplay(None, None, start, self._full_compile(array))
        return BindReplay(coefficients, angles, start, None)

    def _chain_angles(self, coefficients: list[float]) -> list[float] | None:
        """Final rotation angles per chain, or ``None`` on a degenerate sum.

        The streaming optimizer's float arithmetic
        (:func:`~repro.transpile.wire_optimizer.merged_angles`), which
        extraction's own merges use too: any prefix sum landing inside the
        kill window means the concrete pipeline would have deleted the gate,
        so the skeleton is invalid for this binding.
        """
        if self._normalize:
            return merged_angles(self._chains, coefficients)
        # level 0 emits raw angles, never merges, never deletes
        return [sign * coefficients[term] for [(term, sign)] in self._chains]

    def assemble(self, replay: "BindReplay") -> CompilationResult:
        """The :class:`CompilationResult` of a non-degenerate replay."""
        # Substitute angles into the skeleton.  Gate and PauliTerm are frozen
        # dataclasses with pure-validation __post_init__, so a trusted
        # construction that sets the fields directly is value-identical and
        # skips the per-gate validation cost.  The fields go in declaration
        # order through object.__setattr__, as the dataclass __init__ sets
        # them, which keeps each instance's __dict__ the compact key-sharing
        # kind (a __dict__.update would give every instance a full dict).
        # Inlined rather than circuits.gate.trusted_gate: a call per rotation
        # costs ~7% of an H2O bind.
        gates = self._skeleton.copy()
        blank = object.__new__
        setter = object.__setattr__
        gate_cls = Gate
        for position, angle in zip(self._positions, replay.angles):
            proto = gates[position]
            gate = blank(gate_cls)
            setter(gate, "name", proto.name)
            setter(gate, "qubits", proto.qubits)
            setter(gate, "params", (angle,))
            gates[position] = gate
        circuit = QuantumCircuit.from_trusted_gates(self.num_qubits, gates)

        extraction = None
        if self._tail is not None:
            terms: list[PauliTerm] = []
            append = terms.append
            term_cls = PauliTerm
            for pauli, coefficient in zip(self._row_paulis, replay.coefficients):
                term = blank(term_cls)
                setter(term, "pauli", pauli)
                setter(term, "coefficient", coefficient)
                append(term)
            extraction = ExtractionResult(
                optimized_circuit=circuit,
                extracted_clifford=self._tail,
                conjugation=self._conjugation,
                terms=terms,
                rotation_count=self._rotation_count,
                elapsed_seconds=0.0,
                metadata=dict(self._extraction_metadata),
            )

        metadata = dict(self._metadata_base)
        metadata["pass_timings"] = {}
        return CompilationResult(
            circuit=circuit,
            extracted_clifford=self._tail,
            extraction=extraction,
            compile_seconds=time.perf_counter() - replay.start,
            name=self.name,
            metadata=metadata,
            properties=PropertySet(),
        )

    def _full_compile(self, array: np.ndarray) -> CompilationResult:
        return _compile_concrete(self.program.to_sum(array), target=self.target, level=self.level)


# ---------------------------------------------------------------------- #
# Template construction
# ---------------------------------------------------------------------- #
def compile_template(
    program: ParametricProgram,
    target: "Target | str | None" = None,
    level: int = MAX_OPTIMIZATION_LEVEL,
    pipeline=None,
) -> CompiledTemplate:
    """Run the preset pipeline once over a parametric program.

    Parameters mirror :func:`repro.compile` where they can: ``target`` may be
    ``None`` or a fully-connected device (constrained-coupling routing is a
    per-binding rewrite the skeleton cannot carry, and is rejected), and
    ``pipeline`` must stay ``None`` — only the preset levels have the
    angle-independence guarantee templates rely on.
    """
    if not isinstance(program, ParametricProgram):
        raise CompilerError(
            "compile_template needs a ParametricProgram; wrap a concrete "
            "program with repro.compile instead"
        )
    if pipeline is not None:
        raise CompilerError(
            "templates support the preset levels only: a custom pipeline has "
            "no angle-independence guarantee to trace against"
        )
    if not isinstance(level, int) or isinstance(level, bool) or not (
        0 <= level <= MAX_OPTIMIZATION_LEVEL
    ):
        raise CompilerError(
            f"optimization level must be 0..{MAX_OPTIMIZATION_LEVEL}, got {level!r}"
        )
    device = as_target(target)
    if device is not None and not device.is_fully_connected:
        raise CompilerError(
            f"templates compile for all-to-all connectivity only; routing to "
            f"{device.name!r} inserts SWAPs whose peephole interactions are "
            "re-derived per binding — compile without a target"
        )

    num_terms = program.num_terms
    sentinel = np.arange(1, num_terms + 1, dtype=np.float64)
    sentinel_sum = SparsePauliSum.from_packed(program.table.copy(), sentinel)

    tail: QuantumCircuit | None = None
    conjugation: CliffordTableau | None = None
    rotation_count = 0
    normalize = level > 0
    if level >= 2:
        # extraction records its merges structurally: the chains come from
        # the record, never from summed sentinels
        trace, merges = CliffordExtractor(**_EXTRACTION_FLAGS[level]).trace(sentinel_sum)
        skeleton, positions, chains = merges.gates, merges.positions, merges.chains
        tail = trace.extracted_clifford
        conjugation = trace.conjugation
        rotation_count = trace.rotation_count
    else:
        raw_gates = list(synthesize_trotter_circuit(sentinel_sum.terms, tree="chain"))
        if level == 0:
            # no peephole at level 0: the raw emission *is* the circuit
            skeleton = raw_gates
            positions = [
                index for index, gate in enumerate(raw_gates) if gate.name == "rz"
            ]
            chains = [
                [_sentinel_entry(raw_gates[index].params[0], num_terms)] for index in positions
            ]
        else:
            stream = _SymbolicStream(program.num_qubits, num_terms)
            stream.extend(raw_gates)
            skeleton, positions, chains = stream.finalize()

    template = CompiledTemplate(
        program=program,
        level=level,
        target=device,
        skeleton=skeleton,
        positions=positions,
        chains=chains,
        normalize=normalize,
        tail=tail,
        conjugation=conjugation,
        rotation_count=rotation_count,
        name="template",  # replaced by the calibration harvest below
        metadata_base={},
        extraction_metadata={},
    )

    _calibrate(template, device, level)
    return template


def _calibrate(template: CompiledTemplate, device: Target | None, level: int) -> None:
    """Harvest angle-independent metadata and self-check the fast path.

    One concrete preset compile at generic angles supplies the pipeline
    name and metadata (all structural); the template's own fast bind at the
    same angles must then reproduce that result bit-for-bit, or construction
    fails with :class:`~repro.exceptions.CompilerError`.
    """
    program = template.program
    calibration = None
    for attempt in range(_CALIBRATION_ATTEMPTS):
        candidate = _generic_parameters(program.num_params, attempt)
        coefficients = program._evaluate_validated(candidate).tolist()
        angles = template._chain_angles(coefficients)
        if angles is not None:
            calibration = candidate
            break
        if program.num_params == 0:
            break  # constant program: perturbing cannot change anything
    if calibration is None:
        # every calibration draw hits the kill window (e.g. a constant
        # term folding to zero): the skeleton can never be used, every bind
        # takes the full-compile fallback
        template._always_fallback = True
        calibration = _generic_parameters(program.num_params, 0)

    reference = _compile_concrete(program.to_sum(calibration), target=device, level=level)
    template.name = reference.name
    template._metadata_base = {
        key: value
        for key, value in reference.metadata.items()
        if key != "pass_timings"
    }
    if reference.extraction is not None:
        template._extraction_metadata = dict(reference.extraction.metadata)
        template._rotation_count = int(reference.extraction.rotation_count)
    if template._always_fallback:
        return

    # assembled directly, not through replay(): calibration is no bind
    fast = template.assemble(
        BindReplay(coefficients, angles, time.perf_counter(), None)
    )
    mismatch = _diff_results(fast, reference)
    if mismatch is not None:
        raise CompilerError(
            f"template self-check failed: fast bind diverged from the "
            f"concrete level-{level} pipeline on {mismatch} — refusing to "
            "serve from this template"
        )


def _diff_results(fast: CompilationResult, reference: CompilationResult) -> str | None:
    """The first field where the two results differ, or ``None``."""
    if fast.circuit != reference.circuit:
        return "the optimized circuit"
    if (fast.extracted_clifford is None) != (reference.extracted_clifford is None):
        return "the presence of an extracted tail"
    if (
        fast.extracted_clifford is not None
        and fast.extracted_clifford != reference.extracted_clifford
    ):
        return "the extracted Clifford tail"
    fast_meta = {k: v for k, v in fast.metadata.items() if k != "pass_timings"}
    ref_meta = {k: v for k, v in reference.metadata.items() if k != "pass_timings"}
    if fast_meta != ref_meta:
        return "the result metadata"
    if (fast.extraction is None) != (reference.extraction is None):
        return "the presence of an extraction record"
    if fast.extraction is not None:
        if (
            fast.extraction.conjugation.content_key()
            != reference.extraction.conjugation.content_key()
        ):
            return "the conjugation tableau"
        if fast.extraction.terms != reference.extraction.terms:
            return "the extraction term list"
        if fast.extraction.rotation_count != reference.extraction.rotation_count:
            return "the rotation count"
        if fast.extraction.metadata != reference.extraction.metadata:
            return "the extraction metadata"
    if fast.name != reference.name:
        return "the pipeline name"
    return None
