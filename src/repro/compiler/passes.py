"""The compiler passes that compose into pipelines.

Every pass implements ``run(program, context)``: it mutates the
:class:`~repro.compiler.context.Program` in place (and/or records analysis
results in the context's :class:`~repro.compiler.context.PropertySet`) and
returns nothing.  The existing QuCLEAR stages are wrapped here one-to-one:

* :class:`GroupCommuting` — partition the Pauli program into commuting blocks;
* :class:`CliffordExtraction` — Algorithm 2, the CE module;
* :class:`NaiveSynthesis` — direct V-shaped synthesis (the "native" baseline);
* :class:`Peephole` — local rewriting, the Qiskit-O3 stand-in;
* :class:`SabreRouting` — SWAP-insertion routing onto the target's coupling map;
* :class:`AbsorptionPrep` — precompute the CA-module absorbers;
* :class:`FunctionCompilerPass` — adapter that runs a whole legacy
  ``terms -> CompilationResult`` compiler function as a single pass.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

from repro.compiler.context import PassContext, Program
from repro.compiler.result import CompilationResult
from repro.core.commuting import commuting_block_bounds
from repro.core.extraction import CliffordExtractor
from repro.exceptions import CompilerError
from repro.paulis.packed import PackedPauliTable
from repro.paulis.term import PauliTerm
from repro.synthesis.trotter import synthesize_trotter_circuit
from repro.transpile.routing import route_circuit
from repro.transpile.wire_optimizer import streaming_peephole_optimize


class Pass(abc.ABC):
    """Base class of every pipeline pass."""

    @property
    def name(self) -> str:
        return type(self).__name__

    @abc.abstractmethod
    def run(self, program: Program, context: PassContext) -> None:
        """Transform ``program`` in place and/or record properties."""

    def __repr__(self) -> str:
        return self.name

    # ------------------------------------------------------------------ #
    def _require_terms(self, program: Program) -> list[PauliTerm]:
        if not program.terms:
            raise CompilerError(f"{self.name} needs a non-empty Pauli-term program")
        return program.terms

    def _require_circuit(self, program: Program):
        if program.circuit is None:
            raise CompilerError(
                f"{self.name} requires a synthesized circuit; "
                "run a synthesis pass (NaiveSynthesis / CliffordExtraction) first"
            )
        return program.circuit


class GroupCommuting(Pass):
    """Partition the Pauli program into maximal runs of commuting strings.

    The scan reads each row of the bit-packed store (the program sum's own
    table when one entered the pipeline) as integers straight off its words,
    with no transpose; the partition is recorded both as row offsets
    (``program.block_bounds``, what the extractor consumes) and as term-list
    blocks for any legacy consumer.
    """

    def run(self, program: Program, context: PassContext) -> None:
        terms = self._require_terms(program)
        if program.sum is not None:
            table = program.sum.packed_table
        else:
            table = PackedPauliTable.from_paulis(t.pauli for t in terms)
        # stash for CliffordExtraction so the same Paulis are packed once
        program.packed_table = table
        bounds = commuting_block_bounds(table)
        program.block_bounds = bounds
        program.blocks = [terms[a:b] for a, b in zip(bounds, bounds[1:])]
        program.metadata["num_blocks"] = len(program.blocks)
        context.properties["num_blocks"] = len(program.blocks)


class CliffordExtraction(Pass):
    """Clifford Extraction (Algorithm 2): synthesize left halves, push the
    mirrored Cliffords through the remaining program, return the tail, merging rotations."""

    def __init__(
        self,
        reorder_within_blocks: bool = True,
        recursive_tree: bool = True,
        cross_block_lookahead: bool = True,
        max_lookahead: int | None = None,
        extractor: CliffordExtractor | None = None,
    ):
        if extractor is not None:
            defaults = (True, True, True, None)
            given = (reorder_within_blocks, recursive_tree, cross_block_lookahead, max_lookahead)
            if given != defaults:
                raise CompilerError(
                    "pass either feature flags or an explicit extractor, not both: "
                    "the flags would be silently ignored"
                )
        self.extractor = extractor if extractor is not None else CliffordExtractor(
            reorder_within_blocks=reorder_within_blocks,
            recursive_tree=recursive_tree,
            cross_block_lookahead=cross_block_lookahead,
            max_lookahead=max_lookahead,
        )

    def run(self, program: Program, context: PassContext) -> None:
        # Consume the packed sum when one entered the pipeline: the extractor
        # then adopts its bit-packed store directly instead of re-packing a
        # term list, and the partition travels as row offsets.
        source = program.sum if program.sum is not None else self._require_terms(program)
        extraction = self.extractor.extract(
            source,
            blocks=program.blocks,
            block_bounds=program.block_bounds,
            packed_table=program.packed_table,
        )
        program.circuit = extraction.optimized_circuit
        program.extracted_clifford = extraction.extracted_clifford
        program.extraction = extraction
        program.metadata["rotation_count"] = extraction.rotation_count
        program.metadata.setdefault("num_blocks", extraction.metadata.get("num_blocks"))
        program.metadata["pre_optimization_cx"] = extraction.metadata["pre_optimization_cx"]
        context.properties["conjugation_tableau"] = extraction.conjugation
        context.properties["rotation_count"] = extraction.rotation_count


class NaiveSynthesis(Pass):
    """Direct synthesis: one V-shaped block per Pauli rotation, in order."""

    def __init__(self, tree: str = "chain"):
        self.tree = tree

    def run(self, program: Program, context: PassContext) -> None:
        terms = self._require_terms(program)
        program.circuit = synthesize_trotter_circuit(terms, tree=self.tree)
        context.properties["synthesis_tree"] = self.tree


class Peephole(Pass):
    """Local rewriting: inverse-pair cancellation and rotation merging.

    Streams the circuit once through the wire-indexed
    :class:`~repro.transpile.wire_optimizer.GateStreamOptimizer` — one
    amortized-linear pass, no iteration cap.  The iterated ground-truth
    sweeps (:func:`~repro.transpile.peephole.peephole_optimize`) are an
    oracle for tests, not a pipeline stage.  Level 1 runs it; levels 2-3 do
    not (extraction merges rotations), outside the Fig. 9 ablation.
    Extraction's circuit is already this stream's fixpoint, so streaming it
    again leaves ``extraction.optimized_circuit`` equal to the circuit.
    """

    def run(self, program: Program, context: PassContext) -> None:
        circuit = self._require_circuit(program)
        program.metadata.setdefault("pre_optimization_cx", circuit.cx_count())
        program.circuit = streaming_peephole_optimize(circuit)


class PostRoutingPeephole(Peephole):
    """Peephole that only runs when routing actually rewrote the circuit.

    The pre-routing circuit is already a peephole fixpoint in the presets, so
    re-sweeping it on an all-to-all (or targetless) compile would be pure
    wasted work; SWAP decomposition, however, exposes fresh cancellations.
    """

    def run(self, program: Program, context: PassContext) -> None:
        if not program.metadata.get("routed"):
            return
        super().run(program, context)


class SabreRouting(Pass):
    """SWAP-insertion routing onto the target's coupling map.

    A no-op when the run has no target or the target is fully connected, so
    preset pipelines behave identically to the logical-circuit flow when no
    device is specified.
    """

    def __init__(self, initial_layout: str = "greedy", decompose_swaps: bool = True):
        self.initial_layout = initial_layout
        self.decompose_swaps = decompose_swaps

    def run(self, program: Program, context: PassContext) -> None:
        target = context.target
        if target is None:
            program.metadata.setdefault("swap_count", 0)
            return
        circuit = self._require_circuit(program)
        target.validate_circuit(circuit)
        if target.coupling is None or target.is_fully_connected:
            program.metadata.setdefault("swap_count", 0)
            return
        routing = route_circuit(
            circuit,
            target.coupling,
            initial_layout=self.initial_layout,
            decompose_swaps=self.decompose_swaps,
        )
        program.circuit = routing.circuit
        program.routing = routing
        program.metadata["swap_count"] = routing.swap_count
        program.metadata["routed"] = True
        program.metadata["device"] = target.name
        context.properties["routing"] = routing
        context.properties["initial_layout"] = routing.initial_layout
        context.properties["final_layout"] = routing.final_layout


class AbsorptionPrep(Pass):
    """Precompute the Clifford Absorption machinery for the extracted tail.

    Detects whether the workload supports the (cheaper) probability-absorption
    mode and stores the ready-to-use absorbers in the property set.  A no-op
    for pipelines that performed no extraction.
    """

    def run(self, program: Program, context: PassContext) -> None:
        if program.extraction is None or program.extracted_clifford is None:
            return
        if program.metadata.get("routed"):
            # the extraction artifacts live in logical space; after routing the
            # physical outcomes are permuted and the absorbers would be wrong
            program.metadata["absorption_style"] = "unavailable"
            context.properties["absorption_style"] = "unavailable"
            return
        from repro.core.absorption import (
            ObservableAbsorber,
            build_probability_absorber,
        )
        from repro.exceptions import AbsorptionError

        context.properties["observable_absorber"] = ObservableAbsorber(
            program.extraction.conjugation,
            cache=context.properties["conjugation_cache"],
        )
        try:
            context.properties["probability_absorber"] = build_probability_absorber(
                program.extracted_clifford
            )
            style = "probabilities"
        except AbsorptionError:
            style = "observables"
        context.properties["absorption_style"] = style
        program.metadata["absorption_style"] = style


class FunctionCompilerPass(Pass):
    """Adapter: run a legacy ``terms -> CompilationResult`` compiler function
    as a single pipeline pass (used to register the baseline compilers)."""

    def __init__(self, fn: Callable[[Sequence[PauliTerm]], CompilationResult], name: str):
        self._fn = fn
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def run(self, program: Program, context: PassContext) -> None:
        result = self._fn(self._require_terms(program))
        program.circuit = result.circuit
        program.extracted_clifford = result.extracted_clifford
        program.extraction = result.extraction
        program.metadata.update(result.metadata)
