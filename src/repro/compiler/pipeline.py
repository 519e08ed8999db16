"""The pass pipeline: an ordered chain of passes with per-pass timing.

``Pipeline.run`` threads a :class:`~repro.compiler.context.Program` and a
:class:`~repro.compiler.context.PassContext` through its passes, measures each
pass's wall-clock time, and packages everything into the unified
:class:`~repro.compiler.result.CompilationResult` (with the timing breakdown
in ``metadata["pass_timings"]``).
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from repro.clifford.engine import ConjugationCache
from repro.compiler.context import PassContext, Program, PropertySet
from repro.compiler.passes import Pass
from repro.compiler.result import CompilationResult
from repro.compiler.target import Target, as_target
from repro.exceptions import CompilerError, SynthesisError
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm


class Pipeline:
    """An immutable, reusable chain of compiler passes."""

    def __init__(self, passes: Sequence[Pass], name: str = "custom"):
        self.passes: tuple[Pass, ...] = tuple(passes)
        self.name = name
        for entry in self.passes:
            if not isinstance(entry, Pass):
                raise CompilerError(f"{entry!r} is not a compiler pass")

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Pass]:
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:
        stages = " -> ".join(p.name for p in self.passes) or "(empty)"
        return f"Pipeline({self.name!r}: {stages})"

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def has_pass(self, pass_type: type) -> bool:
        return any(isinstance(p, pass_type) for p in self.passes)

    def then(self, *extra: Pass, name: str | None = None) -> "Pipeline":
        """A new pipeline with ``extra`` passes appended."""
        return Pipeline(self.passes + tuple(extra), name=name or self.name)

    # ------------------------------------------------------------------ #
    def run(
        self,
        terms: Sequence[PauliTerm] | SparsePauliSum,
        target: "Target | None" = None,
        properties: dict | None = None,
    ) -> CompilationResult:
        """Run every pass in order over ``terms`` and collect the result."""
        if not self.passes:
            raise CompilerError(f"pipeline {self.name!r} has no passes")
        source_sum = terms if isinstance(terms, SparsePauliSum) else None
        term_list = list(terms)
        device = as_target(target)
        if term_list:
            if source_sum is not None:
                # a sum guarantees a uniform register by construction
                num_qubits = source_sum.num_qubits
            else:
                num_qubits = term_list[0].num_qubits
                for term in term_list:
                    if term.num_qubits != num_qubits:
                        # same exception the synthesis stages raise for this
                        raise SynthesisError("all Pauli terms must act on the same qubit count")
            if device is not None and num_qubits > device.num_qubits:
                raise CompilerError(
                    f"program needs {num_qubits} qubits, "
                    f"target {device.name!r} has {device.num_qubits}"
                )
        context = PassContext(target=device, properties=PropertySet(properties or {}))
        # Every run carries a conjugation cache so the absorption machinery
        # (eager AbsorptionPrep or the result's lazy absorbers) freezes each
        # Clifford tail's packed conjugator at most once; repro.compile_many
        # injects a shared cache here to pool that work across programs.
        if context.properties["conjugation_cache"] is None:
            context.properties["conjugation_cache"] = ConjugationCache()
        program = Program(terms=term_list, sum=source_sum)

        start = time.perf_counter()
        for entry in self.passes:
            pass_start = time.perf_counter()
            entry.run(program, context)
            context.record_timing(entry.name, time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start

        if program.circuit is None:
            raise CompilerError(
                f"pipeline {self.name!r} produced no circuit; "
                "it needs at least one synthesis pass"
            )
        metadata = dict(program.metadata)
        metadata["pass_timings"] = dict(context.pass_timings)
        metadata["passes"] = self.pass_names()
        return CompilationResult(
            circuit=program.circuit,
            extracted_clifford=program.extracted_clifford,
            extraction=program.extraction,
            compile_seconds=elapsed,
            name=self.name,
            metadata=metadata,
            properties=PropertySet(context.properties),
        )

    #: alias so a Pipeline can stand in for the legacy ``QuCLEAR``-style
    #: objects that expose ``.compile(terms)``
    def compile(
        self,
        terms: Sequence[PauliTerm] | SparsePauliSum,
        target: "Target | None" = None,
    ) -> CompilationResult:
        return self.run(terms, target=target)


def with_routing(pipeline: Pipeline) -> Pipeline:
    """``pipeline`` extended with the standard routing tail, if it has none.

    The tail matches the paper's device-mapping flow: SWAP-insertion routing
    with the SWAPs decomposed into CNOTs, followed by a peephole sweep over
    the freshly exposed cancellations.
    """
    from repro.compiler.passes import PostRoutingPeephole, SabreRouting

    if pipeline.has_pass(SabreRouting):
        return pipeline
    return pipeline.then(
        SabreRouting(decompose_swaps=True),
        PostRoutingPeephole(),
        name=f"{pipeline.name}+routing",
    )


def ensure_device_routing(pipeline: Pipeline, device: "Target | None") -> Pipeline:
    """Append the routing tail when a constrained device demands it.

    A routing-less pipeline would silently emit gates the device cannot
    execute, so every ``target``-accepting entry point (``repro.compile``,
    ``CompilerRegistry.compile``) funnels through this policy.
    """
    if device is None or device.is_fully_connected:
        return pipeline
    return with_routing(pipeline)
