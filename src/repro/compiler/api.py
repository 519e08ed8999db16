"""The compiler entry points: :func:`repro.compile` and :func:`repro.compile_many`."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clifford.engine import ConjugationCache
from repro.compiler.pipeline import Pipeline, ensure_device_routing
from repro.compiler.pool import CompilePool, CompilePoolBrokenError
from repro.compiler.presets import MAX_OPTIMIZATION_LEVEL, preset_pipeline
from repro.compiler.registry import get_registry
from repro.compiler.result import CompilationResult
from repro.compiler.target import Target, as_target
from repro.exceptions import CompilerError, InvalidProgramError
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.transpile.coupling import CouplingMap

def validate_program(
    program: Sequence[PauliTerm] | SparsePauliSum,
    source: str = "repro.compile",
    index: int | None = None,
) -> None:
    """Up-front program checks shared by every compile entry point.

    Raises :class:`~repro.exceptions.InvalidProgramError` for an empty
    program, one acting on zero qubits, or one carrying NaN/inf rotation
    coefficients — the malformed shapes that otherwise surface as whatever
    deep internal error hits them first (``terms[0]`` IndexError,
    packed-shape mismatches, NaN-poisoned cache keys, ...).  ``source``
    names the entry point and ``index`` the batch position, so the message
    points at the offending request.
    """
    where = f"{source}: program" if index is None else f"{source}: program {index}"
    if isinstance(program, SparsePauliSum):
        num_terms = len(program)
        num_qubits = program.num_qubits
    else:
        num_terms = len(program)
        num_qubits = program[0].num_qubits if num_terms else 0
    if num_terms == 0:
        raise InvalidProgramError(
            f"{where} is empty — a compilation needs at least one Pauli rotation"
        )
    if num_qubits < 1:
        raise InvalidProgramError(
            f"{where} acts on zero qubits — every Pauli term needs at least one qubit"
        )
    if isinstance(program, SparsePauliSum):
        finite = bool(np.isfinite(program.coefficient_vector()).all())
    else:
        finite = all(math.isfinite(term.coefficient) for term in program)
    if not finite:
        raise InvalidProgramError(
            f"{where} contains NaN/inf rotation coefficients — refusing to "
            "compile (they would flow into the packed store and poison cache keys)"
        )


def _resolve_pipeline(
    pipeline: Pipeline | str | None, level: int
) -> Pipeline:
    if pipeline is None:
        return preset_pipeline(level)
    if isinstance(pipeline, Pipeline):
        return pipeline
    if isinstance(pipeline, str):
        return get_registry().get(pipeline)
    raise CompilerError(f"cannot interpret {pipeline!r} as a pipeline")


def compile(
    terms: Sequence[PauliTerm] | SparsePauliSum,
    target: Target | CouplingMap | str | None = None,
    level: int = MAX_OPTIMIZATION_LEVEL,
    pipeline: Pipeline | str | None = None,
) -> CompilationResult:
    """Compile a Pauli-rotation program.

    Parameters
    ----------
    terms:
        The program: a sequence of :class:`~repro.paulis.term.PauliTerm`
        rotations or a :class:`~repro.paulis.sum.SparsePauliSum`.  A sum is
        the fast path — its bit-packed store flows through the grouping and
        extraction passes directly, with no per-term re-packing.
    target:
        Optional device to compile for — a :class:`Target`, a
        :class:`~repro.transpile.coupling.CouplingMap`, or a known device
        name (``"sycamore"``, ``"ibm-manhattan"``).  ``None`` compiles for an
        all-to-all device.
    level:
        Preset optimization level 0..3 (3 = the full QuCLEAR flow).
    pipeline:
        Explicit pipeline to run instead of a preset: a
        :class:`~repro.compiler.pipeline.Pipeline` instance or the name of a
        registered compiler (``"quclear"``, ``"qiskit-like"``, ...).
    """
    if not isinstance(terms, SparsePauliSum):
        terms = list(terms)
    validate_program(terms, source="repro.compile")
    resolved = _resolve_pipeline(pipeline, level)
    device = as_target(target)
    return ensure_device_routing(resolved, device).run(terms, target=device)


# ---------------------------------------------------------------------- #
# Batch compilation
# ---------------------------------------------------------------------- #
def _run_one(
    pipeline: Pipeline,
    device: Target | None,
    program: Sequence[PauliTerm] | SparsePauliSum,
    cache: ConjugationCache | None,
) -> CompilationResult:
    properties = {"conjugation_cache": cache} if cache is not None else None
    return pipeline.run(program, target=device, properties=properties)


def _default_worker_count(num_programs: int) -> int:
    return max(1, min(num_programs, os.cpu_count() or 1, 32))


#: below this many total Pauli terms a batch is too small for any worker
#: pool to amortize its handoff overhead (measured: the 8-program small bench
#: tier, ~600 terms, compiled *slower* on workers than sequentially)
SERIAL_BATCH_TERMS = 2500

#: without a live pool, a batch needs this many total terms before a
#: transient :class:`CompilePool` pays back its worker spawn and ``import
#: repro`` (synthesis is GIL-bound Python, so only processes scale it)
PROCESS_BATCH_TERMS = 20000


@dataclass(frozen=True)
class BatchPlan:
    """How :func:`compile_many` will execute a batch.

    ``executor`` is ``"serial"`` (an in-process loop) or ``"pool"`` (the
    caller's :class:`CompilePool`, or a transient one of ``max_workers``
    workers when the caller passed none).  ``chunksize`` is the per-dispatch
    chunk for the pool, ``num_programs``/``total_terms`` count the regular
    (non-bind) programs, and ``reason`` is a short human-readable
    justification — the benchmark records the plan beside the measured
    batch speedup.
    """

    executor: str
    max_workers: int
    chunksize: int
    num_programs: int
    total_terms: int
    reason: str


def plan_batch(
    programs: Sequence[Sequence[PauliTerm] | SparsePauliSum],
    pool: "CompilePool | None" = None,
    conjugation_cache: ConjugationCache | None = None,
) -> BatchPlan:
    """Choose serial or :class:`CompilePool` execution for a batch.

    The plan depends only on what the caller hands :func:`compile_many` and
    on the host's CPU count:

    * every program a bind, a single program, or fewer than
      :data:`SERIAL_BATCH_TERMS` total terms → serial;
    * a usable ``pool`` (``max_workers > 0``) → that pool, whose workers
      are already spawned and warm;
    * no usable pool, no caller ``conjugation_cache`` and at least
      :data:`PROCESS_BATCH_TERMS` terms on a multi-CPU host → a transient
      pool;
    * anything else → serial (a caller's conjugation cache pools tableau
      freezes only in-process).

    Bound templates (:class:`~repro.parametric.BoundProgram`) replay a
    pre-compiled skeleton inline in microseconds, so they never join a pool
    and count as no work here.
    """
    from repro.parametric.program import BoundProgram

    regular = [program for program in programs if not isinstance(program, BoundProgram)]
    count = len(regular)
    total_terms = sum(len(program) for program in regular)

    def serial(reason: str) -> BatchPlan:
        return BatchPlan("serial", 1, 1, count, total_terms, reason)

    def pooled(workers: int, reason: str) -> BatchPlan:
        chunksize = max(1, count // (workers * 4))
        return BatchPlan("pool", workers, chunksize, count, total_terms, reason)

    if not regular:
        return serial(
            "every program is a bound template; binds replay inline in "
            "microseconds, no pool can help"
        )
    if count == 1:
        return serial("single program")
    if total_terms < SERIAL_BATCH_TERMS:
        return serial(
            f"batch of {total_terms} terms is below the {SERIAL_BATCH_TERMS}-term "
            "pool-overhead cutoff"
        )
    if pool is not None and pool.usable:
        return pooled(
            pool.max_workers,
            f"batch of {total_terms} terms rides the caller's warm compile pool",
        )
    if conjugation_cache is not None:
        return serial("caller-supplied conjugation cache is shareable only in-process")
    if total_terms < PROCESS_BATCH_TERMS:
        return serial(
            f"no live pool, and {total_terms} terms is below the "
            f"{PROCESS_BATCH_TERMS}-term cutoff for spawning one"
        )
    workers = _default_worker_count(count)
    if workers <= 1:
        return serial("a single CPU: a transient pool cannot help")
    return pooled(
        workers,
        f"batch of {total_terms} terms amortizes a transient pool's worker spawn",
    )


def compile_many(
    programs: Sequence[Sequence[PauliTerm] | SparsePauliSum],
    target: Target | CouplingMap | str | None = None,
    level: int = MAX_OPTIMIZATION_LEVEL,
    pipeline: Pipeline | str | None = None,
    conjugation_cache: ConjugationCache | None = None,
    pool: CompilePool | None = None,
) -> list[CompilationResult]:
    """Compile a batch of independent Pauli-rotation programs.

    Every program goes through the same resolved pipeline (preset ``level``,
    explicit ``pipeline``, or registered name — identical semantics to
    :func:`repro.compile`), either in a serial in-process loop or on a
    :class:`~repro.compiler.pool.CompilePool`, as :func:`plan_batch` decides.
    Results come back in input order and are gate-identical to
    :func:`repro.compile` whichever way the batch ran.

    Parameters
    ----------
    programs:
        The batch; each entry is what :func:`repro.compile` accepts as
        ``terms``, or a :class:`~repro.parametric.BoundProgram` (a compiled
        template plus one parameter vector), which binds inline and never
        joins a pool.  ``target``/``level``/``pipeline`` do not apply to a
        bind — those were fixed when its template compiled.
    target, level, pipeline:
        As in :func:`repro.compile`, applied to every program.
    conjugation_cache:
        A :class:`~repro.clifford.engine.ConjugationCache` shared by every
        serially compiled program and attached to its result, so programs
        whose extraction produces the same Clifford tail freeze the packed
        conjugation map only once; pass one to share it across several
        ``compile_many`` calls.  A batch without one gets a fresh cache.
        Supplying one keeps the batch in-process unless ``pool`` is given.
    pool:
        A long-lived :class:`~repro.compiler.pool.CompilePool` whose warm
        workers take any batch of at least :data:`SERIAL_BATCH_TERMS` terms.
        Pool workers keep private per-process conjugation caches and return
        results without one.  A batch whose pool loses its workers
        mid-flight finishes serially in-process — slower, never failed.
    """
    from repro.parametric.program import BoundProgram

    program_list = [
        program
        if isinstance(program, (SparsePauliSum, BoundProgram))
        else list(program)
        for program in programs
    ]
    results: "list[CompilationResult | None]" = [None] * len(program_list)
    regular_indices = []
    for index, program in enumerate(program_list):
        if isinstance(program, BoundProgram):
            results[index] = program.template.bind(program.params)
        else:
            validate_program(program, source="repro.compile_many", index=index)
            regular_indices.append(index)
    if not regular_indices:
        return results

    regular = [program_list[index] for index in regular_indices]
    plan = plan_batch(regular, pool=pool, conjugation_cache=conjugation_cache)
    resolved = _resolve_pipeline(pipeline, level)
    device = as_target(target)
    routed = ensure_device_routing(resolved, device)
    compiled = None
    if plan.executor == "pool":
        try:
            if pool is not None and pool.usable:
                compiled = pool.map_compile(
                    routed, device, regular, chunksize=plan.chunksize
                )
            else:
                with CompilePool(plan.max_workers) as transient:
                    compiled = transient.map_compile(
                        routed, device, regular, chunksize=plan.chunksize
                    )
        except CompilePoolBrokenError:
            # the workers died mid-batch (OOM kill, segfault): finish the
            # batch in-process; a long-lived pool rebuilds itself lazily
            pass
    if compiled is None:
        cache = conjugation_cache if conjugation_cache is not None else ConjugationCache()
        compiled = [_run_one(routed, device, program, cache) for program in regular]
    for index, result in zip(regular_indices, compiled):
        results[index] = result
    return results
