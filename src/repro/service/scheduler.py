"""Request coalescing: compile the misses of one loop tick as one batch.

The server accepts requests one at a time, but the compiler is at its best
over *batches* — :func:`repro.compiler.plan_batch` decides between an
in-process serial loop and the scheduler's compile pool from the batch's
total term count, and a shared
:class:`~repro.clifford.engine.ConjugationCache` pools tableau freezes across
programs.  :class:`BatchingScheduler` bridges the two without a timer: the
submissions of one event-loop tick go to a worker thread as one
:func:`execute_batch` call, and a submission whose artifact key is already
compiling waits for that compile (single-flight).

:func:`execute_batch` is deliberately synchronous and server-free so tests
and offline tools can drive it directly.

The scheduler may also own a long-lived
:class:`~repro.compiler.pool.CompilePool` (``pool_workers=N``): its worker
processes spawn once, pre-import :mod:`repro`, keep a warm per-worker
conjugation cache, and survive across batches, so a batch big enough to
parallelize compiles on real cores instead of GIL-sharing the server
process — and without paying process spawn + import per batch, the
profitable cutoff drops from ~20k total terms to ~2.5k.  A pool that dies
mid-batch finishes that batch serially in-process
(``service.pool_fallbacks``); ``pool_workers=0`` keeps everything
in-process, because the scheduler always hands ``compile_many`` a
conjugation cache.

A hit in the cache's memory layer never reaches the scheduler: the server
answers it on the event loop from the stored bytes, so only misses, disk
hits and ``use_cache=false`` requests are submitted here, each carrying the
artifact key the server already hashed from the wire arrays.  Bind requests
skip it too: the server calls :func:`execute_bind` inline.

:func:`execute_batch` groups jobs by compilation
config (target / level / pipeline), resolves each group against the
:class:`~repro.service.cache.ArtifactCache`, deduplicates identical programs
*within* the batch (32 concurrent requests for the same Hamiltonian compile
once), feeds the remaining misses through :func:`repro.compile_many`, and
stores the fresh artifacts back.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import repro
from repro.clifford.engine import ConjugationCache
from repro.compiler.api import validate_program
from repro.compiler.pool import CompilePool
from repro.exceptions import (
    DeadlineExceededError,
    FaultInjectedError,
    OverloadedError,
    ReproError,
)
from repro.observability import TRACER, TraceContext
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.service import faults
from repro.service.cache import ArtifactCache, StoredResult
from repro.service.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.parametric.template import BindReplay

#: default cap on pending + in-flight scheduler jobs before load shedding;
#: far above any steady-state depth the load harness reaches, so it only
#: engages under genuine overload
DEFAULT_MAX_QUEUE_DEPTH = 1024


@dataclass
class CompileJob:
    """One buffered compile request."""

    program: "Sequence[PauliTerm] | SparsePauliSum"
    target: str | None = None
    level: int = 3
    pipeline: str | None = None
    use_cache: bool = True
    #: the artifact key, when the submitter already derived it (the server
    #: does, from the raw wire program); ``None`` has the batch compute it
    key: str | None = None
    #: absolute ``time.monotonic()`` deadline, or ``None`` for no limit; a
    #: job still queued past its deadline is abandoned instead of compiled
    deadline: float | None = None
    future: "asyncio.Future | None" = field(default=None, repr=False)
    #: sampled trace context (``None`` = untraced); span parentage hangs the
    #: scheduler spans under the server's ``server.handle`` span
    trace: TraceContext | None = None
    #: wall/perf clocks at submission, for the ``scheduler.queue_wait`` span
    submitted_wall: float = 0.0
    submitted_perf: float = 0.0

    def config(self) -> tuple:
        """The compilation-config group this job batches with."""
        return (self.target, self.level, self.pipeline)


@dataclass
class CompletedJob:
    """What :func:`execute_batch` produces per job, in submission order."""

    key: str | None
    result: "repro.CompilationResult | None"
    cache_hit: bool = False
    error: Exception | None = None
    #: the cache entry the result was read from or just written to — it
    #: carries the encoded bytes, so a response need not encode again
    stored: StoredResult | None = None


def execute_batch(
    jobs: list[CompileJob],
    cache: ArtifactCache | None = None,
    telemetry: Telemetry | None = None,
    pool: CompilePool | None = None,
) -> list[CompletedJob]:
    """Compile a batch of jobs against the cache, as one planned batch per config.

    Per-job failures (invalid programs, unknown pipelines) land in that job's
    :attr:`CompletedJob.error` instead of failing the whole batch — one bad
    request must not poison the 31 good ones coalesced with it.

    ``pool`` is the scheduler's long-lived
    :class:`~repro.compiler.pool.CompilePool`: when the batch's total term
    count clears the warm-pool cutoff, the misses compile on real cores
    instead of GIL-sharing the server process; a dead pool finishes the batch
    serially in-process (counted as ``service.pool_fallbacks``).
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    completed: list[CompletedJob] = [CompletedJob(None, None) for _ in jobs]

    # queue-wait spans: submission to batch execution, per traced job
    batch_start_perf = time.perf_counter()
    for job in jobs:
        if job.trace is not None and job.submitted_perf:
            TRACER.record(
                job.trace.trace_id,
                "scheduler.queue_wait",
                job.submitted_wall,
                batch_start_perf - job.submitted_perf,
                parent_id=job.trace.span_id,
            )

    groups: dict[tuple, list[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(job.config(), []).append(index)

    for indices in groups.values():
        _execute_group(jobs, indices, completed, cache, telemetry, pool)
    return completed


def _execute_group(
    jobs: list[CompileJob],
    indices: list[int],
    completed: list[CompletedJob],
    cache: ArtifactCache | None,
    telemetry: Telemetry,
    pool: CompilePool | None = None,
) -> None:
    target = jobs[indices[0]].target
    level = jobs[indices[0]].level
    pipeline = jobs[indices[0]].pipeline

    # Key + cache phase: validate every program up front (per-job isolation —
    # cheap length/qubit checks, raised here so one malformed request cannot
    # fail the rest of the group), dedupe identical programs within the
    # batch, and resolve what the artifact store already has.
    missing: dict[str | None, list[int]] = {}
    uncached_serial = 0  # distinct anonymous (no-cache) programs
    for index in indices:
        job = jobs[index]
        key = None
        if job.deadline is not None and time.monotonic() >= job.deadline:
            completed[index] = CompletedJob(
                None,
                None,
                error=DeadlineExceededError(
                    "request deadline expired before its batch ran"
                ),
            )
            telemetry.inc("service.deadline_abandoned")
            continue
        try:
            validate_program(job.program, source="repro.service")
            if cache is not None:
                key = job.key
                if key is None:
                    with TRACER.span(
                        telemetry=telemetry, histogram="service.key_seconds"
                    ):
                        key = cache.key_for(
                            job.program, target=target, level=level, pipeline=pipeline
                        )
        except ReproError as error:
            completed[index] = CompletedJob(None, None, error=error)
            telemetry.inc("service.invalid_requests")
            continue
        if key is not None:
            completed[index].key = key
            if job.use_cache:
                corrupt_before = cache.corrupt_artifacts
                with TRACER.span(
                    job.trace, "cache.read", telemetry=telemetry,
                    histogram="service.cache_lookup_seconds",
                ) as read:
                    cached = cache.get_stored(key)
                    read.tag("hit", cached is not None).tag(
                        "quarantined", cache.corrupt_artifacts > corrupt_before
                    )
                if cached is not None:
                    completed[index] = CompletedJob(
                        key, cached.result, cache_hit=True, stored=cached
                    )
                    telemetry.inc("service.cache_hits")
                    continue
            telemetry.inc("service.cache_misses")
            missing.setdefault(key, []).append(index)
        else:
            # no cache: every job compiles individually
            missing[f"__uncached_{uncached_serial}"] = [index]
            uncached_serial += 1

    if not missing:
        return

    # Deadline re-check at the compile boundary: the cache phase above can
    # take real time under a slow disk, and abandoning here is what actually
    # saves the compile capacity (the server's own 504 cannot stop work that
    # already left the event loop).
    now = time.monotonic()
    for key in list(missing):
        alive = []
        for index in missing[key]:
            job = jobs[index]
            if job.deadline is not None and now >= job.deadline:
                completed[index] = CompletedJob(
                    completed[index].key,
                    None,
                    error=DeadlineExceededError(
                        "request deadline expired before compilation started"
                    ),
                )
                telemetry.inc("service.deadline_abandoned")
            else:
                alive.append(index)
        if alive:
            missing[key] = alive
        else:
            del missing[key]
    if not missing:
        return

    # Compile phase: every distinct missing program through compile_many as
    # one planned batch (plan_batch picks serial or the pool), with
    # the cache's shared conjugation cache pooling tableau freezes.
    ordered_keys = list(missing)
    programs = [jobs[missing[key][0]].program for key in ordered_keys]
    # always a conjugation cache, so a batch without a live pool stays
    # in-process (compile_many never opens a transient pool beside one)
    conjugation_cache = (
        cache.conjugation_cache if cache is not None else ConjugationCache()
    )
    live_pool = pool if pool is not None and pool.usable else None
    pool_batches_before = live_pool.batches if live_pool is not None else 0
    pool_breaks_before = live_pool.breaks if live_pool is not None else 0
    # One region over the compile phase: one ``service.compile_seconds``
    # observation, and one ``scheduler.batch`` span per traced job — jobs
    # deduplicated onto the same program each get their own span over the
    # shared compile, tagged with how many peers coalesced onto it.
    fanout = [(key, index) for key in ordered_keys for index in missing[key]]
    batch = TRACER.span(
        [jobs[index].trace for _, index in fanout],
        "scheduler.batch",
        tags={"batch_programs": len(ordered_keys), "pool": False},
        telemetry=telemetry,
        histogram="service.compile_seconds",
    )
    for position, (key, _) in enumerate(fanout):
        batch.tag("dedup_jobs", len(missing[key]), index=position)
    try:
        with batch:
            # The scheduler.compile fault fires inside the region but outside
            # the compile try below: that try's per-program fallback exists
            # to isolate real program defects and would otherwise swallow
            # the injected failure.
            faults.fire("scheduler.compile")
            try:
                results = repro.compile_many(
                    programs,
                    target=target,
                    level=level,
                    pipeline=pipeline,
                    conjugation_cache=conjugation_cache,
                    pool=live_pool,
                )
                if live_pool is not None:
                    if live_pool.batches > pool_batches_before:
                        telemetry.inc("service.pool_batches")
                    if live_pool.breaks > pool_breaks_before:
                        telemetry.inc("service.pool_fallbacks")
            except ReproError:
                # the planned batch failed as a whole — a config-level error
                # (unknown pipeline/target) or a program defect the up-front
                # checks don't see. Retry each program alone so only the
                # culprits fail.
                telemetry.inc("service.failed_batches")
                results = []
                for key in ordered_keys:
                    try:
                        results.append(
                            repro.compile(
                                jobs[missing[key][0]].program,
                                target=target,
                                level=level,
                                pipeline=pipeline,
                            )
                        )
                    except ReproError as error:
                        results.append(error)
            by_key = dict(zip(ordered_keys, results))
            pool_used = (
                live_pool is not None and live_pool.batches > pool_batches_before
            )
            batch.tag("pool", pool_used)
            for position, (key, _) in enumerate(fanout):
                if isinstance(by_key[key], ReproError):
                    error = by_key[key]
                    batch.set_error(f"{type(error).__name__}: {error}", index=position)
    except FaultInjectedError as error:
        for _, index in fanout:
            completed[index] = CompletedJob(completed[index].key, None, error=error)
        telemetry.inc("service.failed_batches")
        return
    for position, (key, _) in enumerate(fanout):
        _record_batch_children(
            batch, position, by_key[key], live_pool if pool_used else None
        )

    compiled = 0
    for key, result in by_key.items():
        job_indices = missing[key]
        stored_key = completed[job_indices[0]].key
        if isinstance(result, ReproError):
            for index in job_indices:
                completed[index] = CompletedJob(stored_key, None, error=result)
            continue
        compiled += 1
        for name, value in _stage_counters(result).items():
            telemetry.inc(f"extraction.{name}", value)
        for name, seconds in _stage_seconds(result).items():
            telemetry.observe(f"extraction.{name}_seconds", seconds)
        stored = None
        if cache is not None and stored_key is not None:
            # a failed store must not fail the request — the compile already
            # succeeded; the artifact is simply recomputed next time
            with TRACER.span(
                [jobs[index].trace for index in job_indices],
                "cache.write",
                tags={"stored": True},
                telemetry=telemetry,
                histogram="service.cache_store_seconds",
            ) as store:
                try:
                    stored = cache.put(stored_key, result)
                except (ReproError, OSError) as error:
                    telemetry.inc("service.cache_store_errors")
                    store.tag("stored", False)
                    store.set_error(f"{type(error).__name__}: {error}")
        for index in job_indices:
            completed[index] = CompletedJob(
                stored_key, result, cache_hit=False, stored=stored
            )
    telemetry.inc("service.compiled_programs", compiled)


def _stage_counters(result) -> dict:
    """A compiled result's extraction ``stage_counters`` (empty if none)."""
    extraction = getattr(result, "extraction", None)
    return extraction.metadata.get("stage_counters", {}) if extraction else {}


def _stage_seconds(result) -> dict:
    """A compiled result's extraction ``stage_seconds`` (empty if none)."""
    return getattr(getattr(result, "extraction", None), "stage_seconds", {})


def _record_batch_children(
    batch, position: int, result, pool: CompilePool | None
) -> None:
    """``pool.dispatch`` and per-pass spans under one job's ``scheduler.batch``.

    Both are derived from the batch region's own measurement (and the
    result's pass timings), so they are recorded, not timed; the
    ``pass.CliffordExtraction`` span is tagged with the stage counters and
    gets one child per extraction stage (``extraction.transpose``,
    ``extraction.term_loop``, ``extraction.tail``), laid back to back from
    its start with the durations in ``stage_seconds``.
    """
    parent = batch.child(position)
    if parent is None:
        return
    if pool is not None:
        TRACER.record(
            parent.trace_id,
            "pool.dispatch",
            batch.start_time,
            batch.duration_seconds,
            parent_id=parent.span_id,
            tags={"workers": pool.max_workers},
        )
    cursor = batch.start_time
    for pass_name, seconds in (getattr(result, "pass_timings", None) or {}).items():
        extraction = pass_name == "CliffordExtraction"
        span_id = TRACER.record(
            parent.trace_id,
            f"pass.{pass_name}",
            cursor,
            float(seconds),
            parent_id=parent.span_id,
            tags=_stage_counters(result) if extraction else None,
        )
        if extraction:
            stage_start = cursor
            for stage, stage_seconds in _stage_seconds(result).items():
                TRACER.record(
                    parent.trace_id,
                    f"extraction.{stage}",
                    stage_start,
                    float(stage_seconds),
                    parent_id=span_id,
                )
                stage_start += float(stage_seconds)
        cursor += float(seconds)


def execute_bind(
    template,
    params,
    telemetry: Telemetry | None = None,
) -> "BindReplay":
    """Replay one parameter vector against a compiled template (fast path).

    Synchronous and scheduler-free by design: a bind replays the template's
    merge chains in microseconds, so it runs inline instead of taking the
    executor hop of a compile batch.  Returns the template's
    :class:`~repro.parametric.template.BindReplay`: the angles and
    coefficients the response splices into the template's pre-encoded
    result, or the full compile of a degenerate binding.  Counts
    ``service.bind_requests`` / ``service.bind_seconds`` and, when the
    binding was degenerate, ``service.degenerate_binds``.  Validation errors
    (wrong arity, NaN/inf) propagate as
    :class:`~repro.exceptions.InvalidProgramError`.
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    telemetry.inc("service.bind_requests")
    with TRACER.span(telemetry=telemetry, histogram="service.bind_seconds"):
        replay = template.replay(params)
    if replay.fallback is not None:
        telemetry.inc("service.degenerate_binds")
    return replay


class BatchingScheduler:
    """Compile the ``submit`` calls of one loop tick as one batch.

    Must be used from a running ``asyncio`` event loop.  The first submission
    of a tick schedules :meth:`_flush` with ``loop.call_soon``, which hands
    everything pending (the ``asyncio.gather`` behind ``/compile_batch``,
    same-tick ``/compile`` misses) to a worker thread running
    :func:`execute_batch`, then resolves every parked future.

    Single-flight: a job that may be answered from the cache (``use_cache``
    and a known artifact key) is the one compile of its key until its batch
    resolves; a later submission of that key awaits its future.  Waiters
    await through :func:`asyncio.shield`, so a request that times out cannot
    cancel the compile the others wait on.
    """

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        telemetry: Telemetry | None = None,
        pool_workers: int = 0,
        pool: CompilePool | None = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
    ):
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: cap on pending + in-flight jobs before :meth:`submit` sheds with
        #: :class:`~repro.exceptions.OverloadedError` (0 disables shedding)
        self.max_queue_depth = int(max_queue_depth)
        #: ``Retry-After`` hint handed to shed requests, seconds
        self.shed_retry_after = 0.1
        #: the long-lived compile pool the batches consult; ``pool_workers=0``
        #: (the default) keeps compilation in-process — the right call on a
        #: one-core box, where extra processes only add pickling
        self.pool = pool if pool is not None else (
            CompilePool(pool_workers) if pool_workers else None
        )
        self._pending: list[CompileJob] = []
        self._in_flight = 0
        #: artifact key -> future of the unresolved job compiling it
        self._flights: "dict[str, asyncio.Future]" = {}
        self.batches_flushed = 0
        self.jobs_submitted = 0
        self.jobs_shed = 0

    def close(self) -> None:
        """Shut down the owned compile pool (idempotent)."""
        if self.pool is not None:
            self.pool.shutdown()

    # ------------------------------------------------------------------ #
    async def submit(
        self,
        program: "Sequence[PauliTerm] | SparsePauliSum",
        target: str | None = None,
        level: int = 3,
        pipeline: str | None = None,
        use_cache: bool = True,
        deadline: float | None = None,
        trace: TraceContext | None = None,
        key: str | None = None,
    ) -> CompletedJob:
        """Queue one compile request; resolves when its batch completes.

        ``key`` is the request's artifact key when the caller already has it
        (the batch then does not hash the program again, and single-flight
        joins on it).

        ``deadline`` is an absolute ``time.monotonic()`` timestamp: a job
        still queued when it passes is abandoned with
        :class:`~repro.exceptions.DeadlineExceededError` instead of compiled.
        Sheds immediately with :class:`~repro.exceptions.OverloadedError`
        when pending + in-flight depth is at ``max_queue_depth``.
        """
        single_flight = use_cache and key is not None
        # a join adds no work, so it is never shed
        while single_flight and key in self._flights:
            self.telemetry.inc("service.joined_compiles")
            completed = await asyncio.shield(self._flights[key])
            # a job abandoned on its own (earlier) deadline compiled nothing:
            # this request then compiles for itself
            if not isinstance(completed.error, DeadlineExceededError):
                return _outcome(completed)
        loop = asyncio.get_running_loop()
        depth = len(self._pending) + self._in_flight
        if self.max_queue_depth and depth >= self.max_queue_depth:
            self.jobs_shed += 1
            self.telemetry.inc("service.shed_requests")
            raise OverloadedError(
                f"scheduler queue full ({depth} jobs >= "
                f"max_queue_depth={self.max_queue_depth})",
                retry_after=self.shed_retry_after,
            )
        job = CompileJob(
            program=program,
            target=target,
            level=level,
            pipeline=pipeline,
            use_cache=use_cache,
            key=key,
            deadline=deadline,
            future=loop.create_future(),
            trace=trace,
            submitted_wall=time.time(),
            submitted_perf=time.perf_counter(),
        )
        if not self._pending:
            loop.call_soon(self._flush, loop)
        self._pending.append(job)
        self.jobs_submitted += 1
        if single_flight:
            self._flights[key] = job.future
        return _outcome(await asyncio.shield(job.future))

    def _flush(self, loop: "asyncio.AbstractEventLoop") -> None:
        batch, self._pending = self._pending, []
        self._in_flight += len(batch)
        self.batches_flushed += 1
        self.telemetry.inc("service.batches")
        self.telemetry.observe("service.batch_size", len(batch))
        loop.create_task(self._run_batch(loop, batch))

    async def _run_batch(
        self, loop: "asyncio.AbstractEventLoop", batch: list[CompileJob]
    ) -> None:
        try:
            completed = await loop.run_in_executor(
                None, execute_batch, batch, self.cache, self.telemetry, self.pool
            )
        except BaseException as error:  # defensive: execute_batch traps per-job
            for job in batch:
                job.future.set_exception(error)
            raise
        finally:
            self._in_flight -= len(batch)
            for job in batch:
                if self._flights.get(job.key) is job.future:
                    del self._flights[job.key]
        for job, outcome in zip(batch, completed):
            job.future.set_result(outcome)


def _outcome(completed: CompletedJob) -> CompletedJob:
    """A resolved job's outcome, or its per-job error raised."""
    if completed.error is not None:
        raise completed.error
    return completed
