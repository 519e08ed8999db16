"""Request coalescing and the batch executor."""

import asyncio
import time

import pytest

import repro
from repro.exceptions import CompilerError, DeadlineExceededError, InvalidProgramError, ReproError
from repro.paulis.pauli import PauliString
from repro.paulis.term import PauliTerm
from repro.service import faults
from repro.service.cache import ArtifactCache
from repro.service.scheduler import BatchingScheduler, CompileJob, execute_batch
from repro.service.telemetry import Telemetry

from tests.conftest import random_pauli_terms


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestExecuteBatch:
    def test_results_in_submission_order(self, cache, rng):
        programs = [random_pauli_terms(rng, 4, 5) for _ in range(4)]
        jobs = [CompileJob(program=p) for p in programs]
        completed = execute_batch(jobs, cache=cache)
        reference = [repro.compile(p, level=3) for p in programs]
        for outcome, expected in zip(completed, reference):
            assert outcome.error is None
            assert not outcome.cache_hit
            assert outcome.result.circuit == expected.circuit

    def test_identical_programs_compile_once(self, cache, rng):
        program = random_pauli_terms(rng, 4, 5)
        telemetry = Telemetry()
        jobs = [CompileJob(program=list(program)) for _ in range(6)]
        completed = execute_batch(jobs, cache=cache, telemetry=telemetry)
        keys = {outcome.key for outcome in completed}
        assert len(keys) == 1
        assert telemetry.counter("service.compiled_programs") == 1
        first = completed[0].result
        assert all(outcome.result is first for outcome in completed)

    def test_second_batch_hits_the_cache(self, cache, rng):
        program = random_pauli_terms(rng, 4, 5)
        execute_batch([CompileJob(program=program)], cache=cache)
        completed = execute_batch([CompileJob(program=program)], cache=cache)
        assert completed[0].cache_hit

    def test_use_cache_false_recompiles(self, cache, rng):
        program = random_pauli_terms(rng, 4, 5)
        execute_batch([CompileJob(program=program)], cache=cache)
        completed = execute_batch(
            [CompileJob(program=program, use_cache=False)], cache=cache
        )
        assert not completed[0].cache_hit
        assert completed[0].result is not None

    def test_mixed_configs_group_independently(self, cache, rng):
        program = random_pauli_terms(rng, 4, 5)
        jobs = [
            CompileJob(program=program, level=3),
            CompileJob(program=program, level=0),
        ]
        completed = execute_batch(jobs, cache=cache)
        assert completed[0].key != completed[1].key
        assert (
            completed[0].result.circuit.cx_count()
            <= completed[1].result.circuit.cx_count()
        )

    def test_invalid_program_fails_only_its_own_job(self, cache, rng):
        good = random_pauli_terms(rng, 4, 5)
        zero_qubit = [PauliTerm(PauliString([], []), 1.0)]
        jobs = [CompileJob(program=good), CompileJob(program=zero_qubit)]
        completed = execute_batch(jobs, cache=cache)
        assert completed[0].error is None and completed[0].result is not None
        assert isinstance(completed[1].error, InvalidProgramError)

    def test_unknown_pipeline_fails_the_group(self, cache, rng):
        jobs = [CompileJob(program=random_pauli_terms(rng, 4, 5), pipeline="nope")]
        completed = execute_batch(jobs, cache=cache)
        assert isinstance(completed[0].error, CompilerError)

    def test_works_without_a_cache(self, rng):
        program = random_pauli_terms(rng, 4, 5)
        completed = execute_batch([CompileJob(program=program)])
        assert completed[0].key is None
        assert completed[0].result.circuit == repro.compile(program, level=3).circuit

    def test_without_a_cache_or_pool_compiles_in_process(self, rng, monkeypatch):
        # pool_workers=0 keeps compilation in-process even for a batch big
        # enough for a transient pool: results keep an in-process cache,
        # which pool workers strip
        from repro.compiler import api

        monkeypatch.setattr(api, "PROCESS_BATCH_TERMS", api.SERIAL_BATCH_TERMS)
        monkeypatch.setattr(api.os, "cpu_count", lambda: 2)
        count = api.SERIAL_BATCH_TERMS // 60 + 1
        jobs = [
            CompileJob(program=random_pauli_terms(rng, 3, 60), level=1)
            for _ in range(count)
        ]
        completed = execute_batch(jobs)
        assert all(job.error is None for job in completed)
        assert all(
            job.result.properties["conjugation_cache"] is not None for job in completed
        )

    def test_invalid_program_isolated_even_without_a_cache(self, rng):
        # cache-less servers must keep the per-job error isolation too: the
        # up-front validation runs per job, not only inside cache.key_for
        good = random_pauli_terms(rng, 4, 5)
        jobs = [CompileJob(program=good), CompileJob(program=[]), CompileJob(program=good)]
        completed = execute_batch(jobs)
        assert completed[0].error is None and completed[0].result is not None
        assert isinstance(completed[1].error, InvalidProgramError)
        assert completed[2].error is None and completed[2].result is not None

    def test_whole_batch_failure_retries_individually(self, rng):
        # a program defect the up-front checks don't see (mixed qubit counts
        # inside one program) fails compile_many as a whole; the fallback
        # compiles one-by-one so only the culprit's jobs error.  cache=None
        # keeps the defect past the key phase (key_for would catch it).
        good = random_pauli_terms(rng, 4, 5)
        mixed = random_pauli_terms(rng, 4, 2) + random_pauli_terms(rng, 5, 2)
        completed = execute_batch([CompileJob(program=good), CompileJob(program=mixed)])
        assert completed[0].error is None
        assert completed[0].result.circuit == repro.compile(good, level=3).circuit
        assert isinstance(completed[1].error, ReproError)

    def test_mixed_qubit_program_fails_at_the_key_phase_with_a_cache(self, rng, cache):
        good = random_pauli_terms(rng, 4, 5)
        mixed = random_pauli_terms(rng, 4, 2) + random_pauli_terms(rng, 5, 2)
        completed = execute_batch(
            [CompileJob(program=good), CompileJob(program=mixed)], cache=cache
        )
        assert completed[0].error is None and completed[0].result is not None
        assert isinstance(completed[1].error, ReproError)

    def test_shared_conjugation_cache_is_used(self, cache, rng):
        program = random_pauli_terms(rng, 4, 5)
        outcome = execute_batch([CompileJob(program=program)], cache=cache)[0]
        import numpy as np

        observable = PauliString(np.ones(4, dtype=bool), np.zeros(4, dtype=bool))
        outcome.result.absorb_observables([observable])
        assert cache.conjugation_cache.stats()["entries"] >= 1


class TestBatchingScheduler:
    def test_same_tick_submissions_coalesce_into_one_batch(self, cache, rng):
        programs = [random_pauli_terms(rng, 4, 5) for _ in range(5)]

        async def scenario():
            scheduler = BatchingScheduler(cache=cache)
            outcomes = await asyncio.gather(
                *(scheduler.submit(program) for program in programs)
            )
            return scheduler, outcomes

        scheduler, outcomes = asyncio.run(scenario())
        assert scheduler.batches_flushed == 1
        reference = [repro.compile(p, level=3) for p in programs]
        for outcome, expected in zip(outcomes, reference):
            assert outcome.result.circuit == expected.circuit

    def test_submit_raises_per_job_errors(self, cache):
        zero_qubit = [PauliTerm(PauliString([], []), 1.0)]

        async def scenario():
            scheduler = BatchingScheduler(cache=cache)
            with pytest.raises(InvalidProgramError):
                await scheduler.submit(zero_qubit)

        asyncio.run(scenario())

    def test_sequential_windows_are_separate_batches(self, cache, rng):
        program = random_pauli_terms(rng, 4, 5)

        async def scenario():
            scheduler = BatchingScheduler(cache=cache)
            first = await scheduler.submit(program)
            second = await scheduler.submit(program)
            return scheduler, first, second

        scheduler, first, second = asyncio.run(scenario())
        assert scheduler.batches_flushed == 2
        assert not first.cache_hit
        assert second.cache_hit


class TestSingleFlight:
    """A submission whose key is compiling waits for that compile."""

    @pytest.fixture
    def held_compile(self):
        # every compile sleeps half a second inside its batch
        faults.REGISTRY.configure("scheduler.compile:delay:500ms")
        yield
        faults.REGISTRY.clear()

    def test_submission_during_a_compile_joins_it(self, cache, rng, held_compile):
        program = random_pauli_terms(rng, 4, 5)
        key = cache.key_for(program)

        async def scenario():
            scheduler = BatchingScheduler(cache=cache)
            first = asyncio.ensure_future(scheduler.submit(program, key=key))
            await asyncio.sleep(0.1)  # the first batch is compiling now
            second = await scheduler.submit(list(program), key=key)
            return scheduler, await first, second

        scheduler, first, second = asyncio.run(scenario())
        assert scheduler.telemetry.counter("service.compiled_programs") == 1
        assert scheduler.telemetry.counter("service.joined_compiles") == 1
        expected = repro.compile(program, level=3).circuit
        assert first.result.circuit == second.result.circuit == expected

    def test_timed_out_owner_keeps_the_joiner(self, cache, rng, held_compile):
        program = random_pauli_terms(rng, 4, 5)
        key = cache.key_for(program)

        async def scenario():
            scheduler = BatchingScheduler(cache=cache)
            # as the server does: the owner's deadline also bounds its await
            owner = asyncio.ensure_future(asyncio.wait_for(
                scheduler.submit(program, key=key, deadline=time.monotonic() + 0.2),
                timeout=0.2,
            ))
            await asyncio.sleep(0.1)
            joiner = await scheduler.submit(program, key=key)
            with pytest.raises(asyncio.TimeoutError):
                await owner
            return scheduler, joiner

        scheduler, joiner = asyncio.run(scenario())
        assert scheduler.telemetry.counter("service.compiled_programs") == 1
        assert joiner.result.circuit == repro.compile(program, level=3).circuit

    def test_joiner_of_an_abandoned_job_compiles_for_itself(self, cache, rng):
        program = random_pauli_terms(rng, 4, 5)
        key = cache.key_for(program)

        async def scenario():
            scheduler = BatchingScheduler(cache=cache)
            return await asyncio.gather(
                scheduler.submit(program, key=key, deadline=time.monotonic() - 1),
                scheduler.submit(program, key=key),
                return_exceptions=True,
            )

        owner, joiner = asyncio.run(scenario())
        assert isinstance(owner, DeadlineExceededError)
        assert joiner.result.circuit == repro.compile(program, level=3).circuit
