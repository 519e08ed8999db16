"""Tests for the batch compile entry point (repro.compile_many) and its planner."""

import os

import numpy as np
import pytest

import repro
from repro.clifford.engine import ConjugationCache
from repro.compiler import CompilePool, get_registry, plan_batch
from repro.parametric import BoundProgram, ParametricProgram, compile_template
from repro.paulis.term import PauliTerm
from repro.paulis.sum import SparsePauliSum
from repro.workloads.registry import SMALL_BENCHMARKS, get_benchmark

from tests.conftest import random_pauli, random_pauli_terms


def _programs(rng, count=4):
    return [random_pauli_terms(rng, 4, 6) for _ in range(count)]


class TestCompileMany:
    def test_matches_sequential_compile(self, rng):
        programs = _programs(rng)
        sequential = [repro.compile(program, level=3) for program in programs]
        batch = repro.compile_many(programs, level=3)
        assert len(batch) == len(programs)
        for batch_result, reference in zip(batch, sequential):
            assert batch_result.circuit == reference.circuit
            assert batch_result.extracted_clifford == reference.extracted_clifford

    def test_results_in_input_order(self, rng):
        programs = _programs(rng, count=6)
        batch = repro.compile_many(programs, level=0)
        for result, program in zip(batch, programs):
            assert result.circuit == repro.compile(program, level=0).circuit

    def test_empty_batch(self):
        assert repro.compile_many([]) == []

    def test_accepts_sparse_pauli_sums(self, rng):
        terms = random_pauli_terms(rng, 3, 5)
        observable = SparsePauliSum(PauliTerm(t.pauli, t.coefficient) for t in terms)
        batch = repro.compile_many([observable, terms], level=1)
        assert len(batch) == 2

    def test_registered_pipeline_name(self, rng):
        programs = _programs(rng, count=2)
        batch = repro.compile_many(programs, pipeline="quclear")
        reference = [repro.compile(program, pipeline="quclear") for program in programs]
        assert [r.circuit for r in batch] == [r.circuit for r in reference]


@pytest.fixture(scope="module")
def bound():
    """A bound template: planned as no work, never sent to a pool."""
    terms = random_pauli_terms(np.random.default_rng(5), 3, 4)
    program = ParametricProgram([term.pauli for term in terms], [0, 1, 0, 1])
    return BoundProgram(compile_template(program, level=3), [0.3, -0.7])


#: (programs' term counts, bound programs, pool, caller cache, CPUs) -> plan
PLAN_TABLE = [
    pytest.param([], 2, None, False, 4, "serial", 1, id="all-bind"),
    pytest.param([30000], 1, "live", False, 4, "serial", 1, id="single-program"),
    pytest.param([1250, 1249], 0, "live", False, 4, "serial", 1, id="2499-terms-live-pool"),
    pytest.param([1250, 1250], 0, "live", False, 4, "pool", 3, id="2500-terms-live-pool"),
    pytest.param([1250, 1250], 1, "live", False, 4, "pool", 3, id="mixed-batch-live-pool"),
    pytest.param([1250, 1250], 0, "disabled", False, 4, "serial", 1, id="disabled-pool-ignored"),
    pytest.param([10000, 9999], 0, None, False, 4, "serial", 1, id="19999-terms-no-pool"),
    pytest.param([10000, 10000], 0, None, False, 4, "pool", 2, id="20000-terms-transient-pool"),
    pytest.param([10000, 10000], 0, None, False, 1, "serial", 1, id="20000-terms-one-cpu"),
    pytest.param([10000, 10000], 0, None, True, 4, "serial", 1, id="20000-terms-caller-cache"),
    pytest.param([10000, 10000], 0, "live", True, 4, "pool", 3, id="caller-cache-live-pool"),
    pytest.param([], 3, "live", False, 4, "serial", 1, id="all-bind-live-pool"),
    pytest.param([30000], 0, None, False, 4, "serial", 1, id="single-program-no-pool"),
    pytest.param([1250, 1249], 0, None, False, 4, "serial", 1, id="2499-terms-no-pool"),
    pytest.param([1250, 1250], 0, None, False, 4, "serial", 1, id="2500-terms-no-pool"),
    pytest.param([10000, 9999], 0, "live", False, 4, "pool", 3, id="19999-terms-live-pool"),
    pytest.param([10000, 10000], 0, "disabled", False, 4, "pool", 2, id="disabled-pool-transient"),
    pytest.param([10000, 10000], 0, "disabled", True, 4, "serial", 1, id="disabled-pool-caller-cache"),
    pytest.param([10000, 10000], 2, None, False, 4, "pool", 2, id="mixed-batch-transient-pool"),
    pytest.param([10000, 9999], 3, None, False, 4, "serial", 1, id="binds-add-no-terms"),
    pytest.param([500] * 40, 0, None, False, 64, "pool", 32, id="transient-pool-capped-at-32"),
    pytest.param([7000, 7000, 6000], 0, None, False, 2, "pool", 2, id="transient-pool-capped-at-cpus"),
]


@pytest.mark.parametrize(
    "sizes, binds, pool_kind, with_cache, cpus, executor, workers", PLAN_TABLE
)
def test_plan_table(
    rng, bound, monkeypatch, sizes, binds, pool_kind, with_cache, cpus, executor, workers
):
    # plan_batch only reads len(program), so each program repeats one term
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    seed = random_pauli_terms(rng, 4, 1)
    programs = [seed * size for size in sizes] + [bound] * binds
    pool = {"live": CompilePool(3), "disabled": CompilePool(0), None: None}[pool_kind]
    cache = ConjugationCache() if with_cache else None
    plan = plan_batch(programs, pool=pool, conjugation_cache=cache)
    assert (plan.executor, plan.max_workers) == (executor, workers)
    assert (plan.num_programs, plan.total_terms) == (len(sizes), sum(sizes))
    assert plan.reason
    if pool is not None:
        assert not pool.alive  # planning never spawns workers


def test_pool_chunksize_gives_each_worker_four_dispatches(rng, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seed = random_pauli_terms(rng, 4, 1)
    plan = plan_batch([seed * 500] * 40)
    assert (plan.executor, plan.max_workers, plan.chunksize) == ("pool", 2, 5)


class TestBatchGateIdentity:
    """A serial batch is gate-identical to compiling each program alone."""

    @pytest.mark.parametrize("workload", SMALL_BENCHMARKS)
    def test_small_benchmarks(self, workload):
        terms = get_benchmark(workload).terms()
        programs = [terms, list(reversed(terms))]
        batch = repro.compile_many(programs, level=3)
        for result, program in zip(batch, programs):
            reference = repro.compile(program, level=3)
            assert result.circuit == reference.circuit
            assert result.extracted_clifford == reference.extracted_clifford

    @pytest.mark.parametrize("name", get_registry().names())
    def test_registered_pipelines_match_registry_compile(self, name, rng):
        programs = _programs(rng, count=2)
        batch = repro.compile_many(programs, pipeline=name)
        reference = [get_registry().compile(name, program) for program in programs]
        assert [r.circuit for r in batch] == [r.circuit for r in reference]

    def test_bind_only_batch_replays_templates(self, bound):
        batch = repro.compile_many([bound, bound], level=3)
        expected = bound.template.bind(bound.params).circuit
        assert [r.circuit for r in batch] == [expected, expected]


class TestSharedConjugationCache:
    def test_cache_attached_to_every_result(self, rng):
        programs = _programs(rng, count=3)
        cache = ConjugationCache()
        batch = repro.compile_many(programs, level=3, conjugation_cache=cache)
        for result in batch:
            assert result.properties["conjugation_cache"] is cache

    def test_identical_programs_hit_the_cache(self, rng):
        program = random_pauli_terms(rng, 4, 6)
        cache = ConjugationCache()
        batch = repro.compile_many(
            [list(program), list(program), list(program)],
            level=3,
            conjugation_cache=cache,
        )
        observable = random_pauli(rng, 4)
        for result in batch:
            result.absorb_observables([observable])
        stats = cache.stats()
        # three identical extracted tails -> one frozen conjugator, two hits
        assert stats["entries"] == 1
        assert stats["hits"] >= 2

    def test_compile_still_has_a_cache_without_batching(self, rng):
        result = repro.compile(random_pauli_terms(rng, 4, 6), level=3)
        assert result.properties["conjugation_cache"] is not None
