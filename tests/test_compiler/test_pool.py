"""The long-lived compile process pool and compile_many's use of it."""

import pytest

import repro
from repro.compiler import CompilePool, CompilePoolBrokenError, preset_pipeline
from repro.compiler.api import SERIAL_BATCH_TERMS
from repro.exceptions import CompilerError
from repro.parametric import BoundProgram, ParametricProgram, compile_template
from repro.workloads.registry import SMALL_BENCHMARKS, get_benchmark

from tests.conftest import random_pauli_terms


def _programs(rng, count=4, qubits=4, terms=6):
    return [random_pauli_terms(rng, qubits, terms) for _ in range(count)]


@pytest.fixture(scope="module")
def pool():
    """One warm two-worker pool shared by the whole module (spawn is slow)."""
    with CompilePool(max_workers=2) as shared:
        shared.warm()
        yield shared


@pytest.fixture(scope="module")
def pool_sized_batch():
    """Just over the pool-overhead cutoff, so compile_many routes to a pool."""
    import numpy as np

    rng = np.random.default_rng(17)
    count = SERIAL_BATCH_TERMS // 60 + 1
    return _programs(rng, count=count, qubits=3, terms=60)


def _circuits(results):
    return [result.circuit for result in results]


class TestCompilePoolBasics:
    def test_disabled_pool_is_not_usable(self):
        disabled = CompilePool(max_workers=0)
        assert not disabled.usable
        assert not disabled.alive
        assert disabled.warm() == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(CompilerError):
            CompilePool(max_workers=-1)

    def test_lazy_construction(self):
        lazy = CompilePool(max_workers=1)
        assert lazy.usable and not lazy.alive
        assert lazy.stats()["alive"] is False
        lazy.shutdown()  # shutting down a never-started pool is a no-op

    def test_warm_spawns_distinct_workers(self, pool):
        assert pool.warm() == 2
        assert pool.alive

    def test_stats_shape(self, pool):
        stats = pool.stats()
        assert stats["max_workers"] == 2
        assert {"alive", "batches", "programs", "restarts", "breaks"} <= set(stats)


class TestPoolCompilation:
    def test_matches_sequential_compile(self, rng, pool):
        programs = _programs(rng)
        reference = [repro.compile(program, level=3) for program in programs]
        batch = pool.map_compile(preset_pipeline(3), None, programs)
        assert _circuits(batch) == _circuits(reference)
        assert [r.extracted_clifford for r in batch] == [
            r.extracted_clifford for r in reference
        ]

    def test_matches_compile_on_small_benchmarks(self, pool):
        programs = [get_benchmark(name).terms() for name in SMALL_BENCHMARKS]
        reference = [repro.compile(program, level=3) for program in programs]
        batch = pool.map_compile(preset_pipeline(3), None, programs)
        assert _circuits(batch) == _circuits(reference)

    def test_results_strip_worker_cache(self, rng, pool):
        batch = pool.map_compile(preset_pipeline(3), None, _programs(rng, count=2))
        assert batch[0].properties.get("conjugation_cache") is None

    def test_counters_advance(self, rng, pool):
        before = pool.stats()
        pool.map_compile(preset_pipeline(1), None, _programs(rng, count=3))
        after = pool.stats()
        assert after["batches"] == before["batches"] + 1
        assert after["programs"] == before["programs"] + 3

    def test_compile_many_routes_large_batches_to_the_pool(self, pool, pool_sized_batch):
        reference = repro.compile_many(pool_sized_batch, level=1)
        before = pool.batches
        batch = repro.compile_many(pool_sized_batch, level=1, pool=pool)
        assert pool.batches == before + 1
        assert _circuits(batch) == _circuits(reference)

    def test_mixed_batch_keeps_the_pool(self, pool, pool_sized_batch):
        # a bind riding along must not knock the regular programs off the pool
        terms = get_benchmark("UCC-(2,4)").terms()
        program = ParametricProgram.from_terms(terms, list(range(len(terms))))
        template = compile_template(program, level=1)
        bound = BoundProgram(template, [0.1 * (i + 1) for i in range(len(terms))])
        mixed = [bound] + pool_sized_batch
        before = pool.batches
        batch = repro.compile_many(mixed, level=1, pool=pool)
        assert pool.batches == before + 1
        serial = repro.compile_many(mixed, level=1)
        assert _circuits(batch) == _circuits(serial)
        assert batch[0].circuit == template.bind(bound.params).circuit

    def test_transient_pool_without_a_caller_pool(
        self, monkeypatch, pool_sized_batch
    ):
        # lower the transient-pool cutoff so a small batch takes that path;
        # pool results come back without the worker's conjugation cache
        monkeypatch.setattr(repro.compiler.api, "PROCESS_BATCH_TERMS", SERIAL_BATCH_TERMS)
        monkeypatch.setattr(repro.compiler.api.os, "cpu_count", lambda: 2)
        reference = [repro.compile(program, level=1) for program in pool_sized_batch]
        batch = repro.compile_many(pool_sized_batch, level=1)
        assert _circuits(batch) == _circuits(reference)
        assert all(r.properties.get("conjugation_cache") is None for r in batch)

    def test_broken_pool_falls_back_to_serial(self, pool, pool_sized_batch):
        reference = repro.compile_many(pool_sized_batch, level=1)
        pool.warm()
        breaks = pool.breaks
        # kill the workers behind the executor's back mid-lifetime
        for process in list(pool._executor._processes.values()):
            process.terminate()
        batch = repro.compile_many(pool_sized_batch, level=1, pool=pool)
        assert _circuits(batch) == _circuits(reference)
        assert pool.breaks == breaks + 1
        # the serial fallback attaches an in-process conjugation cache
        assert batch[0].properties["conjugation_cache"] is not None
        # the next use lazily revives the executor
        revived = repro.compile_many(pool_sized_batch, level=1, pool=pool)
        assert _circuits(revived) == _circuits(reference)
        assert pool.alive

    def test_map_compile_raises_on_broken_pool(self, rng, pool):
        programs = _programs(rng, count=2)
        pool.warm()
        for process in list(pool._executor._processes.values()):
            process.terminate()
        with pytest.raises(CompilePoolBrokenError):
            pool.map_compile(preset_pipeline(3), None, programs)
