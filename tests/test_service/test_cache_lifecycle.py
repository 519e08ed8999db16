"""Cache lifecycle: TTL sweeps, template-store eviction, server sweep task."""

import os
import time

import numpy as np
import pytest

import repro
from repro.exceptions import CacheError
from repro.parametric import ParametricProgram, compile_template
from repro.service.cache import ArtifactCache, cache_key, template_cache_key
from repro.service.client import Client
from repro.service.server import ServiceServer, run_server_in_thread

from tests.conftest import random_pauli_terms


def _rng(seed=0):
    return np.random.default_rng(seed)


def _backdate(path, seconds):
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def _store_one(cache, seed=1):
    terms = random_pauli_terms(_rng(seed), 4, 6)
    key = cache_key(terms)
    cache.put(key, repro.compile(terms))
    return key


def _store_template(cache, seed=2, num_terms=6):
    terms = random_pauli_terms(_rng(seed), 4, num_terms)
    program = ParametricProgram.from_terms(terms, [i % 2 for i in range(num_terms)])
    key = template_cache_key(program)
    cache.put_template(key, compile_template(program))
    return key


class TestTtlSweep:
    def test_invalid_ttl_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            ArtifactCache(tmp_path, ttl_seconds=0)
        with pytest.raises(CacheError):
            ArtifactCache(tmp_path, ttl_seconds=-5)

    def test_sweep_without_ttl_only_reconciles(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = _store_one(cache)
        _backdate(cache._objects.path(key), 1e6)
        summary = cache.sweep()
        assert summary == {
            "expired_objects": 0,
            "expired_templates": 0,
            "index_drift": 0,
            "ttl_seconds": None,
        }
        assert cache.get(key) is not None

    def test_sweep_expires_idle_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path, ttl_seconds=60.0)
        stale = _store_one(cache, seed=3)
        fresh = _store_one(cache, seed=4)
        _backdate(cache._objects.path(stale), 3600)
        cache.forget_memory()
        summary = cache.sweep()
        assert summary["expired_objects"] == 1
        assert cache.get(stale) is None
        assert cache.get(fresh) is not None

    def test_sweep_expires_idle_templates(self, tmp_path):
        cache = ArtifactCache(tmp_path, ttl_seconds=60.0)
        key = _store_template(cache)
        _backdate(cache._templates.path(key), 3600)
        cache.forget_memory()
        assert cache.sweep()["expired_templates"] == 1
        assert cache.get_template(key) is None

    def test_disk_hits_refresh_the_clock(self, tmp_path):
        # a get() touches the mtime, so an *active* artifact never expires
        cache = ArtifactCache(tmp_path, ttl_seconds=60.0)
        key = _store_one(cache, seed=5)
        _backdate(cache._objects.path(key), 3600)
        cache.forget_memory()
        assert cache.get(key) is not None  # disk hit touches mtime
        assert cache.sweep()["expired_objects"] == 0
        assert cache.get(key) is not None

    def test_template_disk_hits_refresh_the_clock(self, tmp_path):
        cache = ArtifactCache(tmp_path, ttl_seconds=60.0)
        key = _store_template(cache, seed=6)
        _backdate(cache._templates.path(key), 3600)
        cache.forget_memory()
        assert cache.get_template(key) is not None
        assert cache.sweep()["expired_templates"] == 0

    def test_counters_accumulate(self, tmp_path):
        cache = ArtifactCache(tmp_path, ttl_seconds=60.0)
        stale = _store_one(cache, seed=7)
        _backdate(cache._objects.path(stale), 3600)
        cache.forget_memory()
        cache.sweep()
        cache.sweep()
        stats = cache.stats()
        assert stats["sweeps"] == 2
        assert stats["expired"] == 1
        assert stats["ttl_seconds"] == 60.0


class TestTemplateEviction:
    def test_template_store_respects_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_template_bytes=1)
        first = _store_template(cache, seed=8)
        second = _store_template(cache, seed=9, num_terms=8)
        names = {path.stem for _, _, path in cache._templates.scan()}
        assert len(names) <= 1
        assert cache.template_evictions >= 1
        assert {first, second} - names  # at least one was evicted

    def test_oldest_template_evicted_first(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_template_bytes=10_000_000)
        old = _store_template(cache, seed=10)
        _backdate(cache._templates.path(old), 3600)
        new = _store_template(cache, seed=11, num_terms=8)
        size = sum(s for _, s, _ in cache._templates.scan())
        cache.max_template_bytes = size - 1  # force one eviction
        cache._templates.evict()
        names = {path.stem for _, _, path in cache._templates.scan()}
        assert new in names
        assert old not in names
        cache.forget_memory()
        assert cache.get_template(old) is None

    def test_stats_surface_template_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _store_template(cache, seed=12)
        stats = cache.stats()
        assert stats["template_disk_entries"] == 1
        assert stats["template_disk_bytes"] > 0
        assert stats["max_template_bytes"] == cache.max_template_bytes
        assert stats["template_evictions"] == 0


class TestServerSweepTask:
    def test_background_sweep_runs_and_surfaces_on_metrics(self, tmp_path):
        cache = ArtifactCache(tmp_path, ttl_seconds=3600.0)
        server = ServiceServer(cache=cache, sweep_interval=0.05)
        with run_server_in_thread(server):
            with Client(port=server.port) as client:
                deadline = time.time() + 10
                while time.time() < deadline:
                    metrics = client.metrics()
                    if metrics["cache"]["sweeps"] >= 2:
                        break
                    time.sleep(0.05)
                assert metrics["cache"]["sweeps"] >= 2
                assert metrics["telemetry"]["counters"]["service.cache_sweeps"] >= 2
                assert metrics["cache"]["ttl_seconds"] == 3600.0

    def test_sweep_disabled_by_default(self, tmp_path):
        server = ServiceServer(cache_dir=tmp_path)
        assert server.sweep_interval == 0.0
        assert server._sweep_task is None

    def test_server_wires_ttl_into_cache(self, tmp_path):
        server = ServiceServer(cache_dir=tmp_path, ttl_seconds=120.0)
        assert server.cache.ttl_seconds == 120.0
