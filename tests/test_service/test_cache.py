"""The content-addressed artifact cache: keys, layering, persistence, LRU."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.exceptions import CacheError, InvalidProgramError
from repro.paulis.sum import SparsePauliSum
from repro.service.cache import ArtifactCache, cache_key, target_fingerprint
from repro.workloads.registry import get_benchmark

from tests.conftest import random_pauli_terms

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestCacheKey:
    def test_same_program_same_key(self, rng):
        terms = random_pauli_terms(rng, 5, 8)
        assert cache_key(terms) == cache_key(list(terms))

    def test_sum_and_term_list_share_a_key(self, rng):
        terms = random_pauli_terms(rng, 5, 8)
        assert cache_key(terms) == cache_key(SparsePauliSum(terms))

    def test_key_depends_on_coefficients(self, rng):
        terms = random_pauli_terms(rng, 5, 8)
        rescaled = [t.with_coefficient(t.coefficient * 2.0) for t in terms]
        assert cache_key(terms) != cache_key(rescaled)

    def test_key_depends_on_level_pipeline_target(self, rng):
        terms = random_pauli_terms(rng, 5, 8)
        keys = {
            cache_key(terms, level=3),
            cache_key(terms, level=2),
            cache_key(terms, pipeline="quclear"),
            cache_key(terms, target="sycamore"),
        }
        assert len(keys) == 4

    def test_equivalent_targets_fingerprint_identically(self):
        from repro.compiler.target import Target

        assert target_fingerprint(Target.sycamore()) == target_fingerprint("sycamore")
        assert target_fingerprint(None) == "target:none"

    def test_pipeline_objects_rejected(self, rng):
        from repro.compiler.presets import preset_pipeline

        with pytest.raises(CacheError):
            cache_key(random_pauli_terms(rng, 4, 4), pipeline=preset_pipeline(3))

    def test_empty_program_rejected(self):
        with pytest.raises(InvalidProgramError):
            cache_key([])


class TestCacheStore:
    def test_miss_then_hit(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms, level=3)
        assert cache.get(key) is None
        result = repro.compile(terms, level=3)
        cache.put(key, result)
        hit = cache.get(key)
        assert hit is not None
        assert hit.circuit == result.circuit
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_disk_hit_after_memory_drop(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        result = repro.compile(terms, level=3)
        cache.put(key, result)
        cache.forget_memory()
        hit = cache.get(key)
        assert hit.circuit == result.circuit
        assert hit.extracted_clifford == result.extracted_clifford
        assert cache.stats()["disk_hits"] == 1

    def test_persists_across_cache_instances(self, tmp_path, rng):
        terms = random_pauli_terms(rng, 4, 6)
        first = ArtifactCache(tmp_path / "shared")
        key = first.key_for(terms)
        first.put(key, repro.compile(terms, level=3))
        second = ArtifactCache(tmp_path / "shared")
        hit = second.get(key)
        assert hit is not None and hit.circuit.num_qubits == 4

    def test_index_file_snapshot(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms, level=3))
        cache.sweep()
        index = json.loads(cache.index_path.read_text())
        assert index["schema"] == "repro-artifact-index/v1"
        assert key in index["artifacts"]
        assert index["total_bytes"] > 0

    def test_corrupt_artifact_degrades_to_miss(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms, level=3))
        cache.forget_memory()
        (cache.objects_dir / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        # the poisoned file is dropped so the next put can heal it
        assert not (cache.objects_dir / f"{key}.json").exists()

    def test_structurally_incomplete_artifact_degrades_to_miss(self, cache, rng):
        # valid JSON with the right format tag but a missing required field
        # must read as a miss (and be dropped), not raise out of get()
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms, level=3))
        cache.forget_memory()
        path = cache.objects_dir / f"{key}.json"
        artifact = json.loads(path.read_text())
        del artifact["extraction"]["optimized_circuit"]
        path.write_text(json.dumps(artifact))
        assert cache.get(key) is None
        assert not path.exists()

    def test_malformed_key_rejected(self, cache):
        with pytest.raises(CacheError):
            cache.get("../../etc/passwd")

    def test_lru_eviction_respects_size_cap(self, tmp_path, rng):
        small = ArtifactCache(tmp_path / "small", max_bytes=1)
        programs = [random_pauli_terms(rng, 4, 5) for _ in range(3)]
        keys = []
        for program in programs:
            key = small.key_for(program)
            small.put(key, repro.compile(program, level=1))
            keys.append(key)
        # a 1-byte budget keeps at most the newest artifact on disk
        assert len(small) <= 1
        assert small.stats()["evictions"] >= 2

    def test_recently_used_survives_eviction(self, tmp_path, rng):
        programs = [random_pauli_terms(rng, 4, 5) for _ in range(3)]
        results = [repro.compile(p, level=1) for p in programs]
        probe = ArtifactCache(tmp_path / "lru")
        keys = [probe.key_for(p) for p in programs]
        probe.put(keys[0], results[0])
        one_size = probe.stats()["disk_bytes"]
        # room for two artifacts: storing a third must evict the stalest
        lru = ArtifactCache(tmp_path / "lru2", max_bytes=int(one_size * 2.5))
        lru.put(keys[0], results[0])
        time.sleep(0.02)
        lru.put(keys[1], results[1])
        time.sleep(0.02)
        lru.forget_memory()
        assert lru.get(keys[0]) is not None  # refreshes key 0's mtime
        time.sleep(0.02)
        lru.put(keys[2], results[2])
        lru.forget_memory()
        assert lru.get(keys[0]) is not None
        assert lru.get(keys[1]) is None  # the stalest was evicted

    def test_concurrent_puts_are_safe(self, cache, rng):
        programs = [random_pauli_terms(rng, 4, 5) for _ in range(8)]
        results = [repro.compile(p, level=1) for p in programs]
        keys = [cache.key_for(p, level=1) for p in programs]

        def store(index):
            cache.put(keys[index], results[index])

        threads = [threading.Thread(target=store, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cache.forget_memory()
        for index, key in enumerate(keys):
            assert cache.get(key).circuit == results[index].circuit


class TestAcceptance:
    """The PR's cache acceptance criteria, asserted directly."""

    def test_h2o_warm_hit_at_least_20x_faster_than_cold(self, tmp_path):
        terms = get_benchmark("H2O").terms()
        cache = ArtifactCache(tmp_path / "h2o")
        key = cache.key_for(terms, level=3)

        cold = min(_timed(lambda: repro.compile(terms, level=3)) for _ in range(3))
        cache.put(key, repro.compile(terms, level=3))
        warm = min(_timed(lambda: cache.get(key)) for _ in range(5))
        hit = cache.get(key)
        assert hit.circuit == repro.compile(terms, level=3).circuit
        assert cold / warm >= 20.0, f"warm hit only {cold / warm:.1f}x faster"

    def test_cache_survives_process_restart(self, tmp_path):
        terms = get_benchmark("H2O").terms()
        cache = ArtifactCache(tmp_path / "restart")
        key = cache.key_for(terms, level=3)
        result = repro.compile(terms, level=3)
        cache.put(key, result)
        # a fresh interpreter against the same cache dir must hit, and the
        # artifact must deserialize to the identical circuit
        script = (
            "import sys, json\n"
            "from repro.service.cache import ArtifactCache\n"
            "from repro.workloads.registry import get_benchmark\n"
            "import repro\n"
            f"cache = ArtifactCache({str(tmp_path / 'restart')!r})\n"
            "terms = get_benchmark('H2O').terms()\n"
            "key = cache.key_for(terms, level=3)\n"
            f"assert key == {key!r}, 'key not reproducible across processes'\n"
            "hit = cache.get(key)\n"
            "assert hit is not None, 'no hit after restart'\n"
            "assert hit.circuit == repro.compile(terms, level=3).circuit\n"
            "print('RESTART-HIT-OK')\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0, completed.stderr
        assert "RESTART-HIT-OK" in completed.stdout


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------- #
# Compiled templates (repro.parametric)
# ---------------------------------------------------------------------- #
def _parametric_program(rng, num_qubits=4, num_terms=8, num_params=2):
    from repro.parametric import ParametricProgram

    terms = random_pauli_terms(rng, num_qubits, num_terms)
    return ParametricProgram.from_terms(
        terms, [index % num_params for index in range(num_terms)]
    )


class TestTemplateKey:
    def test_structure_only_and_reproducible(self, rng):
        from repro.parametric import ParametricProgram
        from repro.service.cache import template_cache_key

        seed_terms = random_pauli_terms(rng, 4, 8)

        slots = [i % 2 for i in range(8)]
        first = ParametricProgram.from_terms(seed_terms, slots)
        rebuilt = ParametricProgram.from_terms(list(seed_terms), slots)
        assert template_cache_key(first) == template_cache_key(rebuilt)
        # no concrete angle enters the key: it is usable before any binding
        assert len(template_cache_key(first)) == 64

    def test_key_depends_on_structure_fields(self, rng):
        from repro.parametric import ParametricProgram
        from repro.service.cache import template_cache_key

        terms = random_pauli_terms(rng, 4, 8)
        base = ParametricProgram.from_terms(terms, [i % 2 for i in range(8)])
        other_slots = ParametricProgram.from_terms(terms, [0] * 8)
        rescaled = ParametricProgram.from_terms(
            [t.with_coefficient(t.coefficient * 2.0) for t in terms],
            [i % 2 for i in range(8)],
        )
        keys = {
            template_cache_key(base),
            template_cache_key(other_slots),
            template_cache_key(rescaled),
            template_cache_key(base, level=2),
        }
        assert len(keys) == 4

    def test_concrete_program_rejected(self, rng):
        from repro.service.cache import template_cache_key

        with pytest.raises(CacheError, match="ParametricProgram"):
            template_cache_key(random_pauli_terms(rng, 4, 4))


class TestTemplateStore:
    def test_put_get_and_memory_promotion(self, cache, rng):
        from repro.parametric import compile_template

        program = _parametric_program(rng)
        template = compile_template(program, level=3)
        key = cache.template_key_for(program, level=3)
        assert cache.get_template(key) is None
        cache.put_template(key, template)
        assert cache.get_template(key) is template  # memory layer, same object
        cache.forget_memory()
        restored = cache.get_template(key)
        assert restored is not None and restored is not template
        assert restored.skeleton_gate_count == template.skeleton_gate_count
        # the disk hit promoted it: next get is the same object again
        assert cache.get_template(key) is restored
        stats = cache.stats()
        assert stats["template_hits"] >= 2
        assert stats["template_misses"] == 1
        assert stats["template_disk_entries"] == 1

    def test_restored_template_binds_identically(self, tmp_path, rng):
        import numpy as np

        from repro.parametric import compile_template

        program = _parametric_program(rng)
        template = compile_template(program, level=3)
        first = ArtifactCache(tmp_path / "tpl")
        key = first.template_key_for(program, level=3)
        first.put_template(key, template)
        # a fresh cache instance on the same dir: restart persistence
        second = ArtifactCache(tmp_path / "tpl")
        restored = second.get_template(key)
        params = np.array([0.42, -1.17])
        assert restored.bind(params).circuit == template.bind(params).circuit

    def test_corrupt_template_degrades_to_miss(self, cache, rng):
        from repro.parametric import compile_template

        program = _parametric_program(rng)
        key = cache.template_key_for(program)
        cache.put_template(key, compile_template(program, level=3))
        cache.forget_memory()
        (cache.templates_dir / f"{key}.json").write_text("{not json")
        assert cache.get_template(key) is None

    def test_malformed_template_key_rejected(self, cache):
        with pytest.raises(CacheError):
            cache.get_template("../escape")

    def test_templates_exempt_from_lru_eviction(self, tmp_path, rng):
        from repro.parametric import compile_template

        small = ArtifactCache(tmp_path / "small", max_bytes=1)
        program = _parametric_program(rng)
        template_key = small.template_key_for(program)
        small.put_template(template_key, compile_template(program, level=3))
        # artifact puts under a 1-byte budget trigger evictions...
        for _ in range(3):
            terms = random_pauli_terms(rng, 4, 5)
            small.put(small.key_for(terms, level=1), repro.compile(terms, level=1))
        assert small.stats()["evictions"] >= 2
        small.forget_memory()
        # ...but the template store is lifecycle-managed separately
        assert small.get_template(template_key) is not None


class TestDelete:
    def test_delete_removes_all_layers(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms, level=3)
        cache.put(key, repro.compile(terms, level=3))
        assert cache.delete(key) is True
        assert cache.get(key) is None
        cache.forget_memory()
        assert cache.get(key) is None
        assert cache.stats()["deletes"] == 1

    def test_delete_absent_returns_false(self, cache, rng):
        key = cache.key_for(random_pauli_terms(rng, 4, 6))
        assert cache.delete(key) is False
        assert cache.stats()["deletes"] == 0

    def test_delete_updates_index_snapshot(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms, level=3)
        cache.put(key, repro.compile(terms, level=3))
        cache.delete(key)
        index = json.loads(cache.index_path.read_text())
        assert key not in index["artifacts"]


class TestIndexDrift:
    def test_clean_cache_reports_zero_drift(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        cache.put(cache.key_for(terms), repro.compile(terms, level=3))
        assert cache.reconcile_index() == 0
        assert cache.stats()["index_drift"] == 0

    def test_externally_deleted_artifact_is_detected_and_repaired(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms, level=3))
        # simulate an operator / volume prune that bypasses cache.delete()
        cache._objects.path(key).unlink()
        assert cache.reconcile_index() == 1
        stats = cache.stats()
        assert stats["index_drift"] == 1
        # the index snapshot was rewritten without the dead entry
        index = json.loads(cache.index_path.read_text())
        assert key not in index["artifacts"]
        # and detection is one-shot: the repaired index shows no new drift
        assert cache.reconcile_index() == 0
        assert cache.stats()["index_drift"] == 1

    def test_drifted_entry_is_dropped_from_memory_layer(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms, level=3))
        cache._objects.path(key).unlink()
        cache.reconcile_index()
        # the memory layer must not keep serving an artifact whose backing
        # file is gone (a later restart would silently flip it to a miss)
        assert cache.get(key) is None

    def test_drift_detected_at_construction(self, tmp_path, rng):
        terms = random_pauli_terms(rng, 4, 6)
        first = ArtifactCache(tmp_path / "shared")
        key = first.key_for(terms)
        first.put(key, repro.compile(terms, level=3))
        first.sweep()
        first._objects.path(key).unlink()
        second = ArtifactCache(tmp_path / "shared")
        assert second.index_drift == 1
        assert json.loads(second.index_path.read_text())["artifacts"] == {}

    def test_internal_delete_is_not_drift(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms, level=3))
        cache.delete(key)
        assert cache.reconcile_index() == 0
        assert cache.stats()["index_drift"] == 0

    def test_stats_triggers_reconcile(self, cache, rng):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms, level=3))
        cache._objects.path(key).unlink()
        assert cache.stats()["index_drift"] == 1


class TestUpgradeCompat:
    """Cache directories written by earlier releases keep serving hits.

    ``data/legacy_artifact.json.gz`` is an artifact file exactly as the
    release before the array-backend removal wrote it for ``LEGACY_TERMS``;
    its metadata still carries the backend-name field and the peephole
    fixpoint flag that compiles no longer record.  The pinned key is the
    one that release computed for the same program, so a key-derivation
    change cannot slip through unnoticed.
    """

    LEGACY_TERMS = [
        ("XYZI", 0.25),
        ("ZZII", -0.5),
        ("IXXY", 1.125),
    ]
    LEGACY_KEY = "9a4af4c46dbb048d56743bfedaf7ed03b0a2683851f9bbd922a375006fb864a9"

    @classmethod
    def legacy_terms(cls):
        return [repro.PauliTerm.from_label(label, angle) for label, angle in cls.LEGACY_TERMS]

    @staticmethod
    def legacy_bytes() -> bytes:
        import gzip

        path = Path(__file__).parent / "data" / "legacy_artifact.json.gz"
        return gzip.decompress(path.read_bytes())

    def test_cache_key_is_pinned(self):
        terms = self.legacy_terms()
        assert cache_key(terms) == self.LEGACY_KEY
        assert cache_key(SparsePauliSum(terms)) == self.LEGACY_KEY

    def test_legacy_artifact_decodes(self):
        from repro.service.serialize import result_from_wire

        legacy = result_from_wire(json.loads(self.legacy_bytes()))
        fresh = repro.compile(self.legacy_terms())
        assert legacy.circuit == fresh.circuit
        assert legacy.extracted_clifford == fresh.extracted_clifford
        assert (
            legacy.extraction.conjugation.content_key()
            == fresh.extraction.conjugation.content_key()
        )
        # the metadata fields a fresh compile no longer records: the backend
        # name of the removed array layer, and the flag the removed
        # emission-fused peephole path set
        assert set(legacy.metadata) - set(fresh.metadata) == {
            "array_backend", "peephole_fixpoint"
        }
        assert set(fresh.metadata) <= set(legacy.metadata)

    def test_legacy_artifact_is_a_cache_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path / "upgraded")
        key = cache.key_for(self.legacy_terms())
        cache._objects.path(key).write_bytes(self.legacy_bytes())
        result = cache.get(key)
        assert result is not None
        assert cache.stats()["disk_hits"] == 1
        assert cache.quarantine_entries() == 0
        assert result.circuit == repro.compile(self.legacy_terms()).circuit


class _StoreSide:
    """The public face of one of the cache's two stores, for parametrized cases."""

    def __init__(self, kind):
        self.kind = kind
        artifact = kind == "artifact"
        self.put = ArtifactCache.put if artifact else ArtifactCache.put_template
        self.get = ArtifactCache.get if artifact else ArtifactCache.get_template
        prefix = "" if artifact else "template_"
        self.hits = f"{prefix}hits"
        self.misses = f"{prefix}misses"
        self.evictions = f"{prefix}evictions"
        self.budget = "max_bytes" if artifact else "max_template_bytes"
        self.expired = "expired_objects" if artifact else "expired_templates"

    def entry(self, seed):
        """A fresh (key, value) pair for this store."""
        import numpy as np

        rng = np.random.default_rng(seed)
        if self.kind == "artifact":
            terms = random_pauli_terms(rng, 4, 5)
            return cache_key(terms, level=1), repro.compile(terms, level=1)
        from repro.parametric import compile_template
        from repro.service.cache import template_cache_key

        program = _parametric_program(rng)
        return template_cache_key(program), compile_template(program, level=3)

    def path(self, cache, key):
        store = cache._objects if self.kind == "artifact" else cache._templates
        return store.path(key)


def _backdate(path, seconds):
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


@pytest.fixture(params=["artifact", "template"])
def store(request):
    return _StoreSide(request.param)


class TestBothStores:
    """Results and templates share one store implementation: same behaviour."""

    def test_memory_hit(self, cache, store):
        key, value = store.entry(1)
        assert store.get(cache, key) is None
        store.put(cache, key, value)
        assert store.get(cache, key) is value  # the memory layer, same object
        stats = cache.stats()
        assert stats[store.hits] == 1 and stats[store.misses] == 1

    def test_disk_hit_promotes_and_touches_mtime(self, cache, store):
        key, value = store.entry(2)
        store.put(cache, key, value)
        path = store.path(cache, key)
        _backdate(path, 3600)
        cache.forget_memory()
        restored = store.get(cache, key)
        assert restored is not None and restored is not value
        assert path.stat().st_mtime > time.time() - 60  # touched for LRU/TTL
        assert store.get(cache, key) is restored  # promoted into memory

    def test_injected_read_error_is_a_miss(self, cache, store):
        from repro.service import faults

        key, value = store.entry(3)
        store.put(cache, key, value)
        cache.forget_memory()
        faults.REGISTRY.configure("cache.read:error")
        try:
            assert store.get(cache, key) is None
        finally:
            faults.REGISTRY.clear()
        assert cache.read_errors == 1
        assert cache.stats()[store.misses] == 1
        assert store.get(cache, key) is not None  # the file was never touched

    def test_corrupt_file_is_quarantined(self, cache, store):
        key, value = store.entry(4)
        store.put(cache, key, value)
        cache.forget_memory()
        path = store.path(cache, key)
        path.write_text("{not json")
        assert store.get(cache, key) is None
        assert not path.exists()
        assert cache.corrupt_artifacts == 1
        assert (cache.quarantine_dir / path.name).exists()

    def test_mtime_lru_evicts_the_stalest(self, cache, store):
        old_key, old_value = store.entry(5)
        new_key, new_value = store.entry(6)
        store.put(cache, old_key, old_value)
        _backdate(store.path(cache, old_key), 3600)
        store.put(cache, new_key, new_value)
        on_disk = store.path(cache, old_key).stat().st_size
        on_disk += store.path(cache, new_key).stat().st_size
        setattr(cache, store.budget, on_disk - 1)  # one file too many
        store.put(cache, new_key, new_value)  # a write runs the eviction
        assert not store.path(cache, old_key).exists()
        assert store.path(cache, new_key).exists()
        assert getattr(cache, store.evictions) == 1
        assert store.get(cache, old_key) is None  # dropped from memory too

    def test_ttl_expiry(self, tmp_path, store):
        cache = ArtifactCache(tmp_path / "ttl", ttl_seconds=60.0)
        stale_key, stale_value = store.entry(7)
        fresh_key, fresh_value = store.entry(8)
        store.put(cache, stale_key, stale_value)
        store.put(cache, fresh_key, fresh_value)
        _backdate(store.path(cache, stale_key), 3600)
        summary = cache.sweep()
        assert summary[store.expired] == 1
        assert store.get(cache, stale_key) is None  # gone from memory as well
        assert store.get(cache, fresh_key) is fresh_value

    def test_memory_hits_refresh_the_idle_ttl(self, tmp_path, store):
        ttl = 10.0 if store.kind == "artifact" else 60.0
        cache = ArtifactCache(tmp_path / "ttl", ttl_seconds=ttl)
        key, value = store.entry(9)
        store.put(cache, key, value)
        _backdate(store.path(cache, key), ttl + 1)  # stored a while ago
        for _ in range(100):  # steady load, all from the memory layer
            assert store.get(cache, key) is value
        assert cache.sweep()[store.expired] == 0
        assert store.get(cache, key) is value

    def test_memory_hits_count_for_the_disk_budget(self, tmp_path, cache, store):
        hot_key, hot_value = store.entry(10)
        cold_key, cold_value = store.entry(11)
        new_key, new_value = store.entry(12)
        sizer = ArtifactCache(tmp_path / "sizer")
        store.put(sizer, new_key, new_value)
        budget = store.path(sizer, new_key).stat().st_size - 1
        for key, value, age in ((hot_key, hot_value, 30), (cold_key, cold_value, 20)):
            store.put(cache, key, value)
            _backdate(store.path(cache, key), age)
            budget += store.path(cache, key).stat().st_size
        for _ in range(50):
            store.get(cache, hot_key)
        setattr(cache, store.budget, budget)  # the third file is one too many
        store.put(cache, new_key, new_value)
        assert store.path(cache, hot_key).exists()
        assert not store.path(cache, cold_key).exists()


def _damage(artifact: dict, field: str):
    *parents, name = field.split(".")
    for parent in parents:
        artifact = artifact[parent]
    artifact[name] = [] if name == "extraction" else None


class TestDamagedArtifacts:
    """Valid JSON with a broken field reads as a miss, never as an error."""

    @pytest.mark.parametrize("field", [
        "compile_seconds",
        "circuit.num_qubits",
        "extraction.rotation_count",
        "extraction.elapsed_seconds",
        "extraction",
        "circuit.ops",
    ])
    def test_damaged_field_is_quarantined(self, cache, rng, field):
        terms = random_pauli_terms(rng, 4, 6)
        key = cache.key_for(terms)
        cache.put(key, repro.compile(terms))
        path = cache.objects_dir / f"{key}.json"
        artifact = json.loads(path.read_text())
        _damage(artifact, field)
        path.write_text(json.dumps(artifact))
        cache.forget_memory()
        assert cache.get(key) is None
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).exists()
        assert cache.corrupt_artifacts == 1

