"""The artifact write path: a put below the budget lists no directory.

Counts, not timings: ``_scan_dir`` and ``_atomic_write`` are wrapped so each
case can say how many directory listings and file writes a run of puts did.
"""

import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.service import cache as cache_module
from repro.service.cache import RESCAN_FRACTION, ArtifactCache

from tests.conftest import random_pauli_terms


@pytest.fixture(scope="module")
def result():
    terms = random_pauli_terms(np.random.default_rng(5), 4, 5)
    return repro.compile(terms, level=1)


@pytest.fixture
def calls(monkeypatch):
    """Record every ``_scan_dir`` directory and ``_atomic_write`` path."""
    seen = {"scans": [], "writes": []}
    scan_dir, atomic_write = cache_module._scan_dir, cache_module._atomic_write

    def counting_scan(directory):
        seen["scans"].append(directory)
        return scan_dir(directory)

    def counting_write(path, data):
        seen["writes"].append(path)
        return atomic_write(path, data)

    monkeypatch.setattr(cache_module, "_scan_dir", counting_scan)
    monkeypatch.setattr(cache_module, "_atomic_write", counting_write)
    return seen


def _key(index: int) -> str:
    return f"{index:064x}"


def _artifact_size(tmp_path, result) -> int:
    sizer = ArtifactCache(tmp_path / "sizer")
    sizer.put(_key(0), result)
    return sizer._objects.path(_key(0)).stat().st_size


def _disk_bytes(directory) -> int:
    return sum(
        entry.stat().st_size
        for entry in os.scandir(directory)
        if entry.name.endswith(".json") and not entry.name.startswith(".tmp-")
    )


class TestPutDoesNotScan:
    def test_default_budget_puts_list_nothing_and_write_one_file(
        self, tmp_path, result, calls
    ):
        cache = ArtifactCache(tmp_path / "cache")
        index_before = cache.index_path.read_bytes()
        calls["scans"].clear()
        calls["writes"].clear()
        for index in range(300):
            cache.put(_key(index), result)
        assert calls["scans"] == []
        assert calls["writes"] == [cache._objects.path(_key(i)) for i in range(300)]
        assert cache.index_path.read_bytes() == index_before
        assert len(cache) == 300

    def test_small_budget_holds_after_every_put(self, tmp_path, result, calls):
        size = _artifact_size(tmp_path, result)
        budget = 20 * size
        cache = ArtifactCache(tmp_path / "cache", max_bytes=budget)
        calls["scans"].clear()
        for index in range(300):
            cache.put(_key(index), result)
            assert _disk_bytes(cache.objects_dir) <= budget
        scans = [d for d in calls["scans"] if d == cache.objects_dir]
        # filling the budget scans only every max_bytes // RESCAN_FRACTION
        # bytes; once full, every put takes the total over and scans once
        filling = math.ceil(20 * size / (budget // RESCAN_FRACTION))
        assert len(scans) <= filling + 280
        assert cache.evictions == 300 - 20

    def test_overwriting_a_key_counts_its_bytes_once(self, tmp_path, result, calls):
        size = _artifact_size(tmp_path, result)
        cache = ArtifactCache(tmp_path / "cache", max_bytes=10 * size + size // 2)
        for index in range(10):
            cache.put(_key(index), result)
        cache.sweep()  # a fresh scan: the next put alone does not rescan
        calls["scans"].clear()
        cache.put(_key(9), result)
        assert calls["scans"] == []
        assert cache._objects.disk_bytes == 10 * size
        assert cache.evictions == 0
        assert len(cache) == 10

    def test_own_evictions_are_not_drift(self, tmp_path, result):
        size = _artifact_size(tmp_path, result)
        cache = ArtifactCache(tmp_path / "cache", max_bytes=20 * size)
        for index in range(60):
            cache.put(_key(index), result)
        assert cache.evictions == 40
        assert cache.stats()["index_drift"] == 0

    def test_stats_rewrites_the_index_only_when_the_listing_changed(
        self, tmp_path, result, calls
    ):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put(_key(0), result)
        calls["writes"].clear()
        cache.stats()  # the index predates the put
        assert calls["writes"] == [cache.index_path]
        assert _key(0) in json.loads(cache.index_path.read_text())["artifacts"]
        calls["writes"].clear()
        cache.stats()
        cache.sweep()
        assert calls["writes"] == []


class TestSharedDirectory:
    def test_a_hit_in_another_process_protects_the_stalest_entry(
        self, tmp_path, result
    ):
        size = _artifact_size(tmp_path, result)
        shared = tmp_path / "shared"
        writer = ArtifactCache(shared, max_bytes=40 * size + size // 2)
        for index in range(40):
            writer.put(_key(index), result)
            stamp = time.time() - 1000 + index  # distinct, oldest first
            os.utime(writer._objects.path(_key(index)), (stamp, stamp))
        reader = ArtifactCache(shared)
        assert reader.get(_key(0)) is not None  # a disk hit touches the file
        writer.put(_key(40), result)  # one file over budget
        assert writer._objects.path(_key(0)).exists()
        assert not writer._objects.path(_key(1)).exists()
        assert writer.evictions == 1

    def test_alternating_writers_stay_within_an_eighth_over_budget(
        self, tmp_path, result
    ):
        size = _artifact_size(tmp_path, result)
        budget = 20 * size
        shared = tmp_path / "shared"
        writers = [ArtifactCache(shared, max_bytes=budget) for _ in range(2)]
        for index in range(200):
            writers[index % 2].put(_key(index), result)
            assert _disk_bytes(shared / "objects") <= budget * (1 + 1 / RESCAN_FRACTION)
        writers[0].sweep()
        writers[0].put(_key(200), result)
        assert _disk_bytes(shared / "objects") <= budget

    def test_another_processs_eviction_of_a_fresh_write_is_not_drift(
        self, tmp_path, result
    ):
        size = _artifact_size(tmp_path, result)
        shared = tmp_path / "shared"
        first = ArtifactCache(shared, max_bytes=20 * size)
        first.put(_key(0), result)  # below budget: not in any index yet
        stamp = time.time() - 1000
        os.utime(first._objects.path(_key(0)), (stamp, stamp))
        second = ArtifactCache(shared, max_bytes=20 * size)
        for index in range(1, 21):
            second.put(_key(index), result)
        assert second.evictions == 1
        assert not first._objects.path(_key(0)).exists()
        # the evicting process wrote the index after the eviction
        assert first.stats()["index_drift"] == 0
        assert second.stats()["index_drift"] == 0

    def test_stats_counts_another_processs_template(self, tmp_path):
        from repro.parametric import ParametricProgram, compile_template

        terms = random_pauli_terms(np.random.default_rng(3), 4, 4)
        program = ParametricProgram.from_terms(terms, list(range(len(terms))))
        shared = tmp_path / "shared"
        first, second = ArtifactCache(shared), ArtifactCache(shared)
        assert first.stats()["template_disk_entries"] == 0
        second.put_template(second.template_key_for(program), compile_template(program))
        stats = first.stats()
        assert stats["template_disk_entries"] == 1
        assert stats["template_disk_bytes"] == _disk_bytes(first.templates_dir)

    def test_a_put_during_a_scan_is_still_counted(self, tmp_path, result, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")
        scan_dir = cache_module._scan_dir

        def list_then_put(directory):
            entries = scan_dir(directory)
            monkeypatch.setattr(cache_module, "_scan_dir", scan_dir)
            cache.put(_key(1), result)  # another thread's put, after the listing
            return entries

        cache.put(_key(0), result)
        monkeypatch.setattr(cache_module, "_scan_dir", list_then_put)
        cache._objects.scan()
        assert set(cache._objects.unscanned_keys) == {_key(1)}
        assert cache._objects.disk_bytes == _disk_bytes(cache.objects_dir)


class TestThreads:
    def test_concurrent_puts_and_hits_hold_the_budget(self, tmp_path, result):
        size = _artifact_size(tmp_path, result)
        budget = 12 * size
        cache = ArtifactCache(tmp_path / "cache", max_bytes=budget)
        errors = []

        def work(worker):
            try:
                for index in range(40):
                    # overlapping keys: re-puts race evictions and rescans
                    cache.put(_key((worker * 7 + index) % 50), result)
                    cache.get(_key((worker + index) % 50))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # every put ends in an eviction pass that lists its own write
        assert _disk_bytes(cache.objects_dir) <= budget
        cache.sweep()
        assert cache._objects.disk_bytes == _disk_bytes(cache.objects_dir)
