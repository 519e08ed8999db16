"""Disk-backed content-addressed store of compiled artifacts.

The cache key is a canonical SHA-256 over everything that determines a
compilation's output: the program's **packed** words / phases / coefficient
bytes (the exact store the compiler consumes, so a term list and the
equivalent :class:`~repro.paulis.sum.SparsePauliSum` share one artifact), a
target fingerprint (name, qubit count, coupling edges, basis gates), and the
level / registered-pipeline spec.  Values are wire-serialized
:class:`~repro.compiler.result.CompilationResult` payloads
(:mod:`repro.service.serialize`), one JSON file per key.

Layering (fastest first):

1. an in-memory LRU of deserialized results — a warm hit costs a dict
   lookup, which is what lets a repeat request come back orders of magnitude
   faster than the cold compile;
2. the disk store — survives process restarts and is shared by concurrent
   processes: every object and index write goes through a temp file plus
   :func:`os.replace` (atomic on POSIX and Windows), so readers never see a
   torn file, and the LRU size cap evicts by file mtime (touched on every
   disk hit);
3. in front of the existing in-memory
   :class:`~repro.clifford.engine.ConjugationCache`: the cache owns one and
   the service threads it through every ``compile_many`` call, so even cache
   *misses* pool their tableau freezes.

``index.json`` is an advisory snapshot (key → size / stored-at) rebuilt from
the object directory on every write; the object files themselves are the
source of truth, so two processes racing on the index can only lose a
snapshot update, never an artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.clifford.engine import ConjugationCache
from repro.compiler.api import validate_program
from repro.compiler.result import CompilationResult
from repro.compiler.target import Target, as_target
from repro.exceptions import CacheError, FaultInjectedError, ReproError
from repro.paulis.packed import PackedPauliTable
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.service import faults
from repro.service.serialize import (
    result_from_wire,
    result_to_wire,
    template_from_wire,
    template_to_wire,
)
from repro.transpile.coupling import CouplingMap

#: default disk budget for one cache directory
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: default disk budget of the ``templates/`` store — separate from the
#: result budget because one template serves every binding of an ansatz,
#: but no longer exempt: an abandoned ansatz must not pin disk forever
DEFAULT_MAX_TEMPLATE_BYTES = 64 * 1024 * 1024

#: default number of deserialized results kept in the in-memory layer
DEFAULT_MEMORY_ENTRIES = 128

#: most corrupt files kept in ``<cache>/quarantine/`` — oldest pruned beyond
#: this, so a rotting disk cannot fill the volume with evidence
DEFAULT_MAX_QUARANTINE = 32


def target_fingerprint(target: Target | CouplingMap | str | None) -> str:
    """A canonical, content-based description of a compilation target.

    Two targets with the same connectivity and basis gates fingerprint
    identically even if constructed separately; ``None`` (all-to-all) has its
    own stable token.
    """
    device = as_target(target)
    if device is None:
        return "target:none"
    edges = (
        "full"
        if device.coupling is None
        else ";".join(
            f"{a}-{b}"
            for a, b in sorted((min(a, b), max(a, b)) for a, b in device.coupling.edges)
        )
    )
    gates = ",".join(sorted(device.basis_gates))
    return f"target:{device.name}:{device.num_qubits}:{edges}:{gates}"


def pipeline_fingerprint(level: int, pipeline: str | None) -> str:
    """The level / registered-pipeline-name part of the cache key.

    Only registry *names* (and preset levels) are accepted: an ad-hoc
    :class:`~repro.compiler.pipeline.Pipeline` object can carry arbitrary
    pass flags that a name-based fingerprint cannot see, and a content hash
    that silently collides across configurations would serve wrong artifacts.
    """
    if pipeline is None:
        return f"level:{int(level)}"
    if isinstance(pipeline, str):
        return f"pipeline:{pipeline}"
    raise CacheError(
        "artifact caching needs a reproducible pipeline spec: pass a preset "
        f"level or a registered pipeline name, not {type(pipeline).__name__}"
    )


def cache_key(
    program: Sequence[PauliTerm] | SparsePauliSum,
    target: Target | CouplingMap | str | None = None,
    level: int = 3,
    pipeline: str | None = None,
) -> str:
    """Canonical SHA-256 key of one compile request (hex digest)."""
    validate_program(program, source="repro.service.cache")
    if isinstance(program, SparsePauliSum):
        table = program.packed_table
        coefficients = program.coefficient_vector()
    else:
        table = PackedPauliTable.from_paulis(term.pauli for term in program)
        coefficients = np.array([term.coefficient for term in program], dtype=float)
    digest = hashlib.sha256()
    digest.update(f"repro-artifact/v1:{table.num_qubits}:{table.num_rows}".encode())
    digest.update(np.ascontiguousarray(table.x_words, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(table.z_words, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(table.phases % 4, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(coefficients, dtype="<f8").tobytes())
    digest.update(target_fingerprint(target).encode())
    digest.update(b"|")
    digest.update(pipeline_fingerprint(level, pipeline).encode())
    return digest.hexdigest()


def template_cache_key(
    program,
    target: Target | CouplingMap | str | None = None,
    level: int = 3,
) -> str:
    """Canonical SHA-256 key of one compiled template (hex digest).

    Keys on the ansatz *structure* alone — packed words, phases, slot
    assignments, scales and arity, never a concrete angle — so every binding
    of one ansatz resolves to the same template artifact.
    """
    from repro.parametric.program import ParametricProgram

    if not isinstance(program, ParametricProgram):
        raise CacheError(
            f"template keys are derived from a ParametricProgram, got "
            f"{type(program).__name__}"
        )
    table = program.table
    digest = hashlib.sha256()
    digest.update(
        f"repro-template/v1:{table.num_qubits}:{table.num_rows}:"
        f"{program.num_params}".encode()
    )
    digest.update(np.ascontiguousarray(table.x_words, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(table.z_words, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(table.phases % 4, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(program.slots, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(program.scales, dtype="<f8").tobytes())
    digest.update(target_fingerprint(target).encode())
    digest.update(b"|")
    digest.update(pipeline_fingerprint(level, None).encode())
    return digest.hexdigest()


class ArtifactCache:
    """Persistent content-addressed cache of :class:`CompilationResult`.

    Parameters
    ----------
    cache_dir:
        Directory shared by every process using this cache; created on
        demand.
    max_bytes:
        Disk budget; least-recently-used artifacts (by file mtime, touched
        on every disk hit) are evicted after a write pushes the total over.
    memory_entries:
        Size of the in-memory LRU of deserialized results (0 disables it).
    max_template_bytes:
        Disk budget of the ``templates/`` store; evicted mtime-LRU like the
        result objects (template mtimes are touched on every disk hit).
    ttl_seconds:
        Optional idle time-to-live: :meth:`sweep` removes artifacts and
        templates whose file mtime is older than this.  ``None`` (default)
        disables expiry; the server runs the sweep on a background task.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        max_bytes: int = DEFAULT_MAX_BYTES,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        max_template_bytes: int = DEFAULT_MAX_TEMPLATE_BYTES,
        ttl_seconds: float | None = None,
    ):
        self.cache_dir = Path(cache_dir)
        self.objects_dir = self.cache_dir / "objects"
        #: compiled templates live beside the result objects under their own
        #: (larger-grained) budget: one template serves every binding of an
        #: ansatz, so they never compete with single results for space — but
        #: the store is bounded and TTL-swept like everything else
        self.templates_dir = self.cache_dir / "templates"
        #: corrupt / incompatible artifacts are moved here (bounded count)
        #: instead of silently unlinked, so operators can diagnose disk rot
        self.quarantine_dir = self.cache_dir / "quarantine"
        self.max_quarantine = DEFAULT_MAX_QUARANTINE
        self.index_path = self.cache_dir / "index.json"
        self.max_bytes = int(max_bytes)
        self.max_template_bytes = int(max_template_bytes)
        self.ttl_seconds = None if ttl_seconds is None else float(ttl_seconds)
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise CacheError(
                f"ttl_seconds must be positive or None, got {self.ttl_seconds}"
            )
        self.memory_entries = int(memory_entries)
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.templates_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, CompilationResult] = OrderedDict()
        self._template_memory: OrderedDict[str, object] = OrderedDict()
        #: the in-memory conjugation cache this store layers in front of;
        #: the service threads it through every compile_many call
        self.conjugation_cache = ConjugationCache()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.evictions = 0
        self.deletes = 0
        self.template_hits = 0
        self.template_misses = 0
        self.template_evictions = 0
        #: lifecycle counters: completed :meth:`sweep` passes and the total
        #: artifacts + templates they expired under ``ttl_seconds``
        self.sweeps = 0
        self.expired = 0
        #: cumulative count of index.json entries found pointing at missing
        #: artifact files (external deletion, a lost eviction race, a pruned
        #: volume) — repaired on detection, surfaced on ``/metrics``
        self.index_drift = 0
        #: cumulative corrupt or incompatible artifacts hit by get()/
        #: get_template() — each is quarantined, counted, and degraded to a
        #: miss; surfaced on ``/metrics`` so operators can see disk rot
        self.corrupt_artifacts = 0
        #: injected or real read failures degraded to a miss
        self.read_errors = 0
        self.reconcile_index()

    # ------------------------------------------------------------------ #
    key_for = staticmethod(cache_key)
    template_key_for = staticmethod(template_cache_key)

    def _object_path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheError(f"malformed artifact key {key!r}")
        return self.objects_dir / f"{key}.json"

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> CompilationResult | None:
        """The cached result for ``key``, or ``None`` on a miss.

        Memory first; a disk hit is deserialized, promoted into the memory
        layer, and its file mtime refreshed so LRU eviction sees the use.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                self.memory_hits += 1
                return cached
        path = self._object_path(key)
        try:
            faults.fire("cache.read")
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, FaultInjectedError):
            # a torn write is impossible (os.replace), but a failing disk or
            # concurrent eviction mid-read degrades to a miss
            with self._lock:
                self.misses += 1
                self.read_errors += 1
            return None
        raw = faults.corrupt_bytes("cache.read", raw)
        try:
            payload = json.loads(raw)
            result = result_from_wire(payload)
        except (ValueError, ReproError):
            # corrupt or incompatible artifact (undecodable bytes, a
            # wire-format mismatch, or a structurally valid payload whose
            # contents fail reconstruction): quarantine it and recompile
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self.hits += 1
            self.disk_hits += 1
            self._remember(key, result)
        return result

    def put(self, key: str, result: CompilationResult) -> None:
        """Store ``result`` under ``key`` (atomic write + LRU eviction)."""
        faults.fire("cache.write")
        payload = result_to_wire(result)
        encoded = json.dumps(payload, separators=(",", ":"))
        path = self._object_path(key)
        self._atomic_write(path, encoded)
        with self._lock:
            self._remember(key, result)
        # one directory scan feeds both eviction and the index snapshot
        entries = self._evict_over_budget(self._scan_objects())
        self._write_index(entries)

    def delete(self, key: str) -> bool:
        """Explicitly remove the artifact under ``key`` from every layer.

        Returns whether anything was removed (memory or disk); the index
        snapshot is refreshed so the advisory view drops the entry too.
        """
        path = self._object_path(key)
        with self._lock:
            in_memory = self._memory.pop(key, None) is not None
        try:
            path.unlink()
            on_disk = True
        except FileNotFoundError:
            on_disk = False
        except OSError:
            on_disk = False
        removed = in_memory or on_disk
        if removed:
            with self._lock:
                self.deletes += 1
            if on_disk:
                self._write_index()
        return removed

    # ------------------------------------------------------------------ #
    # Compiled templates (repro.parametric)
    # ------------------------------------------------------------------ #
    def _template_path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheError(f"malformed template key {key!r}")
        return self.templates_dir / f"{key}.json"

    def get_template(self, key: str):
        """The cached :class:`CompiledTemplate` for ``key``, or ``None``.

        Memory first, then disk — a disk hit pays one wire deserialization
        and is promoted, so repeat binds against a restarted service go back
        to dict-lookup cost.  The in-memory object is shared across requests
        (templates are value-immutable; only their bind counters move).
        """
        with self._lock:
            cached = self._template_memory.get(key)
            if cached is not None:
                self._template_memory.move_to_end(key)
                self.template_hits += 1
                return cached
        path = self._template_path(key)
        try:
            faults.fire("cache.read")
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            with self._lock:
                self.template_misses += 1
            return None
        except (OSError, FaultInjectedError):
            with self._lock:
                self.template_misses += 1
                self.read_errors += 1
            return None
        raw = faults.corrupt_bytes("cache.read", raw)
        try:
            payload = json.loads(raw)
            template = template_from_wire(payload)
        except (ValueError, ReproError):
            # corrupt or incompatible template: quarantine it and re-trace
            self._quarantine(path)
            with self._lock:
                self.template_misses += 1
            return None
        try:
            os.utime(path)  # keep live templates fresh for LRU/TTL
        except OSError:
            pass
        with self._lock:
            self.template_hits += 1
            self._remember_template(key, template)
        return template

    def put_template(self, key: str, template) -> None:
        """Store a compiled template under ``key`` (atomic write + LRU)."""
        faults.fire("cache.write")
        encoded = json.dumps(template_to_wire(template), separators=(",", ":"))
        self._atomic_write(self._template_path(key), encoded)
        with self._lock:
            self._remember_template(key, template)
        self._evict_templates_over_budget()

    def _evict_templates_over_budget(self) -> None:
        """Evict oldest-mtime templates until the template store fits."""
        entries = self._scan_templates()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_template_bytes:
            return
        for mtime, size, path in sorted(entries):
            try:
                path.unlink()
            except OSError:
                continue
            with self._lock:
                self._template_memory.pop(path.stem, None)
                self.template_evictions += 1
            total -= size
            if total <= self.max_template_bytes:
                break

    def _remember_template(self, key: str, template) -> None:
        if self.memory_entries <= 0:
            return
        self._template_memory[key] = template
        self._template_memory.move_to_end(key)
        while len(self._template_memory) > self.memory_entries:
            self._template_memory.popitem(last=False)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact into ``quarantine/`` instead of deleting.

        Keeps at most ``max_quarantine`` files (oldest-mtime pruned), counts
        the event into ``corrupt_artifacts``, and never raises — quarantine
        is best-effort bookkeeping on an already-degraded read path.
        """
        with self._lock:
            self.corrupt_artifacts += 1
        try:
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
            return
        held = self._scan_dir(self.quarantine_dir)
        if len(held) > self.max_quarantine:
            for _, _, old in sorted(held)[: len(held) - self.max_quarantine]:
                try:
                    old.unlink()
                except OSError:
                    continue

    def quarantine_entries(self) -> int:
        """Number of files currently held in ``quarantine/``."""
        return len(self._scan_dir(self.quarantine_dir))

    def forget_memory(self) -> None:
        """Drop the in-memory layers (disk untouched) — restart simulation."""
        with self._lock:
            self._memory.clear()
            self._template_memory.clear()

    # ------------------------------------------------------------------ #
    def _remember(self, key: str, result: CompilationResult) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _atomic_write(self, path: Path, text: str) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _scan_objects(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) of every committed artifact file."""
        return self._scan_dir(self.objects_dir)

    def _scan_templates(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) of every committed template file."""
        return self._scan_dir(self.templates_dir)

    @staticmethod
    def _scan_dir(directory: Path) -> list[tuple[float, int, Path]]:
        entries = []
        try:
            names = os.listdir(directory)
        except OSError:
            return []
        for name in names:
            if name.startswith(".tmp-") or not name.endswith(".json"):
                continue
            path = directory / name
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _evict_over_budget(
        self, entries: list[tuple[float, int, Path]]
    ) -> list[tuple[float, int, Path]]:
        """Evict oldest-mtime artifacts until under budget; returns survivors."""
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return entries
        survivors = list(entries)
        for entry in sorted(entries):
            _, size, path = entry
            try:
                path.unlink()
            except OSError:
                continue
            survivors.remove(entry)
            key = path.stem
            with self._lock:
                self._memory.pop(key, None)
                self.evictions += 1
            total -= size
            if total <= self.max_bytes:
                break
        return survivors

    def _write_index(self, entries: "list[tuple[float, int, Path]] | None" = None) -> None:
        """Refresh the advisory ``index.json`` snapshot from the object dir."""
        if entries is None:
            entries = self._scan_objects()
        index = {
            "schema": "repro-artifact-index/v1",
            "written": time.time(),
            "total_bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "artifacts": {
                path.stem: {"bytes": size, "mtime": mtime}
                for mtime, size, path in sorted(entries)
            },
        }
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, prefix=".tmp-index-")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(index, handle, indent=2, sort_keys=True)
            os.replace(tmp_name, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def sweep(self, now: float | None = None) -> dict:
        """One lifecycle pass: expire idle artifacts/templates, repair drift.

        With ``ttl_seconds`` set, removes every artifact and template whose
        file mtime is older than ``now - ttl_seconds`` (mtimes are touched on
        each disk hit, so this is an *idle* TTL, not an age cap), then
        reconciles the advisory index.  With no TTL it is just a reconcile
        pass.  Safe to race with other processes on the same directory —
        losing an unlink means someone else expired the file first.

        Returns a JSON-safe summary of what this pass did; the server runs it
        on a background task and exposes the cumulative ``sweeps`` /
        ``expired`` counters on ``/metrics``.
        """
        if now is None:
            now = time.time()
        faults.fire("cache.sweep")
        expired_objects = 0
        expired_templates = 0
        if self.ttl_seconds is not None:
            deadline = now - self.ttl_seconds
            for mtime, _, path in self._scan_objects():
                if mtime >= deadline:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                expired_objects += 1
                with self._lock:
                    self._memory.pop(path.stem, None)
            for mtime, _, path in self._scan_templates():
                if mtime >= deadline:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                expired_templates += 1
                with self._lock:
                    self._template_memory.pop(path.stem, None)
            if expired_objects:
                self._write_index()
        drift = self.reconcile_index()
        with self._lock:
            self.sweeps += 1
            self.expired += expired_objects + expired_templates
        return {
            "expired_objects": expired_objects,
            "expired_templates": expired_templates,
            "index_drift": drift,
            "ttl_seconds": self.ttl_seconds,
        }

    def reconcile_index(self) -> int:
        """Detect and repair advisory-index entries whose artifact is gone.

        The object files are the source of truth; an ``index.json`` entry
        with no backing file means something outside the cache's own write
        path removed the artifact (operator cleanup, a shared-volume prune,
        a lost eviction race).  Every drifted entry is counted into
        ``index_drift``, dropped from the memory layer, and the snapshot is
        rewritten from a fresh directory scan.  Returns the drift found by
        *this* call; run automatically at construction and on every
        :meth:`stats` read (so ``/metrics`` always reports a repaired view).
        """
        try:
            with open(self.index_path) as handle:
                index = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return 0
        listed = index.get("artifacts") if isinstance(index, dict) else None
        if not isinstance(listed, dict) or not listed:
            return 0
        entries = self._scan_objects()
        present = {path.stem for _, _, path in entries}
        drifted = set(listed) - present
        if not drifted:
            return 0
        with self._lock:
            self.index_drift += len(drifted)
            for key in drifted:
                self._memory.pop(key, None)
        self._write_index(entries)
        return len(drifted)

    # ------------------------------------------------------------------ #
    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self._object_path(key).exists()

    def __len__(self) -> int:
        return len(self._scan_objects())

    def stats(self) -> dict:
        self.reconcile_index()
        entries = self._scan_objects()
        template_entries = self._scan_templates()
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "deletes": self.deletes,
                "index_drift": self.index_drift,
                "corrupt_artifacts": self.corrupt_artifacts,
                "read_errors": self.read_errors,
                "quarantine_entries": self.quarantine_entries(),
                "template_hits": self.template_hits,
                "template_misses": self.template_misses,
                "template_evictions": self.template_evictions,
                "sweeps": self.sweeps,
                "expired": self.expired,
                "ttl_seconds": self.ttl_seconds,
                "memory_entries": len(self._memory),
                "template_memory_entries": len(self._template_memory),
                "template_disk_entries": len(template_entries),
                "template_disk_bytes": sum(size for _, size, _ in template_entries),
                "max_template_bytes": self.max_template_bytes,
                "disk_entries": len(entries),
                "disk_bytes": sum(size for _, size, _ in entries),
                "max_bytes": self.max_bytes,
                "conjugation_cache": self.conjugation_cache.stats(),
            }

    def _list_templates(self) -> list[str]:
        try:
            names = os.listdir(self.templates_dir)
        except OSError:
            return []
        return [
            name
            for name in names
            if name.endswith(".json") and not name.startswith(".tmp-")
        ]

    def __repr__(self) -> str:
        return (
            f"ArtifactCache(dir={str(self.cache_dir)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
