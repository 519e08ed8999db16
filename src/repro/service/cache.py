"""Disk-backed content-addressed store of compiled artifacts.

The cache key is a canonical SHA-256 over everything that determines a
compilation's output: the program's **packed** words / phases / coefficient
bytes (the exact store the compiler consumes, so a term list and the
equivalent :class:`~repro.paulis.sum.SparsePauliSum` share one artifact), a
target fingerprint (name, qubit count, coupling edges, basis gates), and the
level / registered-pipeline spec.  Values are wire-serialized
:class:`~repro.compiler.result.CompilationResult` payloads
(:mod:`repro.service.serialize`), one JSON file per key.

Compiled results (``objects/``) and the parametric templates ``/bind``
replays (``templates/``) are two instances of one private store class that
differ only in codec and byte budget; quarantine, the advisory index and the
TTL sweep sit above them in :class:`ArtifactCache`.  Layering (fastest
first):

1. an in-memory LRU: a compiled result is kept as a :class:`StoredResult` —
   the decoded value, the exact JSON bytes of its artifact file, and its
   ``metrics()`` / compiler name — so a warm hit costs a dict lookup and the
   server can answer it by writing the stored bytes, never re-encoding;
   templates are kept decoded only, because ``/bind`` needs the object.
   Every memory hit also refreshes the file mtime, so the hottest entries
   are the last to be expired or evicted;
2. the disk store — survives process restarts and is shared by concurrent
   processes: every file and index write goes through a temp file plus
   :func:`os.replace` (atomic on POSIX and Windows), so readers never see a
   torn file, and the size cap evicts by file mtime (touched on every hit)
   once a running byte total says a write took the directory over it, so a
   write below the budget lists nothing; an undecodable file is
   quarantined and read as a miss;
3. in front of the existing in-memory
   :class:`~repro.clifford.engine.ConjugationCache`: the cache owns one and
   the service threads it through every ``compile_many`` call, so even cache
   *misses* pool their tableau freezes.

``index.json`` is an advisory snapshot (key → size / mtime) of the last scan
of the object directory.  It is rewritten by every eviction pass — a write
that takes the running total over budget, or one after this process has
written ``max_bytes // RESCAN_FRACTION`` bytes since its last scan — by
:meth:`~ArtifactCache.delete` and a TTL expiry, and by
:meth:`~ArtifactCache.reconcile_index` (so :meth:`~ArtifactCache.sweep`
and :meth:`~ArtifactCache.stats`) when it differs from the listing.  A
write below the budget touches neither the directory listing nor the
index.  The object files themselves are the source of truth, so two
processes racing on the index can only lose a snapshot update, never an
artifact.

Processes sharing one directory each count only their own writes since
their last scan.  Every process rescans after writing ``max_bytes //
RESCAN_FRACTION`` bytes, so ``P`` processes hold the directory to about
``max_bytes * (1 + (P - 1) / RESCAN_FRACTION)``, plus the artifacts being
written at that moment.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
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
    program_parts_from_wire,
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

#: default number of results (and of templates) kept in the in-memory layer
DEFAULT_MEMORY_ENTRIES = 128

#: most corrupt files kept in ``<cache>/quarantine/`` — oldest pruned beyond
#: this, so a rotting disk cannot fill the volume with evidence
DEFAULT_MAX_QUARANTINE = 32

#: a store rescans its directory once this process has written
#: ``max_bytes // RESCAN_FRACTION`` bytes since its last scan, which bounds
#: what its running byte total can miss of other processes' writes
RESCAN_FRACTION = 8


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


def _artifact_digest(
    table: PackedPauliTable,
    coefficients: np.ndarray,
    target: Target | CouplingMap | str | None,
    level: int,
    pipeline: str | None,
) -> str:
    """The artifact key layout, shared by :func:`cache_key` and :func:`wire_cache_key`.

    The arrays are hashed back to back with no length prefixes; the header's
    qubit and row counts fix their sizes only because every caller hands over
    a table whose shapes were checked against them.
    """
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
    return _artifact_digest(table, coefficients, target, level, pipeline)


def wire_cache_key(
    wire_program: dict,
    target: Target | CouplingMap | str | None = None,
    level: int = 3,
    pipeline: str | None = None,
) -> str:
    """The key :func:`cache_key` gives ``program_from_wire(wire_program)``.

    Computed from the base64-decoded packed arrays, after the same shape
    checks :func:`~repro.service.serialize.program_from_wire` runs, without
    materializing a term; a sum folds its row signs into its coefficients
    first, exactly as the decoded :class:`SparsePauliSum` would.  The program
    itself is *not* validated: the key is for looking up artifacts, which
    were validated when they were stored.
    """
    kind, table, coefficients = program_parts_from_wire(wire_program)
    if kind == "sum":
        program = SparsePauliSum.from_packed(table, coefficients)
        table, coefficients = program.packed_table, program.coefficient_vector()
    return _artifact_digest(table, coefficients, target, level, pipeline)


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


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file plus :func:`os.replace`."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _scan_dir(directory: Path) -> list[tuple[float, int, Path]]:
    """(mtime, size, path) of every committed ``.json`` file in ``directory``."""
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


@dataclass(frozen=True)
class StoredResult:
    """One compiled result as the memory layer keeps it.

    ``raw`` is the exact JSON text of the artifact file — what
    :func:`~repro.service.serialize.result_to_wire` produced when it was
    stored — so a response can carry it without encoding the result again.
    """

    result: CompilationResult
    raw: bytes
    metrics: dict
    compiler: str

    @classmethod
    def of(cls, result: CompilationResult, raw: bytes) -> "StoredResult":
        return cls(result, raw, result.metrics(), result.name)


def _keep_value(value, _raw: bytes):
    return value


class _Store:
    """One directory of wire-encoded artifacts: disk budget, memory LRU, counters.

    :class:`ArtifactCache` runs two of these — ``objects/`` for compiled
    results and ``templates/`` for compiled templates — that differ only in
    their codec, budget and what the memory layer keeps: ``keep(value, raw)``
    builds the memory entry from a decoded value and its file bytes, and
    :meth:`get` / :meth:`peek` / :meth:`put` hand that entry out.  ``lock``
    is the owning cache's lock and ``quarantine`` its best-effort quarantine
    of an undecodable file.

    The store keeps a running byte total of its directory: the last
    :meth:`scan` plus what this process wrote since.  A put lists the
    directory only when that total goes over budget (then it evicts, as a
    fresh scan orders it) or when this process has written ``max_bytes //
    RESCAN_FRACTION`` bytes since its last scan, which bounds what the total
    can miss of other processes' writes.  Each eviction pass hands its
    survivors to ``on_scan`` (the object store's writes ``index.json``).
    """

    def __init__(self, directory: Path, kind: str, encode, decode,
                 max_bytes: int, memory_entries: int, lock, quarantine,
                 keep=_keep_value, on_scan=None):
        self.directory = directory
        self.kind = kind
        self.encode = encode
        self.decode = decode
        self.keep = keep
        self.on_scan = on_scan
        #: ``path(key)`` as plain string concatenation, for the memory-hit
        #: mtime touch (a ``Path`` join costs as much as the syscall)
        self._file_prefix = os.path.join(directory, "")
        self.max_bytes = int(max_bytes)
        self.memory_entries = int(memory_entries)
        self.lock = lock
        self.quarantine = quarantine
        self.memory: OrderedDict[str, object] = OrderedDict()
        #: bytes in the directory at the last scan plus this process's
        #: writes since
        self.disk_bytes = 0
        #: bytes this process wrote since its last scan, and when it wrote
        #: each key
        self.unscanned_bytes = 0
        self.unscanned_keys: dict[str, float] = {}
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.evictions = 0
        self.read_errors = 0
        directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheError(f"malformed {self.kind} key {key!r}")
        return self.directory / f"{key}.json"

    def peek(self, key: str):
        """The memory entry for ``key``, or ``None``; never reads the disk.

        A hit refreshes the file mtime, so the TTL sweep and the disk
        budget see the use.
        """
        with self.lock:
            cached = self.memory.get(key)
            if cached is None:
                return None
            self.memory.move_to_end(key)
            self.hits += 1
            self.memory_hits += 1
        try:
            os.utime(self._file_prefix + key + ".json")
        except OSError:
            pass
        return cached

    def get(self, key: str):
        """Memory, then disk: a disk hit is decoded, mtime-touched, promoted."""
        cached = self.peek(key)
        if cached is not None:
            return cached
        path = self.path(key)
        try:
            faults.fire("cache.read")
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            with self.lock:
                self.misses += 1
            return None
        except (OSError, FaultInjectedError):
            # a torn write is impossible (os.replace), but a failing disk or
            # concurrent eviction mid-read degrades to a miss
            with self.lock:
                self.misses += 1
                self.read_errors += 1
            return None
        raw = faults.corrupt_bytes("cache.read", raw)
        try:
            # the decode is the corruption check; the entry keeps the bytes
            # it checked
            entry = self.keep(self.decode(json.loads(raw)), raw)
        except (ValueError, ReproError):
            # corrupt or incompatible file (undecodable bytes, a wire-format
            # mismatch, or a structurally valid payload whose contents fail
            # reconstruction): quarantine it and recompute
            self.quarantine(path)
            with self.lock:
                self.misses += 1
            return None
        try:
            os.utime(path)  # keep live entries fresh for LRU eviction and TTL
        except OSError:
            pass
        with self.lock:
            self.hits += 1
            self.disk_hits += 1
            self.remember(key, entry)
        return entry

    def put(self, key: str, value):
        """Encode once, write atomically, remember, count; returns the entry.

        Lists the directory and evicts only when the running total is over
        budget or this process has written ``max_bytes // RESCAN_FRACTION``
        bytes since its last scan.
        """
        faults.fire("cache.write")
        raw = json.dumps(self.encode(value), separators=(",", ":")).encode()
        path = self.path(key)
        try:
            replaced = os.stat(path).st_size  # an overwrite counts once
        except OSError:
            replaced = 0
        _atomic_write(path, raw)
        stamp = time.time()
        entry = self.keep(value, raw)
        with self.lock:
            self.remember(key, entry)
            self.disk_bytes += len(raw) - replaced
            self.unscanned_bytes += len(raw)
            self.unscanned_keys[key] = stamp
            full = (
                self.disk_bytes > self.max_bytes
                or self.unscanned_bytes >= self.max_bytes // RESCAN_FRACTION
            )
        if full:
            self.evict()
        return entry

    def remember(self, key: str, entry) -> None:
        """Insert into the memory LRU (caller holds the lock)."""
        if self.memory_entries <= 0:
            return
        self.memory[key] = entry
        self.memory.move_to_end(key)
        while len(self.memory) > self.memory_entries:
            self.memory.popitem(last=False)

    def scan(self) -> list[tuple[float, int, Path]]:
        """List the directory; its byte total restarts the running count.

        Writes that race the listing are counted again on top, which can
        only bring the next scan forward.
        """
        with self.lock:
            self.unscanned_bytes = 0
            self.unscanned_keys.clear()
        entries = _scan_dir(self.directory)
        with self.lock:
            self.disk_bytes = sum(size for _, size, _ in entries) + self.unscanned_bytes
        return entries

    def evict(self) -> list[tuple[float, int, Path]]:
        """Scan, then evict oldest-mtime files until under budget; returns the survivors."""
        entries = self.scan()
        total = sum(size for _, size, _ in entries)
        survivors = list(entries)
        if total > self.max_bytes:
            for entry in sorted(entries):
                _, size, path = entry
                try:
                    path.unlink()
                except OSError:
                    continue
                survivors.remove(entry)
                total -= size
                with self.lock:
                    self.memory.pop(path.stem, None)
                    self.disk_bytes -= size
                    self.evictions += 1
                if total <= self.max_bytes:
                    break
        if self.on_scan is not None:
            self.on_scan(survivors)
        return survivors

    def expire(self, deadline: float) -> int:
        """Remove every file whose mtime is older than ``deadline``; returns the count.

        Runs on a fresh scan; when anything expired, ``on_scan`` gets the
        survivors.
        """
        expired = 0
        survivors = []
        for entry in self.scan():
            mtime, size, path = entry
            if mtime >= deadline:
                survivors.append(entry)
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            except OSError:
                survivors.append(entry)
                continue
            expired += 1
            with self.lock:
                self.memory.pop(path.stem, None)
                self.disk_bytes -= size
        if expired and self.on_scan is not None:
            self.on_scan(survivors)
        return expired


def _on_store(store: str, name: str) -> property:
    """A public :class:`ArtifactCache` attribute that lives on one of its stores."""

    def fset(self, value) -> None:
        setattr(getattr(self, store), name, value)

    return property(lambda self: getattr(getattr(self, store), name), fset)


class ArtifactCache:
    """Persistent content-addressed cache of :class:`CompilationResult`.

    Parameters
    ----------
    cache_dir:
        Directory shared by every process using this cache; created on
        demand.
    max_bytes:
        Disk budget; least-recently-used artifacts (by file mtime, touched
        on every hit) are evicted after a write pushes the total over.
        Processes sharing the directory can overshoot it by what the others
        wrote since their last scans (see the module docstring).
    memory_entries:
        Size of each in-memory LRU — stored results, and separately
        templates (0 disables them).
    max_template_bytes:
        Disk budget of the ``templates/`` store; evicted mtime-LRU like the
        result objects (template mtimes are touched on every hit).
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
        self.ttl_seconds = None if ttl_seconds is None else float(ttl_seconds)
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise CacheError(
                f"ttl_seconds must be positive or None, got {self.ttl_seconds}"
            )
        self.memory_entries = int(memory_entries)
        self._lock = threading.Lock()
        self._objects = _Store(
            self.cache_dir / "objects", "artifact", result_to_wire,
            result_from_wire, max_bytes, memory_entries, self._lock,
            self._quarantine, keep=StoredResult.of, on_scan=self._write_index,
        )
        #: compiled templates live beside the result objects under their own
        #: (larger-grained) budget: one template serves every binding of an
        #: ansatz, so they never compete with single results for space — but
        #: the store is bounded and TTL-swept like everything else
        self._templates = _Store(
            self.cache_dir / "templates", "template", template_to_wire,
            template_from_wire, max_template_bytes, memory_entries, self._lock,
            self._quarantine,
        )
        self.objects_dir = self._objects.directory
        self.templates_dir = self._templates.directory
        #: corrupt / incompatible artifacts are moved here (bounded count)
        #: instead of silently unlinked, so operators can diagnose disk rot
        self.quarantine_dir = self.cache_dir / "quarantine"
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.max_quarantine = DEFAULT_MAX_QUARANTINE
        self.index_path = self.cache_dir / "index.json"
        #: the in-memory conjugation cache this store layers in front of;
        #: the service threads it through every compile_many call
        self.conjugation_cache = ConjugationCache()
        self.deletes = 0
        #: lifecycle counters: completed :meth:`sweep` passes and the total
        #: artifacts + templates they expired under ``ttl_seconds``
        self.sweeps = 0
        self.expired = 0
        #: cumulative count of index.json entries, and of this process's
        #: writes since the index was last written, found pointing at
        #: missing artifact files (external deletion, a lost eviction race, a
        #: pruned volume) — repaired on detection, surfaced on ``/metrics``
        self.index_drift = 0
        #: cumulative corrupt or incompatible artifacts hit by get()/
        #: get_template() — each is quarantined, counted, and degraded to a
        #: miss; surfaced on ``/metrics`` so operators can see disk rot
        self.corrupt_artifacts = 0
        self._templates.scan()
        self.reconcile_index()

    max_bytes = _on_store("_objects", "max_bytes")
    hits = _on_store("_objects", "hits")
    misses = _on_store("_objects", "misses")
    memory_hits = _on_store("_objects", "memory_hits")
    disk_hits = _on_store("_objects", "disk_hits")
    evictions = _on_store("_objects", "evictions")
    max_template_bytes = _on_store("_templates", "max_bytes")
    template_hits = _on_store("_templates", "hits")
    template_misses = _on_store("_templates", "misses")
    template_evictions = _on_store("_templates", "evictions")

    @property
    def read_errors(self) -> int:
        """Injected or real read failures of either store, degraded to a miss."""
        return self._objects.read_errors + self._templates.read_errors

    # ------------------------------------------------------------------ #
    key_for = staticmethod(cache_key)
    template_key_for = staticmethod(template_cache_key)

    def get(self, key: str) -> CompilationResult | None:
        """The cached result for ``key``, or ``None`` on a miss.

        Memory first — no decode — then disk: a disk hit is deserialized,
        promoted into the memory layer, and its file mtime refreshed so LRU
        eviction sees the use (a memory hit refreshes it too).
        """
        stored = self._objects.get(key)
        return None if stored is None else stored.result

    def get_stored(self, key: str) -> StoredResult | None:
        """Like :meth:`get`, but the whole :class:`StoredResult` entry."""
        return self._objects.get(key)

    def peek(self, key: str) -> StoredResult | None:
        """The memory layer's entry for ``key``; never touches the disk store.

        The serving fast path: a hit here is answered on the event loop from
        the stored bytes, and anything else takes the scheduler path.
        """
        return self._objects.peek(key)

    def put(self, key: str, result: CompilationResult) -> StoredResult:
        """Store ``result`` under ``key`` (atomic write + LRU eviction).

        The result is encoded once; the returned entry carries those bytes
        so the caller can send them without encoding again.  Below the
        budget the write lists no directory and leaves ``index.json`` alone;
        a write that takes the running total over it scans, evicts and
        rewrites the index, as does one every ``max_bytes //
        RESCAN_FRACTION`` bytes this process writes.
        """
        return self._objects.put(key, result)

    def delete(self, key: str) -> bool:
        """Explicitly remove the artifact under ``key`` from every layer.

        Returns whether anything was removed (memory or disk); the index
        snapshot is refreshed so the advisory view drops the entry too.
        """
        store = self._objects
        path = store.path(key)
        with self._lock:
            in_memory = store.memory.pop(key, None) is not None
        try:
            path.unlink()
            on_disk = True
        except OSError:
            on_disk = False
        removed = in_memory or on_disk
        if removed:
            with self._lock:
                self.deletes += 1
            if on_disk:
                self._write_index(store.scan())
        return removed

    # ------------------------------------------------------------------ #
    # Compiled templates (repro.parametric)
    # ------------------------------------------------------------------ #
    def get_template(self, key: str):
        """The cached :class:`CompiledTemplate` for ``key``, or ``None``.

        Memory first, then disk — a disk hit pays one wire deserialization
        and is promoted, so repeat binds against a restarted service go back
        to dict-lookup cost.  Either hit refreshes the file mtime.  The
        in-memory object is shared across requests (templates are
        value-immutable; only their bind counters move).
        """
        return self._templates.get(key)

    def put_template(self, key: str, template) -> None:
        """Store a compiled template under ``key`` (atomic write + LRU)."""
        self._templates.put(key, template)

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
        held = _scan_dir(self.quarantine_dir)
        if len(held) > self.max_quarantine:
            for _, _, old in sorted(held)[: len(held) - self.max_quarantine]:
                try:
                    old.unlink()
                except OSError:
                    continue

    def quarantine_entries(self) -> int:
        """Number of files currently held in ``quarantine/``."""
        return len(_scan_dir(self.quarantine_dir))

    def forget_memory(self) -> None:
        """Drop the in-memory layers (disk untouched) — restart simulation."""
        with self._lock:
            self._objects.memory.clear()
            self._templates.memory.clear()

    # ------------------------------------------------------------------ #
    def _write_index(self, entries: list[tuple[float, int, Path]]) -> None:
        """Write one scan of the object dir as the advisory ``index.json``."""
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
        _atomic_write(
            self.index_path, json.dumps(index, indent=2, sort_keys=True).encode()
        )

    def sweep(self, now: float | None = None) -> dict:
        """One lifecycle pass: expire idle artifacts/templates, repair drift.

        With ``ttl_seconds`` set, removes every artifact and template whose
        file mtime is older than ``now - ttl_seconds`` (mtimes are touched on
        every hit, so this is an *idle* TTL, not an age cap), then
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
            expired_objects = self._objects.expire(now - self.ttl_seconds)
            expired_templates = self._templates.expire(now - self.ttl_seconds)
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
        """Detect and repair artifacts that vanished behind the cache's back.

        The object files are the source of truth.  A key listed in
        ``index.json`` (the last scan, by any process), or written by this
        process after that scan, that has no backing file means something
        outside the cache's own eviction, expiry and delete paths removed
        the artifact (operator cleanup, a shared-volume prune, a lost
        eviction race); a key another process evicted left the index
        written after it.  Every drifted key is counted into
        ``index_drift`` and dropped from the memory layer, and the snapshot
        is rewritten from a fresh directory scan when it differs from it.
        Returns the drift found by *this* call; run automatically at
        construction and on every :meth:`stats` read (so ``/metrics`` always
        reports a repaired view).
        """
        return self._reconcile()[0]

    def _reconcile(self) -> tuple[int, list[tuple[float, int, Path]]]:
        """:meth:`reconcile_index`, also returning the object scan it made."""
        try:
            with open(self.index_path) as handle:
                index = json.load(handle)
        except (OSError, json.JSONDecodeError):
            index = None
        listed = index.get("artifacts") if isinstance(index, dict) else None
        listed = set(listed) if isinstance(listed, dict) else None
        written = index.get("written") if listed is not None else None
        if not isinstance(written, (int, float)):
            written = 0.0
        store = self._objects
        with self._lock:
            known = {k for k, stamp in store.unscanned_keys.items() if stamp > written}
        entries = store.scan()
        present = {path.stem for _, _, path in entries}
        drifted = (known | (listed or set())) - present
        if drifted:
            with self._lock:
                self.index_drift += len(drifted)
                for key in drifted:
                    store.memory.pop(key, None)
        if listed != present:
            self._write_index(entries)
        return len(drifted), entries

    # ------------------------------------------------------------------ #
    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._objects.memory:
                return True
        return self._objects.path(key).exists()

    def __len__(self) -> int:
        return len(_scan_dir(self.objects_dir))

    def stats(self) -> dict:
        # the reconcile scan gives the object figures
        _, objects = self._reconcile()
        templates = self._templates.scan()
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
                "memory_entries": len(self._objects.memory),
                "template_memory_entries": len(self._templates.memory),
                "template_disk_entries": len(templates),
                "template_disk_bytes": sum(size for _, size, _ in templates),
                "max_template_bytes": self.max_template_bytes,
                "disk_entries": len(objects),
                "disk_bytes": sum(size for _, size, _ in objects),
                "max_bytes": self.max_bytes,
                "conjugation_cache": self.conjugation_cache.stats(),
            }

    def __repr__(self) -> str:
        return (
            f"ArtifactCache(dir={str(self.cache_dir)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
