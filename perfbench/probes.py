"""Timing and counting wrappers installed from outside the program.

A :class:`Probe` keeps, per layer name, the number of calls, the total wall
time and the *self* time (total minus the time of probed calls nested inside
it on the same thread), plus free-form counters.  Everything stays in memory;
:meth:`Probe.snapshot` hands the aggregates out when the run ends.

``install_*`` functions replace public functions and methods of the program
with wrappers and return a function that puts the originals back.  Nothing in
``src/`` knows about them.  Synchronous wrappers keep a per-thread stack so
self time can be derived; coroutine wrappers only record wall time, because
other tasks run on the same thread while they are suspended.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Probe:
    """In-memory per-layer aggregates: calls, total seconds, self seconds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        # rebinding (not clearing) keeps reset safe from a signal handler
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, seconds: float, self_seconds: float | None = None) -> None:
        with self._lock:
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += seconds
            entry[2] += seconds if self_seconds is None else self_seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "stats": {name: list(entry) for name, entry in self.stats.items()},
                "counters": dict(self.counters),
            }

    # ------------------------------------------------------------------ #
    def wrap(self, name: str, fn, after=None):
        """A synchronous wrapper: nested probed calls count as children."""
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.add(name, elapsed, elapsed - frame[0])
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def wrap_async(self, name: str, fn):
        """A coroutine wrapper: wall time only (other tasks interleave)."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.add(name, _clock() - start)

        return wrapper

    def counting(self, name: str, fn):
        """Count calls without timing them (for calls too small to time)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attribute: str, value) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def undo(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------- #
# Compiler and extraction layers (in the compiling process)
# ---------------------------------------------------------------------- #
def install_compiler(probe: Probe):
    """Wrap the level-3 passes and the stages inside Clifford extraction."""
    import repro
    from repro.clifford.tableau import CliffordTableau
    from repro.compiler import passes
    from repro.core import extraction
    from repro.paulis.packed import PackedPauliTable
    from repro.transpile.wire_optimizer import GateStreamOptimizer

    patches = _Patches()
    local = threading.local()

    def after_grouping(_result, args, _kwargs):
        bounds = args[1].block_bounds
        probe.count("compiler.commuting_blocks", len(bounds) - 1 if bounds else 0)
        probe.count("compiler.compiles")

    def after_extraction(_result, args, _kwargs):
        tail = args[1].extracted_clifford
        probe.count("compiler.tail_gates", len(tail) if tail is not None else 0)

    patches.set(passes.GroupCommuting, "run", probe.wrap(
        "compiler.group_commuting", passes.GroupCommuting.run, after_grouping))
    patches.set(passes.CliffordExtraction, "run", probe.wrap(
        "compiler.clifford_extraction", passes.CliffordExtraction.run, after_extraction))
    patches.set(passes.Peephole, "run", probe.wrap("compiler.peephole", passes.Peephole.run))

    # gates fed to the fused peephole stream, counted only inside extract
    extract = extraction.CliffordExtractor.extract

    def extract_entered(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.depth = getattr(local, "depth", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.depth -= 1
        return wrapper

    def after_extract(result, _args, _kwargs):
        if result.metadata.get("peephole_fused"):
            probe.count("extraction.gates_kept", len(result.optimized_circuit))

    patches.set(extraction.CliffordExtractor, "extract", extract_entered(
        probe.wrap("extraction.extract", extract, after_extract)))
    patches.set(PackedPauliTable, "apply_basis_layer", probe.wrap(
        "extraction.basis_layer", PackedPauliTable.apply_basis_layer))
    patches.set(extraction, "synthesize_tree", probe.wrap(
        "extraction.tree_synthesis", extraction.synthesize_tree))

    stream_suffix = extraction.stream_gates_over_suffix

    def after_suffix(_result, args, _kwargs):
        probe.count("extraction.gates_streamed", len(args[1]))

    patches.set(extraction, "stream_gates_over_suffix", probe.wrap(
        "extraction.suffix_stream", stream_suffix, after_suffix))
    patches.set(extraction, "chain_tree_cost", probe.counting(
        "extraction.candidates_scored", extraction.chain_tree_cost))
    patches.set(CliffordTableau, "from_packed_rows", classmethod(probe.wrap(
        "extraction.tableau", CliffordTableau.__dict__["from_packed_rows"].__func__)))

    # the stream optimizer: extend() calls append() per gate, so only the
    # outermost call is timed and every gate is counted once
    timed_extend = probe.wrap("extraction.peephole_stream", GateStreamOptimizer.extend)
    timed_append = probe.wrap("extraction.peephole_stream", GateStreamOptimizer.append)
    plain_append = GateStreamOptimizer.append

    def outermost(timed, gate_count):
        def wrapper(self, gates):
            if getattr(local, "streaming", False):
                return plain_append(self, gates)
            if getattr(local, "depth", 0):
                gates = list(gates) if gate_count is None else gates
                probe.count("extraction.gates_appended",
                            len(gates) if gate_count is None else gate_count)
            local.streaming = True
            try:
                return timed(self, gates)
            finally:
                local.streaming = False
        return wrapper

    patches.set(GateStreamOptimizer, "extend", outermost(timed_extend, None))
    patches.set(GateStreamOptimizer, "append", outermost(timed_append, 1))

    patches.set(repro, "compile_many", probe.wrap("scheduler.compile_many", repro.compile_many))
    return patches.undo


# ---------------------------------------------------------------------- #
# Serving layers (in the server process)
# ---------------------------------------------------------------------- #
class _StampingReader:
    """Forwards a stream reader and stamps when the request line arrived.

    ``read_http_request`` first waits for the next request line, which on a
    keep-alive connection is idle time, not work; the read is timed from the
    moment that line is in.
    """

    def __init__(self, reader):
        self._reader = reader
        self.first_line_at: float | None = None

    async def readline(self):
        line = await self._reader.readline()
        if self.first_line_at is None:
            self.first_line_at = _clock()
        return line

    async def readexactly(self, count):
        return await self._reader.readexactly(count)


def install_server(probe: Probe):
    """Wrap the HTTP, serialize, scheduler, cache and bind layers of a server."""
    from repro.parametric.template import CompiledTemplate
    from repro.service import scheduler, server
    from repro.service.cache import ArtifactCache

    patches = _Patches()
    read_request = server.read_http_request

    async def timed_read(reader, max_body_bytes):
        stamping = _StampingReader(reader)
        request = await read_request(stamping, max_body_bytes)
        if request is not None and stamping.first_line_at is not None:
            probe.add("server.read_request", _clock() - stamping.first_line_at)
        return request

    patches.set(server, "read_http_request", timed_read)
    patches.set(server, "respond_json", probe.wrap_async("server.respond", server.respond_json))
    respond_raw = server.respond_raw

    async def sized_respond_raw(writer, status, body, *args, **kwargs):
        probe.count("serialize.response_bytes", len(body))
        probe.count("serialize.responses")
        return await respond_raw(writer, status, body, *args, **kwargs)

    patches.set(server, "respond_raw", sized_respond_raw)
    patches.set(server, "program_from_wire", probe.wrap(
        "serialize.program_from_wire", server.program_from_wire))
    patches.set(server, "result_to_wire", probe.wrap(
        "serialize.result_to_wire", server.result_to_wire))

    def after_get(result, _args, _kwargs):
        probe.count("cache.gets")
        if result is not None:
            probe.count("cache.hits")

    patches.set(ArtifactCache, "key_for", staticmethod(probe.wrap(
        "cache.key_for", ArtifactCache.__dict__["key_for"].__func__)))
    patches.set(ArtifactCache, "get", probe.wrap("cache.get", ArtifactCache.get, after_get))
    patches.set(ArtifactCache, "put", probe.wrap("cache.put", ArtifactCache.put))

    timed_batch = probe.wrap("scheduler.execute_batch", scheduler.execute_batch)

    def weighted_batch(jobs, *args, **kwargs):
        # every job of a batch waits for the whole batch
        start = _clock()
        try:
            return timed_batch(jobs, *args, **kwargs)
        finally:
            probe.count("scheduler.jobs", len(jobs))
            probe.count("scheduler.job_batch_seconds", (_clock() - start) * len(jobs))

    patches.set(scheduler, "execute_batch", weighted_batch)
    patches.set(scheduler.BatchingScheduler, "submit", probe.wrap_async(
        "scheduler.submit", scheduler.BatchingScheduler.submit))
    patches.set(server, "execute_bind", probe.wrap("scheduler.execute_bind", server.execute_bind))

    bind = CompiledTemplate.bind

    def counted_bind(self, params):
        before = self.fallback_binds
        try:
            return timed_bind(self, params)
        finally:
            probe.count("parametric.fallback_binds", self.fallback_binds - before)

    timed_bind = probe.wrap("parametric.bind", bind)
    patches.set(CompiledTemplate, "bind", counted_bind)
    return patches.undo


# ---------------------------------------------------------------------- #
# Client-side layers (in the load-generating process)
# ---------------------------------------------------------------------- #
def install_client(probe: Probe):
    """Wrap the client's encode of the program and decode of the result."""
    from repro.service import client

    patches = _Patches()
    patches.set(client, "program_to_wire", probe.wrap(
        "serialize.program_to_wire", client.program_to_wire))
    patches.set(client, "result_from_wire", probe.wrap(
        "serialize.result_from_wire", client.result_from_wire))
    return patches.undo
