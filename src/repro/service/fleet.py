"""Horizontal scale-out: a sharding front over N service worker processes.

One :class:`ServiceServer` is a single Python process — the GIL bounds how
much synthesis it can push even with the compile pool, and one event loop
bounds how many connections it can juggle.  :class:`FleetFront` removes that
ceiling the boring way: it spawns ``N`` ordinary ``python -m repro.service``
worker processes that all share **one** :class:`~repro.service.cache.ArtifactCache`
directory (the cache's atomic-write/advisory-index design is exactly what
makes this safe), and fronts them with a consistent-hash router so the same
artifact key always lands on the same worker and its warm in-memory LRU.

Routing (:class:`HashRing`, SHA-256 with virtual nodes) hashes on the
*artifact key* of each request, not the client connection:

* ``GET``/``DELETE /result/<key>`` — the key itself;
* ``POST /bind`` — the ``template_key`` (inline templates hash the body), so
  repeat binds of one ansatz hit the worker holding the deserialized
  template;
* ``POST /compile`` / ``/compile_batch`` / ``/compile_template`` — a digest
  of the request body, so identical requests dedupe onto one warm worker;
* ``GET /healthz`` — aggregated across every worker (``ok`` iff all are);
* ``GET /metrics`` — per-worker payloads plus a fleet rollup
  (:func:`~repro.service.telemetry.merge_snapshots`);
* ``POST /fleet/restart`` — a rolling **draining** restart: each worker in
  turn stops receiving new requests, finishes its in-flight ones, restarts,
  and re-joins under the same ring slot (virtual nodes are keyed by slot
  name, so a restarted worker inherits exactly its old key ranges and the
  shared disk cache re-warms its memory layer).

The ring is slot-name keyed and the slots never move, so scaling the warm
path is purely additive: worker death costs only the requests in flight on
it (the front respawns it on the same slot and retries once).

Start a fleet with ``python -m repro.service --workers N``; everything a
:class:`~repro.service.client.Client` can do against a single server works
unchanged against the front.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from collections import deque
from pathlib import Path
from urllib.parse import parse_qs

from repro.exceptions import ServiceError
from repro.observability import (
    DEFAULT_SAMPLE_RATE,
    TRACER,
    TraceContext,
    log_slow_request,
    merge_trace_spans,
    merge_trace_summaries,
    render_prometheus,
)
from repro.service import faults
from repro.service.server import (
    DEFAULT_MAX_BODY_BYTES,
    PROMETHEUS_CONTENT_TYPE,
    _HttpError,
    read_http_request,
    respond_json,
    respond_raw,
    wants_keep_alive,
)
from repro.service.telemetry import Telemetry, merge_snapshots

#: default number of virtual nodes per worker slot — enough that two slots
#: split the key space within a few percent of evenly
DEFAULT_VNODES = 64

#: the machine-parsable startup line every worker prints
_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")

#: captured worker output lines kept per worker for failure diagnostics
_OUTPUT_TAIL_LINES = 200


class CircuitBreaker:
    """Per-worker circuit breaker: fail fast instead of queueing on a corpse.

    Closed (normal) → open after ``threshold`` *consecutive* forward
    failures; open sheds instantly for ``cooldown`` seconds; then one
    half-open probe is let through — success re-closes the breaker, failure
    re-opens it for another cooldown.  Methods return event names
    (``"trip"`` / ``"probe"`` / ``"reset"``) so the front can count them
    into its telemetry.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 2.0):
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.state = "closed"
        self.failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    def allow(self) -> "tuple[bool, str | None]":
        """Whether a request may go upstream, plus a telemetry event."""
        if self.threshold <= 0 or self.state == "closed":
            return True, None
        if self.state == "open":
            if time.monotonic() - self._opened_at >= self.cooldown:
                self.state = "half-open"
                self._probe_in_flight = True
                return True, "probe"
            return False, None
        # half-open: exactly one probe may be outstanding
        if not self._probe_in_flight:
            self._probe_in_flight = True
            return True, "probe"
        return False, None

    def release_probe(self) -> None:
        """Free the half-open probe slot without a verdict (aborted forward)."""
        self._probe_in_flight = False

    def record_success(self) -> "str | None":
        event = "reset" if self.state != "closed" else None
        self.state = "closed"
        self.failures = 0
        self._probe_in_flight = False
        return event

    def record_failure(self) -> "str | None":
        self.failures += 1
        tripping = self.state == "half-open" or (
            self.state == "closed"
            and self.threshold > 0
            and self.failures >= self.threshold
        )
        self._probe_in_flight = False
        if tripping:
            self.state = "open"
            self._opened_at = time.monotonic()
            return "trip"
        return None

    def stats(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.failures,
            "threshold": self.threshold,
            "cooldown_seconds": self.cooldown,
        }


class HashRing:
    """Consistent hashing over named slots (SHA-256, virtual nodes).

    Points are derived from **slot names** ("w0", "w1", ...), never from
    worker addresses or pids — a worker respawned into its slot keeps the
    exact key ranges it served before, which is what makes draining restarts
    invisible to cache locality.
    """

    def __init__(self, slots: "list[str]", vnodes: int = DEFAULT_VNODES):
        if not slots:
            raise ServiceError("a HashRing needs at least one slot")
        self.vnodes = int(vnodes)
        self._points: "list[tuple[int, str]]" = []
        for slot in slots:
            for replica in range(self.vnodes):
                digest = hashlib.sha256(f"{slot}#{replica}".encode()).digest()
                self._points.append((int.from_bytes(digest[:8], "big"), slot))
        self._points.sort()
        self._hashes = [point for point, _ in self._points]

    def lookup(self, key: str) -> str:
        """The slot owning ``key`` (first point clockwise of its hash)."""
        digest = hashlib.sha256(key.encode()).digest()
        value = int.from_bytes(digest[:8], "big")
        index = bisect_right(self._hashes, value) % len(self._points)
        return self._points[index][1]


class WorkerHandle:
    """One spawned ``python -m repro.service`` process plus its plumbing."""

    def __init__(self, slot: str):
        self.slot = slot
        self.process: "subprocess.Popen | None" = None
        self.host = ""
        self.port = 0
        self.restarts = 0
        self.in_flight = 0
        #: cleared while the worker is draining/restarting; requests wait
        self.available = asyncio.Event()
        #: serializes respawn/restart so two coroutines seeing the same dead
        #: process cannot double-spawn it
        self.lock = asyncio.Lock()
        #: trips open after consecutive forward failures; front-configurable
        self.breaker = CircuitBreaker()
        #: tail of the worker's combined stdout+stderr, for error messages
        self.output_tail: "deque[str]" = deque(maxlen=_OUTPUT_TAIL_LINES)
        #: idle keep-alive connections to this worker, reused across requests
        self.idle: "list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]" = []

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def close_idle(self) -> None:
        while self.idle:
            _, writer = self.idle.pop()
            with contextlib.suppress(Exception):
                writer.close()


def _worker_environment() -> dict:
    """The subprocess env, with this repro's ``src`` on ``PYTHONPATH``."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    return env


class FleetFront:
    """The fleet supervisor + consistent-hash HTTP front.

    Duck-types the :class:`~repro.service.server.ServiceServer` lifecycle
    (``start`` / ``aclose`` / ``port`` / ``address``), so
    :func:`~repro.service.server.run_server_in_thread` runs a fleet too.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1).
    cache_dir:
        Shared artifact-cache directory handed to every worker; ``None``
        runs the workers cacheless (sharding then only buys CPU parallelism).
    worker_args:
        Extra ``python -m repro.service`` CLI arguments forwarded verbatim
        to every worker (``--pool-workers``, ``--max-queue-depth``, ...).
    """

    def __init__(
        self,
        workers: int,
        cache_dir: "str | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_args: "list[str] | None" = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        vnodes: int = DEFAULT_VNODES,
        startup_timeout: float = 60.0,
        drain_timeout: float = 10.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 2.0,
        enable_faults: bool = False,
        trace_sample: float = DEFAULT_SAMPLE_RATE,
        slow_request_ms: float = 0.0,
    ):
        self.num_workers = int(workers)
        if self.num_workers < 1:
            raise ServiceError(f"a fleet needs >= 1 worker, got {self.num_workers}")
        self.cache_dir = cache_dir
        self.host = host
        self.port = int(port)  # replaced by the bound port after start()
        self.worker_args = list(worker_args or [])
        self.max_body_bytes = int(max_body_bytes)
        self.startup_timeout = float(startup_timeout)
        self.drain_timeout = float(drain_timeout)
        #: whether ``POST /fault`` may arm faults — in the front itself
        #: (``fleet.*`` sites) and, forwarded, in the workers
        self.enable_faults = bool(enable_faults)
        #: head-sampling probability for untraced requests; the front's
        #: decision is authoritative — forwards carry explicit trace headers
        #: (on or off), so workers never sample independently
        self.trace_sample = float(trace_sample)
        #: requests slower than this (ms) log one JSON line to stderr
        self.slow_request_ms = float(slow_request_ms)
        self.tracer = TRACER
        self.telemetry = Telemetry()
        self.workers = {f"w{i}": WorkerHandle(f"w{i}") for i in range(self.num_workers)}
        for handle in self.workers.values():
            handle.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        self.ring = HashRing(sorted(self.workers), vnodes=vnodes)
        self._server: "asyncio.AbstractServer | None" = None
        self._connections: "set[asyncio.Task]" = set()
        self._restart_lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_process(self) -> subprocess.Popen:
        command = [
            sys.executable,
            "-m",
            "repro.service",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--cache-dir",
            self.cache_dir if self.cache_dir is not None else "none",
            *(["--enable-faults"] if self.enable_faults else []),
            *self.worker_args,
        ]
        return subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_worker_environment(),
        )

    @staticmethod
    def _pump_output(
        process: subprocess.Popen,
        lines: "queue.Queue[str | None]",
        tail: "deque[str]",
    ) -> None:
        """Read the worker's pipe for its whole life on a daemon thread.

        Every line lands in ``tail`` (bounded, for diagnostics) and — until
        startup finishes consuming them — in the ``lines`` queue.  ``None``
        marks EOF (the process exited).  The single long-lived reader both
        feeds :meth:`_read_listen_line` and keeps the pipe from filling up
        after startup.
        """

        def _run() -> None:
            with contextlib.suppress(Exception):
                for line in process.stdout:  # type: ignore[union-attr]
                    tail.append(line)
                    # nobody drains the queue after startup; drop rather than
                    # grow without bound under a chatty worker
                    with contextlib.suppress(queue.Full):
                        lines.put_nowait(line)
            with contextlib.suppress(queue.Full):
                lines.put_nowait(None)

        threading.Thread(target=_run, daemon=True, name="repro-fleet-pump").start()

    @staticmethod
    def _read_listen_line(
        process: subprocess.Popen,
        lines: "queue.Queue[str | None]",
        tail: "deque[str]",
        timeout: float,
    ) -> "tuple[str, int]":
        """Wait for the worker's listen line; returns (host, port).

        Polls the pump thread's queue with a short timeout (no busy spin —
        ``Queue.get`` blocks) and checks the wall deadline between polls, so
        a worker that hangs *without* printing anything still times out.  A
        failure message includes the worker's captured output, stderr
        included (the workers run with ``stderr=STDOUT``).
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                process.terminate()
                captured = "".join(tail).strip() or "<no output>"
                raise ServiceError(
                    f"fleet worker failed to report its port within {timeout:g}s; "
                    f"captured output:\n{captured}"
                )
            try:
                line = lines.get(timeout=min(remaining, 0.05))
            except queue.Empty:
                continue
            if line is None:
                with contextlib.suppress(Exception):
                    process.wait(timeout=5)
                captured = "".join(tail).strip() or "<no output>"
                raise ServiceError(
                    f"fleet worker exited during startup "
                    f"(code {process.returncode}); captured output:\n{captured}"
                )
            match = _LISTEN_RE.search(line)
            if match:
                return match.group(1), int(match.group(2))

    async def _start_worker(self, handle: WorkerHandle) -> None:
        loop = asyncio.get_running_loop()
        process = self._spawn_process()
        tail: "deque[str]" = deque(maxlen=_OUTPUT_TAIL_LINES)
        lines: "queue.Queue[str | None]" = queue.Queue(maxsize=1000)
        self._pump_output(process, lines, tail)
        try:
            host, port = await loop.run_in_executor(
                None, self._read_listen_line, process, lines, tail,
                self.startup_timeout,
            )
        except ServiceError:
            with contextlib.suppress(Exception):
                process.kill()
            raise
        handle.process = process
        handle.output_tail = tail
        handle.host, handle.port = host, port
        handle.available.set()

    async def _respawn_worker(self, handle: WorkerHandle) -> None:
        """Replace a dead worker in place (same slot, so same key ranges).

        Serialized per handle: concurrent forwards that all see the same dead
        process queue on the lock, and whoever enters second finds the worker
        alive again and skips the spawn.
        """
        async with handle.lock:
            if handle.alive and handle.available.is_set():
                return
            handle.available.clear()
            handle.close_idle()
            if handle.process is not None:
                with contextlib.suppress(Exception):
                    handle.process.kill()
            await self._start_worker(handle)
            handle.restarts += 1
            self.telemetry.inc("fleet.worker_respawns")

    async def restart_worker(self, handle: WorkerHandle) -> None:
        """Draining restart: stop new traffic, let in-flight finish, respawn.

        The drain wait is bounded by ``drain_timeout``: a request stuck on
        the worker cannot wedge the restart — the worker is terminated
        anyway, and the stuck caller's connection dies with it, surfacing as
        a clean error on the caller (never a hang).
        """
        handle.available.clear()
        deadline = time.monotonic() + self.drain_timeout
        while handle.in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if handle.in_flight > 0:
            self.telemetry.inc("fleet.drain_timeouts")
        async with handle.lock:
            handle.close_idle()
            if handle.process is not None:
                handle.process.terminate()
                loop = asyncio.get_running_loop()
                with contextlib.suppress(Exception):
                    await loop.run_in_executor(None, handle.process.wait, 10)
            await self._start_worker(handle)
            handle.restarts += 1
            self.telemetry.inc("fleet.worker_restarts")

    # ------------------------------------------------------------------ #
    # Front lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn the workers (concurrently), then bind the front listener."""
        await asyncio.gather(
            *(self._start_worker(handle) for handle in self.workers.values())
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        for handle in self.workers.values():
            handle.available.clear()
            handle.close_idle()
            if handle.process is not None:
                with contextlib.suppress(Exception):
                    handle.process.terminate()
        loop = asyncio.get_running_loop()
        for handle in self.workers.values():
            if handle.process is not None:
                with contextlib.suppress(Exception):
                    await loop.run_in_executor(None, handle.process.wait, 10)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_http_request(reader, self.max_body_bytes)
                except _HttpError as error:
                    await respond_json(writer, error.status, error.payload, False)
                    break
                if request is None:
                    break
                method, path, version, headers, body = request
                keep_alive = wants_keep_alive(headers, version)
                self.telemetry.inc("fleet.http_requests")
                trace_ctx = self.tracer.sample_request(headers, self.trace_sample)
                if trace_ctx is not None:
                    self.telemetry.inc("fleet.traced_requests")
                started_perf = time.perf_counter()
                extra_headers = None
                content_type = "application/json"
                try:
                    result = await self._dispatch(
                        method, path, body, headers, trace=trace_ctx
                    )
                    if len(result) == 3:
                        status, payload, content_type = result
                    else:
                        status, payload = result
                except _HttpError as error:
                    status, payload = error.status, json.dumps(
                        error.payload, separators=(",", ":")
                    ).encode()
                    extra_headers = error.headers
                except Exception as error:  # noqa: BLE001 — the front must not die
                    self.telemetry.inc("fleet.http_500")
                    status, payload = 500, json.dumps(
                        {"error": str(error), "type": type(error).__name__},
                        separators=(",", ":"),
                    ).encode()
                if trace_ctx is not None:
                    extra_headers = dict(extra_headers or {})
                    extra_headers["X-Repro-Trace-Id"] = trace_ctx.trace_id
                await respond_raw(
                    writer, status, payload, keep_alive, extra_headers,
                    content_type=content_type,
                )
                duration_ms = (time.perf_counter() - started_perf) * 1000.0
                if self.slow_request_ms > 0 and duration_ms >= self.slow_request_ms:
                    log_slow_request(
                        self.telemetry, "fleet.slow_requests", "fleet-front", self.tracer,
                        method, path.split("?", 1)[0], status, duration_ms,
                        self.slow_request_ms, trace_ctx,
                    )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: "dict[str, str] | None" = None,
        trace: "TraceContext | None" = None,
    ) -> "tuple[int, bytes]":
        headers = headers or {}
        bare, _, query_text = path.partition("?")
        query = parse_qs(query_text) if query_text else {}
        if method == "GET" and bare == "/healthz":
            return await self._fleet_healthz()
        if method == "GET" and bare == "/metrics":
            return await self._fleet_metrics((query.get("format") or ["json"])[0])
        if method == "GET" and bare == "/traces":
            return await self._fleet_traces(query)
        if method == "GET" and bare.startswith("/trace/"):
            return await self._fleet_trace(bare[len("/trace/"):])
        if method == "POST" and bare == "/fleet/restart":
            return await self._fleet_restart()
        if method == "POST" and bare == "/fault":
            return await self._fleet_fault(body)
        deadline = None
        budget_text = headers.get("x-repro-deadline")
        if budget_text:
            try:
                deadline = time.monotonic() + max(0.0, float(budget_text))
            except ValueError:
                deadline = None
        shard = self._shard_key(method, bare, body)
        slot = self.ring.lookup(shard)
        handle = self.workers[slot]
        with self.tracer.span(
            trace, "fleet.forward", tags={"path": bare, "worker": slot}
        ) as forward_span:
            return await self._forward(
                handle,
                method,
                path,
                body,
                deadline=deadline,
                request_id=headers.get("x-repro-request-id"),
                trace=forward_span.context,
                span=forward_span,
            )

    def _shard_key(self, method: str, path: str, body: bytes) -> str:
        """The affinity key a request shards on (see the module docstring)."""
        if path.startswith("/result/"):
            return path[len("/result/"):]
        if path == "/bind" and body:
            # repeat binds of one template must land on the worker holding
            # the deserialized template in memory
            try:
                payload = json.loads(body)
                key = payload.get("template_key")
                if isinstance(key, str) and key:
                    return key
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                pass
        digest = hashlib.sha256()
        digest.update(method.encode())
        digest.update(path.encode())
        digest.update(body)
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Proxying
    # ------------------------------------------------------------------ #
    async def _forward(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes,
        deadline: "float | None" = None,
        request_id: "str | None" = None,
        trace: "TraceContext | None" = None,
        span=None,
    ) -> "tuple[int, bytes]":
        """Proxy one request to ``handle``'s worker over a pooled connection.

        A stale pooled connection (worker restarted since last use) retries
        once on a fresh one; a dead worker is respawned into its slot and
        the request retried once more — a request that died *with* a killed
        worker is re-sent to its respawned replacement instead of failing.
        The worker's circuit breaker sheds instantly (503) while open, and
        ``deadline`` is re-budgeted into the forwarded ``X-Repro-Deadline``
        so the worker sees only the time the client has left.

        ``trace``/``span`` annotate a sampled request's ``fleet.forward``
        span: each upstream attempt records its own ``fleet.attempt`` child
        (error-tagged on failure), and breaker events land as tags.
        """
        allowed, event = handle.breaker.allow()
        if event == "probe":
            self.telemetry.inc("fleet.breaker_probes")
            if span is not None:
                span.tag("breaker", "probe")
        if not allowed:
            self.telemetry.inc("fleet.breaker_shed")
            if span is not None:
                span.tag("breaker", "open")
            raise _HttpError(
                503,
                f"fleet worker {handle.slot} circuit breaker is open",
                "CircuitOpen",
                headers={"Retry-After": f"{handle.breaker.cooldown:g}"},
            )
        verdict_recorded = False
        try:
            await faults.fire_async("fleet.upstream")
            try:
                await asyncio.wait_for(handle.available.wait(), self.startup_timeout)
            except asyncio.TimeoutError:
                raise _HttpError(
                    500,
                    f"fleet worker {handle.slot} did not become available",
                    "FleetError",
                ) from None
            handle.in_flight += 1
            try:
                for attempt in range(3):
                    if deadline is not None and time.monotonic() >= deadline:
                        raise _HttpError(
                            504,
                            "request deadline exceeded at the fleet front",
                            "DeadlineExceededError",
                        )
                    fresh = attempt > 0 or not handle.idle
                    attempt_error: "str | None" = None
                    with self.tracer.span(
                        trace, "fleet.attempt",
                        tags={"attempt": attempt, "worker": handle.slot},
                    ) as attempt_span:
                        try:
                            if handle.idle:
                                reader, writer = handle.idle.pop()
                            else:
                                reader, writer = await asyncio.open_connection(
                                    handle.host, handle.port
                                )
                        except OSError as error:
                            reader = writer = None
                            attempt_error = f"{type(error).__name__}: {error}"
                        if writer is not None:
                            try:
                                status, payload = await self._exchange(
                                    reader, writer, method, path, body,
                                    deadline=deadline, request_id=request_id,
                                    trace_ctx=attempt_span.context,
                                )
                            except (
                                OSError, asyncio.IncompleteReadError, _HttpError
                            ) as error:
                                attempt_error = f"{type(error).__name__}: {error}"
                                with contextlib.suppress(Exception):
                                    writer.close()
                            else:
                                handle.idle.append((reader, writer))
                                verdict_recorded = True
                                if handle.breaker.record_success() == "reset":
                                    self.telemetry.inc("fleet.breaker_resets")
                                    if span is not None:
                                        span.tag("breaker", "reset")
                                attempt_span.tag("status", status)
                                if span is not None:
                                    span.tag("attempts", attempt + 1)
                                return status, payload
                        attempt_span.set_error(
                            attempt_error or "forward attempt failed"
                        )
                    if attempt > 0:
                        self.telemetry.inc("fleet.forward_retries")
                    # a fresh connection failed too: the worker process is gone
                    if fresh and not await self._confirm_alive(handle):
                        self.telemetry.inc("fleet.worker_deaths")
                        await self._respawn_worker(handle)
                verdict_recorded = True
                if span is not None:
                    span.tag("attempts", 3)
                if handle.breaker.record_failure() == "trip":
                    self.telemetry.inc("fleet.breaker_trips")
                    if span is not None:
                        span.tag("breaker", "trip")
                raise _HttpError(
                    500,
                    f"fleet worker {handle.slot} kept failing at {handle.address}",
                    "FleetError",
                )
            finally:
                handle.in_flight -= 1
        finally:
            # a forward that exited without a success/failure verdict (an
            # expired deadline, an availability timeout) must not leave the
            # half-open probe slot claimed forever
            if not verdict_recorded:
                handle.breaker.release_probe()

    async def _confirm_alive(self, handle: WorkerHandle) -> bool:
        """Whether a worker whose fresh connection just failed really lives.

        A dying worker closes its sockets an instant *before* it becomes
        reapable, so a single ``poll()`` here races the kernel: the connect
        already failed but the process does not read as dead yet, and the
        respawn-and-resend path would be skipped.  Re-poll briefly before
        trusting a live verdict.
        """
        for _ in range(5):
            if not handle.alive:
                return False
            await asyncio.sleep(0.02)
        return handle.alive

    async def _exchange(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        deadline: "float | None" = None,
        request_id: "str | None" = None,
        trace_ctx: "TraceContext | None" = None,
    ) -> "tuple[int, bytes]":
        """One request/response over an (already open) worker connection."""
        extra = ""
        if deadline is not None:
            remaining = deadline - time.monotonic()
            extra += f"X-Repro-Deadline: {max(0.0, remaining):g}\r\n"
        if request_id:
            extra += f"X-Repro-Request-Id: {request_id}\r\n"
        if trace_ctx is not None:
            # the front's sampling decision is authoritative for the worker
            extra += f"X-Repro-Trace-Id: {trace_ctx.trace_id}\r\n"
            extra += "X-Repro-Trace: 1\r\n"
            if trace_ctx.span_id:
                extra += f"X-Repro-Parent-Span: {trace_ctx.span_id}\r\n"
        else:
            extra += "X-Repro-Trace: 0\r\n"
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        try:
            status = int(status_line.split()[1])
        except (IndexError, ValueError):
            raise _HttpError(500, "fleet worker sent a malformed response") from None
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await reader.readexactly(length) if length else b""
        return status, payload

    async def _worker_get_json(self, handle: WorkerHandle, path: str) -> dict:
        status, payload = await self._forward(handle, "GET", path, b"")
        if status != 200:
            raise _HttpError(500, f"worker {handle.slot} {path} returned {status}")
        return json.loads(payload)

    # ------------------------------------------------------------------ #
    # Fleet endpoints
    # ------------------------------------------------------------------ #
    def _encode(self, status: int, payload: dict) -> "tuple[int, bytes]":
        return status, json.dumps(payload, separators=(",", ":")).encode()

    async def _fleet_healthz(self) -> "tuple[int, bytes]":
        """Aggregate liveness: ``ok`` iff every worker's /healthz is."""

        async def _one(handle: WorkerHandle) -> dict:
            try:
                health = await self._worker_get_json(handle, "/healthz")
            except Exception as error:  # noqa: BLE001 — report, don't crash
                return {"slot": handle.slot, "status": "dead", "error": str(error)}
            health["slot"] = handle.slot
            health["address"] = handle.address
            return health

        reports = await asyncio.gather(
            *(_one(handle) for handle in self.workers.values())
        )
        all_ok = all(report.get("status") == "ok" for report in reports)
        return self._encode(
            200 if all_ok else 500,
            {
                "status": "ok" if all_ok else "degraded",
                "fleet": True,
                "workers": len(reports),
                "worker_health": list(reports),
            },
        )

    async def _fleet_metrics(self, fmt: str = "json") -> "tuple[int, bytes]":
        """Per-worker metrics plus a fleet-wide telemetry rollup.

        ``fmt="prometheus"`` renders every worker's payload with a
        ``worker="wN"`` label (plus the front's own telemetry as
        ``worker="front"``) in text exposition format.
        """
        if fmt not in ("json", "prometheus"):
            raise _HttpError(400, f"unknown metrics format {fmt!r}", "BadFormat")

        async def _one(handle: WorkerHandle) -> "dict | None":
            try:
                metrics = await self._worker_get_json(handle, "/metrics")
            except Exception:  # noqa: BLE001 — a dead worker just drops out
                return None
            metrics["slot"] = handle.slot
            metrics["restarts"] = handle.restarts
            metrics["breaker"] = handle.breaker.stats()
            return metrics

        per_worker = [
            metrics
            for metrics in await asyncio.gather(
                *(_one(handle) for handle in self.workers.values())
            )
            if metrics is not None
        ]
        if fmt == "prometheus":
            sources = [
                (metrics, {"worker": metrics["slot"]}) for metrics in per_worker
            ]
            sources.append(
                ({"telemetry": self.telemetry.snapshot()}, {"worker": "front"})
            )
            text = render_prometheus(sources)
            return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
        scheduler = {
            "jobs_submitted": sum(m["scheduler"]["jobs_submitted"] for m in per_worker),
            "batches_flushed": sum(m["scheduler"]["batches_flushed"] for m in per_worker),
        }
        payload = {
            "fleet": self.telemetry.snapshot(),
            "workers": len(self.workers),
            "telemetry": merge_snapshots([m["telemetry"] for m in per_worker]),
            "scheduler": scheduler,
            "tracer": self.tracer.snapshot(),
            "per_worker": per_worker,
        }
        caches = [m["cache"] for m in per_worker if "cache" in m]
        if caches:
            # disk-level numbers are views of the one shared directory (take
            # the first); process-local counters sum across workers
            rollup = dict(caches[0])
            for name in (
                "hits", "misses", "memory_hits", "disk_hits", "evictions",
                "deletes", "index_drift", "corrupt_artifacts", "read_errors",
                "template_hits", "template_misses",
                "template_evictions", "sweeps", "expired",
            ):
                rollup[name] = sum(int(cache.get(name, 0)) for cache in caches)
            payload["cache"] = rollup
        pools = [m["pool"] for m in per_worker if "pool" in m]
        if pools:
            payload["pool"] = {
                "max_workers": sum(int(pool.get("max_workers", 0)) for pool in pools),
                "alive": all(bool(pool.get("alive")) for pool in pools),
                "batches": sum(int(pool.get("batches", 0)) for pool in pools),
                "programs": sum(int(pool.get("programs", 0)) for pool in pools),
                "restarts": sum(int(pool.get("restarts", 0)) for pool in pools),
                "breaks": sum(int(pool.get("breaks", 0)) for pool in pools),
            }
        return self._encode(200, payload)

    async def _fleet_trace(self, trace_id: str) -> "tuple[int, bytes]":
        """Stitch one trace: the front's own spans + every worker's.

        Workers without spans for the id (404s, dead workers) just drop out;
        a 404 from the front means *nobody* buffered the trace.
        """
        await faults.fire_async("fleet.trace")
        trace_id = trace_id.strip().lower()

        async def _one(handle: WorkerHandle) -> "list[dict]":
            try:
                status, payload = await self._forward(
                    handle, "GET", f"/trace/{trace_id}", b""
                )
                if status != 200:
                    return []
                return json.loads(payload).get("spans", [])
            except Exception:  # noqa: BLE001 — a missing worker trace is not fatal
                return []

        worker_spans = await asyncio.gather(
            *(_one(handle) for handle in self.workers.values())
        )
        merged = merge_trace_spans([self.tracer.trace(trace_id), *worker_spans])
        if not merged:
            raise _HttpError(
                404, f"no buffered spans for trace {trace_id!r}", "NotFound"
            )
        return self._encode(
            200,
            {
                "trace_id": trace_id,
                "spans": merged,
                "stitched": True,
                "workers": len(self.workers),
            },
        )

    async def _fleet_traces(self, query: "dict[str, list[str]]") -> "tuple[int, bytes]":
        """Merged recent-trace summaries across the front and every worker."""
        await faults.fire_async("fleet.trace")
        limit_text = (query.get("limit") or ["20"])[0]
        try:
            limit = max(1, min(500, int(limit_text)))
        except ValueError:
            raise _HttpError(
                400, f"limit must be an integer, got {limit_text!r}"
            ) from None

        async def _one(handle: WorkerHandle) -> "list[dict]":
            try:
                payload = await self._worker_get_json(
                    handle, f"/traces?limit={limit}"
                )
                return payload.get("traces", [])
            except Exception:  # noqa: BLE001 — a dead worker just drops out
                return []

        worker_summaries = await asyncio.gather(
            *(_one(handle) for handle in self.workers.values())
        )
        merged = merge_trace_summaries(
            [self.tracer.traces(limit), *worker_summaries], limit=limit
        )
        return self._encode(200, {"traces": merged})

    async def _fleet_restart(self) -> "tuple[int, bytes]":
        """Rolling draining restart of every worker, one at a time."""
        async with self._restart_lock:
            restarted = []
            for slot in sorted(self.workers):
                await self.restart_worker(self.workers[slot])
                restarted.append(slot)
        return self._encode(200, {"restarted": restarted})

    async def _fleet_fault(self, body: bytes) -> "tuple[int, bytes]":
        """Arm faults across the fleet (chaos tooling; needs ``--enable-faults``).

        ``fleet.*`` sites arm the front's own registry; everything else is
        forwarded to the workers — to every worker, or to one slot when the
        rule carries a ``"worker"`` field.  ``clear`` / ``seed`` apply to the
        front and broadcast to every worker.
        """
        if not self.enable_faults:
            raise _HttpError(
                403,
                "fault injection is disabled; start the fleet with "
                "--enable-faults",
                "FaultsDisabled",
            )
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("fault payload must be a JSON object")
            rules: "list[faults.FaultRule]" = []
            if "spec" in payload:
                rules.extend(faults.parse_spec(str(payload["spec"])))
            raw_rules = payload.get("rules", [])
            if not isinstance(raw_rules, list):
                raise ValueError("'rules' must be a list of rule objects")
            for rule_data in raw_rules:
                rules.extend([faults.FaultRule.from_dict(rule_data)])
        except (ValueError, TypeError, UnicodeDecodeError) as error:
            raise _HttpError(400, str(error), "FaultSpec") from error

        clear = bool(payload.get("clear"))
        seed = payload.get("seed")
        if clear:
            faults.REGISTRY.clear()
        if seed is not None:
            faults.REGISTRY.reseed(int(seed))

        # split front-local vs worker rules; unknown worker slots are a 400
        per_worker: "dict[str, list[dict]]" = {slot: [] for slot in self.workers}
        for rule in rules:
            if rule.site.startswith("fleet."):
                faults.REGISTRY.add(rule)
                continue
            targets = [rule.worker] if rule.worker else sorted(self.workers)
            for slot in targets:
                if slot not in self.workers:
                    raise _HttpError(
                        400, f"unknown fleet worker slot {slot!r}", "FaultSpec"
                    )
                data = rule.to_dict()
                data.pop("worker", None)
                per_worker[slot].append(data)

        worker_reports: "dict[str, object]" = {}
        for slot in sorted(self.workers):
            worker_payload: dict = {}
            if clear:
                worker_payload["clear"] = True
            if seed is not None:
                worker_payload["seed"] = int(seed)
            if per_worker[slot]:
                worker_payload["rules"] = per_worker[slot]
            if not worker_payload:
                continue
            handle = self.workers[slot]
            encoded = json.dumps(worker_payload, separators=(",", ":")).encode()
            try:
                status, response = await self._forward(
                    handle, "POST", "/fault", encoded
                )
                worker_reports[slot] = {
                    "status": status,
                    "active": json.loads(response).get("active", []),
                }
            except Exception as error:  # noqa: BLE001 — report, don't crash
                worker_reports[slot] = {"error": str(error)}
        return self._encode(
            200,
            {
                "enabled": True,
                "front": [rule.to_dict() for rule in faults.REGISTRY.active()],
                "workers": worker_reports,
            },
        )

    def stats(self) -> dict:
        """JSON-safe supervisor counters (for tests; the front has no loop)."""
        return {
            "workers": {
                slot: {
                    "address": handle.address,
                    "alive": handle.alive,
                    "restarts": handle.restarts,
                    "in_flight": handle.in_flight,
                    "idle_connections": len(handle.idle),
                    "breaker": handle.breaker.stats(),
                }
                for slot, handle in sorted(self.workers.items())
            },
            "telemetry": self.telemetry.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"FleetFront(workers={self.num_workers}, address={self.address!r})"
        )
