"""Stdlib-only ``asyncio`` HTTP JSON front-end for the compiler.

Endpoints (all JSON bodies/responses):

* ``POST /compile`` — one wire-format program (plus ``target`` / ``level`` /
  ``pipeline`` / ``use_cache`` / ``include_result`` options); responds with
  the artifact ``key``, a ``cache_hit`` flag, summary ``metrics``, and the
  serialized result.  The key is hashed from the raw wire arrays, and a hit
  in the cache's memory layer is answered **inline on the event loop** by
  splicing the stored artifact bytes into the response; everything else
  (a memory miss, a disk hit, ``use_cache=false``, a payload the raw path
  cannot read) goes through the batching scheduler.
* ``POST /compile_batch`` — ``{"programs": [...]}`` with shared options;
  memory hits are answered inline as above, the rest are submitted in one
  loop tick and compile as one planned scheduler batch.  Per-entry errors are
  reported per entry.
* ``POST /compile_template`` — one ``repro.parametric/v1`` program; traces
  the pipeline once into a compiled template, stores it under a
  structure-only key (``template_key``), optionally returns the template
  wire payload (``include_template``).
* ``POST /bind`` — a ``repro.parametric/v1`` bind request (template named by
  ``template_key`` or shipped inline) plus a ``params`` vector; replays the
  template's merge chains **inline on the event loop** — a bind takes
  microseconds, so it never takes the scheduler's executor hop.  The response's
  ``result`` is spliced: the fresh angle and coefficient arrays go into a
  per-template pre-encoded result, so no gate objects are built and the
  bytes equal an encode of ``template.bind(params)`` outside the timing
  fields (``compile_seconds``, ``metrics.compile_seconds``).  A degenerate
  binding (``"degenerate": true``) is compiled in full and encoded as such.
* ``GET /result/<key>`` — fetch a cached artifact by key, as its stored
  bytes (404 on miss).
* ``DELETE /result/<key>`` — explicitly evict a cached artifact (404 on
  miss); counted on ``/metrics`` as ``service.results_deleted``.
* ``GET /healthz`` — liveness.
* ``GET /metrics`` — telemetry counters/histograms plus cache statistics.

The server is a single ``asyncio`` process: request handling stays on the
event loop, while compilation runs on worker threads via the
:class:`~repro.service.scheduler.BatchingScheduler`: the ``POST /compile``
misses of one loop tick execute as one :func:`repro.compile_many` batch,
and a miss whose key is already compiling waits for that compile.  HTTP/1.1
keep-alive is supported (one request at a time per connection).

Start it with ``python -m repro.service``; drive it with
:class:`repro.service.client.Client`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections import OrderedDict
from urllib.parse import parse_qs

from repro.exceptions import (
    DeadlineExceededError,
    FaultInjectedError,
    OverloadedError,
    ReproError,
)
from repro.observability import (
    DEFAULT_SAMPLE_RATE,
    TRACER,
    TraceContext,
    log_slow_request,
    render_prometheus,
)
from repro.service import faults
from repro.service.cache import ArtifactCache, StoredResult, wire_cache_key
from repro.service.scheduler import (
    DEFAULT_MAX_QUEUE_DEPTH,
    BatchingScheduler,
    CompletedJob,
    execute_bind,
)
from repro.service.serialize import (
    bind_request_from_wire,
    bound_result_skeleton,
    parametric_program_from_wire,
    program_from_wire,
    result_to_wire,
    template_from_wire,
    template_to_wire,
)
from repro.service.telemetry import Telemetry

#: largest accepted request body (64 MiB — a ~100k-term wire program is ~4 MiB)
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: bounded replay store of request_id → completed POST responses, per server
DEFAULT_DEDUP_ENTRIES = 128


class _HttpError(Exception):
    """Internal: carries an HTTP status + JSON error payload to the writer."""

    def __init__(
        self,
        status: int,
        message: str,
        kind: str = "error",
        headers: "dict[str, str] | None" = None,
    ):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, "type": kind}
        self.headers = headers


def _bad_request(error: Exception) -> _HttpError:
    return _HttpError(400, str(error), kind=type(error).__name__)


class _TextPayload:
    """A non-JSON response body (Prometheus exposition) out of ``_dispatch``."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str):
        self.body = body
        self.content_type = content_type


class _Spliced:
    """A JSON-object response whose member ``name`` is already encoded.

    ``fields`` are encoded at write time and ``raw`` — the bytes of one JSON
    value — is written as is: a stored artifact goes out exactly as it sits
    on disk, and a bound result as its template's skeleton spliced it, with
    no decode and no re-encode.
    """

    __slots__ = ("fields", "name", "raw")

    def __init__(self, fields: dict, name: str, raw: bytes):
        self.fields = fields
        self.name = name
        self.raw = raw

    def marked(self, name: str, value) -> "_Spliced":
        """A copy with one more encoded-at-write-time field."""
        return _Spliced({**self.fields, name: value}, self.name, self.raw)

    def encode(self) -> bytes:
        head = json.dumps(self.fields, separators=(",", ":")).encode()
        opening = head[:-1] + b"," if self.fields else b"{"
        return opening + json.dumps(self.name).encode() + b":" + self.raw + b"}"


def _json_bytes(payload) -> bytes:
    if isinstance(payload, _Spliced):
        return payload.encode()
    return json.dumps(payload, separators=(",", ":")).encode()


#: the content type Prometheus scrapers expect from a text-format endpoint
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


# ---------------------------------------------------------------------- #
# HTTP plumbing shared by the single-process server and the fleet front
# ---------------------------------------------------------------------- #
async def read_http_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> "tuple[str, str, str, dict[str, str], bytes] | None":
    """Read one ``(method, path, version, headers, body)`` request.

    Returns ``None`` on a clean EOF (client closed between requests);
    raises :class:`_HttpError` on malformed input or an oversized body.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, path, version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:
        raise _HttpError(400, "malformed Content-Length header")
    if length > max_body_bytes:
        raise _HttpError(
            413, f"body of {length} bytes exceeds the {max_body_bytes} cap"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, version, headers, body


def wants_keep_alive(headers: dict, version: str) -> bool:
    """HTTP/1.1 defaults to keep-alive; anything else to close."""
    default = "keep-alive" if version == "HTTP/1.1" else "close"
    return headers.get("connection", default).lower() != "close"


async def respond_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    keep_alive: bool,
    extra_headers: "dict[str, str] | None" = None,
) -> None:
    """Serialize ``payload`` and write one HTTP/1.1 JSON response."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    await respond_raw(writer, status, body, keep_alive, extra_headers)


async def respond_raw(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    keep_alive: bool,
    extra_headers: "dict[str, str] | None" = None,
    content_type: str = "application/json",
) -> None:
    """Write one HTTP/1.1 response with a pre-encoded body."""
    connection = "keep-alive" if keep_alive else "close"
    extra = ""
    if extra_headers:
        extra = "".join(f"{name}: {value}\r\n" for name, value in extra_headers.items())
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        f"{extra}"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


class ServiceServer:
    """The compilation service: cache + scheduler + HTTP front-end."""

    def __init__(
        self,
        cache_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: ArtifactCache | None = None,
        max_cache_bytes: int | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        pool_workers: int = 0,
        ttl_seconds: float | None = None,
        sweep_interval: float = 0.0,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        enable_faults: bool = False,
        trace_sample: float = DEFAULT_SAMPLE_RATE,
        slow_request_ms: float = 0.0,
    ):
        if cache is None and cache_dir is not None:
            cache_kwargs: dict = {}
            if max_cache_bytes is not None:
                cache_kwargs["max_bytes"] = max_cache_bytes
            if ttl_seconds is not None:
                cache_kwargs["ttl_seconds"] = ttl_seconds
            cache = ArtifactCache(cache_dir, **cache_kwargs)
        self.cache = cache
        self.host = host
        self.port = int(port)  # replaced by the bound port after start()
        self.telemetry = Telemetry()
        self.scheduler = BatchingScheduler(
            cache=self.cache,
            telemetry=self.telemetry,
            pool_workers=pool_workers,
            max_queue_depth=max_queue_depth,
        )
        self.max_body_bytes = int(max_body_bytes)
        #: whether ``POST /fault`` may arm the in-process fault registry;
        #: off by default — chaos tooling must opt in explicitly
        self.enable_faults = bool(enable_faults)
        #: head-sampling probability for requests without an explicit trace
        #: id / ``X-Repro-Trace`` header (spans land in the process-global
        #: :data:`repro.observability.TRACER` ring buffer)
        self.trace_sample = float(trace_sample)
        #: requests slower than this (milliseconds) emit one structured JSON
        #: line to stderr with the trace id + per-span breakdown; 0 disables
        self.slow_request_ms = float(slow_request_ms)
        self.tracer = TRACER
        #: bounded replay store: request_id → completed POST (status, payload),
        #: so a client retrying a non-idempotent POST after a lost response
        #: gets the original answer instead of duplicated work
        self._dedup: "OrderedDict[str, tuple[int, dict]]" = OrderedDict()
        self.dedup_entries = DEFAULT_DEDUP_ENTRIES
        #: background-sweep period in seconds; 0 disables the task (a TTL
        #: can still be applied by calling ``cache.sweep()`` by hand)
        self.sweep_interval = float(sweep_interval)
        self._sweep_task: "asyncio.Task | None" = None
        self._server: "asyncio.AbstractServer | None" = None
        self._connections: "set[asyncio.Task]" = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start accepting connections (fills in :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.cache is not None and self.sweep_interval > 0:
            self._sweep_task = asyncio.get_running_loop().create_task(
                self._sweep_forever()
            )
        if self.scheduler.pool is not None and self.scheduler.pool.usable:
            # spawn + import in the pool workers now, not on the first batch
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.scheduler.pool.warm)

    async def _sweep_forever(self) -> None:
        """Periodic cache lifecycle: TTL expiry + index reconcile, off-loop."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.sweep_interval)
            try:
                await loop.run_in_executor(None, self._sweep_once)
            except Exception:  # noqa: BLE001 — a failed sweep must not kill the loop
                self.telemetry.inc("service.cache_sweep_errors")

    def _sweep_once(self) -> None:
        # counted on the sweeping thread right after the cache counts it, not
        # after a hop back to the event loop, so /metrics (which reads the
        # cache first) does not see the cache's count run ahead of this one
        self.cache.sweep()
        self.telemetry.inc("service.cache_sweeps")

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweep_task
            self._sweep_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # keep-alive connections idle in readline() outlive the listener;
        # cancel them so the loop shuts down clean
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        self.scheduler.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request, or the server is closing
        finally:
            if task is not None:
                self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        try:
            request = await read_http_request(reader, self.max_body_bytes)
        except _HttpError as error:
            await self._respond(writer, error.status, error.payload, False)
            return False
        if request is None:
            return False
        method, path, version, headers, body = request
        keep_alive = wants_keep_alive(headers, version)

        # Per-request deadline: the client ships its remaining *budget* in
        # seconds (relative, so no clock sync needed); past it the request is
        # answered 504 and the work abandoned at the next checkpoint.
        deadline: float | None = None
        budget_text = headers.get("x-repro-deadline")
        if budget_text:
            try:
                deadline = time.monotonic() + max(0.0, float(budget_text))
            except ValueError:
                deadline = None  # a malformed budget never breaks the request

        # Replay of completed non-idempotent POSTs: a retrying client sends
        # the same X-Repro-Request-Id and gets the original response back.
        request_id = headers.get("x-repro-request-id") if method == "POST" else None
        if request_id:
            replay = self._dedup.get(request_id)
            if replay is not None:
                status, payload = replay
                if isinstance(payload, _Spliced):
                    payload = payload.marked("deduplicated", True)
                else:
                    payload = dict(payload)
                    payload["deduplicated"] = True
                self.telemetry.inc("service.request_dedup_hits")
                await self._respond(writer, status, payload, keep_alive)
                return keep_alive

        self.telemetry.inc("service.http_requests")
        trace_ctx = self.tracer.sample_request(headers, self.trace_sample)
        if trace_ctx is not None:
            self.telemetry.inc("service.traced_requests")
        bare_path = path.split("?", 1)[0]
        extra_headers: "dict[str, str] | None" = None
        with self.tracer.span(
            trace_ctx, "server.handle", tags={"method": method, "path": bare_path},
            telemetry=self.telemetry, histogram="service.request_seconds",
        ) as handle_span:
            try:
                await faults.fire_async("server.handle")
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise DeadlineExceededError(
                            "deadline budget exhausted before dispatch"
                        )
                    status, payload = await asyncio.wait_for(
                        self._dispatch(
                            method, path, body, deadline=deadline,
                            trace=handle_span.context,
                        ),
                        timeout=remaining,
                    )
                else:
                    status, payload = await self._dispatch(
                        method, path, body, trace=handle_span.context
                    )
            except _HttpError as error:
                status, payload = error.status, error.payload
                extra_headers = error.headers
            except (asyncio.TimeoutError, DeadlineExceededError) as error:
                self.telemetry.inc("service.deadline_expired")
                message = str(error) or "request deadline exceeded"
                status, payload = 504, {
                    "error": message,
                    "type": "DeadlineExceededError",
                }
            except OverloadedError as error:
                status, payload = 503, {"error": str(error), "type": "OverloadedError"}
                extra_headers = {"Retry-After": f"{error.retry_after:g}"}
            except FaultInjectedError as error:
                status, payload = 500, {"error": str(error), "type": "FaultInjectedError"}
            except ReproError as error:
                status, payload = 400, {"error": str(error), "type": type(error).__name__}
            except Exception as error:  # noqa: BLE001 — the server must not die
                self.telemetry.inc("service.http_500")
                status, payload = 500, {"error": str(error), "type": type(error).__name__}
            handle_span.tag("status", status)
            if status >= 400 and isinstance(payload, dict):
                handle_span.set_error(
                    f"{payload.get('type', 'error')}: {payload.get('error', '')}"
                )
        if status != 200:
            self.telemetry.inc(f"service.http_{status}")
        elif request_id and isinstance(payload, (dict, _Spliced)):
            self._dedup[request_id] = (status, payload)
            self._dedup.move_to_end(request_id)
            while len(self._dedup) > self.dedup_entries:
                self._dedup.popitem(last=False)
        response_headers = extra_headers
        if trace_ctx is not None:
            response_headers = dict(extra_headers or {})
            response_headers["X-Repro-Trace-Id"] = trace_ctx.trace_id
        await self._respond(writer, status, payload, keep_alive, response_headers)
        duration_ms = handle_span.duration_seconds * 1000.0
        if self.slow_request_ms > 0 and duration_ms >= self.slow_request_ms:
            log_slow_request(
                self.telemetry, "service.slow_requests", None, self.tracer,
                method, bare_path, status, duration_ms, self.slow_request_ms, trace_ctx,
            )
        return keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
        extra_headers: "dict[str, str] | None" = None,
    ) -> None:
        if isinstance(payload, _TextPayload):
            await respond_raw(
                writer, status, payload.body, keep_alive, extra_headers,
                content_type=payload.content_type,
            )
            return
        if isinstance(payload, _Spliced):
            await respond_raw(writer, status, payload.encode(), keep_alive, extra_headers)
            return
        await respond_json(writer, status, payload, keep_alive, extra_headers)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        deadline: float | None = None,
        trace: "TraceContext | None" = None,
    ) -> tuple[int, dict]:
        path, _, query_text = path.partition("?")
        query = parse_qs(query_text) if query_text else {}
        if method == "GET":
            if path == "/healthz":
                return 200, self._healthz()
            if path == "/metrics":
                return 200, self._metrics_view(query)
            if path == "/traces":
                return await self._get_traces(query)
            if path.startswith("/trace/"):
                return await self._get_trace(path[len("/trace/"):])
            if path.startswith("/result/"):
                return self._get_result(path[len("/result/"):], trace=trace)
            raise _HttpError(404, f"unknown path {path!r}", kind="NotFound")
        if method == "POST":
            payload = self._parse_json(body)
            if path == "/compile":
                return await self._post_compile(
                    payload, deadline=deadline, trace=trace
                )
            if path == "/compile_batch":
                return await self._post_compile_batch(
                    payload, deadline=deadline, trace=trace
                )
            if path == "/compile_template":
                return await self._post_compile_template(payload)
            if path == "/bind":
                return self._post_bind(payload)
            if path == "/fault":
                return self._post_fault(payload)
            raise _HttpError(404, f"unknown path {path!r}", kind="NotFound")
        if method == "DELETE":
            if path.startswith("/result/"):
                return self._delete_result(path[len("/result/"):])
            raise _HttpError(404, f"unknown path {path!r}", kind="NotFound")
        raise _HttpError(405, f"method {method} not supported", kind="MethodNotAllowed")

    def _parse_json(self, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": self.telemetry.snapshot()["uptime_seconds"],
            "caching": self.cache is not None,
        }

    def _metrics(self) -> dict:
        # the cache first: a sweep finishing meanwhile then shows up in the
        # telemetry snapshot at least as far as in the cache's counters
        cache = None if self.cache is None else self.cache.stats()
        payload = {
            "telemetry": self.telemetry.snapshot(),
            "scheduler": {
                "jobs_submitted": self.scheduler.jobs_submitted,
                "batches_flushed": self.scheduler.batches_flushed,
                "jobs_shed": self.scheduler.jobs_shed,
                "max_queue_depth": self.scheduler.max_queue_depth,
            },
            "tracer": self.tracer.snapshot(),
        }
        if self.scheduler.pool is not None:
            payload["pool"] = self.scheduler.pool.stats()
        if cache is not None:
            payload["cache"] = cache
        return payload

    def _metrics_view(self, query: "dict[str, list[str]]"):
        """``GET /metrics``: JSON by default, ``?format=prometheus`` for text."""
        fmt = (query.get("format") or ["json"])[0]
        if fmt == "json":
            return self._metrics()
        if fmt == "prometheus":
            text = render_prometheus([(self._metrics(), {})])
            return _TextPayload(text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
        raise _HttpError(400, f"unknown metrics format {fmt!r}", "BadFormat")

    # ------------------------------------------------------------------ #
    # Traces
    # ------------------------------------------------------------------ #
    async def _get_trace(self, trace_id: str) -> tuple[int, dict]:
        await faults.fire_async("server.trace")
        trace_id = trace_id.strip().lower()
        spans = self.tracer.trace(trace_id)
        if not spans:
            raise _HttpError(
                404, f"no buffered spans for trace {trace_id!r}", "NotFound"
            )
        return 200, {"trace_id": trace_id, "spans": spans}

    async def _get_traces(self, query: "dict[str, list[str]]") -> tuple[int, dict]:
        await faults.fire_async("server.trace")
        limit_text = (query.get("limit") or ["20"])[0]
        try:
            limit = max(1, min(500, int(limit_text)))
        except ValueError:
            raise _HttpError(400, f"limit must be an integer, got {limit_text!r}") from None
        return 200, {"traces": self.tracer.traces(limit)}

    def _get_result(
        self, key: str, trace: "TraceContext | None" = None
    ) -> tuple[int, _Spliced]:
        if self.cache is None:
            raise _HttpError(404, "the server runs without an artifact cache", "NoCache")
        with self.tracer.span(trace, "cache.read", tags={"kind": "artifact"}) as span:
            try:
                stored = self.cache.get_stored(key)
            except ReproError as error:
                raise _bad_request(error) from error
            span.tag("hit", stored is not None)
        if stored is None:
            raise _HttpError(404, f"no artifact stored under {key!r}", "NotFound")
        return 200, _Spliced({"key": key}, "result", stored.raw)

    @staticmethod
    def _compile_options(payload: dict) -> dict:
        level = payload.get("level", 3)
        if not isinstance(level, int) or isinstance(level, bool):
            raise _HttpError(400, f"level must be an integer, got {level!r}")
        pipeline = payload.get("pipeline")
        if pipeline is not None and not isinstance(pipeline, str):
            raise _HttpError(400, "pipeline must be a registered pipeline name")
        target = payload.get("target")
        if target is not None and not isinstance(target, str):
            raise _HttpError(400, "target must be a known device name")
        return {
            "level": level,
            "pipeline": pipeline,
            "target": target,
            "use_cache": bool(payload.get("use_cache", True)),
        }

    @staticmethod
    def _stored_payload(
        key: str, stored: StoredResult, cache_hit: bool, include_result: bool
    ) -> "dict | _Spliced":
        entry = {
            "key": key,
            "cache_hit": cache_hit,
            "metrics": stored.metrics,
            "compiler": stored.compiler,
        }
        return _Spliced(entry, "result", stored.raw) if include_result else entry

    def _job_payload(
        self, outcome: CompletedJob, include_result: bool
    ) -> "dict | _Spliced":
        if outcome.stored is not None:
            return self._stored_payload(
                outcome.key, outcome.stored, outcome.cache_hit, include_result
            )
        entry: dict = {"key": outcome.key, "cache_hit": outcome.cache_hit}
        if outcome.result is not None:
            entry["metrics"] = outcome.result.metrics()
            entry["compiler"] = outcome.result.name
            if include_result:
                entry["result"] = result_to_wire(outcome.result)
        return entry

    def _wire_key(self, wire_program, options: dict) -> "str | None":
        """The artifact key of a raw wire program, or ``None``.

        ``None`` without a cache, or when the raw path cannot read the
        payload: the request then takes the scheduler path, whose decode
        and validation report the error exactly as they always have.
        """
        if self.cache is None:
            return None
        try:
            with self.tracer.span(
                telemetry=self.telemetry, histogram="service.key_seconds"
            ):
                return wire_cache_key(
                    wire_program,
                    target=options["target"],
                    level=options["level"],
                    pipeline=options["pipeline"],
                )
        except Exception:  # noqa: BLE001 — the scheduler path reports it
            return None

    def _memory_hit(
        self, key: str, trace: "TraceContext | None"
    ) -> "StoredResult | None":
        """Look ``key`` up in the cache's memory layer, on the event loop.

        Only a hit is recorded (a ``cache.read`` span and one
        ``service.cache_lookup_seconds`` observation): a miss goes on to the
        scheduler, whose own lookup of both layers records the read.
        """
        started_wall, started = time.time(), time.perf_counter()
        stored = self.cache.peek(key)
        if stored is None:
            return None
        seconds = time.perf_counter() - started
        self.telemetry.observe("service.cache_lookup_seconds", seconds)
        self.telemetry.inc("service.cache_hits")
        if trace is not None:
            self.tracer.record(
                trace.trace_id, "cache.read", started_wall, seconds,
                parent_id=trace.span_id,
                tags={"kind": "artifact", "hit": True, "layer": "memory"},
            )
        return stored

    async def _compile_entry(
        self,
        wire_program,
        options: dict,
        include_result: bool,
        deadline: float | None,
        trace: "TraceContext | None",
    ) -> "dict | _Spliced":
        """One compile request: a memory hit inline, anything else batched."""
        key = self._wire_key(wire_program, options)
        if key is not None and options["use_cache"]:
            stored = self._memory_hit(key, trace)
            if stored is not None:
                return self._stored_payload(key, stored, True, include_result)
        program = program_from_wire(wire_program)
        outcome = await self.scheduler.submit(
            program, key=key, deadline=deadline, trace=trace, **options
        )
        return self._job_payload(outcome, include_result)

    async def _post_compile(
        self,
        payload: dict,
        deadline: float | None = None,
        trace: "TraceContext | None" = None,
    ) -> "tuple[int, dict | _Spliced]":
        wire_program = payload.get("program")
        if wire_program is None:
            raise _HttpError(400, "payload lacks a 'program' field")
        options = self._compile_options(payload)
        include_result = bool(payload.get("include_result", True))
        return 200, await self._compile_entry(
            wire_program, options, include_result, deadline, trace
        )

    def _post_fault(self, payload: dict) -> tuple[int, dict]:
        """Arm / inspect the in-process fault registry (chaos tooling only)."""
        if not self.enable_faults:
            raise _HttpError(
                403,
                "fault injection is disabled; start the server with "
                "--enable-faults",
                "FaultsDisabled",
            )
        try:
            if payload.get("clear"):
                faults.REGISTRY.clear()
            if "seed" in payload:
                faults.REGISTRY.reseed(int(payload["seed"]))
            if "spec" in payload:
                for rule in faults.parse_spec(str(payload["spec"])):
                    faults.REGISTRY.add(rule)
            rules = payload.get("rules", [])
            if not isinstance(rules, list):
                raise ValueError("'rules' must be a list of rule objects")
            for rule_data in rules:
                faults.REGISTRY.add(faults.FaultRule.from_dict(rule_data))
        except (ValueError, TypeError) as error:
            raise _HttpError(400, str(error), "FaultSpec") from error
        return 200, {
            "enabled": True,
            "active": [rule.to_dict() for rule in faults.REGISTRY.active()],
        }

    def _delete_result(self, key: str) -> tuple[int, dict]:
        if self.cache is None:
            raise _HttpError(404, "the server runs without an artifact cache", "NoCache")
        try:
            removed = self.cache.delete(key)
        except ReproError as error:
            raise _bad_request(error) from error
        if not removed:
            raise _HttpError(404, f"no artifact stored under {key!r}", "NotFound")
        self.telemetry.inc("service.results_deleted")
        return 200, {"key": key, "deleted": True}

    # ------------------------------------------------------------------ #
    # Parametric templates
    # ------------------------------------------------------------------ #
    async def _post_compile_template(self, payload: dict) -> tuple[int, dict]:
        wire_program = payload.get("program")
        if wire_program is None:
            raise _HttpError(400, "payload lacks a 'program' field")
        options = self._compile_options(payload)
        if options["pipeline"] is not None:
            raise _HttpError(400, "templates support the preset levels only")
        include_template = bool(payload.get("include_template", False))
        self.telemetry.inc("service.template_requests")
        try:
            program = parametric_program_from_wire(wire_program)
        except ReproError as error:
            raise _bad_request(error) from error

        key = None
        template = None
        cache_hit = False
        if self.cache is not None:
            key = self.cache.template_key_for(
                program, target=options["target"], level=options["level"]
            )
            if options["use_cache"]:
                template = self.cache.get_template(key)
                cache_hit = template is not None
        if template is None:
            # tracing runs the full pipeline once (tens of ms): off the loop
            loop = asyncio.get_running_loop()
            with self.tracer.span(
                telemetry=self.telemetry, histogram="service.template_compile_seconds"
            ):
                template = await loop.run_in_executor(
                    None, self._compile_template_sync, program, options
                )
            if self.cache is not None and key is not None:
                self.cache.put_template(key, template)
        entry = {
            "template_key": key,
            "cache_hit": cache_hit,
            "name": template.name,
            "level": template.level,
            "num_qubits": template.num_qubits,
            "num_terms": template.num_terms,
            "num_params": template.num_params,
            "skeleton_gates": template.skeleton_gate_count,
        }
        if include_template:
            entry["template"] = template_to_wire(template)
        return 200, entry

    @staticmethod
    def _compile_template_sync(program, options: dict):
        from repro.parametric import compile_template

        return compile_template(
            program, target=options["target"], level=options["level"]
        )

    def _post_bind(self, payload: dict) -> "tuple[int, dict | _Spliced]":
        """Bind a template — inline on the event loop, no scheduler.

        A non-degenerate bind splices its angles and coefficients into the
        template's pre-encoded result
        (:class:`~repro.service.serialize.BoundResultSkeleton`); a
        degenerate one encodes the full compile's result as ``/compile``
        does.
        """
        include_result = bool(payload.get("include_result", True))
        try:
            template_key, template_payload, params = bind_request_from_wire(payload)
        except ReproError as error:
            raise _bad_request(error) from error
        if template_key is not None:
            if self.cache is None:
                raise _HttpError(
                    404,
                    "the server runs without an artifact cache; ship the "
                    "template inline instead of by key",
                    "NoCache",
                )
            try:
                template = self.cache.get_template(template_key)
            except ReproError as error:
                raise _bad_request(error) from error
            if template is None:
                raise _HttpError(
                    404, f"no template stored under {template_key!r}", "NotFound"
                )
        else:
            try:
                template = template_from_wire(template_payload)
            except ReproError as error:
                raise _bad_request(error) from error
        replay = execute_bind(template, params, self.telemetry)
        result = replay.fallback
        if result is None:
            skeleton = bound_result_skeleton(template, replay)
            seconds = time.perf_counter() - replay.start
            metrics, compiler = skeleton.metrics(seconds), skeleton.name
        else:
            metrics, compiler = result.metrics(), result.name
        entry: dict = {
            "template_key": template_key,
            "cache_hit": template_key is not None,
            "degenerate": result is not None,
            "metrics": metrics,
            "compiler": compiler,
        }
        if include_result:
            if result is None:
                return 200, _Spliced(entry, "result", skeleton.encode(replay, seconds))
            entry["result"] = result_to_wire(result)
        return 200, entry

    async def _post_compile_batch(
        self,
        payload: dict,
        deadline: float | None = None,
        trace: "TraceContext | None" = None,
    ) -> "tuple[int, _Spliced]":
        wire_programs = payload.get("programs")
        if not isinstance(wire_programs, list) or not wire_programs:
            raise _HttpError(400, "payload needs a non-empty 'programs' list")
        options = self._compile_options(payload)
        include_result = bool(payload.get("include_result", True))

        async def _one(wire_program) -> "dict | _Spliced":
            try:
                return await self._compile_entry(
                    wire_program, options, include_result, deadline, trace
                )
            except ReproError as error:
                return {"error": str(error), "type": type(error).__name__}

        # submitted in one loop tick, so the scheduler compiles the whole
        # batch as one
        entries = await asyncio.gather(*(_one(wire) for wire in wire_programs))
        return 200, _Spliced(
            {}, "results", b"[" + b",".join(map(_json_bytes, entries)) + b"]"
        )


# ---------------------------------------------------------------------- #
# In-process server harness (tests, benchmarks, examples)
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def run_server_in_thread(server: ServiceServer, startup_timeout: float = 10.0):
    """Run ``server`` on a dedicated event-loop thread; yields it started.

    The server binds before the context body runs, so ``server.port`` is the
    real (possibly ephemeral) port.  On exit the server is closed and the
    loop thread joined.
    """
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    startup_error: list[BaseException] = []

    def _runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # noqa: BLE001 — reported to the caller
            startup_error.append(error)
            ready.set()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    thread = threading.Thread(target=_runner, name="repro-service", daemon=True)
    thread.start()
    if not ready.wait(startup_timeout):
        raise TimeoutError("service server failed to start in time")
    if startup_error:
        thread.join()
        raise startup_error[0]
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(startup_timeout)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(startup_timeout)
