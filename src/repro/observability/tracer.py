"""Span-based distributed tracing for the serving stack.

One process-global :data:`TRACER` (mirroring ``repro.service.faults.REGISTRY``)
collects completed :class:`Span` records into a bounded ring buffer.  Every
serving layer — client, fleet front, server, scheduler, compile pool, cache —
opens named spans against a :class:`TraceContext` that rides the HTTP headers:

``X-Repro-Trace-Id``
    the 32-hex trace id; minted by whoever sees the request first.
``X-Repro-Trace``
    head-sampling override: ``1`` forces the trace on, ``0`` forces it off.
``X-Repro-Parent-Span``
    the caller's span id, so a worker's ``server.handle`` span stitches under
    the front's per-attempt forward span.

Sampling is decided once, at the head: an explicit trace id (or ``X-Repro-Trace:
1``) is always sampled; untraced requests are sampled at the server's
``--trace-sample`` probability.  An unsampled request carries *no* context
(``None``) and every tracing call site degrades to a no-op — tracing at the
default sample rate is safe at open-loop load-harness rates.

Spans are recorded on completion only (there is no "active span" registry), so
the ring buffer is the single source of truth for ``GET /trace/<id>`` and
``GET /traces``.
"""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field

#: request headers (lower-cased as the server parses them)
TRACE_ID_HEADER = "x-repro-trace-id"
TRACE_FORCE_HEADER = "x-repro-trace"
PARENT_SPAN_HEADER = "x-repro-parent-span"

#: default probability that an untraced request is head-sampled
DEFAULT_SAMPLE_RATE = 0.01
#: default ring-buffer capacity, in completed spans
DEFAULT_CAPACITY = 4096

_VALID_ID = re.compile(r"^[0-9a-fA-F]{8,64}$")


def mint_trace_id() -> str:
    return uuid.uuid4().hex


def mint_span_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """A sampled trace: the id plus the span the next child hangs under.

    ``None`` (not a TraceContext) is the unsampled state everywhere — call
    sites never need to branch, :meth:`Tracer.span` returns a no-op handle.
    """

    trace_id: str
    span_id: "str | None" = None

    def child(self, span_id: str) -> "TraceContext":
        return TraceContext(self.trace_id, span_id)


@dataclass
class Span:
    """One completed, named span of a trace."""

    trace_id: str
    span_id: str
    parent_id: "str | None"
    name: str
    start_time: float  # epoch seconds
    duration_seconds: float
    tags: dict = field(default_factory=dict)
    error: "str | None" = None

    def to_dict(self) -> dict:
        payload = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration_seconds": self.duration_seconds,
        }
        if self.tags:
            payload["tags"] = dict(self.tags)
        if self.error is not None:
            payload["error"] = self.error
        return payload


class _NullSpanHandle:
    """No-op stand-in returned for unsampled requests."""

    __slots__ = ()
    context: "TraceContext | None" = None

    def tag(self, key: str, value) -> "_NullSpanHandle":
        return self

    def set_error(self, message: str) -> "_NullSpanHandle":
        return self

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_HANDLE = _NullSpanHandle()


class SpanHandle:
    """Context manager that records one :class:`Span` on exit.

    An exception escaping the block tags the span with ``error`` (and is
    re-raised); :attr:`context` is the child context for anything this span
    calls into.
    """

    __slots__ = (
        "_tracer", "trace_id", "span_id", "parent_id", "name",
        "_tags", "_error", "_start_wall", "_start_perf",
    )

    def __init__(self, tracer: "Tracer", context: TraceContext, name: str,
                 tags: "dict | None" = None):
        self._tracer = tracer
        self.trace_id = context.trace_id
        self.parent_id = context.span_id
        self.span_id = mint_span_id()
        self.name = name
        self._tags = dict(tags) if tags else {}
        self._error: "str | None" = None
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def tag(self, key: str, value) -> "SpanHandle":
        self._tags[key] = value
        return self

    def set_error(self, message: str) -> "SpanHandle":
        self._error = str(message)
        return self

    def __enter__(self) -> "SpanHandle":
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None and self._error is None:
            self._error = f"{exc_type.__name__}: {exc}"
        self._tracer.record(
            self.trace_id,
            self.name,
            self._start_wall,
            time.perf_counter() - self._start_perf,
            parent_id=self.parent_id,
            span_id=self.span_id,
            tags=self._tags,
            error=self._error,
        )
        return None  # never suppress


class Tracer:
    """A thread-safe bounded ring buffer of completed spans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._lock = threading.Lock()
        self._spans: "deque[Span]" = deque(maxlen=int(capacity))
        self._rng = random.Random()
        self.spans_recorded = 0
        self.spans_dropped = 0

    @property
    def capacity(self) -> int:
        return self._spans.maxlen or 0

    def resize(self, capacity: int) -> None:
        """Replace the ring with a new capacity, keeping the newest spans."""
        with self._lock:
            self._spans = deque(self._spans, maxlen=max(1, int(capacity)))

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.spans_recorded = 0
            self.spans_dropped = 0

    # ------------------------------------------------------------------ #
    # head sampling
    # ------------------------------------------------------------------ #
    def sample_request(self, headers: "dict[str, str]",
                       sample_rate: float = DEFAULT_SAMPLE_RATE,
                       ) -> "TraceContext | None":
        """Decide, once, whether this request is traced.

        ``headers`` is the lower-cased header dict the HTTP layers parse.
        An explicit (well-formed) trace id or ``X-Repro-Trace: 1`` always
        samples; ``X-Repro-Trace: 0`` never does; otherwise the coin flip.
        """
        force = (headers.get(TRACE_FORCE_HEADER) or "").strip()
        if force == "0":
            return None
        trace_id = (headers.get(TRACE_ID_HEADER) or "").strip()
        if trace_id and _VALID_ID.match(trace_id):
            parent = (headers.get(PARENT_SPAN_HEADER) or "").strip()
            if not _VALID_ID.match(parent):
                parent = ""
            return TraceContext(trace_id.lower(), parent.lower() or None)
        if force == "1":
            return TraceContext(mint_trace_id())
        if sample_rate > 0.0 and self._rng.random() < sample_rate:
            return TraceContext(mint_trace_id())
        return None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def span(self, context: "TraceContext | None", name: str,
             tags: "dict | None" = None) -> "SpanHandle | _NullSpanHandle":
        """``with TRACER.span(ctx, "server.handle") as span: ...``"""
        if context is None:
            return _NULL_HANDLE
        return SpanHandle(self, context, name, tags)

    def record(self, trace_id: str, name: str, start_time: float,
               duration_seconds: float, *, parent_id: "str | None" = None,
               span_id: "str | None" = None, tags: "dict | None" = None,
               error: "str | None" = None) -> str:
        """Record a completed span directly (timings measured by the caller).

        Returns the span id so callers can hang children under it — e.g. the
        per-pass compile spans under ``scheduler.batch``.
        """
        span = Span(
            trace_id=trace_id,
            span_id=span_id or mint_span_id(),
            parent_id=parent_id,
            name=name,
            start_time=float(start_time),
            duration_seconds=max(0.0, float(duration_seconds)),
            tags=dict(tags) if tags else {},
            error=error,
        )
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.spans_dropped += 1
            self._spans.append(span)
            self.spans_recorded += 1
        return span.span_id

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def trace(self, trace_id: str) -> "list[dict]":
        """Every buffered span of one trace, oldest first."""
        trace_id = (trace_id or "").strip().lower()
        with self._lock:
            spans = [s for s in self._spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start_time, s.name))
        return [s.to_dict() for s in spans]

    def find(self, name: str, limit: "int | None" = None) -> "list[dict]":
        """Buffered spans by name, newest first (for the load harness)."""
        with self._lock:
            spans = [s for s in self._spans if s.name == name]
        spans.reverse()
        if limit is not None:
            spans = spans[: max(0, int(limit))]
        return [s.to_dict() for s in spans]

    def traces(self, limit: int = 20) -> "list[dict]":
        """Per-trace summaries over the ring buffer, newest first."""
        with self._lock:
            spans = list(self._spans)
        grouped: "dict[str, list[Span]]" = {}
        for span in spans:
            grouped.setdefault(span.trace_id, []).append(span)
        summaries = []
        for trace_id, members in grouped.items():
            start = min(s.start_time for s in members)
            end = max(s.start_time + s.duration_seconds for s in members)
            roots = [s for s in members if s.parent_id is None]
            root = min(roots or members, key=lambda s: s.start_time)
            summaries.append({
                "trace_id": trace_id,
                "root": root.name,
                "start_time": start,
                "duration_seconds": max(0.0, end - start),
                "spans": len(members),
                "errors": sum(1 for s in members if s.error is not None),
            })
        summaries.sort(key=lambda t: t["start_time"], reverse=True)
        return summaries[: max(0, int(limit))]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "buffered_spans": len(self._spans),
                "spans_recorded": self.spans_recorded,
                "spans_dropped": self.spans_dropped,
            }


def merge_trace_spans(span_lists: "list[list[dict]]") -> "list[dict]":
    """Stitch per-process span lists for one trace: dedupe by span id, sort.

    The fleet front merges its own buffered spans with each worker's
    ``GET /trace/<id>`` payload; a worker sharing the front's process (as
    in-process tests do) reports the same spans twice, hence the dedupe.
    """
    seen: "set[str]" = set()
    merged: "list[dict]" = []
    for spans in span_lists:
        for span in spans or []:
            span_id = span.get("span_id")
            if span_id in seen:
                continue
            seen.add(span_id)
            merged.append(span)
    merged.sort(key=lambda s: (s.get("start_time", 0.0), s.get("name", "")))
    return merged


def merge_trace_summaries(summary_lists: "list[list[dict]]",
                          limit: int = 20) -> "list[dict]":
    """Combine per-process :meth:`Tracer.traces` summaries fleet-wide.

    A trace spanning the front and a worker appears in both summary lists;
    the merged entry covers the union window and sums span/error counts.
    """
    merged: "dict[str, dict]" = {}
    for summaries in summary_lists:
        for summary in summaries or []:
            trace_id = summary.get("trace_id")
            if not trace_id:
                continue
            start = float(summary.get("start_time", 0.0))
            end = start + float(summary.get("duration_seconds", 0.0))
            existing = merged.get(trace_id)
            if existing is None:
                merged[trace_id] = {
                    "trace_id": trace_id,
                    "root": summary.get("root"),
                    "start_time": start,
                    "_end": end,
                    "spans": int(summary.get("spans", 0)),
                    "errors": int(summary.get("errors", 0)),
                }
                continue
            if start < existing["start_time"]:
                existing["start_time"] = start
                existing["root"] = summary.get("root")
            existing["_end"] = max(existing["_end"], end)
            existing["spans"] += int(summary.get("spans", 0))
            existing["errors"] += int(summary.get("errors", 0))
    combined = []
    for entry in merged.values():
        end = entry.pop("_end")
        entry["duration_seconds"] = max(0.0, end - entry["start_time"])
        combined.append(entry)
    combined.sort(key=lambda t: t["start_time"], reverse=True)
    return combined[: max(0, int(limit))]


def log_slow_request(
    telemetry,
    counter: str,
    source: "str | None",
    tracer: Tracer,
    method: str,
    path: str,
    status: int,
    duration_ms: float,
    threshold_ms: float,
    trace_ctx: "TraceContext | None",
) -> None:
    """Count one over-threshold request and log it as a JSON line on stderr.

    ``counter`` names the telemetry counter to bump and ``source``, when
    given, tags the line with the layer that served it; a sampled request's
    line also carries the durations of the spans its trace recorded in this
    process.
    """
    telemetry.inc(counter)
    record: dict = {"event": "slow_request"}
    if source is not None:
        record["source"] = source
    record.update(
        method=method,
        path=path,
        status=status,
        duration_ms=round(duration_ms, 3),
        threshold_ms=threshold_ms,
        trace_id=trace_ctx.trace_id if trace_ctx is not None else None,
    )
    if trace_ctx is not None:
        record["spans"] = [
            {
                "name": span["name"],
                "duration_ms": round(span["duration_seconds"] * 1000.0, 3),
            }
            for span in tracer.trace(trace_ctx.trace_id)
        ]
    print(json.dumps(record, separators=(",", ":")), file=sys.stderr, flush=True)


#: the process-global tracer every serving layer records into
TRACER = Tracer()
