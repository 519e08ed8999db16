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
(``None``) and its regions record no span — tracing at the default sample
rate is safe at open-loop load-harness rates.

:class:`SpanHandle` (opened by :meth:`Tracer.span`) is the stack's only
timed region: one clock read feeds both the region's ``Telemetry``
histogram, observed for every request, and its span, recorded for each
sampled context.  :meth:`Tracer.record` is left for spans whose timing is
derived from another measurement (queue wait, per-pass compile timings).

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
    sites never need to branch, :meth:`Tracer.span` then only times.
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


class SpanHandle:
    """The one timed region: a histogram observation and, when sampled, spans.

    Reads the clock once on entry and once on exit.  On exit the duration is
    observed into ``telemetry``'s ``histogram`` (when one is named) and one
    :class:`Span` is recorded for each sampled context, error-tagged when an
    exception escapes the block (it is re-raised).  ``contexts`` is one
    context or a sequence of them — a region shared by several traced jobs
    (one compile serving deduplicated requests) records one span per job.
    Unsampled (``None``) contexts mint no span id and record nothing.

    :attr:`context` is the child context of the first sampled span, for
    anything the region calls into; :meth:`child` picks one by position.
    After exit, :attr:`start_time` (epoch seconds, sampled regions only) and
    :attr:`duration_seconds` hold what was measured.
    """

    __slots__ = (
        "_tracer", "name", "_telemetry", "_histogram", "_spans",
        "_start", "start_time", "duration_seconds",
    )

    def __init__(self, tracer: "Tracer", contexts, name: "str | None",
                 tags: "dict | None" = None, telemetry=None,
                 histogram: "str | None" = None):
        if contexts is None or isinstance(contexts, TraceContext):
            contexts = (contexts,)
        self._tracer = tracer
        self.name = name
        self._telemetry = telemetry
        self._histogram = histogram
        # per context: [own child context, parent span id, tags, error]
        self._spans = [
            None if context is None
            else [context.child(mint_span_id()), context.span_id,
                  dict(tags) if tags else {}, None]
            for context in contexts
        ]
        self.start_time = 0.0
        self.duration_seconds = 0.0

    @property
    def context(self) -> "TraceContext | None":
        return next((span[0] for span in self._spans if span is not None), None)

    def child(self, index: int) -> "TraceContext | None":
        """The child context of the span for the ``index``-th context given."""
        span = self._spans[index]
        return None if span is None else span[0]

    def _targets(self, index: "int | None") -> list:
        spans = self._spans if index is None else [self._spans[index]]
        return [span for span in spans if span is not None]

    def tag(self, key: str, value, index: "int | None" = None) -> "SpanHandle":
        """Tag every span, or only the one for the ``index``-th context."""
        for span in self._targets(index):
            span[2][key] = value
        return self

    def set_error(self, message: str, index: "int | None" = None) -> "SpanHandle":
        for span in self._targets(index):
            span[3] = str(message)
        return self

    def __enter__(self) -> "SpanHandle":
        if any(span is not None for span in self._spans):
            self.start_time = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.duration_seconds = time.perf_counter() - self._start
        if self._histogram is not None:
            self._telemetry.observe(self._histogram, self.duration_seconds)
        escaped = None if exc is None else f"{exc_type.__name__}: {exc}"
        for child, parent_id, tags, error in self._targets(None):
            self._tracer.record(
                child.trace_id,
                self.name,
                self.start_time,
                self.duration_seconds,
                parent_id=parent_id,
                span_id=child.span_id,
                tags=tags,
                error=error or escaped,
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
    def span(self, context=None, name: "str | None" = None,
             tags: "dict | None" = None, *, telemetry=None,
             histogram: "str | None" = None) -> SpanHandle:
        """One timed region (see :class:`SpanHandle`)::

            with TRACER.span(ctx, "server.handle", telemetry=telemetry,
                             histogram="service.request_seconds") as span:
                ...

        ``context`` is a :class:`TraceContext`, ``None`` (unsampled) or a
        sequence of either; ``telemetry`` + ``histogram`` name the
        :class:`~repro.service.telemetry.Telemetry` histogram the duration
        is observed into.  Either half may be absent.
        """
        return SpanHandle(self, context, name, tags, telemetry, histogram)

    def record(self, trace_id: str, name: str, start_time: float,
               duration_seconds: float, *, parent_id: "str | None" = None,
               span_id: "str | None" = None, tags: "dict | None" = None,
               error: "str | None" = None) -> str:
        """Record a completed span whose timing is already known.

        For spans derived from other measurements — the queue wait from the
        submission stamp, the per-pass compile spans from the pass timings;
        a region timed here goes through :meth:`span`.  Returns the span id.
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
