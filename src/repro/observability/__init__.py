"""Observability substrate: distributed tracing + Prometheus exposition.

``repro.observability`` is the per-request story the aggregate telemetry
cannot tell: every serving layer records named spans into the process-global
:data:`TRACER` ring buffer, stitched across the fleet by ``GET /trace/<id>``,
and :func:`render_prometheus` exposes the existing ``/metrics`` payloads in
the standard text format scrapers understand.

The two meet in one place: ``TRACER.span(ctx, name, telemetry=...,
histogram=...)`` (a :class:`SpanHandle`) times a region once, observes the
``/metrics`` histogram and, when ``ctx`` is sampled, records the span with
the same duration.
"""

from repro.observability.prometheus import (
    parse_prometheus_text,
    render_prometheus,
)
from repro.observability.tracer import (
    DEFAULT_CAPACITY,
    DEFAULT_SAMPLE_RATE,
    PARENT_SPAN_HEADER,
    TRACE_FORCE_HEADER,
    TRACE_ID_HEADER,
    TRACER,
    Span,
    SpanHandle,
    TraceContext,
    Tracer,
    log_slow_request,
    merge_trace_spans,
    merge_trace_summaries,
    mint_span_id,
    mint_trace_id,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_SAMPLE_RATE",
    "PARENT_SPAN_HEADER",
    "TRACE_FORCE_HEADER",
    "TRACE_ID_HEADER",
    "TRACER",
    "Span",
    "SpanHandle",
    "TraceContext",
    "Tracer",
    "log_slow_request",
    "merge_trace_spans",
    "merge_trace_summaries",
    "mint_span_id",
    "mint_trace_id",
    "parse_prometheus_text",
    "render_prometheus",
]
