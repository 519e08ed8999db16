"""Prometheus text exposition for the service's JSON telemetry.

:func:`render_prometheus` turns one or more ``GET /metrics`` JSON payloads
(each with an optional label set, e.g. ``{"worker": "w0"}`` per fleet worker)
into the Prometheus text format: telemetry counters become ``counter``
families with a ``_total`` suffix, latency histograms become ``histogram``
families with cumulative ``le`` buckets rendered from the raw per-bucket
counts, and the scheduler/cache/pool stat blocks become ``gauge`` families.

:func:`parse_prometheus_text` is the strict validating parser CI and the
tests run against the rendered output: every sample must have a declared
type, no (name, labelset) may repeat, and histogram buckets must be
cumulative, monotone in ``le``, end at ``+Inf``, and agree with ``_count``.
"""

from __future__ import annotations

import math
import re

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')

#: JSON payload blocks rendered as plain gauges, keyed by metric prefix
_GAUGE_BLOCKS = ("scheduler", "cache", "pool", "tracer", "faults")


def _metric_name(raw: str) -> str:
    name = _NAME_SANITIZE.sub("_", raw)
    if not name.startswith("repro_"):
        name = "repro_" + name
    return name


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: "dict[str, str]") -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return "{" + body + "}"


class _Family:
    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        # counter/gauge: list of (labels, value)
        # histogram: list of (labels, bounds, counts, sum, count)
        self.samples: list = []


def _numeric(value) -> "float | None":
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def render_prometheus(sources: "list[tuple[dict, dict]]") -> str:
    """Render ``[(metrics_payload, labels), ...]`` to exposition text."""
    families: "dict[str, _Family]" = {}

    def family(name: str, kind: str) -> _Family:
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, kind)
        return existing

    for payload, labels in sources:
        if not isinstance(payload, dict):
            continue
        labels = {str(k): str(v) for k, v in (labels or {}).items()}
        telemetry = payload.get("telemetry") or {}
        uptime = telemetry.get("uptime_seconds")
        if uptime is not None:
            family("repro_uptime_seconds", "gauge").samples.append(
                (labels, float(uptime))
            )
        for raw, value in (telemetry.get("counters") or {}).items():
            name = _metric_name(raw)
            if not name.endswith("_total"):
                name += "_total"
            family(name, "counter").samples.append((labels, float(value)))
        for raw, stats in (telemetry.get("latency") or {}).items():
            family(_metric_name(raw), "histogram").samples.append((
                labels,
                [float(b) for b in stats["buckets"]["bounds"]],
                [int(c) for c in stats["buckets"]["counts"]],
                float(stats["sum_seconds"]),
                int(stats["count"]),
            ))
        for block in _GAUGE_BLOCKS:
            stats = payload.get(block)
            if not isinstance(stats, dict):
                continue
            for key, value in stats.items():
                number = _numeric(value)
                if number is None:
                    continue
                name = _metric_name(f"{block}_{key}")
                family(name, "gauge").samples.append((labels, number))

    lines: "list[str]" = []
    for name in sorted(families):
        fam = families[name]
        lines.append(f"# HELP {name} repro service metric")
        lines.append(f"# TYPE {name} {fam.kind}")
        if fam.kind == "histogram":
            for labels, bounds, counts, total, count in fam.samples:
                cumulative = 0
                for bound, bucket_count in zip(bounds, counts):
                    cumulative += bucket_count
                    le_labels = dict(labels)
                    le_labels["le"] = _format_value(bound)
                    lines.append(
                        f"{name}_bucket{_format_labels(le_labels)} {cumulative}"
                    )
                cumulative += sum(counts[len(bounds):])
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} {cumulative}"
                )
                lines.append(f"{name}_sum{_format_labels(labels)} {repr(total)}")
                lines.append(f"{name}_count{_format_labels(labels)} {count}")
        else:
            for labels, value in fam.samples:
                lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def _parse_number(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    return float(token)


def parse_prometheus_text(text: str) -> "dict[str, dict]":
    """Strictly parse exposition text; raise ``ValueError`` on any violation.

    Returns ``{family_name: {"type": ..., "samples": {labelset: value}}}``
    where ``labelset`` is a sorted tuple of ``(label, value)`` pairs and
    histogram samples keep their ``le`` label.
    """
    types: "dict[str, str]" = {}
    samples: "dict[str, dict[tuple, float]]" = {}

    def base_family(name: str) -> "str | None":
        """Resolve a sample name to its declared family, if any."""
        if name in types:
            return name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                candidate = name[: -len(suffix)]
                if types.get(candidate) == "histogram":
                    return candidate
        return None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            if name in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample line: {line!r}")
        name, label_body, value_token = match.groups()
        family = base_family(name)
        if family is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no declared TYPE")
        labels = dict(_LABEL_PAIR.findall(label_body or ""))
        if label_body and not labels and label_body.strip():
            raise ValueError(f"line {lineno}: malformed labels: {label_body!r}")
        key = tuple(sorted(labels.items()))
        family_samples = samples.setdefault(name, {})
        if key in family_samples:
            raise ValueError(
                f"line {lineno}: duplicate sample {name!r} with labels {labels!r}"
            )
        family_samples[key] = _parse_number(value_token)

    # histogram shape checks: cumulative monotone buckets ending at +Inf == count
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(family + "_bucket", {})
        if not buckets and family + "_count" not in samples:
            continue  # declared but never sampled — fine
        grouped: "dict[tuple, list[tuple[float, float]]]" = {}
        for key, value in buckets.items():
            labels = dict(key)
            if "le" not in labels:
                raise ValueError(f"{family}_bucket sample missing 'le' label")
            le = _parse_number(labels.pop("le"))
            grouped.setdefault(tuple(sorted(labels.items())), []).append((le, value))
        counts = samples.get(family + "_count", {})
        sums = samples.get(family + "_sum", {})
        for group_key, pairs in grouped.items():
            pairs.sort(key=lambda p: p[0])
            les = [p[0] for p in pairs]
            values = [p[1] for p in pairs]
            if les[-1] != math.inf:
                raise ValueError(f"{family}: bucket series missing le=\"+Inf\"")
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError(f"{family}: bucket counts not cumulative/monotone")
            if group_key not in counts:
                raise ValueError(f"{family}: histogram missing _count sample")
            if group_key not in sums:
                raise ValueError(f"{family}: histogram missing _sum sample")
            if values[-1] != counts[group_key]:
                raise ValueError(
                    f"{family}: le=\"+Inf\" bucket ({values[-1]}) != _count "
                    f"({counts[group_key]})"
                )

    families: "dict[str, dict]" = {}
    for family, kind in types.items():
        family_payload = {"type": kind, "samples": dict(samples.get(family, {}))}
        if kind == "histogram":
            for suffix in ("_bucket", "_sum", "_count"):
                family_payload[suffix.lstrip("_")] = dict(
                    samples.get(family + suffix, {})
                )
        families[family] = family_payload
    return families
