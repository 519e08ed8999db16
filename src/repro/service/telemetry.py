"""Counters and latency histograms for the compilation service.

One :class:`Telemetry` instance rides along the whole service stack — the
scheduler and server count events and observe stage latencies, the cache
ticks hit/miss counters — and ``GET /metrics`` (plus the benchmark's
``service`` block) reads :meth:`Telemetry.snapshot`.  Latencies are not
timed here: a timed region is
:meth:`repro.observability.Tracer.span` with ``telemetry=`` and
``histogram=``, which observes the histogram and records the span (when
sampled) from one clock read.

Everything is stdlib + thread-safe: scheduler batches execute on worker
threads while the asyncio loop serves ``/metrics`` concurrently.
"""

from __future__ import annotations

import bisect
import threading
import time

#: default latency bucket upper bounds, in seconds (log-ish spacing from
#: 1 microsecond to 10 s; the trailing +inf bucket is implicit).  The
#: sub-millisecond decades exist for the parametric bind path, whose
#: latencies are single- to hundreds of microseconds — without them every
#: ``service.bind_seconds`` observation would collapse into one bucket and
#: ``/metrics`` quantiles would be meaningless for the endpoint.
DEFAULT_BUCKETS = (
    0.000001,
    0.0000025,
    0.000005,
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class LatencyHistogram:
    """A fixed-bucket latency histogram (count / sum / min / max / buckets)."""

    __slots__ = ("buckets", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for the +inf bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.counts[bisect.bisect_left(self.buckets, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def quantile(self, fraction: float) -> float:
        """Upper bucket bound below which ``fraction`` of observations fall.

        A coarse estimate (bucket resolution), good enough for dashboards;
        returns 0.0 with no observations and the max for the +inf bucket.
        """
        if self.count == 0:
            return 0.0
        target = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max
        return self.max

    def merge(self, stats: dict) -> None:
        """Add another histogram's :meth:`snapshot` (same bounds) into this one."""
        buckets = stats["buckets"]
        if list(buckets["bounds"]) != list(self.buckets):
            raise ValueError("cannot merge histograms with different bucket bounds")
        self.counts = [a + b for a, b in zip(self.counts, buckets["counts"])]
        if stats["count"]:
            self.count += stats["count"]
            self.total += stats["sum_seconds"]
            self.min = min(self.min, stats["min_seconds"])
            self.max = max(self.max, stats["max_seconds"])

    def snapshot(self) -> dict:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum_seconds": self.total,
            "mean_seconds": mean,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "p50_seconds": self.quantile(0.5),
            "p99_seconds": self.quantile(0.99),
            # raw per-bucket counts so fleet fronts can merge histograms
            # exactly and Prometheus exposition can emit real ``le`` buckets
            "buckets": {
                "bounds": list(self.buckets),
                "counts": list(self.counts),
            },
        }


class Telemetry:
    """Thread-safe named counters plus named latency histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self.started_at = time.time()

    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(seconds)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """One JSON-safe dict of every counter and histogram."""
        with self._lock:
            return {
                "uptime_seconds": time.time() - self.started_at,
                "counters": dict(sorted(self._counters.items())),
                "latency": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }


def merge_snapshots(snapshots: "list[dict]") -> dict:
    """Roll worker :meth:`Telemetry.snapshot` payloads up into one view.

    Counters sum.  Histograms merge exactly: per-bucket counts, count and
    sum add, min/max combine, and p50/p99 are recomputed from the merged
    buckets — the fleet-wide quantile at bucket resolution.  Every payload
    comes from this module over :data:`DEFAULT_BUCKETS` (fleet workers run
    the front's own interpreter and source tree), so bounds always match.
    Uptime reports the oldest worker's.
    """
    counters: dict[str, int] = {}
    histograms: dict[str, LatencyHistogram] = {}
    uptime = 0.0
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        uptime = max(uptime, float(snapshot.get("uptime_seconds", 0.0)))
        for name, value in (snapshot.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, stats in (snapshot.get("latency") or {}).items():
            histogram = histograms.get(name)
            if histogram is None:
                histogram = histograms[name] = LatencyHistogram(
                    stats["buckets"]["bounds"]
                )
            histogram.merge(stats)
    return {
        "uptime_seconds": uptime,
        "counters": dict(sorted(counters.items())),
        "latency": {
            name: histogram.snapshot()
            for name, histogram in sorted(histograms.items())
        },
    }
