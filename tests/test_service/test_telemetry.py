"""Telemetry histograms, with a focus on the sub-millisecond bind decades."""

import pytest

from repro.observability import TRACER
from repro.service.telemetry import (
    DEFAULT_BUCKETS,
    LatencyHistogram,
    Telemetry,
    merge_snapshots,
)


class TestBuckets:
    def test_strictly_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)

    def test_cover_microseconds_to_seconds(self):
        # the bind path reports single- to hundreds of microseconds; without
        # the sub-millisecond decades every observation lands in one bucket
        assert DEFAULT_BUCKETS[0] <= 0.000001
        assert sum(1 for bound in DEFAULT_BUCKETS if bound < 0.001) >= 6
        assert DEFAULT_BUCKETS[-1] >= 10.0


class TestMicrosecondResolution:
    def test_microsecond_observations_separate(self):
        histogram = LatencyHistogram()
        histogram.observe(0.000002)   # 2 us
        histogram.observe(0.00002)    # 20 us
        histogram.observe(0.0002)     # 200 us
        # three distinct buckets, not one blob
        assert sum(1 for count in histogram.counts if count) == 3

    def test_p50_of_microsecond_traffic_is_sub_100us(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.observe(0.00003)  # 30 us, typical small-template bind
        assert histogram.quantile(0.5) < 0.0001

    def test_snapshot_fields(self):
        histogram = LatencyHistogram()
        histogram.observe(0.00001)
        histogram.observe(0.0005)
        snap = histogram.snapshot()
        assert snap["count"] == 2
        assert snap["min_seconds"] == 0.00001
        assert snap["max_seconds"] == 0.0005
        assert snap["p50_seconds"] < snap["p99_seconds"]


class TestTelemetry:
    def test_bind_counters_and_histogram(self):
        telemetry = Telemetry()
        telemetry.inc("service.bind_requests")
        telemetry.inc("service.bind_requests")
        with TRACER.span(telemetry=telemetry, histogram="service.bind_seconds"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["service.bind_requests"] == 2
        assert snapshot["latency"]["service.bind_seconds"]["count"] == 1


def _snapshot_of(observations: "list[float]") -> dict:
    telemetry = Telemetry()
    for seconds in observations:
        telemetry.observe("service.request_seconds", seconds)
    return telemetry.snapshot()


class TestMergeSnapshots:
    def test_merged_quantiles_come_from_merged_buckets(self):
        # worker A: 100 fast requests (30 us); worker B: 100 slow (5 ms).
        # The fleet-wide p50 sits in the fast half — taking the max of the
        # per-worker p50s (the old behavior) would wrongly report ~5 ms.
        fast = _snapshot_of([0.00003] * 100)
        slow = _snapshot_of([0.005] * 100)
        merged = merge_snapshots([fast, slow])["latency"]["service.request_seconds"]
        assert merged["count"] == 200
        assert merged["p50_seconds"] <= 0.00005
        # ...while the p99 still reflects the slow tail
        assert merged["p99_seconds"] >= 0.005
        # and the merged raw buckets hold the union of observations
        assert sum(merged["buckets"]["counts"]) == 200

    def test_uneven_workers_weight_by_count(self):
        # 10 slow observations cannot drag the p50 of 990 fast ones
        fast = _snapshot_of([0.00003] * 990)
        slow = _snapshot_of([0.005] * 10)
        merged = merge_snapshots([fast, slow])["latency"]["service.request_seconds"]
        assert merged["p50_seconds"] <= 0.00005
        assert merged["p99_seconds"] <= 0.001

    def test_mismatched_bounds_are_rejected(self):
        # every producer uses DEFAULT_BUCKETS; a foreign payload is a bug
        fast = _snapshot_of([0.00003] * 100)
        other = Telemetry()
        other._histograms["service.request_seconds"] = LatencyHistogram(
            buckets=(0.1, 1.0)
        )
        other.observe("service.request_seconds", 0.005)
        with pytest.raises(ValueError, match="bucket bounds"):
            merge_snapshots([fast, other.snapshot()])

    def test_min_max_and_sum_merge_exactly(self):
        merged = merge_snapshots(
            [_snapshot_of([0.002, 0.004]), _snapshot_of([0.001, 0.008])]
        )["latency"]["service.request_seconds"]
        assert merged["min_seconds"] == 0.001
        assert merged["max_seconds"] == 0.008
        assert merged["sum_seconds"] == pytest.approx(0.015)
        assert merged["mean_seconds"] == pytest.approx(0.015 / 4)


class TestQuantile:
    def test_merge_of_one_snapshot_keeps_its_quantiles(self):
        histogram = LatencyHistogram()
        for seconds in [0.00001, 0.0005, 0.0005, 0.02]:
            histogram.observe(seconds)
        merged = merge_snapshots(
            [{"latency": {"h": histogram.snapshot()}}]
        )["latency"]["h"]
        assert merged["p50_seconds"] == histogram.quantile(0.5)
        assert merged["p99_seconds"] == histogram.quantile(0.99)
        assert merged == histogram.snapshot()

    def test_empty_histogram(self):
        assert LatencyHistogram().quantile(0.5) == 0.0
