"""Distributed tracing + Prometheus exposition across the serving stack.

Unit coverage of the tracer (sampling, ring buffer, stitching helpers) and
the Prometheus renderer/parser, then end-to-end: a traced compile through a
single in-thread server and through a 2-worker fleet must come back as one
stitched trace whose span durations are consistent with the measured
end-to-end latency — including the chaos case where the request only
survives via a retry and the failed attempt's span stays in the trace.
"""

import http.client
import json
import time

import pytest

from repro.observability import (
    TRACER,
    TraceContext,
    Tracer,
    merge_trace_spans,
    merge_trace_summaries,
    parse_prometheus_text,
    render_prometheus,
)
from repro.service import faults
from repro.service.cache import ArtifactCache
from repro.service.client import Client
from repro.service.fleet import FleetFront
from repro.service.server import ServiceServer, run_server_in_thread
from repro.service.telemetry import Telemetry
from repro.workloads.registry import get_benchmark


@pytest.fixture(autouse=True)
def clean_tracer_and_faults():
    """The tracer and fault registry are process-global; never leak spans."""
    TRACER.clear()
    faults.REGISTRY.clear()
    yield
    TRACER.clear()
    faults.REGISTRY.clear()


# ---------------------------------------------------------------------- #
# Head sampling
# ---------------------------------------------------------------------- #
class TestSampling:
    def test_explicit_trace_id_always_samples(self):
        tracer = Tracer()
        ctx = tracer.sample_request({"x-repro-trace-id": "AB" * 16}, 0.0)
        assert ctx is not None
        assert ctx.trace_id == "ab" * 16  # normalized to lower case
        assert ctx.span_id is None

    def test_parent_span_header_rides_along(self):
        tracer = Tracer()
        headers = {
            "x-repro-trace-id": "cd" * 16,
            "x-repro-parent-span": "0123456789abcdef",
        }
        ctx = tracer.sample_request(headers, 0.0)
        assert ctx.span_id == "0123456789abcdef"

    def test_force_off_beats_explicit_id(self):
        tracer = Tracer()
        headers = {"x-repro-trace-id": "ab" * 16, "x-repro-trace": "0"}
        assert tracer.sample_request(headers, 1.0) is None

    def test_force_on_mints_an_id(self):
        tracer = Tracer()
        ctx = tracer.sample_request({"x-repro-trace": "1"}, 0.0)
        assert ctx is not None and len(ctx.trace_id) == 32

    def test_malformed_id_is_ignored(self):
        tracer = Tracer()
        assert tracer.sample_request({"x-repro-trace-id": "not-hex!"}, 0.0) is None

    def test_sample_rate_extremes(self):
        tracer = Tracer()
        assert all(tracer.sample_request({}, 0.0) is None for _ in range(50))
        assert all(tracer.sample_request({}, 1.0) is not None for _ in range(50))


# ---------------------------------------------------------------------- #
# Ring buffer + span handles
# ---------------------------------------------------------------------- #
class TestTracerRing:
    def test_record_and_query(self):
        tracer = Tracer()
        root = tracer.record("a" * 32, "root", 100.0, 0.5)
        tracer.record("a" * 32, "child", 100.1, 0.2, parent_id=root)
        spans = tracer.trace("A" * 32)  # id lookup is case-insensitive
        assert [s["name"] for s in spans] == ["root", "child"]
        assert spans[1]["parent_id"] == root

    def test_ring_drops_oldest_at_capacity(self):
        tracer = Tracer(capacity=4)
        for index in range(6):
            tracer.record("b" * 32, f"span{index}", float(index), 0.01)
        assert tracer.snapshot()["buffered_spans"] == 4
        assert tracer.spans_dropped == 2
        names = [s["name"] for s in tracer.trace("b" * 32)]
        assert names == ["span2", "span3", "span4", "span5"]

    def test_resize_keeps_newest(self):
        tracer = Tracer(capacity=8)
        for index in range(8):
            tracer.record("c" * 32, f"span{index}", float(index), 0.01)
        tracer.resize(2)
        assert tracer.capacity == 2
        assert [s["name"] for s in tracer.trace("c" * 32)] == ["span6", "span7"]

    def test_span_handle_tags_escaping_exception(self):
        tracer = Tracer()
        ctx = TraceContext("d" * 32)
        with pytest.raises(RuntimeError):
            with tracer.span(ctx, "boom"):
                raise RuntimeError("kaput")
        (span,) = tracer.trace("d" * 32)
        assert span["error"] == "RuntimeError: kaput"

    def test_null_handle_for_unsampled(self):
        tracer = Tracer()
        with tracer.span(None, "ignored") as handle:
            handle.tag("key", "value").set_error("nope")
        assert handle.context is None
        assert tracer.snapshot()["spans_recorded"] == 0

    def test_region_observes_and_tags_an_escaping_exception(self):
        tracer, telemetry = Tracer(), Telemetry()
        with pytest.raises(RuntimeError):
            with tracer.span(TraceContext("d" * 32), "boom", telemetry=telemetry,
                             histogram="service.boom_seconds"):
                raise RuntimeError("kaput")
        (span,) = tracer.trace("d" * 32)
        histogram = telemetry.snapshot()["latency"]["service.boom_seconds"]
        assert span["error"] == "RuntimeError: kaput"
        assert histogram["count"] == 1
        assert histogram["sum_seconds"] == span["duration_seconds"]

    def test_unsampled_region_observes_without_a_span(self):
        tracer, telemetry = Tracer(), Telemetry()
        with tracer.span(None, "quiet", telemetry=telemetry, histogram="h") as handle:
            pass
        assert handle.context is None
        assert telemetry.snapshot()["latency"]["h"]["count"] == 1
        assert tracer.snapshot()["spans_recorded"] == 0

    def test_region_fans_out_over_sampled_contexts(self):
        tracer, telemetry = Tracer(), Telemetry()
        first, second = TraceContext("a" * 32, "1" * 16), TraceContext("b" * 32)
        with tracer.span([first, None, second], "shared", tags={"k": 0},
                         telemetry=telemetry, histogram="h") as handle:
            handle.tag("k", 2, index=2)
            handle.set_error("only the first", index=0)
        assert handle.child(1) is None
        assert handle.context == handle.child(0)
        (one,) = tracer.trace("a" * 32)
        (two,) = tracer.trace("b" * 32)
        assert one["parent_id"] == "1" * 16 and two["parent_id"] is None
        assert one["span_id"] == handle.child(0).span_id != two["span_id"]
        assert one["tags"] == {"k": 0} and two["tags"] == {"k": 2}
        assert one["error"] == "only the first" and "error" not in two
        assert one["duration_seconds"] == two["duration_seconds"]
        assert telemetry.snapshot()["latency"]["h"]["count"] == 1

    def test_traces_summaries(self):
        tracer = Tracer()
        root = tracer.record("e" * 32, "server.handle", 10.0, 1.0)
        tracer.record("e" * 32, "scheduler.batch", 10.2, 0.5,
                      parent_id=root, error="boom")
        tracer.record("f" * 32, "server.handle", 20.0, 0.1)
        newest, oldest = tracer.traces()
        assert newest["trace_id"] == "f" * 32
        assert oldest["spans"] == 2 and oldest["errors"] == 1
        assert oldest["root"] == "server.handle"
        assert oldest["duration_seconds"] == pytest.approx(1.0)


class TestStitching:
    def test_merge_trace_spans_dedupes_by_span_id(self):
        shared = {"trace_id": "a" * 32, "span_id": "s1", "parent_id": None,
                  "name": "server.handle", "start_time": 2.0,
                  "duration_seconds": 0.1}
        other = dict(shared, span_id="s2", name="fleet.forward", start_time=1.0)
        merged = merge_trace_spans([[shared, other], [shared]])
        assert [s["span_id"] for s in merged] == ["s2", "s1"]  # time-sorted

    def test_merge_trace_summaries_unions_windows(self):
        front = [{"trace_id": "a" * 32, "root": "fleet.forward",
                  "start_time": 1.0, "duration_seconds": 0.5,
                  "spans": 2, "errors": 0}]
        worker = [{"trace_id": "a" * 32, "root": "server.handle",
                   "start_time": 1.1, "duration_seconds": 1.0,
                   "spans": 3, "errors": 1}]
        (merged,) = merge_trace_summaries([front, worker])
        assert merged["root"] == "fleet.forward"  # earliest start wins
        assert merged["spans"] == 5 and merged["errors"] == 1
        # union window: starts at 1.0, ends at 1.1 + 1.0
        assert merged["duration_seconds"] == pytest.approx(1.1)


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #
def _sample_metrics() -> dict:
    telemetry = Telemetry()
    telemetry.inc("service.http_requests", 7)
    telemetry.observe("service.request_seconds", 0.002)
    telemetry.observe("service.request_seconds", 0.3)
    return {"telemetry": telemetry.snapshot(), "cache": {"entries": 3, "hits": 9}}


class TestPrometheusRender:
    def test_round_trips_through_strict_parser(self):
        text = render_prometheus([(_sample_metrics(), {})])
        families = parse_prometheus_text(text)
        counter = families["repro_service_http_requests_total"]
        assert counter["type"] == "counter"
        assert counter["samples"][()] == 7.0
        histogram = families["repro_service_request_seconds"]
        assert histogram["type"] == "histogram"
        assert histogram["count"][()] == 2.0
        assert families["repro_cache_entries"]["type"] == "gauge"

    def test_per_worker_labels_keep_samples_distinct(self):
        text = render_prometheus([
            (_sample_metrics(), {"worker": "w0"}),
            (_sample_metrics(), {"worker": "w1"}),
        ])
        families = parse_prometheus_text(text)
        samples = families["repro_service_http_requests_total"]["samples"]
        assert set(samples) == {(("worker", "w0"),), (("worker", "w1"),)}

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = render_prometheus([(_sample_metrics(), {})])
        values = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_service_request_seconds_bucket")
        ]
        assert values == sorted(values)
        assert values[-1] == 2.0  # +Inf bucket equals the observation count


class TestPrometheusParserStrictness:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="TYPE"):
            parse_prometheus_text("repro_orphan_total 1\n")

    def test_rejects_duplicate_samples(self):
        text = (
            "# TYPE repro_x_total counter\n"
            "repro_x_total 1\n"
            "repro_x_total 2\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_prometheus_text(text)

    def test_rejects_non_monotone_buckets(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="1"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1.0\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 1.0\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(text)


# ---------------------------------------------------------------------- #
# Single-server integration
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def traced_server(tmp_path_factory):
    server = ServiceServer(
        cache=ArtifactCache(str(tmp_path_factory.mktemp("trace-cache"))),
        trace_sample=0.0,  # only explicitly traced requests sample
    )
    with run_server_in_thread(server):
        yield server


class TestServerTracing:
    def test_traced_compile_yields_full_span_tree(self, traced_server):
        terms = get_benchmark("H2O").terms()
        with Client(port=traced_server.port, trace=True) as client:
            started = time.perf_counter()
            client.compile(terms, include_result=False, use_cache=True)
            e2e_seconds = time.perf_counter() - started
            trace = client.trace()
        assert trace["trace_id"] == client.last_trace_id
        by_name = {}
        for span in trace["spans"]:
            by_name.setdefault(span["name"], []).append(span)
        for expected in ("server.handle", "scheduler.queue_wait",
                         "scheduler.batch", "cache.read", "cache.write"):
            assert expected in by_name, f"missing span {expected}"
        # a cold compile records the per-pass children under the batch span
        batch = by_name["scheduler.batch"][0]
        passes = [s for name, spans in by_name.items() if name.startswith("pass.")
                  for s in spans]
        assert passes, "compile pass spans missing"
        assert all(s["parent_id"] == batch["span_id"] for s in passes)
        assert sum(s["duration_seconds"] for s in passes) <= (
            batch["duration_seconds"] + 0.005
        )
        # durations are consistent with the measured end-to-end latency
        handle = by_name["server.handle"][0]
        assert handle["duration_seconds"] <= e2e_seconds
        assert batch["duration_seconds"] <= handle["duration_seconds"] + 0.005
        assert by_name["scheduler.queue_wait"][0]["parent_id"] == handle["span_id"]

    def test_untraced_requests_record_nothing(self, traced_server):
        TRACER.clear()
        terms = get_benchmark("H2O").terms()
        with Client(port=traced_server.port) as client:
            client.compile(terms, include_result=False)
        assert TRACER.snapshot()["spans_recorded"] == 0

    def test_trace_response_header_and_404(self, traced_server):
        with Client(port=traced_server.port, trace=True) as client:
            client.healthz()
            assert client.trace("e" * 32) is None  # unknown id → 404 → None
            assert client.trace() is not None  # the healthz trace itself

    def test_traces_listing_respects_limit(self, traced_server):
        with Client(port=traced_server.port, trace=True) as client:
            for _ in range(3):
                client.healthz()
            listed = client.traces(limit=2)
        assert len(listed) == 2
        assert all(summary["root"] == "server.handle" for summary in listed)

    def test_prometheus_endpoint_parses_strictly(self, traced_server):
        with Client(port=traced_server.port) as client:
            families = parse_prometheus_text(client.metrics_prometheus())
        assert families["repro_service_http_requests_total"]["type"] == "counter"
        assert families["repro_service_request_seconds"]["type"] == "histogram"
        assert families["repro_tracer_buffered_spans"]["type"] == "gauge"

    def test_unknown_metrics_format_is_rejected(self, traced_server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", traced_server.port, timeout=30
        )
        try:
            connection.request("GET", "/metrics?format=xml")
            assert connection.getresponse().status == 400
        finally:
            connection.close()


class TestOneTimedRegion:
    """Each histogram observation and its span come from one clock read."""

    def _serve(self, tmp_path):
        server = ServiceServer(
            cache=ArtifactCache(str(tmp_path / "cache")),
            trace_sample=0.0,
        )
        return server, run_server_in_thread(server)

    def test_traced_miss_histograms_equal_span_durations(self, tmp_path):
        server, running = self._serve(tmp_path)
        terms = get_benchmark("H2O").terms()
        with running, Client(port=server.port, trace=True) as client:
            client.compile(terms, include_result=False)
            latency = server.telemetry.snapshot()["latency"]
            spans = {s["name"]: s for s in TRACER.trace(client.last_trace_id)}
        for histogram, span in (
            ("service.request_seconds", "server.handle"),
            ("service.cache_lookup_seconds", "cache.read"),
            ("service.compile_seconds", "scheduler.batch"),
            ("service.cache_store_seconds", "cache.write"),
        ):
            assert latency[histogram]["count"] == 1, histogram
            assert latency[histogram]["sum_seconds"] == spans[span]["duration_seconds"]

    def test_unsampled_request_observes_histograms_only(self, tmp_path):
        server, running = self._serve(tmp_path)
        terms = get_benchmark("H2O").terms()
        with running, Client(port=server.port) as client:
            client.compile(terms, include_result=False)
            latency = server.telemetry.snapshot()["latency"]
        assert latency["service.request_seconds"]["count"] == 1
        assert latency["service.cache_lookup_seconds"]["count"] == 1
        assert latency["service.compile_seconds"]["count"] == 1
        assert TRACER.snapshot()["spans_recorded"] == 0

    def test_deduplicated_jobs_share_one_compile_observation(self, tmp_path):
        from repro.service.scheduler import CompileJob, execute_batch

        telemetry = Telemetry()
        terms = get_benchmark("H2O").terms()
        contexts = [TraceContext(f"{index:032x}", "f" * 16) for index in range(1, 5)]
        jobs = [CompileJob(program=terms, trace=context) for context in contexts]
        completed = execute_batch(
            jobs, cache=ArtifactCache(str(tmp_path / "cache")), telemetry=telemetry
        )
        assert all(job.error is None and not job.cache_hit for job in completed)
        latency = telemetry.snapshot()["latency"]
        assert latency["service.compile_seconds"]["count"] == 1
        assert latency["service.cache_store_seconds"]["count"] == 1
        batches = TRACER.find("scheduler.batch")
        writes = TRACER.find("cache.write")
        assert len(batches) == len(writes) == len(jobs)
        assert {s["trace_id"] for s in batches} == {c.trace_id for c in contexts}
        assert len({s["span_id"] for s in batches}) == len(jobs)
        for span in batches:
            assert span["parent_id"] == "f" * 16
            assert span["tags"]["dedup_jobs"] == len(jobs)
            assert span["duration_seconds"] == latency["service.compile_seconds"]["sum_seconds"]
            passes = [s for s in TRACER.trace(span["trace_id"])
                      if s["name"].startswith("pass.")]
            assert passes and all(p["parent_id"] == span["span_id"] for p in passes)

    def test_extraction_stage_counters_reach_metrics_and_spans(self, tmp_path):
        from repro.paulis.term import PauliTerm
        from repro.service.scheduler import CompileJob, execute_batch

        telemetry = Telemetry()
        # XY three times: two rotations fold into the first
        terms = [PauliTerm.from_label(label, 0.1 * (index + 1))
                 for index, label in enumerate(["XY", "ZZ", "XY", "XY"])]
        context = TraceContext("c" * 32, "f" * 16)
        (job,) = execute_batch(
            [CompileJob(program=terms, trace=context)],
            cache=ArtifactCache(str(tmp_path / "cache")),
            telemetry=telemetry,
        )
        counters = job.result.extraction.metadata["stage_counters"]
        assert counters["rotations_merged"] == 2
        for name, value in counters.items():
            assert telemetry.counter(f"extraction.{name}") == value
        (span,) = [s for s in TRACER.trace(context.trace_id)
                   if s["name"] == "pass.CliffordExtraction"]
        assert span["tags"] == counters

    def test_extraction_stages_are_children_of_the_pass_span(self, tmp_path):
        from repro.service.scheduler import CompileJob, execute_batch

        context = TraceContext("d" * 32, "f" * 16)
        (job,) = execute_batch(
            [CompileJob(program=get_benchmark("LiH").terms(), trace=context)],
            cache=ArtifactCache(str(tmp_path / "cache")),
            telemetry=Telemetry(),
        )
        spans = TRACER.trace(context.trace_id)
        (parent,) = [s for s in spans if s["name"] == "pass.CliffordExtraction"]
        children = {s["name"]: s for s in spans if s["parent_id"] == parent["span_id"]}
        stages = ("transpose", "term_loop", "tail")
        assert set(children) == {f"extraction.{stage}" for stage in stages}
        start = parent["start_time"]
        for stage in stages:
            child = children[f"extraction.{stage}"]
            assert child["start_time"] == start
            assert child["duration_seconds"] == job.result.extraction.stage_seconds[stage]
            start += child["duration_seconds"]
        total = sum(child["duration_seconds"] for child in children.values())
        assert 0 < total <= parent["duration_seconds"]

    def test_extraction_stage_timings_reach_metrics(self, tmp_path):
        from repro.service.scheduler import CompileJob, execute_batch

        telemetry = Telemetry()
        programs = [get_benchmark(name).terms() for name in ("UCC-(2,4)", "LiH")]
        execute_batch(
            [CompileJob(program=terms) for terms in programs],
            cache=ArtifactCache(str(tmp_path / "cache")),
            telemetry=telemetry,
        )
        latency = telemetry.snapshot()["latency"]
        for stage in ("transpose", "term_loop", "tail"):
            stats = latency[f"extraction.{stage}_seconds"]
            assert stats["count"] == 2 and stats["sum_seconds"] > 0
        text = render_prometheus([({"telemetry": telemetry.snapshot()}, {})])
        families = parse_prometheus_text(text)
        assert families["repro_extraction_term_loop_seconds"]["type"] == "histogram"


class TestSlowRequestLog:
    @pytest.mark.parametrize("layer", ["server", "fleet"])
    def test_slow_request_emits_structured_line(self, tmp_path, capfd, layer):
        if layer == "server":
            server = ServiceServer(
                cache=ArtifactCache(str(tmp_path / "cache")),
                trace_sample=0.0,
                slow_request_ms=0.0001,  # everything is "slow"
            )
            counter, source = "service.slow_requests", None
        else:
            server = FleetFront(
                workers=1,
                cache_dir=str(tmp_path / "cache"),
                worker_args=["--sweep-interval", "0"],
                trace_sample=0.0,
                slow_request_ms=0.0001,
            )
            counter, source = "fleet.slow_requests", "fleet-front"
        with run_server_in_thread(server, startup_timeout=90.0):
            with Client(port=server.port, trace=True) as client:
                client.healthz()
                trace_id = client.last_trace_id
        lines = [
            json.loads(line)
            for line in capfd.readouterr().err.splitlines()
            if line.startswith("{") and '"slow_request"' in line
        ]
        record = next(r for r in lines if r["trace_id"] == trace_id)
        assert record.get("source") == source
        assert record["path"] == "/healthz"
        assert record["status"] == 200
        assert record["duration_ms"] >= 0
        assert isinstance(record["spans"], list)
        if layer == "server":
            assert any(span["name"] == "server.handle" for span in record["spans"])
        assert server.telemetry.counter(counter) >= 1


# ---------------------------------------------------------------------- #
# Fleet integration: stitching, retry survival, per-worker labels
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def traced_fleet(tmp_path_factory):
    front = FleetFront(
        workers=2,
        cache_dir=str(tmp_path_factory.mktemp("trace-fleet-cache")),
        worker_args=["--sweep-interval", "0"],
        enable_faults=True,
        breaker_cooldown=0.2,
        trace_sample=0.0,
    )
    with run_server_in_thread(front, startup_timeout=120.0):
        yield front


def _post(front, path, payload):
    connection = http.client.HTTPConnection("127.0.0.1", front.port, timeout=90)
    try:
        connection.request(
            "POST", path, json.dumps(payload).encode(),
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestFleetTracing:
    def test_stitched_trace_covers_front_and_worker(self, traced_fleet):
        terms = get_benchmark("H2O").terms()
        with Client(port=traced_fleet.port, trace=True) as client:
            started = time.perf_counter()
            client.compile(terms, include_result=False)
            e2e_seconds = time.perf_counter() - started
            trace = client.trace()
        assert trace["stitched"] is True
        names = {span["name"] for span in trace["spans"]}
        assert {"fleet.forward", "fleet.attempt", "server.handle",
                "scheduler.queue_wait", "scheduler.batch"} <= names
        spans = {span["span_id"]: span for span in trace["spans"]}
        # the worker's handle span hangs under the front's attempt span,
        # which hangs under fleet.forward — one connected tree
        handle = next(s for s in trace["spans"] if s["name"] == "server.handle")
        attempt = spans[handle["parent_id"]]
        assert attempt["name"] == "fleet.attempt"
        forward = spans[attempt["parent_id"]]
        assert forward["name"] == "fleet.forward"
        assert forward["duration_seconds"] <= e2e_seconds
        assert handle["duration_seconds"] <= attempt["duration_seconds"] + 0.005

    def test_retry_survivor_keeps_failed_attempt_span(self, traced_fleet):
        # one injected 500 per worker: the first attempt fails, the client's
        # retry (same trace id) succeeds — the trace must show both
        status, _ = _post(traced_fleet, "/fault", {
            "rules": [{"site": "server.handle", "kind": "error",
                       "probability": 1.0, "times": 1}],
        })
        assert status == 200
        terms = get_benchmark("H2O").terms()
        try:
            with Client(port=traced_fleet.port, trace=True, retries=3,
                        backoff=0.01) as client:
                client.compile(terms, include_result=False)
                assert client.retries_performed >= 1
                trace = client.trace()
        finally:
            _post(traced_fleet, "/fault", {"clear": True})
        handles = [s for s in trace["spans"] if s["name"] == "server.handle"]
        failed = [s for s in handles if s.get("error")]
        succeeded = [s for s in handles if not s.get("error")]
        assert failed, "failed attempt's span missing from the stitched trace"
        assert "FaultInjectedError" in failed[0]["error"]
        assert succeeded, "surviving attempt's span missing"
        assert len({s["trace_id"] for s in trace["spans"]}) == 1

    def test_fleet_prometheus_has_per_worker_labels(self, traced_fleet):
        with Client(port=traced_fleet.port) as client:
            families = parse_prometheus_text(client.metrics_prometheus())
        workers = {
            dict(labelset).get("worker")
            for family in families.values()
            for labelset in family["samples"]
        }
        assert {"w0", "w1", "front"} <= workers
        requests = families["repro_service_http_requests_total"]["samples"]
        assert (("worker", "w0"),) in requests and (("worker", "w1"),) in requests

    def test_fleet_traces_listing_merges_workers(self, traced_fleet):
        terms = get_benchmark("H2O").terms()
        with Client(port=traced_fleet.port, trace=True) as client:
            client.compile(terms, include_result=False)
            listed = client.traces(limit=10)
        entry = next(t for t in listed if t["trace_id"] == client.last_trace_id)
        # the front's forward spans and the worker's handle spans both count
        assert entry["spans"] >= 3
