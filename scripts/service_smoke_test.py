"""End-to-end smoke test of the compilation service, as CI runs it.

Starts ``python -m repro.service`` as a real subprocess (ephemeral port,
fresh cache dir), then checks the serving story the service PR promises:

1. ``GET /healthz`` answers;
2. compiling H2O over HTTP twice: the first response is a cold compile, the
   second a cache hit, and both deserialize to the identical circuit as a
   local ``repro.compile``;
3. 32 concurrent ``POST /compile`` requests (16 identical + 16 distinct
   programs) come back complete and uncorrupted;
4. the parametric path: ``POST /compile_template`` traces an H2O ansatz
   once, ``POST /bind`` replays it at concrete angles, and the bound result
   is identical to a local ``repro.compile`` of the same binding;
5. the server is restarted against the same cache dir and the H2O compile is
   *still* a cache hit — and a ``POST /bind`` against the pre-restart
   ``template_key`` still answers (templates survive restarts too);
6. ``GET /metrics`` reflects the traffic, and ``GET
   /metrics?format=prometheus`` passes the strict text-format parser;
7. a traced compile (``X-Repro-Trace`` headers) comes back via ``GET
   /trace/<id>`` with the full span tree — repeated against a 2-worker
   fleet front, where the stitched trace must cover the front's forward,
   the worker's handle, the scheduler queue wait, the batch compile with
   per-pass children, and the cache write, with durations consistent with
   the measured end-to-end latency; the front's Prometheus exposition must
   carry per-worker labels.

``--retries``/``--backoff`` arm the client's transparent retry layer for
every request the smoke test makes (default: 2 retries), so a transient
hiccup on a loaded CI runner does not fail the whole run.

Run with:  PYTHONPATH=src python scripts/service_smoke_test.py
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.observability import parse_prometheus_text  # noqa: E402
from repro.parametric import ParametricProgram  # noqa: E402
from repro.service.client import Client  # noqa: E402
from repro.workloads.registry import get_benchmark  # noqa: E402
from repro.workloads.qaoa import maxcut_qaoa_terms, random_graph  # noqa: E402

_LISTEN_LINE = re.compile(r"listening on http://([\d.]+):(\d+)")


class ServerProcess:
    """A ``python -m repro.service`` subprocess with a parsed port."""

    def __init__(self, cache_dir: str, extra_args: "list[str] | None" = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--port",
                "0",
                "--cache-dir",
                cache_dir,
                *(extra_args or []),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.port = self._await_port()

    def _await_port(self, timeout: float = 60.0) -> int:
        deadline = time.time() + timeout
        while time.time() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = _LISTEN_LINE.search(line)
            if match:
                return int(match.group(2))
        self.process.kill()
        raise SystemExit("server subprocess never reported a listening port")

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"[smoke] {label}: {status}", flush=True)
    if not condition:
        raise SystemExit(f"smoke test failed at: {label}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--retries", type=int, default=2,
        help="client retry budget per request (default %(default)s)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.05,
        help="base retry backoff in seconds (default %(default)s)",
    )
    args = parser.parse_args(argv)
    client_kwargs = {"retries": args.retries, "backoff": args.backoff}

    h2o = get_benchmark("H2O").terms()
    reference = repro.compile(h2o, level=3)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as cache_dir:
        server = ServerProcess(cache_dir)
        try:
            client = Client(port=server.port, **client_kwargs)
            check(client.healthz()["status"] == "ok", "healthz")

            first = client.compile(h2o)
            check(not first.cache_hit, "first H2O compile is cold")
            check(first.result.circuit == reference.circuit, "cold result matches local compile")

            second = client.compile(h2o)
            check(second.cache_hit, "second H2O compile is a cache hit")
            check(second.result.circuit == reference.circuit, "warm result identical")
            check(
                second.result.extracted_clifford == reference.extracted_clifford,
                "warm extracted tail identical",
            )

            # 32 concurrent requests: 16 identical H2O + 16 distinct QAOA
            distinct = [
                maxcut_qaoa_terms(random_graph(8, 12, seed=1000 + i)) for i in range(16)
            ]
            expected = {i: repro.compile(p, level=3).circuit for i, p in enumerate(distinct)}
            programs = [("h2o", h2o)] * 16 + list(enumerate(distinct))
            responses: list = [None] * len(programs)
            errors: list = []

            def worker(slot: int, program) -> None:
                try:
                    with Client(port=server.port, **client_kwargs) as worker_client:
                        responses[slot] = worker_client.compile(program)
                except Exception as error:  # noqa: BLE001 — recorded and reported
                    errors.append((slot, repr(error)))

            threads = [
                threading.Thread(target=worker, args=(slot, program))
                for slot, (_, program) in enumerate(programs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            check(not errors, f"32 concurrent requests, no errors {errors[:3]}")
            check(all(r is not None for r in responses), "32 concurrent responses received")
            corrupt = 0
            for slot, (tag, _) in enumerate(programs):
                want = reference.circuit if tag == "h2o" else expected[tag]
                if responses[slot].result.circuit != want:
                    corrupt += 1
            check(corrupt == 0, "no corrupted concurrent responses")

            # the parametric path: trace the ansatz once, bind in microseconds
            program = ParametricProgram.from_terms(h2o, list(range(len(h2o))))
            params = [0.1 + 0.01 * i for i in range(program.num_params)]
            bound_reference = repro.compile(program.to_sum(params), level=3)

            handle = client.compile_template(program, level=3)
            check(handle.template_key is not None, "compile_template returns a key")
            check(not handle.cache_hit, "first template compile is cold")
            again = client.compile_template(program, level=3)
            check(again.cache_hit, "second template compile is a cache hit")
            check(again.template_key == handle.template_key, "template key is stable")

            bound = client.bind(params, template_key=handle.template_key)
            check(
                bound.result.circuit == bound_reference.circuit,
                "bound result matches local compile of the binding",
            )
            check(
                bound.result.extracted_clifford == bound_reference.extracted_clifford,
                "bound extracted tail identical",
            )

            metrics = client.metrics()
            check(metrics["cache"]["hits"] >= 16, "metrics count the cache hits")
            check(
                metrics["telemetry"]["counters"]["service.http_requests"] >= 34,
                "metrics count the requests",
            )
            check(
                metrics["telemetry"]["counters"]["service.bind_requests"] >= 1,
                "metrics count the bind requests",
            )

            families = parse_prometheus_text(client.metrics_prometheus())
            check(
                families["repro_service_http_requests_total"]["type"] == "counter",
                "prometheus exposition parses strictly (single server)",
            )
            check(
                families["repro_service_request_seconds"]["type"] == "histogram",
                "prometheus exposes real latency histograms",
            )

            # trace a cold compile so the batch + cache-write spans appear too
            fresh = maxcut_qaoa_terms(random_graph(8, 12, seed=424242))
            with Client(port=server.port, trace=True, **client_kwargs) as tracing:
                started = time.perf_counter()
                tracing.compile(fresh, include_result=False)
                e2e_seconds = time.perf_counter() - started
                trace = tracing.trace()
            check(trace is not None, "traced compile is retrievable by trace id")
            names = {span["name"] for span in trace["spans"]}
            check(
                {"server.handle", "scheduler.queue_wait", "scheduler.batch",
                 "cache.read", "cache.write"} <= names,
                f"single-server trace covers the serving layers {sorted(names)}",
            )
            handle_span = next(
                span for span in trace["spans"] if span["name"] == "server.handle"
            )
            check(
                handle_span["duration_seconds"] <= e2e_seconds,
                "span durations consistent with measured e2e latency",
            )
            client.close()
        finally:
            server.stop()

        # restart against the same cache dir: artifacts AND templates survive
        server = ServerProcess(cache_dir)
        try:
            with Client(port=server.port, **client_kwargs) as client:
                after_restart = client.compile(h2o)
                check(after_restart.cache_hit, "H2O is a cache hit after server restart")
                check(
                    after_restart.result.circuit == reference.circuit,
                    "restarted hit identical",
                )
                rebound = client.bind(params, template_key=handle.template_key)
                check(
                    rebound.result.circuit == bound_reference.circuit,
                    "bind by template_key survives server restart",
                )
        finally:
            server.stop()

    # a 2-worker fleet: traced compile stitched across front + worker, and
    # the front's Prometheus exposition labeled per worker
    with tempfile.TemporaryDirectory(prefix="repro-smoke-fleet-") as cache_dir:
        front = ServerProcess(cache_dir, extra_args=["--workers", "2"])
        try:
            with Client(port=front.port, trace=True, **client_kwargs) as client:
                check(client.healthz()["status"] == "ok", "fleet healthz")
                started = time.perf_counter()
                cold = client.compile(h2o, include_result=False)
                e2e_seconds = time.perf_counter() - started
                check(not cold.cache_hit, "fleet H2O compile is cold")
                trace = client.trace()
                check(
                    trace is not None and trace.get("stitched") is True,
                    "fleet trace is stitched across processes",
                )
                names = {span["name"] for span in trace["spans"]}
                check(
                    {"fleet.forward", "server.handle", "scheduler.queue_wait",
                     "scheduler.batch", "cache.write"} <= names,
                    f"stitched trace covers front and worker {sorted(names)}",
                )
                check(
                    any(name.startswith("pass.") for name in names),
                    "stitched trace includes per-pass compile children",
                )
                forward_span = next(
                    span for span in trace["spans"] if span["name"] == "fleet.forward"
                )
                check(
                    forward_span["duration_seconds"] <= e2e_seconds,
                    "stitched span durations consistent with e2e latency",
                )

                families = parse_prometheus_text(client.metrics_prometheus())
                workers = {
                    dict(labelset).get("worker")
                    for family in families.values()
                    for labelset in family["samples"]
                }
                check(
                    {"w0", "w1", "front"} <= workers,
                    f"fleet prometheus carries per-worker labels {sorted(w for w in workers if w)}",
                )
        finally:
            front.stop()

    print("[smoke] service smoke test: PASS", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
