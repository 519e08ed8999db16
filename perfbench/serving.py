"""The serving workloads: a ``python -m repro.service`` subprocess under load.

One load-generating process drives the server from at most two threads over
at most two keep-alive connections, sized for a 2-core machine.  Each run
has two closed-loop phases: one client waiting for each reply (the latency
phase, :data:`LATENCY_SHARE` of the time), then two (the capacity phase).
Every latency of a one-client phase is converted to the reference host
speed with the calibration kernel sampled just before it (see ``calibrate``).

* ``serve_hit``  — the 8 small-tier programs, warmed into the cache at
  set-up, requested with ``include_result=True``; every result is decoded
  and compared with an in-process compile.
* ``serve_miss`` — every request a small-tier program with freshly drawn
  coefficients, so each one compiles, writes an artifact and encodes once.
* ``vqe_bind``   — ``POST /bind`` on a ``UCC-(4,8)`` template with fresh
  angles, one client, as a VQE optimizer would.

Open-loop Poisson traffic was tried first: on a 2-core host whose speed
drifts, its p99 moved by 26-53% of the median between seeds, more than any
regression bound can absorb, because queueing amplifies every slowdown.
"""

from __future__ import annotations

import math
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import json
from dataclasses import dataclass, field

from common import (
    BENCH_DIR,
    SMALL_TIER,
    SRC,
    geomean,
    median,
    proc_peak_rss_mb,
    report_latency,
)
from calibrate import at_reference
from oracle import circuit_digest, same_gates

#: share of a serve_hit / serve_miss run spent in the one-client latency phase
LATENCY_SHARE = 0.75
#: client threads and keep-alive connections of the capacity phase
THREADS = 2
#: set-up repetitions whose median is ``setup_s``
SETUP_TRIALS = 3
REQUEST_TIMEOUT_S = 30.0
#: share of binds also compiled from scratch in the client loop
SAMPLED_SHARE = 0.03

_clock = time.perf_counter


# ---------------------------------------------------------------------- #
# The server process
# ---------------------------------------------------------------------- #
class ServerProcess:
    """``python -m repro.service`` (or the probed launcher) on an ephemeral port."""

    def __init__(self, work_dir: str, probe_output: str | None = None):
        self.cache_dir = os.path.join(work_dir, f"cache-{time.monotonic_ns()}")
        self.log_path = os.path.join(work_dir, "server.log")
        self.probe_output = probe_output
        flags = ["--port", "0", "--cache-dir", self.cache_dir, "--trace-sample", "0"]
        if probe_output is None:
            command = [sys.executable, "-m", "repro.service", *flags]
        else:
            command = [sys.executable, str(BENCH_DIR / "launch_server.py"), probe_output, *flags]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.log_path, "ab")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env, bufsize=0,
        )
        self.port = self._await_listening(timeout=60.0)

    def _await_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                self.stop()
                raise RuntimeError("server did not start; see " + self.log_path)
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                buffer += os.read(self.process.stdout.fileno(), 4096)
        line = buffer.split(b"\n", 1)[0].decode()
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.process.pid)

    def reset_probes(self) -> None:
        os.kill(self.process.pid, signal.SIGUSR1)

    def stop(self) -> dict | None:
        """Shut down (SIGINT, then SIGKILL); returns the probe snapshot if any."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.probe_output is None:
            return None
        with open(self.probe_output) as handle:
            return json.load(handle)


# ---------------------------------------------------------------------- #
# Load generation
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    """What one load phase measured."""

    latencies_ms: list = field(default_factory=list)
    #: ``latencies_ms`` at reference speed, from the kernel sample before each
    scaled_ms: list = field(default_factory=list)
    roundtrips_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    elapsed_s: float = 0.0
    #: ``elapsed_s`` at reference speed
    scaled_s: float = 0.0
    max_outstanding: int = 0
    capacity_rps: float = 0.0
    #: ``capacity_rps`` at reference speed
    scaled_rps: float = 0.0

    def merge(self, other: "Phase") -> None:
        self.latencies_ms += other.latencies_ms
        self.scaled_ms += other.scaled_ms
        self.roundtrips_ms += other.roundtrips_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.elapsed_s += other.elapsed_s
        self.scaled_s += other.scaled_s
        self.max_outstanding = max(self.max_outstanding, other.max_outstanding)

    def add_capacity_phase(self, closed: "Phase") -> None:
        """Count a closed-loop phase; its completion rate is the capacity."""
        self.capacity_rps = (closed.attempted - closed.failed) / closed.elapsed_s
        self.attempted += closed.attempted
        self.failed += closed.failed
        self.errors += closed.errors
        self.roundtrips_ms += closed.roundtrips_ms
        self.max_outstanding = max(self.max_outstanding, closed.max_outstanding)


def _client(port: int):
    from repro.service.client import Client

    return Client(port=port, timeout=REQUEST_TIMEOUT_S)


def closed_loop(clients: list, seconds: float, next_request, send, check, host) -> Phase:
    """Each client sends its next request when its last one returns.

    With one client, ``host`` (a :class:`calibrate.HostClock`) samples the
    kernel between requests, and each latency and each request's share of
    the elapsed time is scaled by the latest sample.  With more, a kernel
    sample would hold the interpreter lock while the other clients'
    requests are timed, so nothing is scaled here.
    """
    lock = threading.Lock()
    phase = Phase()
    start = _clock()
    deadline = start + seconds
    ends = []
    solo = len(clients) == 1

    def worker(slot: int) -> None:
        local = Phase()
        last = start
        try:
            while _clock() < deadline:
                kernel_s = host.current() if solo else None
                request = next_request(slot)
                sent = _clock()
                good = False
                try:
                    response = send(clients[slot], request)
                    done = _clock()
                    good = check(request, response)
                except Exception as error:  # noqa: BLE001 — counted as a failure
                    done = _clock()
                    local.errors.append(f"{type(error).__name__}: {error}")
                local.attempted += 1
                local.failed += not good
                local.latencies_ms.append((done - sent) * 1000.0)
                if solo:
                    local.scaled_ms.append(at_reference(local.latencies_ms[-1], kernel_s))
                    local.scaled_s += at_reference(done - last, kernel_s)
                last = done
        finally:
            with lock:
                phase.merge(local)
                ends.append(last)

    workers = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(clients))]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    phase.roundtrips_ms = list(phase.latencies_ms)
    phase.elapsed_s = max(ends) - start
    phase.max_outstanding = len(clients)
    return phase


def solo_loop(port: int, seconds: float, next_request, send, check, host) -> Phase:
    """One client on one keep-alive connection."""
    with _client(port) as client:
        return closed_loop([client], seconds, next_request, send, check, host)


def latency_then_capacity(port: int, seconds: float, next_request, send, check, host) -> Phase:
    """One client for the latency phase, then :data:`THREADS` for capacity.

    The capacity phase spreads over both vCPUs, which no kernel sample in
    this process sees at once: its rate is scaled by the run's median kernel.
    """
    phase = solo_loop(port, seconds * LATENCY_SHARE, next_request, send, check, host)
    clients = [_client(port) for _ in range(THREADS)]
    try:
        phase.add_capacity_phase(closed_loop(
            clients, seconds * (1 - LATENCY_SHARE), next_request, send, check, host))
    finally:
        for client in clients:
            client.close()
    phase.scaled_rps = phase.capacity_rps * host.factor()
    return phase


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def _small_tier():
    from repro.workloads.registry import get_benchmark

    return {name: get_benchmark(name).terms() for name in SMALL_TIER}


def balanced_picks(rng: random.Random, names: list[str], count: int) -> list[str]:
    """``count`` names in seeded order, every block of ``len(names)`` holding each once.

    The mix of cheap and expensive programs is then the same for every seed,
    so runs differ only in order and arrival times.
    """
    picks: list[str] = []
    while len(picks) < count:
        block = list(names)
        rng.shuffle(block)
        picks += block
    return picks[:count]


def timed_compile(terms):
    """An in-process level-3 compile and its wall seconds."""
    import repro

    start = _clock()
    result = repro.compile(terms, level=3)
    return result, _clock() - start


def _fresh_coefficients(terms, rng: random.Random):
    from repro.paulis.term import PauliTerm

    return [PauliTerm(term.pauli, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)) for term in terms]


class ServeHit:
    """Warm working set of the 8 small-tier programs, every result decoded."""

    name = "serve_hit"

    def __init__(self, seed: int, seconds: float):
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.rates = {"latency_clients": 1, "capacity_connections": THREADS}

    def generate(self) -> None:
        self.programs = _small_tier()
        self.names = list(self.programs)

    def warm(self, port: int) -> None:
        with _client(port) as client:
            for _ in range(2):  # the first round compiles, the second hits
                for terms in self.programs.values():
                    client.compile(terms, level=3, include_result=True)

    def prepare_oracle(self) -> None:
        """Compile the working set in-process: the expected results."""
        import repro

        self.expected = {name: repro.compile(terms, level=3) for name, terms in self.programs.items()}

    def phase(self, port: int, seconds: float, host) -> Phase:
        picks = balanced_picks(self.rng, self.names, int(400 * seconds))
        position = [0]
        lock = threading.Lock()

        def next_request(_slot):
            with lock:
                position[0] += 1
                return picks[position[0] % len(picks)]

        def send(client, name):
            return client.compile(self.programs[name], level=3)

        return latency_then_capacity(port, seconds, next_request, send, self._check, host)

    def _check(self, name: str, response) -> bool:
        return response.result is not None and same_gates(response.result, self.expected[name])

    def finish(self, report) -> None:
        # a hit compiles nothing: the compile rate a client sees is the terms
        # of the compiled programs it receives per second (the mix is balanced)
        mean_terms = sum(len(terms) for terms in self.programs.values()) / len(self.programs)
        report.compile_terms_per_s = report.capacity_rps * mean_terms
        report.raw["compile_terms_per_s"] = report.raw["capacity_rps"] * mean_terms
        report.cx_count = sum(r.cx_count() for r in self.expected.values())
        report.entangling_depth = sum(r.entangling_depth() for r in self.expected.values())


class ServeMiss:
    """Every request a small-tier program with fresh coefficients: all misses."""

    name = "serve_miss"

    def __init__(self, seed: int, seconds: float):
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.rates = {"latency_clients": 1, "capacity_connections": THREADS}

    def generate(self) -> None:
        base = _small_tier()
        self.names = list(base)
        # enough programs for 60 rps in the latency phase and 150 in the capacity phase
        count = int(self.seconds * (60 * LATENCY_SHARE + 150 * (1 - LATENCY_SHARE))) + 50
        self.requests = [
            (name, _fresh_coefficients(base[name], self.rng))
            for name in balanced_picks(self.rng, self.names, count)
        ]
        self.warmup = [(name, _fresh_coefficients(base[name], self.rng)) for name in self.names]
        self.cursor = 0
        self.sent: list = []
        #: compile seconds the server reported per program structure, as
        #: measured and at reference speed
        self.compile_s: dict[str, list[float]] = {}
        self.compile_ref_s: dict[str, list[float]] = {}

    def warm(self, port: int) -> None:
        with _client(port) as client:
            for _, terms in self.warmup:
                client.compile(terms, level=3, include_result=True)

    def prepare_oracle(self) -> None:
        pass

    def _take(self):
        if self.cursor >= len(self.requests):
            raise RuntimeError("serve_miss ran out of generated programs")
        self.cursor += 1
        return self.requests[self.cursor - 1]

    def phase(self, port: int, seconds: float, host) -> Phase:
        lock = threading.Lock()
        digests: dict[int, str] = {}
        sent = []

        def next_request(_slot):
            with lock:
                return self._take()

        def send(client, request):
            return client.compile(request[1], level=3)

        def record(request, response) -> bool:
            if response.result is None or response.cache_hit:
                return False
            with lock:
                digests[id(request)] = circuit_digest(response.result)
                sent.append(request)
                seconds = response.metrics["compile_seconds"]
                self.compile_s.setdefault(request[0], []).append(seconds)
                self.compile_ref_s.setdefault(request[0], []).append(
                    at_reference(seconds, host.last))
            return True

        phase = latency_then_capacity(port, seconds, next_request, send, record, host)
        self.sent.extend((request, digests[id(request)]) for request in sent)
        return phase

    def finish(self, report) -> None:
        """Recompile every served program in-process and compare gate-for-gate."""
        from workers import parallel_map

        import repro

        tasks = [request[1] for request, _ in self.sent]
        digests = parallel_map("recompile", tasks, [len(terms) for terms in tasks])
        mismatches = sum(served != digest for (_, served), digest in zip(self.sent, digests))
        if mismatches:
            report.fail(f"{mismatches} served results differ from an in-process compile")
        report.failed += mismatches
        # the compile rate the server measured on every miss of the run
        base = _small_tier()
        report.compile_terms_per_s = geomean(
            len(base[name]) / median(times) for name, times in self.compile_ref_s.items())
        report.raw["compile_terms_per_s"] = geomean(
            len(base[name]) / median(times) for name, times in self.compile_s.items())
        first = {}
        for (name, terms), _ in self.sent:
            first.setdefault(name, terms)
        results = [repro.compile(terms, level=3) for terms in first.values()]
        report.cx_count = sum(r.cx_count() for r in results)
        report.entangling_depth = sum(r.entangling_depth() for r in results)


class VqeBind:
    """``POST /bind`` with fresh angles on a UCC-(4,8) template, 1 client."""

    name = "vqe_bind"

    def __init__(self, seed: int, seconds: float):
        self.rng = random.Random(seed)
        self.seed = seed
        self.seconds = seconds
        self.rates = {"closed_loop_clients": 1}

    def generate(self) -> None:
        import numpy as np
        from repro.parametric import ParametricProgram
        from repro.workloads.registry import get_benchmark

        terms = get_benchmark("UCC-(4,8)").terms()
        self.ansatz = ParametricProgram.from_terms(terms, list(range(len(terms))))
        rng = np.random.default_rng(self.seed)
        self.angles = rng.uniform(
            -math.pi, math.pi, size=(int(300 * self.seconds) + 10, self.ansatz.num_params))
        self.cursor = 3  # the first rows warm the server up

    def warm(self, port: int) -> None:
        with _client(port) as client:
            self.template_key = client.compile_template(self.ansatz, level=3).template_key
            for params in self.angles[:3]:
                client.bind(params, template_key=self.template_key)

    def prepare_oracle(self) -> None:
        from repro.parametric import compile_template

        self.template = compile_template(self.ansatz, level=3)
        self.first = None
        self.compile_s: list[float] = []
        self.compile_ref_s: list[float] = []
        self.mismatches = 0

    def phase(self, port: int, seconds: float, host) -> Phase:
        rng = random.Random(self.rng.random())

        def next_request(_slot):
            self.cursor = (self.cursor + 1) % len(self.angles)
            return self.cursor

        def send(client, index):
            return client.bind(self.angles[index], template_key=self.template_key)

        def check(index, response) -> bool:
            if response.result is None:
                return False
            if self.first is None:
                self.first = response.result
            if rng.random() < SAMPLED_SHARE:
                # the optimizer's think time: spread over the run, these
                # from-scratch compiles also time the compiler
                result, seconds = timed_compile(self.ansatz.to_sum(self.angles[index]))
                self.compile_s.append(seconds)
                self.compile_ref_s.append(at_reference(seconds, host.last))
                if not same_gates(response.result, result):
                    self.mismatches += 1
                    return False
            return same_gates(response.result, self.template.bind(self.angles[index]))

        phase = solo_loop(port, seconds, next_request, send, check, host)
        phase.capacity_rps = (phase.attempted - phase.failed) / phase.elapsed_s
        phase.scaled_rps = (phase.attempted - phase.failed) / phase.scaled_s
        return phase

    def finish(self, report) -> None:
        """A seeded sample of binds also matched a from-scratch compile."""
        if self.mismatches:
            report.fail(f"{self.mismatches} binds differ from a from-scratch compile")
        if not self.compile_s:
            report.fail("no bind was sampled for the from-scratch comparison")
        report.compile_terms_per_s = self.ansatz.num_terms / median(self.compile_ref_s)
        report.raw["compile_terms_per_s"] = self.ansatz.num_terms / median(self.compile_s)
        report.cx_count = self.first.cx_count()
        report.entangling_depth = self.first.entangling_depth()


WORKLOADS = {cls.name: cls for cls in (ServeHit, ServeMiss, VqeBind)}


# ---------------------------------------------------------------------- #
def _set_up(workload, work_dir: str, probe_output: str | None = None):
    start = _clock()
    server = ServerProcess(work_dir, probe_output)
    try:
        workload.warm(server.port)
    except BaseException:
        server.stop()
        raise
    return server, _clock() - start


def _summarize(report, phase: Phase) -> None:
    # set-up is mostly the spawned server starting on either vCPU, which one
    # kernel sample before it does not see: the run's median kernel scales it
    report.setup_s = report.raw["setup_s"] / report.clock.factor()
    report_latency(report, phase.scaled_ms, phase.latencies_ms)
    report.capacity_rps = phase.scaled_rps
    report.raw["capacity_rps"] = phase.capacity_rps
    report.attempted += phase.attempted
    report.failed += phase.failed
    for error in phase.errors[:5]:
        report.fail(error)
    report.note(f"load: {phase.attempted} requests, at most {phase.max_outstanding} outstanding")


def run(name: str, seed: int, seconds: float, traced: bool, report) -> None:
    from breakdown import batch_self_times, compiler_layers, format_rows, request_path, serving_layers

    workload = WORKLOADS[name](seed, seconds)
    report.rates = workload.rates
    work_dir = os.path.join(str(BENCH_DIR), ".work", f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    server = None
    try:
        trials = []
        for trial in range(SETUP_TRIALS):
            report.clock.sample()
            start = _clock()
            workload.generate()
            generated = _clock() - start
            server, spawn_and_warm = _set_up(workload, work_dir)
            trials.append(generated + spawn_and_warm)
            if trial < SETUP_TRIALS - 1:
                server.stop()
                server = None
        report.raw["setup_s"] = report.import_s + median(trials)
        report.note(f"set-up: imports {report.import_s:.3f} s + median of {SETUP_TRIALS} "
                    f"(generate, spawn, warm) {median(trials):.3f} s")
        workload.prepare_oracle()

        if not traced:
            phase = workload.phase(server.port, seconds, report.clock)
            report.peak_rss_mb = server.peak_rss_mb()
            server.stop()
            server = None
            _summarize(report, phase)
            workload.finish(report)
            return

        # untraced phase, then the same load against the probed launcher
        untraced = workload.phase(server.port, seconds * 0.4, report.clock)
        report.peak_rss_mb = server.peak_rss_mb()
        server.stop()
        server = None
        from probes import Probe, install_client

        probe_output = os.path.join(work_dir, "probes.json")
        server, _ = _set_up(workload, work_dir, probe_output)
        client_probe = Probe()
        server.reset_probes()
        time.sleep(0.05)  # the signal is handled between the server's bytecodes
        uninstall = install_client(client_probe)
        try:
            traced_phase = workload.phase(server.port, seconds * 0.6, report.clock)
        finally:
            uninstall()
        snapshot = server.stop()
        server = None
        merged = Phase()
        merged.merge(untraced)
        merged.merge(traced_phase)
        merged.capacity_rps, merged.scaled_rps = untraced.capacity_rps, untraced.scaled_rps
        _summarize(report, merged)
        report_latency(report, untraced.scaled_ms, untraced.latencies_ms)  # untraced phase only
        workload.finish(report)

        requests = len(traced_phase.roundtrips_ms)
        roundtrip = sum(traced_phase.roundtrips_ms) / requests
        untraced_roundtrip = sum(untraced.roundtrips_ms) / len(untraced.roundtrips_ms)
        client_snapshot = client_probe.snapshot()
        report.layers.update(serving_layers(snapshot, client_snapshot, requests, roundtrip))
        report.layers.update(compiler_layers(snapshot))
        report.layers["trace.overhead_ms"] = roundtrip - untraced_roundtrip
        path = request_path(snapshot, client_snapshot, requests)
        path.append(("transport.residual", report.layers["transport.residual_ms"]))
        report.lines += format_rows(
            f"blocking path per request, traced run ({requests} requests)", path,
            "sum = traced mean round trip")
        report.lines.append(f"  {'untraced mean round trip':40s} {untraced_roundtrip:10.4f} ms")
        report.lines.append(f"  {'tracing overhead':40s} {roundtrip - untraced_roundtrip:10.4f} ms")
        report.lines += format_rows("self time per request inside the scheduler",
                                    batch_self_times(snapshot, requests))
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
