"""``table3_compile``: serial in-process ``repro.compile(level=3)`` over Table III.

Each pass compiles all 17 rows once, in an order drawn from the seed.  The
first pass is warm-up and belongs to set-up; timed passes repeat until the
time is up.  A pass's latency is the time to compile the whole table; the
capacity is compiles per second of compile time.  The calibration kernel is
timed before every compile, and each compile time is converted to the
reference speed with it (see ``calibrate``).  Every later output must be
gate-identical to the first, and the first output of every row is checked
against the naive circuit on a seeded random statevector, in two worker
processes after the timed phase.
"""

from __future__ import annotations

import json
import os
import random
import time

from calibrate import at_reference
from common import (
    BENCH_DIR,
    P99_WINDOWS,
    PAPER_CX,
    TABLE3_ROWS,
    geomean,
    median,
    report_latency,
    self_peak_rss_mb,
    slug,
)
from oracle import check_simulator, circuit_digest, program_digest, states_agree
from workers import parallel_map

#: repetitions of workload generation whose median is the set-up time
SETUP_TRIALS = 3
#: statevector verdicts by digest of (program, output), kept across runs
VERDICTS = BENCH_DIR / ".work" / "table3_verdicts.json"


def generate_rows() -> dict:
    from repro.workloads.registry import get_benchmark

    return {name: get_benchmark(name).terms() for name in TABLE3_ROWS}


def compile_pass(rows: dict, order: list[str], samples: dict, scaled: dict, outputs: dict,
                 host) -> int:
    """Compile every row once; returns how many outputs differ from the first.

    ``samples`` gets each compile's seconds and ``scaled`` the same at
    reference speed, from the kernel sample of ``host`` (a
    :class:`calibrate.HostClock`) taken just before it.
    """
    import repro

    clock = time.perf_counter
    mismatches = 0
    for name in order:
        kernel_s = host.sample()
        start = clock()
        result = repro.compile(rows[name], level=3)
        samples[name].append(clock() - start)
        scaled[name].append(at_reference(samples[name][-1], kernel_s))
        digest = circuit_digest(result)
        first = outputs.setdefault(name, (digest, result))
        if first[0] != digest:
            mismatches += 1
    return mismatches


def timed_passes(rows: dict, rng: random.Random, seconds: float, outputs: dict, host) -> dict:
    """Passes until ``seconds`` are up; a pass's latency is its compile seconds."""
    samples = {name: [] for name in rows}
    scaled = {name: [] for name in rows}
    passes: list[float] = []
    scaled_passes: list[float] = []
    failed = attempted = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        order = list(rows)
        rng.shuffle(order)
        failed += compile_pass(rows, order, samples, scaled, outputs, host)
        passes.append(sum(samples[name][-1] for name in order))
        scaled_passes.append(sum(scaled[name][-1] for name in order))
        attempted += len(order)
    return {"samples": samples, "scaled": scaled, "passes": passes,
            "scaled_passes": scaled_passes, "attempted": attempted, "failed": failed}


def verify_outputs(rows: dict, outputs: dict, seed: int) -> dict[str, bool]:
    """Statevector verdict per row, memoized by digest of (program, output).

    The naive reference and the compiled circuit plus tail evolve the same
    random state as two tasks, spread over two worker processes.  Verdicts
    persist in :data:`VERDICTS` inside the checkout, so a later run whose
    output is gate-identical to an already verified one does not simulate it
    again; any other output is simulated.
    """
    known = _load_verdicts()
    keys, tasks = [], []
    for index, name in enumerate(rows):
        digest, result = outputs[name]
        key = program_digest(rows[name]) + digest
        if key in keys or key in known:
            continue
        num_qubits = result.num_qubits
        keys.append(key)
        tasks.append((num_qubits, rows[name], seed * 1000 + index))
        tasks.append((num_qubits, result.circuit.gates + result.extracted_clifford.gates,
                      seed * 1000 + index))
    if tasks:
        # cost ~ gates x state size; a naive block is about six gates per term
        costs = [len(gates) * (6 if k % 2 == 0 else 1) << n for k, (n, gates, _) in enumerate(tasks)]
        states = parallel_map("evolve", tasks, costs)
        for k, key in enumerate(keys):
            known[key] = states_agree(states[2 * k], states[2 * k + 1])
        _store_verdicts(known)
    return {name: known[program_digest(rows[name]) + outputs[name][0]] for name in rows}


def _load_verdicts() -> dict:
    try:
        with open(VERDICTS) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _store_verdicts(verdicts: dict) -> None:
    VERDICTS.parent.mkdir(parents=True, exist_ok=True)
    partial = VERDICTS.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(verdicts))
    os.replace(partial, VERDICTS)


def _mean_ms(samples: dict) -> float:
    values = [v for row in samples.values() for v in row]
    return sum(values) / len(values) * 1000.0


def quality(outputs: dict) -> dict:
    """Per-row CNOT count and entangling depth, beside the paper's count."""
    layers = {}
    for name in TABLE3_ROWS:
        result = outputs[name][1]
        layers[f"quality.{slug(name)}.cx"] = result.cx_count()
        layers[f"quality.{slug(name)}.entangling_depth"] = result.entangling_depth()
        layers[f"quality.{slug(name)}.paper_cx"] = PAPER_CX[name]
    return layers


def run(seed: int, seconds: float, traced: bool, report) -> None:
    rng = random.Random(seed)
    setup_trials, scaled_trials = [], []
    rows = None
    for _ in range(SETUP_TRIALS):
        kernel_s = report.clock.sample()
        start = time.perf_counter()
        rows = generate_rows()
        setup_trials.append(time.perf_counter() - start)
        scaled_trials.append(at_reference(setup_trials[-1], kernel_s))
    outputs: dict = {}
    warm = {name: [] for name in rows}
    warm_scaled = {name: [] for name in rows}
    failed = compile_pass(rows, list(rows), warm, warm_scaled, outputs, report.clock)
    warm_s = sum(v for values in warm.values() for v in values)
    report.setup_s = (report.import_ref_s + median(scaled_trials)
                      + sum(v for values in warm_scaled.values() for v in values))
    report.raw["setup_s"] = report.import_s + median(setup_trials) + warm_s
    report.note(f"set-up: imports {report.import_s:.3f} s, generation "
                f"{median(setup_trials):.3f} s (median of {SETUP_TRIALS}), warm-up pass {warm_s:.3f} s")

    if traced:
        # untraced then traced passes: their difference is the tracing overhead
        from breakdown import compile_self_times, compiler_layers, format_rows
        from probes import Probe, install_compiler

        untraced = timed_passes(rows, rng, seconds * 0.4, outputs, report.clock)
        probe = Probe()
        uninstall = install_compiler(probe)
        try:
            traced_phase = timed_passes(rows, rng, seconds * 0.6, outputs, report.clock)
        finally:
            uninstall()
        phases = [untraced, traced_phase]
        snapshot = probe.snapshot()
        traced_ms = _mean_ms(traced_phase["samples"])
        untraced_ms = _mean_ms(untraced["samples"])
        report.layers.update(compiler_layers(snapshot))
        report.layers["trace.overhead_ms"] = traced_ms - untraced_ms
        report.lines += format_rows(
            f"self time per compile, traced run ({traced_phase['attempted']} compiles)",
            compile_self_times(snapshot, traced_phase["attempted"], traced_ms),
            "sum = traced mean compile")
        report.lines.append(f"  {'untraced mean compile':40s} {untraced_ms:10.4f} ms")
        report.lines.append(f"  {'tracing overhead':40s} {traced_ms - untraced_ms:10.4f} ms")
    else:
        phases = [timed_passes(rows, rng, seconds, outputs, report.clock)]

    report.peak_rss_mb = self_peak_rss_mb()
    for phase in phases:
        failed += phase["failed"]
        report.attempted += phase["attempted"]
    timed = phases[0]
    report_latency(report, [s * 1000.0 for s in timed["scaled_passes"]],
                   [s * 1000.0 for s in timed["passes"]], P99_WINDOWS)

    def rates(samples: dict) -> tuple[float, float]:
        compiles = [v for values in samples.values() for v in values]
        return (len(compiles) / sum(compiles),
                geomean(len(rows[name]) / median(values) for name, values in samples.items()))

    report.capacity_rps, report.compile_terms_per_s = rates(timed["scaled"])
    report.raw["capacity_rps"], report.raw["compile_terms_per_s"] = rates(timed["samples"])
    report.cx_count = sum(outputs[name][1].cx_count() for name in rows)
    report.entangling_depth = sum(outputs[name][1].entangling_depth() for name in rows)
    report.failed += failed

    if not check_simulator(seed):
        report.fail("in-place statevector disagrees with repro.circuits.statevector")
    verdicts = verify_outputs(rows, outputs, seed)
    for name, ok in verdicts.items():
        if not ok:
            report.fail(f"{name}: compiled circuit + tail differs from the naive circuit")
    report.failed += sum(not ok for ok in verdicts.values())
    if failed:
        report.fail(f"{failed} compiles were not gate-identical to the first pass")
    report.layers.update(quality(outputs))
    report.lines.extend(quality_table_lines(rows, outputs))


def quality_table_lines(rows: dict, outputs: dict) -> list[str]:
    lines = ["Table III, fully connected (QuCLEAR): measured vs paper",
             f"  {'row':20s} {'terms':>6s} {'cx':>6s} {'paper':>6s} {'ratio':>6s} {'depth':>6s}"]
    for name in TABLE3_ROWS:
        result = outputs[name][1]
        cx = result.cx_count()
        lines.append(
            f"  {name:20s} {len(rows[name]):6d} {cx:6d} {PAPER_CX[name]:6d} "
            f"{cx / PAPER_CX[name]:6.2f} {result.entangling_depth():6d}"
        )
    return lines
