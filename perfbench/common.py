"""Shared pieces: paths, statistics, the metric catalogue and the run record."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: the eight end-to-end metrics, reported by every workload
END_TO_END = {
    "setup_s": "s",
    "compile_terms_per_s": "1/s",
    "cx_count": "count",
    "entangling_depth": "count",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "capacity_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: the paper's Table III QuCLEAR CNOT counts (fully connected device)
PAPER_CX = {
    "UCC-(2,4)": 23,
    "UCC-(2,6)": 106,
    "LiH": 74,
    "H2O": 274,
    "LABS-(n10)": 106,
    "MaxCut-(n15, r4)": 68,
    "MaxCut-(n10, e12)": 26,
    "MaxCut-(n15, e63)": 93,
    "UCC-(4,8)": 448,
    "LABS-(n15)": 385,
    "MaxCut-(n20, r4)": 88,
    "MaxCut-(n20, r8)": 129,
    "MaxCut-(n20, r12)": 172,
    "MaxCut-(n20, e117)": 146,
    "UCC-(6,12)": 2580,
    "benzene": 2470,
    "LABS-(n20)": 1052,
}

#: the 17 rows of Table III: the medium tier plus three larger programs
TABLE3_ROWS = list(PAPER_CX)

#: the registry's small tier: the serving workloads' programs
SMALL_TIER = TABLE3_ROWS[:8]


def slug(row: str) -> str:
    """``"MaxCut-(n20, r4)"`` -> ``"maxcut-n20-r4"``."""
    out = "".join(ch.lower() if ch.isalnum() else "-" for ch in row)
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-")


#: per-layer metrics: name -> (unit, better, end-to-end metric it should move)
LAYERS: dict[str, tuple[str, str, str]] = {
    "compiler.group_commuting_ms": ("ms", "lower", "compile_terms_per_s; serve_miss latency"),
    "compiler.clifford_extraction_ms": ("ms", "lower", "compile_terms_per_s; serve_miss latency"),
    "compiler.peephole_ms": ("ms", "lower", "compile_terms_per_s; serve_miss latency"),
    "compiler.commuting_blocks": ("count", "lower", "compile_terms_per_s"),
    "compiler.tail_gates": ("count", "lower", "compile_terms_per_s"),
    "extraction.basis_layer_ms": ("ms", "lower", "compile_terms_per_s"),
    "extraction.basis_layers": ("count", "lower", "compile_terms_per_s"),
    "extraction.tree_synthesis_ms": ("ms", "lower", "compile_terms_per_s"),
    "extraction.trees": ("count", "lower", "compile_terms_per_s"),
    "extraction.suffix_stream_ms": ("ms", "lower", "compile_terms_per_s"),
    "extraction.gates_streamed": ("count", "lower", "compile_terms_per_s"),
    "extraction.peephole_stream_ms": ("ms", "lower", "compile_terms_per_s"),
    "extraction.gates_appended": ("count", "lower", "compile_terms_per_s"),
    "extraction.peephole_keep_ratio": ("ratio", "lower", "cx_count"),
    "extraction.candidates_scored": ("count", "lower", "compile_terms_per_s"),
    "extraction.tableau_ms": ("ms", "lower", "compile_terms_per_s"),
    "extraction.self_ms": ("ms", "lower", "compile_terms_per_s"),
    "serialize.program_to_wire_ms": ("ms", "lower", "serve_hit latency_p50_ms, capacity_rps"),
    "serialize.program_from_wire_ms": ("ms", "lower", "serve_hit latency_p50_ms, capacity_rps"),
    "serialize.result_to_wire_ms": ("ms", "lower", "serve_hit/vqe_bind latency_p50_ms"),
    "serialize.result_from_wire_ms": ("ms", "lower", "serve_hit/vqe_bind latency_p50_ms"),
    "serialize.response_kb": ("KiB", "lower", "serve_hit/vqe_bind latency_p50_ms"),
    "cache.key_for_ms": ("ms", "lower", "serve_hit latency"),
    "cache.get_ms": ("ms", "lower", "serve_hit latency"),
    "cache.put_ms": ("ms", "lower", "serve_miss latency"),
    "cache.hit_ratio": ("ratio", "higher", "serve_hit latency"),
    "scheduler.queue_wait_ms": ("ms", "lower", "serve_hit latency_p50_ms"),
    "scheduler.execute_batch_ms": ("ms", "lower", "serve_miss latency_p99_ms"),
    "scheduler.batch_size": ("count", "higher", "serve_miss latency_p99_ms"),
    "scheduler.compile_many_ms": ("ms", "lower", "serve_miss latency_p99_ms"),
    "scheduler.execute_bind_ms": ("ms", "lower", "vqe_bind latency"),
    "parametric.bind_ms": ("ms", "lower", "vqe_bind latency"),
    "parametric.fallback_binds": ("count", "lower", "vqe_bind latency"),
    "server.read_request_ms": ("ms", "lower", "serve latency"),
    "server.respond_ms": ("ms", "lower", "serve latency"),
    "client.roundtrip_ms": ("ms", "lower", "serve latency"),
    "transport.residual_ms": ("ms", "lower", "serve latency"),
    "trace.overhead_ms": ("ms", "lower", "harness health"),
}
for _row in TABLE3_ROWS:
    LAYERS[f"quality.{slug(_row)}.cx"] = ("count", "lower", "cx_count")
    LAYERS[f"quality.{slug(_row)}.entangling_depth"] = ("count", "lower", "entangling_depth")
    LAYERS[f"quality.{slug(_row)}.paper_cx"] = ("count", "lower", "reference")


# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: contiguous windows of a run whose per-window p99s are reduced to a median
P99_WINDOWS = 4


def tail(latencies_ms: list, windows: int) -> float:
    """p99 over all samples, or the median of the p99s of ``windows`` consecutive windows."""
    size = max(1, len(latencies_ms) // windows)
    parts = [latencies_ms[i:i + size] for i in range(0, size * windows, size)]
    return median([percentile(part, 99) for part in parts if part])


def report_latency(report, latencies_ms: list, raw_ms: list, windows: int = 1) -> None:
    """p50 and p99 of latencies at reference speed; ``raw_ms`` as measured.

    Both lists are in the order the requests were sent.  With many samples
    the p99 is taken over all of them, so at least ten lie beyond it; a
    run with few samples (whole Table III passes) takes the median of
    window p99s instead, so one slow stretch does not decide it.
    """
    report.latency_p50_ms = percentile(latencies_ms, 50)
    report.latency_p99_ms = tail(latencies_ms, windows)
    report.raw["latency_p50_ms"] = percentile(raw_ms, 50)
    report.raw["latency_p99_ms"] = tail(raw_ms, windows)
    report.samples = len(latencies_ms)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB."""
    return proc_peak_rss_mb(os.getpid())


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_record(seed: int, rates: dict) -> dict:
    """What a reader needs to reproduce the run."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "offered_rates": rates,
        "executable": sys.executable,
    }
