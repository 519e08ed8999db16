"""Diff two throughput-benchmark JSON files and fail on regression.

Used by the CI ``bench`` job (and runnable locally) to compare a fresh
``BENCH_throughput.json`` against the committed baseline::

    python scripts/check_bench_regression.py \
        benchmarks/baselines/bench_throughput_baseline.json BENCH_throughput.json

For every workload present in the baseline the checker enforces:

* ``packed_terms_per_sec`` — absolute throughput floor.  The current value
  must stay above ``baseline * (1 - tolerance)``; the committed baseline
  stores deliberately conservative floors so cross-machine variance does not
  false-alarm while a broken vectorization path (orders of magnitude slower)
  still trips it.
* ``extraction_terms_per_sec`` — absolute throughput floor of the
  table-native ``CliffordExtraction`` pass (terms per second of per-pass
  wall-clock).  Like the packed floor it is deliberately conservative, but a
  fallback to object-at-a-time extraction (several times slower) trips it.
* ``peephole_gates_per_sec`` — absolute throughput floor of the streaming
  wire-indexed peephole engine over the workload's raw extraction tail.
  Gated on the small *and* medium tiers so the rate is forced to stay flat
  as tails grow — a fallback to the iterated whole-list sweeps (super-linear
  in the tail length) trips the medium floor first.
* ``speedup`` — the packed/legacy ratio measured on the *same* machine, so
  it is machine-independent; this is the primary regression signal and the
  paper-level acceptance gate (>= 5x).

When the baseline commits a top-level ``service`` block, its
``warm_hit_speedup`` (cold-compile vs. warm-artifact-cache-hit ratio — same
machine, so machine-independent like ``speedup``), ``requests_per_sec`` and
``bind_requests_per_sec`` floors are enforced with the same rules.  A
top-level ``parametric`` block gates the :mod:`repro.parametric` fast path:
``bind_seconds`` (one template bind, converted to the reference host speed
of ``perfbench/calibrate.py``) as a **ceiling** and
``bind_requests_per_sec`` (single-client ``POST /bind`` HTTP throughput) as a
floor.  A ``service_load`` block (the open-loop load harness,
``benchmarks/bench_service_load.py``) gates ``saturation_rps`` and
``fleet_saturation_rps`` as floors and ``p99_ms`` as a latency ceiling.  For
a ceiling ("lower"-direction metric) the check inverts to
``current <= baseline * (1 + tolerance)``.

``--strict`` additionally fails when a floored metric is *missing*: a
baseline floor with no matching value in the fresh bench output (the metric
was renamed or silently dropped — without strict mode that reads as 0.0 and
conflates with a throughput collapse), or a gated metric with no committed
floor for a workload the baseline covers (nothing would gate it at all).
CI runs with ``--strict``.

Exit status is 0 when every row passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: metric -> direction; "higher" means a drop below the floor is a regression
METRICS = {
    "packed_terms_per_sec": "higher",
    "extraction_terms_per_sec": "higher",
    "peephole_gates_per_sec": "higher",
    "speedup": "higher",
}

#: gated metrics of the top-level "service" block (cold vs. warm-cache
#: latency and HTTP throughput of the compilation service); same semantics
#: as METRICS, applied once per report instead of once per workload
SERVICE_METRICS = {
    "warm_hit_speedup": "higher",
    "requests_per_sec": "higher",
    "bind_requests_per_sec": "higher",
}

#: gated metrics of the top-level "parametric" block (template compilation
#: and microsecond angle binding).  bind_seconds is a ceiling at reference
#: host speed; the bind_speedup ratio is reported but not gated, because it
#: falls whenever the cold compile gets faster
PARAMETRIC_METRICS = {
    "bind_seconds": "lower",
    "bind_requests_per_sec": "higher",
}

#: gated metrics of the top-level "service_load" block (the open-loop
#: Poisson load harness, benchmarks/bench_service_load.py).  p99_ms is a
#: latency *ceiling*, so the check inverts — the current value may rise at
#: most ``tolerance`` above the committed baseline before it reads as a
#: regression.
SERVICE_LOAD_METRICS = {
    "saturation_rps": "higher",
    "p99_ms": "lower",
    "fleet_saturation_rps": "higher",
}


def load(path: str) -> dict:
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot read benchmark report {path!r}: {error}")
    if "workloads" not in report:
        raise SystemExit(f"{path!r} does not look like a throughput report (no 'workloads')")
    return report


def _compare_metrics(
    label: str,
    base_entry: dict,
    cur_entry: dict,
    metrics: dict,
    tolerance: float,
    strict: bool,
) -> tuple[list[dict], bool]:
    """Gate one baseline/current entry pair over ``metrics``.

    Shared by the per-workload rows and the top-level ``service`` block —
    identical semantics: a floor with no fresh value is NOT MEASURED (strict),
    a gated metric with no committed floor is NO FLOOR (strict; nothing would
    gate it at all — the silent pass strict mode exists to catch), and a
    non-strict absent metric reads as 0.0 (fails, but as an
    indistinguishable "REGRESSION" row — the legacy behaviour).
    """
    rows: list[dict] = []
    ok = True
    for metric in metrics:
        if metric not in base_entry:
            if strict:
                rows.append(
                    {"workload": label, "metric": metric, "baseline": None,
                     "current": float(cur_entry[metric]) if metric in cur_entry else None,
                     "ratio": None, "status": "NO FLOOR"}
                )
                ok = False
            continue
        base_value = float(base_entry[metric])
        if metric not in cur_entry:
            if strict:
                rows.append(
                    {"workload": label, "metric": metric, "baseline": base_value,
                     "current": None, "ratio": None, "status": "NOT MEASURED"}
                )
                ok = False
                continue
        cur_value = float(cur_entry.get(metric, 0.0))
        ratio = cur_value / base_value if base_value else float("inf")
        if metrics[metric] == "lower":
            # a ceiling (e.g. a p99 latency): rising above it regresses
            passed = cur_value <= base_value * (1.0 + tolerance)
        else:
            passed = cur_value >= base_value * (1.0 - tolerance)
        rows.append(
            {"workload": label, "metric": metric, "baseline": base_value,
             "current": cur_value, "ratio": ratio,
             "status": "ok" if passed else "REGRESSION"}
        )
        ok = ok and passed
    return rows, ok


def compare(
    baseline: dict, current: dict, tolerance: float, strict: bool = False
) -> tuple[list[dict], bool]:
    rows: list[dict] = []
    ok = True
    current_workloads = current["workloads"]
    for name, base_entry in sorted(baseline["workloads"].items()):
        cur_entry = current_workloads.get(name)
        if cur_entry is None:
            rows.append(
                {"workload": name, "metric": "-", "baseline": None, "current": None,
                 "ratio": None, "status": "MISSING"}
            )
            ok = False
            continue
        entry_rows, entry_ok = _compare_metrics(
            name, base_entry, cur_entry, METRICS, tolerance, strict
        )
        rows.extend(entry_rows)
        ok = ok and entry_ok
    for block, metrics in (
        ("service", SERVICE_METRICS),
        ("parametric", PARAMETRIC_METRICS),
        ("service_load", SERVICE_LOAD_METRICS),
    ):
        block_rows, block_ok = _compare_block(
            baseline, current, block, metrics, tolerance, strict
        )
        rows.extend(block_rows)
        ok = ok and block_ok
    return rows, ok


def _compare_block(
    baseline: dict,
    current: dict,
    block: str,
    metrics: dict,
    tolerance: float,
    strict: bool,
) -> tuple[list[dict], bool]:
    """Gate a top-level report block with the per-workload semantics.

    A report pair without the block passes untouched (older baselines stay
    comparable); once either side carries one, the shared strict rules of
    :func:`_compare_metrics` apply.
    """
    base_entry = baseline.get(block)
    cur_entry = current.get(block)
    label = f"({block})"
    if base_entry is None and cur_entry is None:
        return [], True
    if cur_entry is None:
        return (
            [{"workload": label, "metric": "-", "baseline": None,
              "current": None, "ratio": None, "status": "MISSING"}],
            False,
        )
    return _compare_metrics(
        label, base_entry or {}, cur_entry, metrics, tolerance, strict
    )


def print_table(rows: list[dict], tolerance: float) -> None:
    header = f"{'workload':<22} {'metric':<22} {'baseline':>12} {'current':>12} {'ratio':>7}  status"
    print(header)
    print("-" * len(header))
    for row in rows:
        metric = row["metric"] if row["metric"] != "-" else "(not in current run)"
        base = "-" if row["baseline"] is None else f"{row['baseline']:.6g}"
        cur = "-" if row["current"] is None else f"{row['current']:.6g}"
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}x"
        print(f"{row['workload']:<22} {metric:<22} {base:>12} {cur:>12} {ratio:>7}  {row['status']}")
    print(f"\ntolerance: a metric may drop at most {tolerance:.0%} below its baseline floor")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (the floors)")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop below the baseline floor (default 0.2)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a floored metric is missing from the bench "
        "output, or a gated metric has no committed floor",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    current = load(args.current)
    rows, ok = compare(baseline, current, args.tolerance, strict=args.strict)
    if not rows:
        print("no comparable workloads between the two reports", file=sys.stderr)
        return 1
    print_table(rows, args.tolerance)
    if ok:
        print("benchmark regression check: PASS")
        return 0
    print("benchmark regression check: FAIL", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
