"""End-to-end benchmark of the QuCLEAR reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3_compile --seed 1 --seconds 20 --trace 0

Workloads: ``table3_compile`` (in-process compiles of Table III),
``serve_hit``, ``serve_miss`` and ``vqe_bind`` (a ``repro.service`` subprocess
under load).  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the workload untraced and then with probes on every layer, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; everything
before it is a human-readable report.  ``--workload all`` runs every workload
in turn and prints each one's report and JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

_STARTED = time.perf_counter()

from calibrate import REFERENCE_S, HostClock, at_reference  # noqa: E402
from common import END_TO_END, LAYERS, SRC, median, run_record  # noqa: E402

WORKLOAD_NAMES = ["table3_compile", "serve_hit", "serve_miss", "vqe_bind"]


class Report:
    """Everything one run measured, and whether its outputs were correct."""

    def __init__(self, workload: str, seed: int, traced: bool, import_s: float):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.import_s = import_s
        #: kernel samples taken through the run, beside the timed samples
        self.clock = HostClock()
        self.import_ref_s = at_reference(import_s, self.clock.sample())
        self.attempted = 0
        self.failed = 0
        self.samples = 0
        self.errors: list[str] = []
        self.lines: list[str] = []
        self.rates: dict = {}
        self.layers: dict = {name: 0.0 for name in LAYERS}
        #: timing metrics as measured, before conversion to reference speed
        self.raw: dict = {}
        for name in END_TO_END:
            setattr(self, name, 0.0)

    def note(self, message: str) -> None:
        self.lines.append(message)

    def fail(self, message: str) -> None:
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def metrics(self) -> dict:
        if self.traced:
            return {name: {"value": float(self.layers[name]), "unit": LAYERS[name][0]}
                    for name in LAYERS}
        return {name: {"value": float(getattr(self, name)), "unit": unit}
                for name, unit in END_TO_END.items()}

    def print(self) -> None:
        print(f"== {self.workload} (seed {self.seed}, {'traced' if self.traced else 'untraced'})")
        print("record: " + json.dumps(run_record(self.seed, self.rates), sort_keys=True))
        for line in self.lines:
            print(line)
        print(f"host speed: kernel median {median(self.clock.samples) * 1000:.3f} ms over "
              f"{len(self.clock.samples)} samples, {self.clock.factor():.3f}x the reference "
              f"{REFERENCE_S * 1000:.3f} ms")
        print("end-to-end metrics" + (" (untraced phase of a traced run)" if self.traced else "")
              + ": at reference speed, and as measured")
        for name, unit in END_TO_END.items():
            raw = f"{self.raw[name]:14.4f}" if name in self.raw else " " * 14
            print(f"  {name:22s} {getattr(self, name):14.4f} {raw} {unit}")
        print(f"  latency samples        {self.samples:14d}")
        if self.traced:
            print("per-layer metrics")
            for name, (unit, _, moves) in LAYERS.items():
                print(f"  {name:40s} {self.layers[name]:14.4f} {unit:6s} -> {moves}")
        print(f"attempted {self.attempted}, failed {self.failed}")
        for error in self.errors:
            print("ERROR: " + error)


def run_one(name: str, seed: int, seconds: float, traced: bool, import_s: float) -> Report:
    report = Report(name, seed, traced, import_s)
    if name == "table3_compile":
        import table3

        table3.run(seed, seconds, traced, report)
    else:
        import serving

        serving.run(name, seed, seconds, traced, report)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 — the import time is part of set-up
    import repro.service.client  # noqa: F401

    import_s = time.perf_counter() - _STARTED
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    for name in names:
        report = run_one(name, args.seed, args.seconds, bool(args.trace), import_s)
        report.print()
        print(json.dumps({
            "correct": report.correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": report.metrics(),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
