#!/usr/bin/env python3
"""Multi-process ArtifactCache stress: N processes hammer one cache dir.

The fleet (``python -m repro.service --workers N``) rests on a single claim:
any number of processes can share one :class:`~repro.service.cache.ArtifactCache`
directory with no coordination beyond the cache's own atomic writes and
advisory index.  This script makes that claim falsifiable.  The parent

1. derives a deterministic universe of programs from ``--seed`` and
   pre-compiles a reference result for each,
2. spawns ``--processes`` workers (this same file with ``--worker I``), each
   running ``--ops`` randomized operations — ``put`` / ``get`` / ``delete`` /
   ``reconcile_index`` / ``sweep`` — against the shared directory, with a
   *protected* subset of keys that is written but never deleted,
3. then verifies: every worker exited cleanly, the object files fit the
   budget every process shares (``--max-bytes``) within the
   ``1 + processes / RESCAN_FRACTION`` overshoot that per-process byte
   counts allow, every protected artifact is present and deserializes to a result
   whose metrics match the reference compile, every surviving contested
   artifact also round-trips, the index parses, a reconcile pass finds zero
   drift on its second run, after a final sweep the index lists exactly the
   files present, and no temp files leaked.  Under an explicit
   ``--max-bytes`` a protected artifact may be evicted like any other; then
   the protected ones that survive must round-trip.

Exit code 0 = the invariants held.  Run it standalone::

    PYTHONPATH=src python scripts/cache_stress.py --processes 4 --ops 120
    PYTHONPATH=src python scripts/cache_stress.py --processes 4 --max-bytes 20000

or via ``tests/test_service/test_cache_multiprocess.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.paulis.pauli import PauliString  # noqa: E402
from repro.paulis.term import PauliTerm  # noqa: E402
from repro.service.cache import (  # noqa: E402
    DEFAULT_MAX_BYTES,
    RESCAN_FRACTION,
    ArtifactCache,
    cache_key,
)

#: paulis per program / qubits — small enough that a compile is milliseconds
NUM_QUBITS = 6
NUM_TERMS = 8
#: how many distinct programs the universe holds; the first PROTECTED of
#: them are written by every worker but deleted by none
UNIVERSE = 10
PROTECTED = 4


def structural_metrics(result) -> dict:
    """Result metrics minus wall-clock noise (``compile_seconds`` varies)."""
    return {
        name: value
        for name, value in result.metrics().items()
        if not name.endswith("_seconds")
    }


def build_universe(seed: int) -> "list[list[PauliTerm]]":
    """The deterministic shared program set every process re-derives."""
    rng = random.Random(seed)
    programs = []
    for _ in range(UNIVERSE):
        terms = []
        for _ in range(NUM_TERMS):
            label = "".join(rng.choice("IXYZ") for _ in range(NUM_QUBITS))
            if set(label) == {"I"}:
                label = "X" + label[1:]
            terms.append(PauliTerm(PauliString.from_label(label), rng.uniform(-1, 1)))
        programs.append(terms)
    return programs


def run_worker(args: argparse.Namespace) -> int:
    """One stress process: randomized cache traffic, seeded per worker."""
    rng = random.Random(args.seed * 7919 + args.worker)
    programs = build_universe(args.seed)
    keys = [cache_key(program) for program in programs]
    compiled = {}
    cache = ArtifactCache(
        args.cache_dir, max_bytes=args.max_bytes or DEFAULT_MAX_BYTES,
        ttl_seconds=3600.0,
    )
    for _ in range(args.ops):
        index = rng.randrange(UNIVERSE)
        key, program = keys[index], programs[index]
        op = rng.random()
        if op < 0.45:
            if key not in compiled:
                compiled[key] = repro.compile(program)
            cache.put(key, compiled[key])
        elif op < 0.80:
            result = cache.get(key)
            if result is not None and result.circuit.num_qubits != NUM_QUBITS:
                raise AssertionError(
                    f"artifact {key[:12]} came back with "
                    f"{result.circuit.num_qubits} qubits, expected {NUM_QUBITS}"
                )
        elif op < 0.90:
            if index >= PROTECTED:  # protected keys are never deleted
                cache.delete(key)
        elif op < 0.95:
            cache.reconcile_index()
        else:
            cache.sweep()
    return 0


def run_parent(args: argparse.Namespace) -> int:
    programs = build_universe(args.seed)
    keys = [cache_key(program) for program in programs]
    reference = {
        key: repro.compile(program) for key, program in zip(keys, programs)
    }

    cache_dir = args.cache_dir
    cleanup = None
    if cache_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-cache-stress-")
        cache_dir = cleanup.name
    try:
        workers = []
        for index in range(args.processes):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--worker", str(index),
                "--cache-dir", cache_dir,
                "--ops", str(args.ops),
                "--seed", str(args.seed),
            ]
            if args.max_bytes is not None:
                command += ["--max-bytes", str(args.max_bytes)]
            workers.append(subprocess.Popen(command))
        failures = 0
        for index, process in enumerate(workers):
            if process.wait() != 0:
                print(f"FAIL: worker {index} exited with {process.returncode}")
                failures += 1
        if failures:
            return 1

        # 1. the processes kept the shared budget, up to what each one's
        #    byte count could miss of the others' writes
        max_bytes = args.max_bytes or DEFAULT_MAX_BYTES
        limit = max_bytes * (1 + args.processes / RESCAN_FRACTION)
        objects_dir = Path(cache_dir) / "objects"
        disk_bytes = sum(path.stat().st_size for path in objects_dir.glob("*.json"))
        if disk_bytes > limit:
            print(f"FAIL: {disk_bytes} bytes on disk, over the {limit:.0f} limit")
            return 1

        cache = ArtifactCache(cache_dir, max_bytes=max_bytes)
        # 2. every protected artifact survived (unless a budget was set) and
        #    round-trips correctly
        protected = 0
        for key in keys[:PROTECTED]:
            result = cache.get(key)
            if result is None:
                if args.max_bytes is not None:
                    continue  # evicted under the budget, like any artifact
                print(f"FAIL: protected artifact {key[:12]} lost")
                return 1
            protected += 1
            if structural_metrics(result) != structural_metrics(reference[key]):
                print(f"FAIL: protected artifact {key[:12]} corrupted")
                return 1
        # 3. every surviving contested artifact also round-trips
        survivors = 0
        for key in keys[PROTECTED:]:
            result = cache.get(key)
            if result is None:
                continue
            survivors += 1
            if structural_metrics(result) != structural_metrics(reference[key]):
                print(f"FAIL: contested artifact {key[:12]} corrupted")
                return 1
        # 4. the advisory index parses and reconciles to a fixed point
        index_path = Path(cache_dir) / "index.json"
        if index_path.exists():
            with open(index_path) as handle:
                json.load(handle)
        cache.reconcile_index()
        drift = cache.reconcile_index()
        if drift != 0:
            print(f"FAIL: reconcile_index did not stabilize (drift {drift})")
            return 1
        # 5. after a final sweep the index lists exactly the files present
        cache.sweep()
        with open(index_path) as handle:
            listed = set(json.load(handle)["artifacts"])
        present = {path.stem for path in objects_dir.glob("*.json")}
        if listed != present:
            print(
                f"FAIL: index lists {len(listed - present)} missing and omits "
                f"{len(present - listed)} present artifacts"
            )
            return 1
        # 6. no temp files leaked past the atomic-write window
        leaked = [
            str(path)
            for path in Path(cache_dir).rglob(".tmp-*")
        ]
        if leaked:
            print(f"FAIL: {len(leaked)} temp files leaked: {leaked[:3]}")
            return 1
        print(
            f"OK: {args.processes} processes x {args.ops} ops — "
            f"{protected} protected + {survivors} contested artifacts intact, "
            f"{disk_bytes} bytes on disk (budget {max_bytes}), "
            "index stable, no temp leaks"
        )
        return 0
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processes", type=int, default=4)
    parser.add_argument("--ops", type=int, default=120, help="operations per process")
    parser.add_argument("--seed", type=int, default=20250807)
    parser.add_argument("--cache-dir", default=None, help="default: a temp dir")
    parser.add_argument(
        "--max-bytes", type=int, default=None,
        help="disk budget of every process (default: the cache's default); "
        "protected artifacts may then be evicted",
    )
    parser.add_argument(
        "--worker", type=int, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.worker is not None:
        if args.cache_dir is None:
            parser.error("--worker needs --cache-dir")
        return run_worker(args)
    return run_parent(args)


if __name__ == "__main__":
    sys.exit(main())
