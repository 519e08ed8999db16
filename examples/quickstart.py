"""Quickstart: optimize a small quantum-simulation circuit with repro.compile.

Reproduces the paper's motivating example (Fig. 2): the two-term program
``exp(-i t1/2 ZZZZ) exp(-i t2/2 YYXX)`` costs 12 CNOTs when synthesized
directly, but Clifford Extraction plus Absorption leaves a much smaller
circuit on the quantum device.

Run with:  python examples/quickstart.py
"""

import time

import repro
from repro import PauliTerm
from repro.circuits.statevector import circuits_equivalent
from repro.evaluation.reporting import format_pass_timings


def main() -> None:
    terms = [
        PauliTerm.from_label("ZZZZ", 0.31),
        PauliTerm.from_label("YYXX", 0.52),
    ]

    native = repro.compile(terms, level=0)
    print("Native circuit (optimization level 0):")
    print(f"  CNOTs            : {native.cx_count()}")
    print(f"  entangling depth : {native.entangling_depth()}")

    result = repro.compile(terms, level=3)
    print("\nQuCLEAR-optimized circuit (level 3, what runs on hardware):")
    print(f"  CNOTs            : {result.cx_count()}")
    print(f"  entangling depth : {result.entangling_depth()}")
    print(f"  extracted tail   : {result.extracted_clifford.cx_count()} CNOTs handled classically")

    # Each pipeline records where its compile time went.  Since the
    # table-native extractor landed, CliffordExtraction — formerly 90+% of
    # compile wall-clock — runs Algorithm 2 directly on the bit-packed Pauli
    # store: the remaining program is one PackedPauliTable, each emitted gate
    # streams across the table suffix as whole-matrix bitwise ops, and
    # lookahead reads rows instead of re-conjugating Pauli objects.
    #
    # Local optimization happens inside extraction: a term that conjugates
    # to a lone Z folds its rotation into the Rz still open on that wire, so
    # level 3 runs no separate Peephole pass.  The legacy iterated-sweep
    # oracle, which rescans the whole circuit up to 20 times, finds nothing
    # left to remove.
    print("\nPer-pass timing breakdown:")
    print(format_pass_timings(result.metadata["pass_timings"]))

    from repro.compiler import CliffordExtraction, GroupCommuting, Pipeline
    from repro.transpile.peephole import peephole_optimize

    raw = Pipeline([GroupCommuting(), CliffordExtraction()]).run(terms)
    start = time.perf_counter()
    legacy = peephole_optimize(raw.circuit)
    legacy_ms = (time.perf_counter() - start) * 1000.0
    print(
        f"\nLegacy iterated peephole on the extraction output: {legacy_ms:.3f} ms, "
        f"{legacy.cx_count()} CNOTs (level 3: {result.cx_count()})"
    )

    # The optimized circuit followed by the extracted Clifford tail implements
    # exactly the original unitary.
    reconstructed = result.circuit.compose(result.extracted_clifford)
    print("\nEquivalence check (optimized + tail == original):", end=" ")
    print("PASS" if circuits_equivalent(native.circuit, reconstructed) else "FAIL")

    # For expectation-value workloads the tail never has to run: it is folded
    # into the measured observable instead.  Absorption (and every Clifford
    # conjugation underneath) runs on the bit-packed engine: all Pauli terms
    # of an observable live in contiguous uint64 arrays (64 qubits per word)
    # and conjugate through the tail as whole-matrix bitwise operations —
    # see BENCH_throughput.json for the measured speedup over the legacy
    # per-string loop.
    from repro import PauliString

    observable = PauliString.from_label("XXZZ")
    absorbed = result.absorb_observables([observable])[0]
    print(
        f"\nObservable {observable.to_label()} becomes "
        f"{'-' if absorbed.sign < 0 else ''}{absorbed.updated.to_label()} "
        "after absorbing the Clifford tail."
    )

    # Batches of independent programs go through repro.compile_many: one
    # resolved pipeline and a shared conjugation-tableau cache, so identical
    # Clifford tails are frozen once.  repro.compiler.plan_batch runs small
    # batches like this one serially — a worker pool would make them
    # *slower* than a plain loop — and hands large ones to a CompilePool
    # (pass pool=... to reuse warm workers), since synthesis is GIL-bound.
    batch = repro.compile_many(
        [
            [PauliTerm.from_label("ZZII", 0.4), PauliTerm.from_label("XXYY", 0.7)],
            [PauliTerm.from_label("IZZI", 0.2), PauliTerm.from_label("YXXY", 0.9)],
        ],
        level=3,
    )
    print("\ncompile_many over 2 programs:")
    for index, item in enumerate(batch):
        print(f"  program {index}: {item.cx_count()} CNOTs on hardware")


if __name__ == "__main__":
    main()
