"""SHA-256 digests of compiler output, for diffing two checkouts.

Prints one digest per group of outputs, so running the script in two
checkouts and diffing the printed lines shows whether a change moved any
gate, angle, tail or tableau:

* ``table3 level N`` — the 17 Table III rows compiled at level 2 and 3;
* ``random level N`` — seeded random programs (2-11 qubits, 2-59 terms, with
  appended duplicate, negated-duplicate and zero-sum terms) at level 2 and 3;
* ``random-large level N`` — seeded 300-800-term programs at level 2 and 3,
  long enough for the extractor to drop emitted rows from its columns
  (``REBASE_ROWS``) more than once: even seeds are dense random strings in
  many small commuting blocks, odd seeds one to three long commuting blocks
  (LABS-like) with lone-``Z`` terms that fold into earlier rotations;
* ``template level N`` — the template wire payload of each small-tier row;
  ``template level N (structure)`` leaves out the metadata dictionaries,
  which carry the pass list and the stage counters;
* ``blocks`` — the commuting-block bounds (``commuting_block_bounds``) of the
  Table III rows, the ``random`` and ``random-large`` programs and a set of
  adversarial shapes (thousands of equal ``Y`` strings, XX/YY/ZZ pair blocks
  longer than ``2n``, ``Z``-only blocks longer than a machine word closed by
  one ``X``, on 1-130 qubits), so a partition change is named apart from the
  gate digests.

Angles are hashed through ``float.hex``, so a digest moves on any bit of any
angle.  Run from the repository root:

    PYTHONPATH=src python scripts/output_digests.py [--programs 1000]
"""

from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

import repro
from repro.core.commuting import commuting_block_bounds
from repro.paulis.packed import PackedPauliTable
from repro.paulis.pauli import PauliString
from repro.paulis.term import PauliTerm
from repro.workloads.registry import MEDIUM_BENCHMARKS, SMALL_BENCHMARKS, get_benchmark

TABLE3_ROWS = MEDIUM_BENCHMARKS + ["UCC-(6,12)", "benzene", "LABS-(n20)"]
#: random-large programs per level
LARGE_PROGRAMS = 24


def _gates(circuit) -> list:
    return [
        [gate.name, list(gate.qubits), [float(p).hex() for p in gate.params]]
        for gate in circuit
    ]


def result_record(result) -> list:
    """Gates with exact angles, the extracted tail and the conjugation tableau."""
    return [
        _gates(result.circuit),
        _gates(result.extracted_clifford),
        [str(part) if isinstance(part, int) else part.hex()
         for part in result.extraction.conjugation.content_key()],
    ]


def random_program(seed: int) -> list[PauliTerm]:
    """A seeded random program, with rewriting bait appended half the time."""
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 12))
    terms = []
    for _ in range(int(rng.integers(2, 60))):
        x = rng.random(num_qubits) < 0.5
        z = rng.random(num_qubits) < 0.5
        if not (x.any() or z.any()):
            z[int(rng.integers(num_qubits))] = True
        phase = int(np.count_nonzero(x & z))
        terms.append(PauliTerm(PauliString(x, z, phase), float(rng.uniform(-np.pi, np.pi))))
    if rng.random() < 0.5:
        for _ in range(int(rng.integers(1, 6))):
            source = terms[int(rng.integers(len(terms)))]
            kind = int(rng.integers(3))
            if kind == 0:  # duplicate string, fresh angle
                terms.append(PauliTerm(source.pauli, float(rng.uniform(-np.pi, np.pi))))
            elif kind == 1:  # negated duplicate
                terms.append(PauliTerm(source.pauli, -source.coefficient))
            else:  # zero-sum pair
                angle = float(rng.uniform(-np.pi, np.pi))
                terms.append(PauliTerm(source.pauli, angle))
                terms.append(PauliTerm(source.pauli, -angle))
    return terms


def random_large_program(seed: int) -> list[PauliTerm]:
    """A seeded 300-800-term program: many small blocks (even seeds) or few long ones."""
    rng = np.random.default_rng(10_000 + seed)
    num_qubits = int(rng.integers(4, 25))
    num_terms = int(rng.integers(300, 801))
    terms = []
    if seed % 2 == 0:
        for _ in range(num_terms):
            x = rng.random(num_qubits) < 0.4
            z = rng.random(num_qubits) < 0.4
            if not (x.any() or z.any()):
                z[int(rng.integers(num_qubits))] = True
            terms.append(PauliTerm(
                PauliString(x, z, int(np.count_nonzero(x & z))), float(rng.uniform(-np.pi, np.pi))
            ))
        return terms
    # strings built from one letter per qubit commute, so a section is one block
    sections = int(rng.integers(1, 4))
    for section in range(sections):
        letters = rng.integers(1, 4, num_qubits) if section else np.full(num_qubits, 3)
        for _ in range(num_terms // sections):
            support = np.zeros(num_qubits, dtype=bool)
            support[rng.choice(num_qubits, int(rng.integers(1, 5)), replace=False)] = True
            x = support & (letters != 3)
            z = support & (letters != 1)
            terms.append(PauliTerm(
                PauliString(x, z, int(np.count_nonzero(x & z))), float(rng.uniform(-np.pi, np.pi))
            ))
    return terms


def adversarial_programs() -> list[list[PauliString]]:
    """Shapes that stress the block scan's fast test and its exact check."""
    rng = np.random.default_rng(20_000)
    programs = [[PauliString.from_label("Y" * 8)] * 3000]
    for num_qubits in (2, 64, 65, 130):
        # XX, YY and ZZ on one pair commute: each run is one block on that pair
        paulis = []
        for _ in range(4):
            pair = rng.choice(num_qubits, 2, replace=False)
            for _ in range(2 * num_qubits + 7):
                label = ["I"] * num_qubits
                letter = "XYZ"[int(rng.integers(3))]
                for qubit in pair:
                    label[qubit] = letter
                paulis.append(PauliString.from_label("".join(label)))
        programs.append(paulis)
    for num_qubits in (1, 64, 65, 130):
        paulis = []
        for _ in range(3):
            for _ in range(70):
                z = rng.random(num_qubits) < 0.3
                z[int(rng.integers(num_qubits))] = True
                paulis.append(PauliString(np.zeros(num_qubits, dtype=bool), z))
            label = ["I"] * num_qubits
            label[int(rng.integers(num_qubits))] = "X"
            paulis.append(PauliString.from_label("".join(label)))
        programs.append(paulis)
    return programs


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=1000, help="random programs per level")
    args = parser.parse_args()

    from repro.parametric import ParametricProgram, compile_template
    from repro.service.serialize import template_to_wire

    table3 = {name: get_benchmark(name).terms() for name in TABLE3_ROWS}
    programs = [random_program(seed) for seed in range(args.programs)]
    large = [random_large_program(seed) for seed in range(LARGE_PROGRAMS)]
    sources = [[term.pauli for term in terms] for terms in [*table3.values(), *programs, *large]]
    sources += adversarial_programs()
    records = [commuting_block_bounds(PackedPauliTable.from_paulis(paulis)) for paulis in sources]
    print(f"blocks: {digest(records)}  ({len(records)} programs)")
    for level in (2, 3):
        records = [result_record(repro.compile(terms, level=level)) for terms in table3.values()]
        print(f"table3 level {level}: {digest(records)}")
        records = [result_record(repro.compile(terms, level=level)) for terms in programs]
        print(f"random level {level}: {digest(records)}  ({len(records)} programs)")
        records = [result_record(repro.compile(terms, level=level)) for terms in large]
        print(f"random-large level {level}: {digest(records)}  ({len(records)} programs)")
        payloads = []
        for name in SMALL_BENCHMARKS:
            terms = table3[name]
            program = ParametricProgram.from_terms(terms, list(range(len(terms))))
            payloads.append(template_to_wire(compile_template(program, level=level)))
        print(f"template level {level}: {digest(payloads)}")
        for payload in payloads:
            del payload["metadata_base"], payload["extraction_metadata"]
        print(f"template level {level} (structure): {digest(payloads)}")


if __name__ == "__main__":
    main()
