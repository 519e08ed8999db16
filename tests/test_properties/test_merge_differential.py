"""Differential test: extraction's rotation merge against the streaming peephole.

At levels 2 and 3 no ``Peephole`` pass runs; the extractor folds each lone
``±Z`` rotation into the open ``Rz`` on its wire.  The oracle is the general
engine: :class:`~repro.transpile.wire_optimizer.GateStreamOptimizer` run over
the *unmerged* emission of the independent legacy extractor.  The compiled
circuit must match it gate for gate, angles bit for bit — including the kill
window, where a merged angle vanishes and the engine's deletion can expose
further rewrites.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.extraction import CliffordExtractor
from repro.core.extraction_legacy import LegacyCliffordExtractor
from repro.paulis.pauli import PauliString
from repro.paulis.term import PauliTerm
from repro.transpile.wire_optimizer import streaming_peephole_optimize

#: the extractor flags of the preset levels that run Clifford Extraction
LEVEL_FLAGS = {
    2: {"reorder_within_blocks": False, "cross_block_lookahead": False},
    3: {},
}

angles = st.one_of(
    st.floats(min_value=-math.pi, max_value=math.pi),
    # beyond ±4π: the merge normalizes with math.remainder(·, 4π)
    st.floats(min_value=-40.0, max_value=40.0),
    st.sampled_from([0.0, 2 * math.pi, -2 * math.pi, 4 * math.pi, -4 * math.pi, 6 * math.pi]),
)


@st.composite
def rewriting_programs(draw):
    """Programs full of rewriting bait: repeated strings, cancelling angles."""
    num_qubits = draw(st.integers(1, 5))
    labels = st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits)
    terms: list[PauliTerm] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(
            ["fresh", "fresh", "duplicate", "negated", "zero-sum", "identity"]
        ))
        if kind in ("duplicate", "negated", "zero-sum") and terms:
            source = terms[draw(st.integers(0, len(terms) - 1))]
            if kind == "duplicate":
                terms.append(PauliTerm(source.pauli, draw(angles)))
            elif kind == "negated":
                terms.append(PauliTerm(source.pauli, -source.coefficient))
            else:
                angle = draw(angles)
                terms.append(PauliTerm(source.pauli, angle))
                terms.append(PauliTerm(source.pauli, -angle))
        elif kind == "identity":
            terms.append(PauliTerm.from_label("I" * num_qubits, draw(angles)))
        else:
            sign = draw(st.sampled_from([1, -1]))
            pauli = PauliString.from_label(draw(labels), sign=sign)
            terms.append(PauliTerm(pauli, draw(angles)))
    return terms


def _wide_program() -> list[PauliTerm]:
    """A 70-qubit program with duplicates across the 64-qubit word boundary."""
    rng = np.random.default_rng(70)
    terms = []
    for _ in range(8):
        x = rng.random(70) < 0.1
        z = rng.random(70) < 0.1
        z[63 + int(rng.integers(2))] = True
        phase = int(np.count_nonzero(x & z))
        terms.append(PauliTerm(PauliString(x, z, phase), float(rng.uniform(-np.pi, np.pi))))
    terms.append(PauliTerm(terms[2].pauli, 0.3))
    terms.append(PauliTerm(terms[5].pauli, -terms[5].coefficient))
    terms.append(PauliTerm(PauliString.single(70, 64, "Z"), 20.0))
    terms.append(PauliTerm(PauliString.single(70, 64, "Z"), 0.25))
    return terms


#: a program whose lone ``Z`` lands on a wire that was an inner CNOT target
#: (the tree's parity passed through it) after its last rotation: no fold
INNER_TARGET_LABELS = ["ZZY", "XZX", "ZYY", "XYX", "ZXY", "XYY", "YIX", "IZI", "YZI"]


def _exact(gates) -> list:
    return [(gate.name, gate.qubits, tuple(float(p).hex() for p in gate.params)) for gate in gates]


def assert_matches_stream_oracle(terms: list[PauliTerm]) -> None:
    for level, flags in LEVEL_FLAGS.items():
        result = repro.compile(terms, level=level)
        legacy = LegacyCliffordExtractor(**flags).extract(terms)
        oracle = streaming_peephole_optimize(legacy.optimized_circuit)
        assert _exact(result.circuit) == _exact(oracle), f"level {level}"
        assert result.extracted_clifford == legacy.extracted_clifford
        assert "Peephole" not in result.metadata["passes"]
        assert result.metadata["pre_optimization_cx"] == legacy.optimized_circuit.cx_count()


class TestMergeAgainstStreamOracle:
    @settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(rewriting_programs())
    @example(_wide_program())
    @example([PauliTerm.from_label(label, 0.1 * (index + 1))
              for index, label in enumerate(INNER_TARGET_LABELS)])
    def test_compile_equals_stream_over_unmerged_emission(self, terms):
        assert_matches_stream_oracle(terms)

    def test_kill_then_merge_across_a_cx_control(self):
        """``rz a``, ``rz -a``, ``rz b`` on one wire, a CX control between.

        The first two cancel, so ``rz b`` cannot join them at the front of the
        wire: the engine pushes it after the CX, where it was emitted.
        """
        a, b, c = 0.7, 0.4, 1.1
        terms = [
            PauliTerm.from_label("ZI", a),
            PauliTerm.from_label("ZZ", c),
            PauliTerm.from_label("ZI", -a),
            PauliTerm.from_label("ZI", b),
        ]
        _, merges = CliffordExtractor(**LEVEL_FLAGS[2]).trace(terms)
        assert [(gate.name, gate.qubits) for gate in merges.unmerged_gates()] == [
            ("rz", (1,)), ("cx", (1, 0)), ("rz", (0,)), ("rz", (1,)), ("rz", (1,)),
        ]
        assert merges.chains[0] == [(0, 1.0), (2, 1.0), (3, 1.0)]
        circuit = repro.compile(terms, level=2).circuit
        assert [(gate.name, gate.qubits, gate.params) for gate in circuit] == [
            ("cx", (1, 0), ()), ("rz", (0,), (c,)), ("rz", (1,), (b,)),
        ]
        assert_matches_stream_oracle(terms)

    def test_no_fold_across_a_basis_change(self):
        """``XX`` leaves qubit 0 as a tree leaf, behind an ``h``: ``IX`` becomes
        a lone ``Z`` there, but the ``h`` closes the earlier rotation."""
        terms = [PauliTerm.from_label(label, 0.1 * (index + 1))
                 for index, label in enumerate(["IZ", "XX", "IX"])]
        for level in LEVEL_FLAGS:
            result = repro.compile(terms, level=level)
            assert result.extraction.metadata["stage_counters"]["rotations_merged"] == 0
            assert [(gate.name, gate.qubits) for gate in result.circuit] == [
                ("rz", (0,)), ("h", (0,)), ("h", (1,)), ("cx", (0, 1)),
                ("rz", (1,)), ("rz", (0,)),
            ]
        assert_matches_stream_oracle(terms)

    def test_counter_counts_folded_rotations(self):
        terms = [
            PauliTerm.from_label("XY", 0.3),
            PauliTerm.from_label("XY", 0.2),
            PauliTerm.from_label("XY", 0.1),
        ]
        result = repro.compile(terms, level=3)
        assert result.extraction.metadata["stage_counters"]["rotations_merged"] == 2
        assert result.circuit.count_ops()["rz"] == 1
        assert result.extraction.rotation_count == 3
