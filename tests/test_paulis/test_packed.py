"""Tests for the bit-packed symplectic store (repro.paulis.packed).

The property-based classes are the round-trip guarantee of the packed
representation: any Pauli that can be written as a label must survive
``label -> PackedPauliTable -> PauliString -> label`` bit-for-bit, across
word boundaries (64/65/128 qubits) and for every phase.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gate import Gate
from repro.clifford.conjugation import apply_gate_to_rows
from repro.exceptions import PauliError
from repro.paulis.packed import (
    PackedPauliTable,
    pack_bits,
    unpack_bits,
    words_for_qubits,
)
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm

from tests.conftest import random_pauli

# Label batches whose qubit count deliberately straddles uint64 word
# boundaries (1..4, 63..66, 127..130 all appear).
label_batches = st.integers(min_value=1, max_value=130).flatmap(
    lambda n: st.lists(
        st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=8
    )
)


class TestBitPacking:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=200).map(
            lambda bits: np.array(bits, dtype=bool)
        )
    )
    def test_pack_unpack_roundtrip_1d(self, bits):
        words = pack_bits(bits)
        assert words.dtype == np.uint64
        assert words.shape == (words_for_qubits(len(bits)),)
        assert np.array_equal(unpack_bits(words, len(bits)), bits)

    def test_pack_unpack_roundtrip_2d(self, rng):
        for num_qubits in (1, 7, 63, 64, 65, 128, 129):
            bits = rng.random((5, num_qubits)) < 0.5
            words = pack_bits(bits)
            assert words.shape == (5, words_for_qubits(num_qubits))
            assert np.array_equal(unpack_bits(words, num_qubits), bits)

    def test_bit_layout(self):
        # Qubit q lives in bit q & 63 of word q >> 6.
        bits = np.zeros(70, dtype=bool)
        bits[3] = True
        bits[69] = True
        words = pack_bits(bits)
        assert words[0] == np.uint64(1) << np.uint64(3)
        assert words[1] == np.uint64(1) << np.uint64(5)


class TestTableRoundTrip:
    @settings(max_examples=60)
    @given(label_batches)
    def test_labels_roundtrip_through_table(self, labels):
        paulis = [PauliString.from_label(label) for label in labels]
        table = PackedPauliTable.from_paulis(paulis)
        assert table.to_paulis() == paulis
        assert [p.to_label() for p in table.to_paulis()] == labels

    @settings(max_examples=40)
    @given(label_batches, st.integers(min_value=0, max_value=3))
    def test_phases_survive(self, labels, phase):
        paulis = [PauliString.from_label(label).multiply_phase(phase) for label in labels]
        table = PackedPauliTable.from_paulis(paulis)
        assert table.to_paulis() == paulis

    def test_bool_array_roundtrip(self, rng):
        for num_qubits in (1, 64, 65, 100):
            x = rng.random((6, num_qubits)) < 0.5
            z = rng.random((6, num_qubits)) < 0.5
            phases = rng.integers(0, 4, size=6)
            table = PackedPauliTable.from_bool_arrays(x, z, phases)
            ux, uz, uphases = table.to_bool_arrays()
            assert np.array_equal(ux, x)
            assert np.array_equal(uz, z)
            assert np.array_equal(uphases, phases)

    def test_row_matches_pauli(self, rng):
        paulis = [random_pauli(rng, 70) for _ in range(10)]
        table = PackedPauliTable.from_paulis(paulis)
        for index, pauli in enumerate(paulis):
            assert table.row(index) == pauli

    def test_from_empty_rejected(self):
        with pytest.raises(PauliError):
            PackedPauliTable.from_paulis([])

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(PauliError):
            PackedPauliTable.from_paulis(
                [PauliString.from_label("XX"), PauliString.from_label("X")]
            )


class TestVectorizedMetrics:
    def test_weights_and_num_y(self, rng):
        paulis = [random_pauli(rng, 67) for _ in range(12)]
        table = PackedPauliTable.from_paulis(paulis)
        assert list(table.weights()) == [p.weight for p in paulis]
        assert list(table.num_y()) == [p.num_y for p in paulis]

    def test_hermitian_mask_and_signs(self):
        paulis = [
            PauliString.from_label("XYZ"),
            PauliString.from_label("-XYZ"),
            PauliString.from_label("+iZZZ"),
        ]
        table = PackedPauliTable.from_paulis(paulis)
        assert list(table.hermitian_mask()) == [True, True, False]
        assert table.signs()[0] == 0
        assert table.signs()[1] == 2

    def test_bare_resets_signs(self):
        table = PackedPauliTable.from_paulis(
            [PauliString.from_label("-XY"), PauliString.from_label("ZZ")]
        )
        for row in table.bare().to_paulis():
            assert row.sign == 1


class TestVectorizedGates:
    """The packed per-gate rules must match the legacy boolean-array rules."""

    GATES_1Q = ["i", "h", "s", "sdg", "sx", "sxdg", "x", "y", "z"]
    GATES_2Q = ["cx", "cz", "swap"]

    def test_single_qubit_gates_match_legacy(self, rng):
        for name in self.GATES_1Q:
            for num_qubits in (1, 64, 70):
                paulis = [random_pauli(rng, num_qubits) for _ in range(6)]
                qubit = int(rng.integers(num_qubits))
                gate = Gate(name, (qubit,))
                table = PackedPauliTable.from_paulis(paulis)
                table.apply_gate(gate)
                x = np.array([p.x for p in paulis])
                z = np.array([p.z for p in paulis])
                phases = np.array([p.phase for p in paulis], dtype=np.int64)
                apply_gate_to_rows(x, z, phases, gate)
                expected = PackedPauliTable.from_bool_arrays(x, z, phases % 4)
                assert np.array_equal(table.x_words, expected.x_words), name
                assert np.array_equal(table.z_words, expected.z_words), name
                assert np.array_equal(table.phases, expected.phases), name

    def test_two_qubit_gates_match_legacy(self, rng):
        for name in self.GATES_2Q:
            for num_qubits in (2, 65, 70):
                paulis = [random_pauli(rng, num_qubits) for _ in range(6)]
                qubits = rng.choice(num_qubits, size=2, replace=False)
                gate = Gate(name, (int(qubits[0]), int(qubits[1])))
                table = PackedPauliTable.from_paulis(paulis)
                table.apply_gate(gate)
                x = np.array([p.x for p in paulis])
                z = np.array([p.z for p in paulis])
                phases = np.array([p.phase for p in paulis], dtype=np.int64)
                apply_gate_to_rows(x, z, phases, gate)
                expected = PackedPauliTable.from_bool_arrays(x, z, phases % 4)
                assert np.array_equal(table.x_words, expected.x_words), name
                assert np.array_equal(table.z_words, expected.z_words), name
                assert np.array_equal(table.phases, expected.phases), name

    def test_gate_outside_register_rejected(self):
        table = PackedPauliTable.from_paulis([PauliString.from_label("XX")])
        with pytest.raises(PauliError):
            table.apply_gate(Gate("h", (5,)))


class TestPauliStringPackedView:
    """PauliString is a thin view over packed words."""

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=130).flatmap(
            lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
        ),
        st.sampled_from([1, -1]),
    )
    def test_label_roundtrip_across_word_boundaries(self, label, sign):
        pauli = PauliString.from_label(label, sign=sign)
        assert PauliString.from_label(pauli.to_label()) == pauli
        # The boolean views agree with the packed words.
        assert np.array_equal(pack_bits(pauli.x), pauli.x_words)
        assert np.array_equal(pack_bits(pauli.z), pauli.z_words)

    def test_letter_negative_index_and_bounds(self):
        pauli = PauliString.from_label("XYZ")
        assert pauli.letter(-1) == "X"  # numpy-style negative indexing
        assert pauli.letter(-3) == "Z"
        with pytest.raises(IndexError):
            pauli.letter(3)
        with pytest.raises(IndexError):
            pauli.letter(-4)

    def test_bool_views_are_read_only(self):
        pauli = PauliString.from_label("XYZ")
        with pytest.raises(ValueError):
            pauli.x[0] = False
        with pytest.raises(ValueError):
            pauli.z[0] = True

    def test_packed_algebra_matches_wide_registers(self, rng):
        # compose / commutes_with run on words; cross-check vs the 2x2-block
        # definitions on registers wider than one word.
        for _ in range(10):
            first = random_pauli(rng, 70)
            second = random_pauli(rng, 70)
            product = first @ second
            # anticommutation parity from per-qubit counts
            overlap = int(np.count_nonzero((first.x & second.z) ^ (first.z & second.x)))
            assert first.commutes_with(second) == (overlap % 2 == 0)
            assert np.array_equal(product.x, first.x ^ second.x)
            assert np.array_equal(product.z, first.z ^ second.z)

    def test_from_words_rejects_wrong_shape(self):
        with pytest.raises(PauliError):
            PauliString.from_words(
                65, np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64)
            )


class TestSparsePauliSumPackedView:
    def test_sum_is_backed_by_table(self):
        observable = SparsePauliSum.from_labels(["XX", "YY", "ZZ"], [1.0, -2.0, 0.5])
        table = observable.packed_table
        assert isinstance(table, PackedPauliTable)
        assert len(table) == 3
        assert [table.row(i).to_label() for i in range(3)] == ["XX", "YY", "ZZ"]

    def test_from_packed_lazy_terms(self):
        table = PackedPauliTable.from_paulis(
            [PauliString.from_label("XI"), PauliString.from_label("-ZZ")]
        )
        observable = SparsePauliSum.from_packed(table, [2.0, 3.0])
        # The -ZZ sign folds into the coefficient; the stored row is bare.
        assert observable.coefficients == [2.0, -3.0]
        assert observable.labels() == ["XI", "ZZ"]
        assert [t.coefficient for t in observable.terms] == [2.0, -3.0]

    def test_from_packed_rejects_non_hermitian(self):
        table = PackedPauliTable.from_paulis([PauliString.from_label("+iX")])
        with pytest.raises(PauliError):
            SparsePauliSum.from_packed(table, [1.0])

    def test_simplified_still_merges(self):
        observable = SparsePauliSum.from_labels(["XX", "XX", "ZZ"], [1.0, 2.0, 1e-15])
        simplified = observable.simplified()
        assert simplified.labels() == ["XX"]
        assert simplified.coefficients == [3.0]

    def test_conjugated_by_tableau(self, rng):
        from repro.clifford.tableau import CliffordTableau

        from tests.conftest import random_clifford_circuit, random_pauli_terms

        terms = random_pauli_terms(rng, 5, 12)
        observable = SparsePauliSum(PauliTerm(t.pauli, t.coefficient) for t in terms)
        circuit = random_clifford_circuit(rng, 5, 30)
        tableau = CliffordTableau.from_circuit(circuit)
        conjugated = observable.conjugated_by(tableau)
        for term, original in zip(conjugated.terms, observable.terms):
            image = tableau.conjugate(original.pauli)
            sign = float(np.real(image.sign))
            assert term.pauli == image.bare()
            assert term.coefficient == pytest.approx(sign * original.coefficient)


class TestSuffixApplication:
    """The in-place suffix primitives the table-native extractor runs on."""

    def _random_table(self, rng, num_qubits=70, rows=8):
        return PackedPauliTable.from_paulis(
            random_pauli(rng, num_qubits) for _ in range(rows)
        )

    def test_apply_gates_suffix_leaves_prefix_untouched(self, rng):
        table = self._random_table(rng)
        reference = table.copy()
        gates = [Gate("h", (3,)), Gate("cx", (3, 67)), Gate("sdg", (67,))]
        table.apply_gates(gates, start=5)
        for index in range(5):
            assert table.row(index) == reference.row(index)
        for index in range(5, len(table)):
            expected = reference.row(index)
            for gate in gates:
                from repro.clifford.conjugation import conjugate_pauli_by_gate

                expected = conjugate_pauli_by_gate(expected, gate)
            assert table.row(index) == expected

    def test_apply_basis_layer_matches_gate_stream(self, rng):
        from repro.synthesis.pauli_rotation import basis_change_gates

        for _ in range(10):
            current = random_pauli(rng, 66)
            table = self._random_table(rng, num_qubits=66, rows=6)
            streamed = table.copy()
            streamed.apply_gates(basis_change_gates(current))
            table.apply_basis_layer(
                current.x_words & current.z_words, current.x_words.copy()
            )
            assert np.array_equal(table.x_words, streamed.x_words)
            assert np.array_equal(table.z_words, streamed.z_words)
            assert np.array_equal(table.phases, streamed.phases)

    def test_weights_range_and_argsort(self):
        table = PackedPauliTable.from_labels(["XXXX", "IIIZ", "XYII", "IIII", "ZIIZ"])
        assert list(table.weights()) == [4, 1, 2, 0, 2]
        assert list(table.weights(start=1, stop=4)) == [1, 2, 0]
        order = table.argsort_weights()
        assert list(order) == [3, 1, 2, 4, 0]  # stable: ties keep row order

    def test_sum_weight_queries(self):
        observable = SparsePauliSum.from_labels(["XXII", "IIIZ", "XYZI"], [1.0, 2.0, 3.0])
        assert list(observable.weights()) == [2, 1, 3]
        assert list(observable.argsort_by_weight()) == [1, 0, 2]
