"""Bit-for-bit equivalence: table-native extractor vs. the legacy loop.

The table-native :class:`~repro.core.extraction.CliffordExtractor` must
reproduce the legacy per-term implementation exactly — identical unmerged
emission, identical extracted Clifford tail, identical conjugation tableau
(bit patterns *and* phases) — on every input and under every feature-flag
combination, because the legacy loop is the repository's phase-convention
ground truth (see ``repro/core/extraction_legacy.py``).  The circuit it
returns merges rotations, so it must equal the streaming peephole engine run
over the legacy emission.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.extraction import CliffordExtractor, _conjugate_through_gates
from repro.core.extraction_legacy import LegacyCliffordExtractor
from repro.core.tree_synthesis import _chain_tree_replay, chain_tree_cost, synthesize_tree
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm
from repro.transpile.wire_optimizer import streaming_peephole_optimize

from tests.conftest import random_clifford_circuit, random_pauli_terms

FLAG_COMBOS = [
    {},
    {"reorder_within_blocks": False},
    {"recursive_tree": False},
    {"cross_block_lookahead": False},
    {"max_lookahead": 1},
    {"max_lookahead": 3},
    {"reorder_within_blocks": False, "recursive_tree": False},
]


def random_sparse_terms(
    rng: np.random.Generator, num_qubits: int, num_terms: int, density: float = 0.2
) -> list[PauliTerm]:
    """Random terms with sparse supports — what >64-qubit programs look like."""
    terms = []
    for _ in range(num_terms):
        x = rng.random(num_qubits) < density
        z = rng.random(num_qubits) < density
        if not (x.any() or z.any()):
            x[int(rng.integers(num_qubits))] = True
        phase = int(np.count_nonzero(x & z)) + 2 * int(rng.integers(2))
        terms.append(PauliTerm(PauliString(x, z, phase), float(rng.normal())))
    return terms


def assert_bit_identical(terms, **flags) -> None:
    packed = CliffordExtractor(**flags).extract(terms)
    _, merges = CliffordExtractor(**flags).trace(terms)
    legacy = LegacyCliffordExtractor(**flags).extract(
        list(terms) if isinstance(terms, SparsePauliSum) else terms
    )
    assert merges.unmerged_gates() == legacy.optimized_circuit.gates
    assert packed.optimized_circuit.gates == streaming_peephole_optimize(
        legacy.optimized_circuit
    ).gates
    assert packed.extracted_clifford == legacy.extracted_clifford
    # content_key covers the symplectic bits AND the row phases of the tableau
    assert packed.conjugation.content_key() == legacy.conjugation.content_key()
    assert packed.rotation_count == legacy.rotation_count
    assert packed.metadata["num_blocks"] == legacy.metadata["num_blocks"]


class TestRandomizedEquivalence:
    def test_small_registers_all_flags(self, rng):
        for _ in range(10):
            num_qubits = int(rng.integers(2, 6))
            terms = random_pauli_terms(rng, num_qubits, int(rng.integers(2, 10)))
            for flags in FLAG_COMBOS:
                assert_bit_identical(terms, **flags)

    def test_mixed_block_sizes(self, rng):
        """Programs engineered to split into blocks of very different sizes."""
        terms = []
        # a large all-Z commuting block...
        for _ in range(12):
            terms.extend(random_pauli_terms(rng, 5, 1))
            z = np.zeros(5, dtype=bool)
            z[rng.integers(0, 5)] = True
            terms.append(PauliTerm(PauliString(np.zeros(5, bool), z), 0.3))
        # ...interleaved with anticommuting singletons
        assert_bit_identical(terms)
        assert_bit_identical(terms, reorder_within_blocks=False)

    def test_beyond_64_qubits(self, rng):
        """Multi-word packed rows (the 64-qubit word boundary) stay exact."""
        for num_qubits in (65, 70, 130):
            terms = random_sparse_terms(rng, num_qubits, 8)
            assert_bit_identical(terms)
            assert_bit_identical(terms, max_lookahead=2)

    def test_negative_signs_and_identity_terms(self, rng):
        terms = [
            PauliTerm(PauliString.from_label("-ZZXI"), 0.4),
            PauliTerm.from_label("IIII", 0.9),
            PauliTerm.from_label("XYIZ", -0.2),
            PauliTerm(PauliString.from_label("-YYYY"), 1.1),
        ]
        for flags in FLAG_COMBOS:
            assert_bit_identical(terms, **flags)

    def test_sum_input_matches_term_input(self, rng):
        terms = random_pauli_terms(rng, 5, 14)
        observable = SparsePauliSum(terms)
        assert_bit_identical(observable)
        packed_from_sum = CliffordExtractor().extract(observable)
        packed_from_terms = CliffordExtractor().extract(terms)
        assert packed_from_sum.optimized_circuit == packed_from_terms.optimized_circuit
        assert (
            packed_from_sum.conjugation.content_key()
            == packed_from_terms.conjugation.content_key()
        )

    def test_block_bounds_input_matches_blocks_input(self, rng):
        from repro.core.commuting import convert_commute_sets

        terms = random_pauli_terms(rng, 4, 12)
        blocks = convert_commute_sets(terms)
        bounds = [0]
        for block in blocks:
            bounds.append(bounds[-1] + len(block))
        via_blocks = CliffordExtractor().extract(terms, blocks=blocks)
        via_bounds = CliffordExtractor().extract(terms, block_bounds=bounds)
        assert via_blocks.optimized_circuit == via_bounds.optimized_circuit
        assert via_blocks.conjugation.content_key() == via_bounds.conjugation.content_key()


def letter_counts(x_bits, z_bits) -> tuple[int, int, int, int]:
    """How many ``(x, z)`` bit pairs are Z, I, Y and X: ``chain_tree_cost``'s arguments."""
    letters = [(int(x_bit), int(z_bit)) for x_bit, z_bit in zip(x_bits, z_bits)]
    return tuple(letters.count(bits) for bits in ((0, 1), (0, 0), (1, 1), (1, 0)))


class TestChainTreeCostModel:
    def test_matches_explicit_tree_conjugation(self, rng):
        """The replay and the count form equal synthesize_tree + conjugation."""
        for _ in range(120):
            size = int(rng.integers(1, 9))
            support = sorted(
                int(q) for q in rng.choice(16, size=size, replace=False)
            )
            x_bits = [int(b) for b in rng.integers(0, 2, size)]
            z_bits = [int(b) for b in rng.integers(0, 2, size)]
            # build the guide on the full register from its support bits
            x = np.zeros(16, dtype=bool)
            z = np.zeros(16, dtype=bool)
            for qubit, x_bit, z_bit in zip(support, x_bits, z_bits):
                x[qubit] = bool(x_bit)
                z[qubit] = bool(z_bit)
            guide = PauliString(x, z, int(np.count_nonzero(x & z)))
            gates, _ = synthesize_tree(
                support, lambda depth: guide if depth == 0 else None, recursive=False
            )
            expected = _conjugate_through_gates(guide, gates).weight
            assert _chain_tree_replay(x_bits, z_bits) == expected
            assert chain_tree_cost(*letter_counts(x_bits, z_bits)) == expected

    def test_counts_match_the_replay_on_every_short_guide(self):
        """All 87 380 letter sequences of length 1-8 (494 distinct counts)."""
        bits = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
        keys = set()
        for length in range(1, 9):
            for letters in itertools.product("IXYZ", repeat=length):
                x_bits = [bits[letter][0] for letter in letters]
                z_bits = [bits[letter][1] for letter in letters]
                counts = letter_counts(x_bits, z_bits)
                keys.add(counts)
                assert chain_tree_cost(*counts) == _chain_tree_replay(x_bits, z_bits), letters
        assert len(keys) == 494

    def test_identity_guide_costs_zero(self):
        assert chain_tree_cost(0, 3, 0, 0) == 0
        assert _chain_tree_replay([0, 0, 0], [0, 0, 0]) == 0

    def test_all_z_guide_costs_one(self):
        assert chain_tree_cost(4, 0, 0, 0) == 1
        assert _chain_tree_replay([0, 0, 0, 0], [1, 1, 1, 1]) == 1


def labs_like_terms(
    rng: np.random.Generator, num_qubits: int, num_terms: int, letter: str
) -> list[PauliTerm]:
    """Weight-2 and weight-4 strings of one letter: a single commuting block."""
    terms = []
    for _ in range(num_terms):
        support = np.zeros(num_qubits, dtype=bool)
        support[rng.choice(num_qubits, int(rng.choice([2, 4])), replace=False)] = True
        x = support if letter in "XY" else np.zeros(num_qubits, dtype=bool)
        z = support if letter in "ZY" else np.zeros(num_qubits, dtype=bool)
        phase = int(np.count_nonzero(x & z))
        terms.append(PauliTerm(PauliString(x, z, phase), float(rng.uniform(-3.0, 3.0))))
    return terms


class TestRebase:
    """Programs long enough that the extractor drops emitted rows from its
    columns (``REBASE_ROWS``) more than once, held to the legacy loop."""

    @pytest.fixture
    def rebases(self, monkeypatch):
        from repro.paulis.columns import PauliColumns

        dropped: list[int] = []
        drop_rows = PauliColumns.drop_rows

        def spy(columns, count):
            dropped.append(count)
            drop_rows(columns, count)

        monkeypatch.setattr(PauliColumns, "drop_rows", spy)
        return dropped

    @staticmethod
    def assert_rebased_twice(rebases) -> None:
        from repro.core.extraction import REBASE_ROWS

        # assert_bit_identical runs the extractor twice (extract and trace)
        assert len(rebases) >= 4
        assert min(rebases) >= REBASE_ROWS

    def test_many_small_blocks(self, rng, rebases):
        terms = random_pauli_terms(rng, 8, 600)
        for flags in ({}, {"max_lookahead": 3}):
            rebases.clear()
            assert_bit_identical(terms, **flags)
            self.assert_rebased_twice(rebases)

    def test_two_long_blocks(self, rng, rebases):
        terms = labs_like_terms(rng, 6, 300, "Z") + labs_like_terms(rng, 6, 300, "X")
        assert_bit_identical(terms)
        self.assert_rebased_twice(rebases)

    def test_one_long_block_in_program_order(self, rng, rebases):
        terms = labs_like_terms(rng, 8, 600, "Z")
        assert_bit_identical(terms, reorder_within_blocks=False)
        self.assert_rebased_twice(rebases)

    def test_one_long_z_block_reordered(self, rng, rebases):
        """One 600-row block, so the kept selection count is shifted by a
        rebase in the middle of the block."""
        from repro.core.extraction import REBASE_ROWS

        terms = labs_like_terms(rng, 20, 600, "Z")
        assert CliffordExtractor().extract(terms).metadata["num_blocks"] == 1
        rebases.clear()
        assert_bit_identical(terms)
        # once in each of the two extractor runs
        assert len(rebases) >= 2 and min(rebases) >= REBASE_ROWS

    def test_beyond_64_qubits(self, rng, rebases):
        terms = random_sparse_terms(rng, 70, 540, density=0.05)
        assert_bit_identical(terms)
        self.assert_rebased_twice(rebases)


class TestExtractionResultParity:
    def test_terms_field_preserves_input_order(self, rng):
        terms = random_pauli_terms(rng, 4, 9)
        result = CliffordExtractor().extract(terms)
        assert result.terms == terms

    def test_empty_program_rejected(self):
        with pytest.raises(Exception):
            CliffordExtractor().extract([])

    def test_mismatched_block_bounds_rejected(self, rng):
        terms = random_pauli_terms(rng, 3, 5)
        with pytest.raises(Exception):
            CliffordExtractor().extract(terms, block_bounds=[0, 2])


def zz_term(num_qubits: int, a: int, b: int, angle: float) -> PauliTerm:
    z = np.zeros(num_qubits, dtype=bool)
    z[[a, b]] = True
    return PauliTerm(PauliString(np.zeros(num_qubits, dtype=bool), z), angle)


class TestTieHeavySelection:
    """Single large commuting blocks where many candidates tie on cost.

    The selection visits candidates by weight class and row, not in the
    legacy index order, so ties are where the two could part ways.
    """

    @pytest.mark.parametrize("reorder", [True, False])
    def test_zz_rings(self, reorder):
        for num_qubits in (4, 9, 16):
            ring = [
                zz_term(num_qubits, q, (q + 1) % num_qubits, 0.1 * (q + 1))
                for q in range(num_qubits)
            ]
            assert_bit_identical(ring + ring, reorder_within_blocks=reorder)

    @pytest.mark.parametrize("reorder", [True, False])
    def test_complete_graph_maxcut(self, reorder):
        for num_qubits in (5, 8):
            terms = [
                zz_term(num_qubits, a, b, 0.3)
                for a in range(num_qubits)
                for b in range(a + 1, num_qubits)
            ]
            assert_bit_identical(terms, reorder_within_blocks=reorder)
            assert_bit_identical(terms, reorder_within_blocks=reorder, recursive_tree=False)

    @pytest.mark.parametrize("reorder", [True, False])
    def test_shuffled_labs(self, rng, reorder):
        from repro.workloads.registry import get_benchmark

        terms = get_benchmark("LABS-(n10)").terms()
        for _ in range(2):
            order = rng.permutation(len(terms))
            assert_bit_identical([terms[i] for i in order], reorder_within_blocks=reorder)

    @pytest.mark.parametrize("reorder", [True, False])
    def test_clifford_scrambled_commuting_blocks(self, rng, reorder):
        """Z strings pushed through a random Clifford: one block, mixed letters,
        candidate costs spread over many weight classes."""
        from repro.clifford.engine import conjugate_paulis_by_circuit

        for num_qubits in (6, 9):
            z_strings = [
                PauliString(np.zeros(num_qubits, dtype=bool), rng.random(num_qubits) < 0.4)
                for _ in range(40)
            ]
            circuit = random_clifford_circuit(rng, num_qubits, 3 * num_qubits)
            paulis = conjugate_paulis_by_circuit(z_strings, circuit)
            terms = [PauliTerm(p, float(rng.normal())) for p in paulis]
            assert_bit_identical(terms, reorder_within_blocks=reorder)

    def test_ring_beyond_64_qubits(self):
        num_qubits = 70
        ring = [zz_term(num_qubits, q, (q + 1) % num_qubits, 0.2) for q in range(num_qubits)]
        chords = [zz_term(num_qubits, q, (q + 35) % num_qubits, 0.4) for q in range(0, 70, 7)]
        assert_bit_identical(ring + chords)


class TestSelectionArgmin:
    """``_find_next_row`` against an exhaustive argmin over (cost, row)."""

    @staticmethod
    def brute_force(table, candidates, support):
        best = None
        for row in candidates:
            pauli = table.row(row)
            off_weight = sum(
                1 for q in range(table.num_qubits) if q not in support and pauli.letter(q) != "I"
            )
            on_support = [pauli.letter(q) for q in support]
            cost = off_weight + _chain_tree_replay(
                [int(letter in "XY") for letter in on_support],
                [int(letter in "ZY") for letter in on_support],
            )
            best = min(best, (cost, row)) if best is not None else (cost, row)
        return best[1]

    @pytest.mark.parametrize("num_qubits, density", [(4, 0.3), (10, 0.3), (10, 0.7), (70, 0.05)])
    def test_random_tables(self, rng, num_qubits, density):
        from repro.core.extraction import _OffSupportCount
        from repro.paulis.columns import PauliColumns
        from repro.paulis.packed import PackedPauliTable

        extractor = CliffordExtractor()
        for _ in range(40):
            rows = int(rng.integers(2, 40))
            x = rng.random((rows, num_qubits)) < density
            z = rng.random((rows, num_qubits)) < density
            table = PackedPauliTable.from_bool_arrays(x, z, np.count_nonzero(x & z, axis=1))
            columns = PauliColumns.from_table(table)
            support = sorted(
                int(q)
                for q in rng.choice(num_qubits, int(rng.integers(1, min(7, num_qubits))), replace=False)
            )
            candidates = [r for r in range(rows) if rng.random() < 0.7] or [0]
            mask = sum(1 << r for r in candidates)
            counters = dict.fromkeys(["candidates_scored"], 0)
            chosen = extractor._find_next_row(
                columns, mask, support, counters, _OffSupportCount(num_qubits)
            )
            assert chosen == self.brute_force(table, candidates, support)
            assert counters["candidates_scored"] <= len(candidates)

    @pytest.mark.parametrize("num_qubits", [6, 70])
    def test_one_count_across_calls(self, rng, num_qubits):
        """The kept count through tree-like gates on the support, single-qubit
        gates anywhere, a rebase and a block reset, each call against the
        exhaustive argmin."""
        from repro.circuits.gate import Gate
        from repro.core.extraction import _OffSupportCount
        from repro.paulis.columns import PauliColumns
        from repro.paulis.packed import PackedPauliTable

        rows = 60
        density = 0.3 if num_qubits < 10 else 0.05
        x = rng.random((rows, num_qubits)) < density
        z = rng.random((rows, num_qubits)) < density
        table = PackedPauliTable.from_bool_arrays(x, z, np.count_nonzero(x & z, axis=1))
        columns = PauliColumns.from_table(table)
        extractor = CliffordExtractor()
        off_support = _OffSupportCount(num_qubits)
        waiting = (1 << 30) - 1
        for calls in range(1, 25):
            support = sorted(
                int(q) for q in rng.choice(num_qubits, int(rng.integers(1, 6)), replace=False)
            )
            candidates = [r for r in range(columns.num_rows) if waiting >> r & 1]
            counters = {"candidates_scored": 0}
            chosen = extractor._find_next_row(columns, waiting, support, counters, off_support)
            assert chosen == self.brute_force(columns.to_table(), candidates, support)
            gates = []
            for _ in range(int(rng.integers(0, 4))):
                if len(support) > 1:
                    control, target = rng.choice(support, 2, replace=False)
                    gates.append(Gate("cx", (int(control), int(target))))
            for _ in range(int(rng.integers(0, 4))):
                gates.append(Gate(str(rng.choice(["h", "sdg"])), (int(rng.integers(num_qubits)),)))
            columns.apply_gates(gates)
            # emit the lowest waiting row, as the extraction loop does
            waiting &= waiting - 1
            if calls == 8:
                dead = (waiting & -waiting).bit_length() - 1
                columns.drop_rows(dead)
                off_support.shift(dead)
                waiting >>= dead
            if calls == 16 or waiting & (waiting - 1) == 0:
                # a new block: the next rows, counted from scratch
                low = waiting.bit_length()
                waiting = ((1 << columns.num_rows) - 1) >> low << low
                off_support = _OffSupportCount(num_qubits)


class TestStageCounters:
    def test_counters_describe_the_emitted_gates(self, rng):
        terms = random_pauli_terms(rng, 6, 30)
        result = CliffordExtractor().extract(terms)
        counters = result.metadata["stage_counters"]
        assert set(counters) == {
            "rotations", "basis_gates", "tree_cx", "candidates_scored", "rows_moved",
            "rotations_merged",
        }
        assert all(isinstance(value, int) for value in counters.values())
        assert counters["rotations"] == result.rotation_count
        assert counters["basis_gates"] + counters["tree_cx"] == len(result.extracted_clifford)
        assert counters["rows_moved"] <= counters["rotations"]

    def test_probed_names_are_called_per_score_and_per_term(self, monkeypatch):
        """The traced benchmark counts calls to these module-level names, so
        the extractor must call each one where the counters say the work is:
        the cost once per scored candidate, the tree and the stream once per
        non-identity term."""
        import repro.core.extraction as extraction
        from repro.workloads.registry import get_benchmark

        calls = dict.fromkeys(("chain_tree_cost", "synthesize_tree", "stream_gates_over_suffix"), 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(extraction, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(extraction, name, counted)
        terms = get_benchmark("LABS-(n10)").terms()
        terms.append(PauliTerm.from_label("I" * terms[0].num_qubits, 0.3))
        counters = CliffordExtractor().extract(terms).metadata["stage_counters"]
        assert counters["candidates_scored"] > 0
        assert calls["chain_tree_cost"] == counters["candidates_scored"]
        assert counters["rotations"] == len(terms) - 1
        assert calls["synthesize_tree"] == calls["stream_gates_over_suffix"] == len(terms) - 1

    def test_no_selection_without_reordering(self, rng):
        terms = random_pauli_terms(rng, 5, 20)
        counters = CliffordExtractor(reorder_within_blocks=False).extract(terms).metadata[
            "stage_counters"
        ]
        assert counters["candidates_scored"] == counters["rows_moved"] == 0

    @pytest.mark.parametrize(
        "name, legacy_scored",
        # chain_tree_cost calls of the row-major branch-and-bound this replaced
        [("LABS-(n15)", 1492), ("MaxCut-(n20, r12)", 646), ("LABS-(n20)", 2974)],
    )
    def test_scores_no_more_candidates_than_before(self, name, legacy_scored):
        import repro
        from repro.workloads.registry import get_benchmark

        result = repro.compile(get_benchmark(name).terms(), level=3)
        assert result.extraction.metadata["stage_counters"]["candidates_scored"] <= legacy_scored
