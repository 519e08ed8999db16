"""Templates at levels 2-3 take their merge chains from extraction's record.

``compile_template`` no longer streams the sentinel emission through the
symbolic peephole engine at these levels: the skeleton, rotation positions
and chains are :meth:`CliffordExtractor.trace`'s.  These tests hold that
record to the engine it replaced and to a cold compile.
"""

import numpy as np
import pytest

import repro
from repro.core.extraction import CliffordExtractor
from repro.parametric import ParametricProgram, compile_template
from repro.parametric.template import _EXTRACTION_FLAGS, _diff_results, _SymbolicStream
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm

from tests.conftest import random_pauli_terms


def _exact(circuit) -> list:
    return [(g.name, g.qubits, tuple(float(p).hex() for p in g.params)) for g in circuit]


def _duplicates_program() -> ParametricProgram:
    """``XY`` three times with other strings between: a chain of three terms."""
    labels = ["XY", "ZZ", "XY", "YI", "XY", "ZX"]
    terms = [PauliTerm.from_label(label, 1.0) for label in labels]
    return ParametricProgram.from_terms(terms, list(range(len(terms))))


def _bait_programs():
    """Random programs with appended duplicate and negated-duplicate strings."""
    programs = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        terms = random_pauli_terms(rng, int(rng.integers(2, 5)), int(rng.integers(4, 12)))
        for _ in range(3):
            source = terms[int(rng.integers(len(terms)))]
            terms.append(PauliTerm(source.pauli, float(rng.choice([1.0, -1.0]))))
        programs.append(ParametricProgram.from_terms(terms, list(range(len(terms)))))
    return programs


@pytest.mark.parametrize("level", [2, 3])
class TestExtractionChains:
    def test_merged_duplicates_bind_bit_identically(self, level):
        program = _duplicates_program()
        template = compile_template(program, level=level)
        assert max(len(chain) for chain in template._chains) >= 2
        for seed in range(3):
            params = np.random.default_rng(seed).uniform(-7.0, 7.0, program.num_params)
            bound = template.bind(params)
            reference = repro.compile(program.to_sum(params), level=level)
            assert _diff_results(bound, reference) is None
            assert _exact(bound.circuit) == _exact(reference.circuit)
        assert template.fallback_binds == 0

    def test_vanishing_merged_sum_takes_the_fallback(self, level):
        program = _duplicates_program()
        template = compile_template(program, level=level)
        chain = next(chain for chain in template._chains if len(chain) >= 2)
        (first, first_sign), (second, second_sign) = chain[:2]
        params = np.full(program.num_params, 0.5)
        # the two entries' signed contributions sum to exactly zero
        params[second] = -first_sign * second_sign * params[first]
        bound = template.bind(params)
        assert template.fallback_binds == 1
        reference = repro.compile(program.to_sum(params), level=level)
        assert _diff_results(bound, reference) is None
        assert _exact(bound.circuit) == _exact(reference.circuit)
        assert len(bound.circuit) < template.skeleton_gate_count

    @pytest.mark.parametrize("program", [_duplicates_program()] + _bait_programs())
    def test_chains_equal_the_symbolic_stream_over_the_unmerged_emission(self, level, program):
        template = compile_template(program, level=level)
        sentinel = SparsePauliSum.from_packed(
            program.table.copy(), np.arange(1, program.num_terms + 1, dtype=np.float64)
        )
        _, merges = CliffordExtractor(**_EXTRACTION_FLAGS[level]).trace(sentinel)
        stream = _SymbolicStream(program.num_qubits, program.num_terms)
        stream.extend(merges.unmerged_gates())
        skeleton, positions, chains = stream.finalize()
        assert template._skeleton == skeleton
        assert template._positions == positions
        assert template._chains == chains

    def test_chains_past_a_rebase_bind_bit_identically(self, level, monkeypatch):
        """A 340-row program: the extractor drops its first emitted rows, and
        the merge chains of the duplicates after them keep absolute rows."""
        from repro.core.extraction import REBASE_ROWS
        from repro.paulis.columns import PauliColumns

        rng = np.random.default_rng(11)
        terms = random_pauli_terms(rng, 5, 300)
        for source in random_pauli_terms(rng, 5, 20):
            terms += [source, PauliTerm(source.pauli, 1.0)]
        program = ParametricProgram.from_terms(terms, list(range(len(terms))))

        dropped: list[int] = []
        drop_rows = PauliColumns.drop_rows
        monkeypatch.setattr(
            PauliColumns, "drop_rows",
            lambda columns, count: (dropped.append(count), drop_rows(columns, count))[1],
        )
        template = compile_template(program, level=level)
        assert dropped and min(dropped) >= REBASE_ROWS
        past_rebase = [
            chain for chain in template._chains
            if len(chain) >= 2 and min(term for term, _ in chain) > dropped[0]
        ]
        assert len(past_rebase) >= 10
        for seed in range(3):
            params = np.random.default_rng(seed).uniform(-7.0, 7.0, program.num_params)
            bound = template.bind(params)
            reference = repro.compile(program.to_sum(params), level=level)
            assert _diff_results(bound, reference) is None
            assert _exact(bound.circuit) == _exact(reference.circuit)
        assert template.fallback_binds == 0
