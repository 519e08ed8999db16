"""``CompiledTemplate.replay``: the per-bind step ``bind`` and ``POST /bind`` share."""

import sys

import numpy as np
import pytest

import repro
from repro.circuits.gate import Gate
from repro.exceptions import InvalidProgramError
from repro.parametric import ParametricProgram, compile_template
from repro.paulis.term import PauliTerm

from tests.conftest import random_pauli_terms


def _template(level=3):
    terms = random_pauli_terms(np.random.default_rng(7), 4, 8)
    program = ParametricProgram.from_terms(terms, [index % 2 for index in range(8)])
    return program, compile_template(program, level=level)


class TestReplay:
    def test_replay_carries_what_bind_assembles(self):
        program, template = _template()
        replay = template.replay([0.4, -1.2])
        assert replay.fallback is None
        assert replay.coefficients == program.evaluate([0.4, -1.2]).tolist()
        rotations = [gate.params[0] for gate in template.assemble(replay).circuit if gate.params]
        assert rotations == replay.angles
        assert template.assemble(replay).circuit == template.bind([0.4, -1.2]).circuit

    def test_replay_and_bind_share_the_counters(self):
        _, template = _template()
        template.replay([0.1, 0.2])
        template.bind([0.3, 0.4])
        assert template.binds == 2
        assert template.fallback_binds == 0

    def test_degenerate_replay_carries_the_full_compile(self):
        program, template = _template()
        params = [0.0, 1.3]  # a zero coefficient lands in the kill window
        replay = template.replay(params)
        assert replay.angles is None and replay.coefficients is None
        assert template.fallback_binds == 1
        reference = repro.compile(program.to_sum(params), level=3)
        assert replay.fallback.circuit == reference.circuit
        assert template.bind(params).circuit == reference.circuit

    def test_replay_validates_before_counting(self):
        _, template = _template()
        with pytest.raises(InvalidProgramError):
            template.replay([float("nan"), 0.2])
        assert template.binds == 0


class TestBoundObjectLayout:
    """Bound gates and terms carry the compact, key-sharing instance dict."""

    def test_bound_gate_dict_matches_a_constructed_gate(self):
        _, template = _template()
        bound = next(gate for gate in template.bind([0.5, 0.7]).circuit if gate.params)
        constructed = Gate(bound.name, bound.qubits, bound.params)
        assert bound == constructed
        assert sys.getsizeof(bound.__dict__) == sys.getsizeof(constructed.__dict__)

    def test_bound_term_dict_matches_a_constructed_term(self):
        _, template = _template()
        bound = template.bind([0.5, 0.7]).extraction.terms[0]
        constructed = PauliTerm(bound.pauli, bound.coefficient)
        assert bound == constructed
        assert sys.getsizeof(bound.__dict__) == sys.getsizeof(constructed.__dict__)
