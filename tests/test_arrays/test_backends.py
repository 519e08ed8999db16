"""Backend equivalence: every ArrayBackend computes the same function.

The pure-Python :class:`ReferenceBackend` is the ground truth — its word ops
are python-int arithmetic, sharing no vectorized code with the numpy hot
path — so bit-identical agreement here is evidence the packed engine's
semantics survived the backend refactor.  Every check is parameterized over
the registered backends (CuPy joins automatically when installed and skips
cleanly when not) and compares against plain numpy results.
"""

import numpy as np
import pytest

import repro
from repro.arrays import NUMPY, cupy_available, resolve_backend
from repro.clifford.engine import PackedConjugator
from repro.core.commuting import commuting_block_bounds
from repro.paulis.packed import PackedPauliTable
from repro.paulis.sum import SparsePauliSum

from tests.conftest import random_clifford_circuit, random_pauli, random_pauli_terms

BACKEND_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("reference", id="reference"),
    pytest.param(
        "cupy",
        id="cupy",
        marks=pytest.mark.skipif(not cupy_available(), reason="cupy not installed"),
    ),
]


@pytest.fixture(params=BACKEND_PARAMS)
def backend(request):
    return resolve_backend(request.param)


def random_table(rng, num_qubits, num_rows, backend=None):
    paulis = [random_pauli(rng, num_qubits) for _ in range(num_rows)]
    return PackedPauliTable.from_paulis(paulis, backend=backend), paulis


def assert_tables_identical(actual: PackedPauliTable, expected: PackedPauliTable):
    __tracebackhide__ = True
    a, e = actual.to_host(), expected.to_host()
    assert np.array_equal(a.x_words, e.x_words)
    assert np.array_equal(a.z_words, e.z_words)
    assert np.array_equal(a.phases, e.phases)


class TestGateStreaming:
    @pytest.mark.parametrize("num_qubits", [3, 64, 70, 129])
    def test_circuit_application_matches_numpy(self, rng, backend, num_qubits):
        circuit = random_clifford_circuit(rng, num_qubits, 60)
        reference_table, paulis = random_table(rng, num_qubits, 24)
        table = reference_table.copy().to_backend(backend)
        reference_table.apply_circuit(circuit)
        table.apply_circuit(circuit)
        assert table.backend is backend
        assert_tables_identical(table, reference_table)

    def test_single_gates_match(self, rng, backend):
        from repro.circuits.gate import Gate

        names_1q = ["h", "s", "sdg", "sx", "sxdg", "x", "y", "z", "i"]
        names_2q = ["cx", "cz", "swap"]
        reference_table, _ = random_table(rng, 67, 16)
        table = reference_table.copy().to_backend(backend)
        for name in names_1q:
            gate = Gate(name, (65,))
            reference_table.apply_gate(gate)
            table.apply_gate(gate)
            assert_tables_identical(table, reference_table)
        for name in names_2q:
            gate = Gate(name, (2, 66))
            reference_table.apply_gate(gate)
            table.apply_gate(gate)
            assert_tables_identical(table, reference_table)

    def test_basis_layer_matches(self, rng, backend):
        reference_table, _ = random_table(rng, 70, 12)
        table = reference_table.copy().to_backend(backend)
        be = table.backend
        y_mask = reference_table.x_words[0] & reference_table.z_words[0]
        h_mask = reference_table.x_words[0].copy()
        reference_table.apply_basis_layer(y_mask, h_mask, start=1)
        table.apply_basis_layer(
            be.asarray_words(y_mask), be.asarray_words(h_mask), start=1
        )
        assert_tables_identical(table, reference_table)


class TestDerivedQuantities:
    def test_weights_and_sorting_match(self, rng, backend):
        reference_table, _ = random_table(rng, 100, 20)
        table = reference_table.to_backend(backend)
        assert np.array_equal(table.weights(), reference_table.weights())
        assert np.array_equal(table.num_y(), reference_table.num_y())
        assert np.array_equal(table.argsort_weights(), reference_table.argsort_weights())

    def test_row_keys_and_signs_match(self, rng, backend):
        reference_table, _ = random_table(rng, 66, 10)
        table = reference_table.to_backend(backend)
        assert np.array_equal(table.signs(), reference_table.signs())
        assert np.array_equal(table.hermitian_mask(), reference_table.hermitian_mask())
        for row in range(len(table)):
            assert table.row_key(row) == reference_table.row_key(row)

    def test_commuting_bounds_match(self, rng, backend):
        terms = random_pauli_terms(rng, 40, 50)
        reference_table = PackedPauliTable.from_paulis(t.pauli for t in terms)
        table = reference_table.to_backend(backend)
        assert commuting_block_bounds(table) == commuting_block_bounds(reference_table)


class TestConjugation:
    def test_conjugate_table_matches(self, rng, backend):
        circuit = random_clifford_circuit(rng, 68, 80)
        reference_conjugator = PackedConjugator.from_circuit(circuit)
        conjugator = PackedConjugator.from_circuit(circuit, backend=backend)
        reference_table, _ = random_table(rng, 68, 18)
        out_ref = reference_conjugator.conjugate_table(reference_table)
        out = conjugator.conjugate_table(reference_table.to_backend(backend))
        assert out.backend is backend
        assert_tables_identical(out, out_ref)
        assert conjugator.content_key() == reference_conjugator.content_key()


class TestCompileEquivalence:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_levels_bit_identical_across_backends(self, rng, backend, level):
        terms = random_pauli_terms(rng, 12, 30)
        reference_result = repro.compile(terms, level=level)
        result = repro.compile(terms, level=level, backend=backend)
        assert result.metadata["array_backend"] == backend.name
        assert result.circuit == reference_result.circuit
        if reference_result.extracted_clifford is not None:
            assert result.extracted_clifford == reference_result.extracted_clifford
            assert (
                result.extraction.conjugation.content_key()
                == reference_result.extraction.conjugation.content_key()
            )

    def test_sum_input_round_trips(self, rng, backend):
        terms = random_pauli_terms(rng, 10, 20)
        observable = SparsePauliSum(terms)
        reference_result = repro.compile(observable, level=3)
        result = repro.compile(observable, level=3, backend=backend)
        assert result.circuit == reference_result.circuit


class TestBoundary:
    def test_tableau_stays_host_side(self, rng, backend):
        terms = random_pauli_terms(rng, 8, 16)
        result = repro.compile(terms, level=3, backend=backend)
        rows = result.extraction.conjugation._rows
        assert rows.backend is NUMPY
        assert isinstance(rows.x_words, np.ndarray)

    def test_to_backend_to_host_round_trip(self, rng, backend):
        reference_table, _ = random_table(rng, 65, 9)
        table = reference_table.to_backend(backend)
        assert table.to_backend(backend) is table
        back = table.to_host()
        assert back.backend is NUMPY
        assert_tables_identical(back, reference_table)


class TestCacheKeyIndependence:
    def test_cache_key_is_backend_independent(self, rng, backend):
        from repro.service.cache import cache_key

        terms = random_pauli_terms(rng, 9, 14)
        observable = SparsePauliSum(terms)
        key = cache_key(observable)
        moved = SparsePauliSum.from_packed(
            observable.packed_table.to_backend(backend),
            observable.coefficient_vector(),
        )
        assert cache_key(moved) == key

    def test_wire_serialization_is_backend_independent(self, rng, backend):
        from repro.service.serialize import result_from_wire, result_to_wire

        terms = random_pauli_terms(rng, 8, 12)
        reference_wire = result_to_wire(repro.compile(terms, level=3))
        wire = result_to_wire(repro.compile(terms, level=3, backend=backend))
        # payloads differ only in the recorded backend name
        ref_meta = dict(reference_wire["metadata"])
        meta = dict(wire["metadata"])
        ref_meta.pop("array_backend"), meta.pop("array_backend")
        ref_meta.pop("pass_timings"), meta.pop("pass_timings")
        assert meta == ref_meta
        restored = result_from_wire(wire)
        assert restored.circuit == result_from_wire(reference_wire).circuit


class TestRawWordKernels:
    def test_apply_gate_to_words_matches_numpy(self, rng, backend):
        from repro.circuits.gate import Gate

        reference_table, _ = random_table(rng, 5, 4)
        raw = reference_table.copy().to_backend(backend)
        backend.apply_gate_to_words(raw.x_words, raw.z_words, raw.phases, Gate("h", (1,)))
        NUMPY.apply_gate_to_words(
            reference_table.x_words,
            reference_table.z_words,
            reference_table.phases,
            Gate("h", (1,)),
        )
        assert_tables_identical(raw, reference_table)


class TestTargetIntegration:
    def test_target_array_backend_routes_the_run(self, rng):
        from repro.compiler.target import Target

        terms = random_pauli_terms(rng, 6, 10)
        target = Target.fully_connected(6).with_array_backend("reference")
        result = repro.compile(terms, target=target, level=3)
        assert result.metadata["array_backend"] == "reference"

    def test_explicit_argument_wins_over_target(self, rng):
        from repro.compiler.target import Target

        terms = random_pauli_terms(rng, 6, 10)
        target = Target.fully_connected(6).with_array_backend("reference")
        result = repro.compile(terms, target=target, level=3, backend="numpy")
        assert result.metadata["array_backend"] == "numpy"

    def test_env_override_applies_when_nothing_explicit(self, rng, monkeypatch):
        from repro.arrays import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "reference")
        terms = random_pauli_terms(rng, 6, 10)
        result = repro.compile(terms, level=2)
        assert result.metadata["array_backend"] == "reference"

    def test_target_rejects_bad_backend_type(self):
        from repro.compiler.target import Target
        from repro.exceptions import CompilerError

        with pytest.raises(CompilerError, match="array_backend"):
            Target(num_qubits=4, array_backend=42)

    def test_presets_carry_no_backend(self):
        from repro.compiler.target import Target

        assert Target.sycamore().array_backend is None
        assert Target.fully_connected(4).array_backend is None

    def test_compile_many_applies_backend(self, rng):
        terms_a = random_pauli_terms(rng, 6, 8)
        terms_b = random_pauli_terms(rng, 6, 8)
        results = repro.compile_many([terms_a, terms_b], backend="reference")
        assert [r.metadata["array_backend"] for r in results] == ["reference"] * 2
        reference = [repro.compile(terms_a), repro.compile(terms_b)]
        assert [r.circuit for r in results] == [r.circuit for r in reference]

    def test_compile_template_accepts_backend(self, rng):
        from repro.parametric import ParametricProgram

        terms = random_pauli_terms(rng, 6, 8)
        program = ParametricProgram.from_terms(
            [t.with_coefficient(1.0) for t in terms], slots=list(range(len(terms)))
        )
        template = repro.compile_template(program, backend="reference")
        angles = [t.coefficient for t in terms]
        bound = template.bind(angles)
        assert bound.circuit == repro.compile(terms, level=3).circuit
