"""Compact versioned wire format for programs, circuits, and compile results.

Every payload is a JSON-safe ``dict`` tagged with a ``"format"`` string of the
shape ``"repro.<kind>/v<version>"``; :func:`check_format` rejects anything
else with a :class:`~repro.exceptions.WireFormatError`, so a future format
bump degrades into a clear error instead of silent misparsing.

Bit-exactness is the design constraint, not prettiness:

* Pauli programs (:class:`~repro.paulis.sum.SparsePauliSum` or term lists)
  travel as base64 of their **packed** ``uint64`` word matrices plus the raw
  ``float64`` coefficient vector — the store the whole compiler operates on,
  with no per-term repacking on either side.  ``deserialize(serialize(x))``
  reproduces the packed words, phases and coefficients byte-for-byte.
* Circuits (``repro.circuit/v2``) travel as three base64 arrays: one opcode
  byte per gate (``<u1``), a ``(gates, 2)`` matrix of qubit indices
  (``<u4``, the second column unused by one-qubit gates) and the rotation
  angles in gate order (``<f8``), so every angle round-trips bit-exactly and
  decoding is an ``np.frombuffer`` plus one pass that interns the
  parameterless gates.  ``repro.circuit/v1`` payloads (OpenQASM text, as
  artifacts and templates written by earlier releases hold) still decode.
* Clifford tableaus travel as their packed generator rows.
* Whole :class:`~repro.compiler.result.CompilationResult` objects round-trip
  through :func:`result_to_wire` / :func:`result_from_wire` — circuit,
  extracted tail, conjugation tableau, metadata and pass timings included.
  (Python's ``json`` emits floats with ``repr``, so timing floats survive a
  JSON round-trip bit-exactly too.)
* A template's bound results (``POST /bind``) are not re-encoded per bind:
  :class:`BoundResultSkeleton` holds one template's result payload encoded
  once, at its first non-degenerate bind, and each bind splices base64 of
  its fresh angle and coefficient arrays (plus ``compile_seconds``) into
  it.  The spliced bytes equal ``result_to_wire(template.bind(params))``
  encoded with ``json.dumps(..., separators=(",", ":"))``, outside the
  timing fields.

Arrays are encoded with explicit little-endian dtypes so payloads are
portable across hosts.
"""

from __future__ import annotations

import base64
import functools
import json
import re
import uuid
from typing import Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import TWO_QUBIT_GATES, Gate, cached_gate
from repro.circuits.qasm import from_qasm
from repro.clifford.tableau import CliffordTableau
from repro.compiler.context import PropertySet
from repro.compiler.result import CompilationResult
from repro.core.extraction import ExtractionResult
from repro.exceptions import CircuitError, WireFormatError
from repro.paulis.packed import PackedPauliTable, words_for_qubits
from repro.paulis.pauli import PauliString
from repro.paulis.sum import SparsePauliSum
from repro.paulis.term import PauliTerm

#: wire-format version shared by every payload kind
WIRE_VERSION = 1

PROGRAM_FORMAT = f"repro.program/v{WIRE_VERSION}"
PAULI_FORMAT = f"repro.pauli/v{WIRE_VERSION}"
#: circuits moved to opcode/qubit/angle arrays; the QASM form still decodes
CIRCUIT_FORMAT = "repro.circuit/v2"
CIRCUIT_FORMAT_V1 = f"repro.circuit/v{WIRE_VERSION}"
TABLEAU_FORMAT = f"repro.tableau/v{WIRE_VERSION}"
RESULT_FORMAT = f"repro.result/v{WIRE_VERSION}"
PARAMETRIC_FORMAT = f"repro.parametric/v{WIRE_VERSION}"


def check_format(payload: dict, expected: str) -> None:
    """Reject payloads that are not dicts tagged with ``expected``."""
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"expected a {expected!r} payload, got {type(payload).__name__}"
        )
    tag = payload.get("format")
    if tag != expected:
        raise WireFormatError(f"expected format {expected!r}, got {tag!r}")


def _field(payload: dict, key: str, kind: str):
    """A required payload field, as a :class:`WireFormatError` on absence.

    Every structural lookup in the decoders goes through here so that a
    truncated or hand-built payload degrades into the one exception type the
    cache's drop-and-recompile recovery handles, never a bare ``KeyError``.
    """
    try:
        return payload[key]
    except (KeyError, TypeError) as error:
        raise WireFormatError(f"{kind} payload lacks required field {key!r}") from error


def _decoder(kind: str):
    """Turn any structural failure inside a payload decoder into a WireFormatError.

    A damaged payload can still be valid JSON: a ``null`` where a number
    belongs, a list where an object belongs.  Converting those with bare
    ``int()`` / ``float()`` / ``.get`` raises ``TypeError`` and friends, which
    the cache's drop-and-recompile recovery does not handle; this wrapper
    gives every decoder the one exception type it does.
    """

    def wrap(decode):
        @functools.wraps(decode)
        def decoder(payload):
            try:
                return decode(payload)
            except (TypeError, ValueError, AttributeError, KeyError, IndexError) as error:
                raise WireFormatError(f"malformed {kind} payload: {error!r}") from error

        return decoder

    return wrap


# ---------------------------------------------------------------------- #
# Array encoding
# ---------------------------------------------------------------------- #
def encode_array(array: np.ndarray, dtype: str) -> dict:
    """Base64 of ``array`` in explicit little-endian ``dtype``, with shape."""
    contiguous = np.ascontiguousarray(array, dtype=np.dtype(dtype))
    return {
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict, dtype: str) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    try:
        shape = tuple(int(axis) for axis in _field(payload, "shape", "array"))
        raw = base64.b64decode(
            _field(payload, "data", "array").encode("ascii"), validate=True
        )
    except (TypeError, ValueError, AttributeError) as error:
        raise WireFormatError(f"malformed array payload: {error}") from error
    spec = np.dtype(dtype)
    expected = spec.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else spec.itemsize
    if len(raw) != expected:
        raise WireFormatError(
            f"array payload holds {len(raw)} bytes, shape {shape} needs {expected}"
        )
    return np.frombuffer(raw, dtype=spec).reshape(shape).copy()


def _packed_table_fields(table: PackedPauliTable) -> dict:
    return {
        "num_qubits": table.num_qubits,
        "x_words": encode_array(table.x_words, "<u8"),
        "z_words": encode_array(table.z_words, "<u8"),
        "phases": encode_array(table.phases, "<i8"),
    }


def _packed_table_from_fields(payload: dict) -> PackedPauliTable:
    try:
        num_qubits = int(_field(payload, "num_qubits", "packed-table"))
    except (TypeError, ValueError) as error:
        raise WireFormatError(f"malformed packed-table payload: {error}") from error
    x_words = decode_array(_field(payload, "x_words", "packed-table"), "<u8")
    z_words = decode_array(_field(payload, "z_words", "packed-table"), "<u8")
    phases = decode_array(_field(payload, "phases", "packed-table"), "<i8")
    words = words_for_qubits(num_qubits)
    if x_words.ndim != 2 or x_words.shape[1] != words or x_words.shape != z_words.shape:
        raise WireFormatError(
            f"packed words {x_words.shape}/{z_words.shape} do not fit "
            f"{num_qubits} qubits ({words} words per row)"
        )
    return PackedPauliTable(num_qubits, x_words, z_words, phases)


# ---------------------------------------------------------------------- #
# Pauli strings and programs
# ---------------------------------------------------------------------- #
def pauli_to_wire(pauli: PauliString) -> dict:
    """One Pauli string as packed words plus its phase exponent."""
    return {
        "format": PAULI_FORMAT,
        "num_qubits": pauli.num_qubits,
        "x_words": encode_array(pauli.x_words, "<u8"),
        "z_words": encode_array(pauli.z_words, "<u8"),
        "phase": int(pauli.phase),
    }


def pauli_from_wire(payload: dict) -> PauliString:
    check_format(payload, PAULI_FORMAT)
    num_qubits = int(_field(payload, "num_qubits", "Pauli"))
    x_words = decode_array(_field(payload, "x_words", "Pauli"), "<u8")
    z_words = decode_array(_field(payload, "z_words", "Pauli"), "<u8")
    try:
        return PauliString.from_words(
            num_qubits, x_words, z_words, int(_field(payload, "phase", "Pauli"))
        )
    except Exception as error:
        raise WireFormatError(f"malformed Pauli payload: {error}") from error


def program_to_wire(program: Sequence[PauliTerm] | SparsePauliSum) -> dict:
    """A whole Pauli-rotation program (or observable sum) in one payload.

    A :class:`SparsePauliSum` ships its canonical packed store directly; a
    term list is packed once here (the same one-time cost
    :func:`repro.compile` pays).  ``kind`` records which container to
    rebuild, so ``program_from_wire`` hands the compiler exactly the shape
    the client submitted.
    """
    if isinstance(program, SparsePauliSum):
        kind = "sum"
        table = program.packed_table
        coefficients = program.coefficient_vector()
    else:
        term_list = list(program)
        if not term_list:
            raise WireFormatError("cannot serialize an empty program")
        kind = "terms"
        table = PackedPauliTable.from_paulis(term.pauli for term in term_list)
        coefficients = np.array([term.coefficient for term in term_list], dtype=float)
    payload = {"format": PROGRAM_FORMAT, "kind": kind}
    payload.update(_packed_table_fields(table))
    payload["coefficients"] = encode_array(coefficients, "<f8")
    return payload


def program_parts_from_wire(payload: dict) -> tuple[str, PackedPauliTable, np.ndarray]:
    """A wire program's ``kind``, packed table and coefficient vector.

    Runs every check :func:`program_from_wire` runs on the payload — the
    format tag, ``x``/``z`` shapes equal to ``(rows, words)`` for the declared
    qubit count, one phase and one coefficient per row, a known ``kind`` —
    without materializing a single term.
    """
    check_format(payload, PROGRAM_FORMAT)
    kind = payload.get("kind")
    table = _packed_table_from_fields(payload)
    coefficients = decode_array(_field(payload, "coefficients", "program"), "<f8")
    if coefficients.shape != (table.num_rows,):
        raise WireFormatError(
            f"{coefficients.shape[0] if coefficients.ndim else 0} coefficients "
            f"for {table.num_rows} packed rows"
        )
    if kind not in ("terms", "sum"):
        raise WireFormatError(f"unknown program kind {kind!r}")
    return kind, table, coefficients


def program_from_wire(payload: dict) -> list[PauliTerm] | SparsePauliSum:
    kind, table, coefficients = program_parts_from_wire(payload)
    if kind == "sum":
        try:
            return SparsePauliSum.from_packed(table, coefficients)
        except Exception as error:
            raise WireFormatError(f"malformed sum payload: {error}") from error
    return [
        PauliTerm(table.row(index), float(coefficients[index]))
        for index in range(table.num_rows)
    ]


def sum_to_wire(observable: SparsePauliSum) -> dict:
    """Alias of :func:`program_to_wire` restricted to sums."""
    if not isinstance(observable, SparsePauliSum):
        raise WireFormatError(f"expected a SparsePauliSum, got {type(observable).__name__}")
    return program_to_wire(observable)


def sum_from_wire(payload: dict) -> SparsePauliSum:
    restored = program_from_wire(payload)
    if not isinstance(restored, SparsePauliSum):
        raise WireFormatError("payload holds a term-list program, not a sum")
    return restored


# ---------------------------------------------------------------------- #
# Circuits and tableaus
# ---------------------------------------------------------------------- #
#: the opcode of a gate is its index here: parameterless gates first, then
#: the rotations, which each take the next angle of the payload
_OPCODE_NAMES = (
    "i", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "cx", "cz", "swap",
    "rz", "rx", "ry", "rzz",
)
_OPCODES = {name: code for code, name in enumerate(_OPCODE_NAMES)}
_FIRST_ROTATION = _OPCODES["rz"]
_TWO_QUBIT_OPCODES = frozenset(_OPCODES[name] for name in TWO_QUBIT_GATES)


def circuit_to_wire(circuit: QuantumCircuit) -> dict:
    """A circuit as opcode, qubit-pair and angle arrays (``repro.circuit/v2``)."""
    gates = circuit.gates
    opcodes = _OPCODES
    pairs = np.zeros((len(gates), 2), dtype=np.uint32)
    pairs[:, 0] = [gate.qubits[0] for gate in gates]
    pairs[:, 1] = [gate.qubits[-1] for gate in gates]
    return {
        "format": CIRCUIT_FORMAT,
        "num_qubits": circuit.num_qubits,
        "ops": encode_array(
            np.fromiter((opcodes[gate.name] for gate in gates), np.uint8, len(gates)),
            "<u1",
        ),
        "qubits": encode_array(pairs, "<u4"),
        "angles": encode_array(
            np.array([angle for gate in gates for angle in gate.params], dtype=float),
            "<f8",
        ),
    }


@_decoder("circuit")
def circuit_from_wire(payload: dict) -> QuantumCircuit:
    if isinstance(payload, dict) and payload.get("format") == CIRCUIT_FORMAT_V1:
        return _circuit_from_qasm(payload)
    check_format(payload, CIRCUIT_FORMAT)
    num_qubits = int(_field(payload, "num_qubits", "circuit"))
    ops = decode_array(_field(payload, "ops", "circuit"), "<u1")
    qubits = decode_array(_field(payload, "qubits", "circuit"), "<u4")
    angles = decode_array(_field(payload, "angles", "circuit"), "<f8")
    if ops.ndim != 1 or qubits.shape != (len(ops), 2) or angles.ndim != 1:
        raise WireFormatError(
            f"circuit arrays do not line up: ops {ops.shape}, qubits "
            f"{qubits.shape}, angles {angles.shape}"
        )
    if len(ops) and int(ops.max()) >= len(_OPCODE_NAMES):
        raise WireFormatError(f"circuit payload holds unknown opcode {int(ops.max())}")
    if len(ops) and int(qubits.max()) >= num_qubits:
        raise WireFormatError(
            f"circuit payload addresses qubit {int(qubits.max())} of a "
            f"{num_qubits}-qubit register"
        )
    rotations = int(np.count_nonzero(ops >= _FIRST_ROTATION))
    if rotations != len(angles):
        raise WireFormatError(
            f"circuit payload holds {len(angles)} angles for {rotations} rotations"
        )
    names = _OPCODE_NAMES
    two_qubit = _TWO_QUBIT_OPCODES
    first_rotation = _FIRST_ROTATION
    angle_list = angles.tolist()
    gates = []
    append = gates.append
    position = 0
    try:
        for op, first, second in zip(
            ops.tolist(), qubits[:, 0].tolist(), qubits[:, 1].tolist()
        ):
            operands = (first, second) if op in two_qubit else (first,)
            if op < first_rotation:
                append(cached_gate(names[op], operands))
            else:
                append(Gate(names[op], operands, (angle_list[position],)))
                position += 1
        return QuantumCircuit.from_trusted_gates(num_qubits, gates)
    except CircuitError as error:
        raise WireFormatError(f"malformed circuit payload: {error}") from error


def _circuit_from_qasm(payload: dict) -> QuantumCircuit:
    """Decode a ``repro.circuit/v1`` payload (OpenQASM text)."""
    circuit = from_qasm(_field(payload, "qasm", "circuit"))
    declared = int(payload.get("num_qubits", circuit.num_qubits))
    if circuit.num_qubits != declared:
        raise WireFormatError(
            f"circuit payload declares {declared} qubits but its QASM "
            f"register holds {circuit.num_qubits}"
        )
    return circuit


def tableau_to_wire(tableau: CliffordTableau) -> dict:
    """A Clifford tableau as its ``2n`` packed generator-image rows."""
    payload = {"format": TABLEAU_FORMAT}
    payload.update(_packed_table_fields(tableau.packed_rows()))
    return payload


def tableau_from_wire(payload: dict) -> CliffordTableau:
    check_format(payload, TABLEAU_FORMAT)
    rows = _packed_table_from_fields(payload)
    try:
        return CliffordTableau.from_packed_rows(rows)
    except Exception as error:
        raise WireFormatError(f"malformed tableau payload: {error}") from error


# ---------------------------------------------------------------------- #
# Compilation results
# ---------------------------------------------------------------------- #
def _optional(value, to_wire):
    return None if value is None else to_wire(value)


def result_to_wire(result: CompilationResult) -> dict:
    """A :class:`CompilationResult` as one JSON-safe payload.

    The extraction block deduplicates against the top-level circuits: on the
    unrouted presets ``extraction.optimized_circuit`` *is* ``result.circuit``
    (and the two extracted tails match), so those are stored once and marked
    with a reference instead of serializing ~half the payload twice.
    ``properties`` are deliberately not shipped — they hold process-local
    machinery (conjugation caches, lazy absorbers) that the receiving side
    rebuilds on demand.
    """
    payload = {
        "format": RESULT_FORMAT,
        "name": result.name,
        "compile_seconds": float(result.compile_seconds),
        "metadata": result.metadata,
        "circuit": circuit_to_wire(result.circuit),
        "extracted_clifford": _optional(result.extracted_clifford, circuit_to_wire),
        "extraction": None,
    }
    extraction = result.extraction
    if extraction is not None:
        if extraction.optimized_circuit == result.circuit:
            optimized = {"same_as": "circuit"}
        else:
            optimized = circuit_to_wire(extraction.optimized_circuit)
        if (
            result.extracted_clifford is not None
            and extraction.extracted_clifford == result.extracted_clifford
        ):
            tail = {"same_as": "extracted_clifford"}
        else:
            tail = circuit_to_wire(extraction.extracted_clifford)
        payload["extraction"] = {
            "optimized_circuit": optimized,
            "extracted_clifford": tail,
            "conjugation": tableau_to_wire(extraction.conjugation),
            "terms": program_to_wire(extraction.terms) if extraction.terms else None,
            "rotation_count": int(extraction.rotation_count),
            "elapsed_seconds": float(extraction.elapsed_seconds),
            "metadata": extraction.metadata,
        }
    return payload


def _circuit_or_reference(payload: dict, references: dict) -> QuantumCircuit:
    if isinstance(payload, dict) and "same_as" in payload:
        name = payload["same_as"]
        resolved = references.get(name)
        if resolved is None:
            raise WireFormatError(f"extraction payload references unknown circuit {name!r}")
        return resolved
    return circuit_from_wire(payload)


@_decoder("result")
def result_from_wire(payload: dict) -> CompilationResult:
    check_format(payload, RESULT_FORMAT)
    circuit = circuit_from_wire(_field(payload, "circuit", "result"))
    extracted = payload.get("extracted_clifford")
    extracted_clifford = None if extracted is None else circuit_from_wire(extracted)
    metadata = payload.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise WireFormatError("result metadata must be a JSON object")

    extraction = None
    extraction_payload = payload.get("extraction")
    if extraction_payload is not None:
        references = {"circuit": circuit, "extracted_clifford": extracted_clifford}
        terms_payload = extraction_payload.get("terms")
        terms = [] if terms_payload is None else program_from_wire(terms_payload)
        if isinstance(terms, SparsePauliSum):
            terms = terms.terms
        extraction = ExtractionResult(
            optimized_circuit=_circuit_or_reference(
                _field(extraction_payload, "optimized_circuit", "extraction"), references
            ),
            extracted_clifford=_circuit_or_reference(
                _field(extraction_payload, "extracted_clifford", "extraction"), references
            ),
            conjugation=tableau_from_wire(
                _field(extraction_payload, "conjugation", "extraction")
            ),
            terms=terms,
            rotation_count=int(extraction_payload.get("rotation_count", 0)),
            elapsed_seconds=float(extraction_payload.get("elapsed_seconds", 0.0)),
            metadata=extraction_payload.get("metadata") or {},
        )
    return CompilationResult(
        circuit=circuit,
        extracted_clifford=extracted_clifford,
        extraction=extraction,
        compile_seconds=float(payload.get("compile_seconds", 0.0)),
        name=str(payload.get("name", "quclear")),
        metadata=metadata,
        properties=PropertySet(),
    )

# ---------------------------------------------------------------------- #
# Bound results: one pre-encoded payload per template, spliced per bind
# ---------------------------------------------------------------------- #
class BoundResultSkeleton:
    """A template's fast-bind result, JSON-encoded once with three open slots.

    Every non-degenerate bind of one template yields the same
    :func:`result_to_wire` payload except for ``compile_seconds``, the
    circuit's rotation angles and the extraction's term coefficients: gate
    opcodes and qubits, the Clifford tail, the conjugation tableau, the
    packed term words and all metadata depend on the Pauli structure alone.
    The skeleton holds that payload as the bytes ``json.dumps`` gives it
    (the encoding the server writes), cut at the three slots, plus the
    structure-constant :meth:`~repro.compiler.result.CompilationResult.metrics`.
    :meth:`encode` fills the slots with base64 of the fresh arrays, so a
    bound response is byte-identical to encoding ``template.bind(params)``
    outside its timing fields.
    """

    __slots__ = ("name", "_metrics", "_pieces", "_slots")

    def __init__(self, result: CompilationResult, angles: list[float]):
        # the angles slot takes the replayed chain angles as the whole array
        if [angle for gate in result.circuit for angle in gate.params] != angles:
            raise WireFormatError(
                "a bound circuit's rotation angles are not its chain angles in "
                "gate order; its payload cannot be spliced"
            )
        self.name = result.name
        self._metrics = result.metrics()
        payload = result_to_wire(result)
        token = uuid.uuid4().hex
        payload["compile_seconds"] = f"{token}:seconds"
        payload["circuit"]["angles"]["data"] = f"{token}:angles"
        extraction = payload["extraction"]
        if extraction is not None and extraction["terms"] is not None:
            extraction["terms"]["coefficients"]["data"] = f"{token}:coefficients"
        encoded = json.dumps(payload, separators=(",", ":")).encode()
        parts = re.split(b'"' + token.encode() + rb':(\w+)"', encoded)
        self._pieces = parts[0::2]
        self._slots = [slot.decode() for slot in parts[1::2]]

    def metrics(self, compile_seconds: float) -> dict:
        """The bound result's ``metrics()``: the structure counts plus the time."""
        metrics = dict(self._metrics)
        metrics["compile_seconds"] = compile_seconds
        return metrics

    def encode(self, replay, compile_seconds: float) -> bytes:
        """The JSON bytes of the bound result for one non-degenerate replay."""
        fills = {
            "seconds": repr(float(compile_seconds)).encode(),
            "angles": _quoted_base64(replay.angles),
        }
        if "coefficients" in self._slots:
            fills["coefficients"] = _quoted_base64(replay.coefficients)
        pieces = self._pieces
        out = [pieces[0]]
        for slot, piece in zip(self._slots, pieces[1:]):
            out.append(fills[slot])
            out.append(piece)
        return b"".join(out)


def _quoted_base64(values: list[float]) -> bytes:
    """A JSON string of base64 ``<f8`` bytes, as :func:`encode_array` writes it."""
    data = np.array(values, dtype="<f8").tobytes()
    return b'"' + base64.b64encode(data) + b'"'


def bound_result_skeleton(template, replay) -> BoundResultSkeleton:
    """``template``'s :class:`BoundResultSkeleton`, built at its first use.

    ``replay`` is a non-degenerate :class:`~repro.parametric.template.BindReplay`
    of the template; the first call assembles its result once to build the
    skeleton from.  The skeleton lives on the template, so it is freed with
    it (an evicted template takes its skeleton along).
    """
    skeleton = template._bound_skeleton
    if skeleton is None:
        skeleton = BoundResultSkeleton(template.assemble(replay), replay.angles)
        template._bound_skeleton = skeleton
    return skeleton


# ---------------------------------------------------------------------- #
# Parametric programs and compiled templates (repro.parametric/v1)
# ---------------------------------------------------------------------- #
def parametric_program_to_wire(program) -> dict:
    """A :class:`~repro.parametric.ParametricProgram` as packed words + slots."""
    payload = {"format": PARAMETRIC_FORMAT, "kind": "program"}
    payload.update(_packed_table_fields(program.table))
    payload["slots"] = encode_array(program.slots, "<i8")
    payload["scales"] = encode_array(program.scales, "<f8")
    payload["num_params"] = int(program.num_params)
    return payload


def parametric_program_from_wire(payload: dict):
    from repro.parametric.program import ParametricProgram

    check_format(payload, PARAMETRIC_FORMAT)
    if payload.get("kind") != "program":
        raise WireFormatError(
            f"expected a parametric program payload, got kind {payload.get('kind')!r}"
        )
    table = _packed_table_from_fields(payload)
    slots = decode_array(_field(payload, "slots", "parametric program"), "<i8")
    scales = decode_array(_field(payload, "scales", "parametric program"), "<f8")
    try:
        return ParametricProgram(
            table,
            slots,
            scales=scales,
            num_params=int(_field(payload, "num_params", "parametric program")),
        )
    except WireFormatError:
        raise
    except Exception as error:
        raise WireFormatError(
            f"malformed parametric program payload: {error}"
        ) from error


def template_to_wire(template) -> dict:
    """A :class:`~repro.parametric.CompiledTemplate` as one payload.

    The merge chains are flattened into three arrays (CSR-style offsets plus
    per-entry term indices and signs); the skeleton travels as a circuit
    payload, whose ``<f8`` angle array keeps the sentinel placeholders
    bit-exact.
    """
    chains = template._chains
    offsets = np.zeros(len(chains) + 1, dtype=np.int64)
    for index, chain in enumerate(chains):
        offsets[index + 1] = offsets[index] + len(chain)
    chain_terms = np.array(
        [term for chain in chains for term, _ in chain], dtype=np.int64
    )
    chain_signs = np.array(
        [sign for chain in chains for _, sign in chain], dtype=np.int8
    )
    target = template.target
    return {
        "format": PARAMETRIC_FORMAT,
        "kind": "template",
        "program": parametric_program_to_wire(template.program),
        "level": int(template.level),
        "name": template.name,
        "target": None if target is None else {"num_qubits": target.num_qubits},
        "normalize": bool(template._normalize),
        "always_fallback": bool(template._always_fallback),
        "rotation_count": int(template._rotation_count),
        "skeleton": circuit_to_wire(
            QuantumCircuit.from_trusted_gates(template.num_qubits, template._skeleton)
        ),
        "positions": encode_array(np.asarray(template._positions, dtype=np.int64), "<i8"),
        "chain_offsets": encode_array(offsets, "<i8"),
        "chain_terms": encode_array(chain_terms, "<i8"),
        "chain_signs": encode_array(chain_signs, "<i1"),
        "tail": _optional(template._tail, circuit_to_wire),
        "conjugation": _optional(template._conjugation, tableau_to_wire),
        "metadata_base": template._metadata_base,
        "extraction_metadata": template._extraction_metadata,
    }


@_decoder("template")
def template_from_wire(payload: dict):
    from repro.compiler.target import Target
    from repro.parametric.template import CompiledTemplate

    check_format(payload, PARAMETRIC_FORMAT)
    if payload.get("kind") != "template":
        raise WireFormatError(
            f"expected a template payload, got kind {payload.get('kind')!r}"
        )
    program = parametric_program_from_wire(_field(payload, "program", "template"))
    skeleton_circuit = circuit_from_wire(_field(payload, "skeleton", "template"))
    positions = decode_array(_field(payload, "positions", "template"), "<i8")
    offsets = decode_array(_field(payload, "chain_offsets", "template"), "<i8")
    chain_terms = decode_array(_field(payload, "chain_terms", "template"), "<i8")
    chain_signs = decode_array(_field(payload, "chain_signs", "template"), "<i1")
    if (
        offsets.ndim != 1
        or len(offsets) != len(positions) + 1
        or chain_terms.shape != chain_signs.shape
        or (len(offsets) and int(offsets[-1]) != len(chain_terms))
    ):
        raise WireFormatError("template payload has inconsistent chain arrays")
    chains = [
        [
            (int(chain_terms[entry]), float(chain_signs[entry]))
            for entry in range(int(offsets[index]), int(offsets[index + 1]))
        ]
        for index in range(len(positions))
    ]
    target_payload = payload.get("target")
    if target_payload is None:
        target = None
    else:
        try:
            target = Target.fully_connected(
                int(_field(target_payload, "num_qubits", "template target"))
            )
        except WireFormatError:
            raise
        except Exception as error:
            raise WireFormatError(f"malformed template target: {error}") from error
    tail_payload = payload.get("tail")
    conjugation_payload = payload.get("conjugation")
    metadata_base = payload.get("metadata_base") or {}
    extraction_metadata = payload.get("extraction_metadata") or {}
    if not isinstance(metadata_base, dict) or not isinstance(extraction_metadata, dict):
        raise WireFormatError("template metadata must be JSON objects")
    try:
        return CompiledTemplate(
            program=program,
            level=int(_field(payload, "level", "template")),
            target=target,
            skeleton=list(skeleton_circuit),
            positions=[int(position) for position in positions],
            chains=chains,
            normalize=bool(_field(payload, "normalize", "template")),
            tail=None if tail_payload is None else circuit_from_wire(tail_payload),
            conjugation=(
                None
                if conjugation_payload is None
                else tableau_from_wire(conjugation_payload)
            ),
            rotation_count=int(payload.get("rotation_count", 0)),
            name=str(payload.get("name", "template")),
            metadata_base=metadata_base,
            extraction_metadata=extraction_metadata,
            always_fallback=bool(payload.get("always_fallback", False)),
        )
    except WireFormatError:
        raise
    except Exception as error:
        raise WireFormatError(f"malformed template payload: {error}") from error


def bind_request_to_wire(params, template_key: str | None = None, template=None) -> dict:
    """A bind request: concrete parameters plus the template (by key or inline)."""
    if (template_key is None) == (template is None):
        raise WireFormatError(
            "a bind request names its template by key or ships it inline, "
            "never both and never neither"
        )
    return {
        "format": PARAMETRIC_FORMAT,
        "kind": "bind",
        "template_key": template_key,
        "template": None if template is None else template_to_wire(template),
        "params": [float(value) for value in np.asarray(params, dtype=np.float64)],
    }


def bind_request_from_wire(payload: dict) -> tuple[str | None, dict | None, list]:
    """Decode a bind request into ``(template_key, template_payload, params)``.

    The template payload (if inline) is returned undecoded so the service can
    key its template cache on the wire bytes before paying reconstruction.
    """
    check_format(payload, PARAMETRIC_FORMAT)
    if payload.get("kind") != "bind":
        raise WireFormatError(
            f"expected a bind payload, got kind {payload.get('kind')!r}"
        )
    template_key = payload.get("template_key")
    if template_key is not None and not isinstance(template_key, str):
        raise WireFormatError("bind template_key must be a string")
    template_payload = payload.get("template")
    if (template_key is None) == (template_payload is None):
        raise WireFormatError(
            "a bind request names its template by key or ships it inline, "
            "never both and never neither"
        )
    params = _field(payload, "params", "bind")
    if not isinstance(params, list):
        raise WireFormatError("bind params must be a JSON list of numbers")
    return template_key, template_payload, params
