"""Bit-packed symplectic storage for batches of Pauli strings.

Every Pauli on ``n`` qubits is two bit-vectors ``x`` and ``z`` plus a phase
exponent.  This module packs those bit-vectors 64 qubits per ``uint64`` word,
so a whole observable (thousands of Pauli terms) lives in three contiguous
word arrays:

* ``x_words``, ``z_words`` — shape ``(rows, words)`` ``uint64`` matrices with
  qubit ``q`` stored in bit ``q & 63`` of word ``q >> 6`` (little-endian bit
  order, matching ``np.packbits(..., bitorder="little")``);
* ``phases`` — shape ``(rows,)`` ``int64`` exponents of ``i`` modulo 4.

Clifford conjugation then becomes a handful of whole-column bitwise
operations per gate — one array expression covering *all* rows at once —
instead of the legacy per-string, per-qubit Python loop.  The speedup is
measured (not asserted) by ``benchmarks/bench_throughput.py``.

The per-gate kernels (:func:`apply_gate_to_words`) and the masked
basis-layer kernel (:func:`apply_basis_layer_to_words`) are plain numpy
functions over raw word matrices, called directly by
:class:`PackedPauliTable`, :class:`~repro.clifford.tableau.CliffordTableau`
and the single-Pauli helper of :mod:`repro.core.extraction`.  Their ground
truth is :mod:`repro.clifford.conjugation`.

The packed layout assumes a little-endian host (x86-64, aarch64); the
``uint8 -> uint64`` reinterpretation in :func:`pack_bits` would permute bits
within each word on a big-endian host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.exceptions import CliffordError, PauliError

if TYPE_CHECKING:
    from repro.circuits.gate import Gate
    from repro.paulis.pauli import PauliString

#: qubits stored per machine word
WORD_BITS = 64

_ONE = np.uint64(1)


def words_for_qubits(num_qubits: int) -> int:
    """Number of ``uint64`` words needed to hold ``num_qubits`` bits."""
    return (int(num_qubits) + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean array ``(..., n)`` into ``uint64`` words ``(..., W)``.

    Bit ``q`` of the input lands in bit ``q & 63`` of word ``q >> 6``.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    num_qubits = bits.shape[-1]
    words = words_for_qubits(num_qubits)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


def unpack_bits(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """Unpack ``uint64`` words ``(..., W)`` back into booleans ``(..., n)``."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=int(num_qubits), bitorder="little").astype(bool)


def row_ints(words: np.ndarray) -> list[int]:
    """Each row of a ``(rows, W)`` word matrix as one Python int (bit ``q`` = qubit ``q``)."""
    planes = words.T.tolist()
    if not planes:
        return [0] * words.shape[0]
    rows = planes[0]
    for word, plane in enumerate(planes[1:], start=1):
        shift = WORD_BITS * word
        rows = [low | high << shift for low, high in zip(rows, plane)]
    return rows


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row population count of a host ``(rows, W)`` word matrix."""
    return np.bitwise_count(words).sum(axis=-1).astype(np.int64)


# ---------------------------------------------------------------------- #
# Per-gate kernels: one vectorized expression per gate over every row.
# Phases accumulate un-reduced (``int64`` has headroom for any realistic
# circuit); callers fold them modulo 4 after a batch of gates.
# ---------------------------------------------------------------------- #
def _col(words: np.ndarray, word: int, shift: np.uint64) -> np.ndarray:
    return ((words[:, word] >> shift) & _ONE).astype(np.int64)


def _bit_position(qubit: int) -> tuple[int, np.uint64, np.uint64]:
    shift = np.uint64(qubit & (WORD_BITS - 1))
    return qubit >> 6, shift, _ONE << shift


def _h(xw, zw, phases, qubit):
    word, shift, mask = _bit_position(qubit)
    phases += 2 * (((xw[:, word] & zw[:, word]) >> shift) & _ONE).astype(np.int64)
    diff = (xw[:, word] ^ zw[:, word]) & mask
    xw[:, word] ^= diff
    zw[:, word] ^= diff


def _s(xw, zw, phases, qubit):
    word, shift, mask = _bit_position(qubit)
    phases += _col(xw, word, shift)
    zw[:, word] ^= xw[:, word] & mask


def _sdg(xw, zw, phases, qubit):
    word, shift, mask = _bit_position(qubit)
    phases += 3 * _col(xw, word, shift)
    zw[:, word] ^= xw[:, word] & mask


def _sx(xw, zw, phases, qubit):
    word, shift, mask = _bit_position(qubit)
    phases += 3 * _col(zw, word, shift)
    xw[:, word] ^= zw[:, word] & mask


def _sxdg(xw, zw, phases, qubit):
    word, shift, mask = _bit_position(qubit)
    phases += _col(zw, word, shift)
    xw[:, word] ^= zw[:, word] & mask


def _x(xw, zw, phases, qubit):
    word, shift, _ = _bit_position(qubit)
    phases += 2 * _col(zw, word, shift)


def _y(xw, zw, phases, qubit):
    word, shift, _ = _bit_position(qubit)
    phases += 2 * (((xw[:, word] ^ zw[:, word]) >> shift) & _ONE).astype(np.int64)


def _z(xw, zw, phases, qubit):
    word, shift, _ = _bit_position(qubit)
    phases += 2 * _col(xw, word, shift)


def _cx(xw, zw, phases, control, target):
    # In the explicit-phase convention CNOT conjugation is phase-free.
    cword, cshift, _ = _bit_position(control)
    tword, tshift, _ = _bit_position(target)
    xw[:, tword] ^= ((xw[:, cword] >> cshift) & _ONE) << tshift
    zw[:, cword] ^= ((zw[:, tword] >> tshift) & _ONE) << cshift


def _cz(xw, zw, phases, control, target):
    cword, cshift, _ = _bit_position(control)
    tword, tshift, _ = _bit_position(target)
    x_control = (xw[:, cword] >> cshift) & _ONE
    x_target = (xw[:, tword] >> tshift) & _ONE
    phases += 2 * (x_control & x_target).astype(np.int64)
    zw[:, cword] ^= x_target << cshift
    zw[:, tword] ^= x_control << tshift


def _swap(xw, zw, phases, qubit_a, qubit_b):
    aword, ashift, _ = _bit_position(qubit_a)
    bword, bshift, _ = _bit_position(qubit_b)
    for words in (xw, zw):
        diff = ((words[:, aword] >> ashift) ^ (words[:, bword] >> bshift)) & _ONE
        words[:, aword] ^= diff << ashift
        words[:, bword] ^= diff << bshift


def _identity(xw, zw, phases, qubit):
    return None


_SINGLE_QUBIT_HANDLERS = {
    "i": _identity,
    "h": _h,
    "s": _s,
    "sdg": _sdg,
    "sx": _sx,
    "sxdg": _sxdg,
    "x": _x,
    "y": _y,
    "z": _z,
}

_TWO_QUBIT_HANDLERS = {
    "cx": _cx,
    "cz": _cz,
    "swap": _swap,
}


def apply_gate_to_words(
    x_words: np.ndarray, z_words: np.ndarray, phases: np.ndarray, gate: "Gate"
) -> None:
    """Apply one Clifford gate in place to every packed row.

    The rules mirror :mod:`repro.clifford.conjugation`, which the
    equivalence tests hold as ground truth.  Phases are left un-reduced.
    """
    name = gate.name
    handler = _SINGLE_QUBIT_HANDLERS.get(name)
    if handler is not None:
        handler(x_words, z_words, phases, gate.qubits[0])
        return
    handler = _TWO_QUBIT_HANDLERS.get(name)
    if handler is not None:
        handler(x_words, z_words, phases, gate.qubits[0], gate.qubits[1])
        return
    raise CliffordError(f"gate {gate.name!r} is not a supported Clifford gate")


def apply_basis_layer_to_words(
    x_words: np.ndarray, z_words: np.ndarray, phases: np.ndarray, y_mask, h_mask
) -> None:
    """Apply a whole masked ``sdg``/``h`` basis-change layer to every row.

    ``y_mask`` selects the qubits receiving ``sdg`` and ``h_mask`` those
    receiving ``h``, both as packed ``uint64`` qubit masks; gates on
    distinct qubits commute, so the two masked sweeps are bit-identical to
    streaming the per-qubit gates one at a time.  Phases are left un-reduced.
    """
    if np.any(y_mask):
        phases += 3 * popcount_rows(x_words & y_mask)
        z_words ^= x_words & y_mask
    if np.any(h_mask):
        phases += 2 * popcount_rows(x_words & z_words & h_mask)
        diff = (x_words ^ z_words) & h_mask
        x_words ^= diff
        z_words ^= diff


def conjugate_row_through_generators(
    gen_x: np.ndarray,
    gen_z: np.ndarray,
    gen_phases: np.ndarray,
    num_qubits: int,
    x_words: np.ndarray,
    z_words: np.ndarray,
    phase: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Ordered product of generator images selected by one Pauli's bits.

    ``gen_x`` / ``gen_z`` / ``gen_phases`` hold the ``2n`` packed generator
    images (row ``2q`` = image of ``X_q``, row ``2q + 1`` = image of ``Z_q``);
    the Pauli is given by its packed words plus its phase.  This is the
    single-row conjugation kernel shared by
    :meth:`repro.clifford.tableau.CliffordTableau.conjugate` and
    :meth:`repro.clifford.engine.PackedConjugator.conjugate` — the X image is
    folded in before the Z image per qubit, with a factor ``(-1)`` whenever a
    ``Z`` of the accumulator crosses an ``X`` of the incoming image.
    """
    words = gen_x.shape[1]
    result_x = np.zeros(words, dtype=np.uint64)
    result_z = np.zeros(words, dtype=np.uint64)
    phase = int(phase)
    for qubit in range(num_qubits):
        word, bit = qubit >> 6, qubit & 63
        for offset, selector in ((0, x_words), (1, z_words)):
            if not (int(selector[word]) >> bit) & 1:
                continue
            row = 2 * qubit + offset
            row_x = gen_x[row]
            phase += int(gen_phases[row])
            phase += 2 * int(np.bitwise_count(result_z & row_x).sum())
            result_x ^= row_x
            result_z ^= gen_z[row]
    return result_x, result_z, phase % 4


class PackedPauliTable:
    """A batch of Pauli strings in bit-packed symplectic form.

    The canonical store behind :class:`~repro.paulis.pauli.PauliString` /
    :class:`~repro.paulis.sum.SparsePauliSum` batches and the operand of the
    vectorized conjugation engine (:mod:`repro.clifford.engine`).  The arrays
    are owned by the table and mutated in place by the ``apply_*`` methods.
    """

    __slots__ = ("num_qubits", "x_words", "z_words", "phases")

    def __init__(self, num_qubits: int, x_words, z_words, phases):
        self.num_qubits = int(num_qubits)
        expected_words = words_for_qubits(self.num_qubits)
        if (
            x_words.ndim != 2
            or x_words.shape != z_words.shape
            or x_words.shape[1] != expected_words
            or phases.shape != (x_words.shape[0],)
        ):
            raise PauliError(
                f"inconsistent packed shapes: x{x_words.shape} z{z_words.shape} "
                f"phases{phases.shape} for {self.num_qubits} qubits"
            )
        self.x_words = np.ascontiguousarray(x_words, dtype=np.uint64)
        self.z_words = np.ascontiguousarray(z_words, dtype=np.uint64)
        self.phases = np.asarray(phases, dtype=np.int64) % 4

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(cls, num_rows: int, num_qubits: int) -> "PackedPauliTable":
        """A table of ``num_rows`` identity Paulis."""
        words = words_for_qubits(num_qubits)
        return cls(
            num_qubits,
            np.zeros((num_rows, words), dtype=np.uint64),
            np.zeros((num_rows, words), dtype=np.uint64),
            np.zeros(num_rows, dtype=np.int64),
        )

    @classmethod
    def from_bool_arrays(
        cls, x: np.ndarray, z: np.ndarray, phases: Sequence[int] | np.ndarray
    ) -> "PackedPauliTable":
        """Pack ``(rows, n)`` boolean component matrices."""
        x = np.atleast_2d(np.asarray(x, dtype=bool))
        z = np.atleast_2d(np.asarray(z, dtype=bool))
        if x.shape != z.shape:
            raise PauliError("x and z must have identical shapes")
        return cls(x.shape[1], pack_bits(x), pack_bits(z), np.asarray(phases, dtype=np.int64))

    @classmethod
    def from_paulis(cls, paulis: Iterable["PauliString"]) -> "PackedPauliTable":
        """Pack an iterable of :class:`PauliString` (all on the same register).

        Every Pauli's word vectors are joined with one ``np.concatenate`` per
        half and its phases read into one array, so packing costs no numpy
        call per row.
        """
        pauli_list = list(paulis)
        if not pauli_list:
            raise PauliError("cannot pack an empty collection of Paulis")
        num_qubits = pauli_list[0].num_qubits
        for pauli in pauli_list:
            if pauli.num_qubits != num_qubits:
                raise PauliError(
                    f"inconsistent qubit counts: {pauli.num_qubits} vs {num_qubits}"
                )
        shape = (len(pauli_list), words_for_qubits(num_qubits))
        return cls(
            num_qubits,
            np.concatenate([pauli.x_words for pauli in pauli_list]).reshape(shape),
            np.concatenate([pauli.z_words for pauli in pauli_list]).reshape(shape),
            np.array([pauli.phase for pauli in pauli_list], dtype=np.int64),
        )

    @classmethod
    def from_labels(cls, labels: Sequence[str]) -> "PackedPauliTable":
        """Pack textual labels (convenience for tests and benchmarks)."""
        from repro.paulis.pauli import PauliString

        return cls.from_paulis(PauliString.from_label(label) for label in labels)

    def copy(self) -> "PackedPauliTable":
        return PackedPauliTable(
            self.num_qubits, self.x_words.copy(), self.z_words.copy(), self.phases.copy()
        )

    # ------------------------------------------------------------------ #
    # Row access / unpacking
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        return int(self.x_words.shape[0])

    def __len__(self) -> int:
        return self.num_rows

    def row(self, index: int) -> "PauliString":
        """Materialize row ``index`` as an independent :class:`PauliString`."""
        from repro.paulis.pauli import PauliString

        return PauliString.from_words(
            self.num_qubits,
            self.x_words[index].copy(),
            self.z_words[index].copy(),
            int(self.phases[index]),
        )

    def to_paulis(self) -> list["PauliString"]:
        return [self.row(index) for index in range(self.num_rows)]

    def to_bool_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unpack into ``(x, z, phases)`` boolean/int arrays."""
        return (
            unpack_bits(self.x_words, self.num_qubits),
            unpack_bits(self.z_words, self.num_qubits),
            self.phases.copy(),
        )

    def select(self, indices: np.ndarray | Sequence[int]) -> "PackedPauliTable":
        """A new table holding the requested rows (in the given order)."""
        indices = np.asarray(indices)
        return PackedPauliTable(
            self.num_qubits,
            self.x_words[indices],
            self.z_words[indices],
            self.phases[indices],
        )

    # ------------------------------------------------------------------ #
    # Vectorized conjugation (all rows at once, one gate at a time)
    # ------------------------------------------------------------------ #
    def apply_gate(self, gate: "Gate") -> None:
        """Apply ``row -> g row g†`` in place to every row."""
        self._check_gate_fits(gate)
        apply_gate_to_words(self.x_words, self.z_words, self.phases, gate)
        self.phases %= 4

    def apply_circuit(self, circuit) -> None:
        """Conjugate every row through ``circuit`` in time order."""
        if circuit.num_qubits != self.num_qubits:
            raise PauliError(
                f"circuit acts on {circuit.num_qubits} qubits, "
                f"table holds {self.num_qubits}-qubit Paulis"
            )
        xw, zw, phases = self.x_words, self.z_words, self.phases
        for gate in circuit:
            apply_gate_to_words(xw, zw, phases, gate)
        phases %= 4

    def _check_gate_fits(self, gate: "Gate") -> None:
        for qubit in gate.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise PauliError(
                    f"gate {gate!r} addresses qubit {qubit} outside the "
                    f"{self.num_qubits}-qubit register"
                )

    # ------------------------------------------------------------------ #
    # In-place suffix application
    # ------------------------------------------------------------------ #
    def apply_gates(self, gates: Sequence["Gate"], start: int = 0, stop: int | None = None) -> None:
        """Stream ``gates`` in time order over rows ``[start, stop)`` in place.

        One whole-column bitwise expression per gate covering every selected
        row at once; phases are folded modulo 4 after the batch.
        """
        xw = self.x_words[start:stop]
        zw = self.z_words[start:stop]
        phases = self.phases[start:stop]
        for gate in gates:
            apply_gate_to_words(xw, zw, phases, gate)
        phases %= 4

    def apply_basis_layer(
        self, y_mask, h_mask, start: int = 0, stop: int | None = None
    ) -> None:
        """Apply a masked ``sdg``/``h`` basis-change layer to rows ``[start, stop)``."""
        phases = self.phases[start:stop]
        apply_basis_layer_to_words(
            self.x_words[start:stop], self.z_words[start:stop], phases, y_mask, h_mask
        )
        phases %= 4

    # ------------------------------------------------------------------ #
    # Vectorized row metrics
    # ------------------------------------------------------------------ #
    def weights(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Per-row count of non-identity single-qubit factors in ``[start, stop)``."""
        return popcount_rows(self.x_words[start:stop] | self.z_words[start:stop])

    def argsort_weights(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Indices (relative to ``start``) ordering rows ``[start, stop)`` by weight.

        The sort is stable, so equal-weight rows keep their program order.
        """
        return np.argsort(self.weights(start, stop), kind="stable")

    def num_y(self) -> np.ndarray:
        """Per-row count of ``Y`` factors (``x & z`` bits)."""
        return popcount_rows(self.x_words & self.z_words)

    def hermitian_mask(self) -> np.ndarray:
        """Boolean mask of rows equal to a real-signed ``I/X/Y/Z`` string."""
        return ((self.phases - self.num_y()) % 2) == 0

    def signs(self) -> np.ndarray:
        """Per-row label-form sign exponents: ``i**sign_exponent``, modulo 4."""
        return (self.phases - self.num_y()) % 4

    def bare(self) -> "PackedPauliTable":
        """A copy with every row's phase reset so its label sign is ``+1``."""
        return PackedPauliTable(
            self.num_qubits, self.x_words.copy(), self.z_words.copy(), self.num_y()
        )

    def row_key(self, index: int) -> tuple[bytes, bytes]:
        """Hashable symplectic key (phase excluded) for row ``index``."""
        return (self.x_words[index].tobytes(), self.z_words[index].tobytes())

    def __repr__(self) -> str:
        return (
            f"PackedPauliTable(rows={self.num_rows}, num_qubits={self.num_qubits}, "
            f"words={self.x_words.shape[1]})"
        )
