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

The word arrays live on a pluggable :class:`~repro.arrays.ArrayBackend`
(numpy by default, CuPy for device residency, a pure-Python reference for
equivalence testing); every mutating method routes through
``self.backend``.  Packing/unpacking between booleans and words is always
host-side numpy — tables transfer with :meth:`PackedPauliTable.to_backend` /
:meth:`PackedPauliTable.to_host`.

The packed layout assumes a little-endian host (x86-64, aarch64); the
``uint8 -> uint64`` reinterpretation in :func:`pack_bits` would permute bits
within each word on a big-endian host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.arrays import ArrayBackend, NUMPY, resolve_backend
from repro.exceptions import PauliError

if TYPE_CHECKING:
    from repro.circuits.gate import Gate
    from repro.paulis.pauli import PauliString

#: qubits stored per machine word
WORD_BITS = 64


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


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row population count of a host ``(rows, W)`` word matrix."""
    return np.bitwise_count(words).sum(axis=-1).astype(np.int64)


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
    single-row host-side conjugation kernel shared by
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
    are owned by the table, live on ``self.backend``, and are mutated in
    place by the ``apply_*`` methods.
    """

    __slots__ = ("num_qubits", "x_words", "z_words", "phases", "backend")

    def __init__(
        self,
        num_qubits: int,
        x_words,
        z_words,
        phases,
        backend: "str | ArrayBackend | None" = None,
    ):
        self.num_qubits = int(num_qubits)
        self.backend = resolve_backend(backend)
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
        be = self.backend
        self.x_words = be.asarray_words(x_words)
        self.z_words = be.asarray_words(z_words)
        self.phases = be.mod(be.asarray_phases(phases), 4)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(
        cls, num_rows: int, num_qubits: int, backend: "str | ArrayBackend | None" = None
    ) -> "PackedPauliTable":
        """A table of ``num_rows`` identity Paulis."""
        words = words_for_qubits(num_qubits)
        be = resolve_backend(backend)
        return cls(
            num_qubits,
            be.zeros_words(num_rows, words),
            be.zeros_words(num_rows, words),
            be.zeros_phases(num_rows),
            backend=be,
        )

    @classmethod
    def from_bool_arrays(
        cls,
        x: np.ndarray,
        z: np.ndarray,
        phases: Sequence[int] | np.ndarray,
        backend: "str | ArrayBackend | None" = None,
    ) -> "PackedPauliTable":
        """Pack ``(rows, n)`` boolean component matrices (host-side packing)."""
        x = np.atleast_2d(np.asarray(x, dtype=bool))
        z = np.atleast_2d(np.asarray(z, dtype=bool))
        if x.shape != z.shape:
            raise PauliError("x and z must have identical shapes")
        return cls(
            x.shape[1],
            pack_bits(x),
            pack_bits(z),
            np.asarray(phases, dtype=np.int64),
            backend=backend,
        )

    @classmethod
    def from_paulis(
        cls, paulis: Iterable["PauliString"], backend: "str | ArrayBackend | None" = None
    ) -> "PackedPauliTable":
        """Pack an iterable of :class:`PauliString` (all on the same register)."""
        pauli_list = list(paulis)
        if not pauli_list:
            raise PauliError("cannot pack an empty collection of Paulis")
        num_qubits = pauli_list[0].num_qubits
        words = words_for_qubits(num_qubits)
        x_words = np.empty((len(pauli_list), words), dtype=np.uint64)
        z_words = np.empty((len(pauli_list), words), dtype=np.uint64)
        phases = np.empty(len(pauli_list), dtype=np.int64)
        for index, pauli in enumerate(pauli_list):
            if pauli.num_qubits != num_qubits:
                raise PauliError(
                    f"inconsistent qubit counts: {pauli.num_qubits} vs {num_qubits}"
                )
            x_words[index] = pauli.x_words
            z_words[index] = pauli.z_words
            phases[index] = pauli.phase
        return cls(num_qubits, x_words, z_words, phases, backend=backend)

    @classmethod
    def from_labels(
        cls, labels: Sequence[str], backend: "str | ArrayBackend | None" = None
    ) -> "PackedPauliTable":
        """Pack textual labels (convenience for tests and benchmarks)."""
        from repro.paulis.pauli import PauliString

        return cls.from_paulis(
            (PauliString.from_label(label) for label in labels), backend=backend
        )

    def copy(self) -> "PackedPauliTable":
        be = self.backend
        return PackedPauliTable(
            self.num_qubits,
            be.copy(self.x_words),
            be.copy(self.z_words),
            be.copy(self.phases),
            backend=be,
        )

    # ------------------------------------------------------------------ #
    # Backend transfer
    # ------------------------------------------------------------------ #
    def to_backend(self, backend: "str | ArrayBackend") -> "PackedPauliTable":
        """This table's rows on ``backend`` (``self`` if already there)."""
        target = resolve_backend(backend)
        if target is self.backend:
            return self
        be = self.backend
        return PackedPauliTable(
            self.num_qubits,
            be.to_numpy(self.x_words),
            be.to_numpy(self.z_words),
            be.to_numpy(self.phases),
            backend=target,
        )

    def to_host(self) -> "PackedPauliTable":
        """This table on the host numpy backend (``self`` if already there).

        The synthesis boundary: gate emission, tableaus, and wire
        serialization always operate on host tables.
        """
        return self.to_backend(NUMPY)

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

        be = self.backend
        return PauliString.from_words(
            self.num_qubits,
            be.to_numpy(self.x_words[index]).copy(),
            be.to_numpy(self.z_words[index]).copy(),
            int(self.phases[index]),
        )

    def row_view(self, index: int) -> "PauliString":
        """Row ``index`` as a :class:`PauliString` sharing this table's words.

        No copy is made on host backends: the view is valid only until the
        table mutates (``apply_*``), and the caller must treat it as
        read-only.  Use :meth:`row` for an independent copy.
        """
        from repro.paulis.pauli import PauliString

        be = self.backend
        return PauliString.from_words(
            self.num_qubits,
            be.to_numpy(self.x_words[index]),
            be.to_numpy(self.z_words[index]),
            int(self.phases[index]) % 4,
        )

    def to_paulis(self) -> list["PauliString"]:
        return [self.row(index) for index in range(self.num_rows)]

    def to_bool_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unpack into host ``(x, z, phases)`` boolean/int arrays."""
        be = self.backend
        return (
            unpack_bits(be.to_numpy(self.x_words), self.num_qubits),
            unpack_bits(be.to_numpy(self.z_words), self.num_qubits),
            be.to_numpy(self.phases).copy(),
        )

    def select(self, indices: np.ndarray | Sequence[int]) -> "PackedPauliTable":
        """A new table holding the requested rows (in the given order)."""
        indices = np.asarray(indices)
        be = self.backend
        return PackedPauliTable(
            self.num_qubits,
            be.select_rows(self.x_words, indices),
            be.select_rows(self.z_words, indices),
            be.select_rows(self.phases, indices),
            backend=be,
        )

    # ------------------------------------------------------------------ #
    # Vectorized conjugation (all rows at once, one gate at a time)
    # ------------------------------------------------------------------ #
    def apply_gate(self, gate: "Gate") -> None:
        """Apply ``row -> g row g†`` in place to every row."""
        self._check_gate_fits(gate)
        be = self.backend
        be.apply_gate_to_words(self.x_words, self.z_words, self.phases, gate)
        be.imod(self.phases, 4)

    def apply_circuit(self, circuit) -> None:
        """Conjugate every row through ``circuit`` in time order."""
        if circuit.num_qubits != self.num_qubits:
            raise PauliError(
                f"circuit acts on {circuit.num_qubits} qubits, "
                f"table holds {self.num_qubits}-qubit Paulis"
            )
        be = self.backend
        xw, zw, phases = self.x_words, self.z_words, self.phases
        for gate in circuit:
            be.apply_gate_to_words(xw, zw, phases, gate)
        be.imod(phases, 4)

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
        be = self.backend
        xw = self.x_words[start:stop]
        zw = self.z_words[start:stop]
        phases = self.phases[start:stop]
        for gate in gates:
            be.apply_gate_to_words(xw, zw, phases, gate)
        be.imod(phases, 4)

    def apply_basis_layer(
        self, y_mask, h_mask, start: int = 0, stop: int | None = None
    ) -> None:
        """Apply a masked ``sdg``/``h`` basis-change layer to rows ``[start, stop)``."""
        be = self.backend
        phases = self.phases[start:stop]
        be.apply_basis_layer_to_words(
            self.x_words[start:stop], self.z_words[start:stop], phases, y_mask, h_mask
        )
        be.imod(phases, 4)

    # ------------------------------------------------------------------ #
    # Vectorized row metrics
    # ------------------------------------------------------------------ #
    def weights(self, start: int = 0, stop: int | None = None):
        """Per-row count of non-identity single-qubit factors in ``[start, stop)``."""
        be = self.backend
        return be.popcount_rows(be.bor(self.x_words[start:stop], self.z_words[start:stop]))

    def argsort_weights(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Indices (relative to ``start``) ordering rows ``[start, stop)`` by weight.

        The sort is stable, so equal-weight rows keep their program order.
        """
        return self.backend.argsort_stable(self.weights(start, stop))

    def num_y(self):
        """Per-row count of ``Y`` factors (``x & z`` bits)."""
        be = self.backend
        return be.popcount_rows(be.band(self.x_words, self.z_words))

    def hermitian_mask(self) -> np.ndarray:
        """Boolean mask of rows equal to a real-signed ``I/X/Y/Z`` string."""
        be = self.backend
        phases = be.to_numpy(self.phases)
        num_y = be.to_numpy(self.num_y())
        return ((phases - num_y) % 2) == 0

    def signs(self) -> np.ndarray:
        """Per-row label-form sign exponents: ``i**sign_exponent``, modulo 4."""
        be = self.backend
        return (be.to_numpy(self.phases) - be.to_numpy(self.num_y())) % 4

    def bare(self) -> "PackedPauliTable":
        """A copy with every row's phase reset so its label sign is ``+1``."""
        be = self.backend
        return PackedPauliTable(
            self.num_qubits,
            be.copy(self.x_words),
            be.copy(self.z_words),
            self.num_y(),
            backend=be,
        )

    def anticommutation_with_row(
        self, x_row, z_row, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Boolean mask: which rows in ``[start, stop)`` anticommute with the
        Pauli given by packed words ``(x_row, z_row)``."""
        stop = self.num_rows if stop is None else stop
        be = self.backend
        overlap = be.popcount_rows(
            be.bxor(
                be.band(self.x_words[start:stop], z_row),
                be.band(self.z_words[start:stop], x_row),
            )
        )
        return (be.to_numpy(overlap) & 1).astype(bool)

    def row_key(self, index: int) -> tuple[bytes, bytes]:
        """Hashable symplectic key (phase excluded) for row ``index``."""
        be = self.backend
        return (be.tobytes(self.x_words[index]), be.tobytes(self.z_words[index]))

    def __repr__(self) -> str:
        return (
            f"PackedPauliTable(rows={self.num_rows}, num_qubits={self.num_qubits}, "
            f"words={self.x_words.shape[1]}, backend={self.backend.name!r})"
        )
