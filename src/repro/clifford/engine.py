"""Vectorized Clifford conjugation over bit-packed Pauli batches.

Two batch strategies are provided on top of
:class:`~repro.paulis.packed.PackedPauliTable`:

* **gate streaming** — :func:`conjugate_table_by_circuit` replays a Clifford
  circuit gate by gate, each gate touching every row of the packed table at
  once (one numpy bitwise expression per gate instead of a Python loop per
  Pauli);
* **tableau application** — :class:`PackedConjugator` freezes a
  :class:`~repro.clifford.tableau.CliffordTableau` into packed generator
  images and applies the *composed* map to a whole table in one sweep over
  the ``2n`` generators, independent of the circuit's gate count.

:class:`ConjugationCache` memoizes frozen conjugators by tableau content so
batch compilation (:func:`repro.compile_many`) shares them across programs
and the service's scheduler threads.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.exceptions import CliffordError
from repro.paulis.packed import (
    PackedPauliTable,
    conjugate_row_through_generators,
    popcount_rows,
    words_for_qubits,
)
from repro.paulis.pauli import PauliString

if TYPE_CHECKING:
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.gate import Gate
    from repro.clifford.tableau import CliffordTableau
    from repro.paulis.columns import PauliColumns


def conjugate_table_by_circuit(
    table: PackedPauliTable, circuit: "QuantumCircuit", copy: bool = True
) -> PackedPauliTable:
    """Conjugate every row of ``table`` through ``circuit`` (time order).

    With ``copy=False`` the table is mutated in place and returned.
    """
    result = table.copy() if copy else table
    result.apply_circuit(circuit)
    return result


def stream_gates_over_suffix(
    table: "PackedPauliTable | PauliColumns",
    gates: Sequence["Gate"],
    start: int = 0,
    stop: int | None = None,
) -> None:
    """Conjugate rows ``[start, stop)`` of ``table`` through ``gates`` in place.

    The engine-facing name for the extraction hot path: every CNOT-tree gate
    a term emits is pushed across the whole remaining program (and the
    tableau generator rows riding at the end of the table) at once, instead
    of re-conjugating each later Pauli object individually.  Any table with
    an ``apply_gates(gates, start, stop)`` method works.  On a
    :class:`~repro.paulis.packed.PackedPauliTable` that is one whole-column
    array expression per gate; on the column-major
    :class:`~repro.paulis.columns.PauliColumns` the extractor uses, a few
    big-integer operations per gate.  The extractor streams over the whole
    column table: rows it has already emitted are conjugated too, which is
    harmless (they are never read again) and cheaper than masking them out,
    but only until its next rebase, which drops them from the columns (see
    :mod:`repro.core.extraction`).
    """
    table.apply_gates(gates, start=start, stop=stop)


def conjugate_paulis_by_circuit(
    paulis: Iterable[PauliString], circuit: "QuantumCircuit"
) -> list[PauliString]:
    """Batch counterpart of :func:`repro.clifford.conjugate_pauli_by_circuit`."""
    table = PackedPauliTable.from_paulis(paulis)
    table.apply_circuit(circuit)
    return table.to_paulis()


class PackedConjugator:
    """A Clifford conjugation map frozen into packed generator images.

    Row ``2q`` holds the image ``U X_q U†`` and row ``2q + 1`` the image
    ``U Z_q U†``.  Conjugating an arbitrary Pauli is then the ordered product
    of the generator images selected by its (x, z) bits; the whole-table
    variant performs that product for every input row simultaneously.
    """

    __slots__ = ("num_qubits", "_gen_x", "_gen_z", "_gen_phase")

    def __init__(
        self,
        num_qubits: int,
        gen_x: np.ndarray,
        gen_z: np.ndarray,
        gen_phase: np.ndarray,
    ):
        self.num_qubits = int(num_qubits)
        rows = 2 * self.num_qubits
        words = words_for_qubits(self.num_qubits)
        if gen_x.shape != (rows, words) or gen_z.shape != (rows, words):
            raise CliffordError(
                f"conjugator needs {rows}x{words} generator words, "
                f"got x{gen_x.shape} z{gen_z.shape}"
            )
        self._gen_x = np.ascontiguousarray(gen_x, dtype=np.uint64)
        self._gen_z = np.ascontiguousarray(gen_z, dtype=np.uint64)
        self._gen_phase = np.asarray(gen_phase, dtype=np.int64) % 4

    # ------------------------------------------------------------------ #
    @classmethod
    def from_tableau(cls, tableau: "CliffordTableau") -> "PackedConjugator":
        """Snapshot a tableau (later gates appended to it have no effect)."""
        rows = tableau.packed_rows()
        return cls(
            tableau.num_qubits,
            rows.x_words.copy(),
            rows.z_words.copy(),
            rows.phases.copy(),
        )

    @classmethod
    def from_circuit(cls, circuit: "QuantumCircuit") -> "PackedConjugator":
        """Freeze the conjugation map of a whole Clifford circuit."""
        from repro.clifford.tableau import CliffordTableau

        return cls.from_tableau(CliffordTableau.from_circuit(circuit))

    # ------------------------------------------------------------------ #
    def conjugate_table(self, table: PackedPauliTable) -> PackedPauliTable:
        """Apply the frozen map to every row of ``table`` at once.

        One sweep over the ``2n`` generators; each selected generator is
        XOR-folded into all selecting rows simultaneously, with the exact
        phase bookkeeping of the ordered product (X image before Z image per
        qubit, matching :meth:`CliffordTableau.conjugate`).
        """
        if table.num_qubits != self.num_qubits:
            raise CliffordError(
                f"table holds {table.num_qubits}-qubit Paulis, "
                f"conjugator acts on {self.num_qubits}"
            )
        result_x = np.zeros_like(table.x_words)
        result_z = np.zeros_like(table.z_words)
        result_phase = table.phases.copy()
        for qubit in range(self.num_qubits):
            word = qubit >> 6
            shift = qubit & 63
            for offset, sel_words in ((0, table.x_words), (1, table.z_words)):
                selected = ((sel_words[:, word] >> shift) & 1).astype(bool)
                if not selected.any():
                    continue
                row = 2 * qubit + offset
                gen_x = self._gen_x[row]
                # (-1) for every Z of the accumulator crossing an X of the
                # incoming generator image (ordered-product phase rule).
                crossings = popcount_rows(result_z[selected] & gen_x)
                result_phase[selected] += 2 * crossings + int(self._gen_phase[row])
                result_x[selected] ^= gen_x
                result_z[selected] ^= self._gen_z[row]
        return PackedPauliTable(self.num_qubits, result_x, result_z, result_phase)

    def conjugate(self, pauli: PauliString) -> PauliString:
        """Single-Pauli convenience wrapper (no boolean-mask overhead)."""
        if pauli.num_qubits != self.num_qubits:
            raise CliffordError(
                f"Pauli acts on {pauli.num_qubits} qubits, "
                f"conjugator on {self.num_qubits}"
            )
        result_x, result_z, phase = conjugate_row_through_generators(
            self._gen_x,
            self._gen_z,
            self._gen_phase,
            self.num_qubits,
            pauli.x_words,
            pauli.z_words,
            pauli.phase,
        )
        return PauliString.from_words(self.num_qubits, result_x, result_z, phase)

    def conjugate_paulis(self, paulis: Sequence[PauliString]) -> list[PauliString]:
        """Conjugate a collection of Paulis through the frozen map."""
        if not paulis:
            return []
        return self.conjugate_table(PackedPauliTable.from_paulis(paulis)).to_paulis()

    def content_key(self) -> tuple:
        """Hashable identity of the frozen map."""
        return (
            self.num_qubits,
            self._gen_x.tobytes(),
            self._gen_z.tobytes(),
            self._gen_phase.tobytes(),
        )

    def __repr__(self) -> str:
        return f"PackedConjugator(num_qubits={self.num_qubits})"


class ConjugationCache:
    """Thread-safe memo of :class:`PackedConjugator` keyed by tableau content.

    Shared by :func:`repro.compile_many` across its worker pool so programs
    whose extraction produced the same Clifford tail (common for structured
    workload families) freeze the conjugation map only once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._store: dict[tuple, PackedConjugator] = {}
        self.hits = 0
        self.misses = 0

    def get(self, tableau: "CliffordTableau") -> PackedConjugator:
        """The frozen conjugator of ``tableau``, built at most once per content."""
        key = tableau.content_key()
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        conjugator = PackedConjugator.from_tableau(tableau)
        with self._lock:
            winner = self._store.setdefault(key, conjugator)
            if winner is conjugator:
                self.misses += 1
            else:
                self.hits += 1
        return winner

    def __getstate__(self) -> dict:
        # The lock is not picklable; a pickled result carries the cache in
        # its property set, so it must survive a round-trip (a fresh lock is
        # fine on the other side).
        with self._lock:
            return {"store": dict(self._store), "hits": self.hits, "misses": self.misses}

    def __setstate__(self, state: dict) -> None:
        self._lock = threading.Lock()
        self._store = state["store"]
        self.hits = state["hits"]
        self.misses = state["misses"]

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._store), "hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ConjugationCache(entries={stats['entries']}, "
            f"hits={stats['hits']}, misses={stats['misses']})"
        )
