"""Aaronson–Gottesman style Clifford tableau.

The tableau stores, for an n-qubit Clifford unitary ``U``, the images of the
single-qubit generators under Heisenberg evolution::

    row 2q     =  U X_q U†
    row 2q + 1 =  U Z_q U†

Each row is a Pauli in the explicit-phase convention of
:class:`repro.paulis.PauliString` (exponent of ``i`` modulo 4).  The rows
live in a bit-packed :class:`~repro.paulis.packed.PackedPauliTable`, so
appending a Clifford gate updates all ``2n`` rows with a couple of word-wide
bitwise operations, and conjugating an arbitrary Pauli string walks only its
support at ``uint64`` granularity.  Batch conjugation of many Paulis goes
through :class:`repro.clifford.engine.PackedConjugator`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.exceptions import CliffordError
from repro.paulis.packed import (
    PackedPauliTable,
    apply_gate_to_words,
    conjugate_row_through_generators,
)
from repro.paulis.pauli import PauliString


class CliffordTableau:
    """The conjugation map ``P -> U P U†`` of a Clifford unitary ``U``."""

    def __init__(self, num_qubits: int):
        self.num_qubits = int(num_qubits)
        if self.num_qubits < 1:
            raise CliffordError("a tableau needs at least one qubit")
        rows = 2 * self.num_qubits
        self._rows = PackedPauliTable.zeros(rows, self.num_qubits)
        one = np.uint64(1)
        for qubit in range(self.num_qubits):
            word = qubit >> 6
            mask = one << np.uint64(qubit & 63)
            self._rows.x_words[2 * qubit, word] = mask
            self._rows.z_words[2 * qubit + 1, word] = mask

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, num_qubits: int) -> "CliffordTableau":
        return cls(num_qubits)

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "CliffordTableau":
        """Tableau of a Clifford circuit (raises on non-Clifford gates)."""
        tableau = cls(circuit.num_qubits)
        tableau.append_circuit(circuit)
        return tableau

    @classmethod
    def from_packed_rows(cls, rows: PackedPauliTable) -> "CliffordTableau":
        """Adopt ``2n`` packed generator-image rows as a tableau.

        ``rows`` must hold the images in the canonical layout (row ``2q`` =
        image of ``X_q``, row ``2q + 1`` = image of ``Z_q``).  Ownership
        transfers to the tableau — the caller must not mutate the table
        afterwards.  This is how the table-native extractor returns its
        conjugation map: the generator rows ride along the packed program
        table through the whole pass and are split off here at the end.
        """
        if rows.num_rows != 2 * rows.num_qubits:
            raise CliffordError(
                f"a {rows.num_qubits}-qubit tableau needs {2 * rows.num_qubits} "
                f"generator rows, got {rows.num_rows}"
            )
        tableau = cls.__new__(cls)
        tableau.num_qubits = rows.num_qubits
        tableau._rows = rows
        return tableau

    def copy(self) -> "CliffordTableau":
        clone = CliffordTableau.__new__(CliffordTableau)
        clone.num_qubits = self.num_qubits
        clone._rows = self._rows.copy()
        return clone

    # ------------------------------------------------------------------ #
    # Growing the represented Clifford
    # ------------------------------------------------------------------ #
    def append_gate(self, gate: Gate) -> None:
        """Grow the circuit by one gate: the map becomes ``P -> g U P U† g†``."""
        if not gate.is_clifford:
            raise CliffordError(f"gate {gate.name!r} is not Clifford")
        self._rows.apply_gate(gate)

    def append_circuit(self, circuit: QuantumCircuit) -> None:
        """Append every gate of ``circuit`` in time order."""
        if circuit.num_qubits != self.num_qubits:
            raise CliffordError("circuit and tableau qubit counts differ")
        rows = self._rows
        for gate in circuit:
            if not gate.is_clifford:
                raise CliffordError(f"gate {gate.name!r} is not Clifford")
            apply_gate_to_words(rows.x_words, rows.z_words, rows.phases, gate)
        np.mod(rows.phases, 4, out=rows.phases)

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def image_of_x(self, qubit: int) -> PauliString:
        """The image ``U X_qubit U†``."""
        return self._rows.row(2 * qubit)

    def image_of_z(self, qubit: int) -> PauliString:
        """The image ``U Z_qubit U†``."""
        return self._rows.row(2 * qubit + 1)

    def packed_rows(self) -> PackedPauliTable:
        """The live packed generator-image rows (do not mutate)."""
        return self._rows

    def content_key(self) -> tuple:
        """Hashable snapshot identity, used by the conjugation cache."""
        return (
            self.num_qubits,
            self._rows.x_words.tobytes(),
            self._rows.z_words.tobytes(),
            (self._rows.phases % 4).tobytes(),
        )

    def is_identity(self) -> bool:
        """True when the tableau represents conjugation by the identity (up to phase)."""
        reference = CliffordTableau(self.num_qubits)
        return (
            bool(np.array_equal(self._rows.x_words, reference._rows.x_words))
            and bool(np.array_equal(self._rows.z_words, reference._rows.z_words))
            and bool(np.array_equal(self._rows.phases % 4, reference._rows.phases))
        )

    # ------------------------------------------------------------------ #
    # Conjugation of arbitrary Paulis
    # ------------------------------------------------------------------ #
    def conjugate(self, pauli: PauliString) -> PauliString:
        """Return ``U P U†`` for an arbitrary Pauli string ``P``."""
        if pauli.num_qubits != self.num_qubits:
            raise CliffordError("Pauli and tableau qubit counts differ")
        # P = i^phase * prod_q X_q^{x_q} Z_q^{z_q}; conjugation is a
        # homomorphism, so the image is the ordered product of row images.
        result_x, result_z, phase = conjugate_row_through_generators(
            self._rows.x_words,
            self._rows.z_words,
            self._rows.phases,
            self.num_qubits,
            pauli.x_words,
            pauli.z_words,
            pauli.phase,
        )
        return PauliString.from_words(self.num_qubits, result_x, result_z, phase)

    def conjugate_many(self, paulis: list[PauliString]) -> list[PauliString]:
        """Conjugate a batch of Paulis in one vectorized sweep."""
        from repro.clifford.engine import PackedConjugator

        if not paulis:
            return []
        return PackedConjugator.from_tableau(self).conjugate_paulis(paulis)

    def conjugate_table(self, table: PackedPauliTable) -> PackedPauliTable:
        """Conjugate a whole packed table through the tableau at once."""
        from repro.clifford.engine import PackedConjugator

        return PackedConjugator.from_tableau(self).conjugate_table(table)

    # ------------------------------------------------------------------ #
    # Structure queries used by Clifford Absorption
    # ------------------------------------------------------------------ #
    def phases(self) -> np.ndarray:
        """Phase exponents (of ``i``) of every row."""
        return self._rows.phases.copy() % 4

    def __repr__(self) -> str:
        return f"CliffordTableau(num_qubits={self.num_qubits})"
