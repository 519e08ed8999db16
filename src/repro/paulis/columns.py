"""Column-major (bit-plane) Pauli tables for the extraction hot loop.

:class:`PauliColumns` stores ``R`` Pauli rows the other way round from
:class:`~repro.paulis.packed.PackedPauliTable`: one Python integer per qubit
and symplectic half, ``x[q]`` / ``z[q]``, whose bit ``r`` is row ``r``'s bit
on qubit ``q``.  The phase exponent modulo 4 is two more bit planes, ``p0``
(low bit) and ``p1`` (high bit).

Conjugating every row through one Clifford gate is then a few big-integer
bitwise operations on whole columns — a CX is ``x[t] ^= x[c]; z[c] ^= z[t]``
— instead of one array call per gate over a row-major word matrix.  Clifford
Extraction streams thousands of small gates over a table of a few hundred to
a few thousand rows, where the per-call overhead of an array library
dominates and a column XOR over every row costs well under a microsecond.

The gate rules are the ones of
:func:`~repro.paulis.packed.apply_gate_to_words` (explicit-phase
convention, phase added modulo 4); the tests diff the two on random tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import CliffordError
from repro.paulis.packed import PackedPauliTable, pack_bits, unpack_bits

if TYPE_CHECKING:
    from repro.circuits.gate import Gate
    from repro.paulis.pauli import PauliString


def table_bits(table: PackedPauliTable) -> tuple[np.ndarray, np.ndarray]:
    """Boolean ``(rows, num_qubits)`` x and z matrices of a packed table."""
    n = table.num_qubits
    return unpack_bits(table.x_words, n), unpack_bits(table.z_words, n)


def bit_planes(bits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as one Python int (bit ``j`` = column ``j``)."""
    packed = np.packbits(np.ascontiguousarray(bits, dtype=np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack_planes(planes: Sequence[int], start: int, count: int) -> np.ndarray:
    """Bits ``[start, start + count)`` of each plane, as a ``(planes, count)`` 0/1 array."""
    mask = (1 << count) - 1
    width = (count + 7) // 8
    buffer = b"".join(((plane >> start) & mask).to_bytes(width, "little") for plane in planes)
    as_bytes = np.frombuffer(buffer, dtype=np.uint8).reshape(len(planes), width)
    return np.unpackbits(as_bytes, axis=1, count=count, bitorder="little")


class PauliColumns:
    """A Pauli table stored as per-qubit bit columns plus two phase planes.

    ``x`` and ``z`` are lists mutated in place by :meth:`apply_gates` and
    :meth:`drop_rows`, so a caller may hold on to them across gate batches;
    ``p0`` / ``p1`` are rebound and must be read from the instance.  Bit
    ``r`` of every column is row ``r``; read a row's letter with a mask test,
    ``x[q] & (1 << r)``, which unlike ``(x[q] >> r) & 1`` copies nothing.
    :meth:`drop_rows` shifts rows out at the bottom, so a caller that keeps
    an offset can stop paying for rows it no longer reads.
    """

    __slots__ = ("num_qubits", "num_rows", "x", "z", "p0", "p1")

    def __init__(
        self, num_qubits: int, num_rows: int, x: list[int], z: list[int], p0: int, p1: int
    ):
        self.num_qubits = int(num_qubits)
        self.num_rows = int(num_rows)
        self.x = x
        self.z = z
        self.p0 = p0
        self.p1 = p1

    @classmethod
    def from_table(
        cls, table: PackedPauliTable, generator_rows: bool = False
    ) -> "PauliColumns":
        """Columns of ``table``, transposed from its packed words.

        With ``generator_rows`` the ``2n`` tableau generator rows are appended
        above the table's rows: row ``R + 2q`` is ``X_q`` and row
        ``R + 2q + 1`` is ``Z_q``, so conjugating the table also builds the
        conjugation tableau of the gates applied.
        """
        rows = table.num_rows
        x_bits, z_bits = table_bits(table)
        x = bit_planes(x_bits.T)
        z = bit_planes(z_bits.T)
        phases = table.phases % 4
        p0, p1 = bit_planes(np.stack([phases & 1, phases >> 1]))
        total = rows
        if generator_rows:
            for qubit in range(table.num_qubits):
                x[qubit] |= 1 << (rows + 2 * qubit)
                z[qubit] |= 1 << (rows + 2 * qubit + 1)
            total += 2 * table.num_qubits
        return cls(table.num_qubits, total, x, z, p0, p1)

    # ------------------------------------------------------------------ #
    def phase(self, row: int) -> int:
        """Phase exponent (modulo 4) of ``row``."""
        return ((self.p0 >> row) & 1) | (((self.p1 >> row) & 1) << 1)

    def to_table(self, start: int = 0, stop: int | None = None) -> PackedPauliTable:
        """Rows ``[start, stop)`` as a :class:`PackedPauliTable`."""
        stop = self.num_rows if stop is None else stop
        count = stop - start
        x_bits = _unpack_planes(self.x, start, count).T
        z_bits = _unpack_planes(self.z, start, count).T
        low, high = _unpack_planes([self.p0, self.p1], start, count).astype(np.int64)
        return PackedPauliTable(
            self.num_qubits, pack_bits(x_bits), pack_bits(z_bits), low + 2 * high
        )

    def row(self, index: int) -> "PauliString":
        """A standalone copy of one row as a :class:`PauliString`."""
        return self.to_table(index, index + 1).row(0)

    def drop_rows(self, count: int) -> None:
        """Delete rows ``[0, count)``: row ``count + r`` becomes row ``r``."""
        self.x[:] = [column >> count for column in self.x]
        self.z[:] = [column >> count for column in self.z]
        self.p0 >>= count
        self.p1 >>= count
        self.num_rows -= count

    # ------------------------------------------------------------------ #
    def apply_gates(self, gates: Sequence["Gate"], start: int = 0, stop: int | None = None) -> None:
        """Conjugate rows ``[start, stop)`` through ``gates`` (time order) in place.

        Every gate updates whole columns.  A narrower row range costs one
        save and one restore of the rows outside it per call, not per gate;
        the whole table costs neither.
        """
        if stop is None:
            stop = self.num_rows
        if start or stop < self.num_rows:
            keep = ((1 << start) - 1) | (((1 << self.num_rows) - 1) >> stop << stop)
        else:
            keep = 0
        if keep:
            saved = [plane & keep for plane in (*self.x, *self.z, self.p0, self.p1)]
        x, z = self.x, self.z
        p0, p1 = self.p0, self.p1
        for gate in gates:
            name = gate.name
            if name == "cx":
                control, target = gate.qubits
                x[target] ^= x[control]
                z[control] ^= z[target]
                continue
            if name in ("cz", "swap"):
                a, b = gate.qubits
                if name == "cz":
                    p1 ^= x[a] & x[b]
                    z[a] ^= x[b]
                    z[b] ^= x[a]
                else:
                    x[a], x[b] = x[b], x[a]
                    z[a], z[b] = z[b], z[a]
                continue
            (qubit,) = gate.qubits
            xq, zq = x[qubit], z[qubit]
            if name == "h":
                p1 ^= xq & zq
                x[qubit], z[qubit] = zq, xq
            elif name in ("s", "sdg"):
                # phase += x (s) or -x (sdg), then z ^= x
                carry = p0 & xq if name == "s" else xq & ~p0
                p0 ^= xq
                p1 ^= carry
                z[qubit] = zq ^ xq
            elif name in ("sx", "sxdg"):
                # phase -= z (sx) or += z (sxdg), then x ^= z
                carry = zq & ~p0 if name == "sx" else p0 & zq
                p0 ^= zq
                p1 ^= carry
                x[qubit] = xq ^ zq
            elif name == "x":
                p1 ^= zq
            elif name == "y":
                p1 ^= xq ^ zq
            elif name == "z":
                p1 ^= xq
            elif name != "i":
                raise CliffordError(f"gate {name!r} is not a supported Clifford gate")
        self.p0, self.p1 = p0, p1
        if keep:
            inside = ~keep
            planes = (*self.x, *self.z, self.p0, self.p1)
            restored = [(plane & inside) | old for plane, old in zip(planes, saved)]
            n = self.num_qubits
            self.x[:] = restored[:n]
            self.z[:] = restored[n : 2 * n]
            self.p0, self.p1 = restored[2 * n :]

    def __repr__(self) -> str:
        return f"PauliColumns(rows={self.num_rows}, num_qubits={self.num_qubits})"
