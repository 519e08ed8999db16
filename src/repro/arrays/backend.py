"""Array backends for the packed conjugation engine.

The engine's hot path is whole-matrix bitwise algebra over ``uint64`` word
matrices (:mod:`repro.paulis.packed`).  This module narrows that workload to
an explicit operation set — allocate/asarray, bitwise and/or/xor/shift,
popcount-reduce, masked row updates, argsort, host transfer — so the same
kernels can run on any array library that provides ``uint64`` containers:

* :class:`NumpyBackend` — the default; overrides the coarse per-gate and
  basis-layer kernels with the direct vectorized numpy expressions, so the
  indirection adds one method call per *gate*, not per array op;
* :class:`~repro.arrays.cupy_backend.CupyBackend` — the same generic kernels
  over CuPy device arrays (import-guarded; see its module);
* :class:`ReferenceBackend` — slow ground truth: numpy arrays as containers,
  every arithmetic/bitwise primitive re-implemented as a pure-Python integer
  loop masked to 64 bits.  Equivalence tests run the engine under this
  backend and assert bit-identical words and phases against numpy.

Layering: :class:`ArrayBackend` defines *primitive* ops with generic
array-API implementations (plain operators over ``self.xp`` arrays) plus
*coarse* engine kernels written only in terms of the primitives.  Subclasses
override primitives (ReferenceBackend) or coarse kernels (NumpyBackend) —
never both — so every backend provably computes the same function.

Backends are stateless and safe to share across threads; obtain instances
through :func:`repro.arrays.resolve_backend` rather than constructing them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import CliffordError

if TYPE_CHECKING:
    from repro.circuits.gate import Gate

#: qubits stored per machine word (mirrors :data:`repro.paulis.packed.WORD_BITS`)
WORD_BITS = 64

_ONE = np.uint64(1)
_U64_MASK = (1 << 64) - 1

# SWAR popcount constants (Hacker's Delight 5-2); used by the generic
# popcount so CuPy — which lacks ``bitwise_count`` — needs no override.
_SWAR_M1 = 0x5555555555555555
_SWAR_M2 = 0x3333333333333333
_SWAR_M4 = 0x0F0F0F0F0F0F0F0F
_SWAR_H01 = 0x0101010101010101


def _word_shift(qubit: int) -> tuple[int, int]:
    """``(word index, bit shift)`` of ``qubit`` in the packed layout."""
    return qubit >> 6, qubit & (WORD_BITS - 1)


class ArrayBackend:
    """The array operations the packed engine needs, and nothing more.

    ``xp`` is the array-API module providing containers (``numpy`` for the
    host backends, ``cupy`` for the GPU one).  Generic implementations below
    use plain operators, which both libraries share; hosts that cannot (the
    pure-Python reference) override the primitives instead.
    """

    #: registry name of the backend ("numpy", "cupy", "reference", ...)
    name = "abstract"
    #: array-API module supplying the containers
    xp: Any = None

    # ------------------------------------------------------------------ #
    # Containers and host transfer
    # ------------------------------------------------------------------ #
    def zeros_words(self, rows: int, words: int):
        """A ``(rows, words)`` all-zero ``uint64`` word matrix."""
        return self.xp.zeros((rows, words), dtype=self.xp.uint64)

    def zeros_phases(self, rows: int):
        """A ``(rows,)`` all-zero ``int64`` phase vector."""
        return self.xp.zeros(rows, dtype=self.xp.int64)

    def zeros_like(self, array):
        return self.xp.zeros_like(array)

    def asarray_words(self, data):
        """``data`` as a contiguous ``uint64`` array on this backend."""
        return self.xp.ascontiguousarray(self.xp.asarray(data, dtype=self.xp.uint64))

    def asarray_phases(self, data):
        """``data`` as an ``int64`` array on this backend."""
        return self.xp.asarray(data, dtype=self.xp.int64)

    def to_numpy(self, array) -> np.ndarray:
        """The array's contents as a host ``numpy`` array (no copy if host)."""
        return np.asarray(array)

    def copy(self, array):
        return array.copy()

    def tolist(self, array) -> list:
        return self.to_numpy(array).tolist()

    def tobytes(self, array) -> bytes:
        return np.ascontiguousarray(self.to_numpy(array)).tobytes()

    # ------------------------------------------------------------------ #
    # Elementwise primitives
    # ------------------------------------------------------------------ #
    def band(self, a, b):
        return a & b

    def bor(self, a, b):
        return a | b

    def bxor(self, a, b):
        return a ^ b

    def bandnot(self, a, b):
        """``a & ~b`` (mask removal)."""
        return a & ~b

    def ixor(self, a, b) -> None:
        a ^= b

    def iand(self, a, b) -> None:
        a &= b

    def lshift(self, a, shift):
        return a << shift

    def rshift(self, a, shift):
        return a >> shift

    def iadd(self, a, b) -> None:
        a += b

    def mod(self, a, modulus):
        return a % modulus

    def imod(self, a, modulus) -> None:
        a %= modulus

    def to_int64(self, a):
        return a.astype(self.xp.int64)

    def to_bool(self, a):
        return a.astype(bool)

    def affine(self, a, mul: int, add: int):
        """``mul * a + add`` as ``int64`` (phase-contribution helper)."""
        result = self.to_int64(a) * mul
        if add:
            result += add
        return result

    # ------------------------------------------------------------------ #
    # Reductions and ordering
    # ------------------------------------------------------------------ #
    def popcount_rows(self, words):
        """Population count over the last axis of a word matrix, ``int64``."""
        x = words - ((words >> 1) & _SWAR_M1)
        x = (x & _SWAR_M2) + ((x >> 2) & _SWAR_M2)
        x = (x + (x >> 4)) & _SWAR_M4
        counts = (x * _SWAR_H01) >> 56
        return self.to_int64(counts).sum(axis=-1)

    def any(self, a) -> bool:
        return bool(a.any())

    def array_equal(self, a, b) -> bool:
        return bool(np.array_equal(self.to_numpy(a), self.to_numpy(b)))

    def argsort_stable(self, values) -> np.ndarray:
        """Stable argsort, always returned on the host (synthesis is host-side)."""
        return np.argsort(self.to_numpy(values), kind="stable")

    # ------------------------------------------------------------------ #
    # Structured (row / column) operations
    # ------------------------------------------------------------------ #
    def select_rows(self, array, indices):
        """Rows of ``array`` gathered in the order of host ``indices`` (a copy)."""
        return array[self.xp.asarray(np.asarray(indices))]

    def compress_rows(self, array, mask):
        """Rows of ``array`` where boolean ``mask`` is set (a copy)."""
        return array[mask]

    def masked_ixor_rows(self, dest, mask, row) -> None:
        """``dest[mask] ^= row`` — fold one word row into every selected row."""
        dest[mask] ^= row

    def masked_iadd(self, dest, mask, values) -> None:
        """``dest[mask] += values`` (``values`` aligned with the selected rows)."""
        dest[mask] += values

    def column_bits(self, words, word: int, shift: int):
        """The 0/1 value of one qubit column for every row, as ``int64``."""
        return self.to_int64(self.band(self.rshift(words[:, word], shift), 1))

    # ------------------------------------------------------------------ #
    # Coarse engine kernels (written only in terms of the primitives)
    # ------------------------------------------------------------------ #
    def apply_gate_to_words(self, x_words, z_words, phases, gate: "Gate") -> None:
        """Apply one Clifford gate in place to every packed row.

        Phases accumulate un-reduced (``int64`` has headroom for any
        realistic circuit); callers fold modulo 4 after a batch of gates.
        The rules mirror :mod:`repro.clifford.conjugation`, which the
        equivalence tests hold as ground truth.
        """
        name = gate.name
        if name == "i":
            return
        qubits = gate.qubits
        if name in ("cx", "cz", "swap"):
            self._apply_two_qubit(x_words, z_words, phases, name, qubits[0], qubits[1])
            return
        word, shift = _word_shift(qubits[0])
        mask = 1 << shift
        xcol = x_words[:, word]
        zcol = z_words[:, word]
        if name == "h":
            bit = self.band(self.rshift(self.band(xcol, zcol), shift), 1)
            self.iadd(phases, self.affine(bit, 2, 0))
            diff = self.band(self.bxor(xcol, zcol), mask)
            self.ixor(xcol, diff)
            self.ixor(zcol, diff)
        elif name == "s":
            self.iadd(phases, self.column_bits(x_words, word, shift))
            self.ixor(zcol, self.band(xcol, mask))
        elif name == "sdg":
            self.iadd(phases, self.affine(self.band(self.rshift(xcol, shift), 1), 3, 0))
            self.ixor(zcol, self.band(xcol, mask))
        elif name == "sx":
            self.iadd(phases, self.affine(self.band(self.rshift(zcol, shift), 1), 3, 0))
            self.ixor(xcol, self.band(zcol, mask))
        elif name == "sxdg":
            self.iadd(phases, self.column_bits(z_words, word, shift))
            self.ixor(xcol, self.band(zcol, mask))
        elif name == "x":
            self.iadd(phases, self.affine(self.band(self.rshift(zcol, shift), 1), 2, 0))
        elif name == "y":
            bit = self.band(self.rshift(self.bxor(xcol, zcol), shift), 1)
            self.iadd(phases, self.affine(bit, 2, 0))
        elif name == "z":
            self.iadd(phases, self.affine(self.band(self.rshift(xcol, shift), 1), 2, 0))
        else:
            raise CliffordError(f"gate {gate.name!r} is not a supported Clifford gate")

    def _apply_two_qubit(self, x_words, z_words, phases, name, control, target) -> None:
        cword, cshift = _word_shift(control)
        tword, tshift = _word_shift(target)
        if name == "cx":
            # In the explicit-phase convention CNOT conjugation is phase-free.
            self.ixor(
                x_words[:, tword],
                self.lshift(self.band(self.rshift(x_words[:, cword], cshift), 1), tshift),
            )
            self.ixor(
                z_words[:, cword],
                self.lshift(self.band(self.rshift(z_words[:, tword], tshift), 1), cshift),
            )
        elif name == "cz":
            x_control = self.band(self.rshift(x_words[:, cword], cshift), 1)
            x_target = self.band(self.rshift(x_words[:, tword], tshift), 1)
            self.iadd(phases, self.affine(self.band(x_control, x_target), 2, 0))
            self.ixor(z_words[:, cword], self.lshift(x_target, cshift))
            self.ixor(z_words[:, tword], self.lshift(x_control, tshift))
        else:  # swap
            for words in (x_words, z_words):
                diff = self.band(
                    self.bxor(
                        self.rshift(words[:, cword], cshift), self.rshift(words[:, tword], tshift)
                    ),
                    1,
                )
                self.ixor(words[:, cword], self.lshift(diff, cshift))
                self.ixor(words[:, tword], self.lshift(diff, tshift))

    def apply_basis_layer_to_words(self, x_words, z_words, phases, y_mask, h_mask) -> None:
        """Apply a whole masked ``sdg``/``h`` basis-change layer to every row.

        ``y_mask`` selects the qubits receiving ``sdg`` and ``h_mask`` those
        receiving ``h``, both as packed ``uint64`` qubit masks; gates on
        distinct qubits commute, so the two masked sweeps are bit-identical
        to streaming the per-qubit gates one at a time.
        """
        if self.any(y_mask):
            masked = self.band(x_words, y_mask)
            self.iadd(phases, self.affine(self.popcount_rows(masked), 3, 0))
            self.ixor(z_words, masked)
        if self.any(h_mask):
            overlap = self.band(self.band(x_words, z_words), h_mask)
            self.iadd(phases, self.affine(self.popcount_rows(overlap), 2, 0))
            diff = self.band(self.bxor(x_words, z_words), h_mask)
            self.ixor(x_words, diff)
            self.ixor(z_words, diff)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------- #
# Numpy: the default backend.  The coarse kernels are overridden with the
# direct vectorized expressions so the per-gate hot path pays one method
# call per gate, not ~6 per array primitive.
# ---------------------------------------------------------------------- #
def _col(words: np.ndarray, word: int, shift: np.uint64) -> np.ndarray:
    return ((words[:, word] >> shift) & _ONE).astype(np.int64)


def _np_bit_position(qubit: int) -> tuple[int, np.uint64, np.uint64]:
    shift = np.uint64(qubit & (WORD_BITS - 1))
    return qubit >> 6, shift, _ONE << shift


def _h(xw, zw, phases, qubit):
    word, shift, mask = _np_bit_position(qubit)
    phases += 2 * (((xw[:, word] & zw[:, word]) >> shift) & _ONE).astype(np.int64)
    diff = (xw[:, word] ^ zw[:, word]) & mask
    xw[:, word] ^= diff
    zw[:, word] ^= diff


def _s(xw, zw, phases, qubit):
    word, shift, mask = _np_bit_position(qubit)
    phases += _col(xw, word, shift)
    zw[:, word] ^= xw[:, word] & mask


def _sdg(xw, zw, phases, qubit):
    word, shift, mask = _np_bit_position(qubit)
    phases += 3 * _col(xw, word, shift)
    zw[:, word] ^= xw[:, word] & mask


def _sx(xw, zw, phases, qubit):
    word, shift, mask = _np_bit_position(qubit)
    phases += 3 * _col(zw, word, shift)
    xw[:, word] ^= zw[:, word] & mask


def _sxdg(xw, zw, phases, qubit):
    word, shift, mask = _np_bit_position(qubit)
    phases += _col(zw, word, shift)
    xw[:, word] ^= zw[:, word] & mask


def _x(xw, zw, phases, qubit):
    word, shift, _ = _np_bit_position(qubit)
    phases += 2 * _col(zw, word, shift)


def _y(xw, zw, phases, qubit):
    word, shift, _ = _np_bit_position(qubit)
    phases += 2 * (((xw[:, word] ^ zw[:, word]) >> shift) & _ONE).astype(np.int64)


def _z(xw, zw, phases, qubit):
    word, shift, _ = _np_bit_position(qubit)
    phases += 2 * _col(xw, word, shift)


def _cx(xw, zw, phases, control, target):
    cword, cshift, _ = _np_bit_position(control)
    tword, tshift, _ = _np_bit_position(target)
    xw[:, tword] ^= ((xw[:, cword] >> cshift) & _ONE) << tshift
    zw[:, cword] ^= ((zw[:, tword] >> tshift) & _ONE) << cshift


def _cz(xw, zw, phases, control, target):
    cword, cshift, _ = _np_bit_position(control)
    tword, tshift, _ = _np_bit_position(target)
    x_control = (xw[:, cword] >> cshift) & _ONE
    x_target = (xw[:, tword] >> tshift) & _ONE
    phases += 2 * (x_control & x_target).astype(np.int64)
    zw[:, cword] ^= x_target << cshift
    zw[:, tword] ^= x_control << tshift


def _swap(xw, zw, phases, qubit_a, qubit_b):
    aword, ashift, _ = _np_bit_position(qubit_a)
    bword, bshift, _ = _np_bit_position(qubit_b)
    for words in (xw, zw):
        diff = ((words[:, aword] >> ashift) ^ (words[:, bword] >> bshift)) & _ONE
        words[:, aword] ^= diff << ashift
        words[:, bword] ^= diff << bshift


def _identity(xw, zw, phases, qubit):
    return None


_NUMPY_SINGLE_QUBIT_HANDLERS = {
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

_NUMPY_TWO_QUBIT_HANDLERS = {
    "cx": _cx,
    "cz": _cz,
    "swap": _swap,
}


def _numpy_popcount_rows(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1).astype(np.int64)


class NumpyBackend(ArrayBackend):
    """The default host backend: direct vectorized numpy kernels."""

    name = "numpy"
    xp = np

    def to_numpy(self, array) -> np.ndarray:
        return array

    def popcount_rows(self, words):
        return _numpy_popcount_rows(words)

    def apply_gate_to_words(self, x_words, z_words, phases, gate: "Gate") -> None:
        name = gate.name
        handler = _NUMPY_SINGLE_QUBIT_HANDLERS.get(name)
        if handler is not None:
            handler(x_words, z_words, phases, gate.qubits[0])
            return
        handler = _NUMPY_TWO_QUBIT_HANDLERS.get(name)
        if handler is not None:
            handler(x_words, z_words, phases, gate.qubits[0], gate.qubits[1])
            return
        raise CliffordError(f"gate {gate.name!r} is not a supported Clifford gate")

    def apply_basis_layer_to_words(self, x_words, z_words, phases, y_mask, h_mask) -> None:
        if np.any(y_mask):
            phases += 3 * _numpy_popcount_rows(x_words & y_mask)
            z_words ^= x_words & y_mask
        if np.any(h_mask):
            phases += 2 * _numpy_popcount_rows(x_words & z_words & h_mask)
            diff = (x_words ^ z_words) & h_mask
            x_words ^= diff
            z_words ^= diff


# ---------------------------------------------------------------------- #
# Reference: pure-Python ground truth.
# ---------------------------------------------------------------------- #
class ReferenceBackend(ArrayBackend):
    """Slow ground-truth backend: Python-integer loops over numpy containers.

    Containers stay numpy (so shapes, views, and host transfer are shared
    with :class:`NumpyBackend`), but every arithmetic and bitwise primitive
    runs element by element through Python integers masked to 64 bits —
    independent of numpy's vectorized kernels, casting rules, and any
    endianness/packing subtleties.  The equivalence suites run the engine
    under this backend and require bit-identical words and phases.
    """

    name = "reference"
    xp = np

    # -- loop plumbing -------------------------------------------------- #
    @staticmethod
    def _binary(a, b, fn, dtype=None):
        a_arr = np.asarray(a)
        b_arr = np.asarray(b)
        shape = np.broadcast_shapes(a_arr.shape, b_arr.shape)
        a_bc = np.broadcast_to(a_arr, shape)
        b_bc = np.broadcast_to(b_arr, shape)
        out = np.empty(shape, dtype=a_arr.dtype if dtype is None else dtype)
        for index in np.ndindex(shape):
            out[index] = fn(int(a_bc[index]), int(b_bc[index]))
        return out

    @staticmethod
    def _inplace(a, b, fn):
        # Writes element-wise through the (possibly strided) view ``a``.
        b_bc = np.broadcast_to(np.asarray(b), a.shape)
        for index in np.ndindex(a.shape):
            a[index] = fn(int(a[index]), int(b_bc[index]))

    # -- primitives ----------------------------------------------------- #
    def band(self, a, b):
        return self._binary(a, b, lambda x, y: x & y)

    def bor(self, a, b):
        return self._binary(a, b, lambda x, y: x | y)

    def bxor(self, a, b):
        return self._binary(a, b, lambda x, y: x ^ y)

    def bandnot(self, a, b):
        return self._binary(a, b, lambda x, y: x & (~y & _U64_MASK))

    def ixor(self, a, b) -> None:
        self._inplace(a, b, lambda x, y: x ^ y)

    def iand(self, a, b) -> None:
        self._inplace(a, b, lambda x, y: x & y)

    def lshift(self, a, shift):
        return self._binary(a, shift, lambda x, s: (x << s) & _U64_MASK)

    def rshift(self, a, shift):
        return self._binary(a, shift, lambda x, s: x >> s)

    def iadd(self, a, b) -> None:
        self._inplace(a, b, lambda x, y: x + y)

    def mod(self, a, modulus):
        return self._binary(a, modulus, lambda x, m: x % m)

    def imod(self, a, modulus) -> None:
        self._inplace(a, modulus, lambda x, m: x % m)

    def to_int64(self, a):
        return self._binary(a, 0, lambda x, _: x, dtype=np.int64)

    def to_bool(self, a):
        return self._binary(a, 0, lambda x, _: bool(x), dtype=bool)

    def affine(self, a, mul: int, add: int):
        return self._binary(a, 0, lambda x, _: mul * x + add, dtype=np.int64)

    # -- reductions ----------------------------------------------------- #
    def popcount_rows(self, words):
        w = np.asarray(words)
        out = np.empty(w.shape[:-1], dtype=np.int64)
        for index in np.ndindex(w.shape[:-1]):
            out[index] = sum(int(value).bit_count() for value in w[index])
        return out

    # -- structured ----------------------------------------------------- #
    def masked_ixor_rows(self, dest, mask, row) -> None:
        mask_arr = np.asarray(mask)
        row_arr = np.asarray(row)
        for i in range(dest.shape[0]):
            if bool(mask_arr[i]):
                for j in range(dest.shape[1]):
                    dest[i, j] = int(dest[i, j]) ^ int(row_arr[j])

    def masked_iadd(self, dest, mask, values) -> None:
        mask_arr = np.asarray(mask)
        values_arr = np.asarray(values)
        cursor = 0
        for i in range(dest.shape[0]):
            if bool(mask_arr[i]):
                value = int(values_arr) if values_arr.ndim == 0 else int(values_arr[cursor])
                dest[i] = int(dest[i]) + value
                cursor += 1
