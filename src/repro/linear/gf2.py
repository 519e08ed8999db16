"""Dense GF(2) matrix routines built on boolean numpy arrays."""

from __future__ import annotations

import numpy as np

from repro.exceptions import SynthesisError


def _as_bool_matrix(matrix: np.ndarray) -> np.ndarray:
    result = np.array(matrix, dtype=bool, copy=True)
    if result.ndim != 2:
        raise SynthesisError("expected a 2-D matrix")
    return result


def gf2_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Matrix-vector product over GF(2)."""
    matrix = np.asarray(matrix, dtype=bool)
    vector = np.asarray(vector, dtype=bool)
    return (matrix @ vector.astype(np.int64)) % 2 == 1


def gf2_gauss_elim(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduce ``matrix`` over GF(2).

    Returns the reduced matrix and the list of pivot column indices.
    """
    work = _as_bool_matrix(matrix)
    rows, cols = work.shape
    pivot_columns: list[int] = []
    pivot_row = 0
    for column in range(cols):
        if pivot_row >= rows:
            break
        candidates = np.nonzero(work[pivot_row:, column])[0]
        if candidates.size == 0:
            continue
        chosen = pivot_row + int(candidates[0])
        if chosen != pivot_row:
            work[[pivot_row, chosen]] = work[[chosen, pivot_row]]
        eliminate = work[:, column].copy()
        eliminate[pivot_row] = False
        work[eliminate] ^= work[pivot_row]
        pivot_columns.append(column)
        pivot_row += 1
    return work, pivot_columns


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over GF(2)."""
    _, pivots = gf2_gauss_elim(matrix)
    return len(pivots)


def gf2_is_invertible(matrix: np.ndarray) -> bool:
    """True when ``matrix`` is square and full rank over GF(2)."""
    matrix = np.asarray(matrix, dtype=bool)
    return matrix.shape[0] == matrix.shape[1] and gf2_rank(matrix) == matrix.shape[0]


def gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square invertible matrix over GF(2)."""
    work = _as_bool_matrix(matrix)
    size = work.shape[0]
    if work.shape[1] != size:
        raise SynthesisError("only square matrices can be inverted")
    augmented = np.concatenate([work, np.eye(size, dtype=bool)], axis=1)
    reduced, pivots = gf2_gauss_elim(augmented)
    if pivots[: size] != list(range(size)):
        raise SynthesisError("matrix is singular over GF(2)")
    return reduced[:, size:]


def gf2_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` over GF(2) (least structured solution).

    Raises :class:`SynthesisError` when no solution exists.  When the system
    is under-determined, free variables are set to zero.
    """
    work = _as_bool_matrix(matrix)
    rhs = np.asarray(rhs, dtype=bool).reshape(-1)
    rows, cols = work.shape
    if rhs.shape[0] != rows:
        raise SynthesisError("right-hand side length does not match the matrix")
    augmented = np.concatenate([work, rhs.reshape(-1, 1)], axis=1)
    reduced, pivots = gf2_gauss_elim(augmented)
    if cols in pivots:
        raise SynthesisError("inconsistent GF(2) linear system")
    solution = np.zeros(cols, dtype=bool)
    for pivot_row, pivot_col in enumerate(pivots):
        solution[pivot_col] = reduced[pivot_row, cols]
    return solution
