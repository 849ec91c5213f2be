"""Exact linear algebra over rational numbers.

Matrices are numpy arrays with ``dtype=object`` whose entries are
``fractions.Fraction`` values, so every operation is exact.  Only the small
amount of linear algebra the rest of the package needs lives here:
construction, identity, Gauss-Jordan inversion with pivot search, rank,
and float conversion.  The matrices are at most 14x14 and mostly zero
(restricted pairing matrices, chart Jacobians), so the elimination runs on
Python lists and multiplies only the nonzero entries of each pivot row,
as the other exact kernels of the package walk only nonzero structure
constants, coordinates and Jacobian entries.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

import numpy as np

__all__ = [
    "SingularMatrixError",
    "rat",
    "rarray",
    "rzeros",
    "reye",
    "rat_inv",
    "rat_rank",
    "to_float",
]


class SingularMatrixError(ValueError):
    """Raised when a matrix inversion is requested for a singular matrix."""

    def __init__(self, message: str, rank: int) -> None:
        super().__init__(message)
        self.rank = rank


def rat(value) -> Fraction:
    """Coerce ``value`` to an exact ``Fraction``.

    Accepts ``Fraction``, integers, strings like ``"3/7"``, and floats
    (converted exactly via their binary expansion).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (Rational, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rarray(rows) -> np.ndarray:
    """Build an object-dtype array of ``Fraction`` from nested sequences."""
    arr = np.array(rows, dtype=object)
    flat = arr.reshape(-1)
    for i, entry in enumerate(flat):
        flat[i] = rat(entry)
    return flat.reshape(arr.shape)


def rzeros(shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr.reshape(-1)[:] = [Fraction(0)] * arr.size
    return arr


def reye(n: int) -> np.ndarray:
    arr = rzeros((n, n))
    for i in range(n):
        arr[i, i] = Fraction(1)
    return arr


def _gauss_jordan(matrix: np.ndarray) -> tuple[int, list[list[Fraction]]]:
    """Row-reduce ``[M | I]`` over the columns of ``M``, with row-swap pivoting.

    Returns the rank of ``M`` and the reduced augmented matrix as a list of
    rows, whose right block is the inverse of ``M`` when ``M`` is square and
    of full rank.  A step updates only the pivot row's nonzero columns.
    """
    n_rows, n_cols = matrix.shape
    work = [
        [rat(x) for x in row] + [Fraction(int(i == j)) for j in range(n_rows)]
        for i, row in enumerate(matrix.tolist())
    ]
    rank = 0
    for col in range(n_cols):
        pivot_row = next(
            (row for row in range(rank, n_rows) if work[row][col]), None
        )
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        work[rank] = [x / pivot if x else x for x in work[rank]]
        support = [(c, x) for c, x in enumerate(work[rank]) if x]
        for row in range(n_rows):
            factor = work[row][col]
            if row != rank and factor:
                target = work[row]
                for c, x in support:
                    target[c] -= factor * x
        rank += 1
        if rank == n_rows:
            break
    return rank, work


def rat_inv(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix of ``Fraction`` entries exactly.

    Gauss-Jordan elimination of ``[M | I]``.  Raises
    ``SingularMatrixError``, carrying the rank, if ``M`` is singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    rank, work = _gauss_jordan(matrix)
    if rank < n:
        raise SingularMatrixError(f"matrix is singular (rank {rank} of {n})", rank)
    return rarray([row[n:] for row in work]).reshape(n, n)


def rat_rank(matrix: np.ndarray) -> int:
    """Exact rank via the same Gauss-Jordan reduction as :func:`rat_inv`."""
    return _gauss_jordan(matrix)[0]


def to_float(matrix: np.ndarray) -> np.ndarray:
    """Convert an object-dtype rational array to float64."""
    return np.asarray(matrix, dtype=float)
