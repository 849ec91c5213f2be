"""Exact linear algebra over rational numbers.

An exact matrix is a :class:`RatMatrix`: an immutable tuple of row tuples
whose entries are ``fractions.Fraction`` values, so every operation is
exact and a built matrix can be shared safely.  It indexes by pairs
(``m[i, j]``; ``m[i]`` is row ``i``), reports its ``shape``, multiplies
with ``@`` by a matrix or a vector, and transposes with ``T``.  Only the
small amount of linear algebra the rest of the package needs lives here:
that type, Gauss-Jordan inversion with pivot search, rank, and a checked
float conversion.  The matrices are at most 14x14 and mostly zero
(restricted pairing matrices, chart Jacobians), so products and the
elimination multiply only nonzero entries, as the other exact kernels of
the package walk only nonzero structure constants, coordinates and
Jacobian entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

__all__ = [
    "SingularMatrixError",
    "RatMatrix",
    "checked_float",
    "rat",
    "rat_inv",
    "rat_rank",
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


def _matrix(rows) -> "RatMatrix":
    """A :class:`RatMatrix` of ``rows`` whose entries are already ``Fraction``."""
    return tuple.__new__(RatMatrix, map(tuple, rows))


class RatMatrix(tuple):
    """An exact matrix: a tuple of equal-length row tuples of ``Fraction``.

    ``RatMatrix(rows)`` coerces every entry with :func:`rat`.  Equality is
    the tuples' (exact, entrywise), and ``+`` and ``*`` are refused rather
    than concatenating or repeating rows.
    """

    __slots__ = ()

    def __new__(cls, rows=()) -> "RatMatrix":
        return _matrix([rat(x) for x in row] for row in rows)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return _matrix(
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), len(tuple.__getitem__(self, 0)) if self else 0

    def __getitem__(self, index):
        if isinstance(index, tuple):
            i, j = index
            return tuple.__getitem__(self, i)[j]
        return tuple.__getitem__(self, index)

    @property
    def T(self) -> "RatMatrix":
        return _matrix(zip(*self))

    def __matmul__(self, other):
        """The product with a :class:`RatMatrix` (a matrix), or with a
        sequence of numbers (a vector, coerced by :func:`rat`; the product
        is a tuple).  Zero entries of either factor are skipped."""
        if not isinstance(other, RatMatrix):
            vector = [rat(x) for x in other]
            self._check_inner(len(vector))
            return tuple(
                sum((a * x for a, x in zip(row, vector) if a and x), Fraction(0))
                for row in self
            )
        self._check_inner(len(other))
        n_cols = other.shape[1]
        product = []
        for row in self:
            acc = [Fraction(0)] * n_cols
            for a, other_row in zip(row, other):
                if a:
                    for j, b in enumerate(other_row):
                        if b:
                            acc[j] += a * b
            product.append(acc)
        return _matrix(product)

    def _check_inner(self, n: int) -> None:
        if self.shape[1] != n:
            raise ValueError(f"cannot multiply a {self.shape} matrix by {n} rows")

    def _refused(self, other):
        return NotImplemented

    __add__ = __radd__ = __mul__ = __rmul__ = _refused


def _gauss_jordan(matrix: RatMatrix) -> tuple[int, list[list[Fraction]]]:
    """Row-reduce ``[M | I]`` over the columns of ``M``, with row-swap pivoting.

    Returns the rank of ``M`` and the reduced augmented matrix as a list of
    rows, whose right block is the inverse of ``M`` when ``M`` is square and
    of full rank.  A step updates only the pivot row's nonzero columns.
    """
    n_rows, n_cols = matrix.shape
    work = [
        [*row, *(Fraction(int(i == j)) for j in range(n_rows))]
        for i, row in enumerate(matrix)
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


def rat_inv(matrix: RatMatrix) -> RatMatrix:
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
    return _matrix(row[n:] for row in work)


def rat_rank(matrix: RatMatrix) -> int:
    """Exact rank via the same Gauss-Jordan reduction as :func:`rat_inv`."""
    return _gauss_jordan(matrix)[0]


def checked_float(value, name: str) -> float:
    """The float nearest the exact ``value``; :class:`OverflowError` naming
    ``name`` when it overflows, or when it is exactly nonzero but rounds to 0."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf if value > 0 else -math.inf
    if math.isinf(result) or (result == 0 and value != 0):
        raise OverflowError(f"{name} is {result!r} as a float but not exactly")
    return result
