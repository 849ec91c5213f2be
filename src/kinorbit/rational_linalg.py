"""Exact linear algebra over rational numbers.

An exact matrix is a :class:`RatMatrix`: an immutable tuple of row tuples
whose entries are ``fractions.Fraction`` values, so every operation is
exact and a built matrix can be shared safely.  It indexes by pairs
(``m[i, j]``; ``m[i]`` is row ``i``), reports its ``shape``, multiplies
with ``@`` by a matrix or a vector, and transposes with ``T``.  Only the
small amount of linear algebra the rest of the package needs lives here:
that type, inversion and rank by one fraction-free elimination on sparse
integer rows, and a checked float conversion.  The matrices are at most
14x14 and mostly zero (restricted pairing matrices, chart Jacobians), so a
product multiplies only pairs of nonzero entries.
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


_ZERO = Fraction(0)


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
        is a tuple).  Only pairs of nonzero entries are multiplied, and an
        entry that no such pair reaches is the shared zero."""
        if not isinstance(other, RatMatrix):
            return tuple(entry for entry, in self @ _matrix([rat(x)] for x in other))
        if self.shape[1] != len(other):
            raise ValueError(f"cannot multiply a {self.shape} matrix by {len(other)} rows")
        n_cols = other.shape[1]
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other]
        product = []
        for row in self:
            acc: dict[int, Fraction] = {}
            for a, other_row in zip(row, sparse):
                if a:
                    for j, b in other_row:
                        acc[j] = acc[j] + a * b if j in acc else a * b
            product.append([acc.get(j, _ZERO) for j in range(n_cols)])
        return _matrix(product)

    def _refused(self, other):
        return NotImplemented

    __add__ = __radd__ = __mul__ = __rmul__ = _refused


def _eliminate(matrix: RatMatrix, augment: bool) -> tuple[int, int, list[dict[int, int]]]:
    """Fraction-free Gauss-Jordan elimination of ``M`` (of ``[M | I]`` when
    ``augment``) over the columns of ``M``, each row scaled by the lcm of its
    denominators to a sparse integer row ``{column: value}``.

    A step with pivot ``p``, after pivot ``q`` (1 at first), replaces every
    other row by ``(p * row - row[c] * pivot_row) / q``: the entries stay
    integer minors, so each division is exact (Bareiss, Math. Comp. 22
    (1968) 565).  Returns the rank, the last pivot and the rows; the first
    ``rank`` are the pivot rows, each with the last pivot on its column.
    """
    n_rows, n_cols = matrix.shape
    rows = []
    for i, row in enumerate(matrix):
        scale = math.lcm(*(x.denominator for x in row if x))
        rows.append({j: x.numerator * (scale // x.denominator) for j, x in enumerate(row) if x})
        if augment:
            rows[i][n_cols + i] = scale
    rank, previous = 0, 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if col in rows[r]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot_entries = rows[rank]
        pivot = pivot_entries[col]
        for r, target in enumerate(rows):
            factor = target.get(col, 0)
            if r == rank or (not factor and pivot == previous):
                continue
            if not factor:  # only the scale changes
                rows[r] = {c: x * pivot // previous for c, x in target.items()}
                continue
            scaled = {c: x * pivot for c, x in target.items()}
            for c, x in pivot_entries.items():  # cancels the entry at col
                scaled[c] = scaled.get(c, 0) - factor * x
            rows[r] = {c: x // previous for c, x in scaled.items() if x}
        rank += 1
        previous = pivot
        if rank == n_rows:
            break
    return rank, previous, rows


def rat_inv(matrix: RatMatrix) -> RatMatrix:
    """Invert a square matrix of ``Fraction`` entries exactly.

    The elimination of ``[M | I]`` leaves ``[d I | d M^-1]``, and only then
    are the inverse's entries formed as ``Fraction``.  Raises
    ``SingularMatrixError``, carrying the rank, if ``M`` is singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    rank, d, rows = _eliminate(matrix, augment=True)
    if rank < n:
        raise SingularMatrixError(f"matrix is singular (rank {rank} of {n})", rank)
    return _matrix(
        [Fraction(x, d) if (x := row.get(j)) else _ZERO for j in range(n, 2 * n)]
        for row in rows
    )


def rat_rank(matrix: RatMatrix) -> int:
    """Exact rank via the same fraction-free elimination as :func:`rat_inv`."""
    return _eliminate(matrix, augment=False)[0]


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
