"""Exact linear algebra over rational numbers.

An exact matrix is a :class:`RatMatrix`: an immutable tuple of row tuples
whose entries are ``fractions.Fraction`` values, so every operation is
exact and a built matrix can be shared safely.  It indexes by pairs
(``m[i, j]``; ``m[i]`` is row ``i``), reports its ``shape``, multiplies
with ``@`` by a matrix or a vector, and transposes with ``T``.  Only the
small amount of linear algebra the rest of the package needs lives here:
that type, the congruence ``J M J^T``, and inversion and rank by one
fraction-free elimination on sparse integer rows.  The matrices are at
most 14x14 and mostly zero (restricted pairing matrices, chart
Jacobians), so the kernels read only nonzero entries: a product or a
congruence adds up the products of each result entry as integer
numerator/denominator pairs and forms one ``Fraction`` per nonzero entry;
an entry that no product reaches, or whose products cancel, is the shared
zero.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .records import rat

__all__ = [
    "SingularMatrixError",
    "RatMatrix",
    "congruence",
    "rat_inv",
    "rat_rank",
]


class SingularMatrixError(ValueError):
    """Raised when a matrix inversion is requested for a singular matrix."""

    def __init__(self, message: str, rank: int) -> None:
        super().__init__(message)
        self.rank = rank


_ZERO = Fraction(0)


def _matrix(rows) -> "RatMatrix":
    """A :class:`RatMatrix` of ``rows`` whose entries are already ``Fraction``."""
    return tuple.__new__(RatMatrix, map(tuple, rows))


def _pairs(entries) -> list[tuple[int, int, int]]:
    """The nonzero ``(index, Fraction)`` items of ``entries`` as
    ``(index, numerator, denominator)`` triples of integers."""
    pairs = []
    for j, x in entries:
        n, d = x.as_integer_ratio()
        if n:
            pairs.append((j, n, d))
    return pairs


def _sums(pairs, rows) -> dict[int, list[int]]:
    """The sparse row ``sum_k (n_k / d_k) rows[k]`` over the ``(k, n_k, d_k)``
    of ``pairs``, each row given by :func:`_pairs`: a ``[numerator,
    denominator]`` list of integers per column that some product reaches,
    added up by cross-multiplication and not reduced."""
    acc: dict[int, list[int]] = {}
    for k, n, d in pairs:
        for j, rn, rd in rows[k]:
            tn, td = n * rn, d * rd
            entry = acc.get(j)
            if entry is None:
                acc[j] = [tn, td]
            elif entry[1] == td:
                entry[0] += tn
            else:
                entry[0] = entry[0] * td + tn * entry[1]
                entry[1] *= td
    return acc


def _fractions(sums: dict[int, list[int]], n: int) -> list[Fraction]:
    """The ``n`` entries of a row of :func:`_sums`, one ``Fraction`` per nonzero one."""
    row = [_ZERO] * n
    for j, (num, den) in sums.items():
        if num:
            row[j] = Fraction(num, den)
    return row


class RatMatrix(tuple):
    """An exact matrix: a tuple of equal-length row tuples of ``Fraction``.

    ``RatMatrix(rows)`` coerces every entry with :func:`rat` and raises
    ``ValueError`` when the rows differ in length.  Equality is
    the tuples' (exact, entrywise), and ``+`` and ``*`` are refused rather
    than concatenating or repeating rows.
    """

    __slots__ = ()

    def __new__(cls, rows=()) -> "RatMatrix":
        matrix = _matrix([rat(x) for x in row] for row in rows)
        if len(set(lengths := [len(row) for row in matrix])) > 1:
            raise ValueError(f"matrix rows differ in length: {lengths}")
        return matrix

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
        is a tuple).  Only pairs of nonzero entries are multiplied, and each
        entry's products are added up on integers (see :func:`_sums`)."""
        if not isinstance(other, RatMatrix):
            return tuple(entry for entry, in self @ _matrix([rat(x)] for x in other))
        if self.shape[1] != len(other):
            raise ValueError(f"cannot multiply a {self.shape} matrix by {len(other)} rows")
        n_cols = other.shape[1]
        rows = [_pairs(enumerate(row)) for row in other]
        return _matrix(_fractions(_sums(_pairs(enumerate(row)), rows), n_cols) for row in self)

    def _refused(self, other):
        return NotImplemented

    __add__ = __radd__ = __mul__ = __rmul__ = _refused


def congruence(jacobian: RatMatrix, matrix: RatMatrix) -> RatMatrix:
    """The congruence ``J M J^T`` of the square ``matrix`` M by ``jacobian`` J.

    Row ``a`` of ``J M`` is kept as unreduced integer pairs, and entry
    ``(a, b)`` adds up its products with column ``b`` of ``J^T`` on
    integers too, so each nonzero entry is one ``Fraction``.
    """
    n = jacobian.shape[1]
    if matrix.shape != (n, n):
        raise ValueError(f"cannot form J M J^T of a {jacobian.shape} J and a {matrix.shape} M")
    m_rows = [_pairs(enumerate(row)) for row in matrix]
    transposed = [_pairs(enumerate(column)) for column in zip(*jacobian)]
    product = []
    for row in jacobian:
        left = _sums(_pairs(enumerate(row)), m_rows)  # row a of J M
        left_pairs = [(j, num, den) for j, (num, den) in left.items() if num]
        product.append(_fractions(_sums(left_pairs, transposed), len(jacobian)))
    return _matrix(product)


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
        pairs = _pairs(enumerate(row))
        scale = math.lcm(*(den for _, _, den in pairs))
        rows.append({j: num * (scale // den) for j, num, den in pairs})
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
