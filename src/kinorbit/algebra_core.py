"""Finite-dimensional Lie algebras presented by exact rational structure constants.

A :class:`StructureConstants` instance owns an ordered basis of labeled
generators and the antisymmetric bracket coefficients ``C[i][j][k]`` with
``[e_i, e_j] = C_ij^k e_k``.  All coefficients are ``fractions.Fraction``
values, so antisymmetry and the Jacobi identity are checked exactly rather
than to a tolerance.

Which products ``C_bc^m C_am^l`` feed which Jacobi sum depends only on the
table's sparsity pattern: the targets of each stored pair ``i < j``, in
table order.  :meth:`StructureConstants.jacobi_violations` reads a plan of
those products, built once per pattern and kept in a bounded cache keyed by
it, and sums them on the table's values scaled to integers by the lcm ``D``
of their denominators; a nonzero sum ``s`` is the residual ``s / D**2``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping

from .rational_linalg import RatMatrix
from .records import Record, rat

__all__ = [
    "GeneratorLabel",
    "StructureConstants",
    "AlgebraElement",
    "JacobiViolation",
]


class GeneratorLabel(Record):
    """A named basis generator with a formal physical-dimension tag.

    ``physical_dimension`` is a pair of integer exponents ``(a, b)`` meaning
    the generator carries dimension ``L^a T^b`` (length and time powers).
    The tag is bookkeeping metadata; it does not affect any computation.
    """

    __slots__ = _fields = ("name", "physical_dimension")

    def __init__(self, name: str, physical_dimension: tuple[int, int] = (0, 0)) -> None:
        self._init(name, physical_dimension)

    def dimension_text(self) -> str:
        a, b = self.physical_dimension
        parts = []
        if a:
            parts.append("L" if a == 1 else f"L^{a}")
        if b:
            parts.append("T" if b == 1 else f"T^{b}")
        return " ".join(parts) if parts else "1"


class JacobiViolation(Record):
    """One failing Jacobi triple: the cyclic bracket sum has a nonzero component."""

    __slots__ = _fields = ("triple", "residual")

    def __init__(
        self, triple: tuple[str, str, str], residual: tuple[tuple[str, Fraction], ...]
    ) -> None:
        self._init(triple, residual)

    @property
    def magnitude(self) -> Fraction:
        return max(abs(value) for _, value in self.residual)


def _as_label(entry) -> GeneratorLabel:
    if isinstance(entry, GeneratorLabel):
        return entry
    if isinstance(entry, str):
        return GeneratorLabel(entry)
    raise TypeError(f"generator must be a name or GeneratorLabel, got {entry!r}")


@lru_cache(maxsize=128)
def _jacobi_plan(pattern):
    """Which products of structure constants feed which Jacobi sum.

    ``pattern`` lists each stored pair once, in table order, as
    ``((i, j), (k, ...))``: the targets k of its nonzero ``C_ij^k``, i < j.
    Numbering those entries in the same order gives the flat value vector.
    The plan lists, by sorted triple ``(i, j, k)`` and then by component l,
    ``(l, plus, minus)``: the index pairs into the value vector whose
    products are added to or subtracted from the l component of
    ``[e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]``.
    """
    # outer[m]: (a, sign, {l: index of C_am^l up to sign}) for each a
    # bracketing with m, so that C_am^l = sign * value[index]
    outer: dict[int, list] = defaultdict(list)
    stored, flat = [], 0
    for (i, j), targets in pattern:
        index = dict(zip(targets, range(flat, flat + len(targets))))
        flat += len(targets)
        stored.append((i, j, index))
        outer[j].append((i, 1, index))
        outer[i].append((j, -1, index))
    # each product C_bc^m C_am^l is visited once, from its stored inner pair
    # (b, c) = (i, j): (a, i, j) is a cyclic order of the sorted triple unless
    # i < a < j, where (a, j, i) is and C_ji^m = -C_ij^m
    sums: dict[tuple, tuple[list, list]] = {}
    for i, j, inner in stored:
        for m, x in inner.items():
            for a, sign, targets in outer[m]:
                if a == i or a == j:
                    continue
                if a < i:
                    triple = (a, i, j)
                elif a < j:
                    triple, sign = (i, a, j), -sign
                else:
                    triple = (i, j, a)
                for l, y in targets.items():
                    sums.setdefault((triple, l), ([], []))[sign < 0].append((x, y))
    return tuple(
        (triple, tuple((l, *map(tuple, sums[triple, l])) for _, l in group))
        for triple, group in groupby(sorted(sums), key=itemgetter(0))
    )


class StructureConstants:
    """Exact structure constants of a finite-dimensional Lie algebra.

    Parameters
    ----------
    generators:
        Ordered basis, as names or :class:`GeneratorLabel` instances.  Names
        must be unique.
    brackets:
        Mapping ``(a, b) -> {target: coefficient}`` giving ``[a, b]`` for
        generator names ``a``, ``b``.  Only one orientation of each pair may
        be supplied; the reversed bracket is filled in by antisymmetry.
        Coefficients are coerced to ``Fraction``.
    """

    def __init__(
        self,
        generators: Iterable[GeneratorLabel | str],
        brackets: Mapping[tuple[str, str], Mapping[str, object]],
    ) -> None:
        self.basis: tuple[GeneratorLabel, ...] = tuple(
            _as_label(g) for g in generators
        )
        names = [g.name for g in self.basis]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in basis: {names}")
        self._index = {name: i for i, name in enumerate(names)}

        pairs = []
        seen_pairs: set[tuple[int, int]] = set()
        for (a, b), components in brackets.items():
            i, j = self.index(a), self.index(b)
            if i == j:
                if any(rat(v) != 0 for v in components.values()):
                    raise ValueError(f"bracket [{a}, {a}] must vanish")
                continue
            if (i, j) in seen_pairs or (j, i) in seen_pairs:
                raise ValueError(
                    f"bracket for the pair ({a}, {b}) was supplied twice"
                )
            seen_pairs.add((i, j))
            reversed_pair = i > j
            if reversed_pair:
                i, j = j, i
            entry = {}
            for target, coeff in components.items():
                value = rat(coeff)
                if value != 0:
                    entry[self.index(target)] = -value if reversed_pair else value
            if entry:
                pairs.append(((i, j), entry, {k: -v for k, v in entry.items()}))
        self._set_table(pairs)

    @classmethod
    def _normalised(cls, basis, index: dict[str, int], pairs) -> "StructureConstants":
        """An algebra from an already-normalised table, unchecked and shared,
        not copied: ``pairs`` lists each nonzero bracket once as
        ``((i, j), {k: C_ij^k}, {k: -C_ij^k})``, i < j, without zeros."""
        algebra = cls.__new__(cls)
        algebra.basis, algebra._index = basis, index
        algebra._set_table(pairs)
        return algebra

    def _set_table(self, pairs) -> None:
        self._table: dict[tuple[int, int], dict[int, Fraction]] = {}
        # signed adjacency i -> j -> {k: C_ij^k}, both orientations of each pair
        self._adjacency: list[dict[int, dict[int, Fraction]]] = [{} for _ in self.basis]
        for (i, j), entry, negated in pairs:
            self._table[(i, j)] = entry
            self._adjacency[i][j] = entry
            self._adjacency[j][i] = negated

    # -- basic introspection ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.basis)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"unknown generator {name!r}; basis is {self.names}"
            ) from None

    def label(self, name: str) -> GeneratorLabel:
        return self.basis[self.index(name)]

    # -- bracket data -------------------------------------------------------

    def bracket_targets(self, i: int, j: int) -> dict[int, Fraction]:
        """Components of ``[e_i, e_j]`` as ``{k: C_ij^k}`` (signed), as a copy."""
        return dict(self._adjacency[i].get(j, {}))

    def pair_table(self):
        """Iterate sparse bracket data as ``((i, j), {k: C_ij^k})`` with i < j."""
        return ((pair, dict(comps)) for pair, comps in self._table.items())

    def kirillov_rows(self, alpha, rows) -> list[dict[int, Fraction]]:
        """The nonzero entries ``{j: K_ij}`` of the rows ``i`` in ``rows`` of the
        Kirillov matrix ``K_ij = alpha([e_i, e_j]) = sum_k alpha_k C_ij^k``."""
        out = []
        for i in rows:
            row = {}
            for j, targets in self._adjacency[i].items():
                terms = [alpha[k] * c for k, c in targets.items() if alpha[k]]
                if terms and (value := sum(terms[1:], terms[0])):
                    row[j] = value
            out.append(row)
        return out

    def element(self, coords: Mapping[str, object]) -> "AlgebraElement":
        vec = [Fraction(0)] * self.dim
        for name, value in coords.items():
            vec[self.index(name)] = rat(value)
        return AlgebraElement(self, tuple(vec))

    def basis_element(self, name: str) -> "AlgebraElement":
        return self.element({name: 1})

    # -- operations ---------------------------------------------------------

    def bracket(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("bracket arguments must belong to this algebra")
        out = [Fraction(0)] * self.dim
        for (i, j), comps in self._table.items():
            factor = x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i]
            if factor != 0:
                for k, v in comps.items():
                    out[k] += factor * v
        return AlgebraElement(self, tuple(out))

    def adjoint_matrix(self, coords: Mapping[str, object]) -> RatMatrix:
        """Matrix of ``ad_A = [A, . ]`` with ``A`` given by named coordinates.

        Entry ``(k, j)`` is the ``e_k`` component of ``[A, e_j]``.
        """
        n = self.dim
        mat = [[Fraction(0)] * n for _ in range(n)]
        for name, value in coords.items():
            a_i = rat(value)
            if a_i == 0:
                continue
            for j, targets in self._adjacency[self.index(name)].items():
                for k, v in targets.items():
                    mat[k][j] += a_i * v
        return RatMatrix(mat)

    def jacobi_violations(self) -> list[JacobiViolation]:
        """All index triples where the cyclic Jacobi sum fails, exactly.

        The sums are read off the plan of the table's sparsity pattern
        (:func:`_jacobi_plan`) and evaluated on the table's values scaled to
        integers.
        """
        table = self._table
        plan = _jacobi_plan(tuple((pair, tuple(entry)) for pair, entry in table.items()))
        if not plan:
            return []
        values = [v for entry in table.values() for v in entry.values()]
        scale = lcm(*(v.denominator for v in values))
        ints = [v.numerator * (scale // v.denominator) for v in values]
        scale *= scale
        names = self.names
        violations = []
        for triple, sums in plan:
            residual = []
            for l, plus, minus in sums:
                total = sum([ints[x] * ints[y] for x, y in plus]) - sum(
                    [ints[x] * ints[y] for x, y in minus]
                )
                if total:
                    residual.append((names[l], Fraction(total, scale)))
            if residual:
                violations.append(
                    JacobiViolation(
                        triple=tuple(names[i] for i in triple), residual=tuple(residual)
                    )
                )
        return violations

    @property
    def is_lie_algebra(self) -> bool:
        return not self.jacobi_violations()

    def __repr__(self) -> str:
        return f"StructureConstants(dim={self.dim}, basis={self.names})"


class AlgebraElement(Record):
    """An element ``x = x^i e_i`` of a fixed algebra, with exact coordinates."""

    __slots__ = _fields = ("algebra", "coords")

    def __init__(self, algebra: StructureConstants, coords: tuple[Fraction, ...]) -> None:
        if len(coords) != algebra.dim:
            raise ValueError(
                f"element has {len(coords)} coordinates for a "
                f"{algebra.dim}-dimensional algebra"
            )
        self._init(algebra, coords)

    def coordinate(self, name: str) -> Fraction:
        return self.coords[self.algebra.index(name)]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, scalar) -> "AlgebraElement":
        s = rat(scalar)
        return AlgebraElement(self.algebra, tuple(s * a for a in self.coords))

    __rmul__ = __mul__

    def bracket(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.bracket(self, other)

    def _check(self, other: "AlgebraElement") -> None:
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

