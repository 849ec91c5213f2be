"""Coadjoint-orbit symplectic structures from exact structure constants.

A point ``alpha`` in the dual of a Lie algebra carries the Kirillov
pairing ``K_ij(alpha) = sum_k alpha_k C_ij^k``.  Restricted to the
directions spanning an orbit chart this matrix is (minus) the Poisson
bracket of the dual coordinates: ``{x_a, x_b} = -K_ab``.  The module
builds the restricted matrix ``omega``, its exact inverse ``theta``, and
the bracket matrix of user-declared canonical coordinates, from which the
position/momentum noncommutativity scalars ``G`` and ``F`` are read off
and the phase-space type is classified.

Each kernel forms only the Kirillov entries it reads: :func:`restrict` the
chart's block, :func:`casimir_residual` the rows on the gradient's support.
Both add up their products on integers and form one ``Fraction`` per
nonzero result entry: :func:`restrict` takes the canonical brackets
``J omega^T J^T`` from ``rational_linalg.congruence``, and
:func:`casimir_residual` sums ``-K^T grad`` the same way.  The gradients
come from forward-mode dual numbers, whose sums and differences add or
subtract partials without scaling them by 1 or -1, and a coordinate is
seeded only when the invariant reads it.  :func:`classify` compares the
row tuples of the canonical bracket matrix once with the G/F template's.
:func:`darboux_map`
gives each chart's brackets as the image of commutative coordinates under
one exact linear map, the minimal coupling that sources them.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from operator import index, itemgetter

from .algebra_core import StructureConstants
from .catalog import STANDARD_ORBIT_NAMES, KinematicalParams, build
from .rational_linalg import (
    _ZERO, RatMatrix, SingularMatrixError, _fractions, _matrix, _pairs, _sums, congruence,
    rat_inv, rat_rank,
)
from .records import CatalogError, Record, exact, rat

__all__ = [
    "DualPoint",
    "DegenerateChartError",
    "OrbitChart",
    "SymplecticStructure",
    "MagneticCouplings",
    "OrbitInvariant",
    "StandardOrbit",
    "kirillov_matrix",
    "casimir_residual",
    "forward_mode_gradient",
    "restrict",
    "classify",
    "darboux_map",
    "poisson_bracket",
    "magnetic_fields",
    "standard_orbit",
]


class DegenerateChartError(ValueError):
    """Raised when the restricted Kirillov matrix is singular on a chart, or
    when a standard orbit's position scale vanishes; ``rank`` is the exact
    rank of the restricted Kirillov matrix, for a standard orbit the
    pairing on (K1, K2, P1, P2) at its base point."""

    def __init__(self, message: str, rank: int) -> None:
        super().__init__(message)
        self.rank = rank


class DualPoint(Record):
    """A point in the dual of a Lie algebra, stored as exact coordinates."""

    __slots__ = _fields = ("algebra", "coords")

    def __init__(self, algebra: StructureConstants, coords: tuple[Fraction, ...]) -> None:
        coords = tuple(rat(c) for c in coords)
        if len(coords) != algebra.dim:
            raise ValueError(
                f"expected {algebra.dim} dual coordinates, got {len(coords)}"
            )
        self._init(algebra, coords)

    @classmethod
    def from_mapping(
        cls, algebra: StructureConstants, values: Mapping[str, object]
    ) -> "DualPoint":
        """Build a dual point from named coordinates; unnamed ones are zero."""
        coords = [Fraction(0)] * algebra.dim
        for name, value in values.items():
            coords[algebra.index(name)] = rat(value)
        return cls(algebra, tuple(coords))

    def coordinate(self, name: str) -> Fraction:
        return self.coords[self.algebra.index(name)]

    def replace(self, **values: object) -> "DualPoint":
        coords = list(self.coords)
        for name, value in values.items():
            coords[self.algebra.index(name)] = rat(value)
        return DualPoint(self.algebra, tuple(coords))


def _point_coords(algebra: StructureConstants, point) -> tuple[Fraction, ...]:
    if isinstance(point, DualPoint):
        if point.algebra is not algebra and point.algebra.names != algebra.names:
            raise ValueError("dual point belongs to a different algebra")
        return point.coords
    coords = tuple(rat(c) for c in point)
    if len(coords) != algebra.dim:
        raise ValueError(f"expected {algebra.dim} dual coordinates, got {len(coords)}")
    return coords


def _kirillov_block(algebra: StructureConstants, coords, idx) -> RatMatrix:
    """The block of the Kirillov matrix at ``coords`` on the rows and columns ``idx``."""
    return _matrix([row.get(j, _ZERO) for j in idx] for row in algebra.kirillov_rows(coords, idx))


def kirillov_matrix(algebra: StructureConstants, point) -> RatMatrix:
    """Exact pairing matrix K_ij = sum_k alpha_k C_ij^k."""
    return _kirillov_block(algebra, _point_coords(algebra, point), range(algebra.dim))


def casimir_residual(algebra: StructureConstants, point, grad) -> tuple[Fraction, ...]:
    """The exact vector K(alpha) . grad; it vanishes identically for a Casimir.

    Only the rows of K on the support of ``grad`` are formed, and
    ``(K . grad)_i = -sum_j K_ji grad_j`` by antisymmetry, added up on
    integers with one ``Fraction`` per nonzero entry.  Float gradient
    entries are converted exactly, by their binary expansion.
    """
    coords, grad = _point_coords(algebra, point), list(grad)
    if len(grad) != algebra.dim:
        raise ValueError(f"expected {algebra.dim} entries, got {len(grad)}")
    g = _pairs((j, rat(x)) for j, x in enumerate(grad) if x != 0)
    rows = algebra.kirillov_rows(coords, [j for j, _, _ in g])
    # -K^T . grad: each K row, as integer pairs, scaled by -grad_j
    k_rows = {j: _pairs(row.items()) for (j, _, _), row in zip(g, rows)}
    return tuple(_fractions(_sums([(j, -n, d) for j, n, d in g], k_rows), algebra.dim))


class _Dual:
    """A value together with its partial derivatives (forward mode).

    ``grad`` maps a coordinate index to the partial derivative along it;
    absent indices are zero.  Arithmetic uses only the operations of the
    scalars it wraps, so over ``Fraction`` every derivative is exact.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: dict) -> None:
        self.value = value
        self.grad = grad

    def __add__(self, other) -> "_Dual":
        # a partial that only other has is added to 0, not copied, so a
        # float -0.0 there comes out 0.0, bit for bit the linear-combination
        # form of reference_forms.combined_gradient in the tests
        other = _lift(other)
        grad = dict(self.grad)
        for k, v in other.grad.items():
            grad[k] = grad.get(k, 0) + v
        return _Dual(self.value + other.value, grad)

    __radd__ = __add__

    def __sub__(self, other) -> "_Dual":
        other = _lift(other)
        grad = dict(self.grad)
        for k, v in other.grad.items():
            grad[k] = grad.get(k, 0) - v
        return _Dual(self.value - other.value, grad)

    def __rsub__(self, other) -> "_Dual":
        return _lift(other) - self

    def __neg__(self) -> "_Dual":
        return _Dual(-self.value, {k: -v for k, v in self.grad.items()})

    def __mul__(self, other) -> "_Dual":
        other = _lift(other)
        a, b = self.value, other.value
        grad = {k: b * v for k, v in self.grad.items()}
        for k, v in other.grad.items():
            grad[k] = grad.get(k, 0) + a * v
        return _Dual(a * b, grad)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Dual":
        # (a/b)' = (a' - (a/b) b') / b, dividing last so that an integer
        # divisor keeps Fraction derivatives exact
        other = _lift(other)
        b = other.value
        quotient = self.value / b
        grad = dict(self.grad)
        for k, v in other.grad.items():
            grad[k] = grad.get(k, 0) - quotient * v
        return _Dual(quotient, {k: v / b for k, v in grad.items()})

    def __rtruediv__(self, other) -> "_Dual":
        return _lift(other) / self


def _lift(value) -> _Dual:
    return value if isinstance(value, _Dual) else _Dual(value, {})


class _Seeds(Sequence):
    """The read-only coordinate sequence :func:`forward_mode_gradient` hands
    ``fn``: entry i is the dual number of coordinate i seeded with ``{i:
    one}``, formed when ``fn`` first reads it and the same object after.
    Indexing, negative indices, slices, ``len`` and iteration behave as on
    a list of every seeded entry, errors included."""

    __slots__ = ("_coords", "_one", "_duals")

    def __init__(self, coords: Sequence, one) -> None:
        self._coords, self._one, self._duals = coords, one, [None] * len(coords)

    def __len__(self) -> int:
        return len(self._duals)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(len(self._duals))[key]]
        dual = self._duals[key]  # the list's IndexError or TypeError
        if dual is None:
            i = index(key) % len(self._duals)
            dual = self._duals[i] = _Dual(self._coords[i], {i: self._one})
        return dual


def forward_mode_gradient(fn: Callable, coords: Sequence) -> list:
    """The gradient of ``fn`` at ``coords`` by forward-mode differentiation.

    ``fn`` takes a coordinate sequence and may use ``+ - * /`` on its
    entries and on constants.  It is handed a read-only sequence that
    seeds a coordinate with the one of its scalar type only when ``fn``
    reads it, so the partial derivatives come out in that type (exact for
    ``Fraction``), and a coordinate ``fn`` does not read, or does not
    depend on, gets the integer 0.
    """
    one = coords[0] ** 0 if len(coords) else 1
    result = fn(_Seeds(coords, one))
    return [result.grad.get(i, 0) for i in range(len(coords))]


class OrbitChart(Record):
    """A chart on a coadjoint orbit.

    ``coordinate_names`` selects the dual directions spanning the chart (in
    order); ``canonical_names`` names the mapped coordinates ``z = J x``
    where ``x`` are the chart dual coordinates and ``J`` is ``jacobian``, a
    :class:`RatMatrix` (identity when omitted).  A ``J`` of exact rank below
    the chart dimension raises ``ValueError`` naming the rank: its ``z``
    would not be coordinates.
    """

    __slots__ = _fields = ("coordinate_names", "canonical_names", "jacobian")

    def __init__(
        self,
        coordinate_names: tuple[str, ...],
        canonical_names: tuple[str, ...] = (),
        jacobian: RatMatrix = (),
    ) -> None:
        n = len(coordinate_names)
        canonical = canonical_names or coordinate_names
        if len(canonical) != n:
            raise ValueError("canonical_names must match chart dimension")
        if jacobian:
            jac = RatMatrix(jacobian)
            if jac.shape != (n, n):
                raise ValueError("jacobian must be square over the chart")
            rank = rat_rank(jac)
            if rank < n:
                raise ValueError(f"jacobian is singular (rank {rank} < {n})")
        else:
            jac = RatMatrix.identity(n)
        self._init(coordinate_names, tuple(canonical), jac)

    @property
    def dim(self) -> int:
        return len(self.coordinate_names)

    @classmethod
    def _scaled(
        cls, coordinate_names: tuple[str, ...], canonical: Mapping[str, tuple[str, Fraction]]
    ) -> "OrbitChart":
        """The chart z_a = scale * x_source, one ``(source, scale)`` pair per
        canonical name ``a``.  With distinct sources and nonzero ``Fraction``
        scales J is nonsingular by construction, so it is stored unchecked."""
        n = len(coordinate_names)
        jac = []
        for source, scale in canonical.values():
            row = [_ZERO] * n
            row[coordinate_names.index(source)] = scale
            jac.append(row)
        return cls._stored(coordinate_names, tuple(canonical), _matrix(jac))


class SymplecticStructure(Record):
    """Restricted Kirillov data on an orbit chart.

    ``omega`` is the restricted pairing matrix, ``theta`` its exact
    inverse, and ``canonical_theta`` the Poisson-bracket matrix of the
    canonical coordinates, ``{z_a, z_b} = (J (-omega) J^T)_ab``.  ``G_field``
    and ``F_field`` are the position-position and momentum-momentum
    noncommutativity scalars read from ``canonical_theta``.
    """

    __slots__ = _fields = (
        "chart", "omega", "theta", "canonical_theta", "G_field", "F_field", "fixed_coordinates",
    )

    def __init__(
        self,
        chart: OrbitChart,
        omega: RatMatrix,
        theta: RatMatrix,
        canonical_theta: RatMatrix,
        G_field: Fraction,
        F_field: Fraction,
        fixed_coordinates: tuple[tuple[str, Fraction], ...] = (),
    ) -> None:
        self._init(chart, omega, theta, canonical_theta, G_field, F_field, fixed_coordinates)

    @property
    def dim(self) -> int:
        return self.chart.dim


def _bracket_scalar(chart: OrbitChart, canonical_theta, first: str, second: str):
    names = chart.canonical_names
    if first in names and second in names:
        return canonical_theta[names.index(first), names.index(second)]
    return Fraction(0)


def restrict(
    algebra: StructureConstants, point, chart: OrbitChart
) -> SymplecticStructure:
    """Restrict the Kirillov pairing at ``point`` to ``chart``.

    Raises :class:`DegenerateChartError` when the restricted matrix is
    singular (reporting its rank), since no symplectic structure exists on
    such a chart.
    """
    coords = _point_coords(algebra, point)
    try:
        idx = [algebra.index(n) for n in chart.coordinate_names]
    except KeyError as exc:
        raise CatalogError(str(exc)) from None
    omega = _kirillov_block(algebra, coords, idx)
    try:
        theta = rat_inv(omega)
    except SingularMatrixError as exc:
        raise DegenerateChartError(
            f"restricted pairing matrix on chart {chart.coordinate_names} is "
            f"singular (rank {exc.rank} < {chart.dim}); the chart does not "
            f"parameterize a symplectic leaf at this point",
            exc.rank,
        ) from None
    # J (-omega) J^T, with -omega = omega^T as omega is antisymmetric
    canonical_theta = congruence(chart.jacobian, omega.T)
    fixed = tuple(
        (name, coords[i])
        for i, name in enumerate(algebra.names)
        if name not in chart.coordinate_names
    )
    return SymplecticStructure(
        chart=chart,
        omega=omega,
        theta=theta,
        canonical_theta=canonical_theta,
        G_field=_bracket_scalar(chart, canonical_theta, "q1", "q2"),
        F_field=_bracket_scalar(chart, canonical_theta, "p1", "p2"),
        fixed_coordinates=fixed,
    )


def _template_deviates(structure: SymplecticStructure) -> bool:
    """True when canonical_theta carries couplings beyond the G/F template.

    The template allows {q1,q2} = G, {p1,p2} = F and a uniform diagonal
    cross bracket {p_i, q^i}; any other nonvanishing canonical bracket is a
    further source of noncommutativity.  The row tuples of canonical_theta
    are compared once with the template's, whose other entries are zero.
    """
    names = structure.chart.canonical_names
    theta = structure.canonical_theta
    template = [[_ZERO] * len(names) for _ in names]
    if {"q1", "q2", "p1", "p2"}.issubset(names):
        q1, q2, p1, p2 = (names.index(name) for name in ("q1", "q2", "p1", "p2"))
        cross = theta[p1][q1]
        pairs = ((q1, q2), (p1, p2), (p1, q1), (p2, q2))
        for (a, b), value in zip(pairs, (structure.G_field, structure.F_field, cross, cross)):
            template[a][b], template[b][a] = value, -value
    return theta != tuple(map(tuple, template))


def classify(structure: SymplecticStructure) -> str:
    """Phase-space type from the exact canonical bracket matrix.

    Returns one of ``canonical``, ``position_nc``, ``momentum_nc``,
    ``fully_nc``.  Every decision is an exact test on the ``Fraction``
    entries, made in one pass over the rows of canonical_theta, so a G or F
    field counts however small it is.  A chart whose brackets deviate from
    the two-scalar template (beyond G, F and the diagonal cross bracket) is
    reported ``fully_nc`` regardless of G and F.
    """
    if _template_deviates(structure):
        return "fully_nc"
    g = structure.G_field != 0
    f = structure.F_field != 0
    if g and f:
        return "fully_nc"
    if g:
        return "position_nc"
    if f:
        return "momentum_nc"
    return "canonical"


def _dot(u, v) -> Fraction:
    return sum(a * b for a, b in zip(u, v))


def darboux_map(structure: SymplecticStructure) -> RatMatrix:
    """The exact J with J C J^T = ``canonical_theta``, C the canonical bracket
    matrix {z_i, z_(k+i)} = -1 of a 2k-dimensional chart: z = J Z on
    commutative coordinates Z.

    A symplectic Gram-Schmidt over the rationals (Artin, Geometric Algebra,
    1957, ch. III) runs on the coordinate covectors of z under the form
    u' theta v.  Step i pairs z_i with z_(k+i) in canonical-name order, or,
    where that pair's value is 0, with the first remaining covector that
    pairs nonzero with z_i; it scales the partner so the value is -1 and
    removes both from every remaining covector.  The paired covectors are
    the rows of W, with W theta W^T = C, and J is W^-1.  J is the identity
    on a ``canonical`` chart, shifts positions by momenta on a
    ``position_nc`` one and momenta by positions on a ``momentum_nc`` one.
    No choice of pivots makes J rotation-covariant on every chart: over the
    rationals the NH- and S charts at m = 3, h = 1/5 admit no such J.
    """
    theta = structure.canonical_theta
    n = len(theta)
    k = n // 2
    rest = dict(enumerate(RatMatrix.identity(n)))  # index -> covector
    rows = [()] * n
    for i in range(k):
        u = rest.pop(i if i in rest else next(iter(rest)))
        theta_u = theta @ u
        partner = next(j for j in sorted(rest, key=lambda j: j != k + i)
                       if _dot(rest[j], theta_u))
        v = rest.pop(partner)
        scale = 1 / _dot(v, theta_u)  # u' theta v = -v' theta u
        v = [scale * x for x in v]
        theta_v = theta @ v
        rows[i], rows[k + i] = u, v
        for j, x in rest.items():
            a, b = _dot(x, theta_u), _dot(x, theta_v)
            rest[j] = [xe + b * ue - a * ve for xe, ue, ve in zip(x, u, v)]
    return rat_inv(_matrix(rows))


def poisson_bracket(structure: SymplecticStructure, grad_a, grad_b):
    """{a, b} = grad_a . canonical_theta . grad_b on the chart coordinates, exactly.

    Float gradient entries are converted exactly, by their binary expansion.
    """
    return (RatMatrix([grad_a]) @ structure.canonical_theta @ grad_b)[0]


class MagneticCouplings(Record):
    """The two magnetic readings of a noncommutative phase space.

    ``e_star_B_star`` is the dual magnetic scalar -h/(m^2 c^2) sourced by
    the second central charge; ``eB`` is the momentum-sector magnetic
    scalar, read from the effective-mass relation (m - mu_e)*omega when an
    effective mass is supplied and from the {p1,p2} bracket otherwise.
    ``eB_from_brackets`` always reports the bracket reading, so the two
    conventions can be compared.
    """

    __slots__ = _fields = ("e_star_B_star", "eB", "eB_from_brackets", "effective_mass", "omega0")

    def __init__(
        self,
        e_star_B_star: Fraction,
        eB: Fraction,
        eB_from_brackets: Fraction,
        effective_mass: Fraction,
        omega0: Fraction | None,
    ) -> None:
        self._init(e_star_B_star, eB, eB_from_brackets, effective_mass, omega0)


def magnetic_fields(
    structure: SymplecticStructure,
    params: KinematicalParams,
    masses: Mapping[str, object],
) -> MagneticCouplings:
    """Magnetic couplings of an orbit with mass/charge values ``masses``.

    ``masses`` must contain ``m`` (coupling mass) and ``h`` (second
    charge); an optional ``mu_e`` switches the ``eB`` reading to the
    effective-mass convention.
    """
    m = rat(masses["m"])
    h = rat(masses.get("h", 0))
    if m == 0:
        raise ValueError("magnetic couplings require a nonzero mass m")
    inv_c2 = params.inv_c2
    e_star = -h * inv_c2 / m**2
    omega0 = None if h == 0 else m / (h * inv_c2)
    f_reading = rat(structure.F_field)
    if "mu_e" in masses:
        mu_e = rat(masses["mu_e"])
        eb = (m - mu_e) * params.omega
    else:
        mu_e = m
        eb = f_reading
    return MagneticCouplings(
        e_star_B_star=e_star,
        eB=eb,
        eB_from_brackets=f_reading,
        effective_mass=mu_e,
        omega0=omega0,
    )


class OrbitInvariant(Record):
    """A named invariant function on the dual, written once as a value.

    ``value`` takes the full dual coordinate vector in basis order (exact
    or float) and returns the invariant.
    :meth:`gradient` is derived from ``value`` by forward-mode
    differentiation, so it is exact over ``Fraction`` coordinates and the
    Casimir residual tests the same formula that is evaluated.
    """

    __slots__ = _fields = ("name", "value")

    def __init__(self, name: str, value: Callable) -> None:
        self._init(name, value)

    def gradient(self, coords) -> list:
        """Partial derivatives of ``value`` at ``coords``, in basis order."""
        return forward_mode_gradient(self.value, coords)

    def residual(self, algebra: StructureConstants, point) -> tuple[Fraction, ...]:
        coords = _point_coords(algebra, point)
        return casimir_residual(algebra, point, self.gradient(coords))


class StandardOrbit(Record):
    """A catalog orbit: extended algebra, base point, chart and structure."""

    __slots__ = _fields = (
        "name", "variant", "algebra", "params", "point", "chart", "structure", "invariants",
        "masses",
    )

    def __init__(
        self,
        name: str,
        variant: str,
        algebra: StructureConstants,
        params: KinematicalParams,
        point: DualPoint,
        chart: OrbitChart,
        structure: SymplecticStructure,
        invariants: tuple[OrbitInvariant, ...],
        masses: dict,
    ) -> None:
        self._init(name, variant, algebra, params, point, chart, structure, invariants, masses)

    @property
    def phase_space_class(self) -> str:
        return classify(self.structure)

    @property
    def magnetic(self) -> MagneticCouplings:
        return magnetic_fields(self.structure, self.params, self.masses)


def _kinetic_invariant(
    algebra: StructureConstants, vector: tuple[str, str], c: Fraction
) -> OrbitInvariant:
    """Internal energy H + c*(x1^2 + x2^2)/(2M) over the duals ``vector``.

    Galilei uses the momenta P with c = -1; para-Galilei G'+- uses the
    boosts K with c = beta = +-omega^2.
    """
    i1, i2 = (algebra.index(name) for name in vector)
    ih, im = algebra.index("H"), algebra.index("M")

    def value(a):
        return a[ih] + c * (a[i1] * a[i1] + a[i2] * a[i2]) / (2 * a[im])

    return OrbitInvariant("internal_energy", value)


# the name of the invariant read off the dual value of each central generator
_CENTRAL_LABELS = {"H": "energy", "M": "mass", "S": "second_charge"}


def standard_orbit(
    name: str,
    *,
    m=Fraction(1),
    h=Fraction(0),
    E=Fraction(0),
    omega=Fraction(1),
    kappa=Fraction(1),
) -> StandardOrbit:
    """The standard massive/energetic orbit of a centrally extended algebra.

    ``m`` is the mass charge (ignored for Carroll, whose scale is the
    energy ``E``), ``h`` the second central charge, ``E`` the energy value
    of the base point M = m, S = h, H = E.  The coordinate invariants are
    the duals of the center, the generators in no bracket; G and G'+- add
    an internal energy.  The chart maps boost components to positions
    ``q = k/s`` with the family scale ``s`` (the mass, the Static effective
    mass, or E/c^2 for Carroll) and keeps momenta ``p``; it is nonsingular
    by construction.  A vanishing ``s`` raises :class:`DegenerateChartError`
    naming it, with the rank of the pairing on (K1, K2, P1, P2).
    """
    if name not in STANDARD_ORBIT_NAMES:
        raise CatalogError(
            f"no standard orbit chart for {name!r}; available: "
            f"{', '.join(STANDARD_ORBIT_NAMES)}"
        )
    m, h, E = exact("m", m), exact("h", h), exact("E", E)
    params = KinematicalParams.for_algebra(name, omega, kappa)
    algebra = build(name, "central_ext", omega=omega, kappa=kappa)
    names, values = algebra.names, {"M": m, "S": h, "H": E}
    point = DualPoint(algebra, tuple(values.get(g, _ZERO) for g in names))
    if name == "G":
        invariants = (_kinetic_invariant(algebra, ("P1", "P2"), Fraction(-1)),)
    elif name in ("G'+", "G'-"):
        invariants = (_kinetic_invariant(algebra, ("K1", "K2"), params.beta),)
    else:
        invariants = ()
    bracketed = {i for pair, _ in algebra.pair_table() for i in pair}
    invariants += tuple(
        OrbitInvariant(_CENTRAL_LABELS[g], itemgetter(i))
        for i, g in enumerate(names)
        if i not in bracketed
    )
    masses = {"m": E * params.inv_c2 if name == "C" else m, "h": h}
    if name == "S":
        masses["mu_e"] = m - params.kappa**2 * h / params.omega
    scale = masses.get("mu_e", masses["m"])
    directions = ("K1", "K2", "P1", "P2")
    if scale == 0:
        label = {"C": "E/c^2", "S": "m - kappa^2*h/omega"}.get(name, "m")
        block = _kirillov_block(algebra, point.coords, [algebra.index(g) for g in directions])
        rank = rat_rank(block)
        raise DegenerateChartError(
            f"position scale {label} vanishes, so q = K/({label}) is undefined; the pairing "
            f"on {directions} has rank {rank} of 4 at the base point", rank
        )
    inv, one = 1 / scale, Fraction(1)
    chart = OrbitChart._scaled(directions, {
        "q1": ("K1", inv), "q2": ("K2", inv), "p1": ("P1", one), "p2": ("P2", one),
    })
    structure = restrict(algebra, point, chart)
    return StandardOrbit(
        name=name,
        variant="central_ext",
        algebra=algebra,
        params=params,
        point=point,
        chart=chart,
        structure=structure,
        invariants=invariants,
        masses=masses,
    )
