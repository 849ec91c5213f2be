"""Coadjoint-orbit symplectic structures from exact structure constants.

A point ``alpha`` in the dual of a Lie algebra carries the Kirillov
pairing ``K_ij(alpha) = sum_k alpha_k C_ij^k``.  Restricted to the
directions spanning an orbit chart this matrix is (minus) the Poisson
bracket of the dual coordinates: ``{x_a, x_b} = -K_ab``.  The module
builds the restricted matrix ``omega``, its exact inverse ``theta``, and
the bracket matrix of user-declared canonical coordinates, from which the
position/momentum noncommutativity scalars ``G`` and ``F`` are read off
and the phase-space type is classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra_core import StructureConstants
from .catalog import (
    CatalogError,
    KinematicalParams,
    build,
)
from .rational_linalg import (
    SingularMatrixError,
    rarray,
    rat,
    rat_inv,
    rzeros,
    to_float,
)

__all__ = [
    "DualPoint",
    "DegenerateChartError",
    "OrbitChart",
    "SymplecticStructure",
    "MagneticCouplings",
    "OrbitInvariant",
    "StandardOrbit",
    "STANDARD_ORBIT_NAMES",
    "kirillov_matrix",
    "casimir_residual",
    "finite_difference_gradient",
    "forward_mode_gradient",
    "restrict",
    "classify",
    "poisson_bracket",
    "magnetic_fields",
    "standard_orbit",
]


class DegenerateChartError(ValueError):
    """Raised when the restricted Kirillov matrix is singular on a chart."""

    def __init__(self, message: str, rank: int) -> None:
        super().__init__(message)
        self.rank = rank


@dataclass(frozen=True)
class DualPoint:
    """A point in the dual of a Lie algebra, stored as exact coordinates."""

    algebra: StructureConstants
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(rat(c) for c in self.coords)
        if len(coords) != self.algebra.dim:
            raise ValueError(
                f"expected {self.algebra.dim} dual coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "coords", coords)

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

    @property
    def as_array(self) -> np.ndarray:
        return rarray([list(self.coords)])[0]

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
    return tuple(rat(c) for c in point)


def kirillov_matrix(algebra: StructureConstants, point) -> np.ndarray:
    """Exact pairing matrix K_ij = sum_k alpha_k C_ij^k."""
    alpha = _point_coords(algebra, point)
    n = algebra.dim
    K = rzeros((n, n))
    for (i, j), targets in algebra.pair_table():
        value = sum((coeff * alpha[t] for t, coeff in targets.items()), Fraction(0))
        K[i, j] = value
        K[j, i] = -value
    return K


def casimir_residual(algebra: StructureConstants, point, grad) -> np.ndarray:
    """The exact vector K(alpha) . grad; it vanishes identically for a Casimir.

    Float gradient entries are converted exactly, by their binary expansion.
    """
    return kirillov_matrix(algebra, point) @ rarray(list(grad))


def finite_difference_gradient(
    fn: Callable[[np.ndarray], float],
    alpha: Sequence[float],
    step_scale: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient with per-component step h_i = s*max(1,|a_i|)."""
    base = np.asarray(alpha, dtype=float)
    grad = np.zeros(base.size)
    for i in range(base.size):
        h = step_scale * max(1.0, abs(base[i]))
        up = base.copy()
        up[i] += h
        down = base.copy()
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


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

    def _combine(self, a, other: "_Dual", b, value) -> "_Dual":
        """The dual with ``value`` and gradient a*self.grad + b*other.grad."""
        grad = {k: a * v for k, v in self.grad.items()}
        for k, v in other.grad.items():
            grad[k] = grad.get(k, 0) + b * v
        return _Dual(value, grad)

    def __add__(self, other) -> "_Dual":
        other = _lift(other)
        return self._combine(1, other, 1, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other) -> "_Dual":
        other = _lift(other)
        return self._combine(1, other, -1, self.value - other.value)

    def __neg__(self) -> "_Dual":
        return _Dual(-self.value, {k: -v for k, v in self.grad.items()})

    def __mul__(self, other) -> "_Dual":
        other = _lift(other)
        return self._combine(other.value, other, self.value, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Dual":
        # (a/b)' = (a' - (a/b) b') / b, dividing last so that an integer
        # divisor keeps Fraction derivatives exact
        other = _lift(other)
        quotient = self.value / other.value
        numerator = self._combine(1, other, -quotient, quotient)
        return _Dual(
            quotient, {k: v / other.value for k, v in numerator.grad.items()}
        )


def _lift(value) -> _Dual:
    return value if isinstance(value, _Dual) else _Dual(value, {})


def forward_mode_gradient(fn: Callable, coords: Sequence) -> list:
    """The gradient of ``fn`` at ``coords`` by forward-mode differentiation.

    ``fn`` takes a coordinate sequence and may use ``+ - * /`` on its
    entries and on constants.  The partial derivatives come out in the
    scalar type of ``coords`` (exact for ``Fraction``); a coordinate
    ``fn`` does not depend on gets the integer 0.
    """
    result = fn([_Dual(c, {i: 1}) for i, c in enumerate(coords)])
    return [result.grad.get(i, 0) for i in range(len(coords))]


@dataclass(frozen=True)
class OrbitChart:
    """A chart on a coadjoint orbit.

    ``coordinate_names`` selects the dual directions spanning the chart (in
    order); ``canonical_names`` names the mapped coordinates ``z = J x``
    where ``x`` are the chart dual coordinates and ``J`` is ``jacobian``
    (identity when omitted).
    """

    coordinate_names: tuple[str, ...]
    canonical_names: tuple[str, ...] = ()
    jacobian: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.coordinate_names)
        canonical = self.canonical_names or self.coordinate_names
        if len(canonical) != n:
            raise ValueError("canonical_names must match chart dimension")
        object.__setattr__(self, "canonical_names", tuple(canonical))
        if self.jacobian:
            jac = tuple(tuple(rat(v) for v in row) for row in self.jacobian)
            if len(jac) != n or any(len(row) != n for row in jac):
                raise ValueError("jacobian must be square over the chart")
        else:
            jac = tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        object.__setattr__(self, "jacobian", jac)

    @property
    def dim(self) -> int:
        return len(self.coordinate_names)

    @property
    def jacobian_array(self) -> np.ndarray:
        return rarray([list(row) for row in self.jacobian])

    @classmethod
    def scaled_positions(
        cls,
        momentum_like: tuple[str, str],
        position_like: tuple[str, str],
        scale,
    ) -> "OrbitChart":
        """The standard chart q_i = x_i/scale, p_i = y_i on four directions.

        ``position_like`` are the dual directions divided by ``scale`` to
        produce positions; ``momentum_like`` pass through as momenta.
        Chart order is (position_like, momentum_like); canonical order is
        (q1, q2, p1, p2).
        """
        s = rat(scale)
        if s == 0:
            raise DegenerateChartError(
                "position scale vanishes; chart coordinates are undefined", 0
            )
        inv = 1 / s
        names = position_like + momentum_like
        jac = (
            (inv, rat(0), rat(0), rat(0)),
            (rat(0), inv, rat(0), rat(0)),
            (rat(0), rat(0), rat(1), rat(0)),
            (rat(0), rat(0), rat(0), rat(1)),
        )
        return cls(names, ("q1", "q2", "p1", "p2"), jac)


@dataclass(frozen=True)
class SymplecticStructure:
    """Restricted Kirillov data on an orbit chart.

    ``omega`` is the restricted pairing matrix, ``theta`` its exact
    inverse, and ``canonical_theta`` the Poisson-bracket matrix of the
    canonical coordinates, ``{z_a, z_b} = (J (-omega) J^T)_ab``.  ``G_field``
    and ``F_field`` are the position-position and momentum-momentum
    noncommutativity scalars read from ``canonical_theta``.
    """

    chart: OrbitChart
    omega: np.ndarray
    theta: np.ndarray
    canonical_theta: np.ndarray
    G_field: Fraction
    F_field: Fraction
    fixed_coordinates: tuple[tuple[str, Fraction], ...] = ()

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
    K = kirillov_matrix(algebra, point)
    try:
        idx = [algebra.index(n) for n in chart.coordinate_names]
    except KeyError as exc:
        raise CatalogError(str(exc)) from None
    omega = K[np.ix_(idx, idx)]
    try:
        theta = rat_inv(omega)
    except SingularMatrixError as exc:
        raise DegenerateChartError(
            f"restricted pairing matrix on chart {chart.coordinate_names} is "
            f"singular (rank {exc.rank} < {chart.dim}); the chart does not "
            f"parameterize a symplectic leaf at this point",
            exc.rank,
        ) from None
    jac = chart.jacobian_array
    canonical_theta = jac @ (-omega) @ jac.T
    coords = _point_coords(algebra, point)
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
    further source of noncommutativity.
    """
    names = structure.chart.canonical_names
    theta = structure.canonical_theta
    expected = rzeros(theta.shape)
    if {"q1", "q2", "p1", "p2"}.issubset(names):
        iq1, iq2 = names.index("q1"), names.index("q2")
        ip1, ip2 = names.index("p1"), names.index("p2")
        expected[iq1, iq2] = structure.G_field
        expected[iq2, iq1] = -structure.G_field
        expected[ip1, ip2] = structure.F_field
        expected[ip2, ip1] = -structure.F_field
        cross = theta[ip1, iq1]
        for ip, iq in ((ip1, iq1), (ip2, iq2)):
            expected[ip, iq] = cross
            expected[iq, ip] = -cross
    return bool(np.any(theta != expected))


def classify(structure: SymplecticStructure) -> str:
    """Phase-space type from the exact canonical bracket matrix.

    Returns one of ``canonical``, ``position_nc``, ``momentum_nc``,
    ``fully_nc``.  Every decision is an exact zero test on the ``Fraction``
    entries, so a G or F field counts however small it is.  A chart whose
    brackets deviate from the two-scalar template (beyond G, F and the
    diagonal cross bracket) is reported ``fully_nc`` regardless of G and F.
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


def poisson_bracket(structure: SymplecticStructure, grad_a, grad_b):
    """{a, b} = grad_a . canonical_theta . grad_b on the chart coordinates."""
    ga, gb = list(grad_a), list(grad_b)
    if all(isinstance(g, (Fraction, int)) for g in ga + gb):
        a = rarray([ga])[0]
        b = rarray([gb])[0]
        return a @ structure.canonical_theta @ b
    theta = to_float(structure.canonical_theta)
    return float(np.asarray(ga, dtype=float) @ theta @ np.asarray(gb, dtype=float))


@dataclass(frozen=True)
class MagneticCouplings:
    """The two magnetic readings of a noncommutative phase space.

    ``e_star_B_star`` is the dual magnetic scalar -h/(m^2 c^2) sourced by
    the second central charge; ``eB`` is the momentum-sector magnetic
    scalar, read from the effective-mass relation (m - mu_e)*omega when an
    effective mass is supplied and from the {p1,p2} bracket otherwise.
    ``eB_from_brackets`` always reports the bracket reading, so the two
    conventions can be compared.
    """

    e_star_B_star: Fraction
    eB: Fraction
    eB_from_brackets: Fraction
    effective_mass: Fraction
    omega0: Fraction | None


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


@dataclass(frozen=True)
class OrbitInvariant:
    """A named invariant function on the dual, written once as a value.

    ``value`` takes the full dual coordinate vector in basis order (exact,
    float, or one float array per coordinate) and returns the invariant.
    :meth:`gradient` is derived from ``value`` by forward-mode
    differentiation, so it is exact over ``Fraction`` coordinates and the
    Casimir residual tests the same formula that is evaluated.
    """

    name: str
    value: Callable

    def gradient(self, coords) -> list:
        """Partial derivatives of ``value`` at ``coords``, in basis order."""
        return forward_mode_gradient(self.value, coords)

    def residual(self, algebra: StructureConstants, point) -> np.ndarray:
        coords = _point_coords(algebra, point)
        return casimir_residual(algebra, point, self.gradient(coords))


@dataclass(frozen=True)
class StandardOrbit:
    """A catalog orbit: extended algebra, base point, chart and structure."""

    name: str
    variant: str
    algebra: StructureConstants
    params: KinematicalParams
    point: DualPoint
    chart: OrbitChart
    structure: SymplecticStructure
    invariants: tuple[OrbitInvariant, ...]
    masses: dict

    @property
    def phase_space_class(self) -> str:
        return classify(self.structure)

    @property
    def magnetic(self) -> MagneticCouplings:
        return magnetic_fields(self.structure, self.params, self.masses)


STANDARD_ORBIT_NAMES = ("G", "G'+", "G'-", "S", "C", "NH+", "NH-")


def _kinetic_invariant(
    algebra: StructureConstants, vector: tuple[str, str], c: Fraction
) -> OrbitInvariant:
    """Internal energy H + c*(x1^2 + x2^2)/(2M) over the duals ``vector``.

    Galilei uses the momenta P with c = -1; para-Galilei G'+- uses the
    boosts K with c = +-omega^2.
    """
    i1, i2 = (algebra.index(name) for name in vector)
    ih, im = algebra.index("H"), algebra.index("M")

    def value(a):
        return a[ih] + c * (a[i1] * a[i1] + a[i2] * a[i2]) / (2 * a[im])

    return OrbitInvariant("internal_energy", value)


def _coordinate_invariant(
    algebra: StructureConstants, name: str, label: str
) -> OrbitInvariant:
    return OrbitInvariant(label, itemgetter(algebra.index(name)))


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
    of the base point.  The chart maps boost components to positions
    ``q = k/s`` with the family scale ``s`` (the mass, the Static effective
    mass, or E/c^2 for Carroll) and keeps momenta ``p``.
    """
    if name not in STANDARD_ORBIT_NAMES:
        raise CatalogError(
            f"no standard orbit chart for {name!r}; available: "
            f"{', '.join(STANDARD_ORBIT_NAMES)}"
        )
    m, h, E = rat(m), rat(h), rat(E)
    params = KinematicalParams.for_algebra(name, omega, kappa)
    algebra = build(name, "central_ext", params)
    w2 = params.omega**2
    if name == "C":
        point = DualPoint.from_mapping(algebra, {"H": E, "S": h})
        scale = E * params.inv_c2
        masses = {"m": scale, "h": h, "E": E}
        invariants = (
            _coordinate_invariant(algebra, "H", "energy"),
            _coordinate_invariant(algebra, "S", "second_charge"),
        )
    else:
        point = DualPoint.from_mapping(algebra, {"M": m, "S": h, "H": E})
        if name == "S":
            mu_e = m - params.kappa**2 * h / params.omega
            scale = mu_e
            masses = {"m": m, "h": h, "mu_e": mu_e}
            invariants = (
                _coordinate_invariant(algebra, "H", "energy"),
                _coordinate_invariant(algebra, "M", "mass"),
                _coordinate_invariant(algebra, "S", "second_charge"),
            )
        elif name == "G":
            scale = m
            masses = {"m": m, "h": h}
            invariants = (
                _kinetic_invariant(algebra, ("P1", "P2"), Fraction(-1)),
                _coordinate_invariant(algebra, "M", "mass"),
                _coordinate_invariant(algebra, "S", "second_charge"),
            )
        elif name in ("G'+", "G'-"):
            sign = 1 if name.endswith("+") else -1
            scale = m
            masses = {"m": m, "h": h}
            invariants = (
                _kinetic_invariant(algebra, ("K1", "K2"), sign * w2),
                _coordinate_invariant(algebra, "M", "mass"),
                _coordinate_invariant(algebra, "S", "second_charge"),
            )
        else:  # NH+/NH-
            scale = m
            masses = {"m": m, "h": h}
            invariants = (
                _coordinate_invariant(algebra, "M", "mass"),
                _coordinate_invariant(algebra, "S", "second_charge"),
            )
    chart = OrbitChart.scaled_positions(("P1", "P2"), ("K1", "K2"), scale)
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
