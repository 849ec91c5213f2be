"""The noncentrally extended Static group and its phase-space realization.

Group elements carry a rotation angle, boost and translation vectors, a
time shift, two further shift vectors conjugate to the noncentral
generators F and Pi, and four phase parameters conjugate to the charges
M, M', B, Lambda.  Multiplication mixes the shifts through polynomial
cocycles; the module implements the product, inverses, the coadjoint
action on orbit states, the two orbit invariants (an internal angular
momentum and an internal energy), the exact symplectic structure of the
eight-dimensional orbit chart, and the closed-form time evolution it
generates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra_core import StructureConstants
from .catalog import build
from .coadjoint import (
    DualPoint,
    OrbitChart,
    OrbitInvariant,
    SymplecticStructure,
    forward_mode_gradient,
    restrict,
)
from .rational_linalg import rat, to_float

__all__ = [
    "StaticConstants",
    "StaticGroupElement",
    "StaticOrbitState",
    "identity_element",
    "compose",
    "inverse",
    "multiplication_cocycle",
    "noncentral_algebra",
    "noncentral_invariants",
    "realize",
    "static_invariants",
    "static_symplectic",
    "time_evolution",
    "evolution_hamiltonian",
    "evolution_system",
]

_VECTOR_PAIRS = (("K1", "K2"), ("P1", "P2"), ("F1", "F2"), ("Pi1", "Pi2"))


@functools.cache
def noncentral_algebra() -> StructureConstants:
    """The 14-dimensional noncentral extension of the Static algebra."""
    return build("S", "noncentral_ext")


class StaticFloats(NamedTuple):
    """The values of :class:`StaticConstants` that the float paths use."""

    m: float
    mu: float
    beta: float
    kappa: float
    nu: float
    h: float
    kappa_e: float
    mu_e: float


@dataclass(frozen=True)
class StaticConstants:
    """Charge values labelling a maximal orbit of the extended Static group.

    ``m``, ``mu``, ``beta``, ``kappa`` are the dual values of the charges
    M, M', B, Lambda; ``nu`` and ``h`` are free label constants shifting
    the internal-energy invariant.  The orbit is maximal (the chart is
    symplectic) exactly when the determinant mu*kappa - beta^2 is nonzero.
    """

    m: Fraction
    mu: Fraction
    beta: Fraction = Fraction(0)
    kappa: Fraction = Fraction(1)
    nu: Fraction = Fraction(0)
    h: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("m", "mu", "beta", "kappa", "nu", "h"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if self.mu == 0 or self.kappa == 0:
            raise ValueError("charges mu and kappa must be nonzero")
        if self.det == 0:
            raise ValueError(
                f"mu*kappa - beta^2 = 0 (mu={self.mu}, kappa={self.kappa}, "
                f"beta={self.beta}); the orbit chart is degenerate"
            )

    @functools.cached_property
    def det(self) -> Fraction:
        return self.mu * self.kappa - self.beta**2

    @functools.cached_property
    def kappa_e(self) -> Fraction:
        """Effective momentum-sector stiffness kappa - beta^2/mu = det/mu."""
        return self.det / self.mu

    @functools.cached_property
    def mu_e(self) -> Fraction:
        """Effective boost-sector mass mu - beta^2/kappa = det/kappa."""
        return self.det / self.kappa

    @functools.cached_property
    def floats(self) -> StaticFloats:
        """The constants as floats, converted once for every float path.

        Raises :class:`OverflowError` when a value is too large for a float,
        and when a value that is exactly nonzero rounds to 0, or the
        determinant mu*kappa - beta*beta formed from the float charges (as
        the invariants form it) is 0 or not finite: the float orbit would
        then be degenerate although the exact one is not.
        """
        names = StaticFloats._fields
        exact = [getattr(self, name) for name in names]
        floats = StaticFloats(*map(float, exact))
        det = floats.mu * floats.kappa - floats.beta * floats.beta
        for name, value, exact_value in zip(
            (*names, "mu*kappa - beta^2"), (*floats, det), (*exact, self.det)
        ):
            if not math.isfinite(value) or (value == 0 and exact_value != 0):
                raise OverflowError(
                    f"the Static value {name} is {value!r} as a float but not exactly"
                )
        return floats


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"group parameter {name} must be finite, got {value!r}")
    return value


def _real(name: str, value):
    """A finite float, or a finite float array when ``value`` holds one entry per state.

    Raises :class:`ValueError` naming the field otherwise.
    """
    if np.ndim(value) == 0:
        value = float(value)
        if math.isfinite(value):
            return value
        where = ""
    else:
        value = np.asarray(value, dtype=float)
        finite = np.isfinite(value)
        if finite.all():
            return value
        index = int(np.argmin(finite))
        value, where = float(value.flat[index]), f" at entry {index}"
    raise ValueError(f"state field {name} must be finite, got {value!r}{where}")


@dataclass(frozen=True)
class StaticGroupElement:
    """An element of the extended Static group.

    Vector parameters: ``boost`` (conjugate to K), ``translation`` (P),
    ``f_shift`` (F), ``pi_shift`` (Pi).  Scalars: ``angle`` (rotation),
    ``time`` (H), and the four phases conjugate to the charges M, M', B,
    Lambda.  Every parameter must be finite (:class:`ValueError` otherwise).
    """

    angle: float = 0.0
    boost: tuple[float, float] = (0.0, 0.0)
    translation: tuple[float, float] = (0.0, 0.0)
    time: float = 0.0
    f_shift: tuple[float, float] = (0.0, 0.0)
    pi_shift: tuple[float, float] = (0.0, 0.0)
    phase_m: float = 0.0
    phase_mprime: float = 0.0
    phase_b: float = 0.0
    phase_lambda: float = 0.0

    def __post_init__(self) -> None:
        for name in ("angle", "time", "phase_m", "phase_mprime", "phase_b", "phase_lambda"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        for name in ("boost", "translation", "f_shift", "pi_shift"):
            a, b = getattr(self, name)
            object.__setattr__(self, name, (_finite(name, a), _finite(name, b)))


def identity_element() -> StaticGroupElement:
    return StaticGroupElement()


def _rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _rotate(c: float, s: float, a: tuple[float, float]) -> tuple[float, float]:
    """``a`` rotated by the angle whose cosine and sine are ``c`` and ``s``."""
    return (c * a[0] - s * a[1], s * a[0] + c * a[1])


def _dot(a: tuple[float, float], b: tuple[float, float]) -> float:
    return a[0] * b[0] + a[1] * b[1]


def compose(g: StaticGroupElement, gp: StaticGroupElement) -> StaticGroupElement:
    """The group product g * gp (g acts first from the left)."""
    c, s = math.cos(g.angle), math.sin(g.angle)
    v, x, eta, ell = g.boost, g.translation, g.f_shift, g.pi_shift
    vp = _rotate(c, s, gp.boost)
    xp = _rotate(c, s, gp.translation)
    etap = _rotate(c, s, gp.f_shift)
    ellp = _rotate(c, s, gp.pi_shift)
    t, tp = g.time, gp.time

    tv = (tp * v[0] - t * vp[0], tp * v[1] - t * vp[1])
    tx = (tp * x[0] - t * xp[0], tp * x[1] - t * xp[1])
    v_mean = (v[0] / 3.0 + vp[0] / 6.0, v[1] / 3.0 + vp[1] / 6.0)
    x_mean = (x[0] / 3.0 + xp[0] / 6.0, x[1] / 3.0 + xp[1] / 6.0)
    return StaticGroupElement(
        angle=g.angle + gp.angle,
        boost=(v[0] + vp[0], v[1] + vp[1]),
        translation=(x[0] + xp[0], x[1] + xp[1]),
        time=t + tp,
        f_shift=(eta[0] + etap[0] + 0.5 * tx[0], eta[1] + etap[1] + 0.5 * tx[1]),
        pi_shift=(ell[0] + ellp[0] + 0.5 * tv[0], ell[1] + ellp[1] + 0.5 * tv[1]),
        phase_m=g.phase_m + gp.phase_m + 0.5 * (_dot(v, xp) - _dot(x, vp)),
        phase_mprime=g.phase_mprime + gp.phase_mprime + _dot(v, ellp) + _dot(tv, v_mean),
        phase_b=(
            g.phase_b
            + gp.phase_b
            + _dot(v, etap)
            + _dot(x, ellp)
            + _dot(tv, x_mean)
            + _dot(tx, v_mean)
        ),
        phase_lambda=g.phase_lambda + gp.phase_lambda + _dot(x, etap) + _dot(tx, x_mean),
    )


def inverse(g: StaticGroupElement) -> StaticGroupElement:
    """The group inverse of ``g``."""
    # each vector a becomes -R(-angle) a: the rotation with cosine
    # -cos(angle) and sine sin(angle)
    c, s = -math.cos(g.angle), math.sin(g.angle)
    v, x, eta, ell = g.boost, g.translation, g.f_shift, g.pi_shift
    return StaticGroupElement(
        angle=-g.angle,
        boost=_rotate(c, s, v),
        translation=_rotate(c, s, x),
        time=-g.time,
        f_shift=_rotate(c, s, eta),
        pi_shift=_rotate(c, s, ell),
        phase_m=-g.phase_m,
        phase_mprime=-g.phase_mprime + _dot(v, ell),
        phase_b=-g.phase_b + _dot(v, eta) + _dot(x, ell),
        phase_lambda=-g.phase_lambda + _dot(x, eta),
    )


def multiplication_cocycle(
    g: StaticGroupElement, gp: StaticGroupElement
) -> dict[str, float]:
    """The four phase increments of g * gp beyond simple addition.

    Each entry is (composed phase) - (phase of g) - (phase of gp); the
    nontrivial entries are precisely what obstructs writing the phases as
    independent one-dimensional factors.
    """
    prod = compose(g, gp)
    return {
        "phase_m": prod.phase_m - g.phase_m - gp.phase_m,
        "phase_mprime": prod.phase_mprime - g.phase_mprime - gp.phase_mprime,
        "phase_b": prod.phase_b - g.phase_b - gp.phase_b,
        "phase_lambda": prod.phase_lambda - g.phase_lambda - gp.phase_lambda,
    }


@dataclass(frozen=True)
class StaticOrbitState:
    """A point of the eight-dimensional orbit chart, plus orbit labels.

    ``position`` (q) and ``velocity`` (u) are the scaled duals of the
    noncentral generators, q = -f/kappa_e and u = I/mu_e; ``momentum`` (p)
    and ``boost_momentum`` (k) are the duals of translations and boosts.
    ``energy`` and ``angular_momentum`` are the dual values of H and J.

    Any field may instead hold an array with one entry per state: such a
    column of states (as :func:`time_evolution` returns for an array of
    times) flows through :meth:`to_dual` and :func:`static_invariants`
    entry by entry.  Every field must be finite (:class:`ValueError`
    otherwise).
    """

    constants: StaticConstants
    position: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    momentum: tuple[float, float] = (0.0, 0.0)
    boost_momentum: tuple[float, float] = (0.0, 0.0)
    energy: float = 0.0
    angular_momentum: float = 0.0

    def __post_init__(self) -> None:
        for name in ("position", "velocity", "momentum", "boost_momentum"):
            a, b = getattr(self, name)
            object.__setattr__(self, name, (_real(name, a), _real(name, b)))
        object.__setattr__(self, "energy", _real("energy", self.energy))
        object.__setattr__(
            self, "angular_momentum", _real("angular_momentum", self.angular_momentum)
        )

    @property
    def chart_vector(self) -> np.ndarray:
        """(q1, q2, u1, u2, p1, p2, k1, k2) as floats."""
        return np.array(
            [*self.position, *self.velocity, *self.momentum, *self.boost_momentum]
        )

    def to_dual(self) -> np.ndarray:
        """Full dual coordinate vector on the 14-dimensional extension.

        For a column of N states the result is a 14 x N array, one dual
        vector per column.
        """
        alg = noncentral_algebra()
        c = self.constants.floats
        values = {
            "J": self.angular_momentum,
            "K1": self.boost_momentum[0],
            "K2": self.boost_momentum[1],
            "P1": self.momentum[0],
            "P2": self.momentum[1],
            "H": self.energy,
            "M": c.m,
            "F1": -c.kappa_e * self.position[0],
            "F2": -c.kappa_e * self.position[1],
            "Pi1": c.mu_e * self.velocity[0],
            "Pi2": c.mu_e * self.velocity[1],
            "M'": c.mu,
            "B": c.beta,
            "Lambda": c.kappa,
        }
        alpha = np.zeros((alg.dim, *np.broadcast(*values.values()).shape))
        for name, value in values.items():
            alpha[alg.index(name)] = value
        return alpha

    @classmethod
    def from_dual(
        cls, alpha: np.ndarray, constants: StaticConstants
    ) -> "StaticOrbitState":
        alg = noncentral_algebra()
        kappa_e, mu_e = constants.floats.kappa_e, constants.floats.mu_e
        return cls(
            constants=constants,
            position=(
                -alpha[alg.index("F1")] / kappa_e,
                -alpha[alg.index("F2")] / kappa_e,
            ),
            velocity=(
                alpha[alg.index("Pi1")] / mu_e,
                alpha[alg.index("Pi2")] / mu_e,
            ),
            momentum=(alpha[alg.index("P1")], alpha[alg.index("P2")]),
            boost_momentum=(alpha[alg.index("K1")], alpha[alg.index("K2")]),
            energy=alpha[alg.index("H")],
            angular_momentum=alpha[alg.index("J")],
        )


def _rotate_dual(alg: StructureConstants, alpha: np.ndarray, angle: float) -> np.ndarray:
    if angle == 0.0:
        return alpha.copy()
    R = _rot(angle)
    out = alpha.copy()
    for first, second in _VECTOR_PAIRS:
        i, j = alg.index(first), alg.index(second)
        out[i], out[j] = R @ np.array([alpha[i], alpha[j]])
    return out


@functools.cache
def _ad_table() -> np.ndarray:
    """The adjoint matrices of the basis of :func:`noncentral_algebra`, as floats.

    Entry ``[i, k, j]`` is the e_k component of [e_i, e_j], so ad_A is
    sum_i A^i table[i].  Built once, from the exact bracket table.
    """
    alg = noncentral_algebra()
    table = np.zeros((alg.dim,) * 3)
    for (i, j), components in alg.pair_table():
        for k, value in components.items():
            table[i, k, j] = value
            table[j, k, i] = -value
    return table


def _adjoint(coeffs: dict[str, float]) -> np.ndarray:
    """ad_A for A = sum coeffs[name] * generator, on floats.

    Every structure constant of the noncentral algebra is +-1, and for the
    two factors :func:`realize` uses each entry receives at most one
    product coefficient * (+-1), which is exact; so this equals
    ``to_float(noncentral_algebra().adjoint_matrix(coeffs))`` bit for bit.
    """
    alg = noncentral_algebra()
    table = _ad_table()
    N = np.zeros(table.shape[1:])
    for name, value in coeffs.items():
        if value != 0.0:
            N += value * table[alg.index(name)]
    return N


def _exp_dual_action(coeffs: dict[str, float], alpha: np.ndarray) -> np.ndarray:
    """alpha <- (exp(-ad_A))^T alpha for A = sum coeffs[name] * generator.

    ad_A comes from the float table of :func:`_adjoint`, so the call
    converts nothing between ``Fraction`` and float.  ad_A is nilpotent,
    so the series terminates.
    """
    if all(v == 0.0 for v in coeffs.values()):
        return alpha.copy()
    N = _adjoint(coeffs)
    n = N.shape[0]
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ (-N) / k
        if not term.any():
            break
        E = E + term
    return E.T @ alpha


def realize(g: StaticGroupElement, state: StaticOrbitState) -> StaticOrbitState:
    """The coadjoint action of ``g`` on an orbit state.

    The rotation acts first, then the boost/translation/time factor, then
    the F/Pi shift factor; the phase parameters act trivially.  Charges
    are preserved exactly; the orbit invariants are preserved up to
    rounding.
    """
    alg = noncentral_algebra()
    alpha = _rotate_dual(alg, state.to_dual(), g.angle)
    alpha = _exp_dual_action(
        {
            "K1": g.boost[0],
            "K2": g.boost[1],
            "P1": g.translation[0],
            "P2": g.translation[1],
            "H": g.time,
        },
        alpha,
    )
    alpha = _exp_dual_action(
        {
            "F1": g.f_shift[0],
            "F2": g.f_shift[1],
            "Pi1": g.pi_shift[0],
            "Pi2": g.pi_shift[1],
        },
        alpha,
    )
    return StaticOrbitState.from_dual(alpha, state.constants)


# -- invariants -------------------------------------------------------------


def noncentral_invariants() -> tuple[OrbitInvariant, OrbitInvariant]:
    """The two Casimir functions of the 14-dimensional extension.

    ``internal_rotation`` subtracts from the J dual value the orbital part
    built from the vector duals; ``internal_energy`` subtracts from the H
    dual value the quadratic form of the noncentral vector duals.  Both
    are exact Casimirs: their Kirillov residual vanishes identically.
    """
    alg = noncentral_algebra()
    i = {name: alg.index(name) for name in alg.names}

    def unpack(a):
        k = (a[i["K1"]], a[i["K2"]])
        p = (a[i["P1"]], a[i["P2"]])
        f = (a[i["F1"]], a[i["F2"]])
        w = (a[i["Pi1"]], a[i["Pi2"]])
        return k, p, f, w, a[i["M"]], a[i["M'"]], a[i["B"]], a[i["Lambda"]]

    def cross(x, y):
        return x[0] * y[1] - x[1] * y[0]

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1]

    # beta * beta, not beta**2: NumPy's scalar ** calls the C library's
    # pow, which can round differently from the array square, and the
    # values must agree between one state and a column of states.
    def s_value(a):
        k, p, f, w, m, mu, beta, kappa = unpack(a)
        det = mu * kappa - beta * beta
        orbital = (
            kappa * cross(k, w)
            - beta * cross(p, w)
            + mu * cross(p, f)
            - beta * cross(k, f)
            + m * cross(f, w)
        )
        return a[i["J"]] - orbital / det

    def u_value(a):
        _, _, f, w, _, mu, beta, kappa = unpack(a)
        det = mu * kappa - beta * beta
        quad = mu * dot(f, f) - 2 * beta * dot(f, w) + kappa * dot(w, w)
        return a[i["H"]] - quad / (2 * det)

    return (
        OrbitInvariant("internal_rotation", s_value),
        OrbitInvariant("internal_energy", u_value),
    )


def static_invariants(state: StaticOrbitState):
    """The (internal rotation, labelled internal energy) pair of a state.

    The second entry subtracts the free label term nu*h carried by the
    orbit constants, so that a state at rest sits at energy E - nu*h.
    For a column of states both entries are arrays.
    """
    s_inv, u_inv = noncentral_invariants()
    alpha = state.to_dual()
    c = state.constants.floats
    return (
        s_inv.value(alpha),
        u_inv.value(alpha) - c.nu * c.h,
    )


# -- symplectic structure and evolution ------------------------------------

_CHART_DUAL_ORDER = ("P1", "P2", "K1", "K2", "F1", "F2", "Pi1", "Pi2")
_CHART_CANONICAL = ("q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2")


def static_symplectic(
    constants: StaticConstants, energy=Fraction(0), angular_momentum=Fraction(0)
) -> SymplecticStructure:
    """Exact symplectic structure of the eight-dimensional orbit chart.

    The chart spans the dual directions (P, K, F, Pi); the canonical map
    sends them to (q, u, p, k) with q = -f/kappa_e and u = I/mu_e.  The
    bracket matrix carries the cross couplings {p_i, k_j} = m delta_ij in
    addition to the scaled diagonal brackets, so the chart is always of
    the fully noncommutative type.
    """
    alg = noncentral_algebra()
    point = DualPoint.from_mapping(
        alg,
        {
            "M": constants.m,
            "M'": constants.mu,
            "B": constants.beta,
            "Lambda": constants.kappa,
            "H": rat(energy),
            "J": rat(angular_momentum),
        },
    )
    n = len(_CHART_DUAL_ORDER)
    jac = [[Fraction(0)] * n for _ in range(n)]
    inv_ke = -1 / constants.kappa_e
    inv_me = 1 / constants.mu_e
    # canonical order: q1 q2 u1 u2 p1 p2 k1 k2 over chart order P P K K F F Pi Pi
    jac[0][4] = inv_ke
    jac[1][5] = inv_ke
    jac[2][6] = inv_me
    jac[3][7] = inv_me
    jac[4][0] = Fraction(1)
    jac[5][1] = Fraction(1)
    jac[6][2] = Fraction(1)
    jac[7][3] = Fraction(1)
    chart = OrbitChart(
        _CHART_DUAL_ORDER,
        _CHART_CANONICAL,
        tuple(tuple(row) for row in jac),
    )
    return restrict(alg, point, chart)


def time_evolution(state: StaticOrbitState, t) -> StaticOrbitState:
    """Closed-form evolution by time ``t``.

    Positions and velocities are frozen; momenta and boost momenta drift
    linearly, p(t) = p - t*kappa_e*q and k(t) = k + t*mu_e*u.  For an
    array of times the result is the column of evolved states, with
    array-valued momenta and boost momenta.  A drift that overflows raises
    :class:`ValueError`, as any non-finite state does.
    """
    kappa_e, mu_e = state.constants.floats.kappa_e, state.constants.floats.mu_e
    (q1, q2), (u1, u2) = state.position, state.velocity
    (p1, p2), (k1, k2) = state.momentum, state.boost_momentum
    with np.errstate(over="ignore", invalid="ignore"):
        momentum = (p1 - t * kappa_e * q1, p2 - t * kappa_e * q2)
        boost_momentum = (k1 + t * mu_e * u1, k2 + t * mu_e * u2)
    return replace(state, momentum=momentum, boost_momentum=boost_momentum)


def evolution_hamiltonian(constants: StaticConstants, chart_state) -> float:
    """The quadratic Hamiltonian generating the time evolution on the chart.

    H = -(kappa_e q^2/2 + mu_e u^2/2 + (beta mu_e/mu) q.u); its flow under
    the chart brackets freezes (q, u) and drifts (p, k) linearly.
    """
    q1, q2, u1, u2 = chart_state[:4]
    c = constants.floats
    mix = c.beta * c.mu_e / c.mu
    return -(
        c.kappa_e * (q1 * q1 + q2 * q2) / 2.0
        + c.mu_e * (u1 * u1 + u2 * u2) / 2.0
        + mix * (q1 * u1 + q2 * u2)
    )


def evolution_system(constants: StaticConstants) -> tuple[np.ndarray, np.ndarray]:
    """The chart flow dz/dt = Theta grad H in the affine form dz/dt = A z + b.

    H is a homogeneous quadratic, so grad H(z) is its Hessian times z (the
    Hessian's columns are the gradients of H at the basis vectors) and
    b = 0; :func:`kinorbit.mechanics.affine_flow` integrates the system.
    """
    theta = to_float(static_symplectic(constants).canonical_theta)
    hamiltonian = functools.partial(evolution_hamiltonian, constants)
    hessian = np.array(
        [
            forward_mode_gradient(hamiltonian, e)
            for e in np.eye(len(_CHART_CANONICAL)).tolist()
        ],
        dtype=float,
    ).T
    return theta @ hessian, np.zeros(len(_CHART_CANONICAL))
