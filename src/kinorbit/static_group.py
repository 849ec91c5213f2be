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
from typing import Callable

import numpy as np

from .algebra_core import StructureConstants
from .catalog import build
from .coadjoint import (
    DualPoint,
    OrbitChart,
    OrbitInvariant,
    SymplecticStructure,
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
    "evolution_rhs",
]

_VECTOR_PAIRS = (("K1", "K2"), ("P1", "P2"), ("F1", "F2"), ("Pi1", "Pi2"))


@functools.cache
def noncentral_algebra() -> StructureConstants:
    """The 14-dimensional noncentral extension of the Static algebra."""
    return build("S", "noncentral_ext")


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

    @property
    def det(self) -> Fraction:
        return self.mu * self.kappa - self.beta**2

    @property
    def kappa_e(self) -> Fraction:
        """Effective momentum-sector stiffness kappa - beta^2/mu = det/mu."""
        return self.det / self.mu

    @property
    def mu_e(self) -> Fraction:
        """Effective boost-sector mass mu - beta^2/kappa = det/kappa."""
        return self.det / self.kappa


def _vec2(value) -> tuple[float, float]:
    a, b = value
    return (float(a), float(b))


def _real(value):
    """A float, or a float array when ``value`` holds one entry per state."""
    return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)


@dataclass(frozen=True)
class StaticGroupElement:
    """An element of the extended Static group.

    Vector parameters: ``boost`` (conjugate to K), ``translation`` (P),
    ``f_shift`` (F), ``pi_shift`` (Pi).  Scalars: ``angle`` (rotation),
    ``time`` (H), and the four phases conjugate to the charges M, M', B,
    Lambda.
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
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "time", float(self.time))
        for name in ("boost", "translation", "f_shift", "pi_shift"):
            object.__setattr__(self, name, _vec2(getattr(self, name)))
        for name in ("phase_m", "phase_mprime", "phase_b", "phase_lambda"):
            object.__setattr__(self, name, float(getattr(self, name)))


def identity_element() -> StaticGroupElement:
    return StaticGroupElement()


def _rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _cross(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def compose(g: StaticGroupElement, gp: StaticGroupElement) -> StaticGroupElement:
    """The group product g * gp (g acts first from the left)."""
    R = _rot(g.angle)
    v = np.asarray(g.boost)
    x = np.asarray(g.translation)
    eta = np.asarray(g.f_shift)
    ell = np.asarray(g.pi_shift)
    vp = R @ np.asarray(gp.boost)
    xp = R @ np.asarray(gp.translation)
    etap = R @ np.asarray(gp.f_shift)
    ellp = R @ np.asarray(gp.pi_shift)
    t, tp = g.time, gp.time

    tv = tp * v - t * vp
    tx = tp * x - t * xp

    eta2 = eta + etap + 0.5 * tx
    ell2 = ell + ellp + 0.5 * tv
    xi2 = g.phase_m + gp.phase_m + 0.5 * (float(v @ xp) - float(x @ vp))
    phi2 = (
        g.phase_mprime
        + gp.phase_mprime
        + float(v @ ellp)
        + float(tv @ (v / 3.0 + vp / 6.0))
    )
    b2 = (
        g.phase_b
        + gp.phase_b
        + float(v @ etap)
        + float(x @ ellp)
        + float(tv @ (x / 3.0 + xp / 6.0))
        + float(tx @ (v / 3.0 + vp / 6.0))
    )
    a2 = (
        g.phase_lambda
        + gp.phase_lambda
        + float(x @ etap)
        + float(tx @ (x / 3.0 + xp / 6.0))
    )
    return StaticGroupElement(
        angle=g.angle + gp.angle,
        boost=tuple(v + vp),
        translation=tuple(x + xp),
        time=t + tp,
        f_shift=tuple(eta2),
        pi_shift=tuple(ell2),
        phase_m=xi2,
        phase_mprime=phi2,
        phase_b=b2,
        phase_lambda=a2,
    )


def inverse(g: StaticGroupElement) -> StaticGroupElement:
    """The group inverse of ``g``."""
    Rm = _rot(-g.angle)
    v = np.asarray(g.boost)
    x = np.asarray(g.translation)
    eta = np.asarray(g.f_shift)
    ell = np.asarray(g.pi_shift)
    return StaticGroupElement(
        angle=-g.angle,
        boost=tuple(-(Rm @ v)),
        translation=tuple(-(Rm @ x)),
        time=-g.time,
        f_shift=tuple(-(Rm @ eta)),
        pi_shift=tuple(-(Rm @ ell)),
        phase_m=-g.phase_m,
        phase_mprime=-g.phase_mprime + float(v @ ell),
        phase_b=-g.phase_b + float(v @ eta) + float(x @ ell),
        phase_lambda=-g.phase_lambda + float(x @ eta),
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
    entry by entry.
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
            object.__setattr__(self, name, (_real(a), _real(b)))
        object.__setattr__(self, "energy", _real(self.energy))
        object.__setattr__(self, "angular_momentum", _real(self.angular_momentum))

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
        c = self.constants
        kappa_e = float(c.kappa_e)
        mu_e = float(c.mu_e)
        values = {
            "J": self.angular_momentum,
            "K1": self.boost_momentum[0],
            "K2": self.boost_momentum[1],
            "P1": self.momentum[0],
            "P2": self.momentum[1],
            "H": self.energy,
            "M": float(c.m),
            "F1": -kappa_e * self.position[0],
            "F2": -kappa_e * self.position[1],
            "Pi1": mu_e * self.velocity[0],
            "Pi2": mu_e * self.velocity[1],
            "M'": float(c.mu),
            "B": float(c.beta),
            "Lambda": float(c.kappa),
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
        kappa_e = float(constants.kappa_e)
        mu_e = float(constants.mu_e)
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


def _exp_dual_action(
    alg: StructureConstants, coeffs: dict[str, float], alpha: np.ndarray
) -> np.ndarray:
    """alpha <- (exp(-ad_A))^T alpha for A = sum coeffs[name] * generator.

    The adjoint of any such A is nilpotent, so the series terminates.
    """
    if all(v == 0.0 for v in coeffs.values()):
        return alpha.copy()
    N = to_float(alg.adjoint_matrix({k: rat(str(v)) for k, v in coeffs.items()}))
    n = alg.dim
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ (-N) / k
        if not np.any(term):
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
        alg,
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
        alg,
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

    def s_gradient(a):
        k, p, f, w, m, mu, beta, kappa = unpack(a)
        det = mu * kappa - beta * beta
        orbital = (
            kappa * cross(k, w)
            - beta * cross(p, w)
            + mu * cross(p, f)
            - beta * cross(k, f)
            + m * cross(f, w)
        )
        g = [0 * a[0] for _ in a]
        g[i["J"]] = 1 + 0 * a[0]
        g[i["K1"]] = -(kappa * w[1] - beta * f[1]) / det
        g[i["K2"]] = -(-kappa * w[0] + beta * f[0]) / det
        g[i["P1"]] = -(-beta * w[1] + mu * f[1]) / det
        g[i["P2"]] = -(beta * w[0] - mu * f[0]) / det
        g[i["F1"]] = -(-mu * p[1] + beta * k[1] + m * w[1]) / det
        g[i["F2"]] = -(mu * p[0] - beta * k[0] - m * w[0]) / det
        g[i["Pi1"]] = -(-kappa * k[1] + beta * p[1] - m * f[1]) / det
        g[i["Pi2"]] = -(kappa * k[0] - beta * p[0] + m * f[0]) / det
        g[i["M"]] = -cross(f, w) / det
        g[i["M'"]] = -cross(p, f) / det + orbital * kappa / det**2
        g[i["B"]] = (cross(p, w) + cross(k, f)) / det - 2 * beta * orbital / det**2
        g[i["Lambda"]] = -cross(k, w) / det + orbital * mu / det**2
        return g

    def u_value(a):
        _, _, f, w, _, mu, beta, kappa = unpack(a)
        det = mu * kappa - beta * beta
        quad = mu * dot(f, f) - 2 * beta * dot(f, w) + kappa * dot(w, w)
        return a[i["H"]] - quad / (2 * det)

    def u_gradient(a):
        _, _, f, w, _, mu, beta, kappa = unpack(a)
        det = mu * kappa - beta * beta
        quad = mu * dot(f, f) - 2 * beta * dot(f, w) + kappa * dot(w, w)
        g = [0 * a[0] for _ in a]
        g[i["H"]] = 1 + 0 * a[0]
        g[i["F1"]] = -(mu * f[0] - beta * w[0]) / det
        g[i["F2"]] = -(mu * f[1] - beta * w[1]) / det
        g[i["Pi1"]] = -(kappa * w[0] - beta * f[0]) / det
        g[i["Pi2"]] = -(kappa * w[1] - beta * f[1]) / det
        g[i["M'"]] = -dot(f, f) / (2 * det) + quad * kappa / (2 * det**2)
        g[i["B"]] = dot(f, w) / det - beta * quad / det**2
        g[i["Lambda"]] = -dot(w, w) / (2 * det) + quad * mu / (2 * det**2)
        return g

    return (
        OrbitInvariant("internal_rotation", s_value, s_gradient),
        OrbitInvariant("internal_energy", u_value, u_gradient),
    )


def static_invariants(state: StaticOrbitState):
    """The (internal rotation, labelled internal energy) pair of a state.

    The second entry subtracts the free label term nu*h carried by the
    orbit constants, so that a state at rest sits at energy E - nu*h.
    For a column of states both entries are arrays.
    """
    s_inv, u_inv = noncentral_invariants()
    alpha = state.to_dual()
    c = state.constants
    return (
        s_inv.value(alpha),
        u_inv.value(alpha) - float(c.nu) * float(c.h),
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
    array-valued momenta and boost momenta.
    """
    c = state.constants
    kappa_e = float(c.kappa_e)
    mu_e = float(c.mu_e)
    (q1, q2), (u1, u2) = state.position, state.velocity
    (p1, p2), (k1, k2) = state.momentum, state.boost_momentum
    return replace(
        state,
        momentum=(p1 - t * kappa_e * q1, p2 - t * kappa_e * q2),
        boost_momentum=(k1 + t * mu_e * u1, k2 + t * mu_e * u2),
    )


def evolution_hamiltonian(constants: StaticConstants, chart_state) -> float:
    """The quadratic Hamiltonian generating the time evolution on the chart.

    H = -(kappa_e q^2/2 + mu_e u^2/2 + (beta mu_e/mu) q.u); its flow under
    the chart brackets freezes (q, u) and drifts (p, k) linearly.
    """
    z = np.asarray(chart_state, dtype=float)
    q, u = z[0:2], z[2:4]
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    mix = float(constants.beta) * mu_e / float(constants.mu)
    return -(
        kappa_e * float(q @ q) / 2.0
        + mu_e * float(u @ u) / 2.0
        + mix * float(q @ u)
    )


def _evolution_gradient(constants: StaticConstants, z: np.ndarray) -> np.ndarray:
    q, u = z[0:2], z[2:4]
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    mix = float(constants.beta) * mu_e / float(constants.mu)
    grad = np.zeros(8)
    grad[0:2] = -(kappa_e * q + mix * u)
    grad[2:4] = -(mu_e * u + mix * q)
    return grad


def evolution_rhs(constants: StaticConstants) -> Callable[[float, np.ndarray], np.ndarray]:
    """RHS dz/dt = Theta grad H for the chart flow, for use with an integrator."""
    theta = to_float(static_symplectic(constants).canonical_theta)

    def rhs(_t: float, z: np.ndarray) -> np.ndarray:
        return theta @ _evolution_gradient(constants, z)

    return rhs
