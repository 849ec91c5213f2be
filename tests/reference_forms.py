"""Frozen closed-form reference data for the test suite.

Every matrix and scalar here was derived independently (by hand and with
a symbolic cross-check) before the package was written; the tests compare
package output against these fixtures entrywise and exactly.  The module
also holds the dense and float references the package's kernels are
tested against: :func:`dense`, the one conversion of an exact matrix to a
NumPy object array, the dense structure tensor, forward-mode
differentiation with every operation one linear combination, a
central-difference gradient, the planar affine system written out entry by
entry, the right-hand side of the Hamilton equations, the 2-stage Gauss
step formed by a NumPy solve and iterated with compensated sums on NumPy
arrays, the package's own Gauss step iterated by a loop over any number
of Python float coordinates, the Static time evolution rebuilt through
``_replace``, and the Static group product, inverse and action built
through the checking constructors.  :func:`central_ext_table` forms a
central extension at any charges, also those that break the Jacobi
identity.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from kinorbit.algebra_core import StructureConstants
from kinorbit.rational_linalg import RatMatrix
from kinorbit.records import rat
from kinorbit.timegrid import IntegrationError, grid_times, step_count


def dense(entries) -> np.ndarray:
    """An exact matrix or vector (or a float vector) as a dense NumPy object
    array of ``Fraction``; floats are converted exactly, as the package does."""
    return np.vectorize(rat, otypes=[object])(np.array(entries, dtype=object))


def structure_tensor(algebra) -> np.ndarray:
    """The dense rank-3 tensor ``C[i, j, k]`` of exact structure constants."""
    n = algebra.dim
    tensor = np.full((n, n, n), Fraction(0), dtype=object)
    for (i, j), comps in algebra.pair_table():
        for k, v in comps.items():
            tensor[i, j, k] = v
            tensor[j, i, k] = -v
    return tensor


def _f(value) -> Fraction:
    return rat(value)


# -- restricted pairing matrices on the chart (K1, K2, P1, P2) --------------
#
# All central extensions carry their default charges.  c = omega/kappa.


def galilei_omega(m, h, omega, kappa):
    m, h = _f(m), _f(h)
    a = h * _f(kappa) ** 2 / _f(omega) ** 2
    z = Fraction(0)
    return RatMatrix([[z, a, m, z], [-a, z, z, m], [-m, z, z, z], [z, -m, z, z]])


def galilei_theta(m, h, omega, kappa):
    """Closed-form inverse of :func:`galilei_omega` (requires h != 0)."""
    m, h = _f(m), _f(h)
    c2 = (_f(omega) / _f(kappa)) ** 2
    omega0 = m * c2 / h
    z = Fraction(0)
    im = 1 / m
    return RatMatrix(
        [
            [z, z, -im, z],
            [z, z, z, -im],
            [im, z, z, 1 / (m * omega0)],
            [z, im, -1 / (m * omega0), z],
        ]
    )


def paragalilei_omega(m, h, omega, kappa):
    m, h = _f(m), _f(h)
    b = _f(kappa) ** 2 * h
    z = Fraction(0)
    return RatMatrix([[z, z, m, z], [z, z, z, m], [-m, z, z, b], [z, -m, -b, z]])


def paragalilei_theta(m, h, omega, kappa):
    m, h = _f(m), _f(h)
    c2 = (_f(omega) / _f(kappa)) ** 2
    omega0 = m * c2 / h
    w2 = _f(omega) ** 2
    z = Fraction(0)
    im = 1 / m
    s = w2 / (m * omega0)
    return RatMatrix(
        [
            [z, s, -im, z],
            [-s, z, z, -im],
            [im, z, z, z],
            [z, im, z, z],
        ]
    )


def static_omega(m, h, omega, kappa):
    m, h = _f(m), _f(h)
    a = h * _f(kappa) ** 2 / _f(omega) ** 2
    b = _f(kappa) ** 2 * h
    z = Fraction(0)
    return RatMatrix([[z, a, m, z], [-a, z, z, m], [-m, z, z, b], [z, -m, -b, z]])


def static_claimed_theta(m, h, omega, kappa):
    """The closed-form inverse candidate built from the effective mass.

    This matrix is NOT the inverse of :func:`static_omega` whenever both
    charges are nonzero; the tests pin the mismatch.
    """
    m, h, omega, kappa = _f(m), _f(h), _f(omega), _f(kappa)
    c2 = (omega / kappa) ** 2
    omega0 = m * c2 / h
    mu_e = m - kappa**2 * h / omega
    z = Fraction(0)
    return RatMatrix(
        [
            [z, -omega / mu_e, -1 / mu_e, z],
            [omega / mu_e, z, z, -1 / mu_e],
            [1 / mu_e, z, z, 1 / (mu_e * omega0)],
            [z, 1 / mu_e, -1 / (mu_e * omega0), z],
        ]
    )


# Exact inverse of static_omega at (m=2, h=1, omega=1, kappa=1).
STATIC_TRUE_THETA_SAMPLE = RatMatrix(
    [
        [0, Fraction(1, 3), Fraction(-2, 3), 0],
        [Fraction(-1, 3), 0, 0, Fraction(-2, 3)],
        [Fraction(2, 3), 0, 0, Fraction(1, 3)],
        [0, Fraction(2, 3), Fraction(-1, 3), 0],
    ]
)


def carroll_omega(E, h, omega, kappa):
    E, h = _f(E), _f(h)
    inv_c2 = _f(kappa) ** 2 / _f(omega) ** 2
    a = h * inv_c2
    e = E * inv_c2
    b = _f(kappa) ** 2 * h
    z = Fraction(0)
    return RatMatrix([[z, a, e, z], [-a, z, z, e], [-e, z, z, b], [z, -e, -b, z]])


def newton_hooke_omega(sign, m, h, omega, kappa):
    """sign = +1 for the expanding family, -1 for the oscillating one."""
    m, h = _f(m), _f(h)
    a = h * _f(kappa) ** 2 / _f(omega) ** 2
    b = sign * _f(kappa) ** 2 * h
    z = Fraction(0)
    return RatMatrix([[z, a, m, z], [-a, z, z, m], [-m, z, z, -b], [z, -m, b, z]])


# -- expected noncommutativity scalars --------------------------------------


def expected_fields(name: str, m, h, E, omega, kappa) -> tuple[Fraction, Fraction]:
    """(G, F) of the standard orbit of ``name`` with the given charges."""
    m, h, E = _f(m), _f(h), _f(E)
    inv_c2 = _f(kappa) ** 2 / _f(omega) ** 2
    k2h = _f(kappa) ** 2 * h
    if name == "G":
        return (-h * inv_c2 / m**2, Fraction(0))
    if name in ("G'+", "G'-"):
        return (Fraction(0), -k2h)
    if name == "S":
        mu_e = m - _f(kappa) ** 2 * h / _f(omega)
        return (-h * inv_c2 / mu_e**2, -k2h)
    if name == "C":
        scale = E * inv_c2
        return (-h * inv_c2 / scale**2, -k2h)
    if name in ("NH+", "NH-"):
        sign = 1 if name.endswith("+") else -1
        return (-h * inv_c2 / m**2, sign * k2h)
    raise ValueError(name)


# -- eight-dimensional extended-Static chart --------------------------------
#
# Chart order (P1, P2, K1, K2, F1, F2, Pi1, Pi2); charges (m, mu, beta, kappa).


def noncentral_static_omega(m, mu, beta, kappa):
    m, mu, beta, kappa = _f(m), _f(mu), _f(beta), _f(kappa)
    z = Fraction(0)
    return RatMatrix(
        [
            [z, z, -m, z, kappa, z, beta, z],
            [z, z, z, -m, z, kappa, z, beta],
            [m, z, z, z, beta, z, mu, z],
            [z, m, z, z, z, beta, z, mu],
            [-kappa, z, -beta, z, z, z, z, z],
            [z, -kappa, z, -beta, z, z, z, z],
            [-beta, z, -mu, z, z, z, z, z],
            [z, -beta, z, -mu, z, z, z, z],
        ]
    )


def noncentral_static_theta(m, mu, beta, kappa):
    """Closed-form inverse of :func:`noncentral_static_omega`."""
    m, mu, beta, kappa = _f(m), _f(mu), _f(beta), _f(kappa)
    d = beta**2 - mu * kappa
    z = Fraction(0)
    rows = [
        [z, z, z, z, mu, z, -beta, z],
        [z, z, z, z, z, mu, z, -beta],
        [z, z, z, z, -beta, z, kappa, z],
        [z, z, z, z, z, -beta, z, kappa],
        [-mu, z, beta, z, z, z, m, z],
        [z, -mu, z, beta, z, z, z, m],
        [beta, z, -kappa, z, -m, z, z, z],
        [z, beta, z, -kappa, z, -m, z, z],
    ]
    return RatMatrix([[v / d for v in row] for row in rows])


def noncentral_canonical_brackets(m, mu, beta, kappa):
    """Bracket matrix of (q1, q2, u1, u2, p1, p2, k1, k2).

    Nonzero blocks: {p_i, q^j} = (kappa/kappa_e) delta, {k_i, u^j} =
    -(mu/mu_e) delta, {p_i, u^j} = -(beta/mu_e) delta, {q^i, k_j} =
    -(beta/kappa_e) delta, {p_i, k_j} = m delta.
    """
    m, mu, beta, kappa = _f(m), _f(mu), _f(beta), _f(kappa)
    det = mu * kappa - beta**2
    kappa_e = det / mu
    mu_e = det / kappa
    z = Fraction(0)
    pq = kappa / kappa_e
    ku = -mu / mu_e
    pu = -beta / mu_e
    qk = -beta / kappa_e
    theta = [[z] * 8 for _ in range(8)]
    names = ("q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2")
    idx = {n: i for i, n in enumerate(names)}

    def put(a, b, value):
        theta[idx[a]][idx[b]] = value
        theta[idx[b]][idx[a]] = -value

    for i in ("1", "2"):
        put("p" + i, "q" + i, pq)
        put("k" + i, "u" + i, ku)
        put("p" + i, "u" + i, pu)
        put("q" + i, "k" + i, qk)
        put("p" + i, "k" + i, m)
    return RatMatrix(theta)


# -- default central charges ------------------------------------------------

DEFAULT_CENTRAL_CHARGES = {
    "NH+": (Fraction(1), Fraction(-1)),
    "NH-": (Fraction(1), Fraction(1)),
    "G": (Fraction(1), Fraction(0)),
    "G'+": (Fraction(0), Fraction(1)),
    "G'-": (Fraction(0), Fraction(1)),
    "S": (Fraction(1), Fraction(1)),
    "C": (Fraction(1), Fraction(1)),
}


# -- catalog brackets, component by component -------------------------------

# name -> (lam, sign of beta, gamma nonzero?)
CATALOG_PARAMETERS = {
    "dS+": (1, 1, True), "P": (1, 0, True), "dS-": (1, -1, True),
    "NH+": (1, 1, False), "G": (1, 0, False), "NH-": (1, -1, False),
    "P'+": (0, 1, True), "C": (0, 0, True), "P'-": (0, -1, True),
    "G'+": (0, 1, False), "S": (0, 0, False), "G'-": (0, -1, False),
}


def _eps(v, x, c):
    """[v1, v2] = c x."""
    return [((v + "1", v + "2"), {x: c})]


def _delta(v, w, x, c):
    """[v_i, w_i] = c x for i = 1, 2."""
    return [((v + i, w + i), {x: c}) for i in "12"]


def _act(v, s, w, c):
    """[v_i, s] = c w_i for i = 1, 2."""
    return [((v + i, s), {w + i: c}) for i in "12"]


def catalog_brackets(name, variant, omega, kappa, mu=None, alpha=None, m=1):
    """Basis names and the ``(a, b) -> {target: coefficient}`` brackets of a
    catalog algebra, written out per component in the package's order: J's
    rotation of each vector first.  ``mu``, ``alpha`` and ``m`` are the
    central charges of ``central_ext``; zero coefficients are kept."""
    lam, sign, curved = CATALOG_PARAMETERS[name]
    w2, k2 = _f(omega) ** 2, _f(kappa) ** 2
    inv_c2 = k2 / w2
    beta, gamma = sign * w2, inv_c2 if curved else Fraction(0)
    time = _act("K", "H", "P", _f(lam)) + _act("P", "H", "K", beta)
    if variant == "isotropic":
        names = ["J", "K1", "K2", "P1", "P2", "H"]
        rows = _eps("K", "J", -lam * gamma) + _eps("P", "J", beta * gamma)
        rows += _delta("K", "P", "H", gamma) + time
    elif variant == "anisotropic":
        names = ["K1", "K2", "P1", "P2", "H"]
        rows = _delta("K", "P", "H", gamma) + time
    elif variant == "central_ext":
        names = ["K1", "K2", "P1", "P2", "H"] + (["S"] if name == "C" else ["M", "S"])
        rows = _eps("K", "S", _f(mu) * inv_c2) + _eps("P", "S", _f(alpha) * k2)
        rows += _delta("K", "P", "H", inv_c2) if name == "C" else _delta("K", "P", "M", _f(m))
        rows += time
    elif name in ("NH+", "NH-"):
        names = ["J", "K1", "K2", "P1", "P2", "H", "M", "S"]
        rows = _eps("K", "S", inv_c2) + _eps("P", "S", -sign * k2) + _delta("K", "P", "M", 1)
        rows += _act("K", "H", "P", 1) + _act("P", "H", "K", beta)
    elif name in ("G'+", "G'-"):
        names = ["J", "K1", "K2", "P1", "P2", "H", "M", "S", "Pi1", "Pi2"]
        rows = _delta("K", "P", "M", 1) + _eps("P", "S", k2)
        rows += _act("K", "H", "Pi", 1) + _act("P", "H", "K", beta)
    elif name == "G":
        names = ["J", "K1", "K2", "P1", "P2", "H", "M", "S", "F1", "F2", "Pi1", "Pi2"]
        rows = _eps("K", "S", inv_c2) + _delta("K", "P", "M", 1)
        rows += _act("K", "H", "Pi", 1) + _act("P", "H", "F", 1)
    else:
        names = ["J", "K1", "K2", "P1", "P2", "H", "M", "F1", "F2", "Pi1", "Pi2"]
        names += ["M'", "B", "Lambda"]
        rows = _delta("K", "P", "M", 1) + _delta("K", "F", "B", 1)
        rows += _delta("P", "F", "Lambda", 1) + _delta("K", "Pi", "M'", 1)
        rows += _delta("P", "Pi", "B", 1) + _act("K", "H", "Pi", 1) + _act("P", "H", "F", 1)
    vectors = [v for v in ("K", "P", "F", "Pi") if v + "1" in names]
    rotation = []
    if "J" in names:
        for v in vectors:
            rotation += [(("J", v + "1"), {v + "2": 1}), (("J", v + "2"), {v + "1": -1})]
    return names, dict(rotation + rows)


def central_ext_table(name, omega, kappa, mu, alpha):
    """The ``central_ext`` table of ``name`` at the charges ``mu`` and
    ``alpha``, built by the public constructor with no check of the Jacobi
    identity, so that charges ``build`` refuses can be looked at."""
    return StructureConstants(*catalog_brackets(name, "central_ext", omega, kappa, mu, alpha))


# -- minimal-coupling bracket expectations ----------------------------------


def coupled_position_brackets(m, omega0):
    """Brackets of (x1, x2, p1, p2) after the position shift."""
    m, omega0 = _f(m), _f(omega0)
    g = -1 / (m * omega0)
    z = Fraction(0)
    one = Fraction(1)
    return RatMatrix(
        [
            [z, g, -one, z],
            [-g, z, z, -one],
            [one, z, z, z],
            [z, one, z, z],
        ]
    )


def coupled_momentum_brackets(m, omega, omega0):
    """Brackets of (x1, x2, pi1, pi2) after the momentum shift."""
    m, omega, omega0 = _f(m), _f(omega), _f(omega0)
    f = -m * omega**2 / omega0
    z = Fraction(0)
    one = Fraction(1)
    return RatMatrix(
        [
            [z, z, -one, z],
            [z, z, z, -one],
            [one, z, z, f],
            [z, one, -f, z],
        ]
    )


# -- one-parameter coadjoint flows on the extended-Static chart -------------


def boost_action(constants, state, v):
    """(q, u, p, k) after a pure boost by the 2-vector v."""
    q, u, p, k = state
    beta = float(constants.beta)
    mu = float(constants.mu)
    m = float(constants.m)
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    v = np.asarray(v, dtype=float)
    return (
        np.asarray(q) + beta / kappa_e * v,
        np.asarray(u) - mu / mu_e * v,
        np.asarray(p) - m * v,
        np.asarray(k).copy(),
    )


def translation_action(constants, state, x):
    """(q, u, p, k) after a pure translation by the 2-vector x."""
    q, u, p, k = state
    beta = float(constants.beta)
    kappa = float(constants.kappa)
    m = float(constants.m)
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    x = np.asarray(x, dtype=float)
    return (
        np.asarray(q) + kappa / kappa_e * x,
        np.asarray(u) - beta / mu_e * x,
        np.asarray(p).copy(),
        np.asarray(k) + m * x,
    )


def time_action(constants, state, t):
    """(q, u, p, k) after a pure time shift t."""
    q, u, p, k = state
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    return (
        np.asarray(q).copy(),
        np.asarray(u).copy(),
        np.asarray(p) - t * kappa_e * np.asarray(q),
        np.asarray(k) + t * mu_e * np.asarray(u),
    )


def general_action(constants, state, element):
    """(q, u, p, k) after a general group element, in closed form.

    Rotation first, then the combined boost/translation/time factor, then
    the F/Pi shifts: q and u transform affinely; p and k pick up midpoint
    drift terms plus shift contributions.
    """
    q, u, p, k = (np.asarray(part, dtype=float) for part in state)
    beta = float(constants.beta)
    mu = float(constants.mu)
    kappa = float(constants.kappa)
    m = float(constants.m)
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    th = element.angle
    R = np.array(
        [
            [np.cos(th), -np.sin(th)],
            [np.sin(th), np.cos(th)],
        ]
    )
    v = np.asarray(element.boost)
    x = np.asarray(element.translation)
    eta = np.asarray(element.f_shift)
    ell = np.asarray(element.pi_shift)
    t = element.time
    q_new = R @ q + beta / kappa_e * v + kappa / kappa_e * x
    u_new = R @ u - beta / mu_e * x - mu / mu_e * v
    p_new = R @ p - t * kappa_e / 2.0 * (R @ q + q_new) - m * v + kappa * eta + beta * ell
    k_new = R @ k + t * mu_e / 2.0 * (R @ u + u_new) + m * x + mu * ell + beta * eta
    return q_new, u_new, p_new, k_new


# -- float references --------------------------------------------------------


class _CombinedDual:
    """Forward mode with every operation through one linear combination,
    a*self.grad + b*other.grad, so that a sum multiplies each partial by 1
    and a difference by -1: the package's dual numbers before they copied
    and negated partials instead, kept to check them bit for bit."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: dict) -> None:
        self.value = value
        self.grad = grad

    def _combine(self, a, other, b, value):
        grad = {k: a * v for k, v in self.grad.items()}
        for k, v in other.grad.items():
            grad[k] = grad.get(k, 0) + b * v
        return _CombinedDual(value, grad)

    def __add__(self, other):
        other = _lift(other)
        return self._combine(1, other, 1, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return self._combine(1, other, -1, self.value - other.value)

    def __rsub__(self, other):
        return _lift(other) - self

    def __neg__(self):
        return _CombinedDual(-self.value, {k: -v for k, v in self.grad.items()})

    def __mul__(self, other):
        other = _lift(other)
        return self._combine(other.value, other, self.value, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        quotient = self.value / other.value
        numerator = self._combine(1, other, -quotient, quotient)
        return _CombinedDual(quotient, {k: v / other.value for k, v in numerator.grad.items()})

    def __rtruediv__(self, other):
        return _lift(other) / self


def _lift(value) -> _CombinedDual:
    return value if isinstance(value, _CombinedDual) else _CombinedDual(value, {})


def combined_gradient(fn: Callable, coords: Sequence) -> list:
    """The gradient of ``fn`` at ``coords`` by :class:`_CombinedDual`, seeded
    as the package seeds it: with the one of the coordinates' scalar type."""
    one = coords[0] ** 0 if len(coords) else 1
    result = fn([_CombinedDual(c, {i: one}) for i, c in enumerate(coords)])
    return [result.grad.get(i, 0) for i in range(len(coords))]


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


def potential_gradient(ham, q) -> np.ndarray:
    """dV/dq of a ``HamiltonianSpec`` at q = (q1, q2)."""
    a1, a2 = ham.linear
    k11, k12, k22 = ham.quadratic
    return np.array([a1 + k11 * q[0] + k12 * q[1], a2 + k12 * q[0] + k22 * q[1]])


def planar_system(space, ham) -> tuple[tuple, tuple]:
    """A = theta diag(K, 1/m, 1/m) and b = theta (a1, a2, 0, 0) of a
    ``HamiltonianSpec`` on an ``NCPhaseSpace2D``, as tuples of floats: every
    entry is one float product of the converted G, F, K, a and 1/m."""
    G, F = float(space.G_field), float(space.F_field)
    k11, k12, k22 = (float(v) for v in ham.quadratic)
    a1, a2 = (float(v) for v in ham.linear)
    inv_m = float(1 / space.mass)
    A = (
        (G * k12, G * k22, inv_m, 0.0),
        (-G * k11, -G * k12, 0.0, inv_m),
        (-k11, -k12, 0.0, F * inv_m),
        (-k12, -k22, -F * inv_m, 0.0),
    )
    return A, (G * a2, -G * a1, -a1, -a2)


def hamilton_rhs(space, ham, state) -> np.ndarray:
    """Right-hand side of the modified Hamilton equations at ``state``."""
    z = np.asarray(state, dtype=float)
    gq = potential_gradient(ham, z[:2])
    gp = z[2:] / float(space.mass)
    G = float(space.G_field)
    F = float(space.F_field)
    qdot = gp + G * np.array([gq[1], -gq[0]])
    pdot = -gq + F * np.array([gp[1], -gp[0]])
    return np.concatenate([qdot, pdot])


def increment_loop(A, b, state0, t_end, dt) -> tuple[np.ndarray, np.ndarray]:
    """The 2-stage Gauss step on NumPy arrays of any dimension, one step
    at a time: (times, states) of dz/dt = A z + b from ``state0``.

    The grid is that of ``step_count`` on [0, t_end].  The step z -> M z + c
    has M - 1 = D^-1 X and c = D^-1 hb, X = hA and D = 1 - X/2 + X^2/12,
    both from one ``np.linalg.solve``.  Each step adds the increment
    (M - 1) z + c to z with Kahan compensation, so the loop's own rounding
    stays near the last bit however many steps it takes (uncompensated, it
    reaches 2-4e-13 of a column's largest value on the Static chart flow
    at 10^4 steps).  A non-finite state raises IntegrationError carrying
    the first step that produced it.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    n_steps = step_count(t_end, dt)
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    states = np.empty((n_steps + 1, b.size))
    z = states[0] = np.asarray(state0, dtype=float)
    carry = np.zeros(b.size)
    with np.errstate(over="ignore", invalid="ignore"):
        X = h * A
        step = np.linalg.solve(np.eye(b.size) - X / 2.0 + X @ X / 12.0,
                               np.column_stack([X, h * b]))
        M_minus_1, c = step[:, :-1], step[:, -1]
        for i in range(1, n_steps + 1):
            increment = (M_minus_1 @ z + c) - carry
            total = z + increment
            carry = (total - z) - increment
            z = states[i] = total
            if not np.isfinite(z).all():
                raise IntegrationError(f"non-finite state at step {i}", i)
    return times, states


def gauss_flow(A, b, state0, t_end, dt) -> list[array]:
    """The package's ``propagator`` step iterated by a loop over the n
    coordinates on Python floats, the reference that the planar fill's
    four unrolled columns equal bit for bit.

    Each step adds (M - 1) z + c to z with Kahan compensation, row i's
    products z_0 (M - 1)_i0 + ... + z_n-1 (M - 1)_i,n-1 added left to
    right, then c_i, then minus the carry.  A non-finite state raises
    IntegrationError carrying the first step after the start that
    produced it.
    """
    from kinorbit.mechanics import propagator

    n_steps = step_count(t_end, dt)
    step, c = propagator(A, b, t_end / n_steps)
    z = [float(x) for x in state0]
    carry = [0.0] * len(z)
    states = [array("d", [x]) for x in z]
    for i in range(1, n_steps + 1):
        increments = []
        for row, c_i, e_i in zip(step, c, carry):
            d = z[0] * row[0]
            for z_j, m_j in zip(z[1:], row[1:]):
                d = d + z_j * m_j
            increments.append(d + c_i - e_i)
        total = [x + d for x, d in zip(z, increments)]
        carry = [t - x - d for t, x, d in zip(total, z, increments)]
        z = total
        for column, x in zip(states, z):
            column.append(x)
        if not all(map(math.isfinite, z)):
            t = grid_times(t_end, n_steps)[i]
            raise IntegrationError(
                f"integration aborted: non-finite state at step {i} (t = {t:.6g})", i
            )
    return states


def replaced_time_evolution(state, t):
    """``time_evolution`` as a record rebuilt through ``_replace``: the drifted
    momenta with every field checked again by ``StaticOrbitState``."""
    c = state.constants.floats
    (q1, q2), (u1, u2) = state.position, state.velocity
    (p1, p2), (k1, k2) = state.momentum, state.boost_momentum
    t = float(t)
    momentum = (p1 - t * c.kappa_e * q1, p2 - t * c.kappa_e * q2)
    boost_momentum = (k1 + t * c.mu_e * u1, k2 + t * c.mu_e * u2)
    return state._replace(momentum=momentum, boost_momentum=boost_momentum)


def _rotate(c, s, a):
    return (c * a[0] - s * a[1], s * a[0] + c * a[1])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def constructed_compose(g, gp):
    """The group product g * gp built by ``StaticGroupElement``, every field
    checked: the record the package's ``compose`` stores after one test."""
    from kinorbit.static_group import StaticGroupElement

    c, s = math.cos(g.angle), math.sin(g.angle)
    v, x, eta, ell = g.boost, g.translation, g.f_shift, g.pi_shift
    vp, xp, etap, ellp = (_rotate(c, s, a) for a in (gp.boost, gp.translation,
                                                      gp.f_shift, gp.pi_shift))
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
        phase_b=(g.phase_b + gp.phase_b + _dot(v, etap) + _dot(x, ellp)
                 + _dot(tv, x_mean) + _dot(tx, v_mean)),
        phase_lambda=g.phase_lambda + gp.phase_lambda + _dot(x, etap) + _dot(tx, x_mean),
    )


def constructed_inverse(g):
    """The group inverse of ``g`` built by ``StaticGroupElement``, every field checked."""
    from kinorbit.static_group import StaticGroupElement

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


def constructed_realize(g, state):
    """The coadjoint action of ``g`` on ``state`` built by ``StaticOrbitState``,
    every field checked."""
    from kinorbit.static_group import StaticOrbitState

    c = state.constants.floats
    m, mu, beta, kappa, ke, me = c.m, c.mu, c.beta, c.kappa, c.kappa_e, c.mu_e
    cos, sin = math.cos(g.angle), math.sin(g.angle)
    v, x, eta, ell, t = g.boost, g.translation, g.f_shift, g.pi_shift, g.time
    fields = (state.position, state.velocity, state.momentum, state.boost_momentum)
    q, u, p, k = (_rotate(cos, sin, a) for a in fields)
    f, w = (-ke * q[0], -ke * q[1]), (me * u[0], me * u[1])
    df = (beta * v[0] + kappa * x[0], beta * v[1] + kappa * x[1])
    dw = (beta * x[0] + mu * v[0], beta * x[1] + mu * v[1])
    position = (q[0] + df[0] / ke, q[1] + df[1] / ke)
    velocity = (u[0] - dw[0] / me, u[1] - dw[1] / me)
    momentum = tuple(
        p[i] - m * v[i] + beta * ell[i] + kappa * eta[i] + t * (f[i] - df[i] / 2)
        for i in (0, 1)
    )
    boost_momentum = tuple(
        k[i] + m * x[i] + mu * ell[i] + beta * eta[i] + t * (w[i] - dw[i] / 2)
        for i in (0, 1)
    )
    energy = state.energy - _dot(f, x) - _dot(w, v) + beta * _dot(v, x)
    energy += (kappa * _dot(x, x) + mu * _dot(v, v)) / 2
    j = state.angular_momentum + _cross(v, k) + _cross(x, p) + m * _cross(v, x)
    j += _cross(eta, f) + _cross(ell, w) + t * (_cross(x, f) + _cross(v, w)) / 2
    j += beta * (_cross(x, ell) + _cross(v, eta)) + kappa * _cross(x, eta)
    j += mu * _cross(v, ell)
    return StaticOrbitState(
        state.constants, position, velocity, momentum, boost_momentum, energy, j
    )
