"""Frozen closed-form reference data for the test suite.

Every matrix and scalar here was derived independently (by hand and with
a symbolic cross-check) before the package was written; the tests compare
package output against these fixtures entrywise and exactly.  The module
also holds the dense and float references the package's kernels are
tested against: :func:`dense`, the one conversion of an exact matrix to a
NumPy object array, the dense structure tensor, a central-difference
gradient, and stage-by-stage RK4 on the Hamilton equations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from kinorbit.rational_linalg import RatMatrix, rat


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


def rk4_step(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    state: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One classical Runge-Kutta step for dz/dt = rhs(t, z)."""
    k1 = rhs(t, state)
    k2 = rhs(t + dt / 2.0, state + dt / 2.0 * k1)
    k3 = rhs(t + dt / 2.0, state + dt / 2.0 * k2)
    k4 = rhs(t + dt, state + dt * k3)
    return state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
