"""The noncentrally extended Static group and its phase-space realization.

Group elements carry a rotation angle, boost and translation vectors, a
time shift, two further shift vectors conjugate to the noncentral
generators F and Pi, and four phase parameters conjugate to the charges
M, M', B, Lambda.  Multiplication mixes the shifts through polynomial
cocycles; the module implements the product, inverses, the closed-form
coadjoint action on orbit states, the two orbit invariants (an internal
angular momentum and an internal energy), the exact symplectic structure
of the eight-dimensional orbit chart and the exact Hamiltonian of the
closed-form time evolution on it.  The group law, the action, the
invariants and the evolution run on Python floats.  The public
constructors check every field; a product, inverse or action, whose fields
are formed from checked floats, is stored after one finiteness test of the
fields' sum and goes through those checks only when that test fails.
:func:`evolution_rows` traces the evolution and its invariants over a
time grid, as the columns ``kinorbit realize`` prints.  The float paths
read a dual vector in the basis order :data:`_DUAL_NAMES` of
:func:`noncentral_algebra`.  The module imports no NumPy, and
:mod:`kinorbit.catalog` (with the structure constants and the linear
algebra below it), :mod:`kinorbit.coadjoint` and :mod:`kinorbit.mechanics`
only inside the functions that build their types, so the group law, the
evolution and its rows load none of them.
"""

from __future__ import annotations

import functools
import math
from array import array
from fractions import Fraction
from typing import NamedTuple

from .records import CatalogError, Record, checked_float, exact, rat, real
from .timegrid import ROW_BLOCK, first_non_finite, grid_times, step_count

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
    "evolution_rows",
    "evolution_hamiltonian",
]

# The basis of noncentral_algebra(), in its order: the float paths index
# dual vectors by it without building the algebra.
_DUAL_NAMES = ("J", "K1", "K2", "P1", "P2", "H", "M", "F1", "F2", "Pi1", "Pi2", "M'", "B", "Lambda")


@functools.cache
def noncentral_algebra():
    """The 14-dimensional noncentral extension of the Static algebra, on the
    basis :data:`_DUAL_NAMES`, as :class:`~kinorbit.algebra_core.StructureConstants`."""
    from .catalog import build

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


class StaticConstants(Record):
    """Charge values labelling a maximal orbit of the extended Static group.

    ``m``, ``mu``, ``beta``, ``kappa`` are the dual values of the charges
    M, M', B, Lambda; ``nu`` and ``h`` are free label constants shifting
    the internal-energy invariant.  The orbit is maximal (the chart is
    symplectic) exactly when the determinant mu*kappa - beta^2 is nonzero.
    ``det``, the effective momentum-sector stiffness
    ``kappa_e = kappa - beta^2/mu = det/mu`` and the effective boost-sector
    mass ``mu_e = mu - beta^2/kappa = det/kappa`` are set with the fields.
    """

    _fields = ("m", "mu", "beta", "kappa", "nu", "h")
    __slots__ = (*_fields, "det", "kappa_e", "mu_e", "_floats")

    def __init__(
        self,
        m: Fraction,
        mu: Fraction,
        beta: Fraction = Fraction(0),
        kappa: Fraction = Fraction(1),
        nu: Fraction = Fraction(0),
        h: Fraction = Fraction(0),
    ) -> None:
        m, mu, beta = exact("m", m), exact("mu", mu), exact("beta", beta)
        kappa, nu, h = exact("kappa", kappa), exact("nu", nu), exact("h", h)
        if mu == 0 or kappa == 0:
            raise CatalogError("charges mu and kappa must be nonzero")
        det = mu * kappa - beta**2
        if det == 0:
            raise ValueError(
                f"mu*kappa - beta^2 = 0 (mu={mu}, kappa={kappa}, "
                f"beta={beta}); the orbit chart is degenerate"
            )
        self._init(m, mu, beta, kappa, nu, h, det, det / mu, det / kappa, None)

    @property
    def floats(self) -> StaticFloats:
        """The constants as floats by :func:`~kinorbit.records.checked_float`,
        converted on first use for every float path.

        Raises :class:`OverflowError` also when the determinant mu*kappa -
        beta*beta of the float charges (as the invariants form it) is 0 or
        not finite, so degenerate as a float orbit though not exactly.  The
        exact paths never convert, so they serve such constants.
        """
        if self._floats is not None:
            return self._floats
        names = StaticFloats._fields
        floats = StaticFloats(*map(checked_float, [getattr(self, name) for name in names], names))
        det = floats.mu * floats.kappa - floats.beta * floats.beta
        if not math.isfinite(det) or det == 0:
            raise OverflowError(f"mu*kappa - beta^2 is {det!r} as a float but not exactly")
        object.__setattr__(self, "_floats", floats)
        return floats


def _finite_pair(name: str, pair) -> tuple[float, float]:
    """:func:`~kinorbit.records.real` of both entries of the pair ``pair``, each
    named ``name``; :class:`ValueError` naming it unless ``pair`` holds two
    entries."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair, got {pair!r}") from None
    return real(name, a), real(name, b)


def _checked(cls, total: float, *values):
    """A ``cls`` of ``values``, floats formed from checked floats, and
    ``total`` their sum.  A finite sum has finite terms, so the record is
    stored without checking them again; otherwise ``cls`` checks them, and
    names the first that is not finite (or stores them, if only their sum
    overflowed)."""
    if not math.isfinite(total):
        return cls(*values)
    return cls._stored(*values)


def _check_column(name: str, values, kind: str) -> None:
    """:class:`ValueError` naming the ``kind``, ``name`` and first bad entry of a
    column of floats with an inf or nan."""
    index = first_non_finite(values)
    if index is not None:
        raise ValueError(
            f"{kind} {name} must be finite, got {values[index]!r} at entry {index}"
        )


class StaticGroupElement(Record):
    """An element of the extended Static group.

    Vector parameters: ``boost`` (conjugate to K), ``translation`` (P),
    ``f_shift`` (F), ``pi_shift`` (Pi).  Scalars: ``angle`` (rotation),
    ``time`` (H), and the four phases conjugate to the charges M, M', B,
    Lambda.  Each parameter is read by :func:`~kinorbit.records.real`, as
    ``group parameter <name>``.
    """

    __slots__ = _fields = (
        "angle", "boost", "translation", "time", "f_shift", "pi_shift",
        "phase_m", "phase_mprime", "phase_b", "phase_lambda",
    )

    def __init__(
        self,
        angle: float = 0.0,
        boost: tuple[float, float] = (0.0, 0.0),
        translation: tuple[float, float] = (0.0, 0.0),
        time: float = 0.0,
        f_shift: tuple[float, float] = (0.0, 0.0),
        pi_shift: tuple[float, float] = (0.0, 0.0),
        phase_m: float = 0.0,
        phase_mprime: float = 0.0,
        phase_b: float = 0.0,
        phase_lambda: float = 0.0,
    ) -> None:
        # the scalars are checked first, then the vectors
        angle, time = real("group parameter angle", angle), real("group parameter time", time)
        phase_m = real("group parameter phase_m", phase_m)
        phase_mprime = real("group parameter phase_mprime", phase_mprime)
        phase_b = real("group parameter phase_b", phase_b)
        phase_lambda = real("group parameter phase_lambda", phase_lambda)
        self._init(
            angle,
            _finite_pair("group parameter boost", boost),
            _finite_pair("group parameter translation", translation),
            time,
            _finite_pair("group parameter f_shift", f_shift),
            _finite_pair("group parameter pi_shift", pi_shift),
            phase_m, phase_mprime, phase_b, phase_lambda,
        )


def identity_element() -> StaticGroupElement:
    return StaticGroupElement()


def _rotate(c: float, s: float, a: tuple[float, float]) -> tuple[float, float]:
    """``a`` rotated by the angle whose cosine and sine are ``c`` and ``s``."""
    return (c * a[0] - s * a[1], s * a[0] + c * a[1])


def _dot(a: tuple[float, float], b: tuple[float, float]) -> float:
    return a[0] * b[0] + a[1] * b[1]


def _cross(a: tuple[float, float], b: tuple[float, float]) -> float:
    return a[0] * b[1] - a[1] * b[0]


def compose(g: StaticGroupElement, gp: StaticGroupElement) -> StaticGroupElement:
    """The group product g * gp (g acts first from the left).  A field that
    overflows raises :class:`ValueError` naming it, as
    :class:`StaticGroupElement` does."""
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
    angle, time = g.angle + gp.angle, t + tp
    v0, v1 = v[0] + vp[0], v[1] + vp[1]
    x0, x1 = x[0] + xp[0], x[1] + xp[1]
    eta0, eta1 = eta[0] + etap[0] + 0.5 * tx[0], eta[1] + etap[1] + 0.5 * tx[1]
    ell0, ell1 = ell[0] + ellp[0] + 0.5 * tv[0], ell[1] + ellp[1] + 0.5 * tv[1]
    phase_m = g.phase_m + gp.phase_m + 0.5 * (_dot(v, xp) - _dot(x, vp))
    phase_mprime = g.phase_mprime + gp.phase_mprime + _dot(v, ellp) + _dot(tv, v_mean)
    phase_b = (
        g.phase_b + gp.phase_b + _dot(v, etap) + _dot(x, ellp) + _dot(tv, x_mean)
        + _dot(tx, v_mean)
    )
    phase_lambda = g.phase_lambda + gp.phase_lambda + _dot(x, etap) + _dot(tx, x_mean)
    return _checked(
        StaticGroupElement,
        angle + v0 + v1 + x0 + x1 + time + eta0 + eta1 + ell0 + ell1
        + phase_m + phase_mprime + phase_b + phase_lambda,
        angle, (v0, v1), (x0, x1), time, (eta0, eta1), (ell0, ell1),
        phase_m, phase_mprime, phase_b, phase_lambda,
    )


def inverse(g: StaticGroupElement) -> StaticGroupElement:
    """The group inverse of ``g``; a field that overflows raises
    :class:`ValueError` naming it, as :class:`StaticGroupElement` does."""
    # each vector a becomes -R(-angle) a: the rotation with cosine
    # -cos(angle) and sine sin(angle)
    c, s = -math.cos(g.angle), math.sin(g.angle)
    v, x, eta, ell = g.boost, g.translation, g.f_shift, g.pi_shift
    boost, translation, f_shift, pi_shift = (_rotate(c, s, a) for a in (v, x, eta, ell))
    phase_mprime = -g.phase_mprime + _dot(v, ell)
    phase_b = -g.phase_b + _dot(v, eta) + _dot(x, ell)
    phase_lambda = -g.phase_lambda + _dot(x, eta)
    # -angle, -time and -phase_m are finite as g's fields are
    return _checked(
        StaticGroupElement,
        boost[0] + boost[1] + translation[0] + translation[1] + f_shift[0] + f_shift[1]
        + pi_shift[0] + pi_shift[1] + phase_mprime + phase_b + phase_lambda,
        -g.angle, boost, translation, -g.time, f_shift, pi_shift,
        -g.phase_m, phase_mprime, phase_b, phase_lambda,
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


class StaticOrbitState(Record):
    """A point of the eight-dimensional orbit chart, plus orbit labels.

    ``position`` (q) and ``velocity`` (u) are the scaled duals of the
    noncentral generators, q = -f/kappa_e and u = I/mu_e; ``momentum`` (p)
    and ``boost_momentum`` (k) are the duals of translations and boosts.
    ``energy`` and ``angular_momentum`` are the dual values of H and J.
    Each field is read by :func:`~kinorbit.records.real`, as
    ``state field <name>``.
    """

    __slots__ = _fields = (
        "constants", "position", "velocity", "momentum", "boost_momentum", "energy",
        "angular_momentum",
    )

    def __init__(
        self,
        constants: StaticConstants,
        position: tuple[float, float] = (0.0, 0.0),
        velocity: tuple[float, float] = (0.0, 0.0),
        momentum: tuple[float, float] = (0.0, 0.0),
        boost_momentum: tuple[float, float] = (0.0, 0.0),
        energy: float = 0.0,
        angular_momentum: float = 0.0,
    ) -> None:
        self._init(
            constants,
            _finite_pair("state field position", position),
            _finite_pair("state field velocity", velocity),
            _finite_pair("state field momentum", momentum),
            _finite_pair("state field boost_momentum", boost_momentum),
            real("state field energy", energy),
            real("state field angular_momentum", angular_momentum),
        )

    @property
    def chart_vector(self) -> tuple[float, ...]:
        """(q1, q2, u1, u2, p1, p2, k1, k2) as floats."""
        return (*self.position, *self.velocity, *self.momentum, *self.boost_momentum)


def _dual(state: StaticOrbitState) -> list[float]:
    """The dual coordinates of ``state``, in the order of :data:`_DUAL_NAMES`."""
    c = state.constants.floats
    (q1, q2), (u1, u2) = state.position, state.velocity
    return [
        state.angular_momentum, *state.boost_momentum, *state.momentum, state.energy, c.m,
        -c.kappa_e * q1, -c.kappa_e * q2, c.mu_e * u1, c.mu_e * u2, c.mu, c.beta, c.kappa,
    ]


def realize(g: StaticGroupElement, state: StaticOrbitState) -> StaticOrbitState:
    """The coadjoint action of ``g`` on an orbit state, in closed form.

    The rotation acts first, then the boost/translation/time factor, then
    the F/Pi shift factor; the phase parameters act trivially.  Each field
    moves by the polynomial that (exp(-ad_A))^T gives on the dual vector
    of the state.  Charges are preserved exactly; the orbit invariants are
    preserved up to rounding.  A result that overflows raises
    :class:`ValueError` naming the field.
    """
    c = state.constants.floats
    m, mu, beta, kappa, ke, me = c.m, c.mu, c.beta, c.kappa, c.kappa_e, c.mu_e
    cos, sin = math.cos(g.angle), math.sin(g.angle)
    v, x, eta, ell, t = g.boost, g.translation, g.f_shift, g.pi_shift, g.time
    fields = (state.position, state.velocity, state.momentum, state.boost_momentum)
    q, u, p, k = (_rotate(cos, sin, a) for a in fields)
    f, w = (-ke * q[0], -ke * q[1]), (me * u[0], me * u[1])
    # the boost and translation move f to f - df and w to w - dw
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
    return _checked(
        StaticOrbitState,
        position[0] + position[1] + velocity[0] + velocity[1] + momentum[0] + momentum[1]
        + boost_momentum[0] + boost_momentum[1] + energy + j,
        state.constants, position, velocity, momentum, boost_momentum, energy, j,
    )


# -- invariants -------------------------------------------------------------


@functools.cache
def _invariant_values() -> tuple:
    """The value functions of :func:`noncentral_invariants`, (s_value, u_value),
    on dual vectors in the order of :data:`_DUAL_NAMES`."""
    i = {name: index for index, name in enumerate(_DUAL_NAMES)}

    def unpack(a):
        k = (a[i["K1"]], a[i["K2"]])
        p = (a[i["P1"]], a[i["P2"]])
        f = (a[i["F1"]], a[i["F2"]])
        w = (a[i["Pi1"]], a[i["Pi2"]])
        return k, p, f, w, a[i["M"]], a[i["M'"]], a[i["B"]], a[i["Lambda"]]

    # beta * beta, not beta**2: a float ** raises OverflowError where a
    # product gives inf, and evolution_rows repeats these products.
    def s_value(a):
        k, p, f, w, m, mu, beta, kappa = unpack(a)
        det = mu * kappa - beta * beta
        orbital = (
            kappa * _cross(k, w)
            - beta * _cross(p, w)
            + mu * _cross(p, f)
            - beta * _cross(k, f)
            + m * _cross(f, w)
        )
        return a[i["J"]] - orbital / det

    def u_value(a):
        _, _, f, w, _, mu, beta, kappa = unpack(a)
        det = mu * kappa - beta * beta
        quad = mu * _dot(f, f) - 2 * beta * _dot(f, w) + kappa * _dot(w, w)
        return a[i["H"]] - quad / (2 * det)

    return s_value, u_value


@functools.cache
def noncentral_invariants() -> tuple:
    """The two Casimir functions of the 14-dimensional extension, as a pair of
    :class:`~kinorbit.coadjoint.OrbitInvariant`.

    ``internal_rotation`` subtracts from the J dual value the orbital part
    built from the vector duals; ``internal_energy`` subtracts from the H
    dual value the quadratic form of the noncentral vector duals.  Both
    are exact Casimirs: their Kirillov residual vanishes identically.
    """
    from .coadjoint import OrbitInvariant

    s_value, u_value = _invariant_values()
    return (
        OrbitInvariant("internal_rotation", s_value),
        OrbitInvariant("internal_energy", u_value),
    )


def static_invariants(state: StaticOrbitState):
    """The (internal rotation, labelled internal energy) pair of a state.

    The second entry subtracts the free label term nu*h carried by the
    orbit constants, so that a state at rest sits at energy E - nu*h.  An
    invariant that overflows raises :class:`ValueError` naming it (``s_inv``
    or ``U``).
    """
    s_value, u_value = _invariant_values()
    alpha = _dual(state)
    c = state.constants.floats
    s, u = s_value(alpha), u_value(alpha) - c.nu * c.h
    return real("invariant s_inv", s), real("invariant U", u)


# -- symplectic structure and evolution ------------------------------------

_CHART_DUAL_ORDER = ("P1", "P2", "K1", "K2", "F1", "F2", "Pi1", "Pi2")


def static_symplectic(constants: StaticConstants, energy=Fraction(0), angular_momentum=Fraction(0)):
    """Exact symplectic structure of the eight-dimensional orbit chart, as a
    :class:`~kinorbit.coadjoint.SymplecticStructure`.

    The chart spans the dual directions (P, K, F, Pi); the canonical map
    sends them to (q, u, p, k) with q = -f/kappa_e and u = I/mu_e, each
    canonical coordinate one chart direction times a nonzero scale, so the
    chart is nonsingular by construction and takes no rank elimination.  The
    bracket matrix carries the cross couplings {p_i, k_j} = m delta_ij in
    addition to the scaled diagonal brackets, so the chart is always of
    the fully noncommutative type.
    """
    from .coadjoint import DualPoint, OrbitChart, restrict

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
    inv_ke, inv_me, one = -1 / constants.kappa_e, 1 / constants.mu_e, Fraction(1)
    chart = OrbitChart._scaled(_CHART_DUAL_ORDER, {
        "q1": ("F1", inv_ke), "q2": ("F2", inv_ke), "u1": ("Pi1", inv_me), "u2": ("Pi2", inv_me),
        "p1": ("P1", one), "p2": ("P2", one), "k1": ("K1", one), "k2": ("K2", one),
    })
    return restrict(alg, point, chart)


def time_evolution(state: StaticOrbitState, t) -> StaticOrbitState:
    """Closed-form evolution by time ``t``.

    Positions and velocities are frozen; momenta and boost momenta drift
    linearly, p(t) = p - t*kappa_e*q and k(t) = k + t*mu_e*u.  ``t`` is read
    by :func:`~kinorbit.records.real`, as ``time t``.  The other
    fields are the checked fields of ``state``, so only the drifted pairs
    are tested, as :func:`realize` tests its fields: a drifted value that is
    not finite raises :class:`ValueError` naming it, momentum first, as
    :class:`StaticOrbitState` does.
    """
    kappa_e, mu_e = state.constants.floats.kappa_e, state.constants.floats.mu_e
    (q1, q2), (u1, u2) = state.position, state.velocity
    (p1, p2), (k1, k2) = state.momentum, state.boost_momentum
    t = real("time t", t)
    p1, p2 = p1 - t * kappa_e * q1, p2 - t * kappa_e * q2
    k1, k2 = k1 + t * mu_e * u1, k2 + t * mu_e * u2
    return _checked(
        StaticOrbitState, p1 + p2 + k1 + k2,
        state.constants, state.position, state.velocity, (p1, p2), (k1, k2),
        state.energy, state.angular_momentum,
    )


def evolution_rows(state: StaticOrbitState, t_end: float, dt: float) -> dict:
    """:func:`time_evolution` and :func:`static_invariants` on a time grid,
    as the columns ``kinorbit realize`` prints.

    The times are :func:`~kinorbit.timegrid.grid_times` of
    :func:`~kinorbit.timegrid.step_count` steps.  Returns the columns t,
    q1, q2, u1, u2, p1, p2, k1, k2, E, s_inv and U: a column that holds
    one value on every row (q, u, E and U) is that float, every other an
    ``array('d')``.  Each row repeats the float operations of those two
    functions in their order, with the charges and the frozen fields taken
    out of the loop, so it equals them at the row's time bit for bit; the
    internal energy U depends on frozen fields only and is formed once.  A
    momentum, boost momentum or invariant that is not finite raises
    :class:`ValueError` naming it and its first bad row (entry).
    """
    c = state.constants.floats
    times = grid_times(t_end, step_count(t_end, dt))
    kappa_e, mu_e, m, mu, beta, kappa = c.kappa_e, c.mu_e, c.m, c.mu, c.beta, c.kappa
    (q1, q2), (u1, u2) = state.position, state.velocity
    (p1, p2), (k1, k2) = state.momentum, state.boost_momentum
    j = state.angular_momentum
    # noncentral_invariants' s_value on _dual(time_evolution(state, t))
    f1, f2, w1, w2 = -kappa_e * q1, -kappa_e * q2, mu_e * u1, mu_e * u2
    m_fw = m * (f1 * w2 - f2 * w1)
    det = mu * kappa - beta * beta
    drifting = tuple(array("d") for _ in range(5))
    for start in range(0, len(times), ROW_BLOCK):
        block = times[start : start + ROW_BLOCK].tolist()
        momenta = (
            [p1 - t * kappa_e * q1 for t in block],
            [p2 - t * kappa_e * q2 for t in block],
            [k1 + t * mu_e * u1 for t in block],
            [k2 + t * mu_e * u2 for t in block],
        )
        s_inv = [
            j - (
                kappa * (k1t * w2 - k2t * w1) - beta * (p1t * w2 - p2t * w1)
                + mu * (p1t * f2 - p2t * f1) - beta * (k1t * f2 - k2t * f1) + m_fw
            ) / det
            for p1t, p2t, k1t, k2t in zip(*momenta)
        ]
        for column, values in zip(drifting, (*momenta, s_inv)):
            column.fromlist(values)
    # the checks, and their order, of time_evolution and static_invariants
    names = ("momentum", "momentum", "boost_momentum", "boost_momentum")
    for name, column in zip(names, drifting):
        _check_column(name, column, "state field")
    _check_column("s_inv", drifting[4], "invariant")
    internal_energy = _invariant_values()[1](_dual(state)) - c.nu * c.h
    _check_column("U", [internal_energy], "invariant")
    return {
        "t": times, "q1": q1, "q2": q2, "u1": u1, "u2": u2,
        **dict(zip(("p1", "p2", "k1", "k2"), drifting)),
        "E": state.energy, "s_inv": drifting[4], "U": internal_energy,
    }


def evolution_hamiltonian(constants: StaticConstants):
    """H = -(kappa_e q^2/2 + mu_e u^2/2 + (beta mu_e/mu) q.u), exact, over the
    canonical coordinates (q, u, p, k) of :func:`static_symplectic`, as a
    :class:`~kinorbit.mechanics.QuadraticHamiltonian`: its flow under the
    chart's ``canonical_theta`` is :func:`time_evolution`'s."""
    from .mechanics import QuadraticHamiltonian

    n = len(_CHART_DUAL_ORDER)
    hessian = [[0] * n for _ in range(n)]
    for q, u in ((0, 2), (1, 3)):
        hessian[q][q], hessian[u][u] = -constants.kappa_e, -constants.mu_e
        hessian[q][u] = hessian[u][q] = -constants.beta * constants.mu_e / constants.mu
    return QuadraticHamiltonian(hessian, [0] * n)
