"""Quadratic Hamiltonians and their RK4 flows on noncommutative phase spaces.

A Hamiltonian H = z'Qz/2 + g.z + c in a chart's canonical coordinates z
(:class:`QuadraticHamiltonian`) flows under the chart's bracket matrix
theta by dz/dt = theta grad H = A z + b, A = theta Q and b = theta g.  Q,
g and c stay exact until H is first read, and theta until
:meth:`~QuadraticHamiltonian.system` forms A and b.  On a planar phase
space with bracket scalars G (positions) and F (momenta)
(:class:`NCPhaseSpace2D`), :class:`HamiltonianSpec` states
H = p^2/2m + a.q + q'Kq/2, whose flow is

    dq^i/dt = dH/dp_i + G eps^ij dH/dq^j,
    dp_i/dt = -dH/dq^i + F eps_ij dH/dp_j.

One classical RK4 step of size h is exactly the affine map z -> R(hA) z +
h S(hA) b with R(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 (RK4's stability
function) and S(x) = 1 + x/2 + x^2/6 + x^3/24.  The integrators form that
propagator once and fill the state table in doubling strides, about
log2(N) propagator products for N steps.  Two of them share this scheme:
:func:`affine_flow`, on NumPy arrays of any dimension, serves in-process
callers (:func:`integrate` and the Static chart flow), whose short runs it
fills fastest; :func:`planar_flow`, on Python floats, fills the columns
``kinorbit simulate`` prints (:func:`trajectory_rows`), so the command
never loads NumPy.  Both equal stage-by-stage RK4 (the reference the tests
keep) up to rounding in the last bits.  The module also provides the two exact coordinate maps that
reproduce such brackets from a commutative phase space: a position shift
by the dual magnetic scalar and a momentum shift by the magnetic scalar.
NumPy is imported only inside the functions that take or return arrays.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import chain, islice
from typing import Sequence

from .algebra_core import Record
from .catalog import CatalogError
from .rational_linalg import RatMatrix, _matrix, checked_float, rat, rat_inv
from .timegrid import (
    MAX_STEPS, ROW_BLOCK, IntegrationError, first_non_finite, grid_times, step_count,
)

__all__ = [
    "MAX_STEPS",
    "IntegrationError",
    "QuadraticHamiltonian",
    "NCPhaseSpace2D",
    "HamiltonianSpec",
    "NCTrajectory",
    "MinimalCouplingResult",
    "CANONICAL_BRACKET_MATRIX",
    "linear_system",
    "affine_flow",
    "planar_flow",
    "step_count",
    "integrate",
    "trajectory_rows",
    "bracket_pushforward",
    "minimal_coupling_galilei",
    "minimal_coupling_paragalilei",
]


def _check_coefficients(name: str, values) -> None:
    """CatalogError naming ``name`` unless each value is a finite int, Fraction or float."""
    for x in values:
        if not (math.isfinite(x) if isinstance(x, float) else isinstance(x, (int, Fraction))):
            raise CatalogError(f"{name} entries must be finite int, Fraction or float, got {x!r}")


class QuadraticHamiltonian(Record):
    """H(z) = z'Qz/2 + g.z + c over a chart's canonical coordinates z: the
    symmetric n x n ``hessian`` Q, the n-vector ``gradient`` g and the
    ``constant`` c, finite ``int``, ``Fraction`` or ``float`` values kept as
    given (:class:`CatalogError` otherwise).  Only :meth:`system` and
    :meth:`value` read H."""

    _fields = ("hessian", "gradient", "constant")
    __slots__ = (*_fields, "_floats")

    def __init__(self, hessian, gradient, constant=0) -> None:
        hessian, gradient = tuple(map(tuple, hessian)), tuple(gradient)
        n = len(gradient)
        if tuple(map(len, hessian)) != (n,) * n or tuple(zip(*hessian)) != hessian:
            raise CatalogError(f"the hessian must be a symmetric {n} x {n} matrix")
        _check_coefficients("hamiltonian", chain(gradient, *hessian, (constant,)))
        self._init(hessian, gradient, constant, None)

    def _float_form(self) -> tuple:
        """M = [[Q, g], [g', 2c]], so that H = (z, 1)' M (z, 1)/2, as floats
        converted on first use: each row of [Q | g] as the (column, entry)
        pairs of its nonzero entries, and the terms (i, j, w) that
        :meth:`value` adds, one per nonzero M_ij with i <= j."""
        if self._floats is None:
            n, c = len(self.gradient), self.constant
            rows = [[(j, float(x)) for j, x in enumerate((*row, g)) if x]
                    for row, g in zip(self.hessian, self.gradient)]
            terms = [(i, j, x / 2.0 if i == j else x) for i, row in enumerate(rows)
                     for j, x in row if j >= i] + ([(n, n, float(c))] if c else [])
            object.__setattr__(self, "_floats", (rows, terms))
        return self._floats

    def system(self, theta) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """A = theta Q and b = theta g of the flow dz/dt = theta grad H = A z + b
        under the n x n bracket matrix ``theta``, as tuples of floats: each
        entry is the sum of its nonzero float products, added left to right."""
        n = len(self.gradient)
        if tuple(map(len, theta)) != (n,) * n:
            raise ValueError(f"theta must be {n} x {n}, the size of the hessian")
        rows = self._float_form()[0]  # Q is symmetric: rows of [Q | g] are its columns
        A, b = [], []
        for theta_row in theta:
            entries = [0.0] * (n + 1)
            for t, row in zip(map(float, theta_row), rows):
                if t:
                    for j, x in row:
                        entries[j] += t * x
            b.append(entries.pop())
            A.append(tuple(entries))
        return tuple(A), tuple(b)

    def value(self, z):
        """H at ``z``, n floats or n NumPy columns (H at each of their states),
        by the same float operations in the same order: with z_n = 1, from 0
        add (w z_i) z_j for each term of :meth:`_float_form` in turn."""
        z, h = (*z, 1.0), 0.0
        for i, j, w in self._float_form()[1]:
            h = h + w * z[i] * z[j]
        return h


def _bracket_rows(G, F, zero, one) -> tuple:
    """The bracket matrix of (q1, q2, p1, p2), in the type of ``zero`` and ``one``."""
    return ((zero, G, one, zero), (-G, zero, zero, one),
            (-one, zero, zero, F), (zero, -one, -F, zero))


class NCPhaseSpace2D(Record):
    """A planar phase space with bracket scalars G (positions) and F (momenta)."""

    __slots__ = _fields = ("G_field", "F_field", "mass")

    def __init__(self, G_field: Fraction, F_field: Fraction, mass: Fraction) -> None:
        self._init(rat(G_field), rat(F_field), rat(mass))
        if self.mass <= 0:
            raise CatalogError(f"mass must be positive, got {self.mass}")
        if self.symplectic_factor == 0:
            raise ValueError(
                "1 - G*F vanishes: the bracket matrix is degenerate and the "
                "dynamics is not symplectic"
            )

    @property
    def symplectic_factor(self) -> Fraction:
        return 1 - self.G_field * self.F_field

    def theta_matrix(self) -> RatMatrix:
        """Bracket matrix of (q1, q2, p1, p2) driving the dynamics."""
        return _matrix(_bracket_rows(self.G_field, self.F_field, Fraction(0), Fraction(1)))

    def omega_matrix(self) -> RatMatrix:
        """Exact inverse of :meth:`theta_matrix`."""
        return rat_inv(self.theta_matrix())


class HamiltonianSpec(Record):
    """Potential data for H = p^2/(2m) + a.q + q'Kq/2.

    ``linear`` holds (a1, a2); ``quadratic`` holds the symmetric matrix
    entries (k11, k12, k22).  Each entry is a finite ``int``, ``Fraction``
    or ``float`` value (:class:`CatalogError` otherwise).
    """

    __slots__ = _fields = ("linear", "quadratic")

    def __init__(
        self,
        linear: tuple[float, float] = (0.0, 0.0),
        quadratic: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> None:
        linear, quadratic = tuple(linear), tuple(quadratic)
        if (len(linear), len(quadratic)) != (2, 3):
            raise CatalogError(f"expected (a1, a2) and (k11, k12, k22), got {linear}, {quadratic}")
        _check_coefficients("HamiltonianSpec", chain(linear, quadratic))
        self._init(linear, quadratic)

    def hamiltonian(self, space: NCPhaseSpace2D) -> QuadraticHamiltonian:
        """This H on ``space``, over (q1, q2, p1, p2): Q = diag(K, 1/m, 1/m)
        and g = (a1, a2, 0, 0)."""
        (a1, a2), (k11, k12, k22) = self.linear, self.quadratic
        inv_m = 1 / space.mass
        return QuadraticHamiltonian(
            ((k11, k12, 0, 0), (k12, k22, 0, 0), (0, 0, inv_m, 0), (0, 0, 0, inv_m)),
            (a1, a2, 0, 0),
        )


def _planar(space: NCPhaseSpace2D, ham: HamiltonianSpec):
    """``ham`` on ``space`` and its :meth:`~QuadraticHamiltonian.system`, over
    the bracket matrix of the floats of G and F; a G, F or 1/mass that no
    float holds raises :class:`OverflowError` naming it."""
    hamiltonian = ham.hamiltonian(space)
    # G, F and the 1/m of Q = diag(K, 1/m, 1/m)
    exact = (space.G_field, space.F_field, hamiltonian.hessian[2][2])
    G, F, _ = map(checked_float, exact, ("G", "F", "1/mass"))
    return hamiltonian, hamiltonian.system(_bracket_rows(G, F, 0.0, 1.0))


def linear_system(
    space: NCPhaseSpace2D, ham: HamiltonianSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The affine form dz/dt = A z + b of the equations of motion, as arrays:
    :meth:`QuadraticHamiltonian.system` of ``ham`` on ``space``."""
    import numpy as np

    A, b = _planar(space, ham)[1]
    return np.array(A), np.array(b)


class NCTrajectory(Record):
    """An integrated trajectory with per-sample energy and its drift."""

    __slots__ = _fields = ("times", "states", "energies", "invariant_drift")

    def __init__(
        self,
        times: np.ndarray,
        states: np.ndarray,
        energies: np.ndarray,
        invariant_drift: np.ndarray,
    ) -> None:
        self._init(times, states, energies, invariant_drift)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _aborted(what: str, step: int, t: float) -> IntegrationError:
    """The error of an integration whose ``what`` is not finite at ``step``."""
    return IntegrationError(
        f"integration aborted: non-finite {what} at step {step} (t = {t:.6g})", step
    )


def affine_flow(
    A: np.ndarray,
    b: np.ndarray,
    state0: Sequence[float],
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 for dz/dt = A z + b from 0 to ``t_end``; returns (times, states).

    The grid has :func:`step_count` steps and lands exactly on ``t_end``;
    its times equal :func:`~kinorbit.timegrid.grid_times`.
    One step is RK4's exact propagator z -> R z + c, where R = R(hA) and
    c = h S(hA) b; the dimension is that of ``b``.  On rows (z, 1), k steps
    add the increment P_k (z, 1), P_k = [[R^k - 1, c_k], [0, 0]], and
    P_2k = 2 P_k + P_k P_k, so the table fills in doubling strides; a P_2k
    that is not finite is not adopted, and the stride stops growing.  A
    non-finite state, including one from a propagator that overflows,
    raises :class:`IntegrationError` carrying the first step that produced
    it.
    """
    import numpy as np

    n_steps = step_count(t_end, dt)
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    n = b.size
    states = np.empty((n_steps + 1, n + 1))
    states[0] = [*state0, 1.0]
    P = np.zeros((n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        X = h * A
        X2 = X @ X
        X3 = X2 @ X
        # R - 1 and c are small; adding the increment to z, as RK4 itself
        # does, keeps the rounding of the 1 out of every row
        P[:n, :n] = X + X2 / 2.0 + X3 / 6.0 + X3 @ X / 24.0
        P[:n, n] = h * ((np.eye(n) + X / 2.0 + X2 / 6.0 + X3 / 24.0) @ b)
        done, k = 1, 1
        while done <= n_steps:
            if done == 2 * k:  # every earlier P_2k was adopted
                doubled = P + P + P @ P
                # an infinite P_2k would turn an unexcited mode (0 * inf) to nan
                if np.isfinite(doubled).all():
                    P, k = doubled, done
            # rows [done - k, done) advance k steps, as far as the table goes
            base = states[done - k : min(done, n_steps + 1 - k)]
            rows = states[done : done + len(base)] = base + base @ P.T
            done += len(base)
            # a stride that stopped growing meets a blow-up row by row; a
            # non-finite row makes every later one non-finite
            if done > 2 * k and not np.isfinite(rows).all():
                break
    states = states[:done, :n]
    finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise _aborted("state", step, times[step])
    return times, states


def integrate(
    space: NCPhaseSpace2D,
    ham: HamiltonianSpec,
    state0: Sequence[float],
    t_end: float,
    dt: float,
) -> NCTrajectory:
    """Integrate the modified Hamilton equations with fixed-step RK4.

    The states are :func:`affine_flow` of the affine system
    :func:`linear_system`; the energies are
    :meth:`QuadraticHamiltonian.value` on the table's columns.
    An energy or energy drift that is not finite, though the state is,
    raises :class:`IntegrationError` carrying the first such step (0 for
    the initial state).
    """
    import numpy as np

    if len(state0) != 4:
        raise ValueError("state must be (q1, q2, p1, p2)")
    hamiltonian, (A, b) = _planar(space, ham)
    with np.errstate(over="ignore", invalid="ignore"):
        # an A that overflows makes step 1 non-finite, which affine_flow reports
        times, states = affine_flow(np.array(A), np.array(b), state0, t_end, dt)
        energies = hamiltonian.value(states.T)
        drift = energies - energies[0]
    # a non-finite energy makes its drift non-finite; so can two finite
    # energies of opposite sign near the float limit
    finite = np.isfinite(drift)
    if not finite.all():
        step = int(np.argmin(finite))
        raise _aborted("energy or drift", step, times[step])
    return NCTrajectory(
        times=times,
        states=states,
        energies=energies,
        invariant_drift=drift,
    )


def _dot(u, v) -> float:
    """u . v of two 4-vectors, summed left to right.

    Not builtin ``sum()``: from Python 3.12 it compensates float sums, and
    the rows must not depend on the Python version.
    """
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def _product(X, Y) -> list[list[float]]:
    """The 4 x 4 matrix product X Y."""
    return [[_dot(row, column) for column in zip(*Y)] for row in X]


def planar_flow(A, b, state0: Sequence[float], t_end: float, dt: float) -> list[array]:
    """:func:`affine_flow` of a planar system (4 x 4 ``A``) on Python floats.

    Returns the state table as four ``array('d')`` columns (q1, q2, p1,
    p2), one entry per grid time.  The grid, the propagator R - 1 and c,
    the doubling P_2k = 2 P_k + P_k P_k, the refusal of a P_2k that is not
    finite and the :class:`IntegrationError` at the first non-finite step
    are those of :func:`affine_flow`; its products are summed left to
    right instead of by BLAS, so the rows differ from it in the last bits
    and do not depend on the BLAS build.  Rows are formed
    :data:`~kinorbit.timegrid.ROW_BLOCK` at a time.
    """
    n_steps = step_count(t_end, dt)
    h = t_end / n_steps
    X = [[h * float(x) for x in row] for row in A]
    X2 = _product(X, X)
    X3 = _product(X2, X)
    X4 = _product(X3, X)
    # R - 1 and c = h S(hA) b, in affine_flow's order of operations
    M = [
        [x + x2 / 2.0 + x3 / 6.0 + x4 / 24.0 for x, x2, x3, x4 in zip(*rows)]
        for rows in zip(X, X2, X3, X4)
    ]
    S = [
        [float(i == j) + x / 2.0 + x2 / 6.0 + x3 / 24.0 for j, (x, x2, x3) in enumerate(zip(*rows))]
        for i, rows in enumerate(zip(X, X2, X3))
    ]
    b = [float(v) for v in b]
    c = [h * _dot(row, b) for row in S]
    states = [array("d", [float(v)]) for v in state0]
    done, k = 1, 1
    while done <= n_steps:
        if done == 2 * k:  # every earlier P_2k was adopted
            doubled = [[x + x + y for x, y in zip(*rows)] for rows in zip(M, _product(M, M))]
            c_doubled = [x + x + _dot(row, c) for x, row in zip(c, M)]
            if all(map(math.isfinite, chain(*doubled, c_doubled))):
                M, c, k = doubled, c_doubled, done
        (m00, m01, m02, m03), (m10, m11, m12, m13) = M[:2]
        (m20, m21, m22, m23), (m30, m31, m32, m33) = M[2:]
        c0, c1, c2, c3 = c
        # rows [done - k, stop) advance k steps: z + ((R^k - 1) z + c_k)
        stop = min(done, n_steps + 1 - k)
        for start in range(done - k, stop, ROW_BLOCK):
            base = (column[start : min(start + ROW_BLOCK, stop)] for column in states)
            rows = [
                (
                    z0 + (z0 * m00 + z1 * m01 + z2 * m02 + z3 * m03 + c0),
                    z1 + (z0 * m10 + z1 * m11 + z2 * m12 + z3 * m13 + c1),
                    z2 + (z0 * m20 + z1 * m21 + z2 * m22 + z3 * m23 + c2),
                    z3 + (z0 * m30 + z1 * m31 + z2 * m32 + z3 * m33 + c3),
                )
                for z0, z1, z2, z3 in zip(*base)
            ]
            for column, values in zip(states, zip(*rows)):
                column.extend(values)
        first_new, done = done, stop + k
        # a stride that stopped growing meets a blow-up row by row
        if done > 2 * k and not all(
            map(math.isfinite, chain.from_iterable(col[first_new:] for col in states))
        ):
            break
    bad = [first_non_finite(islice(column, 1, None)) for column in states]
    bad = [index for index in bad if index is not None]
    if bad:
        step = min(bad) + 1
        raise _aborted("state", step, grid_times(t_end, n_steps)[step])
    return states


def trajectory_rows(
    space: NCPhaseSpace2D,
    ham: HamiltonianSpec,
    state0: Sequence[float],
    t_end: float,
    dt: float,
) -> dict[str, array]:
    """:func:`integrate` on Python floats, as the columns ``kinorbit simulate`` prints.

    Returns the ``array('d')`` columns t, q1, q2, p1, p2, H and drift, one
    entry per time of :func:`~kinorbit.timegrid.grid_times`.  The states
    are :func:`planar_flow` of the affine system, so they equal
    :func:`integrate`'s up to rounding in the last bits; the energies are
    :meth:`QuadraticHamiltonian.value` of each state, so they equal
    :func:`integrate`'s on the same states bit for bit.  An energy or
    energy drift that is not finite raises :class:`IntegrationError`
    carrying the first such step, as in :func:`integrate`.
    """
    if len(state0) != 4:
        raise ValueError("state must be (q1, q2, p1, p2)")
    hamiltonian, system = _planar(space, ham)
    states = planar_flow(*system, state0, t_end, dt)
    energies = array("d", map(hamiltonian.value, zip(*states)))
    drift = array("d", map(energies[0].__rsub__, energies))  # each h - h[0]
    times = grid_times(t_end, len(energies) - 1)
    # a non-finite energy makes its drift non-finite; so can two finite
    # energies of opposite sign near the float limit
    step = first_non_finite(drift)
    if step is not None:
        raise _aborted("energy or drift", step, times[step])
    q1, q2, p1, p2 = states
    return {"t": times, "q1": q1, "q2": q2, "p1": p1, "p2": p2, "H": energies, "drift": drift}


# Bracket matrix of commutative coordinates (q1, q2, p1, p2): {p_i, q^j} = +delta.
CANONICAL_BRACKET_MATRIX = RatMatrix(
    [
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
)


def bracket_pushforward(jacobian, theta=None) -> RatMatrix:
    """Exact bracket matrix of mapped coordinates z' = J z."""
    J = RatMatrix(jacobian)
    base = CANONICAL_BRACKET_MATRIX if theta is None else RatMatrix(theta)
    return J @ base @ J.T


class MinimalCouplingResult(Record):
    """A coordinate map on phase space and the exact brackets it induces."""

    __slots__ = _fields = ("state", "jacobian", "bracket_matrix")

    def __init__(
        self,
        state: tuple[Fraction, Fraction, Fraction, Fraction],
        jacobian: RatMatrix,
        bracket_matrix: RatMatrix,
    ) -> None:
        self._init(state, jacobian, bracket_matrix)

    @property
    def position_bracket(self) -> Fraction:
        return self.bracket_matrix[0, 1]

    @property
    def momentum_bracket(self) -> Fraction:
        return self.bracket_matrix[2, 3]

    @property
    def cross_bracket(self) -> Fraction:
        return self.bracket_matrix[2, 0]


def _coordinate_map(state, jacobian) -> MinimalCouplingResult:
    """The exact linear map z' = J z of ``state`` and the brackets it induces."""
    J = RatMatrix(jacobian)
    return MinimalCouplingResult(
        state=J @ state,
        jacobian=J,
        bracket_matrix=bracket_pushforward(J),
    )


def minimal_coupling_galilei(state, m, omega0) -> MinimalCouplingResult:
    """Position shift x = q + eps.p/(2 m omega0) sourcing {x1, x2}.

    Starting from commutative (q, p), the shifted positions obey
    {x1, x2} = -1/(m omega0) while {p_i, x^j} = +delta stays canonical:
    the position-noncommutative phase space realized by a coordinate map.
    """
    m, omega0 = rat(m), rat(omega0)
    if m == 0 or omega0 == 0:
        raise ValueError("minimal coupling requires nonzero m and omega0")
    s = 1 / (2 * m * omega0)
    return _coordinate_map(
        state, [[1, 0, 0, -s], [0, 1, s, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def minimal_coupling_paragalilei(state, m, omega, omega0) -> MinimalCouplingResult:
    """Momentum shift pi = p + (m omega^2/2 omega0) eps.q sourcing {pi1, pi2}.

    The shifted momenta obey {pi1, pi2} = -m omega^2/omega0 while
    {pi_i, x^j} = +delta stays canonical: the momentum-noncommutative
    phase space realized by a coordinate map.
    """
    m, omega, omega0 = rat(m), rat(omega), rat(omega0)
    if m == 0 or omega0 == 0:
        raise ValueError("minimal coupling requires nonzero m and omega0")
    b = m * omega**2 / (2 * omega0)
    return _coordinate_map(
        state, [[1, 0, 0, 0], [0, 1, 0, 0], [0, b, 1, 0], [-b, 0, 0, 1]]
    )
