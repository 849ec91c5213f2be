"""Planar mechanics on noncommutative phase spaces.

A phase space is described by two scalars: ``G`` (position-position
bracket) and ``F`` (momentum-momentum bracket).  The equations of motion
they induce for a Hamiltonian H = p^2/2m + V(q) are

    dq^i/dt = dH/dp_i + G eps^ij dH/dq^j,
    dp_i/dt = -dH/dq^i + F eps_ij dH/dp_j,

which the module integrates with a fixed-step fourth-order Runge-Kutta
scheme.  Every Hamiltonian here has an affine gradient, so the equations
are dz/dt = A z + b, and one classical RK4 step of size h is exactly the
affine map z -> R(hA) z + h S(hA) b with R(x) = 1 + x + x^2/2 + x^3/6 +
x^4/24 (RK4's stability function) and S(x) = 1 + x/2 + x^2/6 + x^3/24.
:func:`affine_flow`, the one integrator, forms that propagator once and
fills the state table in doubling strides, about log2(N) matrix products
for N steps; it serves these equations (:func:`integrate`) and the Static
chart flow alike.  Its result equals stage-by-stage RK4 (the reference the
tests keep) up to rounding in the last bits.  The module also provides the
two exact coordinate maps that reproduce such brackets from a commutative
phase space: a position shift by the dual magnetic scalar and a momentum
shift by the magnetic scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .catalog import CatalogError
from .rational_linalg import RatMatrix, rat
from .timegrid import MAX_STEPS, IntegrationError, step_count

__all__ = [
    "MAX_STEPS",
    "IntegrationError",
    "NCPhaseSpace2D",
    "HamiltonianSpec",
    "NCTrajectory",
    "MinimalCouplingResult",
    "CANONICAL_BRACKET_MATRIX",
    "hamiltonian_value",
    "linear_system",
    "affine_flow",
    "step_count",
    "integrate",
    "bracket_pushforward",
    "minimal_coupling_galilei",
    "minimal_coupling_paragalilei",
]

@dataclass(frozen=True)
class NCPhaseSpace2D:
    """A planar phase space with bracket scalars G (positions) and F (momenta)."""

    G_field: Fraction
    F_field: Fraction
    mass: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "G_field", rat(self.G_field))
        object.__setattr__(self, "F_field", rat(self.F_field))
        object.__setattr__(self, "mass", rat(self.mass))
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
        G, F = self.G_field, self.F_field
        z = Fraction(0)
        one = Fraction(1)
        return RatMatrix(
            [
                [z, G, one, z],
                [-G, z, z, one],
                [-one, z, z, F],
                [z, -one, -F, z],
            ]
        )

    def omega_matrix(self) -> RatMatrix:
        """Exact inverse of :meth:`theta_matrix` (closed form)."""
        G, F = self.G_field, self.F_field
        s = 1 / self.symplectic_factor
        z = Fraction(0)
        return RatMatrix(
            [
                [z, F * s, -s, z],
                [-F * s, z, z, -s],
                [s, z, z, G * s],
                [z, s, -G * s, z],
            ]
        )


@dataclass(frozen=True)
class HamiltonianSpec:
    """Potential data for H = p^2/(2m) + a.q + q'Kq/2.

    ``linear`` holds (a1, a2); ``quadratic`` holds the symmetric matrix
    entries (k11, k12, k22).
    """

    linear: tuple[float, float] = (0.0, 0.0)
    quadratic: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def potential(self, q: np.ndarray):
        """V(q) for q = (q1, q2); each entry may be a scalar or an array.

        Squares are products: NumPy's scalar ``**`` calls the C library's
        pow, which can round differently from the array square.
        """
        a1, a2 = self.linear
        k11, k12, k22 = self.quadratic
        return (
            a1 * q[0]
            + a2 * q[1]
            + (k11 * q[0] * q[0] + 2 * k12 * q[0] * q[1] + k22 * q[1] * q[1]) / 2.0
        )


def hamiltonian_value(space: NCPhaseSpace2D, ham: HamiltonianSpec, state):
    """H at one state (q1, q2, p1, p2), or at each row of an (n, 4) array."""
    z = np.asarray(state, dtype=float).T
    m = float(space.mass)
    return (z[2] * z[2] + z[3] * z[3]) / (2.0 * m) + ham.potential(z[:2])


def linear_system(
    space: NCPhaseSpace2D, ham: HamiltonianSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The affine form dz/dt = A z + b of the equations of motion.

    Valid exactly because the Hamiltonian gradient is affine in the state;
    :func:`affine_flow` builds its one-step propagator from it.
    """
    # the float form of theta_matrix(), built without its Fraction array
    G, F = float(space.G_field), float(space.F_field)
    theta = np.array([[0, G, 1, 0], [-G, 0, 0, 1], [-1, 0, 0, F], [0, -1, -F, 0]], float)
    k11, k12, k22 = (float(v) for v in ham.quadratic)
    a1, a2 = (float(v) for v in ham.linear)
    inv_m = float(1 / space.mass)
    hessian = np.array(
        [
            [k11, k12, 0.0, 0.0],
            [k12, k22, 0.0, 0.0],
            [0.0, 0.0, inv_m, 0.0],
            [0.0, 0.0, 0.0, inv_m],
        ]
    )
    constant = np.array([a1, a2, 0.0, 0.0])
    return theta @ hessian, theta @ constant


@dataclass(frozen=True)
class NCTrajectory:
    """An integrated trajectory with per-sample energy and its drift."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    invariant_drift: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def affine_flow(
    A: np.ndarray,
    b: np.ndarray,
    state0: Sequence[float],
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 for dz/dt = A z + b from 0 to ``t_end``; returns (times, states).

    The grid has :func:`step_count` steps and lands exactly on ``t_end``.
    One step is RK4's exact propagator z -> R z + c, where R = R(hA) and
    c = h S(hA) b; the dimension is that of ``b``.  On rows (z, 1), k steps
    add the increment P_k (z, 1), P_k = [[R^k - 1, c_k], [0, 0]], and
    P_2k = 2 P_k + P_k P_k, so the table fills in doubling strides; a P_2k
    that is not finite is not adopted, and the stride stops growing.  A
    non-finite state, including one from a propagator that overflows,
    raises :class:`IntegrationError` carrying the first step that produced
    it.
    """
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
        raise IntegrationError(
            f"integration aborted: non-finite state at step {step} "
            f"(t = {times[step]:.6g})",
            step,
        )
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
    :func:`linear_system`; the energies are evaluated on the whole table.
    An energy or energy drift that is not finite, though the state is,
    raises :class:`IntegrationError` carrying the first such step (0 for
    the initial state).
    """
    if len(state0) != 4:
        raise ValueError("state must be (q1, q2, p1, p2)")
    with np.errstate(over="ignore", invalid="ignore"):
        # an A that overflows makes step 1 non-finite, which affine_flow reports
        times, states = affine_flow(*linear_system(space, ham), state0, t_end, dt)
        energies = hamiltonian_value(space, ham, states)
        drift = energies - energies[0]
    # a non-finite energy makes its drift non-finite; so can two finite
    # energies of opposite sign near the float limit
    finite = np.isfinite(drift)
    if not finite.all():
        step = int(np.argmin(finite))
        raise IntegrationError(
            f"integration aborted: non-finite energy or drift at step {step} "
            f"(t = {times[step]:.6g})",
            step,
        )
    return NCTrajectory(
        times=times,
        states=states,
        energies=energies,
        invariant_drift=drift,
    )


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


@dataclass(frozen=True)
class MinimalCouplingResult:
    """A coordinate map on phase space and the exact brackets it induces."""

    state: tuple[Fraction, Fraction, Fraction, Fraction]
    jacobian: RatMatrix
    bracket_matrix: RatMatrix

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
