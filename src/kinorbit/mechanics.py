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
applies it as one matrix-vector product per step; it serves these
equations (:func:`integrate`) and the Static chart flow alike.  Its result
equals stage-by-stage RK4 (:func:`rk4_step` on :func:`hamilton_rhs`, kept
as the reference) up to rounding in the last bits.  The module also
provides the two exact coordinate maps that reproduce such brackets from
a commutative phase space: a position shift by the dual magnetic scalar
and a momentum shift by the magnetic scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .rational_linalg import rarray, rat, to_float

__all__ = [
    "MAX_STEPS",
    "IntegrationError",
    "NCPhaseSpace2D",
    "HamiltonianSpec",
    "NCTrajectory",
    "MinimalCouplingResult",
    "CANONICAL_BRACKET_MATRIX",
    "hamiltonian_value",
    "hamilton_rhs",
    "linear_system",
    "rk4_step",
    "affine_flow",
    "step_count",
    "integrate",
    "bracket_pushforward",
    "minimal_coupling_galilei",
    "minimal_coupling_paragalilei",
]

# Largest step count a fixed-step run may take; it bounds the state table
# (and the CLI's output rows) before anything is allocated.
MAX_STEPS = 1_000_000


class IntegrationError(RuntimeError):
    """Raised when an integration produces a non-finite state."""

    def __init__(self, message: str, step: int) -> None:
        super().__init__(message)
        self.step = step


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
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.symplectic_factor == 0:
            raise ValueError(
                "1 - G*F vanishes: the bracket matrix is degenerate and the "
                "dynamics is not symplectic"
            )

    @property
    def symplectic_factor(self) -> Fraction:
        return 1 - self.G_field * self.F_field

    def theta_matrix(self) -> np.ndarray:
        """Bracket matrix of (q1, q2, p1, p2) driving the dynamics."""
        G, F = self.G_field, self.F_field
        z = Fraction(0)
        one = Fraction(1)
        return rarray(
            [
                [z, G, one, z],
                [-G, z, z, one],
                [-one, z, z, F],
                [z, -one, -F, z],
            ]
        )

    def omega_matrix(self) -> np.ndarray:
        """Exact inverse of :meth:`theta_matrix` (closed form)."""
        G, F = self.G_field, self.F_field
        s = 1 / self.symplectic_factor
        z = Fraction(0)
        return rarray(
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

    def potential_gradient(self, q: np.ndarray) -> np.ndarray:
        a1, a2 = self.linear
        k11, k12, k22 = self.quadratic
        return np.array(
            [a1 + k11 * q[0] + k12 * q[1], a2 + k12 * q[0] + k22 * q[1]]
        )


def hamiltonian_value(space: NCPhaseSpace2D, ham: HamiltonianSpec, state):
    """H at one state (q1, q2, p1, p2), or at each row of an (n, 4) array."""
    z = np.asarray(state, dtype=float).T
    m = float(space.mass)
    return (z[2] * z[2] + z[3] * z[3]) / (2.0 * m) + ham.potential(z[:2])


def hamilton_rhs(
    space: NCPhaseSpace2D, ham: HamiltonianSpec, state
) -> np.ndarray:
    """Right-hand side of the modified Hamilton equations at ``state``."""
    z = np.asarray(state, dtype=float)
    gq = ham.potential_gradient(z[:2])
    gp = z[2:] / float(space.mass)
    G = float(space.G_field)
    F = float(space.F_field)
    qdot = gp + G * np.array([gq[1], -gq[0]])
    pdot = -gq + F * np.array([gp[1], -gp[0]])
    return np.concatenate([qdot, pdot])


def linear_system(
    space: NCPhaseSpace2D, ham: HamiltonianSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The affine form dz/dt = A z + b of the equations of motion.

    Valid exactly because the Hamiltonian gradient is affine in the state;
    :func:`affine_flow` builds its one-step propagator from it.
    """
    theta = to_float(space.theta_matrix())
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


def step_count(t_end: float, dt: float) -> int:
    """Number of fixed steps on [0, t_end]: ``round(t_end/dt)``, at least one.

    Raises ``ValueError`` unless both values are positive and finite and
    the count stays within :data:`MAX_STEPS`.
    """
    if not (0 < t_end < math.inf and 0 < dt < math.inf):
        raise ValueError(
            f"t_end and dt must be positive and finite, got t_end={t_end!r}, dt={dt!r}"
        )
    ratio = t_end / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(
            f"t_end/dt = {ratio:.6g} exceeds the step budget of {MAX_STEPS} steps"
        )
    return max(1, int(round(ratio)))


def affine_flow(
    A: np.ndarray,
    b: np.ndarray,
    state0: Sequence[float],
    t_end: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 for dz/dt = A z + b from 0 to ``t_end``; returns (times, states).

    The grid has :func:`step_count` steps and lands exactly on ``t_end``.
    Each step applies RK4's exact one-step propagator z -> R z + c, where
    R = R(hA) and c = h S(hA) b; the dimension is that of ``b``.  A
    non-finite state, including one from a propagator that overflows,
    raises :class:`IntegrationError` carrying the first step that produced
    it.
    """
    n_steps = step_count(t_end, dt)
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    states = np.empty((n_steps + 1, b.size))
    z = states[0] = np.asarray(state0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        X = h * A
        X2 = X @ X
        X3 = X2 @ X
        # R - 1 and c are small; adding the increment (R - 1) z + c to z, as
        # RK4 itself does, keeps the rounding of the 1 out of every step.
        R_minus_1 = X + X2 / 2.0 + X3 / 6.0 + X3 @ X / 24.0
        c = h * ((np.eye(b.size) + X / 2.0 + X2 / 6.0 + X3 / 24.0) @ b)
        for i in range(1, n_steps + 1):
            z = states[i] = z + (R_minus_1 @ z + c)
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
    """
    if len(state0) != 4:
        raise ValueError("state must be (q1, q2, p1, p2)")
    times, states = affine_flow(*linear_system(space, ham), state0, t_end, dt)
    energies = hamiltonian_value(space, ham, states)
    return NCTrajectory(
        times=times,
        states=states,
        energies=energies,
        invariant_drift=energies - energies[0],
    )


# Bracket matrix of commutative coordinates (q1, q2, p1, p2): {p_i, q^j} = +delta.
CANONICAL_BRACKET_MATRIX = rarray(
    [
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
)


def bracket_pushforward(jacobian, theta=None) -> np.ndarray:
    """Exact bracket matrix of mapped coordinates z' = J z."""
    J = jacobian if isinstance(jacobian, np.ndarray) else rarray(jacobian)
    base = CANONICAL_BRACKET_MATRIX if theta is None else theta
    return J @ base @ J.T


@dataclass(frozen=True)
class MinimalCouplingResult:
    """A coordinate map on phase space and the exact brackets it induces."""

    state: tuple[Fraction, Fraction, Fraction, Fraction]
    jacobian: np.ndarray
    bracket_matrix: np.ndarray

    @property
    def position_bracket(self) -> Fraction:
        return self.bracket_matrix[0, 1]

    @property
    def momentum_bracket(self) -> Fraction:
        return self.bracket_matrix[2, 3]

    @property
    def cross_bracket(self) -> Fraction:
        return self.bracket_matrix[2, 0]


def minimal_coupling_galilei(state, m, omega0) -> MinimalCouplingResult:
    """Position shift x = q + eps.p/(2 m omega0) sourcing {x1, x2}.

    Starting from commutative (q, p), the shifted positions obey
    {x1, x2} = -1/(m omega0) while {p_i, x^j} = +delta stays canonical:
    the position-noncommutative phase space realized by a coordinate map.
    """
    m, omega0 = rat(m), rat(omega0)
    if m == 0 or omega0 == 0:
        raise ValueError("minimal coupling requires nonzero m and omega0")
    q1, q2, p1, p2 = (rat(v) for v in state)
    s = 1 / (2 * m * omega0)
    x1 = q1 - s * p2
    x2 = q2 + s * p1
    z = Fraction(0)
    one = Fraction(1)
    jac = rarray(
        [
            [one, z, z, -s],
            [z, one, s, z],
            [z, z, one, z],
            [z, z, z, one],
        ]
    )
    return MinimalCouplingResult(
        state=(x1, x2, p1, p2),
        jacobian=jac,
        bracket_matrix=bracket_pushforward(jac),
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
    q1, q2, p1, p2 = (rat(v) for v in state)
    b = m * omega**2 / (2 * omega0)
    pi1 = p1 + b * q2
    pi2 = p2 - b * q1
    z = Fraction(0)
    one = Fraction(1)
    jac = rarray(
        [
            [one, z, z, z],
            [z, one, z, z],
            [z, b, one, z],
            [-b, z, z, one],
        ]
    )
    return MinimalCouplingResult(
        state=(q1, q2, pi1, pi2),
        jacobian=jac,
        bracket_matrix=bracket_pushforward(jac),
    )
