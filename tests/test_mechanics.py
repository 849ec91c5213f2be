from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import reference_forms as rf
from kinorbit.mechanics import (
    CANONICAL_BRACKET_MATRIX,
    MAX_STEPS,
    HamiltonianSpec,
    IntegrationError,
    NCPhaseSpace2D,
    affine_flow,
    bracket_pushforward,
    hamilton_rhs,
    hamiltonian_value,
    integrate,
    linear_system,
    minimal_coupling_galilei,
    minimal_coupling_paragalilei,
    rk4_step,
    step_count,
)
from kinorbit.rational_linalg import reye, to_float


def _exact_equal(a, b) -> bool:
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and bool((a == b).all())


def _stagewise_rk4(space, ham, state0, t_end, dt):
    """rk4_step on hamilton_rhs over affine_flow's grid: (times, states).

    The stage-by-stage reference; a non-finite state raises
    IntegrationError carrying the first step that produced it.
    """
    n_steps = step_count(t_end, dt)
    h = t_end / n_steps
    times = np.linspace(0.0, t_end, n_steps + 1)
    states = [np.asarray(state0, dtype=float)]
    for i in range(n_steps):
        z = rk4_step(lambda _t, z: hamilton_rhs(space, ham, z), times[i], states[i], h)
        if not np.isfinite(z).all():
            raise IntegrationError(f"non-finite state at step {i + 1}", i + 1)
        states.append(z)
    return times, np.array(states)


def test_theta_and_omega_are_exact_inverses() -> None:
    rng = random.Random(707)
    for _ in range(20):
        G = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        F = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        if 1 - G * F == 0:
            continue
        space = NCPhaseSpace2D(G_field=G, F_field=F, mass=Fraction(2))
        theta = space.theta_matrix()
        omega = space.omega_matrix()
        assert _exact_equal(theta @ omega, reye(4))
        assert _exact_equal(theta, -theta.T)
        assert theta[0, 1] == G
        assert theta[2, 3] == F
        assert theta[0, 2] == 1


def test_phase_space_validation() -> None:
    with pytest.raises(ValueError):
        NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(0))
    with pytest.raises(ValueError):
        NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(-1))
    with pytest.raises(ValueError):
        NCPhaseSpace2D(G_field=Fraction(1, 2), F_field=Fraction(2), mass=Fraction(1))


def test_rhs_equals_theta_times_gradient() -> None:
    rng = random.Random(808)
    space = NCPhaseSpace2D(
        G_field=Fraction(-1, 4), F_field=Fraction(1, 3), mass=Fraction(2)
    )
    ham = HamiltonianSpec(linear=(0.5, -1.0), quadratic=(2.0, 0.25, 1.0))
    theta = to_float(space.theta_matrix())
    for _ in range(20):
        state = np.array([rng.uniform(-3, 3) for _ in range(4)])
        gq = ham.potential_gradient(state[:2])
        grad = np.array([gq[0], gq[1], state[2] / 2.0, state[3] / 2.0])
        assert np.allclose(hamilton_rhs(space, ham, state), theta @ grad, atol=1e-14)


def test_anomalous_velocity_from_position_noncommutativity() -> None:
    # G couples the force into the velocity: a pure force along q1
    # drags the particle sideways along q2 when G != 0.
    space = NCPhaseSpace2D(G_field=Fraction(-1), F_field=Fraction(0), mass=Fraction(1))
    ham = HamiltonianSpec(linear=(1.0, 0.0))
    rhs = hamilton_rhs(space, ham, np.zeros(4))
    assert rhs[0] == pytest.approx(0.0)
    assert rhs[1] == pytest.approx(1.0)  # = -G * dV/dq1
    assert rhs[2] == pytest.approx(-1.0)
    assert rhs[3] == pytest.approx(0.0)


def test_lorentz_like_force_from_momentum_noncommutativity() -> None:
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(2), mass=Fraction(1))
    ham = HamiltonianSpec()
    state = np.array([0.0, 0.0, 3.0, -1.0])
    rhs = hamilton_rhs(space, ham, state)
    # pdot = F * (p2/m, -p1/m)
    assert rhs[2] == pytest.approx(-2.0)
    assert rhs[3] == pytest.approx(-6.0)


def test_rk4_matches_harmonic_oscillator() -> None:
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    ham = HamiltonianSpec(quadratic=(1.0, 0.0, 1.0))
    traj = integrate(space, ham, [1.0, 0.0, 0.0, 0.0], t_end=2 * math.pi, dt=1e-3)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2 * math.pi)
    for t, state in zip(traj.times[::500], traj.states[::500]):
        assert state[0] == pytest.approx(math.cos(t), abs=1e-9)
        assert state[2] == pytest.approx(-math.sin(t), abs=1e-9)
    assert np.max(np.abs(traj.invariant_drift)) < 1e-12
    assert traj.final_state[0] == pytest.approx(1.0, abs=1e-9)


def test_energy_is_recorded_and_conserved() -> None:
    space = NCPhaseSpace2D(
        G_field=Fraction(-1, 4), F_field=Fraction(-1), mass=Fraction(2)
    )
    ham = HamiltonianSpec(linear=(0.3, -0.2), quadratic=(1.0, 0.1, 0.5))
    state0 = [0.2, -0.4, 1.0, 0.5]
    traj = integrate(space, ham, state0, t_end=10.0, dt=1e-3)
    assert traj.energies[0] == pytest.approx(hamiltonian_value(space, ham, state0))
    assert np.max(np.abs(traj.invariant_drift)) < 1e-9
    assert len(traj.times) == len(traj.states) == len(traj.energies)


def test_rk4_step_fourth_order() -> None:
    # a scalar flow with known solution: z' = z  ->  e^t
    rhs = lambda t, z: z
    z = np.array([1.0])
    z1 = rk4_step(rhs, 0.0, z, 0.1)
    assert z1[0] == pytest.approx(math.exp(0.1), abs=1e-6)
    errors = []
    for dt in (0.1, 0.05):
        approx = rk4_step(rhs, 0.0, z, dt)[0]
        errors.append(abs(approx - math.exp(dt)))
    # halving the step shrinks the local error by about 2^5
    assert errors[1] < errors[0] / 20


def test_affine_flow_grid_and_failure() -> None:
    times, states = affine_flow(
        np.array([[-1.0]]), np.array([0.0]), [2.0], t_end=1.0, dt=0.25
    )
    assert len(times) == 5
    assert times[-1] == pytest.approx(1.0)
    assert states[-1][0] == pytest.approx(2.0 * math.exp(-1.0), abs=1e-4)

    with pytest.raises(IntegrationError) as err:
        affine_flow(np.array([[0.0]]), np.array([math.inf]), [1.0], t_end=1.0, dt=0.5)
    assert err.value.step == 1


def test_integrate_matches_stagewise_rk4() -> None:
    # integrate applies RK4 as its one-step propagator; rk4_step on
    # hamilton_rhs is the stage-by-stage reference it must reproduce.
    rng = random.Random(1001)
    for G, F in ((Fraction(0), Fraction(0)), (Fraction(-1, 4), Fraction(1, 3)),
                 (Fraction(2, 3), Fraction(-3, 2))):
        space = NCPhaseSpace2D(G_field=G, F_field=F, mass=Fraction(3, 2))
        ham = HamiltonianSpec(
            linear=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            quadratic=(rng.uniform(0.5, 3), rng.uniform(-0.4, 0.4), rng.uniform(0.5, 3)),
        )
        state0 = [rng.uniform(-1, 1) for _ in range(4)]
        traj = integrate(space, ham, state0, t_end=10.0, dt=0.01)
        times, states = _stagewise_rk4(space, ham, state0, t_end=10.0, dt=0.01)
        assert traj.states.shape == (1001, 4)
        assert np.array_equal(traj.times, times)
        scale = np.max(np.abs(states), axis=0)
        assert np.all(np.abs(traj.states - states) <= 1e-12 * scale)
        # energies are evaluated on the whole table, with the per-state formula
        per_state = [hamiltonian_value(space, ham, z) for z in traj.states]
        assert np.array_equal(traj.energies, per_state)


def test_integrate_fails_at_the_same_step_as_stagewise_rk4() -> None:
    # a steep repulsive potential grows the state by ~1e40 per step, far
    # more than the gap between the two schemes' intermediate values
    space = NCPhaseSpace2D(G_field=Fraction(-1, 4), F_field=Fraction(1, 3), mass=Fraction(1))
    ham = HamiltonianSpec(linear=(0.5, -1.0), quadratic=(-1e12, 0.3, -1e12))
    state0 = [1.0, -0.5, 0.2, 0.1]
    with pytest.raises(IntegrationError) as fast:
        integrate(space, ham, state0, t_end=10.0, dt=0.1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as ref:
        _stagewise_rk4(space, ham, state0, t_end=10.0, dt=0.1)
    assert fast.value.step == ref.value.step == 8
    assert "step 8" in str(fast.value)


def test_an_overflowing_propagator_fails_at_step_one() -> None:
    # h*A overflows, so R - 1 and c are not finite and neither is step 1
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    ham = HamiltonianSpec(quadratic=(1e300, 0.0, 1e300))
    with pytest.raises(IntegrationError) as err:
        integrate(space, ham, [1e10, 0.0, 0.0, 0.0], t_end=1e300, dt=1e295)
    assert err.value.step == 1


def test_step_count_rejects_bad_grids_before_allocating() -> None:
    assert step_count(1.0, 0.25) == 4
    assert step_count(0.1, 1.0) == 1
    for t_end, dt in ((math.inf, 0.1), (1.0, math.nan), (math.nan, 0.1),
                      (0.0, 0.1), (1.0, -0.1), (1e300, 1e-300),
                      (float(MAX_STEPS) + 1.0, 1.0)):
        with pytest.raises(ValueError):
            step_count(t_end, dt)
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    with pytest.raises(ValueError, match="step budget"):
        integrate(space, HamiltonianSpec(), [0.0] * 4, t_end=10.0 * MAX_STEPS, dt=1.0)


def test_linear_system_matches_rhs() -> None:
    rng = random.Random(909)
    space = NCPhaseSpace2D(
        G_field=Fraction(1, 5), F_field=Fraction(-2, 3), mass=Fraction(3, 2)
    )
    ham = HamiltonianSpec(linear=(0.7, -0.1), quadratic=(1.5, -0.4, 0.9))
    A, b = linear_system(space, ham)
    for _ in range(10):
        state = np.array([rng.uniform(-2, 2) for _ in range(4)])
        assert np.allclose(hamilton_rhs(space, ham, state), A @ state + b, atol=1e-12)


def test_bracket_pushforward_identity_and_custom_theta() -> None:
    jac = reye(4)
    assert _exact_equal(bracket_pushforward(jac), CANONICAL_BRACKET_MATRIX)
    space = NCPhaseSpace2D(G_field=Fraction(1, 2), F_field=Fraction(0), mass=Fraction(1))
    assert _exact_equal(
        bracket_pushforward(jac, space.theta_matrix()), space.theta_matrix()
    )


def test_canonical_bracket_matrix_convention() -> None:
    # {q_i, p_j} = -delta, {p_i, q_j} = +delta, all else zero
    T = CANONICAL_BRACKET_MATRIX
    assert T[0, 2] == -1 and T[1, 3] == -1
    assert T[2, 0] == 1 and T[3, 1] == 1
    assert T[0, 1] == 0 and T[2, 3] == 0
    assert _exact_equal(T, -T.T)


def test_minimal_coupling_galilei_sample() -> None:
    res = minimal_coupling_galilei((0, 0, 2, 0), m=1, omega0=1)
    assert res.state == (Fraction(0), Fraction(1), Fraction(2), Fraction(0))
    assert _exact_equal(res.bracket_matrix, rf.coupled_position_brackets(1, 1))
    assert res.position_bracket == Fraction(-1)
    assert res.momentum_bracket == 0
    assert res.cross_bracket == 1


def test_minimal_coupling_galilei_random_parameters() -> None:
    rng = random.Random(111)
    for _ in range(10):
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        state = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        res = minimal_coupling_galilei(state, m=m, omega0=w0)
        assert _exact_equal(res.bracket_matrix, rf.coupled_position_brackets(m, w0))
        s = 1 / (2 * m * w0)
        assert res.state[0] == state[0] - s * state[3]
        assert res.state[1] == state[1] + s * state[2]
        assert res.state[2:] == state[2:]


def test_minimal_coupling_paragalilei_sample() -> None:
    res = minimal_coupling_paragalilei((0, 2, 0, 0), m=1, omega=1, omega0=1)
    assert res.state == (Fraction(0), Fraction(2), Fraction(1), Fraction(0))
    assert _exact_equal(res.bracket_matrix, rf.coupled_momentum_brackets(1, 1, 1))
    assert res.position_bracket == 0
    assert res.momentum_bracket == Fraction(-1)
    assert res.cross_bracket == 1


def test_minimal_coupling_paragalilei_random_parameters() -> None:
    rng = random.Random(222)
    for _ in range(10):
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        state = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        res = minimal_coupling_paragalilei(state, m=m, omega=w, omega0=w0)
        assert _exact_equal(res.bracket_matrix, rf.coupled_momentum_brackets(m, w, w0))
        b = m * w**2 / (2 * w0)
        assert res.state[2] == state[2] + b * state[1]
        assert res.state[3] == state[3] - b * state[0]
        assert res.state[:2] == state[:2]
