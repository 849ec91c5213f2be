from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_forms as rf
from kinorbit.cli import main
from kinorbit.coadjoint import darboux_map, standard_orbit
from kinorbit.mechanics import (
    CANONICAL_BRACKET_MATRIX,
    HamiltonianSpec,
    NCPhaseSpace2D,
    QuadraticHamiltonian,
    integrate,
    linear_system,
    planar_flow,
    propagator,
    trajectory_rows,
)
from kinorbit.rational_linalg import RatMatrix, congruence
from kinorbit.records import CatalogError
from kinorbit.static_group import (
    StaticConstants,
    StaticGroupElement,
    StaticOrbitState,
    evolution_hamiltonian,
    static_symplectic,
    time_evolution,
)
from kinorbit.timegrid import MAX_STEPS, IntegrationError, grid_times, step_count


def _numpy_rows(space, ham, state0, t_end, dt):
    """integrate's (times, states, energies)."""
    trajectory = integrate(space, ham, state0, t_end, dt)
    return trajectory.times, trajectory.states, trajectory.energies


def _float_rows(space, ham, state0, t_end, dt):
    """trajectory_rows' (times, states, energies): the columns simulate prints, as arrays."""
    columns = trajectory_rows(space, ham, state0, t_end, dt)
    states = np.column_stack([columns[key] for key in ("q1", "q2", "p1", "p2")])
    return np.array(columns["t"]), states, np.array(columns["H"])


def _flow_states(A, b, state0, t_end, dt):
    """planar_flow's state columns as an (n, 4) table."""
    return np.column_stack(planar_flow(A, b, state0, t_end, dt))


# The two front ends of the one planar fill: NumPy arrays for in-process
# callers, Python float columns for the CLI.  The tests that loop over
# them hold both to one standard.
_FILLS = (_numpy_rows, _float_rows)


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
        assert theta @ omega == RatMatrix.identity(4)
        assert (rf.dense(theta) == -rf.dense(theta).T).all()
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
    theta = np.array(space.theta_matrix(), dtype=float)
    for _ in range(20):
        state = np.array([rng.uniform(-3, 3) for _ in range(4)])
        gq = rf.potential_gradient(ham, state[:2])
        grad = np.array([gq[0], gq[1], state[2] / 2.0, state[3] / 2.0])
        assert np.allclose(rf.hamilton_rhs(space, ham, state), theta @ grad, atol=1e-14)


def test_anomalous_velocity_from_position_noncommutativity() -> None:
    # G couples the force into the velocity: a pure force along q1
    # drags the particle sideways along q2 when G != 0.
    space = NCPhaseSpace2D(G_field=Fraction(-1), F_field=Fraction(0), mass=Fraction(1))
    ham = HamiltonianSpec(linear=(1.0, 0.0))
    rhs = rf.hamilton_rhs(space, ham, np.zeros(4))
    assert rhs[0] == pytest.approx(0.0)
    assert rhs[1] == pytest.approx(1.0)  # = -G * dV/dq1
    assert rhs[2] == pytest.approx(-1.0)
    assert rhs[3] == pytest.approx(0.0)


def test_lorentz_like_force_from_momentum_noncommutativity() -> None:
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(2), mass=Fraction(1))
    ham = HamiltonianSpec()
    state = np.array([0.0, 0.0, 3.0, -1.0])
    rhs = rf.hamilton_rhs(space, ham, state)
    # pdot = F * (p2/m, -p1/m)
    assert rhs[2] == pytest.approx(-2.0)
    assert rhs[3] == pytest.approx(-6.0)


def test_the_gauss_flow_matches_the_harmonic_oscillator() -> None:
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
    assert traj.energies[0] == pytest.approx(ham.hamiltonian(space).value(state0))
    assert np.max(np.abs(traj.invariant_drift)) < 1e-9
    assert len(traj.times) == len(traj.states) == len(traj.energies)


def test_the_energy_drift_is_rounding_only() -> None:
    # the Gauss step keeps H exactly, so over 10^4 steps the drift is only
    # the rounding of the states and of H's sums; a step that does not keep
    # H drifts further (the classical RK4 step: 2.6e-10 on this run)
    space = NCPhaseSpace2D(G_field=Fraction(-1, 4), F_field=Fraction(1, 3), mass=Fraction(3, 2))
    ham = HamiltonianSpec(linear=(0.5, -1.0), quadratic=(2.0, 0.25, 1.0))
    state0 = [1 / 3, -2 / 7, 5 / 9, -1 / 6]
    columns = trajectory_rows(space, ham, state0, t_end=100.0, dt=0.01)
    energies = integrate(space, ham, state0, t_end=100.0, dt=0.01).energies
    assert energies.tobytes() == np.array(columns["H"]).tobytes()
    bound = 1e-14 * (1.0 + max(map(abs, columns["H"])))
    assert max(map(abs, columns["drift"])) <= bound


@pytest.mark.parametrize("t_end, dt", [(0.7, 0.01), (3.7, 0.07), (10.0, 0.001)])
def test_integrate_times_are_the_shared_grid(t_end, dt) -> None:
    # both front ends print grid_times: i*h, ending on t_end exactly
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    grid = np.array(grid_times(t_end, step_count(t_end, dt)))
    for fill in _FILLS:
        times, _, _ = fill(space, HamiltonianSpec(), [0.0, 0.0, 1.0, 0.0], t_end, dt)
        assert times.tobytes() == grid.tobytes(), fill.__name__
        assert times[-1] == t_end


def test_planar_flow_grid_and_failure() -> None:
    decay = [[-float(i == j) for j in range(4)] for i in range(4)]
    state0 = [2.0, -1.0, 0.5, 0.0]
    columns = planar_flow(decay, [0.0] * 4, state0, t_end=1.0, dt=0.25)
    assert [len(column) for column in columns] == [5] * 4
    assert [column[-1] for column in columns] == pytest.approx(
        [z * math.exp(-1.0) for z in state0], abs=1e-4
    )
    assert columns[3].tolist() == [0.0] * 5

    with pytest.raises(IntegrationError) as err:
        planar_flow([[0.0] * 4] * 4, [math.inf, 0.0, 0.0, 0.0], [1.0] * 4, t_end=1.0, dt=0.5)
    assert err.value.step == 1
    assert "at step 1 (t = 0.5)" in str(err.value)


def test_a_singular_gauss_step_fails_at_step_one() -> None:
    # X = [[3, -3], [1, 3]] has the eigenvalues 3 +- i sqrt 3, the roots of
    # 1 - x/2 + x^2/12, so D is singular: exactly over Q, and in floats
    A = [[3.0, -3.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]
    with pytest.raises(ZeroDivisionError):
        propagator([[Fraction(x) for x in row] for row in A], [Fraction(0)] * 4, Fraction(1))
    with pytest.raises(IntegrationError) as err:
        planar_flow(A, [0.0] * 4, [1.0] * 4, t_end=1.0, dt=1.0)
    assert err.value.step == 1
    assert str(err.value) == "integration aborted: no Gauss step of size 1"


def test_both_fills_are_the_generic_gauss_loop_bit_for_bit() -> None:
    # the unrolled planar fill against the package's own step iterated by
    # a loop over the coordinates, with the same sums in the same order
    rng = random.Random(1001)
    for G, F in ((Fraction(0), Fraction(0)), (Fraction(-1, 4), Fraction(1, 3)),
                 (Fraction(2, 3), Fraction(-3, 2))):
        space = NCPhaseSpace2D(G_field=G, F_field=F, mass=Fraction(3, 2))
        ham = HamiltonianSpec(
            linear=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            quadratic=(rng.uniform(0.5, 3), rng.uniform(-0.4, 0.4), rng.uniform(0.5, 3)),
        )
        state0 = [rng.uniform(-1, 1) for _ in range(4)]
        states = np.column_stack(rf.gauss_flow(*linear_system(space, ham), state0, 10.0, 0.01))
        for fill in _FILLS:
            fill_times, fill_states, energies = fill(space, ham, state0, t_end=10.0, dt=0.01)
            assert fill_states.shape == (1001, 4)
            assert fill_times.tobytes() == np.linspace(0.0, 10.0, 1001).tobytes()
            assert fill_states.tobytes() == states.tobytes(), fill.__name__
            # energies are evaluated on the whole table, with the per-state formula
            per_state = [ham.hamiltonian(space).value(z) for z in fill_states]
            assert np.array_equal(energies, per_state), fill.__name__


def test_planar_flow_matches_the_increment_loop_over_many_steps() -> None:
    # the fill and the NumPy reference sum each product in their own order;
    # 10^4 steps apart, every state stays within 1e-13 of its column's
    # largest value
    rng = random.Random(1414)
    for G, F in ((Fraction(0), Fraction(0)), (Fraction(-1, 4), Fraction(1, 3)),
                 (Fraction(2, 3), Fraction(-3, 2))):
        space = NCPhaseSpace2D(G_field=G, F_field=F, mass=Fraction(3, 2))
        ham = HamiltonianSpec(
            linear=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            quadratic=(rng.uniform(0.5, 3), rng.uniform(-0.4, 0.4), rng.uniform(-3, 3)),
        )
        A, b = linear_system(space, ham)
        state0 = [rng.uniform(-1, 1) for _ in range(4)]
        _, ref = rf.increment_loop(A, b, state0, t_end=100.0, dt=0.01)
        states = _flow_states(A, b, state0, 100.0, 0.01)
        assert states.shape == (10_001, 4)
        assert np.array_equal(states[0], ref[0])
        assert np.all(np.abs(states - ref) <= 1e-13 * np.max(np.abs(ref), axis=0))


def test_the_increment_loop_follows_the_static_chart_flow_over_many_steps() -> None:
    # the Static chart flow is linear in t; the compensated reference stays
    # within 1e-13 of each column's largest value of the closed form
    rng = random.Random(1515)
    for mu, beta, kappa in ((2, 1, 1), (Fraction(5, 2), Fraction(-1, 3), Fraction(7, 4))):
        constants = StaticConstants(m=Fraction(3, 2), mu=mu, beta=beta, kappa=kappa)
        system = evolution_hamiltonian(constants).system(
            static_symplectic(constants).canonical_theta
        )
        state = StaticOrbitState(
            constants=constants,
            **{field: (rng.uniform(-1, 1), rng.uniform(-1, 1))
               for field in ("position", "velocity", "momentum", "boost_momentum")},
        )
        times, states = rf.increment_loop(*system, state.chart_vector, t_end=100.0, dt=0.01)
        assert states.shape == (10_001, 8)
        closed = np.array([time_evolution(state, t).chart_vector for t in times[::100]])
        scale = np.max(np.abs(closed), axis=0)
        assert np.all(np.abs(states[::100] - closed) <= 1e-13 * scale)


@pytest.mark.parametrize(
    "linear", [(0.0, 0.0), (0.5, -1.0)], ids=["free-particle", "constant-force"]
)
def test_compensation_keeps_a_long_drift_at_the_last_bit(linear) -> None:
    # 10^5 steps of a drift that only grows: summed without compensation,
    # the fill strays up to 7.7e-13 of a column's largest value from a
    # long-double iteration of the same map, on both flows
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    A, b = linear_system(space, HamiltonianSpec(linear=linear))
    state0 = [0.0, 0.0, 1.0, 0.0]
    _, ref = rf.increment_loop(A, b, state0, t_end=1000.0, dt=0.01)
    states = _flow_states(A, b, state0, 1000.0, 0.01)
    assert states.shape == (100_001, 4)
    assert np.all(np.abs(states - ref) <= 2e-15 * np.max(np.abs(ref), axis=0))


def test_an_unexcited_repulsive_mode_stays_exactly_zero(capsys) -> None:
    # q2 = p2 = 0 on the repulsive k22 = -100: excited, the mode would grow
    # like exp(10 t) past the float range, and 0 times inf is nan
    code = main(["simulate", "--param", "k22=-100", "--t-end", "100"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "t,q1,q2,p1,p2,H,drift"
    assert len(out) == 1 + 10_001
    rows = [line.split(",") for line in out[1:]]
    assert all(row[2] == row[4] == "0" for row in rows)
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    ham = HamiltonianSpec(quadratic=(0.0, 0.0, -100.0))
    for fill in _FILLS:
        _, states, _ = fill(space, ham, [0.0, 0.0, 1.0, 0.0], t_end=100.0, dt=0.01)
        assert {repr(v) for v in states[:, [1, 3]].ravel().tolist()} == {"0.0"}, fill.__name__


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(
    G=st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    F=st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    mass=st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
    k11=st.builds(lambda exponent: -(10.0**exponent), st.integers(2, 4)),
    k22=st.floats(-1.0, 1.0),
    k12=st.floats(-1.0, 1.0),
    state0=st.tuples(st.floats(0.5, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
                     st.floats(-1.0, 1.0)),
    scale=st.integers(900, 1020),
)
def test_a_blow_up_fails_at_the_increment_loops_step(
    G, F, mass, k11, k22, k12, state0, scale
) -> None:
    # a steep repulsive k11 gives A an eigenvalue of real part 5 or more,
    # a mode that the A-stable step still grows; q1 and p1 of one sign
    # excite it, so a start state near the float limit overflows
    assume(G * F != 1)
    space = NCPhaseSpace2D(G_field=G, F_field=F, mass=mass)
    A, b = linear_system(space, HamiltonianSpec(linear=(0.5, -1.0), quadratic=(k11, k12, k22)))
    assume(np.linalg.eigvals(A).real.max() > 5.0)
    state0 = [math.ldexp(z, scale) for z in state0]

    def failing_step(flow):
        try:
            flow(A, b, state0, t_end=20.0, dt=0.05)
        except IntegrationError as exc:
            return exc.step
        return None

    step = failing_step(planar_flow)
    assert step is not None
    assert step == failing_step(rf.increment_loop)


def test_integrate_fails_at_the_same_step_as_the_increment_loop() -> None:
    # a repulsive potential with eigenvalues 19.6 +- 4.2i grows the state
    # about sevenfold per step of 0.1, far more than the gap between the
    # two forms of the step
    space = NCPhaseSpace2D(G_field=Fraction(-1, 50), F_field=Fraction(1, 3), mass=Fraction(1))
    ham = HamiltonianSpec(linear=(0.5, -1.0), quadratic=(-400.0, 0.3, -400.0))
    state0 = [1.0, -0.5, 0.2, 0.1]
    with pytest.raises(IntegrationError) as ref:
        rf.increment_loop(*linear_system(space, ham), state0, t_end=50.0, dt=0.1)
    assert 300 < ref.value.step < 500
    for fill in _FILLS:
        with pytest.raises(IntegrationError) as fast:
            fill(space, ham, state0, t_end=50.0, dt=0.1)
        assert fast.value.step == ref.value.step, fill.__name__
        assert f"non-finite state at step {ref.value.step}" in str(fast.value)


def test_an_overflowing_propagator_fails_at_step_one() -> None:
    # h*A overflows, so R - 1 and c are not finite and neither is step 1
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    ham = HamiltonianSpec(quadratic=(1e300, 0.0, 1e300))
    for fill in _FILLS:
        with pytest.raises(IntegrationError) as err:
            fill(space, ham, [1e10, 0.0, 0.0, 0.0], t_end=1e300, dt=1e295)
        assert err.value.step == 1, fill.__name__


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("coordinate", range(4), ids=["q1", "q2", "p1", "p2"])
@pytest.mark.parametrize("entry", ["planar_flow", "integrate", "trajectory_rows"])
def test_a_start_state_that_is_not_finite_fails_at_step_zero(entry, coordinate, bad) -> None:
    space = NCPhaseSpace2D(G_field=Fraction(-1, 4), F_field=Fraction(1, 3), mass=Fraction(2))
    ham = HamiltonianSpec(linear=(0.5, -1.0), quadratic=(2.0, 0.25, 1.0))
    state0 = [0.1, -0.2, 0.3, 0.4]
    state0[coordinate] = bad
    run = {
        "planar_flow": lambda: planar_flow(*linear_system(space, ham), state0, 1.0, 0.1),
        "integrate": lambda: integrate(space, ham, state0, 1.0, 0.1),
        "trajectory_rows": lambda: trajectory_rows(space, ham, state0, 1.0, 0.1),
    }[entry]
    with pytest.raises(IntegrationError) as err:
        run()
    assert err.value.step == 0
    assert str(err.value) == "integration aborted: non-finite state at step 0 (t = 0)"


@pytest.mark.parametrize(
    "state0, k11, step",
    [
        # H overflows at the initial state
        ([1e200, 0.0, 1.0, 0.0], 1.0, 0),
        # finite states on a repulsive potential: q*q overflows once q = 1e153 cosh t
        # passes 1.34e154, between cosh 3 = 10.1 and cosh 4 = 27.3
        ([1e153, 0.0, 0.0, 0.0], -1.0, 4),
    ],
)
def test_an_overflowing_energy_fails_at_its_step(state0, k11, step) -> None:
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(1))
    ham = HamiltonianSpec(quadratic=(k11, 0.0, 0.0))
    states = _flow_states(*linear_system(space, ham), state0, t_end=10.0, dt=1.0)
    assert np.isfinite(states).all()
    for fill in _FILLS:
        with pytest.raises(IntegrationError) as err:
            fill(space, ham, state0, t_end=10.0, dt=1.0)
        assert err.value.step == step, fill.__name__
        assert f"non-finite energy or drift at step {step}" in str(err.value)


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


@pytest.mark.parametrize(
    "linear, quadratic",
    [
        (("x", 1), (0.0, 0.0, 0.0)),
        ((0.0, 0.0), (1.0, None, 1.0)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0), (1.0, 1.0)),
        ((math.inf, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0), (1.0, math.nan, 1.0)),
        ((0.0, 0.0), (1.0, "1/2", 1.0)),
    ],
    ids=["text", "none", "long-linear", "short-quadratic", "inf", "nan", "string-number"],
)
def test_a_hamiltonian_spec_refuses_malformed_coefficients(linear, quadratic) -> None:
    with pytest.raises(CatalogError):
        HamiltonianSpec(linear, quadratic)


def test_a_hamiltonian_spec_keeps_exact_and_float_coefficients() -> None:
    ham = HamiltonianSpec([Fraction(1, 3), 2], (0.5, Fraction(-1, 7), 3))
    assert ham.linear == (Fraction(1, 3), 2)
    assert ham.quadratic == (0.5, Fraction(-1, 7), 3)
    space = NCPhaseSpace2D(G_field=Fraction(0), F_field=Fraction(0), mass=Fraction(3))
    record = ham.hamiltonian(space)
    assert record.hessian[2][2] == record.hessian[3][3] == Fraction(1, 3)
    assert record.gradient == (Fraction(1, 3), 2, 0, 0)


# What each kind of entry gives: the float it is read as, or the type and
# message of the error that refuses it, with {} for the entry's name.
_NOT_AN_ENTRY = "{} must be a real number, got "
_ENTRIES = [
    (0.25, 0.25),
    (3, 3.0),
    (True, (CatalogError, _NOT_AN_ENTRY + "True")),
    (np.float64(0.5), 0.5),
    (Fraction(1, 3), 1 / 3),
    (10**400, (OverflowError, "{} is inf as a float but not exactly")),
    (Fraction(10**400), (OverflowError, "{} is inf as a float but not exactly")),
    (math.nan, (CatalogError, "{} must be finite, got nan")),
    (np.float64("inf"), (CatalogError, "{} must be finite, got np.float64(inf)")),
    ("1", (CatalogError, _NOT_AN_ENTRY + "'1'")),
    (None, (CatalogError, _NOT_AN_ENTRY + "None")),
    (1j, (CatalogError, _NOT_AN_ENTRY + "1j")),
    (Fraction(1, 10**400), (OverflowError, "{} is 0.0 as a float but not exactly")),
]


@pytest.mark.parametrize(
    "entry, expected", _ENTRIES,
    ids=["float", "int", "bool", "numpy-float", "fraction", "huge-int", "huge-fraction", "nan", "numpy-inf",
         "text", "none", "complex", "tiny-fraction"],
)
def test_each_kind_of_entry_is_read_or_refused_as_before(entry, expected) -> None:
    # each of the spec's five coefficients, kept as given, and the hessian,
    # gradient and constant of a quadratic Hamiltonian, each read by the
    # one float product or sum that holds it alone; an error names the entry
    def spec(slot):
        coefficients = [0.0] * 5
        coefficients[slot] = entry
        return lambda: HamiltonianSpec(coefficients[:2], coefficients[2:])

    coefficients = ("a1", "a2", "k11", "k12", "k22")
    records = [(f"coefficient {name}", spec(slot), None) for slot, name in enumerate(coefficients)]
    records += [
        ("hessian[1][1]", lambda: QuadraticHamiltonian([[1.0, 0.0], [0.0, entry]], [0.0, 0.0]),
         lambda H: H.system([[0.0, 0.0], [0.0, 1.0]])[0][1][1]),
        ("gradient[0]", lambda: QuadraticHamiltonian([[1.0]], [entry]),
         lambda H: H.system([[1.0]])[1][0]),
        ("constant", lambda: QuadraticHamiltonian([[1.0]], [0.0], entry),
         lambda H: H.value([0.0])),
    ]
    for name, make, read in records:
        if isinstance(expected, float):
            record = make()
            if read is None:
                assert any(x is entry for x in (*record.linear, *record.quadratic))
            else:
                value = read(record)
                assert type(value) is float and value == expected
        else:
            error, message = expected
            with pytest.raises(error) as err:
                make()
            assert type(err.value) is error and str(err.value) == message.format(name)


@pytest.mark.parametrize(
    "entry, float_text", [(Fraction(1, 10**400), "0.0"), (-(10**400), "-inf")], ids=["tiny", "huge"]
)
def test_an_exact_theta_entry_no_float_holds_is_named(entry, float_text) -> None:
    H = QuadraticHamiltonian([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    with pytest.raises(OverflowError, match=rf"^theta\[0\]\[1\] is {float_text} as a float but not exactly$"):
        H.system([[0, entry], [-1, 0]])
    # an exact entry a float holds is its nearest float, and a zero is skipped
    assert H.system([[0, Fraction(1, 3)], [Fraction(-1, 3), 0]]) == (
        ((0.0, 1 / 3), (-1 / 3, 0.0)), (0.0, -1 / 3),
    )
    # a NumPy scalar is its Python float
    A, b = H.system([[0, np.int64(2)], [np.float32(-0.5), 0]])
    assert A == ((0.0, 2.0), (-0.5, 0.0)) and b == (0.0, -0.5)
    assert {type(x) for x in (*A[0], *A[1], *b)} == {float}


def test_numpy_scalars_are_read_as_their_floats() -> None:
    # any finite real number but a bool, as the Static records read them
    for entry in (np.int64(3), np.float32(0.1)):
        spec = HamiltonianSpec((entry, 0), (1.0, entry, 2.0))
        assert spec.linear[0] is entry and spec._floats[0] == float(entry)
        H = QuadraticHamiltonian([[entry]], [entry], entry)
        assert H.system([[1.0]]) == (((float(entry),),), (float(entry),))
        assert H.value([1.0]) == float(entry) / 2 + float(entry) + float(entry)
        assert StaticGroupElement(angle=entry).angle == float(entry)


@pytest.mark.parametrize(
    "hessian, gradient, constant",
    [
        ([[1, 0], [0, 1]], [0, 0, 0], 0),
        ([[1, 2], [3, 1]], [0, 0], 0),
        ([[1, 0], [0]], [0, 0], 0),
        ([[1, 0], [0, "1"]], [0, 0], 0),
        ([[1, 0], [0, 1]], [0, math.inf], 0),
        ([[1, 0], [0, 1]], [0, 0], math.nan),
    ],
    ids=["size", "asymmetric", "ragged", "text", "inf", "nan-constant"],
)
def test_a_quadratic_hamiltonian_refuses_malformed_data(hessian, gradient, constant) -> None:
    with pytest.raises(CatalogError):
        QuadraticHamiltonian(hessian, gradient, constant)


def test_a_quadratic_hamiltonian_reads_h_through_system_and_value() -> None:
    # H = q^2/2 + 3 p^2/2 + q p/3 + q/2 - 1 on the canonical plane {q, p} = -1
    H = QuadraticHamiltonian([[1, Fraction(1, 3)], [Fraction(1, 3), 3]], [0.5, 0], -1)
    assert H.hessian == ((1, Fraction(1, 3)), (Fraction(1, 3), 3))
    A, b = H.system([[0, -1], [1, 0]])
    # dq/dt = -dH/dp, dp/dt = dH/dq
    assert A == ((-1 / 3, -3.0), (1.0, 1 / 3)) and b == (0.0, 0.5)
    q, p = 0.25, -2.0
    expected = q * q / 2 + 3 * p * p / 2 + q * p / 3 + q / 2 - 1
    assert H.value((q, p)) == pytest.approx(expected, rel=1e-15)
    columns = np.array([[q, 1.0], [p, 0.5]])
    assert H.value(columns).tolist() == [H.value((q, p)), H.value((1.0, 0.5))]
    with pytest.raises(ValueError, match="theta must be 2 x 2"):
        H.system([[0, -1, 0], [1, 0, 0], [0, 0, 0]])


def _mantissa(rng: random.Random) -> float:
    """A float near 1 of either sign with a random 53-bit mantissa, or a zero
    of either sign one time in four."""
    if rng.random() < 0.25:
        return rng.choice((0.0, -0.0))
    m = rng.getrandbits(52) | 2**52
    return math.ldexp(rng.choice((m, -m)), rng.randint(-56, -50))


@pytest.mark.parametrize("n", [4, 8])
def test_the_column_pass_is_value_row_by_row_bit_for_bit(n) -> None:
    # one list pass per term, z_n = 1 read as no factor, against value on
    # each state: general H with a nonzero gradient and constant, on
    # states with zeros of both signs
    rng = random.Random(2929 + n)
    for _ in range(20):
        hessian = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                hessian[i][j] = hessian[j][i] = _mantissa(rng)
        gradient = [_mantissa(rng) for _ in range(n - 1)] + [rng.uniform(0.5, 2)]
        H = QuadraticHamiltonian(hessian, gradient, rng.uniform(-2, -0.5))
        columns = [array("d", (_mantissa(rng) for _ in range(50))) for _ in range(n)]
        per_row = array("d", map(H.value, zip(*columns)))
        assert array("d", H.column_values(columns)).tobytes() == per_row.tobytes()


def test_fraction_coefficients_run_as_their_floats() -> None:
    # the exact coefficients of given floats give the float run bit for bit
    space = NCPhaseSpace2D(G_field=Fraction(-1, 4), F_field=Fraction(1, 3), mass=Fraction(3, 2))
    linear, quadratic = (0.7, -0.1), (1.5, -0.4, 0.9)
    floats = HamiltonianSpec(linear, quadratic)
    exact = HamiltonianSpec(tuple(map(Fraction, linear)), tuple(map(Fraction, quadratic)))
    state0 = [0.2, -0.4, 1.0, 0.5]
    for fill in _FILLS:
        ref_times, ref_states, ref_energies = fill(space, floats, state0, t_end=2.0, dt=0.01)
        times, states, energies = fill(space, exact, state0, t_end=2.0, dt=0.01)
        assert times.tobytes() == ref_times.tobytes(), fill.__name__
        assert states.tobytes() == ref_states.tobytes(), fill.__name__
        assert energies.tobytes() == ref_energies.tobytes(), fill.__name__


def test_linear_system_matches_rhs() -> None:
    rng = random.Random(909)
    space = NCPhaseSpace2D(
        G_field=Fraction(1, 5), F_field=Fraction(-2, 3), mass=Fraction(3, 2)
    )
    ham = HamiltonianSpec(linear=(0.7, -0.1), quadratic=(1.5, -0.4, 0.9))
    A, b = linear_system(space, ham)
    for _ in range(10):
        state = np.array([rng.uniform(-2, 2) for _ in range(4)])
        assert np.allclose(rf.hamilton_rhs(space, ham, state), A @ state + b, atol=1e-12)
    # theta enters as the exact bracket matrix converted entry by entry
    hessian = np.diag([0.0, 0.0, 2 / 3, 2 / 3])
    hessian[:2, :2] = [[1.5, -0.4], [-0.4, 0.9]]
    assert np.array_equal(A, np.array(space.theta_matrix(), dtype=float) @ hessian)


def test_canonical_bracket_matrix_convention() -> None:
    # {q_i, p_j} = -delta, {p_i, q_j} = +delta, all else zero
    T = CANONICAL_BRACKET_MATRIX
    assert T[0, 2] == -1 and T[1, 3] == -1
    assert T[2, 0] == 1 and T[3, 1] == 1
    assert T[0, 1] == 0 and T[2, 3] == 0
    assert (rf.dense(T) == -rf.dense(T).T).all()


# The G orbit's Darboux map is the Galilei minimal coupling, a position
# shift by momenta; the G'+- orbits' maps are the para-Galilei one, a
# momentum shift by positions.


def test_minimal_coupling_galilei_sample() -> None:
    J = darboux_map(standard_orbit("G", m=1, h=1).structure)
    assert J @ (0, 0, 2, 0) == (Fraction(0), Fraction(2), Fraction(2), Fraction(0))
    brackets = congruence(J, CANONICAL_BRACKET_MATRIX)
    assert brackets == rf.coupled_position_brackets(1, 1)
    assert (brackets[0, 1], brackets[2, 3], brackets[2, 0]) == (-1, 0, 1)


def test_minimal_coupling_galilei_random_parameters() -> None:
    rng = random.Random(111)
    for _ in range(10):
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        state = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        J = darboux_map(standard_orbit("G", m=m, h=m / w0).structure)
        assert congruence(J, CANONICAL_BRACKET_MATRIX) == rf.coupled_position_brackets(m, w0)
        mapped = J @ state
        assert mapped[1] == state[1] + state[2] / (m * w0)
        assert mapped[0] == state[0]
        assert mapped[2:] == state[2:]


def test_minimal_coupling_paragalilei_sample() -> None:
    J = darboux_map(standard_orbit("G'+", m=1, h=1, omega=1).structure)
    assert J @ (2, 0, 0, 0) == (Fraction(2), Fraction(0), Fraction(0), Fraction(-2))
    brackets = congruence(J, CANONICAL_BRACKET_MATRIX)
    assert brackets == rf.coupled_momentum_brackets(1, 1, 1)
    assert (brackets[0, 1], brackets[2, 3], brackets[2, 0]) == (0, -1, 1)


def test_minimal_coupling_paragalilei_random_parameters() -> None:
    rng = random.Random(222)
    for _ in range(10):
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        state = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        b = m * w**2 / w0
        for name in ("G'+", "G'-"):
            J = darboux_map(standard_orbit(name, m=m, h=b, omega=w).structure)
            assert congruence(J, CANONICAL_BRACKET_MATRIX) == rf.coupled_momentum_brackets(
                m, w, w0
            )
            mapped = J @ state
            assert mapped[3] == state[3] - b * state[0]
            assert mapped[:3] == state[:3]
