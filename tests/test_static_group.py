from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

import reference_forms as rf
from kinorbit.coadjoint import classify
from kinorbit.mechanics import propagator
from kinorbit.rational_linalg import RatMatrix
from kinorbit.records import CatalogError, rat
from kinorbit.static_group import (
    _DUAL_NAMES,
    StaticConstants,
    StaticGroupElement,
    StaticOrbitState,
    _dual,
    compose,
    evolution_hamiltonian,
    evolution_rows,
    identity_element,
    inverse,
    multiplication_cocycle,
    noncentral_algebra,
    noncentral_invariants,
    realize,
    static_invariants,
    static_symplectic,
    time_evolution,
)
from kinorbit.timegrid import grid_times

_PHASES = ("phase_m", "phase_mprime", "phase_b", "phase_lambda")
_VECTORS = ("boost", "translation", "f_shift", "pi_shift")




def _random_element(rng: random.Random) -> StaticGroupElement:
    def vec():
        return (rng.uniform(-2, 2), rng.uniform(-2, 2))

    return StaticGroupElement(
        angle=rng.uniform(-math.pi, math.pi),
        boost=vec(),
        translation=vec(),
        time=rng.uniform(-2, 2),
        f_shift=vec(),
        pi_shift=vec(),
        phase_m=rng.uniform(-1, 1),
        phase_mprime=rng.uniform(-1, 1),
        phase_b=rng.uniform(-1, 1),
        phase_lambda=rng.uniform(-1, 1),
    )


def _random_state(constants: StaticConstants, rng: random.Random) -> StaticOrbitState:
    def vec():
        return (rng.uniform(-2, 2), rng.uniform(-2, 2))

    return StaticOrbitState(
        constants=constants,
        position=vec(),
        velocity=vec(),
        momentum=vec(),
        boost_momentum=vec(),
        energy=rng.uniform(-2, 2),
        angular_momentum=rng.uniform(-2, 2),
    )


def _element_distance(a: StaticGroupElement, b: StaticGroupElement) -> float:
    parts = [abs(a.angle - b.angle), abs(a.time - b.time)]
    parts += [abs(getattr(a, p) - getattr(b, p)) for p in _PHASES]
    for name in _VECTORS:
        va, vb = getattr(a, name), getattr(b, name)
        parts += [abs(va[0] - vb[0]), abs(va[1] - vb[1])]
    return max(parts)


def _state_distance(a: StaticOrbitState, b: StaticOrbitState) -> float:
    return float(
        max(
            np.max(np.abs(np.asarray(a.chart_vector) - np.asarray(b.chart_vector))),
            abs(a.energy - b.energy),
            abs(a.angular_momentum - b.angular_momentum),
        )
    )


def test_constants_validation_and_derived_charges() -> None:
    c = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    assert c.det == 1
    assert c.kappa_e == Fraction(1, 2)
    assert c.mu_e == 1
    assert c.mu * c.kappa_e == c.det
    assert c.kappa * c.mu_e == c.det
    with pytest.raises(ValueError):
        StaticConstants(m=1, mu=0, beta=0, kappa=1)
    with pytest.raises(ValueError):
        StaticConstants(m=1, mu=2, beta=0, kappa=0)
    with pytest.raises(ValueError):
        StaticConstants(m=1, mu=2, beta=2, kappa=2)  # det = 0


def test_noncentral_algebra_is_the_catalog_fourteen_dim() -> None:
    alg = noncentral_algebra()
    assert alg.dim == 14
    assert alg.names == (
        "J", "K1", "K2", "P1", "P2", "H", "M",
        "F1", "F2", "Pi1", "Pi2", "M'", "B", "Lambda",
    )
    assert alg.jacobi_violations() == []
    assert alg is noncentral_algebra()  # cached
    # the float paths index dual vectors by _DUAL_NAMES without building it
    assert alg.names == _DUAL_NAMES


def test_group_identity_and_inverse() -> None:
    rng = random.Random(313)
    e = identity_element()
    for _ in range(25):
        g = _random_element(rng)
        assert _element_distance(compose(g, e), g) < 1e-12
        assert _element_distance(compose(e, g), g) < 1e-12
        assert _element_distance(compose(g, inverse(g)), e) < 1e-12
        assert _element_distance(compose(inverse(g), g), e) < 1e-12


def test_group_associativity() -> None:
    rng = random.Random(414)
    for _ in range(40):
        g1, g2, g3 = (_random_element(rng) for _ in range(3))
        left = compose(compose(g1, g2), g3)
        right = compose(g1, compose(g2, g3))
        assert _element_distance(left, right) < 1e-10


def test_multiplication_cocycle_measures_phase_deviation() -> None:
    rng = random.Random(515)
    for _ in range(20):
        g, gp = _random_element(rng), _random_element(rng)
        product = compose(g, gp)
        cocycle = multiplication_cocycle(g, gp)
        assert set(cocycle) == set(_PHASES)
        for key in _PHASES:
            additive = getattr(g, key) + getattr(gp, key)
            assert getattr(product, key) - additive == pytest.approx(
                cocycle[key], abs=1e-12
            )
    # the cocycle is genuinely nontrivial: boosts and translations
    # generate phases even when both factors carry none
    g = StaticGroupElement(
        angle=0.0, boost=(1.0, 0.0), translation=(0.0, 0.0), time=0.0,
        f_shift=(0.0, 0.0), pi_shift=(0.0, 0.0),
        phase_m=0.0, phase_mprime=0.0, phase_b=0.0, phase_lambda=0.0,
    )
    gp = StaticGroupElement(
        angle=0.0, boost=(0.0, 0.0), translation=(1.0, 0.0), time=1.0,
        f_shift=(0.0, 0.0), pi_shift=(0.0, 0.0),
        phase_m=0.0, phase_mprime=0.0, phase_b=0.0, phase_lambda=0.0,
    )
    cocycle = multiplication_cocycle(g, gp)
    assert any(abs(v) > 1e-12 for v in cocycle.values())


def test_realize_is_a_left_action() -> None:
    rng = random.Random(616)
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    for _ in range(25):
        g, gp = _random_element(rng), _random_element(rng)
        st = _random_state(constants, rng)
        one_step = realize(compose(g, gp), st)
        two_step = realize(g, realize(gp, st))
        assert _state_distance(one_step, two_step) < 1e-10


def test_realize_identity_fixes_states() -> None:
    rng = random.Random(717)
    constants = StaticConstants(m=2, mu=3, beta=1, kappa=2)
    for _ in range(10):
        st = _random_state(constants, rng)
        assert _state_distance(realize(identity_element(), st), st) < 1e-14


def test_invariants_are_preserved_by_the_action() -> None:
    rng = random.Random(818)
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1, nu=0.5, h=2)
    for _ in range(25):
        g = _random_element(rng)
        st = _random_state(constants, rng)
        before = static_invariants(st)
        after = static_invariants(realize(g, st))
        assert before[0] == pytest.approx(after[0], abs=1e-9)
        assert before[1] == pytest.approx(after[1], abs=1e-9)


def test_boosts_change_the_energy_but_not_the_invariants() -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    st = StaticOrbitState(
        constants=constants, position=(1.0, 0.0), velocity=(0.0, 1.0),
        momentum=(0.5, -0.5), boost_momentum=(0.25, 0.0), energy=1.0,
        angular_momentum=0.5,
    )
    g = StaticGroupElement(
        angle=0.0, boost=(0.8, -0.3), translation=(0.0, 0.0), time=0.0,
        f_shift=(0.0, 0.0), pi_shift=(0.0, 0.0),
        phase_m=0.0, phase_mprime=0.0, phase_b=0.0, phase_lambda=0.0,
    )
    out = realize(g, st)
    assert out.energy != pytest.approx(st.energy, abs=1e-9)
    assert static_invariants(out)[0] == pytest.approx(static_invariants(st)[0], abs=1e-12)
    assert static_invariants(out)[1] == pytest.approx(static_invariants(st)[1], abs=1e-12)


def test_one_parameter_flows_match_reference_forms() -> None:
    rng = random.Random(919)
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    zero = (0.0, 0.0)
    for _ in range(10):
        st = _random_state(constants, rng)
        state = (
            np.asarray(st.position), np.asarray(st.velocity),
            np.asarray(st.momentum), np.asarray(st.boost_momentum),
        )
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        gb = StaticGroupElement(
            angle=0.0, boost=v, translation=zero, time=0.0,
            f_shift=zero, pi_shift=zero,
            phase_m=0.0, phase_mprime=0.0, phase_b=0.0, phase_lambda=0.0,
        )
        expected = rf.boost_action(constants, state, v)
        out = realize(gb, st)
        for got, want in zip(
            (out.position, out.velocity, out.momentum, out.boost_momentum), expected
        ):
            assert np.allclose(got, want, atol=1e-12)
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        gt = StaticGroupElement(
            angle=0.0, boost=zero, translation=x, time=0.0,
            f_shift=zero, pi_shift=zero,
            phase_m=0.0, phase_mprime=0.0, phase_b=0.0, phase_lambda=0.0,
        )
        expected = rf.translation_action(constants, state, x)
        out = realize(gt, st)
        for got, want in zip(
            (out.position, out.velocity, out.momentum, out.boost_momentum), expected
        ):
            assert np.allclose(got, want, atol=1e-12)
        t = rng.uniform(-2, 2)
        gh = StaticGroupElement(
            angle=0.0, boost=zero, translation=zero, time=t,
            f_shift=zero, pi_shift=zero,
            phase_m=0.0, phase_mprime=0.0, phase_b=0.0, phase_lambda=0.0,
        )
        expected = rf.time_action(constants, state, t)
        out = realize(gh, st)
        for got, want in zip(
            (out.position, out.velocity, out.momentum, out.boost_momentum), expected
        ):
            assert np.allclose(got, want, atol=1e-12)


def test_general_realization_matches_closed_form() -> None:
    rng = random.Random(1020)
    for constants in (
        StaticConstants(m=1, mu=2, beta=1, kappa=1),
        StaticConstants(m=2, mu=3, beta=-1, kappa=2),
    ):
        for _ in range(15):
            st = _random_state(constants, rng)
            state = (
                np.asarray(st.position), np.asarray(st.velocity),
                np.asarray(st.momentum), np.asarray(st.boost_momentum),
            )
            g = _random_element(rng)
            out = realize(g, st)
            qn, un, pn, kn = rf.general_action(constants, state, g)
            assert np.allclose(out.position, qn, atol=1e-10)
            assert np.allclose(out.velocity, un, atol=1e-10)
            assert np.allclose(out.momentum, pn, atol=1e-10)
            assert np.allclose(out.boost_momentum, kn, atol=1e-10)


def test_dual_round_trip() -> None:
    rng = random.Random(1121)
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    alg = noncentral_algebra()
    for _ in range(10):
        st = _random_state(constants, rng)
        alpha = _dual(st)
        # the dual vector embeds the charges alongside the state
        assert alpha[alg.index("M")] == float(constants.m)
        assert alpha[alg.index("M'")] == float(constants.mu)
        assert alpha[alg.index("B")] == float(constants.beta)
        assert alpha[alg.index("Lambda")] == float(constants.kappa)
        assert alpha[alg.index("F1")] == pytest.approx(
            -float(constants.kappa_e) * st.position[0]
        )
        assert alpha[alg.index("Pi2")] == pytest.approx(
            float(constants.mu_e) * st.velocity[1]
        )


def test_time_evolution_closed_form_and_flows() -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    st = StaticOrbitState(
        constants=constants, position=(1.0, 0.0), velocity=(0.0, 1.0),
        momentum=(0.0, 0.0), boost_momentum=(0.0, 0.0), energy=0.5,
        angular_momentum=0.0,
    )
    t = 2.0
    evolved = time_evolution(st, t)
    # closed form: p(t) = p - t*kappa_e*q, k(t) = k + t*mu_e*u
    assert np.allclose(evolved.position, st.position)
    assert np.allclose(evolved.velocity, st.velocity)
    assert np.allclose(evolved.momentum, (-t * float(constants.kappa_e), 0.0))
    assert np.allclose(evolved.boost_momentum, (0.0, t * float(constants.mu_e)))
    # a pure time translation realizes the same flow
    g = StaticGroupElement(
        angle=0.0, boost=(0.0, 0.0), translation=(0.0, 0.0), time=t,
        f_shift=(0.0, 0.0), pi_shift=(0.0, 0.0),
        phase_m=0.0, phase_mprime=0.0, phase_b=0.0, phase_lambda=0.0,
    )
    assert _state_distance(realize(g, st), evolved) < 1e-12
    # the generating Hamiltonian's exact Gauss step of size t is the same
    # linear map: A^2 = 0 on the chart, so M = 1 + tA and c = 0
    hamiltonian = evolution_hamiltonian(constants)
    theta, Q = static_symplectic(constants).canonical_theta, RatMatrix(hamiltonian.hessian)
    A = theta @ Q
    step_map, c = propagator(A, theta @ hamiltonian.gradient, Fraction(t))
    assert step_map == [[t * x for x in row] for row in A] and c == [0] * 8
    for i, column in enumerate(zip(*step_map)):
        basis = [float(i == j) for j in range(8)]
        unit = StaticOrbitState(constants, *zip(basis[::2], basis[1::2]))
        assert time_evolution(unit, t).chart_vector == tuple(x + b for x, b in zip(column, basis))
    # the evolution Hamiltonian z'Qz/2 is exactly conserved by the step
    z = [Fraction(x) for x in st.chart_vector]
    moved = [x + y for x, y in zip(z, RatMatrix(step_map) @ z)]
    assert sum(map(mul, moved, Q @ moved)) == sum(map(mul, z, Q @ z))


def test_time_evolution_preserves_invariants() -> None:
    rng = random.Random(1222)
    constants = StaticConstants(m=2, mu=3, beta=1, kappa=2)
    for _ in range(10):
        st = _random_state(constants, rng)
        evolved = time_evolution(st, rng.uniform(-3, 3))
        assert static_invariants(evolved)[0] == pytest.approx(
            static_invariants(st)[0], abs=1e-10
        )
        assert static_invariants(evolved)[1] == pytest.approx(
            static_invariants(st)[1], abs=1e-10
        )


def test_time_evolution_over_a_time_grid_matches_one_state_at_a_time() -> None:
    rng = random.Random(1333)
    constants = StaticConstants(
        m=Fraction(3, 2), mu=Fraction(5, 2), beta=Fraction(-1, 3),
        kappa=Fraction(7, 4), nu=Fraction(1, 2), h=Fraction(-3, 4),
    )
    st = _random_state(constants, rng)
    columns = evolution_rows(st, t_end=3.7, dt=0.37)
    assert columns["t"] == grid_times(3.7, 10)
    assert columns["t"][-1] == 3.7
    for i, t in enumerate(columns["t"]):
        one = time_evolution(st, t)
        row = [column if isinstance(column, float) else column[i] for column in columns.values()]
        # same arithmetic entry by entry: equal to the last bit
        assert row[1:] == [
            *one.position, *one.velocity, *one.momentum, *one.boost_momentum, one.energy,
            *static_invariants(one),
        ]


def test_static_symplectic_matches_reference_matrices() -> None:
    for m, mu, beta, kappa in ((1, 2, 1, 1), (2, 3, 1, 2), (Fraction(1, 2), 1, Fraction(1, 3), 1)):
        constants = StaticConstants(m=m, mu=mu, beta=beta, kappa=kappa)
        s = static_symplectic(constants)
        assert s.omega == rf.noncentral_static_omega(m, mu, beta, kappa)
        assert s.theta == rf.noncentral_static_theta(m, mu, beta, kappa)
        assert s.omega @ s.theta == RatMatrix.identity(8)
        assert s.canonical_theta == rf.noncentral_canonical_brackets(m, mu, beta, kappa)
        assert s.chart.coordinate_names == (
            "P1", "P2", "K1", "K2", "F1", "F2", "Pi1", "Pi2"
        )
        assert s.chart.canonical_names == (
            "q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2"
        )


def test_static_symplectic_classified_fully_noncommutative() -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    s = static_symplectic(constants)
    # G and F read zero on this chart, yet the extra couplings
    # ({p_i, k_i} = m and the velocity sector) make it fully noncommutative
    assert s.G_field == 0
    assert s.F_field == 0
    assert classify(s) == "fully_nc"


def test_noncentral_invariant_residuals_vanish_exactly() -> None:
    rng = random.Random(1323)
    alg = noncentral_algebra()
    from kinorbit.coadjoint import DualPoint

    rotation, energy = noncentral_invariants()
    assert rotation.name == "internal_rotation"
    assert energy.name == "internal_energy"
    for _ in range(10):
        values = {
            name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for name in alg.names
        }
        values.update({"M'": Fraction(2), "B": Fraction(1), "Lambda": Fraction(1)})
        pt = DualPoint.from_mapping(alg, values)
        for inv in (rotation, energy):
            res = inv.residual(alg, pt)
            assert all(v == 0 for v in res), inv.name


def test_noncentral_invariant_gradients_match_finite_differences() -> None:
    rng = random.Random(1424)
    alg = noncentral_algebra()
    from kinorbit.coadjoint import DualPoint

    for inv in noncentral_invariants():
        for _ in range(5):
            values = {
                name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for name in alg.names
            }
            values.update({"M'": Fraction(2), "B": Fraction(1), "Lambda": Fraction(1)})
            pt = DualPoint.from_mapping(alg, values)
            coords = [float(v) for v in pt.coords]
            fd = rf.finite_difference_gradient(lambda a: float(inv.value(a)), coords)
            analytic = np.asarray(
                [float(v) for v in inv.gradient(pt.coords)], dtype=float
            )
            assert np.max(np.abs(fd - analytic)) < 1e-6, inv.name


def test_invariant_values_match_closed_forms() -> None:
    rng = random.Random(1525)
    alg = noncentral_algebra()
    idx = {n: alg.index(n) for n in alg.names}
    rotation, energy = noncentral_invariants()

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for _ in range(10):
        a = np.array([rng.uniform(-2, 2) for _ in range(14)])
        a[idx["M"]], a[idx["M'"]] = 1.5, 2.0
        a[idx["B"]], a[idx["Lambda"]] = 1.0, 1.0
        m, mu, beta, kap = (a[idx[n]] for n in ("M", "M'", "B", "Lambda"))
        D = mu * kap - beta**2
        k = a[[idx["K1"], idx["K2"]]]
        p = a[[idx["P1"], idx["P2"]]]
        f = a[[idx["F1"], idx["F2"]]]
        i_vec = a[[idx["Pi1"], idx["Pi2"]]]
        s_ref = a[idx["J"]] - (
            kap * cross(k, i_vec)
            - beta * cross(p, i_vec)
            + mu * cross(p, f)
            - beta * cross(k, f)
            + m * cross(f, i_vec)
        ) / D
        u_ref = a[idx["H"]] - (
            mu * (f @ f) - 2 * beta * (f @ i_vec) + kap * (i_vec @ i_vec)
        ) / (2 * D)
        assert rotation.value(a) == pytest.approx(s_ref, abs=1e-12)
        assert energy.value(a) == pytest.approx(u_ref, abs=1e-12)


def test_static_invariants_subtract_the_charge_offset() -> None:
    base = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    shifted = StaticConstants(m=1, mu=2, beta=1, kappa=1, nu=0.5, h=2)
    st_base = StaticOrbitState(
        constants=base, position=(1.0, 0.5), velocity=(-0.5, 1.0),
        momentum=(0.2, 0.1), boost_momentum=(0.0, 0.3), energy=1.25,
        angular_momentum=0.75,
    )
    st_shift = StaticOrbitState(
        constants=shifted, position=(1.0, 0.5), velocity=(-0.5, 1.0),
        momentum=(0.2, 0.1), boost_momentum=(0.0, 0.3), energy=1.25,
        angular_momentum=0.75,
    )
    s0, u0 = static_invariants(st_base)
    s1, u1 = static_invariants(st_shift)
    assert s1 == pytest.approx(s0, abs=1e-12)
    assert u1 == pytest.approx(u0 - 0.5 * 2, abs=1e-12)


def test_evolution_system_matches_closed_form_derivative() -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    A, b = evolution_hamiltonian(constants).system(static_symplectic(constants).canonical_theta)
    assert not any(b)
    chart = np.array([0.4, -0.2, 0.9, 0.1, 0.3, -0.5, 0.2, 0.8])
    out = np.array(A) @ chart + b
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    # qdot = udot = 0; pdot = -kappa_e q; kdot = +mu_e u
    assert np.allclose(out[:4], 0.0, atol=1e-14)
    assert np.allclose(out[4:6], -kappa_e * chart[:2], atol=1e-14)
    assert np.allclose(out[6:8], mu_e * chart[2:4], atol=1e-14)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "field, value",
    [("energy", lambda bad: bad), ("velocity", lambda bad: (0.0, bad))],
    ids=["scalar", "vector"],
)
def test_non_finite_state_fields_are_rejected(field, value, bad) -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    with pytest.raises(ValueError, match=field):
        StaticOrbitState(constants=constants, **{field: value(bad)})


def test_an_overflowing_time_evolution_is_rejected() -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    st = StaticOrbitState(constants=constants, position=(1e10, 0.0), velocity=(0.0, 1.0))
    # the rows at t = 0, 1e300, 2e300 name the first that overflows
    with pytest.raises(ValueError, match="momentum must be finite, got -inf at entry 1$"):
        evolution_rows(st, t_end=2e300, dt=1e300)
    with pytest.raises(ValueError, match="momentum"):
        time_evolution(st, 1e300)


def test_an_overflowing_realize_is_rejected() -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    st = StaticOrbitState(constants=constants, position=(1e300, 0.0))
    with pytest.raises(ValueError, match="momentum must be finite, got -inf$"):
        realize(StaticGroupElement(boost=(1e300, 0.0), time=1e300), st)


@pytest.mark.parametrize(
    "fields, invariant",
    [
        ({"position": (1e200, 0.0)}, "U"),
        # w.w stays finite, so only the internal rotation overflows
        ({"momentum": (1e200, 0.0), "velocity": (0.0, 1e150)}, "s_inv"),
    ],
)
def test_overflowing_invariants_are_rejected(fields, invariant) -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    message = f"invariant {invariant} must be finite, got -?inf"
    state = StaticOrbitState(constants=constants, **fields)
    with pytest.raises(ValueError, match=f"{message}$"):
        static_invariants(state)
    # the rows name their first bad entry
    with pytest.raises(ValueError, match=f"{message} at entry 0$"):
        evolution_rows(state, t_end=1.0, dt=0.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("angle", math.nan),
        ("angle", math.inf),
        ("boost", (math.inf, 0.0)),
        ("pi_shift", (0.0, math.nan)),
        ("phase_b", -math.inf),
        ("phase_lambda", math.nan),
    ],
)
def test_non_finite_group_elements_are_rejected(field, value) -> None:
    with pytest.raises(ValueError, match=field):
        StaticGroupElement(**{field: value})


def test_a_product_that_overflows_is_rejected() -> None:
    big = StaticGroupElement(boost=(1e200, 0.0), translation=(1e200, 0.0), time=1e200)
    with pytest.raises(ValueError, match="must be finite"):
        compose(big, big)
    # the first bad field is named, the scalars before the vectors:
    # phase_mprime, though boost and pi_shift overflow too
    g = StaticGroupElement(boost=(1e308, 0.0), time=1e10)
    gp = StaticGroupElement(boost=(1e308, 0.0), time=-1e10)
    with pytest.raises(ValueError, match=r"^group parameter phase_mprime must be finite, got -inf$"):
        compose(g, gp)
    with pytest.raises(ValueError, match=r"^group parameter phase_mprime must be finite, got inf$"):
        compose(gp, g)
    with pytest.raises(ValueError, match=r"^group parameter boost must be finite, got inf$"):
        compose(StaticGroupElement(boost=(1e308, 0.0)), StaticGroupElement(boost=(1e308, 0.0)))
    with pytest.raises(ValueError, match=r"^group parameter phase_mprime must be finite, got inf$"):
        inverse(StaticGroupElement(boost=(1e308, 0.0), pi_shift=(1e308, 0.0)))


def test_finite_results_whose_sum_overflows_are_stored() -> None:
    # each field is finite; only the one sum that tests them all overflows
    g = StaticGroupElement(boost=(1.5e308, 0.0), translation=(1.5e308, 0.0))
    assert compose(g, identity_element()) == g
    assert compose(identity_element(), g) == g
    assert inverse(g) == StaticGroupElement(boost=(-1.5e308, -0.0), translation=(-1.5e308, -0.0))
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    state = StaticOrbitState(constants, position=(1e308, 0.0), momentum=(1e308, 0.0))
    assert realize(identity_element(), state) == state


_CHARGES = StaticConstants(m=1, mu=2, beta=1, kappa=1)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: compose(StaticGroupElement(boost=(1.5e308, 0.0)),
                         StaticGroupElement(boost=(1.5e308, 0.0))),
         "group parameter boost must be finite, got inf"),
        (lambda: inverse(StaticGroupElement(boost=(1e308, 0.0), pi_shift=(1e308, 0.0))),
         "group parameter phase_mprime must be finite, got inf"),
        (lambda: realize(StaticGroupElement(boost=(1e300, 0.0), time=1e300),
                         StaticOrbitState(_CHARGES, position=(1e300, 0.0))),
         "state field momentum must be finite, got -inf"),
        (lambda: time_evolution(StaticOrbitState(_CHARGES, position=(1e10, 0.0)), 1e300),
         "state field momentum must be finite, got -inf"),
        (lambda: static_invariants(StaticOrbitState(_CHARGES, position=(1e200, 0.0))),
         "invariant U must be finite, got -inf"),
    ],
    ids=["compose", "inverse", "realize", "time_evolution", "static_invariants"],
)
def test_an_overflowing_result_is_a_plain_value_error(run, message) -> None:
    # a computed value that overflows fails the run, not its configuration:
    # the CLI reports a CatalogError as a configuration error (exit 2) and a
    # plain ValueError as a verification failure (exit 1)
    with pytest.raises(ValueError) as err:
        run()
    assert type(err.value) is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize("pair", [(1.0,), (1.0, 2.0, 3.0), 1.0, None], ids=repr)
def test_a_pair_of_the_wrong_shape_is_named(pair) -> None:
    with pytest.raises(ValueError, match=r"^group parameter boost must be a pair, got "):
        StaticGroupElement(boost=pair)
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    with pytest.raises(ValueError, match=r"^state field momentum must be a pair, got "):
        StaticOrbitState(constants, momentum=pair)


# A value given for a scalar or a pair's entry, and the float it is stored
# as; None where it is refused, as no real number or a bool
_VALUES = [
    (0.25, 0.25), (2, 2.0), (Fraction(1, 4), 0.25), (np.float64(1.5), 1.5),
    (np.float32(0.5), 0.5), (np.int64(-3), -3.0),
    ("x", None), ("1.5", None), (None, None), (1j, None), (True, None),
    (np.bool_(True), None), (np.complex128(1.0), None),
]


@pytest.mark.parametrize("value, stored", _VALUES, ids=repr)
def test_each_group_parameter_is_a_real_number(value, stored) -> None:
    if stored is None:
        for field, given in (("angle", value), ("boost", (0.0, value))):
            message = f"^group parameter {field} must be a real number, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                StaticGroupElement(**{field: given})
    else:
        g = StaticGroupElement(angle=value, boost=(0.0, value))
        assert [g.angle, *g.boost] == [stored, 0.0, stored]
        assert type(g.angle) is type(g.boost[1]) is float


@pytest.mark.parametrize("value, stored", _VALUES, ids=repr)
def test_each_state_field_is_a_real_number(value, stored) -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    if stored is None:
        for field, given in (("energy", value), ("momentum", (0.0, value))):
            message = f"^state field {field} must be a real number, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                StaticOrbitState(constants, **{field: given})
    else:
        state = StaticOrbitState(constants, energy=value, momentum=(0.0, value))
        assert [state.energy, *state.momentum] == [stored, 0.0, stored]
        assert type(state.energy) is type(state.momentum[1]) is float


@pytest.mark.parametrize(
    "value, float_text", [(Fraction(1, 10**400), "0.0"), (Fraction(-(10**400)), "-inf")],
    ids=["tiny", "huge"],
)
def test_an_exact_value_no_float_holds_is_named(value, float_text) -> None:
    # a nonzero exact value is not read as 0.0, nor a huge one as inf
    def message(name):
        return f"^{name} is {float_text} as a float but not exactly$"

    for field, given in (("angle", value), ("boost", (0.0, value))):
        with pytest.raises(OverflowError, match=message(f"group parameter {field}")):
            StaticGroupElement(**{field: given})
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    for field, given in (("energy", value), ("momentum", (value, 0.0))):
        with pytest.raises(OverflowError, match=message(f"state field {field}")):
            StaticOrbitState(constants, **{field: given})
    with pytest.raises(OverflowError, match=message("time t")):
        time_evolution(StaticOrbitState(constants, position=(1.0, 0.0)), value)


@pytest.mark.parametrize("t", ["2", True, None, 1j, math.nan], ids=repr)
def test_an_evolution_time_that_is_no_finite_real_number_is_refused(t) -> None:
    state = StaticOrbitState(StaticConstants(m=1, mu=2, beta=1, kappa=1), position=(1.0, 0.0))
    what = "must be finite" if t != t else "must be a real number"
    with pytest.raises(CatalogError, match=f"^time t {what}, got {re.escape(repr(t))}$"):
        time_evolution(state, t)
    # the exact and float times it does read evolve alike
    assert time_evolution(state, Fraction(1, 2)) == time_evolution(state, 0.5)


_FACTORS = (("K1", "K2", "P1", "P2", "H"), ("F1", "F2", "Pi1", "Pi2"))


def _random_coefficients(rng: random.Random, names) -> dict[str, float]:
    """Coefficients over six decades, some of them zero."""
    return {
        name: 0.0 if rng.random() < 0.2 else rng.uniform(-2, 2) * 10.0 ** rng.randint(-3, 3)
        for name in names
    }


def _exact_series_dual(g: StaticGroupElement, state: StaticOrbitState) -> list[Fraction]:
    """The dual vector of ``realize(g, state)`` by the series (exp(-ad_A))^T, exactly.

    The state, the group parameters and the float cosine and sine of the
    angle are converted exactly with ``rat``, ad_A is the exact
    ``adjoint_matrix`` of each factor, and the series terminates because
    ad_A is nilpotent; so every rounding in the comparison is ``realize``'s.
    """
    alg = noncentral_algebra()
    c = state.constants
    values = {
        "J": rat(state.angular_momentum),
        "K1": rat(state.boost_momentum[0]),
        "K2": rat(state.boost_momentum[1]),
        "P1": rat(state.momentum[0]),
        "P2": rat(state.momentum[1]),
        "H": rat(state.energy),
        "M": c.m,
        "F1": -c.kappa_e * rat(state.position[0]),
        "F2": -c.kappa_e * rat(state.position[1]),
        "Pi1": c.mu_e * rat(state.velocity[0]),
        "Pi2": c.mu_e * rat(state.velocity[1]),
        "M'": c.mu,
        "B": c.beta,
        "Lambda": c.kappa,
    }
    alpha = np.array([values[name] for name in alg.names], dtype=object)
    cos, sin = rat(math.cos(g.angle)), rat(math.sin(g.angle))
    for first, second in (("K1", "K2"), ("P1", "P2"), ("F1", "F2"), ("Pi1", "Pi2")):
        i, j = alg.index(first), alg.index(second)
        alpha[i], alpha[j] = cos * alpha[i] - sin * alpha[j], sin * alpha[i] + cos * alpha[j]
    for names, coeffs in zip(
        _FACTORS, ((*g.boost, *g.translation, g.time), (*g.f_shift, *g.pi_shift))
    ):
        minus_ad_t = -rf.dense(alg.adjoint_matrix(dict(zip(names, coeffs)))).T
        term = alpha
        for k in range(1, alg.dim + 1):
            term = minus_ad_t @ term / k
            if not any(term):
                break
            alpha = alpha + term
    return list(alpha)


def test_realize_matches_the_exact_adjoint_series() -> None:
    rng = random.Random(1727)
    constants = StaticConstants(
        m=Fraction(3, 2), mu=Fraction(5, 2), beta=Fraction(-1, 3), kappa=Fraction(7, 4)
    )
    for _ in range(100):
        k1, k2, p1, p2, h = _random_coefficients(rng, _FACTORS[0]).values()
        f1, f2, w1, w2 = _random_coefficients(rng, _FACTORS[1]).values()
        g = StaticGroupElement(
            angle=rng.uniform(-math.pi, math.pi), boost=(k1, k2), translation=(p1, p2),
            time=h, f_shift=(f1, f2), pi_shift=(w1, w2),
        )
        st = _random_state(constants, rng)
        got, want = _dual(realize(g, st)), _exact_series_dual(g, st)
        error = max(abs(rat(a) - b) for a, b in zip(got, want))
        assert error <= rat(4e-15) * max(map(abs, want)), (g, st)


def test_static_invariants_of_a_column_of_states_are_one_state_at_a_time() -> None:
    rng = random.Random(1929)
    constants = StaticConstants(
        m=Fraction(3, 2), mu=Fraction(5, 2), beta=Fraction(-1, 3),
        kappa=Fraction(7, 4), nu=Fraction(1, 2), h=Fraction(-3, 4),
    )
    for _ in range(5):
        st = _random_state(constants, rng)
        columns = evolution_rows(st, t_end=rng.uniform(1, 100), dt=0.5)
        u = columns["U"]
        for t, s in zip(columns["t"], columns["s_inv"]):
            # same arithmetic entry by entry: equal to the last bit
            assert (s, u) == static_invariants(time_evolution(st, t))
