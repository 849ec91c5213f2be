from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import reference_forms as rf
from kinorbit.coadjoint import classify, finite_difference_gradient
from kinorbit.mechanics import affine_flow
from kinorbit.rational_linalg import reye, to_float
from kinorbit.static_group import (
    StaticConstants,
    StaticGroupElement,
    StaticOrbitState,
    compose,
    evolution_hamiltonian,
    evolution_system,
    identity_element,
    inverse,
    multiplication_cocycle,
    noncentral_algebra,
    noncentral_invariants,
    realize,
    static_invariants,
    static_symplectic,
    time_evolution,
    _adjoint,
    _rotate_dual,
)

_PHASES = ("phase_m", "phase_mprime", "phase_b", "phase_lambda")
_VECTORS = ("boost", "translation", "f_shift", "pi_shift")


def _exact_equal(a, b) -> bool:
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    return a.shape == b.shape and bool((a == b).all())


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
        alpha = st.to_dual()
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
        back = StaticOrbitState.from_dual(alpha, constants)
        assert _state_distance(st, back) < 1e-12


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
    # the generating Hamiltonian drives the same trajectory through RK4
    times, states = affine_flow(
        *evolution_system(constants), st.chart_vector, t_end=t, dt=1e-2
    )
    assert np.allclose(states[-1], evolved.chart_vector, atol=1e-10)
    # the evolution Hamiltonian is exactly conserved along the flow
    h0 = evolution_hamiltonian(constants, states[0])
    hT = evolution_hamiltonian(constants, states[-1])
    assert h0 == pytest.approx(hT, abs=1e-12)


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
    times = np.arange(11) * 0.37
    column = time_evolution(st, times)
    alpha = column.to_dual()
    s_col, u_col = static_invariants(column)
    assert alpha.shape == (noncentral_algebra().dim, times.size)
    for i, t in enumerate(times.tolist()):
        one = time_evolution(st, t)
        # same arithmetic entry by entry: equal to the last bit
        assert np.array_equal(alpha[:, i], one.to_dual())
        assert (s_col[i], u_col[i]) == static_invariants(one)


def test_static_symplectic_matches_reference_matrices() -> None:
    for m, mu, beta, kappa in ((1, 2, 1, 1), (2, 3, 1, 2), (Fraction(1, 2), 1, Fraction(1, 3), 1)):
        constants = StaticConstants(m=m, mu=mu, beta=beta, kappa=kappa)
        s = static_symplectic(constants)
        assert _exact_equal(s.omega, rf.noncentral_static_omega(m, mu, beta, kappa))
        assert _exact_equal(s.theta, rf.noncentral_static_theta(m, mu, beta, kappa))
        assert _exact_equal(s.omega @ s.theta, reye(8))
        assert _exact_equal(
            s.canonical_theta, rf.noncentral_canonical_brackets(m, mu, beta, kappa)
        )
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
            fd = finite_difference_gradient(lambda a: float(inv.value(a)), coords)
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
    A, b = evolution_system(constants)
    assert not b.any()
    chart = np.array([0.4, -0.2, 0.9, 0.1, 0.3, -0.5, 0.2, 0.8])
    out = A @ chart + b
    kappa_e = float(constants.kappa_e)
    mu_e = float(constants.mu_e)
    # qdot = udot = 0; pdot = -kappa_e q; kdot = +mu_e u
    assert np.allclose(out[:4], 0.0, atol=1e-14)
    assert np.allclose(out[4:6], -kappa_e * chart[:2], atol=1e-14)
    assert np.allclose(out[6:8], mu_e * chart[2:4], atol=1e-14)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "field, value",
    [
        ("energy", lambda bad: bad),
        ("velocity", lambda bad: (0.0, bad)),
        ("momentum", lambda bad: (np.array([0.0, 1.0, bad]), np.zeros(3))),
    ],
    ids=["scalar", "vector", "column"],
)
def test_non_finite_state_fields_are_rejected(field, value, bad) -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    with pytest.raises(ValueError, match=field):
        StaticOrbitState(constants=constants, **{field: value(bad)})


def test_an_overflowing_time_evolution_is_rejected() -> None:
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    st = StaticOrbitState(constants=constants, position=(1e10, 0.0), velocity=(0.0, 1.0))
    with pytest.raises(ValueError, match="momentum"):
        time_evolution(st, np.array([0.0, 1.0, 1e300]))
    with pytest.raises(ValueError, match="momentum"):
        time_evolution(st, 1e300)


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


_FACTORS = (("K1", "K2", "P1", "P2", "H"), ("F1", "F2", "Pi1", "Pi2"))


def _random_coefficients(rng: random.Random, names) -> dict[str, float]:
    """Coefficients over six decades, some of them zero."""
    return {
        name: 0.0 if rng.random() < 0.2 else rng.uniform(-2, 2) * 10.0 ** rng.randint(-3, 3)
        for name in names
    }


def _realize_by_exact_adjoint(g: StaticGroupElement, state: StaticOrbitState):
    """``realize`` with each factor's ad_A taken from the exact adjoint matrix."""
    alg = noncentral_algebra()
    alpha = _rotate_dual(alg, state.to_dual(), g.angle)
    for names, values in zip(
        _FACTORS,
        (
            (*g.boost, *g.translation, g.time),
            (*g.f_shift, *g.pi_shift),
        ),
    ):
        coeffs = dict(zip(names, values))
        if not any(coeffs.values()):
            continue
        N = to_float(alg.adjoint_matrix(coeffs))
        E = term = np.eye(alg.dim)
        for k in range(1, alg.dim + 1):
            term = term @ (-N) / k
            if not term.any():
                break
            E = E + term
        alpha = E.T @ alpha
    return StaticOrbitState.from_dual(alpha, state.constants)


def test_float_adjoint_equals_the_exact_adjoint_bit_for_bit() -> None:
    rng = random.Random(1626)
    alg = noncentral_algebra()
    for names in _FACTORS:
        for _ in range(200):
            coeffs = _random_coefficients(rng, names)
            exact = to_float(alg.adjoint_matrix(coeffs))
            assert _adjoint(coeffs).tobytes() == exact.tobytes(), coeffs


def test_realize_equals_the_exact_adjoint_series_bit_for_bit() -> None:
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
        got, want = realize(g, st), _realize_by_exact_adjoint(g, st)
        for name in ("chart_vector", "energy", "angular_momentum"):
            assert np.asarray(getattr(got, name)).tobytes() == (
                np.asarray(getattr(want, name)).tobytes()
            ), name
