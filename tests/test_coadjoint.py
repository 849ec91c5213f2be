from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

import reference_forms as rf
from kinorbit.catalog import KinematicalParams, build
from kinorbit.coadjoint import (
    DegenerateChartError,
    DualPoint,
    OrbitChart,
    casimir_residual,
    classify,
    forward_mode_gradient,
    kirillov_matrix,
    magnetic_fields,
    poisson_bracket,
    restrict,
    standard_orbit,
)
from kinorbit.rational_linalg import RatMatrix, rat_inv, rat_rank

_I4 = RatMatrix.identity(4)


def _random_point(alg, rng: random.Random) -> DualPoint:
    return DualPoint.from_mapping(
        alg,
        {
            name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for name in alg.names
        },
    )


def test_dual_point_round_trip_and_replace() -> None:
    alg = build("G", "central_ext")
    pt = DualPoint.from_mapping(alg, {"M": 2, "S": Fraction(1, 2), "P1": -3})
    assert pt.coordinate("M") == 2
    assert pt.coordinate("K1") == 0
    assert list(pt.coords) == [Fraction(0), 0, -3, 0, 0, 2, Fraction(1, 2)]
    moved = pt.replace(P1=5, H=Fraction(1, 3))
    assert moved.coordinate("P1") == 5
    assert moved.coordinate("H") == Fraction(1, 3)
    assert pt.coordinate("P1") == -3  # original untouched


def test_kirillov_matrix_is_antisymmetric_and_linear() -> None:
    rng = random.Random(404)
    for name, variant in (("dS+", "isotropic"), ("G", "central_ext"), ("S", "noncentral_ext")):
        alg = build(name, variant)
        for _ in range(10):
            p = _random_point(alg, rng)
            q = _random_point(alg, rng)
            Kp = rf.dense(kirillov_matrix(alg, p))
            assert (Kp == -Kp.T).all()
            a, b = Fraction(2, 3), Fraction(-5, 7)
            combo = DualPoint(
                alg,
                tuple(a * x + b * y for x, y in zip(p.coords, q.coords)),
            )
            K_combo = rf.dense(kirillov_matrix(alg, combo))
            assert (K_combo == a * Kp + b * rf.dense(kirillov_matrix(alg, q))).all()


def test_kirillov_matrix_entries_match_structure_constants() -> None:
    alg = build("G", "central_ext")
    pt = DualPoint.from_mapping(alg, {"M": 3, "S": 5, "H": 7})
    K = kirillov_matrix(alg, pt)
    i = {n: alg.index(n) for n in alg.names}
    # [K1, P1] = M  ->  K_{K1,P1} = m
    assert K[i["K1"], i["P1"]] == 3
    assert K[i["K2"], i["P2"]] == 3
    # [K1, K2] = S/c^2 (default first charge, c = 1 here)
    assert K[i["K1"], i["K2"]] == 5
    # [K1, H] = P1 and the P1 coordinate vanishes at this point
    assert K[i["K1"], i["H"]] == 0
    moved = pt.replace(P1=11)
    assert kirillov_matrix(alg, moved)[i["K1"], i["H"]] == 11


def test_restricted_matrices_match_reference_forms() -> None:
    samples = [
        (2, 1, 2, 1, 1),
        (3, Fraction(1, 2), 3, 2, 3),
        (Fraction(5, 2), 2, 3, 1, 2),
    ]
    for m, h, E, omega, kappa in samples:
        for name in ("G", "G'+", "G'-", "S", "C", "NH+", "NH-"):
            orb = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
            if name == "G":
                ref = rf.galilei_omega(m, h, omega, kappa)
            elif name in ("G'+", "G'-"):
                ref = rf.paragalilei_omega(m, h, omega, kappa)
            elif name == "S":
                ref = rf.static_omega(m, h, omega, kappa)
            elif name == "C":
                ref = rf.carroll_omega(E, h, omega, kappa)
            else:
                sign = 1 if name.endswith("+") else -1
                ref = rf.newton_hooke_omega(sign, m, h, omega, kappa)
            assert orb.structure.omega == ref, (name, m, h)
            assert orb.structure.theta == rat_inv(ref), (name, m, h)
            assert orb.structure.omega @ orb.structure.theta == _I4


def test_galilei_theta_closed_form() -> None:
    for m, h in ((2, 1), (3, Fraction(1, 2)), (Fraction(7, 3), 5)):
        orb = standard_orbit("G", m=m, h=h, omega=2, kappa=3)
        assert orb.structure.theta == rf.galilei_theta(m, h, 2, 3)
        orb2 = standard_orbit("G'+", m=m, h=h, omega=2, kappa=3)
        assert orb2.structure.theta == rf.paragalilei_theta(m, h, 2, 3)


def test_static_effective_mass_inverse_candidate_fails() -> None:
    """The effective-mass closed form does NOT invert the Static pairing."""
    for m, h in ((2, 1), (3, 1), (5, Fraction(1, 2))):
        omega = rf.static_omega(m, h, 1, 1)
        claimed = rf.static_claimed_theta(m, h, 1, 1)
        product = claimed @ omega
        assert product != _I4, (m, h)
        true_theta = rat_inv(omega)
        assert claimed != true_theta, (m, h)
        assert true_theta @ omega == _I4
    assert rat_inv(rf.static_omega(2, 1, 1, 1)) == rf.STATIC_TRUE_THETA_SAMPLE
    orb = standard_orbit("S", m=2, h=1)
    assert orb.structure.theta == rf.STATIC_TRUE_THETA_SAMPLE


def test_noncommutativity_fields_match_reference_table() -> None:
    for m, h, E, omega, kappa in ((2, 1, 2, 1, 1), (3, Fraction(1, 2), 3, 2, 3)):
        for name in ("G", "G'+", "G'-", "S", "C", "NH+", "NH-"):
            orb = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
            G, F = rf.expected_fields(name, m, h, E, omega, kappa)
            assert orb.structure.G_field == G, name
            assert orb.structure.F_field == F, name


def test_phase_space_classification_sweep() -> None:
    expected = {
        "G": "position_nc",
        "G'+": "momentum_nc",
        "G'-": "momentum_nc",
        "S": "fully_nc",
        "C": "fully_nc",
        "NH+": "fully_nc",
        "NH-": "fully_nc",
    }
    # an exact field decides the class however small it is
    for name, cls in expected.items():
        for m, h, E in ((2, 1, 2), (1, Fraction(1, 10**14), 1)):
            orb = standard_orbit(name, m=m, h=h, E=E)
            assert orb.phase_space_class == cls, (name, h)
            assert classify(orb.structure) == cls
        flat = standard_orbit(name, m=2, h=0, E=2)
        assert flat.phase_space_class == "canonical", name
        assert flat.structure.G_field == 0
        assert flat.structure.F_field == 0


def test_canonical_cross_brackets() -> None:
    orb = standard_orbit("G", m=2, h=1)
    names = orb.chart.canonical_names
    assert names == ("q1", "q2", "p1", "p2")
    e = lambda k: [Fraction(int(i == names.index(k))) for i in range(4)]
    assert poisson_bracket(orb.structure, e("p1"), e("q1")) == 1
    assert poisson_bracket(orb.structure, e("p2"), e("q2")) == 1
    assert poisson_bracket(orb.structure, e("q1"), e("q2")) == orb.structure.G_field
    assert poisson_bracket(orb.structure, e("p1"), e("p2")) == 0
    assert poisson_bracket(orb.structure, e("p1"), e("q2")) == 0
    # the Static orbit rescales the cross bracket by m/mu_e
    orb_s = standard_orbit("S", m=2, h=1)
    assert poisson_bracket(orb_s.structure, e("p1"), e("q1")) == 2
    # float gradients are converted exactly, so the bracket stays exact
    bracket = poisson_bracket(orb.structure, [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    assert isinstance(bracket, Fraction) and bracket == 1


@pytest.mark.parametrize("length", [6, 8])
@pytest.mark.parametrize(
    "entry_point",
    [
        lambda alg, point: kirillov_matrix(alg, point),
        lambda alg, point: casimir_residual(alg, point, [0] * alg.dim),
        lambda alg, point: restrict(alg, point, OrbitChart(("K1", "K2", "P1", "P2"))),
        lambda alg, point: standard_orbit("G").invariants[0].residual(alg, point),
    ],
    ids=["kirillov_matrix", "casimir_residual", "restrict", "invariant_residual"],
)
def test_a_raw_point_of_the_wrong_length_is_refused(entry_point, length) -> None:
    # a short point used to fail with a bare IndexError, and restrict used to
    # drop the coordinates of a long one
    alg = build("G", "central_ext")
    point = [Fraction(1)] * length
    with pytest.raises(ValueError, match=f"expected 7 dual coordinates, got {length}"):
        entry_point(alg, point)


def test_degenerate_charts_report_rank() -> None:
    # flat massless chart: only the charge pairing survives -> rank 2
    alg = build("G", "central_ext")
    pt = DualPoint.from_mapping(alg, {"M": 0, "S": 1})
    chart = OrbitChart(("K1", "K2", "P1", "P2"))
    with pytest.raises(DegenerateChartError) as err:
        restrict(alg, pt, chart)
    assert err.value.rank == 2
    # vanishing position scale is rejected before any inversion
    with pytest.raises(DegenerateChartError):
        standard_orbit("G", m=0, h=1)


# (orbit, charges at omega = kappa = 1, the scale that vanishes, exact rank
# of the (K1, K2, P1, P2) pairing at the base point)
_VANISHING_SCALES = [
    ("C", {"m": 2, "h": 1, "E": 0}, "E/c^2", 4),
    ("NH+", {"m": 0, "h": 1, "E": 2}, "m", 4),
    ("S", {"m": 1, "h": 1, "E": 2}, "m - kappa^2*h/omega", 2),
    ("G", {"m": 0, "h": 1, "E": 2}, "m", 2),
]


@pytest.mark.parametrize("name, charges, label, rank", _VANISHING_SCALES)
def test_a_vanishing_scale_names_itself_and_the_pairing_rank(name, charges, label, rank) -> None:
    # the rank used to be reported as 0 whatever the pairing
    with pytest.raises(DegenerateChartError) as err:
        standard_orbit(name, **charges)
    assert err.value.rank == rank
    assert f"position scale {label} vanishes" in str(err.value)
    assert f"has rank {rank} of 4 at the base point" in str(err.value)
    alg = build(name, "central_ext")
    values = {"M": charges["m"], "S": charges["h"], "H": charges["E"]}
    point = DualPoint.from_mapping(alg, {g: v for g, v in values.items() if g in alg.names})
    idx = [alg.index(g) for g in ("K1", "K2", "P1", "P2")]
    block = RatMatrix([[kirillov_matrix(alg, point)[i, j] for j in idx] for i in idx])
    assert rat_rank(block) == rank


def test_carroll_chart_degenerates_on_resonance() -> None:
    # the Carroll chart loses rank exactly when E^2 = (h*omega)^2
    with pytest.raises(DegenerateChartError) as err:
        standard_orbit("C", m=2, h=1, E=1, omega=1, kappa=1)
    assert err.value.rank == 2
    with pytest.raises(DegenerateChartError):
        standard_orbit("C", m=2, h=1, E=-2, omega=2, kappa=5)
    # off resonance the chart is fine
    orb = standard_orbit("C", m=2, h=1, E=2, omega=1, kappa=1)
    assert orb.structure.dim == 4


def test_casimir_residuals_are_exactly_zero() -> None:
    rng = random.Random(505)
    for name in ("G", "G'+", "G'-", "S", "C", "NH+", "NH-"):
        orb = standard_orbit(name, m=2, h=1, E=2)
        for inv in orb.invariants:
            for _ in range(5):
                pt = orb.point.replace(
                    **{
                        n: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for n in ("K1", "K2", "P1", "P2")
                    }
                )
                res = inv.residual(orb.algebra, pt)
                assert all(v == 0 for v in res), (name, inv.name)


@pytest.mark.parametrize(
    "fn, exact",
    [
        pytest.param(lambda a: 3 - a[0], lambda x, y: [-1, 0], id="int-minus"),
        pytest.param(lambda a: 1 / a[0], lambda x, y: [-1 / x**2, 0], id="one-over"),
        pytest.param(
            lambda a: Fraction(1, 2) - a[0] * a[1], lambda x, y: [-y, -x], id="fraction-minus"
        ),
        pytest.param(lambda a: a[0] / 2, lambda x, y: [Fraction(1, 2), 0], id="over-int"),
        pytest.param(
            lambda a: (a[0] - 7) / (a[1] * a[1]) + 5 / (2 - a[1]),
            lambda x, y: [1 / y**2, -2 * (x - 7) / y**3 + 5 / (2 - y) ** 2],
            id="mixed",
        ),
    ],
)
def test_forward_mode_partials_over_fractions_are_exact_fractions(fn, exact) -> None:
    for x, y in ((Fraction(2), Fraction(3)), (Fraction(-5, 7), Fraction(11, 13))):
        grad = forward_mode_gradient(fn, [x, y])
        dependent = [i for i, d in enumerate(exact(x, y)) if d != 0]
        assert grad == exact(x, y)
        assert all(isinstance(grad[i], Fraction) for i in dependent)


def test_finite_difference_matches_analytic_gradient() -> None:
    rng = random.Random(606)
    orb = standard_orbit("G", m=2, h=1)
    energy = next(i for i in orb.invariants if i.name == "internal_energy")
    for _ in range(10):
        pt = orb.point.replace(
            **{
                n: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for n in ("K1", "K2", "P1", "P2")
            }
        )
        coords = [float(v) for v in pt.coords]
        fd = rf.finite_difference_gradient(lambda a: float(energy.value(a)), coords)
        analytic = np.asarray(
            [float(v) for v in energy.gradient(pt.coords)], dtype=float
        )
        assert np.max(np.abs(fd - analytic)) < 1e-8


def test_finite_difference_gradient_on_polynomial() -> None:
    def fn(a):
        return a[0] ** 3 + 2.0 * a[0] * a[1] - a[2] ** 2

    grad = rf.finite_difference_gradient(fn, [1.5, -2.0, 3.0])
    expected = np.array([3 * 1.5**2 - 4.0, 3.0, -6.0])
    assert np.max(np.abs(grad - expected)) < 1e-7


_PINNED_INVARIANTS = {
    "G": ("internal_energy", "mass", "second_charge"),
    "G'+": ("internal_energy", "mass", "second_charge"),
    "G'-": ("internal_energy", "mass", "second_charge"),
    "S": ("energy", "mass", "second_charge"),
    "C": ("energy", "second_charge"),
    "NH+": ("mass", "second_charge"),
    "NH-": ("mass", "second_charge"),
}


def test_standard_orbits_keep_their_point_invariants_masses_and_scale() -> None:
    rng = random.Random(2206)
    checked = {name: 0 for name in _PINNED_INVARIANTS}
    for _ in range(12):
        m, h, E = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                   for _ in range(3))
        omega, kappa = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
        inv_c2 = kappa**2 / omega**2
        for name, invariants in _PINNED_INVARIANTS.items():
            try:
                orb = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
            except DegenerateChartError:
                continue
            assert tuple(i.name for i in orb.invariants) == invariants, name
            values = {"M": m, "S": h, "H": E}
            assert orb.point.coords == tuple(values.get(g, 0) for g in orb.algebra.names)
            masses = {"m": E * inv_c2 if name == "C" else m, "h": h}
            if name == "S":
                masses["mu_e"] = m - kappa**2 * h / omega
            assert orb.masses == masses, name
            scale = masses.get("mu_e", masses["m"])
            diagonal = (1 / scale, 1 / scale, 1, 1)
            assert orb.chart.jacobian == RatMatrix(
                [[d if i == j else 0 for j in range(4)] for i, d in enumerate(diagonal)]
            ), name
            assert orb.chart.coordinate_names == ("K1", "K2", "P1", "P2")
            checked[name] += 1
    assert min(checked.values()) >= 8, checked


def test_naive_energy_is_not_a_casimir_for_newton_hooke() -> None:
    orb = standard_orbit("NH+", m=2, h=1)
    assert {i.name for i in orb.invariants} == {"mass", "second_charge"}
    pt = orb.point.replace(P1=3, K2=Fraction(1, 2))
    grad_H = [Fraction(int(n == "H")) for n in orb.algebra.names]
    res = casimir_residual(orb.algebra, pt, grad_H)
    assert any(v != 0 for v in res)
    # a float gradient is converted exactly, so the residual stays exact
    float_res = casimir_residual(orb.algebra, pt, [float(g) for g in grad_H])
    assert float_res == res


def test_galilei_internal_energy_value() -> None:
    orb = standard_orbit("G", m=2, h=1)
    pt = orb.point.replace(P1=4, P2=2, H=7)
    energy = next(i for i in orb.invariants if i.name == "internal_energy")
    # U = E - p^2/(2m) = 7 - 20/4 = 2
    assert energy.value(pt.coords) == 2
    res = energy.residual(orb.algebra, pt)
    assert all(v == 0 for v in res)


def test_paragalilei_internal_energy_value() -> None:
    plus = standard_orbit("G'+", m=2, h=1, omega=3)
    pt = plus.point.replace(K1=4, K2=2, H=7)
    energy = next(i for i in plus.invariants if i.name == "internal_energy")
    # U = E + omega^2 k^2/(2m) = 7 + 9*20/4 = 52
    assert energy.value(pt.coords) == 52
    minus = standard_orbit("G'-", m=2, h=1, omega=3)
    pt2 = minus.point.replace(K1=4, K2=2, H=7)
    energy2 = next(i for i in minus.invariants if i.name == "internal_energy")
    assert energy2.value(pt2.coords) == -38
    for inv, orbit, point in ((energy, plus, pt), (energy2, minus, pt2)):
        assert all(v == 0 for v in inv.residual(orbit.algebra, point))


def test_magnetic_couplings_three_families() -> None:
    # Galilei: only the dual (position-sector) magnetic scalar survives
    g = standard_orbit("G", m=2, h=1)
    mg = g.magnetic
    assert mg.e_star_B_star == Fraction(-1, 4)
    assert mg.eB == 0
    assert mg.eB_from_brackets == 0
    assert mg.omega0 == 2
    assert mg.effective_mass == 2
    # para-Galilei: only the momentum-sector magnetic scalar survives
    pg = standard_orbit("G'+", m=2, h=1)
    mpg = pg.magnetic
    assert mpg.e_star_B_star == Fraction(-1, 4)
    assert mpg.eB == -1
    assert mpg.eB_from_brackets == -1
    # Static: the effective-mass reading and the bracket reading disagree
    s = standard_orbit("S", m=2, h=1)
    ms = s.magnetic
    assert ms.effective_mass == 1  # mu_e = m - kappa^2 h/omega = 1
    assert ms.eB == 1  # (m - mu_e)*omega
    assert ms.eB_from_brackets == -1  # {p1, p2} = F = -kappa^2 h
    assert ms.eB != ms.eB_from_brackets
    assert ms.e_star_B_star == Fraction(-1, 4)


def test_magnetic_couplings_require_mass() -> None:
    orb = standard_orbit("G", m=2, h=1)
    params = KinematicalParams.for_algebra("G")
    with pytest.raises(ValueError):
        magnetic_fields(orb.structure, params, {"m": 0, "h": 1})
    flat = magnetic_fields(orb.structure, params, {"m": 2, "h": 0})
    assert flat.omega0 is None
    assert flat.e_star_B_star == 0


def test_orbit_chart_validation() -> None:
    with pytest.raises(ValueError):
        OrbitChart(("a", "b"), ("x",))
    with pytest.raises(ValueError):
        OrbitChart(("a", "b"), ("x", "y"), ((1,),))
    chart = standard_orbit("G", m=2).chart
    assert chart.coordinate_names == ("K1", "K2", "P1", "P2")
    assert chart.canonical_names == ("q1", "q2", "p1", "p2")
    assert chart.jacobian[0, 0] == Fraction(1, 2)
    assert chart.jacobian[2, 2] == 1
    identity = OrbitChart(("x", "y"))
    assert identity.jacobian == RatMatrix.identity(2)
    # a singular J would give degenerate canonical brackets
    names = ("K1", "K2", "P1", "P2")
    rank_three = ((1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for jacobian, rank in ((((0,) * 4,) * 4, 0), (rank_three, 3)):
        with pytest.raises(ValueError, match=rf"\(rank {rank} < 4\)"):
            OrbitChart(names, ("q1", "q2", "p1", "p2"), jacobian)


def test_standard_orbit_rejects_unknown_name() -> None:
    with pytest.raises(Exception):
        standard_orbit("dS+")


def test_fixed_coordinates_record_off_chart_values() -> None:
    orb = standard_orbit("G", m=2, h=1)
    fixed = dict(orb.structure.fixed_coordinates)
    assert fixed["M"] == 2
    assert fixed["S"] == 1
    assert fixed["H"] == 0
    assert set(fixed) == set(orb.algebra.names) - {"K1", "K2", "P1", "P2"}
