"""Acceptance suite: nine end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line so the run log doubles as an
acceptance report.  Tolerances are fixed here and must not be loosened.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

import reference_forms as rf
from kinorbit.catalog import build, list_catalog
from kinorbit.coadjoint import (
    DualPoint,
    classify,
    darboux_map,
    kirillov_matrix,
    standard_orbit,
)
from kinorbit.mechanics import (
    CANONICAL_BRACKET_MATRIX,
    HamiltonianSpec,
    NCPhaseSpace2D,
    integrate,
    linear_system,
)
from kinorbit.rational_linalg import RatMatrix, congruence, rat_inv
from kinorbit.records import CatalogError
from kinorbit.static_group import (
    StaticConstants,
    StaticGroupElement,
    StaticOrbitState,
    compose,
    evolution_hamiltonian,
    noncentral_algebra,
    noncentral_invariants,
    realize,
    static_invariants,
    static_symplectic,
    time_evolution,
)

_ORBIT_FAMILIES = ("G", "G'+", "G'-", "S", "C", "NH+", "NH-")


def _report(name: str, ok: bool) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c1_exact_jacobi_closure_for_the_whole_catalog() -> None:
    rng = random.Random(20260823)
    start = time.perf_counter()
    checked = 0
    ok = True
    for rec in list_catalog():
        for _ in range(5):
            alg = build(
                rec.name,
                rec.variant,
                omega=Fraction(rng.randint(1, 12), rng.randint(1, 12)),
                kappa=Fraction(rng.randint(1, 12), rng.randint(1, 12)),
            )
            ok = ok and alg.jacobi_violations() == []
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 160 and elapsed < 1.0
    _report("C1 exact Jacobi closure, 160 catalog samples under 1s", ok)


def test_c2_central_extension_admissibility_and_forced_violation() -> None:
    def accepts(name, mu, alpha, omega=1, kappa=1):
        try:
            build(name, "central_ext", omega=omega, kappa=kappa, mu_charge=mu,
                  alpha_charge=alpha)
        except CatalogError:
            return False
        return True

    def table(alg):
        return alg.names, [(pair, dict(comps)) for pair, comps in alg.pair_table()]

    ok = True
    # bullet 1: relative-space families tie the two charges together,
    # with the sign of the tie following the curvature sign
    ok = ok and accepts("NH+", 1, -1) and not accepts("NH+", 1, 1)
    ok = ok and accepts("NH-", 1, 1) and not accepts("NH-", 1, -1)
    # bullet 2: relative-space flat case forces the second charge to zero
    ok = ok and accepts("G", 3, 0) and not accepts("G", 3, Fraction(1, 5))
    # bullet 3: absolute-space curved case forces the first charge to zero
    ok = ok and accepts("G'+", 0, 2) and not accepts("G'+", 1, 2)
    # bullet 4: absolute-space flat case leaves both charges free
    ok = ok and accepts("S", 4, -7) and accepts("C", 4, -7)
    # defaults per family: the table at the reference charges
    for name, (mu, alpha) in rf.DEFAULT_CENTRAL_CHARGES.items():
        for omega, kappa in ((1, 1), (Fraction(2, 3), Fraction(5, 7))):
            built = build(name, "central_ext", omega=omega, kappa=kappa)
            forged = rf.central_ext_table(name, omega, kappa, mu, alpha)
            ok = ok and table(built) == table(forged)
    # refusal names the pinned exact violation of the forced table
    for omega, kappa in ((1, 1), (2, 3), (Fraction(1, 2), Fraction(5, 7))):
        k2 = Fraction(kappa) ** 2
        expected = [
            (("K1", "P2", "H"), (("S", 2 * k2),)),
            (("K2", "P1", "H"), (("S", -2 * k2),)),
        ]
        forced = rf.central_ext_table("NH+", omega, kappa, 1, 1)
        got = [(v.triple, v.residual) for v in forced.jacobi_violations()]
        ok = ok and got == expected
        try:
            build("NH+", "central_ext", omega=omega, kappa=kappa, mu_charge=1, alpha_charge=1)
            ok = False
        except CatalogError as err:
            ok = ok and str(err).endswith(f"fails on (K1, P2, H) with residual S = {2 * k2}")
    _report("C2 admissibility rules, defaults and pinned forced violation", ok)


def test_c3_restricted_matrix_fidelity() -> None:
    ok = True
    samples = [
        (2, 1, 2, 1, 1),
        (3, Fraction(1, 2), 3, 2, 3),
        (Fraction(5, 2), 2, 3, 1, 2),
    ]
    for m, h, E, omega, kappa in samples:
        for name in _ORBIT_FAMILIES:
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
                ref = rf.newton_hooke_omega(
                    1 if name.endswith("+") else -1, m, h, omega, kappa
                )
            ok = ok and orb.structure.omega == ref
            ok = ok and orb.structure.theta == rat_inv(ref)
    # the effective-mass closed form fails to invert the Static pairing
    for m, h in ((2, 1), (3, 1), (5, Fraction(1, 2))):
        omega_mat = rf.static_omega(m, h, 1, 1)
        claimed = rf.static_claimed_theta(m, h, 1, 1)
        ok = ok and claimed @ omega_mat != RatMatrix.identity(4)
    ok = ok and rat_inv(rf.static_omega(2, 1, 1, 1)) == rf.STATIC_TRUE_THETA_SAMPLE
    # the eight-dimensional extended chart inverts in closed form
    for m, mu, beta, kappa in ((1, 2, 1, 1), (2, 3, 1, 2), (Fraction(1, 2), 1, Fraction(1, 3), 1)):
        constants = StaticConstants(m=m, mu=mu, beta=beta, kappa=kappa)
        from kinorbit.static_group import static_symplectic

        s = static_symplectic(constants)
        ok = ok and s.omega == rf.noncentral_static_omega(m, mu, beta, kappa)
        ok = ok and s.theta == rf.noncentral_static_theta(m, mu, beta, kappa)
        ok = ok and s.omega @ s.theta == RatMatrix.identity(8)
    _report("C3 restricted pairing matrices match closed forms exactly", ok)


def test_c4_casimir_residuals_analytic_and_finite_difference() -> None:
    rng = random.Random(424242)
    ok = True
    chart_names = ("K1", "K2", "P1", "P2")
    for name in _ORBIT_FAMILIES:
        orb = standard_orbit(name, m=2, h=1, E=2)
        has_h = "H" in orb.algebra.names
        for _ in range(100):
            updates = {
                n: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for n in chart_names
            }
            if has_h:
                updates["H"] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            pt = orb.point.replace(**updates)
            for inv in orb.invariants:
                res = inv.residual(orb.algebra, pt)
                ok = ok and all(v == 0 for v in res)
                ok = ok and max(abs(float(v)) for v in res) <= 1e-12
        # finite-difference cross-check on a lighter sample
        for _ in range(10):
            updates = {
                n: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                for n in chart_names
            }
            pt = orb.point.replace(**updates)
            coords = np.array([float(v) for v in pt.coords])
            K = np.array(kirillov_matrix(orb.algebra, pt), dtype=float)
            for inv in orb.invariants:
                fd = rf.finite_difference_gradient(
                    lambda a: float(inv.value(a)), coords
                )
                ok = ok and float(np.max(np.abs(K @ fd))) <= 1e-8
    # the noncentral extension invariants, with charges mu=2, beta=1, kappa=1
    alg = noncentral_algebra()
    invs = noncentral_invariants()
    for _ in range(100):
        values = {
            n: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for n in alg.names
        }
        values.update({"M'": Fraction(2), "B": Fraction(1), "Lambda": Fraction(1)})
        pt = DualPoint.from_mapping(alg, values)
        for inv in invs:
            res = inv.residual(alg, pt)
            ok = ok and all(v == 0 for v in res)
    for _ in range(10):
        values = {
            n: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for n in alg.names
        }
        values.update({"M'": Fraction(2), "B": Fraction(1), "Lambda": Fraction(1)})
        pt = DualPoint.from_mapping(alg, values)
        coords = np.array([float(v) for v in pt.coords])
        K = np.array(kirillov_matrix(alg, pt), dtype=float)
        for inv in invs:
            fd = rf.finite_difference_gradient(lambda a: float(inv.value(a)), coords)
            ok = ok and float(np.max(np.abs(K @ fd))) <= 1e-8
    _report("C4 Casimir residuals: analytic <= 1e-12 (exact), FD <= 1e-8", ok)


def test_c5_phase_space_classification_sweep() -> None:
    expected = {
        "G": "position_nc",
        "G'+": "momentum_nc",
        "G'-": "momentum_nc",
        "S": "fully_nc",
        "C": "fully_nc",
        "NH+": "fully_nc",
        "NH-": "fully_nc",
    }
    ok = True
    for name, want in expected.items():
        orb = standard_orbit(name, m=2, h=1, E=2)
        ok = ok and orb.phase_space_class == want
        ok = ok and classify(orb.structure) == want
        flat = standard_orbit(name, m=2, h=0, E=2)
        ok = ok and flat.phase_space_class == "canonical"
    _report("C5 classification sweep matches the phase-space taxonomy", ok)


def test_c6_position_noncommutativity_preserves_newtons_law() -> None:
    # Galilei orbit fields: G = -1/4, F = 0 at m=2, h=1
    orb = standard_orbit("G", m=2, h=1)
    space = NCPhaseSpace2D(
        G_field=orb.structure.G_field,
        F_field=orb.structure.F_field,
        mass=Fraction(2),
    )
    ham = HamiltonianSpec(linear=(0.7, -0.3))
    dt = 1e-2
    traj = integrate(space, ham, [0.1, -0.2, 0.4, 0.9], t_end=4.0, dt=dt)
    q = traj.states[:, :2]
    # five-point second-derivative stencil at the interior grid times
    qdd = (
        -q[:-4] + 16 * q[1:-3] - 30 * q[2:-2] + 16 * q[3:-1] - q[4:]
    ) / (12 * dt * dt)
    force = -np.array(ham.linear) / float(space.mass)
    residual = float(np.max(np.abs(qdd - force)))
    ok = residual <= 1e-10
    _report(
        "C6 linear-potential acceleration equals force/mass within 1e-10", ok
    )


def test_c7_momentum_noncommutativity_gives_a_lorentz_like_force() -> None:
    # para-Galilei orbit fields: G = 0, F = -1 at m=2, h=1
    orb = standard_orbit("G'+", m=2, h=1)
    m = 2.0
    space = NCPhaseSpace2D(
        G_field=orb.structure.G_field,
        F_field=orb.structure.F_field,
        mass=Fraction(2),
    )
    ham = HamiltonianSpec(linear=(0.2, -0.1), quadratic=(0.8, 0.1, 0.5))
    dt = 1e-3
    traj = integrate(space, ham, [0.3, -0.1, 0.5, 0.2], t_end=10.0, dt=dt)
    assert len(traj.times) == 10_001
    q = traj.states[:, :2]
    p = traj.states[:, 2:]
    qdd = (
        -q[:-4] + 16 * q[1:-3] - 30 * q[2:-2] + 16 * q[3:-1] - q[4:]
    ) / (12 * dt * dt)
    interior = slice(2, -2)
    grad_v = np.stack(
        [rf.potential_gradient(ham, qi) for qi in q[interior]], axis=0
    )
    eB = float(space.F_field)
    magnetic = eB * np.stack(
        [p[interior, 1] / m, -p[interior, 0] / m], axis=1
    )
    residual = float(np.max(np.abs(m * qdd - (-grad_v + magnetic))))
    ok = residual <= 1e-8
    # matrix-exponential cross-check of the full affine flow
    A, b = linear_system(space, ham)
    aug = np.zeros((5, 5))
    aug[:4, :4] = A
    aug[:4, 4] = b
    z0 = np.append(np.array([0.3, -0.1, 0.5, 0.2]), 1.0)
    closed = expm(aug * 10.0) @ z0
    ok = ok and float(np.max(np.abs(closed[:4] - traj.final_state))) <= 1e-8
    _report(
        "C7 magnetic-type force law and expm cross-check within 1e-8", ok
    )


def test_c8_group_law_action_and_invariants() -> None:
    rng = random.Random(787878)
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)

    def vec():
        return (rng.uniform(-2, 2), rng.uniform(-2, 2))

    def element():
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

    def state():
        return StaticOrbitState(
            constants=constants,
            position=vec(),
            velocity=vec(),
            momentum=vec(),
            boost_momentum=vec(),
            energy=rng.uniform(-2, 2),
            angular_momentum=rng.uniform(-2, 2),
        )

    def elem_gap(a, b):
        parts = [abs(a.angle - b.angle), abs(a.time - b.time)]
        for attr in ("phase_m", "phase_mprime", "phase_b", "phase_lambda"):
            parts.append(abs(getattr(a, attr) - getattr(b, attr)))
        for attr in ("boost", "translation", "f_shift", "pi_shift"):
            va, vb = getattr(a, attr), getattr(b, attr)
            parts += [abs(va[0] - vb[0]), abs(va[1] - vb[1])]
        return max(parts)

    def state_gap(a, b):
        return float(
            max(
                np.max(np.abs(np.asarray(a.chart_vector) - np.asarray(b.chart_vector))),
                abs(a.energy - b.energy),
                abs(a.angular_momentum - b.angular_momentum),
            )
        )

    ok = True
    for _ in range(200):
        g1, g2, g3 = element(), element(), element()
        ok = ok and elem_gap(
            compose(compose(g1, g2), g3), compose(g1, compose(g2, g3))
        ) <= 1e-10
        st = state()
        ok = ok and state_gap(
            realize(compose(g1, g2), st), realize(g1, realize(g2, st))
        ) <= 1e-10
        before = static_invariants(st)
        after = static_invariants(realize(g1, st))
        ok = ok and abs(before[0] - after[0]) <= 1e-9
        ok = ok and abs(before[1] - after[1]) <= 1e-9
    # closed-form time evolution against the numerical integrator
    st = state()
    t_end = 3.0
    evolved = time_evolution(st, t_end)
    theta = static_symplectic(constants).canonical_theta
    _, states = rf.increment_loop(
        *evolution_hamiltonian(constants).system(theta), st.chart_vector, t_end=t_end, dt=1e-2,
    )
    ok = ok and float(np.max(np.abs(states[-1] - evolved.chart_vector))) <= 1e-10
    _report(
        "C8 group law, coadjoint action and invariants within tolerance", ok
    )


def test_c9_minimal_coupling_bracket_tables_are_exact() -> None:
    rng = random.Random(999)
    ok = True

    def coupled(orbit) -> RatMatrix:
        return congruence(darboux_map(orbit.structure), CANONICAL_BRACKET_MATRIX)

    # pinned maps: q2 = Q2 + P1 on G, p2 = P2 - Q1 on G'+
    position = standard_orbit("G", m=1, h=1)
    ok = ok and darboux_map(position.structure) == RatMatrix(
        [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    ok = ok and coupled(position) == rf.coupled_position_brackets(1, 1)
    momentum = standard_orbit("G'+", m=1, h=1, omega=1)
    ok = ok and darboux_map(momentum.structure) == RatMatrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 1]]
    )
    ok = ok and coupled(momentum) == rf.coupled_momentum_brackets(1, 1, 1)
    # random rational draws, exact equality required
    for _ in range(25):
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        w0 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        position = standard_orbit("G", m=m, h=m / w0)
        ok = ok and position.magnetic.omega0 == w0
        ok = ok and coupled(position) == rf.coupled_position_brackets(m, w0)
        for name in ("G'+", "G'-"):
            momentum = standard_orbit(name, m=m, h=m * w**2 / w0, omega=w)
            ok = ok and momentum.magnetic.omega0 == w0
            ok = ok and coupled(momentum) == rf.coupled_momentum_brackets(m, w, w0)
    _report("C9 minimal-coupling bracket tables are exactly reproduced", ok)
