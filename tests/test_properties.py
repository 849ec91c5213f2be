"""Property tests over random rational parameters and dual points.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples and none is replayed from an earlier run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from test_static_group import _element_distance, _state_distance

import reference_forms as rf
from kinorbit.algebra_core import StructureConstants, _jacobi_plan
from kinorbit.catalog import (
    CENTRAL_EXTENSION_NAMES,
    STANDARD_ORBIT_NAMES,
    build,
    generator_label,
    list_catalog,
)
from kinorbit.cli import main
from kinorbit.coadjoint import (
    DegenerateChartError,
    DualPoint,
    OrbitChart,
    OrbitInvariant,
    SymplecticStructure,
    _template_deviates,
    casimir_residual,
    classify,
    darboux_map,
    forward_mode_gradient,
    kirillov_matrix,
    poisson_bracket,
    restrict,
    standard_orbit,
)
from kinorbit.mechanics import (
    CANONICAL_BRACKET_MATRIX,
    HamiltonianSpec,
    NCPhaseSpace2D,
    QuadraticHamiltonian,
    _bracket_rows,
    integrate,
    linear_system,
    planar_flow,
    propagator,
    trajectory_rows,
)
from kinorbit.rational_linalg import (
    RatMatrix,
    SingularMatrixError,
    congruence,
    rat_inv,
    rat_rank,
)
from kinorbit.records import CatalogError, checked_float
from kinorbit.static_group import (
    StaticConstants,
    StaticGroupElement,
    StaticOrbitState,
    compose,
    evolution_hamiltonian,
    evolution_rows,
    identity_element,
    inverse,
    noncentral_algebra,
    noncentral_invariants,
    realize,
    static_invariants,
    static_symplectic,
    time_evolution,
)
from kinorbit.timegrid import IntegrationError, grid_times

_REPEATABLE = settings(
    derandomize=True, database=None, deadline=None, max_examples=50
)
# Without the explain phase, which traces the lines that only failing
# examples run: on the exact kernels that tracing is most of the time a
# failure takes to report.
_NO_EXPLAIN = tuple(phase for phase in Phase if phase is not Phase.explain)


def _fractions(numerators) -> st.SearchStrategy:
    return st.builds(Fraction, numerators, st.integers(1, 9))


_rationals = _fractions(st.integers(-9, 9))
_nonzero = _fractions(st.integers(-9, 9).filter(bool))
_positive = _fractions(st.integers(1, 9))
_dual_points = st.lists(_rationals, min_size=14, max_size=14)
# numerators and denominators of up to 40 digits
_large = st.builds(Fraction, st.integers(-(10**40), 10**40).filter(bool), st.integers(1, 10**40))
# nonzero rationals over eighteen decades
_scales = st.builds(lambda f, e: f * Fraction(10) ** e, _nonzero, st.integers(-9, 9))


@_REPEATABLE
@given(
    omega=_positive,
    kappa=_positive,
    m=_nonzero,
    h=_rationals,
    E=_rationals,
    coords=_dual_points,
)
def test_standard_orbit_invariants_have_exactly_zero_residual(
    omega, kappa, m, h, E, coords
) -> None:
    checked = 0
    for name in STANDARD_ORBIT_NAMES:
        try:
            orbit = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
        except DegenerateChartError:
            continue
        # every coordinate random except the mass the invariants divide by
        point = orbit.point.replace(
            **{n: c for n, c in zip(orbit.algebra.names, coords) if n != "M"}
        )
        for invariant in orbit.invariants:
            residual = invariant.residual(orbit.algebra, point)
            assert all(r == 0 for r in residual), (name, invariant.name)
        # the coordinate invariants are the duals of the generators in no
        # bracket: at the coordinates 0, 1, 2, ... each returns its index
        alg = orbit.algebra
        center = [i for i in range(alg.dim)
                  if not any(alg.bracket_targets(i, j) for j in range(alg.dim))]
        coordinates = [inv for inv in orbit.invariants if inv.name != "internal_energy"]
        assert [inv.value(range(alg.dim)) for inv in coordinates] == center, name
        structure = orbit.structure
        assert structure.omega @ structure.theta == RatMatrix.identity(structure.dim), name
        checked += 1
    assert checked


@_REPEATABLE
@given(omega=_positive, kappa=_positive, m=_nonzero, h=_rationals, E=_rationals, s=_scales)
def test_classify_does_not_depend_on_the_position_scale(
    omega, kappa, m, h, E, s
) -> None:
    inv = 1 / s
    jacobian = ((inv, 0, 0, 0), (0, inv, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    chart = OrbitChart(("K1", "K2", "P1", "P2"), ("q1", "q2", "p1", "p2"), jacobian)
    checked = 0
    for name in STANDARD_ORBIT_NAMES:
        try:
            orbit = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
        except DegenerateChartError:
            continue
        rescaled = restrict(orbit.algebra, orbit.point, chart)
        assert classify(rescaled) == classify(orbit.structure), (name, s)
        checked += 1
    assert checked


@_REPEATABLE
@given(mu=_rationals, beta=_rationals, kappa=_rationals, coords=_dual_points)
def test_noncentral_invariants_have_exactly_zero_residual(
    mu, beta, kappa, coords
) -> None:
    assume(mu * kappa != beta * beta)
    algebra = noncentral_algebra()
    values = dict(zip(algebra.names, coords))
    values.update({"M'": mu, "B": beta, "Lambda": kappa})
    point = DualPoint.from_mapping(algebra, values)
    for invariant in noncentral_invariants():
        residual = invariant.residual(algebra, point)
        assert all(r == 0 for r in residual), invariant.name


# -- sparse exact kernels against their dense references ---------------------
#
# The kernels walk only nonzero structure constants, coordinates, gradient
# and Jacobian entries; the dense forms below are the products they replace.

_CATALOG_ALGEBRAS = [
    build(record.name, record.variant, omega=Fraction(2, 3), kappa=Fraction(5, 7))
    for record in list_catalog()
]
# mostly zero, as dual points, gradients and pairing matrices are
_sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), _rationals)


def _vectors_of(n: int) -> st.SearchStrategy:
    return st.lists(_sparse_rationals, min_size=n, max_size=n)


@_REPEATABLE
@given(algebra=st.sampled_from(_CATALOG_ALGEBRAS), as_float=st.booleans(), data=st.data())
def test_casimir_residual_equals_the_dense_product(algebra, as_float, data) -> None:
    point = data.draw(_vectors_of(algebra.dim), label="point")
    grad = data.draw(_vectors_of(algebra.dim), label="grad")
    if as_float:
        grad = [float(g) for g in grad]
    K = rf.dense(kirillov_matrix(algebra, point))
    assert (K == rf.structure_tensor(algebra) @ rf.dense(point)).all()
    residual = casimir_residual(algebra, point, grad)
    assert len(residual) == algebra.dim
    assert all(isinstance(r, Fraction) for r in residual)
    assert (rf.dense(residual) == K @ rf.dense(grad)).all()


def _all_fractions(*matrices) -> bool:
    return all(isinstance(x, Fraction) for matrix in matrices for row in matrix for x in row)


@settings(_REPEATABLE, max_examples=100)
@given(algebra=st.sampled_from(_CATALOG_ALGEBRAS), data=st.data())
def test_restrict_is_the_dense_kirillov_block_on_any_chart(algebra, data) -> None:
    # an ordered subset of 2-8 directions at a point with no zero coordinate;
    # odd charts, central directions and the Casimirs make most blocks singular
    size = data.draw(st.integers(2, min(8, algebra.dim)), label="size")
    names = data.draw(st.permutations(algebra.names), label="order")[:size]
    point = data.draw(st.lists(_nonzero, min_size=algebra.dim, max_size=algebra.dim), label="point")
    K = rf.structure_tensor(algebra) @ rf.dense(point)
    idx = [algebra.index(name) for name in names]
    block = RatMatrix(K[np.ix_(idx, idx)].tolist())
    chart = OrbitChart(tuple(names))
    try:
        structure = restrict(algebra, point, chart)
    except DegenerateChartError as exc:
        assert exc.rank == rat_rank(block) < size
        return
    assert structure.omega == block
    assert structure.theta @ block == RatMatrix.identity(size)
    assert (rf.dense(structure.canonical_theta) == -rf.dense(block)).all()
    assert _all_fractions(structure.omega, structure.theta, structure.canonical_theta)


def _dense_canonical_theta(structure) -> np.ndarray:
    jac = rf.dense(structure.chart.jacobian)
    return jac @ (-rf.dense(structure.omega)) @ jac.T


@_REPEATABLE
@given(omega=_positive, kappa=_positive, m=_nonzero, h=_rationals, E=_rationals, data=st.data())
def test_canonical_theta_equals_the_dense_congruence(omega, kappa, m, h, E, data) -> None:
    checked = 0
    for name in STANDARD_ORBIT_NAMES:
        try:
            orbit = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
        except DegenerateChartError:
            continue
        structure = orbit.structure
        assert _all_fractions(structure.omega, structure.theta, structure.canonical_theta)
        dense_theta = rf.dense(structure.canonical_theta)
        assert (dense_theta == _dense_canonical_theta(structure)).all(), name
        grad_a, grad_b = (data.draw(_vectors_of(4)) for _ in range(2))
        dense = rf.dense(grad_a) @ dense_theta @ rf.dense(grad_b)
        assert poisson_bracket(structure, grad_a, grad_b) == dense, name
        checked += 1
    assert checked


@_REPEATABLE
@given(m=_rationals, mu=_nonzero, beta=_rationals, kappa=_nonzero, E=_rationals, J=_rationals)
def test_static_canonical_theta_equals_the_dense_congruence(m, mu, beta, kappa, E, J) -> None:
    assume(mu * kappa != beta * beta)
    structure = static_symplectic(StaticConstants(m=m, mu=mu, beta=beta, kappa=kappa), E, J)
    assert (rf.dense(structure.canonical_theta) == _dense_canonical_theta(structure)).all()
    assert _all_fractions(structure.omega, structure.theta, structure.canonical_theta)


@_REPEATABLE
@given(m=_rationals, mu=_nonzero, beta=_rationals, kappa=_nonzero, E=_rationals, J=_rationals)
def test_the_static_chart_rates_are_those_time_evolution_writes(m, mu, beta, kappa, E, J) -> None:
    # A = theta Q and b = theta g of the evolution Hamiltonian, exactly: only
    # p' = -kappa_e q and k' = mu_e u, the rates time_evolution and
    # evolution_rows write by hand
    assume(mu * kappa != beta * beta)
    constants = StaticConstants(m=m, mu=mu, beta=beta, kappa=kappa)
    hamiltonian = evolution_hamiltonian(constants)
    theta = static_symplectic(constants, E, J).canonical_theta
    A = theta @ RatMatrix(hamiltonian.hessian)
    b = theta @ RatMatrix([[g] for g in hamiltonian.gradient])
    # chart order (q1, q2, u1, u2, p1, p2, k1, k2)
    rates = {(4, 0): -constants.kappa_e, (5, 1): -constants.kappa_e,
             (6, 2): constants.mu_e, (7, 3): constants.mu_e}
    assert [[A[i, j] for j in range(8)] for i in range(8)] == [
        [rates.get((i, j), 0) for j in range(8)] for i in range(8)
    ]
    assert [b[i, 0] for i in range(8)] == [0] * 8


def _dense_template_deviates(structure) -> bool:
    """The canonical brackets differ from a G/F template built as a dense array."""
    names = structure.chart.canonical_names
    theta = structure.canonical_theta
    expected = np.full(theta.shape, Fraction(0), dtype=object)
    if {"q1", "q2", "p1", "p2"}.issubset(names):
        iq1, iq2 = names.index("q1"), names.index("q2")
        ip1, ip2 = names.index("p1"), names.index("p2")
        expected[iq1, iq2] = structure.G_field
        expected[iq2, iq1] = -structure.G_field
        expected[ip1, ip2] = structure.F_field
        expected[ip2, ip1] = -structure.F_field
        cross = theta[ip1, iq1]
        for ip, iq in ((ip1, iq1), (ip2, iq2)):
            expected[ip, iq] = cross
            expected[iq, ip] = -cross
    return bool(np.any(rf.dense(theta) != expected))


_TEMPLATE_CHARTS = (
    OrbitChart(("K1", "K2", "P1", "P2"), ("q1", "q2", "p1", "p2")),
    OrbitChart(("P1", "K1", "P2", "K2"), ("p1", "q1", "p2", "q2")),
    OrbitChart(("P1", "P2", "K1", "K2", "F1", "F2", "Pi1", "Pi2"),
               ("q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2")),
    OrbitChart(("K1", "K2", "P1", "P2")),
)


@_REPEATABLE
@given(chart=st.sampled_from(_TEMPLATE_CHARTS), data=st.data())
def test_template_check_equals_the_dense_template(chart, data) -> None:
    n = chart.dim
    names = chart.canonical_names
    theta = np.full((n, n), Fraction(0), dtype=object)
    # a G/F template with a uniform cross bracket, then a few random entries
    if {"q1", "q2", "p1", "p2"}.issubset(names):
        g, f, cross = (data.draw(_sparse_rationals) for _ in range(3))
        (iq1, iq2), (ip1, ip2) = (
            (names.index(a), names.index(b)) for a, b in (("q1", "q2"), ("p1", "p2"))
        )
        for (a, b), value in {
            (iq1, iq2): g, (ip1, ip2): f, (ip1, iq1): cross, (ip2, iq2): cross,
        }.items():
            theta[a, b], theta[b, a] = value, -value
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _sparse_rationals)
    for a, b, value in data.draw(st.lists(pairs, max_size=2)):
        if a != b:
            theta[a, b], theta[b, a] = value, -value
    field = {name: theta[names.index(a), names.index(b)] if a in names and b in names
             else Fraction(0) for name, (a, b) in (("G", ("q1", "q2")), ("F", ("p1", "p2")))}
    matrix = RatMatrix(theta.tolist())
    structure = SymplecticStructure(
        chart, matrix, matrix, matrix, G_field=field["G"], F_field=field["F"]
    )
    assert _template_deviates(structure) == _dense_template_deviates(structure)


# canonical names of 4- and 8-coordinate charts: the template's q/p names in
# any order, some of them only, or none
_CHART_NAMES = st.one_of(
    st.permutations(("q1", "q2", "p1", "p2")),
    st.permutations(("q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2")),
    st.sampled_from((("x1", "x2", "y1", "y2"), ("q1", "q2", "p1", "r"),
                     ("q1", "q2", "u1", "u2", "p1", "w", "k1", "k2"))),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(names=_CHART_NAMES, data=st.data())
def test_classify_is_the_entry_by_entry_template_rule(names, data) -> None:
    # random exact antisymmetric charts: a G/F template with a cross bracket
    # that may differ between the two pairs, a few entries off the template,
    # and now and then a G or F field that is not the chart's own, or an
    # entry whose transpose is not its negative
    names = tuple(names)
    n = len(names)
    theta = [[Fraction(0) for _ in names] for _ in names]

    def put(a, b, value):
        theta[a][b], theta[b][a] = value, -value

    if {"q1", "q2", "p1", "p2"}.issubset(names):
        q1, q2, p1, p2 = (names.index(name) for name in ("q1", "q2", "p1", "p2"))
        cross = data.draw(_sparse_rationals)
        put(q1, q2, data.draw(_sparse_rationals))
        put(p1, p2, data.draw(_sparse_rationals))
        put(p1, q1, cross)
        put(p2, q2, data.draw(st.just(cross) | _sparse_rationals))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _sparse_rationals)
    for a, b, value in data.draw(st.lists(pairs, max_size=3)):
        if a != b:
            put(a, b, value)
    # rarely, one entry without its antisymmetric partner
    for a, b, value in data.draw(st.lists(pairs, max_size=1)):
        theta[a][b] = value
    matrix = RatMatrix(theta)
    chart = OrbitChart(tuple(f"X{i}" for i in range(n)), names)
    fields = [
        theta[names.index(a)][names.index(b)] if a in names and b in names else Fraction(0)
        for a, b in (("q1", "q2"), ("p1", "p2"))
    ]
    if data.draw(st.booleans()):
        fields[data.draw(st.integers(0, 1))] = data.draw(_sparse_rationals)
    structure = SymplecticStructure(chart, matrix, matrix, matrix, *fields)
    assert _template_deviates(structure) == rf.template_deviates(structure)
    assert classify(structure) == rf.template_class(structure)


# reads of the coordinate sequence a gradient's function may make
_SEQUENCE_READS = {
    "negative-index": lambda a: a[-1] * a[0] - a[-2],
    "slice-and-len": lambda a: sum(a[1:3]) * a[len(a) - 1],
    "iterate": lambda a: sum(x * x for x in a) / (a[0] * a[0] + 1),
    "one-read-twice": lambda a: a[2] * a[2] - a[2] / (a[2] * a[2] + 1),
    "one-object-per-coordinate": lambda a: a[0] if a[1] is a[-len(a) + 1] else a[3],
    "slice-is-a-list": lambda a: sum(a[:2] + [a[-1]]),
    "strided-slices": lambda a: a[::-2][0] * a[-3:-1][-1] + len(a),
    "reversed": lambda a: next(reversed(a)) - list(reversed(a))[-1],
    "past-the-end": lambda a: a[len(a)],
    "before-the-start": lambda a: a[-len(a) - 1],
    "text-index": lambda a: a["0"],
}


def _outcome(gradient, fn, coords):
    """The gradient's values by type and bits, or the error's type and text."""
    try:
        return [_bits(x) for x in gradient(fn, coords)]
    except (IndexError, TypeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("read", _SEQUENCE_READS)
@_REPEATABLE
@given(coords=st.integers(4, 7).flatmap(lambda n: st.one_of(
    st.lists(_sparse_rationals, min_size=n, max_size=n),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n),
)))
def test_forward_mode_is_the_list_seeded_gradient(read, coords) -> None:
    # an unread coordinate gets the integer 0, a read one the seeded partial
    fn = _SEQUENCE_READS[read]
    assert _outcome(forward_mode_gradient, fn, coords) == _outcome(
        rf.list_seeded_gradient, fn, coords
    )


def _mantissas(low: int, high: int) -> st.SearchStrategy:
    """Floats m 2^e with 2^52 <= |m| < 2^53 and low <= e <= high: all 53
    bits of the mantissa drawn, so their products' sums round as arbitrary
    floats' do, where simple floats such as 0.5 or 3.0, or a small integer
    m, add exactly in any order."""
    return st.builds(
        math.ldexp, st.integers(2**52, 2**53 - 1) | st.integers(1 - 2**53, -(2**52)),
        st.integers(low, high),
    )


# zeros of both signs, full mantissas near 1 and of any finite magnitude
_coefficients = (
    st.sampled_from((0.0, -0.0)) | _mantissas(-60, -50) | _mantissas(-1126, 970)
)


@_REPEATABLE
@given(
    G=_rationals, F=_rationals, m=_positive,
    K=st.tuples(_coefficients, _coefficients, _coefficients),
    a=st.tuples(_coefficients, _coefficients),
)
def test_the_planar_system_is_one_float_product_per_entry(G, F, m, K, a) -> None:
    # the record's theta Q and theta g, on the exact bracket matrix and on
    # the planar flows' float one, against the written-out products; == is
    # IEEE equality, so a zero's sign is all it leaves out
    assume(G * F != 1)
    space, ham = NCPhaseSpace2D(G, F, m), HamiltonianSpec(a, K)
    reference = rf.planar_system(space, ham)
    assert ham.hamiltonian(space).system(space.theta_matrix()) == reference
    A, b = linear_system(space, ham)
    assert (A, b) == reference
    assert {type(x) for row in (*A, b) for x in row} == {float}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    G=_rationals, F=_rationals, m=_positive | _large.map(abs),
    K=st.tuples(_coefficients, _coefficients, _coefficients),
    a=st.tuples(_coefficients, _coefficients),
    z=st.lists(_coefficients, min_size=4, max_size=4),
)
def test_the_planar_hamiltonian_is_the_checked_record_bit_for_bit(G, F, m, K, a, z) -> None:
    # the spec's stored floats and one float of 1/m give the system and the
    # values of the record QuadraticHamiltonian builds from the same entries
    assume(G * F != 1)
    space = NCPhaseSpace2D(G, F, m)
    record = HamiltonianSpec(a, K).hamiltonian(space)
    checked = QuadraticHamiltonian(record.hessian, record.gradient)
    assert record == checked
    float_theta = _bracket_rows(float(G), float(F), 0.0, 1.0)
    for theta in (space.theta_matrix(), float_theta):
        (A, b), (A_checked, b_checked) = record.system(theta), checked.system(theta)
        assert [[*map(_bits, row)] for row in (*A, b)] == [
            [*map(_bits, row)] for row in (*A_checked, b_checked)
        ]
    assert _bits(record.value(z)) == _bits(checked.value(z))
    table = np.array([z, [2.0 * x for x in z]]).T
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(record.value(table)) == _bits(checked.value(table))



@settings(derandomize=True, database=None, deadline=None, max_examples=300, phases=_NO_EXPLAIN)
@given(seed=st.integers(0, 2**64 - 1))
def test_the_planar_fill_keeps_every_bit_of_the_generic_gauss_loop(seed) -> None:
    # the same sums in the same order: every state column, zeros' signs
    # included, or the same error at the same step.  Hypothesis draws the
    # seed only, as for the group products below
    rng = random.Random(seed)
    A = [[_random_propagator_entry(rng) for _ in range(4)] for _ in range(4)]
    b = [_random_propagator_entry(rng) for _ in range(4)]
    state0 = [_random_entry(rng, True) for _ in range(4)]
    h = math.ldexp(rng.getrandbits(52) | 2**52, rng.randint(-62, -53))
    steps = rng.randint(1, 64)

    def outcome(flow):
        try:
            return [column.tobytes() for column in flow(A, b, state0, steps * h, h)]
        except IntegrationError as exc:
            return exc.step, str(exc)

    assert outcome(planar_flow) == outcome(rf.gauss_flow)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    G=_rationals, F=_rationals, m=_positive | _large.map(abs),
    K=st.tuples(_coefficients, _coefficients, _coefficients),
    a=st.tuples(_coefficients, _coefficients),
    z=st.lists(_coefficients, min_size=4, max_size=4),
    t_end=st.sampled_from((1.0, 10.0)), steps=st.integers(1, 64),
)
def test_integrate_is_trajectory_rows_as_arrays_bit_for_bit(G, F, m, K, a, z, t_end, steps) -> None:
    # the two public entry points of the planar flow: every column, the
    # drift and zeros' signs included, or the same error at the same step
    assume(G * F != 1)
    space, ham = NCPhaseSpace2D(G, F, m), HamiltonianSpec(a, K)

    def outcome(run):
        try:
            return run()
        except IntegrationError as exc:
            return exc.step, str(exc)

    dt = t_end / steps
    rows = outcome(lambda: trajectory_rows(space, ham, z, t_end, dt))
    trajectory = outcome(lambda: integrate(space, ham, z, t_end, dt))
    if isinstance(rows, tuple):
        assert trajectory == rows
        return
    assert trajectory.states.shape == (len(rows["t"]), 4)
    arrays = {"t": trajectory.times, "H": trajectory.energies,
              "drift": trajectory.invariant_drift,
              **{name: trajectory.states[:, k] for k, name in enumerate(("q1", "q2", "p1", "p2"))}}
    assert arrays.keys() == rows.keys()
    for name, column in arrays.items():
        assert column.dtype == np.float64, name
        assert np.ascontiguousarray(column).tobytes() == rows[name].tobytes(), name


def _symmetric(entries) -> RatMatrix:
    """The symmetric 4 x 4 matrix with the 10 ``entries`` on and above its
    diagonal, row by row."""
    upper = iter(entries)
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            rows[i][j] = rows[j][i] = next(upper)
    return RatMatrix(rows)


def _orbit_systems(omega, kappa, m, h, E, Q, g) -> list:
    """(theta, A, b) of dz/dt = theta (Q z + g) on each standard orbit's
    chart at these charges, A = theta Q and b = theta g exact."""
    systems = []
    for name in STANDARD_ORBIT_NAMES:
        try:
            orbit = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
        except DegenerateChartError:
            continue
        theta = orbit.structure.canonical_theta
        systems.append((theta, theta @ Q, theta @ g))
    assert systems
    return systems


_flows = {
    "omega": _positive, "kappa": _positive, "m": _nonzero, "h": _rationals, "E": _rationals,
    "Q": st.lists(_rationals, min_size=10, max_size=10).map(_symmetric),
    "g": st.lists(_rationals, min_size=4, max_size=4),
}


@_REPEATABLE
@given(**_flows, z=st.lists(_rationals, min_size=4, max_size=4), step=_nonzero)
def test_the_exact_gauss_step_is_a_poisson_map_that_keeps_h(
    omega, kappa, m, h, E, Q, g, z, step
) -> None:
    # over Q, M theta M' = theta and H(M z + c) = H(z) on every orbit's
    # chart, and (M - 1 | c) is the rational solve D^-1 [X | hb]
    def energy(z):
        return sum(x * y for x, y in zip(z, Q @ z)) / 2 + sum(x * y for x, y in zip(g, z))

    for theta, A, b in _orbit_systems(omega, kappa, m, h, E, Q, g):
        step_map, c = propagator(A, b, step)
        assert {type(x) for row in (*step_map, c) for x in row} == {Fraction}
        M = RatMatrix([[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(step_map)])
        assert congruence(M, theta) == theta
        assert energy([x + c_i for x, c_i in zip(M @ z, c)]) == energy(z)
        X = RatMatrix([[step * x for x in row] for row in A])
        square = X @ X
        D = RatMatrix([[(i == j) - X[i, j] / 2 + square[i, j] / 12 for j in range(4)]
                       for i in range(4)])
        solve = rat_inv(D) @ RatMatrix([[*row, step * b_i] for row, b_i in zip(X, b)])
        assert solve == RatMatrix([[*row, c_i] for row, c_i in zip(step_map, c)])


@_REPEATABLE
@given(**_flows)
def test_the_float_gauss_step_is_exact_to_a_few_ulps_and_of_order_four(
    omega, kappa, m, h, E, Q, g
) -> None:
    for _, A, b in _orbit_systems(omega, kappa, m, h, E, Q, g):
        A, b = [[float(x) for x in row] for row in A], [float(x) for x in b]
        step = 1 / (8 * (1.0 + max(abs(x) for row in A for x in row)))
        # against the exact step of the same float data: M - 1 and c each
        # within 8 ulps of their largest entry
        floats = propagator(A, b, step)
        exact = propagator([[*map(Fraction, row)] for row in A], [*map(Fraction, b)],
                           Fraction(step))
        for part, exact_part in zip(floats, exact):
            pairs = [*zip(np.ravel(part), np.ravel(exact_part))]
            largest = max(abs(y) for _, y in pairs)
            assert all(abs(Fraction(x) - y) <= 8 * Fraction(math.ulp(largest)) for x, y in pairs)
        # N steps of h and 2N of h/2 to the same time: the error against
        # the exponential shrinks about 2^4-fold
        generator = np.zeros((5, 5))
        generator[:4, :4], generator[:4, 4] = A, b
        errors = []
        for steps in (8, 16):
            step_map, c = propagator(A, b, 8 * step / steps)
            affine = np.eye(5)
            affine[:4, :4] += step_map
            affine[:4, 4] = c
            exponential = scipy.linalg.expm(8 * step * generator)
            errors.append(np.max(np.abs(np.linalg.matrix_power(affine, steps) - exponential)))
        assume(errors[1] > 1e-12)
        assert 12 < errors[0] / errors[1] < 20


@st.composite
def _rational_matrices(draw) -> RatMatrix:
    """Rational matrices up to 8x8, a third of their entries zero, mostly
    square, some with entries of up to 40 digits over 40 digits; some get a
    zero row or a row that combines two others, so that they lose rank, and
    some of those get it as their first row, ahead of the pivot rows."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.sampled_from((rows, rows, rows, draw(st.integers(1, 8)))))
    nonzero = draw(st.sampled_from((_nonzero, _nonzero, _large)))
    entry = st.one_of(st.just(Fraction(0)), nonzero, nonzero)
    entries = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    loss = draw(st.sampled_from(("none", "none", "zero row", "combination")))
    k = draw(st.integers(0, rows - 1))
    if loss == "zero row":
        entries[k] = [Fraction(0)] * cols
    elif loss == "combination" and rows >= 3:
        a, b = draw(nonzero), draw(nonzero)
        i, j = draw(st.permutations([r for r in range(rows) if r != k]))[:2]
        entries[k] = [a * x + b * y for x, y in zip(entries[i], entries[j])]
    if loss != "none" and draw(st.booleans()):
        entries.insert(0, entries.pop(k))
    return RatMatrix(entries)


@_REPEATABLE
@given(matrix=_rational_matrices())
def test_rank_and_inverse_equal_the_sympy_reference(matrix) -> None:
    rank = rat_rank(matrix)
    assert rank == sympy.Matrix([list(row) for row in matrix]).rank()
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        return
    if rank < n:
        with pytest.raises(SingularMatrixError) as excinfo:
            rat_inv(matrix)
        assert excinfo.value.rank == rank
        return
    inverse_ = rat_inv(matrix)
    assert all(isinstance(x, Fraction) for row in inverse_ for x in row)
    assert inverse_ @ matrix == RatMatrix.identity(n)
    assert matrix @ inverse_ == RatMatrix.identity(n)


@_REPEATABLE
@given(left=_rational_matrices(), data=st.data())
def test_matrix_products_and_transpose_equal_the_dense_forms(left, data) -> None:
    n_rows, n_cols = left.shape
    right = RatMatrix(data.draw(st.lists(_vectors_of(n_rows), min_size=n_cols, max_size=n_cols)))
    vector = data.draw(_vectors_of(n_cols))
    assert right.shape == (n_cols, n_rows)
    assert (rf.dense(left @ right) == rf.dense(left) @ rf.dense(right)).all()
    assert (rf.dense(left @ vector) == rf.dense(left) @ rf.dense(vector)).all()
    assert (rf.dense(left.T) == rf.dense(left).T).all()
    assert all(isinstance(x, Fraction) for row in left @ right for x in row)
    assert left[n_rows - 1, n_cols - 1] == left[n_rows - 1][n_cols - 1]


def test_a_matrix_refuses_tuple_arithmetic_and_mismatched_products() -> None:
    m = RatMatrix([[1, 2], [3, 4]])
    for operation in (lambda: m + m, lambda: 2 * m, lambda: m * 2):
        with pytest.raises(TypeError):
            operation()
    with pytest.raises(ValueError):
        m @ RatMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        m @ [1, 2, 3]
    with pytest.raises(ValueError):
        congruence(m, RatMatrix([[1, 2, 3]]))


# read as 2 x 2, these rows would lose column 2 in T, have the short row
# zipped in @ and be inverted as if the missing entry were 0
@pytest.mark.parametrize(
    "use",
    [
        pytest.param(lambda rows: RatMatrix(rows).T, id="T"),
        pytest.param(lambda rows: RatMatrix([[1, 2], [3, 4]]) @ RatMatrix(rows), id="matmul"),
        pytest.param(lambda rows: rat_inv(RatMatrix(rows)), id="rat_inv"),
    ],
)
def test_a_ragged_matrix_is_refused_before_it_is_used(use) -> None:
    with pytest.raises(ValueError, match=r"\[2, 1\]"):
        use([[1, 2], [3]])


# exact values across the float range, past both of its ends, and through
# the subnormals, over denominators that are not powers of two
_exact_values = st.builds(
    lambda n, e, d: Fraction(n) * Fraction(2) ** e / d,
    st.integers(-(2**80), 2**80), st.integers(-1200, 1100) | st.integers(-1150, -1000),
    st.integers(1, 10**20),
) | st.integers(-(2**1100), 2**1100)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(value=_exact_values)
def test_checked_float_is_the_nearest_float_or_names_the_value(value) -> None:
    try:
        nearest = float(value)
    except OverflowError:
        nearest = math.inf if value > 0 else -math.inf
    if math.isinf(nearest) or (nearest == 0 and value != 0):
        with pytest.raises(OverflowError, match=rf"^x is {re.escape(repr(nearest))} as a float"):
            checked_float(value, "x")
    else:
        assert checked_float(value, "x").hex() == nearest.hex()


@st.composite
def _congruence_factors(draw) -> tuple[RatMatrix, RatMatrix]:
    """A k x n J and an n x n M with k, n up to 8 and entries of up to 40
    digits over 40 digits in some draws; J is general, not one nonzero per
    row.  M is antisymmetric in half the draws, so that each diagonal entry
    of J M J^T cancels, and a row of J repeats or negates another in some,
    so that the entries those two rows meet in cancel too."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    nonzero = draw(st.sampled_from((_nonzero, _nonzero, _large)))
    entry = st.one_of(st.just(Fraction(0)), nonzero, nonzero)
    jac = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(k)))[:2]
        jac[a] = [-x for x in jac[b]] if draw(st.booleans()) else list(jac[b])
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        m = [[m[i][j] if i < j else -m[j][i] if i > j else Fraction(0) for j in range(n)]
             for i in range(n)]
    return RatMatrix(jac), RatMatrix(m)


@settings(_REPEATABLE, max_examples=100, phases=_NO_EXPLAIN)
@given(factors=_congruence_factors())
def test_the_congruence_is_the_dense_product_for_any_jacobian(factors) -> None:
    jac, m = factors
    product = congruence(jac, m)
    dense = rf.dense(jac) @ rf.dense(m) @ rf.dense(jac).T
    assert product.shape == dense.shape
    assert (rf.dense(product) == dense).all()
    assert _all_fractions(product)


@settings(_REPEATABLE, phases=_NO_EXPLAIN)
@given(
    name=st.sampled_from(STANDARD_ORBIT_NAMES),
    omega=_positive, kappa=_positive, m=_nonzero, h=_nonzero, E=_nonzero, data=st.data(),
)
def test_restrict_on_a_chart_with_any_jacobian_is_the_dense_congruence(
    name, omega, kappa, m, h, E, data
) -> None:
    # every chart the package builds has one nonzero entry per row of J
    try:
        orbit = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
    except DegenerateChartError:
        assume(False)
    nonzero = data.draw(st.sampled_from((_nonzero, _large)), label="scale")
    entry = st.one_of(st.just(Fraction(0)), nonzero, nonzero)
    jac = RatMatrix(data.draw(st.lists(st.lists(entry, min_size=4, max_size=4),
                                       min_size=4, max_size=4), label="jacobian"))
    names = orbit.chart.coordinate_names
    rank = rat_rank(jac)
    if rank < 4:  # z = J x would not be coordinates
        with pytest.raises(ValueError, match=rf"\(rank {rank} < 4\)"):
            OrbitChart(names, ("q1", "q2", "p1", "p2"), jac)
        return
    structure = restrict(
        orbit.algebra, orbit.point, OrbitChart(names, ("q1", "q2", "p1", "p2"), jac)
    )
    idx = [orbit.algebra.index(name) for name in names]
    K = rf.structure_tensor(orbit.algebra) @ rf.dense(orbit.point.coords)
    dense = rf.dense(jac) @ K[np.ix_(idx, idx)].T @ rf.dense(jac).T
    assert (rf.dense(structure.canonical_theta) == dense).all()
    assert (structure.G_field, structure.F_field) == (dense[0, 1], dense[2, 3])
    assert _all_fractions(structure.canonical_theta)


# numerators and denominators of up to 3 digits, so that a failure is
# reported quickly
_three_digit = st.integers(-999, 999)
_small = st.builds(Fraction, _three_digit, st.integers(1, 999))
_small_nonzero = st.builds(Fraction, _three_digit.filter(bool), st.integers(1, 999))
_small_positive = st.builds(Fraction, st.integers(1, 999), st.integers(1, 999))


def _canonical(n: int) -> RatMatrix:
    """The bracket matrix {z_i, z_(k+i)} = -1 of 2k = n commutative coordinates."""
    k = n // 2
    return RatMatrix([[-1 if b == a + k else 1 if a == b + k else 0 for b in range(n)]
                      for a in range(n)])


# where J may differ from the identity, as (rows, columns), by chart class
_SHIFTED = {"canonical": ((), ()), "position_nc": ((0, 1), (2, 3)),
            "momentum_nc": ((2, 3), (0, 1))}


@settings(_REPEATABLE, phases=_NO_EXPLAIN)
@given(
    omega=_small_positive, kappa=_small_positive, m=_small_nonzero,
    h=_small_nonzero | st.just(Fraction(0)), E=_small,
)
def test_the_darboux_map_takes_commuting_coordinates_to_each_orbit_chart(
    omega, kappa, m, h, E
) -> None:
    assert _canonical(4) == CANONICAL_BRACKET_MATRIX
    checked = 0
    for name in STANDARD_ORBIT_NAMES:
        try:
            orbit = standard_orbit(name, m=m, h=h, E=E, omega=omega, kappa=kappa)
        except DegenerateChartError:
            continue
        J = darboux_map(orbit.structure)
        assert congruence(J, CANONICAL_BRACKET_MATRIX) == orbit.structure.canonical_theta, name
        # the identity, positions shifted by momenta, or momenta by positions
        phase = classify(orbit.structure)
        if phase in _SHIFTED:
            rows, columns = _SHIFTED[phase]
            moved = {(i, j) for i in range(4) for j in range(4) if J[i, j] != (i == j)}
            assert moved <= {(i, j) for i in rows for j in columns}, (name, phase)
        checked += 1
    assert checked


@settings(_REPEATABLE, phases=_NO_EXPLAIN)
@given(m=_small, mu=_small_nonzero, beta=_small, kappa=_small_nonzero, E=_small, J=_small)
def test_the_darboux_map_takes_commuting_coordinates_to_the_static_chart(
    m, mu, beta, kappa, E, J
) -> None:
    assume(mu * kappa != beta * beta)
    structure = static_symplectic(StaticConstants(m=m, mu=mu, beta=beta, kappa=kappa), E, J)
    assert congruence(darboux_map(structure), _canonical(8)) == structure.canonical_theta


@settings(_REPEATABLE, phases=_NO_EXPLAIN)
@given(k=st.integers(2, 4), data=st.data())
def test_the_darboux_map_pairs_past_a_canonical_pair_that_brackets_to_zero(k, data) -> None:
    # {z_i, z_(k+i)} = 0 for every i, and every other bracket is nonzero
    n = 2 * k
    upper = {(a, b): data.draw(_small_nonzero) for a in range(n) for b in range(a + 1, n)
             if b != a + k}
    theta = RatMatrix([[upper.get((a, b), 0) if a < b else -upper.get((b, a), 0)
                        for b in range(n)] for a in range(n)])
    assume(rat_rank(theta) == n)
    chart = OrbitChart(tuple(f"z{i}" for i in range(n)))
    structure = SymplecticStructure(chart, theta, theta, theta, Fraction(0), Fraction(0))
    assert congruence(darboux_map(structure), _canonical(n)) == theta


_INVARIANTS = [
    pytest.param(orbit.algebra.dim, invariant, id=f"{orbit.name}-{invariant.name}")
    for orbit in (
        standard_orbit(name, m=2, h=3, E=5, omega=Fraction(2, 3), kappa=Fraction(5, 7))
        for name in STANDARD_ORBIT_NAMES
    )
    for invariant in orbit.invariants
] + [
    pytest.param(noncentral_algebra().dim, invariant, id=f"noncentral-{invariant.name}")
    for invariant in noncentral_invariants()
] + [
    # each operation's partials as the outermost one, where no later sum
    # turns a -0.0 into 0.0
    pytest.param(2, OrbitInvariant("quotient", lambda a: a[0] / a[1]), id="quotient"),
    pytest.param(2, OrbitInvariant("mixed", lambda a: 1 / a[0] - a[0] * a[1] + 3),
                 id="mixed"),
]
# zeros of both signs, and full mantissas of magnitudes from 2^-10 to 2^10,
# at which no product over- or underflows
_float_coordinates = st.sampled_from((0.0, -0.0)) | _mantissas(-62, -43)


def _bits(value):
    """A value's type and exact bits: a float's hex form tells -0.0 from 0.0."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, [_bits(x) for x in value.tolist()]
    return type(value).__name__, value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("dim, invariant", _INVARIANTS)
@_REPEATABLE
@given(data=st.data())
def test_float_gradients_are_the_combined_forward_mode_bit_for_bit(dim, invariant, data) -> None:
    points = [data.draw(st.lists(_float_coordinates, min_size=dim, max_size=dim)) for _ in "ab"]
    for point in points:
        try:
            expected = rf.combined_gradient(invariant.value, point)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                invariant.gradient(point)
            return
        assert list(map(_bits, invariant.gradient(point))) == list(map(_bits, expected))
    # one float array per coordinate, holding both points
    arrays = [np.array(pair) for pair in zip(*points)]
    expected = rf.combined_gradient(invariant.value, arrays)
    assert list(map(_bits, invariant.gradient(arrays))) == list(map(_bits, expected))


def _dense_jacobi(algebra) -> list[tuple]:
    """Every triple's cyclic sum of [e_a, [e_b, e_c]], formed densely from C."""
    C = rf.structure_tensor(algebra)
    names = algebra.names
    violations = []
    for i, j, k in combinations(range(algebra.dim), 3):
        residual = sum(C[b, c] @ C[a] for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
        nonzero = tuple((names[l], v) for l, v in enumerate(residual) if v != 0)
        if nonzero:
            violations.append(((names[i], names[j], names[k]), nonzero))
    return violations


# central charges mu = alpha = 1 break Jacobi on these families
_INADMISSIBLE = [
    rf.central_ext_table(name, omega, kappa, 1, 1)
    for name in ("NH+", "G", "G'+", "G'-")
    for omega, kappa in ((1, 1), (Fraction(1, 2), Fraction(5, 7)))
]


@pytest.mark.parametrize(
    "algebra, admissible",
    [
        pytest.param(a, True, id=f"{r.name}-{r.variant}")
        for a, r in zip(_CATALOG_ALGEBRAS, list_catalog())
    ]
    + [pytest.param(a, False, id=f"forced-{i}") for i, a in enumerate(_INADMISSIBLE)],
)
def test_jacobi_violations_equal_the_dense_reference(algebra, admissible) -> None:
    got = [(v.triple, v.residual) for v in algebra.jacobi_violations()]
    assert got == _dense_jacobi(algebra) == _listed_jacobi(algebra)
    assert bool(got) != admissible


# nonzero numerators up to 30 digits over denominators up to 30 digits,
# or small ones, which make some Jacobi components cancel
_table_entries = _nonzero | st.builds(
    Fraction, st.integers(-(10**30), 10**30).filter(bool), st.integers(1, 10**30)
)


@st.composite
def _bracket_patterns(draw) -> tuple[int, list]:
    """A dimension 3..8 and a random sparsity pattern over it: distinct
    pairs, each in a random orientation, with 1..dim distinct targets."""
    dim = draw(st.integers(3, 8))
    pairs = draw(st.lists(
        st.sampled_from(list(combinations(range(dim), 2))), unique=True, min_size=1
    ))
    return dim, [
        (pair[::-1] if draw(st.booleans()) else pair,
         draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True)))
        for pair in pairs
    ]


def _filled(pattern: list, values) -> list:
    values = iter(values)
    return [(pair, [(k, next(values)) for k in targets]) for pair, targets in pattern]


def _table(dim: int, entries: list) -> StructureConstants:
    names = [f"e{i}" for i in range(dim)]
    return StructureConstants(names, {
        (names[a], names[b]): {names[k]: value for k, value in targets}
        for (a, b), targets in entries
    })


def _violations(algebra) -> list[tuple]:
    return [(v.triple, v.residual) for v in algebra.jacobi_violations()]


def _listed_jacobi(algebra) -> list[tuple]:
    """:func:`_dense_jacobi` added up on plain lists from the nonzero C
    entries alone: [e_a, [e_b, e_c]] = sum_l C_bc^l sum_m C_al^m e_m."""
    brackets = {}
    for (i, j), comps in algebra.pair_table():
        brackets[i, j], brackets[j, i] = comps, {k: -v for k, v in comps.items()}
    names = algebra.names
    violations = []
    for i, j, k in combinations(range(algebra.dim), 3):
        residual = [Fraction(0)] * algebra.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, outer in brackets.get((b, c), {}).items():
                for m, inner in brackets.get((a, l), {}).items():
                    residual[m] += outer * inner
        nonzero = tuple((names[m], v) for m, v in enumerate(residual) if v != 0)
        if nonzero:
            violations.append(((names[i], names[j], names[k]), nonzero))
    return violations


@settings(_REPEATABLE, max_examples=100, phases=_NO_EXPLAIN)
@given(drawn=_bracket_patterns(), data=st.data())
def test_jacobi_plans_equal_the_dense_sums_on_any_table(drawn, data) -> None:
    dim, pattern = drawn
    size = sum(len(targets) for _, targets in pattern)
    first, second = (
        data.draw(st.lists(_table_entries, min_size=size, max_size=size)) for _ in range(2)
    )
    entries = _filled(pattern, first)
    algebra = _table(dim, entries)
    assert _violations(algebra) == _listed_jacobi(algebra)
    # the same pattern with other values reuses the plan
    hits = _jacobi_plan.cache_info().hits
    other = _table(dim, _filled(pattern, second))
    assert _violations(other) == _listed_jacobi(other)
    assert _jacobi_plan.cache_info().hits == hits + 1
    # the same entries supplied in another order give the same table
    shuffled = [(pair, data.draw(st.permutations(targets)))
                for pair, targets in data.draw(st.permutations(entries))]
    assert _violations(_table(dim, shuffled)) == _violations(algebra)


@_REPEATABLE
@given(
    name=st.sampled_from(CENTRAL_EXTENSION_NAMES),
    omega=_positive,
    kappa=_positive,
    mu=_rationals,
    alpha=_rationals,
    forced=st.sampled_from((None, "equal", "opposite", "zero mu", "zero alpha")),
)
def test_the_central_charge_rule_is_the_jacobi_identity(
    name, omega, kappa, mu, alpha, forced
) -> None:
    alpha = {"equal": mu, "opposite": -mu, "zero alpha": Fraction(0)}.get(forced, alpha)
    mu = Fraction(0) if forced == "zero mu" else mu
    lam, sign, _ = rf.CATALOG_PARAMETERS[name]
    admissible = mu * sign == -lam * alpha  # the paper's rule
    violations = rf.central_ext_table(name, omega, kappa, mu, alpha).jacobi_violations()
    try:
        build(name, "central_ext", omega=omega, kappa=kappa, mu_charge=mu, alpha_charge=alpha)
    except CatalogError as err:
        assert not admissible and violations
        first = violations[0]
        assert str(err).endswith(
            f"fails on ({', '.join(first.triple)}) with residual "
            + ", ".join(f"{g} = {v}" for g, v in first.residual)
        )
    else:
        assert admissible and not violations


@settings(_REPEATABLE, max_examples=200)
@given(
    record=st.sampled_from(list_catalog()),
    omega=_positive,
    kappa=_positive,
    charges=st.none() | st.tuples(_rationals, _rationals),
    m_coupling=st.none() | _rationals,
)
def test_build_equals_the_validated_reference_expansion(
    record, omega, kappa, charges, m_coupling
) -> None:
    name, variant = record.name, record.variant
    kwargs, mu, alpha, m = {}, None, None, Fraction(1)
    if variant == "central_ext":
        lam, sign, _ = rf.CATALOG_PARAMETERS[name]
        mu, alpha = rf.DEFAULT_CENTRAL_CHARGES[name] if charges is None else charges
        if sign:  # mu*sign(beta) = -lam*alpha
            mu = -lam * alpha * sign
        elif lam:
            alpha = Fraction(0)
        m = Fraction(1) if m_coupling is None else m_coupling
        kwargs = dict(mu_charge=mu, alpha_charge=alpha, m_coupling=m_coupling)
        if charges is None:
            kwargs.update(mu_charge=None, alpha_charge=None)
    names, brackets = rf.catalog_brackets(name, variant, omega, kappa, mu, alpha, m)
    reference = StructureConstants([generator_label(n) for n in names], brackets)
    built = build(name, variant, omega=omega, kappa=kappa, **kwargs)
    assert built.basis == reference.basis
    table = [(pair, list(comps.items())) for pair, comps in built.pair_table()]
    assert table == [(pair, list(comps.items())) for pair, comps in reference.pair_table()]
    assert all(type(v) is Fraction for _, comps in table for _, v in comps)
    for i in range(built.dim):
        for j in range(built.dim):
            assert built.bracket_targets(i, j) == reference.bracket_targets(i, j)


# Static-group draws span the ranges of the hand-picked cases in
# test_static_group.py, whose tolerances they keep.
_coordinates = st.floats(-2, 2)
_phases = st.floats(-1, 1)
_vectors = st.tuples(_coordinates, _coordinates)
_elements = st.builds(
    StaticGroupElement,
    angle=st.floats(-math.pi, math.pi),
    boost=_vectors,
    translation=_vectors,
    time=_coordinates,
    f_shift=_vectors,
    pi_shift=_vectors,
    phase_m=_phases,
    phase_mprime=_phases,
    phase_b=_phases,
    phase_lambda=_phases,
)
_static_constants = (
    StaticConstants(m=1, mu=2, beta=1, kappa=1, nu=Fraction(1, 2), h=2),
    StaticConstants(m=2, mu=3, beta=1, kappa=2),
    StaticConstants(m=2, mu=3, beta=-1, kappa=2),
)
_static_states = st.builds(
    StaticOrbitState,
    constants=st.sampled_from(_static_constants),
    position=_vectors,
    velocity=_vectors,
    momentum=_vectors,
    boost_momentum=_vectors,
    energy=_coordinates,
    angular_momentum=_coordinates,
)


@_REPEATABLE
@given(g1=_elements, g2=_elements, g3=_elements)
def test_static_group_law_is_associative(g1, g2, g3) -> None:
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    assert _element_distance(left, right) < 1e-10


@_REPEATABLE
@given(g=_elements)
def test_static_group_inverse_gives_the_identity(g) -> None:
    assert _element_distance(compose(g, inverse(g)), identity_element()) < 1e-12
    assert _element_distance(compose(inverse(g), g), identity_element()) < 1e-12


@_REPEATABLE
@given(g1=_elements, g2=_elements, state=_static_states)
def test_realize_is_a_left_action_of_the_group_law(g1, g2, state) -> None:
    one_step = realize(compose(g1, g2), state)
    two_step = realize(g1, realize(g2, state))
    assert _state_distance(one_step, two_step) < 1e-10


@_REPEATABLE
@given(g=_elements, state=_static_states)
def test_realize_preserves_the_static_invariants(g, state) -> None:
    before = static_invariants(state)
    after = static_invariants(realize(g, state))
    assert abs(after[0] - before[0]) < 1e-9
    assert abs(after[1] - before[1]) < 1e-9


@_REPEATABLE
@given(
    m=_rationals,
    mu=_nonzero,
    beta=_rationals,
    kappa=_nonzero,
    nu=_rationals,
    h=_rationals,
    fields=st.tuples(*[_coordinates] * 10),
    t_end=st.floats(0.01, 1000.0),
    steps=st.integers(1, 40),
)
def test_the_realize_rows_are_time_evolution_and_its_invariants(
    m, mu, beta, kappa, nu, h, fields, t_end, steps
) -> None:
    assume(mu * kappa != beta * beta)
    constants = StaticConstants(m=m, mu=mu, beta=beta, kappa=kappa, nu=nu, h=h)
    q1, q2, u1, u2, p1, p2, k1, k2, energy, j = fields
    state = StaticOrbitState(
        constants, (q1, q2), (u1, u2), (p1, p2), (k1, k2), energy, j
    )
    columns = evolution_rows(state, t_end, t_end / steps)
    times = grid_times(t_end, steps)
    assert columns["t"] == times
    for i, t in enumerate(times):
        # row by row, at the row's own grid time
        row = [c if isinstance(c, float) else c[i] for c in columns.values()]
        one = time_evolution(state, t)
        # the same float operations in the same order: equal to the last bit
        assert row == [
            t, *one.position, *one.velocity, *one.momentum,
            *one.boost_momentum, one.energy, *static_invariants(one),
        ]


def _record_bits(make, *args):
    """The fields of the Static record ``make(*args)``, each float and each
    entry of a pair by its bits, or the error's type and message."""
    try:
        record = make(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [
        [*map(_bits, value)] if isinstance(value, tuple) else
        _bits(value) if isinstance(value, float) else value
        for value in record._values()
    ]


def _random_mantissa(rng: random.Random, low: int, high: int) -> float:
    """m 2^e with a random 53-bit mantissa m of either sign and low <= e <=
    high: the seeded counterpart of :func:`_mantissas`."""
    m = rng.getrandbits(52) | 2**52
    e = rng.randint(low, high)
    return math.ldexp(rng.choice((m, -m)), e)


def _random_entry(rng: random.Random, wide: bool) -> float:
    """A zero of either sign one time in eight, else m 2^e with a random
    53-bit mantissa m: near 1, or, one time in eight if ``wide``, near the
    float limit, where products and sums overflow."""
    draw = rng.random()
    if draw < 0.125:
        return rng.choice((0.0, -0.0))
    return _random_mantissa(rng, *((908, 918) if wide and draw > 0.875 else (-60, -50)))


def _random_propagator_entry(rng: random.Random) -> float:
    """A zero of either sign one time in eight, else m 2^e with a random
    53-bit mantissa m: of magnitude up to 4, near it or, one time in eight,
    down to the subnormals, or of magnitude up to 2^10, whose flows may
    overflow within 64 steps."""
    draw = rng.random()
    if draw < 0.125:
        return rng.choice((0.0, -0.0))
    low, high = (-1126, -50) if draw > 0.875 else rng.choice(((-55, -50), (-50, -43)))
    return _random_mantissa(rng, low, high)


def _random_state(rng: random.Random, wide: bool, constants) -> StaticOrbitState:
    """An orbit state of ``constants`` with :func:`_random_entry` fields."""
    def entry():
        return _random_entry(rng, wide)

    return StaticOrbitState(constants, *[(entry(), entry()) for _ in range(4)], entry(), entry())


def _random_group_records(seed: int, wide: bool):
    """Two Static group elements and an orbit state of :func:`_random_entry` fields."""
    rng = random.Random(seed)

    def entry():
        return _random_entry(rng, wide)

    def element():
        return StaticGroupElement(
            angle=rng.uniform(-math.pi, math.pi), boost=(entry(), entry()),
            translation=(entry(), entry()), time=entry(), f_shift=(entry(), entry()),
            pi_shift=(entry(), entry()), phase_m=entry(), phase_mprime=entry(),
            phase_b=entry(), phase_lambda=entry(),
        )

    constants = rng.choice((
        StaticConstants(m=1, mu=2, beta=1, kappa=1, nu=Fraction(1, 2), h=2),
        StaticConstants(m=Fraction(3, 7), mu=Fraction(-5, 3), beta=Fraction(2, 9), kappa=3),
    ))
    state = _random_state(rng, wide, constants)
    return element(), element(), state


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), wide=st.booleans())
def test_group_products_are_the_constructed_records_bit_for_bit(seed, wide) -> None:
    # the same sums in the same order, stored after one test of their sum:
    # every field by its bits, or the error that names the first field the
    # checking constructor finds not finite.  Hypothesis draws the seed
    # only: its own float draws repeat values across fields, and a sum of
    # repeated values re-associates exactly far more often than one of
    # independent values
    g, gp, state = _random_group_records(seed, wide)
    assert _record_bits(compose, g, gp) == _record_bits(rf.constructed_compose, g, gp)
    assert _record_bits(inverse, g) == _record_bits(rf.constructed_inverse, g)
    assert _record_bits(realize, g, state) == _record_bits(rf.constructed_realize, g, state)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), wide=st.booleans())
def test_time_evolution_is_the_replaced_state_bit_for_bit(seed, wide) -> None:
    # with ``wide``, times of up to 2^1022 make the drift of a position or
    # velocity near the float limit overflow, in either pair or both; an
    # overflow names momentum before boost_momentum, as the checks of the
    # rebuilt state do.  Hypothesis draws the seed only, as above
    rng = random.Random(seed)
    state = _random_state(rng, wide, rng.choice(_static_constants))
    t = math.ldexp(_random_entry(rng, False), rng.randint(0, 1020) if wide else 0)
    assert _record_bits(time_evolution, state, t) == _record_bits(
        rf.replaced_time_evolution, state, t
    )


# Parameters each command reads; it refuses any other key (exit 2).
# simulate reads the orbit keys only with --algebra.
_ORBIT_PARAMS = ("m", "h", "E", "omega", "kappa")
_COMMAND_PARAMS = {
    "list": (),
    "verify": _ORBIT_PARAMS,
    "orbit": _ORBIT_PARAMS,
    "classify": _ORBIT_PARAMS,
    "simulate": ("G", "F", "mass", "a1", "a2", "k11", "k12", "k22", "q1", "q2", "p1", "p2"),
    "realize": ("m", "mu", "beta", "kappa", "nu", "h")
    + ("q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2", "E", "j"),
}


# Decimal exponents where the boundary changes: 200 and 300 are finite
# floats whose squares overflow, 390 is past the float range but within
# MAX_PARAM_DIGITS (a signed three-digit mantissa spans at most 399),
# and 5000 is past that bound.
_EXPONENTS = (0, 200, 300, 390, 5000)


def _param_strings(sign: st.SearchStrategy) -> st.SearchStrategy:
    """Decimal strings of magnitude 10^±e for e in _EXPONENTS, and small fractions."""
    decimal = st.builds(
        "{}{}e{}{}".format,
        sign,
        st.integers(1, 999),
        st.sampled_from(("", "-")),
        st.sampled_from(_EXPONENTS),
    )
    fraction = st.builds("{}{}/{}".format, sign, st.integers(0, 9), st.integers(1, 9))
    return st.one_of(decimal, decimal, fraction)


_signed = _param_strings(st.sampled_from(("", "-")))
# omega and kappa must be positive; a negative one only tests that check
_positive_text = _param_strings(st.just(""))


@st.composite
def _cli_argv(draw, command: str) -> list[str]:
    argv = [command]
    # orbit needs an algebra; the other commands may take one
    algebras = st.sampled_from(STANDARD_ORBIT_NAMES)
    algebra = draw(algebras if command == "orbit" else st.none() | algebras)
    if algebra is not None:
        argv += ["--algebra", algebra]
    # a few of the parameters the command reads; the rest keep their defaults
    params = _COMMAND_PARAMS[command]
    if command == "simulate" and algebra is not None:
        params = _ORBIT_PARAMS + params
    keys = st.lists(st.sampled_from(params), unique=True, min_size=1, max_size=5)
    for key in draw(keys) if params else []:
        strings = _positive_text if key in ("omega", "kappa") else _signed
        argv += ["--param", f"{key}={draw(strings)}"]
    t_end = draw(st.sampled_from((1e-300, 0.5, 1.0, 1e100, 1e300)))
    steps = draw(st.integers(1, 16))
    return argv + ["--t-end", repr(t_end), "--dt", repr(t_end / steps)]


_NON_FINITE = re.compile(r"(?<![A-Za-z])(inf|nan)(?![A-Za-z])", re.IGNORECASE)


@pytest.mark.parametrize("command", sorted(_COMMAND_PARAMS))
@_REPEATABLE
@given(data=st.data())
def test_the_cli_boundary_is_total(command, data) -> None:
    argv = data.draw(_cli_argv(command), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert not _NON_FINITE.search(out.getvalue()), argv
    else:
        assert code in (1, 2), argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
