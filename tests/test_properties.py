"""Property tests over random rational parameters and dual points.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples and none is replayed from an earlier run.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_static_group import _element_distance, _state_distance

import reference_forms as rf
from kinorbit.algebra_core import StructureConstants
from kinorbit.catalog import (
    CENTRAL_EXTENSION_NAMES,
    KinematicalParams,
    admissible_central_extensions,
    build,
    generator_label,
    list_catalog,
)
from kinorbit.cli import main
from kinorbit.coadjoint import (
    STANDARD_ORBIT_NAMES,
    DegenerateChartError,
    DualPoint,
    OrbitChart,
    SymplecticStructure,
    _template_deviates,
    casimir_residual,
    classify,
    kirillov_matrix,
    poisson_bracket,
    restrict,
    standard_orbit,
)
from kinorbit.rational_linalg import RatMatrix, SingularMatrixError, rat_inv, rat_rank
from kinorbit.static_group import (
    StaticConstants,
    StaticGroupElement,
    StaticOrbitState,
    compose,
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

_REPEATABLE = settings(
    derandomize=True, database=None, deadline=None, max_examples=50
)


def _fractions(numerators) -> st.SearchStrategy:
    return st.builds(Fraction, numerators, st.integers(1, 9))


_rationals = _fractions(st.integers(-9, 9))
_nonzero = _fractions(st.integers(-9, 9).filter(bool))
_positive = _fractions(st.integers(1, 9))
_dual_points = st.lists(_rationals, min_size=14, max_size=14)
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
        structure = orbit.structure
        assert structure.omega @ structure.theta == RatMatrix.identity(structure.dim), name
        checked += 1
    assert checked


@_REPEATABLE
@given(omega=_positive, kappa=_positive, m=_nonzero, h=_rationals, E=_rationals, s=_scales)
def test_classify_does_not_depend_on_the_position_scale(
    omega, kappa, m, h, E, s
) -> None:
    chart = OrbitChart.scaled_positions(("P1", "P2"), ("K1", "K2"), s)
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


@st.composite
def _rational_matrices(draw) -> RatMatrix:
    """Rational matrices up to 8x8, a third of their entries zero, mostly
    square; some get a zero row or a row that combines two others, so that
    they lose rank."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.sampled_from((rows, rows, rows, draw(st.integers(1, 8)))))
    entry = st.one_of(st.just(Fraction(0)), _nonzero, _nonzero)
    entries = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    loss = draw(st.sampled_from(("none", "none", "zero row", "combination")))
    if loss == "zero row":
        entries[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    elif loss == "combination" and rows >= 3:
        a, b = draw(_nonzero), draw(_nonzero)
        i, j, k = draw(st.permutations(range(rows)))[:3]
        entries[k] = [a * x + b * y for x, y in zip(entries[i], entries[j])]
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
    build(name, "central_ext", omega=omega, kappa=kappa, mu_charge=1, alpha_charge=1,
          enforce_admissibility=False)
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
    assert got == _dense_jacobi(algebra)
    assert bool(got) != admissible


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
    params = KinematicalParams.for_algebra(name, omega, kappa)
    rule = admissible_central_extensions(params.lam, params.beta, params.omega)
    algebra = build(
        name, "central_ext", omega=omega, kappa=kappa, mu_charge=mu,
        alpha_charge=alpha, enforce_admissibility=False,
    )
    assert rule.admissible(mu, alpha) == algebra.is_lie_algebra


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
_static_states = st.builds(
    StaticOrbitState,
    constants=st.sampled_from(
        (
            StaticConstants(m=1, mu=2, beta=1, kappa=1, nu=Fraction(1, 2), h=2),
            StaticConstants(m=2, mu=3, beta=1, kappa=2),
            StaticConstants(m=2, mu=3, beta=-1, kappa=2),
        )
    ),
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
    rows = evolution_rows(state, t_end, t_end / steps)
    assert len(rows) == steps + 1
    for i in range(len(rows)):
        # one row at a time, as the CLI writes a chunk of rows
        row = [c if isinstance(c, float) else c[0] for c in rows.columns(i, i + 1)]
        one = time_evolution(state, i * (t_end / steps))
        # the same float operations in the same order: equal to the last bit
        assert row == [
            i * (t_end / steps), *one.position, *one.velocity, *one.momentum,
            *one.boost_momentum, one.energy, *static_invariants(one),
        ]


# Parameters each command reads; any other key is ignored.
_ORBIT_PARAMS = ("m", "h", "E", "omega", "kappa")
_COMMAND_PARAMS = {
    "list": (),
    "verify": ("omega", "kappa"),
    "orbit": _ORBIT_PARAMS,
    "classify": _ORBIT_PARAMS,
    "simulate": _ORBIT_PARAMS
    + ("G", "F", "mass", "a1", "a2", "k11", "k12", "k22", "q1", "q2", "p1", "p2"),
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
