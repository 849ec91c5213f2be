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

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_static_group import _element_distance, _state_distance

from kinorbit.cli import main
from kinorbit.coadjoint import (
    STANDARD_ORBIT_NAMES,
    DegenerateChartError,
    DualPoint,
    OrbitChart,
    classify,
    restrict,
    standard_orbit,
)
from kinorbit.rational_linalg import reye
from kinorbit.static_group import (
    StaticConstants,
    StaticGroupElement,
    StaticOrbitState,
    compose,
    identity_element,
    inverse,
    noncentral_algebra,
    noncentral_invariants,
    realize,
    static_invariants,
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
        assert (structure.omega @ structure.theta == reye(structure.dim)).all(), name
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
_positive = _param_strings(st.just(""))


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
        strings = _positive if key in ("omega", "kappa") else _signed
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
