"""Property tests over random rational parameters and dual points.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples and none is replayed from an earlier run.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinorbit.coadjoint import (
    STANDARD_ORBIT_NAMES,
    DegenerateChartError,
    DualPoint,
    standard_orbit,
)
from kinorbit.static_group import noncentral_algebra, noncentral_invariants

_REPEATABLE = settings(
    derandomize=True, database=None, deadline=None, max_examples=50
)


def _fractions(numerators) -> st.SearchStrategy:
    return st.builds(Fraction, numerators, st.integers(1, 9))


_rationals = _fractions(st.integers(-9, 9))
_nonzero = _fractions(st.integers(-9, 9).filter(bool))
_positive = _fractions(st.integers(1, 9))
_dual_points = st.lists(_rationals, min_size=14, max_size=14)


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
