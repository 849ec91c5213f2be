"""The benchmark's traced pass wraps functions by name; guard those names.

``perfbench/spans.py`` lists each traced function as a module and an
attribute path.  A refactor that renames or removes one fails here rather
than in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(_PERFBENCH))


def test_every_trace_target_resolves_to_a_callable(spans) -> None:
    for name, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_tracer_installs_and_uninstalls_cleanly(spans) -> None:
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert len(patched) >= len(spans.TARGETS)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_the_inversion_and_the_residuals_record_spans_in_their_layers(spans) -> None:
    # the per-layer metrics attribute the chart's inversion to
    # rational_linalg only while restrict calls rat_inv by its module name
    from kinorbit import coadjoint

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        orbit = coadjoint.standard_orbit("G")
        for invariant in orbit.invariants:
            invariant.residual(orbit.algebra, orbit.point)
    finally:
        tracer.active = False
        tracer.uninstall()
    names = {sid: name for sid, _, name, *_ in tracer.spans}
    parents = {name: [] for name in names.values()}
    for _, parent, name, *_ in tracer.spans:
        parents[name].append(names.get(parent))
    assert parents["rational_linalg.rat_inv"] == ["coadjoint.restrict"]
    assert parents["coadjoint.restrict"] == ["coadjoint.standard_orbit"]
    assert len(parents["coadjoint.casimir_residual"]) == len(orbit.invariants)


def test_the_package_charts_take_no_rank_elimination(spans) -> None:
    # the standard and Static charts are nonsingular by construction; only a
    # Jacobian a caller passes to OrbitChart is checked by its exact rank
    from kinorbit import coadjoint, static_group

    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        for name in coadjoint.STANDARD_ORBIT_NAMES:
            coadjoint.standard_orbit(name, m=2, h=1, E=2)
        static_group.static_symplectic(static_group.StaticConstants(m=1, mu=2, beta=1, kappa=1))
        package = [name for _, _, name, *_ in tracer.spans]
        with pytest.raises(ValueError, match=r"\(rank 0 < 4\)"):
            coadjoint.OrbitChart(("K1", "K2", "P1", "P2"), ("q", "u", "p", "k"), ((0,) * 4,) * 4)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert package.count("coadjoint.standard_orbit") == len(coadjoint.STANDARD_ORBIT_NAMES)
    assert package.count("static_group.static_symplectic") == 1
    assert "rational_linalg.rat_rank" not in package
    assert [name for _, _, name, *_ in tracer.spans[len(package):]] == ["rational_linalg.rat_rank"]


@pytest.mark.parametrize("name, variant", [("S", "noncentral_ext"), ("dS+", "isotropic")])
def test_each_jacobi_check_is_one_span_that_builds_its_plan_inside(
    spans, monkeypatch, name, variant
) -> None:
    # algebra_core.jacobi.self_s measures the whole check only while the
    # plan is looked up and built inside jacobi_violations
    import time
    from math import comb

    from kinorbit import algebra_core
    from kinorbit.catalog import build

    plan, lookups = algebra_core._jacobi_plan, []

    def timed_plan(pattern):
        lookups.append(time.perf_counter_ns())
        return plan(pattern)

    algebra = build(name, variant)
    plan.cache_clear()
    monkeypatch.setattr(algebra_core, "_jacobi_plan", timed_plan)
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        checks = [algebra.jacobi_violations(), algebra.jacobi_violations()]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert checks == [[], []]
    jacobi = [span for span in tracer.spans if span[2] == "algebra_core.jacobi"]
    assert [attrs for *_, attrs in jacobi] == [{"triples": comb(algebra.dim, 3)}] * 2
    assert len(lookups) == 2
    assert all(start < t < end for (*_, start, end, _), t in zip(jacobi, lookups))
    # the first check builds the plan, the second reuses it
    assert (plan.cache_info().misses, plan.cache_info().hits) == (1, 1)
