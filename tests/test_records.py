"""The record types keep the API they had as frozen dataclasses.

Each record is a slotted class whose ``__init__`` coerces and validates
its fields.  Its constructor takes the parameters the dataclass took, in
the same order and with the same defaults; ``==``, ``hash`` and ``repr``
read the fields in order; assignment raises on every record; ``copy``
and ``pickle`` rebuild a record through its ``__init__``.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import kinorbit
import reference_forms as rf
from kinorbit.algebra_core import AlgebraElement, GeneratorLabel, JacobiViolation
from kinorbit.catalog import (
    ISOTROPIC_NAMES,
    AlgebraDescriptor,
    KinematicalParams,
)
from kinorbit.cli import RunConfig
from kinorbit.coadjoint import (
    DualPoint,
    MagneticCouplings,
    OrbitChart,
    OrbitInvariant,
    StandardOrbit,
    SymplecticStructure,
    standard_orbit,
)
from kinorbit.mechanics import (
    HamiltonianSpec,
    NCPhaseSpace2D,
    NCTrajectory,
    QuadraticHamiltonian,
    integrate,
)
from kinorbit.records import CatalogError, Record
from kinorbit.static_group import (
    StaticConstants,
    StaticFloats,
    StaticGroupElement,
    StaticOrbitState,
    static_symplectic,
)

# The constructor parameters of each record, as the dataclasses declared
# them; RunConfig's params defaulted to a new empty dict (a default factory).
_SIGNATURES = {
    GeneratorLabel: "name, physical_dimension=(0, 0)",
    JacobiViolation: "triple, residual",
    AlgebraElement: "algebra, coords",
    KinematicalParams: "lam, beta, gamma, omega=Fraction(1, 1), kappa=Fraction(1, 1)",
    AlgebraDescriptor: "name, variant='isotropic'",
    RunConfig: "command, algebra=None, variant=None, params=None, t_end=10.0, dt=0.01, "
    "out=None, format='csv'",
    DualPoint: "algebra, coords",
    OrbitChart: "coordinate_names, canonical_names=(), jacobian=()",
    SymplecticStructure: "chart, omega, theta, canonical_theta, G_field, F_field, "
    "fixed_coordinates=()",
    MagneticCouplings: "e_star_B_star, eB, eB_from_brackets, effective_mass, omega0",
    OrbitInvariant: "name, value",
    StandardOrbit: "name, variant, algebra, params, point, chart, structure, invariants, masses",
    NCPhaseSpace2D: "G_field, F_field, mass",
    HamiltonianSpec: "linear=(0.0, 0.0), quadratic=(0.0, 0.0, 0.0)",
    QuadraticHamiltonian: "hessian, gradient, constant=0",
    NCTrajectory: "times, states, energies, invariant_drift",
    StaticConstants: "m, mu, beta=Fraction(0, 1), kappa=Fraction(1, 1), nu=Fraction(0, 1), "
    "h=Fraction(0, 1)",
    StaticGroupElement: "angle=0.0, boost=(0.0, 0.0), translation=(0.0, 0.0), time=0.0, "
    "f_shift=(0.0, 0.0), pi_shift=(0.0, 0.0), phase_m=0.0, phase_mprime=0.0, phase_b=0.0, "
    "phase_lambda=0.0",
    StaticOrbitState: "constants, position=(0.0, 0.0), velocity=(0.0, 0.0), "
    "momentum=(0.0, 0.0), boost_momentum=(0.0, 0.0), energy=0.0, angular_momentum=0.0",
}


def _parameters(cls) -> list[inspect.Parameter]:
    return list(inspect.signature(cls).parameters.values())


def _fields(record) -> list[str]:
    return [p.name for p in _parameters(type(record))]


def _samples() -> dict:
    """Per record type: an instance, and a field with another value for it."""
    orbit = standard_orbit("G", m=2, h=1, E=2)
    constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
    space = NCPhaseSpace2D(Fraction(-1, 4), Fraction(1, 3), 2)
    ham = HamiltonianSpec((0.5, -1.0), (2.0, 0.25, 1.0))
    violations = rf.central_ext_table("G", 1, 1, 1, 1).jacobi_violations()
    samples = (
        (orbit.algebra.basis[0], "physical_dimension", (1, 1)),
        (violations[0], "triple", ("a", "b", "c")),
        (orbit.algebra.basis_element("K1"), "coords", (Fraction(0),) * orbit.algebra.dim),
        (orbit.params, "omega", Fraction(2)),
        (AlgebraDescriptor("G", "central_ext"), "variant", "isotropic"),
        (RunConfig(command="list"), "format", "json-lines"),
        (orbit.point, "coords", (1,) * orbit.algebra.dim),
        (orbit.chart, "canonical_names", ("a", "b", "c", "d")),
        (orbit.structure, "G_field", Fraction(7)),
        (orbit.magnetic, "eB", Fraction(7)),
        (orbit.invariants[0], "name", "other"),
        (orbit, "name", "other"),
        (space, "mass", 3),
        (ham, "linear", (0.0, 0.0)),
        (ham.hamiltonian(space), "constant", 1),
        (integrate(space, ham, (0.1, 0.2, 0.3, 0.4), 0.1, 0.05), "times", None),
        (constants, "m", 5),
        (StaticGroupElement(angle=0.5, boost=(1, 2)), "time", 3.0),
        (StaticOrbitState(constants, position=(1, 0)), "energy", 2.0),
    )
    return {type(record): (record, field, value) for record, field, value in samples}


_SAMPLES = _samples()
_RECORDS = sorted(_SIGNATURES, key=lambda cls: cls.__name__)
# mutable; a dict field (masses); array fields
_UNHASHABLE = {RunConfig, StandardOrbit, NCTrajectory}


def _package_records() -> set[type]:
    """Every ``Record`` subclass the package defines, after importing all its modules."""
    for module in pkgutil.iter_modules(kinorbit.__path__):
        importlib.import_module(f"kinorbit.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("kinorbit.") and cls not in found:
                found.add(cls)
                todo.append(cls)
    return found


def test_every_package_record_has_a_pinned_signature() -> None:
    assert set(_SIGNATURES) == _package_records()


def test_every_record_type_has_a_sample() -> None:
    assert set(_SAMPLES) == set(_SIGNATURES)


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_the_dataclass_parameters(cls) -> None:
    parameters = _parameters(cls)
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    text = ", ".join(
        p.name if p.default is inspect.Parameter.empty else f"{p.name}={p.default!r}"
        for p in parameters
    )
    assert text == _SIGNATURES[cls]


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_are_field_wise(cls) -> None:
    record, field, other = _SAMPLES[cls]
    fields = _fields(record)
    twin = copy.copy(record)
    assert twin is not record and twin == record and not twin != record
    if cls is not NCTrajectory:  # its array fields compare elementwise
        assert record._replace(**{field: other}) != record
    assert record != tuple(getattr(record, f) for f in fields)
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert hash(record) == hash(tuple(getattr(record, f) for f in fields))
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{cls.__qualname__}({shown})"


def test_repr_reads_like_the_dataclass_repr() -> None:
    assert repr(GeneratorLabel("K1", (-1, 1))) == (
        "GeneratorLabel(name='K1', physical_dimension=(-1, 1))"
    )
    assert repr(AlgebraDescriptor("G")) == "AlgebraDescriptor(name='G', variant='isotropic')"
    assert repr(StaticGroupElement(time=2)) == (
        "StaticGroupElement(angle=0.0, boost=(0.0, 0.0), translation=(0.0, 0.0), time=2.0, "
        "f_shift=(0.0, 0.0), pi_shift=(0.0, 0.0), phase_m=0.0, phase_mprime=0.0, "
        "phase_b=0.0, phase_lambda=0.0)"
    )
    assert repr(RunConfig("list")) == (
        "RunConfig(command='list', algebra=None, variant=None, params={}, t_end=10.0, "
        "dt=0.01, out=None, format='csv')"
    )


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls) -> None:
    record, field, other = _SAMPLES[cls]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, other)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert getattr(record, field) is before


def test_run_config_refuses_assignment_and_stays_unhashable() -> None:
    config = RunConfig("list")
    with pytest.raises(AttributeError, match="cannot assign to field 'out'"):
        config.out = "table.csv"
    assert config.out is None
    assert config._replace(out="table.csv") == RunConfig("list", out="table.csv")
    # its params dict makes it unhashable
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(config)
    # every instance gets its own params dict
    assert RunConfig("list").params == {} and RunConfig("list").params is not config.params


def test_replace_rebuilds_and_checks_through_init() -> None:
    config = RunConfig("list")
    assert config._replace(format="json-lines") == RunConfig("list", format="json-lines")
    with pytest.raises(ValueError, match="unknown format"):
        config._replace(format="xml")
    with pytest.raises(TypeError):
        config._replace(no_such_field=1)
    state = StaticOrbitState(StaticConstants(m=1, mu=2), momentum=(1, 2))
    with pytest.raises(ValueError, match="state field momentum must be finite"):
        state._replace(momentum=(1.0, float("inf")))


# exact fields of records and charts, read by records.exact: (the field a
# bool is given to, the constructor)
_EXACT_FIELDS = {
    "NCPhaseSpace2D": ("G_field", lambda flag: NCPhaseSpace2D(G_field=flag, F_field=0, mass=1)),
    "StaticConstants": ("m", lambda flag: StaticConstants(m=flag, mu=2, beta=1, kappa=1)),
    "standard_orbit": ("m", lambda flag: standard_orbit("G", m=flag)),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("field, make", _EXACT_FIELDS.values(), ids=_EXACT_FIELDS)
def test_an_exact_field_refuses_a_bool(field, make, flag) -> None:
    # a bool is no number to rat: not an exact 1 or 0, and the error names the field
    message = f"^{field} must be a finite rational number, got {flag}$"
    with pytest.raises(CatalogError, match=message):
        make(flag)


def test_the_shared_base_types_are_one_class_each() -> None:
    # records and timegrid define them; the package lends them, and a module
    # that uses one holds the defining module's object
    from kinorbit import records, timegrid

    shared = {name: records for name in ("CatalogError", "Record", "checked_float", "exact", "rat",
                                         "real")}
    shared["IntegrationError"] = timegrid
    for name in ("CatalogError", "IntegrationError", "Record", "rat"):
        assert getattr(kinorbit, name) is getattr(shared[name], name)
    for stem in ("algebra_core", "catalog", "cli", "coadjoint", "mechanics", "rational_linalg",
                 "static_group"):
        module = importlib.import_module(f"kinorbit.{stem}")
        held = [name for name in shared if hasattr(module, name)]
        assert [name for name in held
                if getattr(module, name) is not getattr(shared[name], name)] == []
        assert set(held).isdisjoint(module.__all__), stem
    assert all(issubclass(cls, records.Record) for cls in _RECORDS)


def test_records_pickle_through_init() -> None:
    for record in (
        GeneratorLabel("K1", (-1, 1)),
        AlgebraDescriptor("G", "central_ext"),
        KinematicalParams.for_algebra("NH+", Fraction(2, 3), Fraction(5, 7)),
        StaticConstants(m=1, mu=2, beta=1, kappa=1),
        StaticGroupElement(angle=0.5, boost=(1, 2)),
        RunConfig("simulate", params={"m": "2"}),
    ):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)


def test_static_constants_set_their_derived_values() -> None:
    c = StaticConstants(
        m=Fraction(3, 2), mu=Fraction(5, 2), beta=Fraction(-1, 3), kappa=Fraction(7, 4)
    )
    det = Fraction(5, 2) * Fraction(7, 4) - Fraction(1, 9)
    assert (c.det, c.kappa_e, c.mu_e) == (det, det / Fraction(5, 2), det / Fraction(7, 4))
    assert all(isinstance(v, Fraction) for v in (c.det, c.kappa_e, c.mu_e))
    assert c.floats == StaticFloats(*map(float, (
        c.m, c.mu, c.beta, c.kappa, c.nu, c.h, c.kappa_e, c.mu_e
    )))
    assert c.floats is c.floats
    assert copy.copy(c).floats == c.floats


def test_static_constants_beyond_float_range_serve_the_exact_paths() -> None:
    huge = StaticConstants(m=10**400, mu=2)
    assert static_symplectic(huge).dim == 8
    with pytest.raises(OverflowError):
        huge.floats


@pytest.mark.parametrize("name", ISOTROPIC_NAMES)
def test_params_for_a_catalog_name_pass_the_checked_constructor(name) -> None:
    for omega, kappa in ((1, 1), (Fraction(2, 3), Fraction(5, 7)), ("3", "1/2")):
        params = KinematicalParams.for_algebra(name, omega, kappa)
        values = [getattr(params, f) for f in ("lam", "beta", "gamma", "omega", "kappa")]
        assert all(type(v) is Fraction for v in values)
        assert KinematicalParams(*values) == params
