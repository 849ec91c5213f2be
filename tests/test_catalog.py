from __future__ import annotations

import hashlib
import importlib
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference_forms as rf
from kinorbit.algebra_core import StructureConstants
from kinorbit.catalog import (
    ANISOTROPIC_NAMES,
    CENTRAL_EXTENSION_NAMES,
    ISOTROPIC_NAMES,
    NONCENTRAL_EXTENSION_NAMES,
    VARIANTS,
    AlgebraDescriptor,
    KinematicalParams,
    build,
    generator_label,
    list_catalog,
)
from kinorbit.records import CatalogError


def _rand_param(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def _named_table(alg: StructureConstants, keep=None) -> dict:
    """Name-keyed sparse bracket table, optionally restricted to ``keep``."""
    kept = set(alg.names if keep is None else keep)
    out = {}
    for (i, j), comps in alg.pair_table():
        a, b = alg.names[i], alg.names[j]
        if a not in kept or b not in kept:
            continue
        entry = {
            alg.names[k]: v for k, v in comps.items() if alg.names[k] in kept
        }
        if entry:
            out[(a, b)] = entry
    return out


def _ideal_is_invariant(alg: StructureConstants, ideal: set) -> bool:
    """[kept, ideal] must land back inside the ideal."""
    for (i, j), comps in alg.pair_table():
        a, b = alg.names[i], alg.names[j]
        if (a in ideal) == (b in ideal):
            continue
        for k, v in comps.items():
            if v != 0 and alg.names[k] not in ideal:
                return False
    return True


def test_catalog_has_32_entries_with_expected_dimensions() -> None:
    recs = list_catalog()
    assert len(recs) == 32
    dims = {(r.name, r.variant): r.dim for r in recs}
    assert dims[("G", "isotropic")] == 6
    assert dims[("G", "anisotropic")] == 5
    assert dims[("G", "central_ext")] == 7
    assert dims[("G", "noncentral_ext")] == 12
    assert dims[("C", "central_ext")] == 6
    assert dims[("NH+", "noncentral_ext")] == 8
    assert dims[("G'+", "noncentral_ext")] == 10
    assert dims[("S", "noncentral_ext")] == 14
    assert ("C", "noncentral_ext") not in dims
    assert ("dS+", "anisotropic") not in dims
    for r in recs:
        assert r.variant in VARIANTS
        assert build(r.name, r.variant).dim == r.dim


def test_the_catalog_listing_is_built_once_and_stays_immutable() -> None:
    recs = list_catalog()
    assert list_catalog() is recs
    for field in ("name", "dim", "param_slots"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(recs[0], field, None)
    # a shared record holds no mutable field
    assert all(isinstance(r.param_slots, tuple) for r in recs)


def test_param_slots_are_the_scales_a_build_reads() -> None:
    """Changing omega or kappa changes the built brackets exactly when the
    entry lists that scale in ``param_slots``."""
    for entry in list_catalog():
        base = list(build(entry.name, entry.variant).pair_table())
        for scale in ("omega", "kappa"):
            moved = list(build(entry.name, entry.variant, **{scale: Fraction(2, 3)}).pair_table())
            assert (moved != base) == (scale in entry.param_slots), (entry, scale)


def test_every_catalog_algebra_is_jacobi_clean_at_random_parameters() -> None:
    rng = random.Random(20260823)
    for rec in list_catalog():
        for _ in range(5):
            alg = build(
                rec.name,
                rec.variant,
                omega=_rand_param(rng),
                kappa=_rand_param(rng),
            )
            assert alg.jacobi_violations() == [], (rec.name, rec.variant)


def test_time_and_space_classes() -> None:
    expected = {
        "dS+": ("relative", "relative"),
        "P": ("relative", "relative"),
        "dS-": ("relative", "relative"),
        "NH+": ("absolute", "relative"),
        "G": ("absolute", "relative"),
        "NH-": ("absolute", "relative"),
        "P'+": ("relative", "absolute"),
        "C": ("relative", "absolute"),
        "P'-": ("relative", "absolute"),
        "G'+": ("absolute", "absolute"),
        "S": ("absolute", "absolute"),
        "G'-": ("absolute", "absolute"),
    }
    assert tuple(expected) == ISOTROPIC_NAMES
    for name, (tc, sc) in expected.items():
        d = AlgebraDescriptor(name, "isotropic")
        assert (d.time_class, d.space_class) == (tc, sc), name


def test_catalog_labels() -> None:
    labels = {r.name: r.label for r in list_catalog()}
    assert labels["dS+"] == "de Sitter (expanding)"
    assert labels["P"] == "Poincare"
    assert labels["NH-"] == "Newton-Hooke (oscillating)"
    assert labels["G"] == "Galilei"
    assert labels["P'+"] == "para-Poincare (expanding)"
    assert labels["C"] == "Carroll"
    assert labels["G'-"] == "para-Galilei (oscillating)"
    assert labels["S"] == "Static"


def test_isotropic_bracket_content_de_sitter() -> None:
    alg = build("dS+", omega=2, kappa=3)
    table = _named_table(alg)
    gamma = Fraction(9, 4)
    assert table[("K1", "K2")] == {"J": -gamma}
    assert table[("P1", "P2")] == {"J": 4 * gamma}
    assert table[("K1", "P1")] == {"H": gamma}
    assert table[("K2", "P2")] == {"H": gamma}
    assert table[("K1", "H")] == {"P1": Fraction(1)}
    assert table[("P1", "H")] == {"K1": Fraction(4)}
    assert table[("J", "K1")] == {"K2": Fraction(1)}
    assert table[("J", "K2")] == {"K1": Fraction(-1)}
    assert ("K1", "P2") not in table


def test_isotropic_bracket_content_flat_limits() -> None:
    g = _named_table(build("G"))
    assert g[("K1", "H")] == {"P1": Fraction(1)}
    assert ("P1", "H") not in g
    assert ("K1", "K2") not in g
    assert ("K1", "P1") not in g
    c = _named_table(build("C", omega=2, kappa=1))
    assert c[("K1", "P1")] == {"H": Fraction(1, 4)}
    assert ("K1", "H") not in c
    s = _named_table(build("S"))
    assert set(s) == {("J", "K1"), ("J", "K2"), ("J", "P1"), ("J", "P2")}


def test_inadmissible_variants_raise() -> None:
    for name in ("dS+", "P", "dS-", "P'+", "P'-"):
        with pytest.raises(CatalogError):
            build(name, "anisotropic")
        with pytest.raises(CatalogError):
            build(name, "central_ext")
        with pytest.raises(CatalogError):
            build(name, "noncentral_ext")
    with pytest.raises(CatalogError):
        build("C", "noncentral_ext")
    with pytest.raises(CatalogError):
        build("G", "no_such_variant")
    with pytest.raises(CatalogError):
        build("XX")


def test_build_takes_no_parameter_set() -> None:
    # a name's parameters follow from the name and the scales, so another
    # name's parameter set (here Poincare's gamma on Galilei) cannot be
    # passed in to give a table that breaks the Jacobi identity
    with pytest.raises(TypeError):
        build("G", "anisotropic", KinematicalParams.for_algebra("P"))


def test_anisotropic_names_cover_commuting_rotations_only() -> None:
    assert ANISOTROPIC_NAMES == ("NH+", "G", "NH-", "C", "G'+", "S", "G'-")
    assert CENTRAL_EXTENSION_NAMES == ANISOTROPIC_NAMES
    assert NONCENTRAL_EXTENSION_NAMES == ("NH+", "G", "NH-", "G'+", "S", "G'-")
    for name in ANISOTROPIC_NAMES:
        alg = build(name, "anisotropic")
        assert alg.names == ("K1", "K2", "P1", "P2", "H")
        assert alg.jacobi_violations() == []


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_default_charges() -> dict:
    """The default charges the benchmark's closed forms assume, read from
    ``perfbench/workloads.py`` without changing it."""
    sys.path.insert(0, str(_PERFBENCH))
    try:
        return importlib.import_module("workloads")._DEFAULT_CHARGES
    finally:
        sys.path.remove(str(_PERFBENCH))


def test_central_extension_default_charges() -> None:
    # build's formula, the tests' table and the benchmark's table agree;
    # the charges are read off [K1, K2] = (mu/c^2) S and [P1, P2] = alpha kappa^2 S
    bench = _bench_default_charges()
    assert set(rf.DEFAULT_CENTRAL_CHARGES) == set(bench) == set(CENTRAL_EXTENSION_NAMES)
    for omega, kappa in ((1, 1), (Fraction(2, 3), Fraction(5, 7)), (3, Fraction(1, 2))):
        k2 = Fraction(kappa) ** 2
        inv_c2 = k2 / Fraction(omega) ** 2
        for name in CENTRAL_EXTENSION_NAMES:
            table = _named_table(build(name, "central_ext", omega=omega, kappa=kappa))
            mu = table.get(("K1", "K2"), {}).get("S", 0) / inv_c2
            alpha = table.get(("P1", "P2"), {}).get("S", 0) / k2
            assert (mu, alpha) == rf.DEFAULT_CENTRAL_CHARGES[name] == bench[name], name


def _accepts(name, mu, alpha, omega=Fraction(2, 3), kappa=Fraction(5, 7)) -> bool:
    """Whether ``build`` accepts the explicit charges (mu, alpha) for ``name``."""
    try:
        build(name, "central_ext", omega=omega, kappa=kappa, mu_charge=mu, alpha_charge=alpha)
    except CatalogError:
        return False
    return True


def test_central_extension_admissibility_rules() -> None:
    # relative space, expanding curvature: charges must be opposite
    assert _accepts("NH+", 1, -1)
    assert _accepts("NH+", Fraction(2, 3), Fraction(-2, 3))
    assert not _accepts("NH+", 1, 1)
    # relative space, oscillating curvature: charges must be equal
    assert _accepts("NH-", 1, 1)
    assert not _accepts("NH-", 1, -1)
    # relative space, flat: second charge must vanish
    assert _accepts("G", 5, 0)
    assert not _accepts("G", 1, Fraction(1, 7))
    # absolute space, curved: first charge must vanish
    assert _accepts("G'+", 0, 3)
    assert _accepts("G'-", 0, -3)
    assert not _accepts("G'+", Fraction(1, 2), 3)
    # absolute space, flat: no constraint
    for name in ("S", "C"):
        assert _accepts(name, 7, -2)
        assert _accepts(name, 0, 0)


@pytest.mark.parametrize("omega", [0, -1, Fraction(-1, 2)])
def test_central_extension_rule_needs_a_positive_omega(omega) -> None:
    # a nonpositive scale is refused as such, before any charge is checked
    with pytest.raises(CatalogError, match="^omega and kappa must be positive$"):
        build("G", "central_ext", omega=omega, mu_charge=1, alpha_charge=0)
    with pytest.raises(CatalogError, match="^omega and kappa must be positive$"):
        build("G'+", "central_ext", omega=omega, mu_charge=0, alpha_charge=1)


def test_inadmissible_central_charges_rejected_when_enforced() -> None:
    with pytest.raises(CatalogError):
        build("NH+", "central_ext", mu_charge=1, alpha_charge=1)
    with pytest.raises(CatalogError):
        build("G", "central_ext", mu_charge=1, alpha_charge=Fraction(1, 3))
    with pytest.raises(CatalogError):
        build("G'+", "central_ext", mu_charge=Fraction(1, 2), alpha_charge=1)


def test_forced_inadmissible_charges_break_jacobi_with_pinned_residual() -> None:
    for omega, kappa in ((1, 1), (2, 3), (Fraction(1, 2), Fraction(5, 7))):
        k2 = Fraction(kappa) ** 2
        forced = rf.central_ext_table("NH+", omega, kappa, 1, 1)
        assert [(v.triple, v.residual) for v in forced.jacobi_violations()] == [
            (("K1", "P2", "H"), (("S", 2 * k2),)),
            (("K2", "P1", "H"), (("S", -2 * k2),)),
        ]
        with pytest.raises(CatalogError, match=re.escape(
            f"fails on (K1, P2, H) with residual S = {2 * k2}"
        )):
            build("NH+", "central_ext", omega=omega, kappa=kappa, mu_charge=1, alpha_charge=1)


def test_only_explicit_charges_run_the_jacobi_check(monkeypatch) -> None:
    calls = []
    check = StructureConstants.jacobi_violations

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(StructureConstants, "jacobi_violations", counted)
    for rec in list_catalog():
        build(rec.name, rec.variant, omega=Fraction(2, 3), kappa=Fraction(5, 7))
        build(rec.name, rec.variant, m_coupling=1)
    assert calls == []
    for name, (mu, alpha) in rf.DEFAULT_CENTRAL_CHARGES.items():
        build(name, "central_ext", mu_charge=mu)
        build(name, "central_ext", alpha_charge=alpha)
    assert len(calls) == 2 * len(rf.DEFAULT_CENTRAL_CHARGES)


def test_central_extension_bracket_content_galilei() -> None:
    alg = build("G", "central_ext", omega=2, kappa=1)
    table = _named_table(alg)
    assert table[("K1", "P1")] == {"M": Fraction(1)}
    assert table[("K2", "P2")] == {"M": Fraction(1)}
    assert table[("K1", "K2")] == {"S": Fraction(1, 4)}
    assert ("P1", "P2") not in table
    assert table[("K1", "H")] == {"P1": Fraction(1)}


def test_carroll_central_extension_keeps_hamiltonian_coupling() -> None:
    alg = build("C", "central_ext", omega=2, kappa=1)
    assert alg.names == ("K1", "K2", "P1", "P2", "H", "S")
    table = _named_table(alg)
    assert table[("K1", "P1")] == {"H": Fraction(1, 4)}
    assert table[("K1", "K2")] == {"S": Fraction(1, 4)}
    assert table[("P1", "P2")] == {"S": Fraction(1)}


def test_trivial_central_charges_reduce_to_anisotropic_algebra() -> None:
    for name in CENTRAL_EXTENSION_NAMES:
        ext = build(
            name,
            "central_ext",
            omega=2,
            kappa=3,
            mu_charge=0,
            alpha_charge=0,
            m_coupling=0,
        )
        base = build(name, "anisotropic", omega=2, kappa=3)
        shared = base.names
        assert _ideal_is_invariant(ext, set(ext.names) - set(shared))
        assert _named_table(ext, shared) == _named_table(base)


def test_noncentral_quotients_recover_isotropic_algebras() -> None:
    # the eight/ten/fourteen dimensional extensions collapse onto the
    # isotropic algebra of the same name ... except the Galilei family,
    # whose quotient is the isotropic Static algebra.
    targets = {
        "NH+": "NH+",
        "NH-": "NH-",
        "G'+": "G'+",
        "G'-": "G'-",
        "S": "S",
        "G": "S",
    }
    for name, target in targets.items():
        ext = build(name, "noncentral_ext", omega=2, kappa=3)
        base = build(target, "isotropic", omega=2, kappa=3)
        shared = ("J", "K1", "K2", "P1", "P2", "H")
        assert set(shared) <= set(ext.names)
        assert _ideal_is_invariant(ext, set(ext.names) - set(shared))
        assert _named_table(ext, shared) == _named_table(base, shared), name


def test_noncentral_bracket_content_static() -> None:
    alg = build("S", "noncentral_ext")
    table = _named_table(alg)
    assert table[("K1", "P1")] == {"M": Fraction(1)}
    assert table[("K1", "F1")] == {"B": Fraction(1)}
    assert table[("P1", "F1")] == {"Lambda": Fraction(1)}
    assert table[("K1", "Pi1")] == {"M'": Fraction(1)}
    assert table[("P1", "Pi1")] == {"B": Fraction(1)}
    assert table[("K1", "H")] == {"Pi1": Fraction(1)}
    assert table[("P1", "H")] == {"F1": Fraction(1)}
    assert table[("J", "F1")] == {"F2": Fraction(1)}
    assert table[("J", "Pi2")] == {"Pi1": Fraction(-1)}
    assert ("K1", "K2") not in table
    assert ("P1", "P2") not in table


def test_generator_dimension_tags() -> None:
    expected = {
        "J": (0, 0),
        "K1": (-1, 1),
        "K2": (-1, 1),
        "P1": (-1, 0),
        "P2": (-1, 0),
        "H": (0, -1),
        "M": (-2, 1),
        "S": (0, 0),
        "F1": (-1, -1),
        "F2": (-1, -1),
        "Pi1": (-1, 0),
        "Pi2": (-1, 0),
        "M'": (-2, 1),
        "B": (-2, 0),
        "Lambda": (-2, -1),
    }
    for name, dims in expected.items():
        assert generator_label(name).physical_dimension == dims, name
    alg = build("S", "noncentral_ext")
    for g in alg.basis:
        assert g.physical_dimension == expected[g.name]


def test_params_for_algebra_and_derived_quantities() -> None:
    p = KinematicalParams.for_algebra("dS-", omega=2, kappa=3)
    assert (p.lam, p.beta, p.gamma) == (1, Fraction(-4), Fraction(9, 4))
    assert p.c == Fraction(2, 3)
    assert p.inv_c2 == Fraction(9, 4)
    assert p.alpha == p.beta * p.gamma
    g = KinematicalParams.for_algebra("G")
    assert (g.lam, g.beta, g.gamma) == (1, 0, 0)
    c = KinematicalParams.for_algebra("C", omega=3, kappa=2)
    assert (c.lam, c.beta, c.gamma) == (0, 0, Fraction(4, 9))
    gp = KinematicalParams.for_algebra("G'+", omega=2)
    assert (gp.lam, gp.beta, gp.gamma) == (0, Fraction(4), 0)


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        KinematicalParams(lam=2, beta=0, gamma=0)
    with pytest.raises(ValueError):
        KinematicalParams(lam=1, beta=0, gamma=0, omega=0)
    with pytest.raises(ValueError):
        KinematicalParams(lam=1, beta=0, gamma=0, kappa=-1)
    with pytest.raises(ValueError):
        KinematicalParams(lam=1, beta=Fraction(1, 2), gamma=0)
    with pytest.raises(ValueError):
        KinematicalParams(lam=1, beta=0, gamma=Fraction(1, 3))
    with pytest.raises(CatalogError):
        KinematicalParams.for_algebra("nope")


def test_descriptor_validation() -> None:
    with pytest.raises(CatalogError):
        AlgebraDescriptor("dS+", "anisotropic")
    with pytest.raises(CatalogError):
        AlgebraDescriptor("G", "weird")
    d = AlgebraDescriptor("NH+", "noncentral_ext")
    assert d.dim == 8
    assert d.label == "Newton-Hooke (expanding)"


def _table_text(alg: StructureConstants) -> str:
    """Basis names, dimension tags and the sorted sparse bracket table."""
    basis = " ".join(f"{g.name}{g.physical_dimension}" for g in alg.basis)
    pairs = sorted(
        (pair, sorted(comps.items())) for pair, comps in alg.pair_table()
    )
    brackets = ";".join(
        f"{i},{j}:" + ",".join(f"{k}={v}" for k, v in comps)
        for (i, j), comps in pairs
    )
    return f"{basis}|{brackets}"


def test_every_catalog_table_matches_its_pinned_digest() -> None:
    """Every record's basis, dimension tags and brackets at two scale pairs,
    plus a central extension with non-default charges and mass coupling."""
    lines = [
        f"{r.name}:{r.variant}@{omega},{kappa}="
        + _table_text(build(r.name, r.variant, omega=omega, kappa=kappa))
        for omega, kappa in ((Fraction(1), Fraction(1)), (Fraction(2, 3), Fraction(5, 7)))
        for r in list_catalog()
    ]
    charged = build(
        "S", "central_ext", omega=Fraction(2, 3), kappa=Fraction(5, 7),
        mu_charge=Fraction(3, 2), alpha_charge=Fraction(-1, 4),
        m_coupling=Fraction(7, 5),
    )
    lines.append("S:central_ext:charged=" + _table_text(charged))
    text = "\n".join(lines)
    assert len(lines) == 65
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "bb7d08f3ab8605d0c15704d54bf05c69f96c1234860c23c93f098ffbb0faf01d"
    )


@pytest.mark.parametrize(
    ("record", "charges", "named"),
    [
        (("G", "isotropic"), {"mu_charge": 5, "alpha_charge": 7, "m_coupling": 3}, "mu_charge"),
        (("G", "isotropic"), {"alpha_charge": 7}, "alpha_charge"),
        (("NH+", "anisotropic"), {"m_coupling": 3}, "m_coupling"),
        (("S", "noncentral_ext"), {"mu_charge": 0}, "mu_charge"),
        (("dS+", "isotropic"), {"m_coupling": 0}, "m_coupling"),
    ],
)
def test_charges_outside_central_ext_are_rejected(record, charges, named) -> None:
    name, variant = record
    expected = f"^{named} .*the {variant} variant of {re.escape(repr(name))}$"
    with pytest.raises(CatalogError, match=expected):
        build(name, variant, **charges)


def test_a_unit_or_absent_m_coupling_passes_every_variant() -> None:
    for rec in list_catalog():
        plain = build(rec.name, rec.variant)
        for m_coupling in (None, 1, Fraction(1), "1"):
            coupled = build(rec.name, rec.variant, m_coupling=m_coupling)
            assert list(coupled.pair_table()) == list(plain.pair_table())
    # Carroll's boost-momentum bracket keeps H: it accepts m_coupling, reads none
    assert list(build("C", "central_ext", m_coupling=0).pair_table()) == list(
        build("C", "central_ext").pair_table()
    )


@pytest.mark.parametrize("arg", ["omega", "kappa", "mu_charge", "alpha_charge", "m_coupling"])
def test_a_bool_or_non_finite_parameter_is_refused_by_name(arg) -> None:
    # rat alone refuses a bool, a nan, an inf, a complex or a text that is
    # no number with a message that names no parameter
    for value in (True, False, float("nan"), float("inf"), -float("inf"), 1j, "abc"):
        message = f"^{arg} must be a finite rational number, got {re.escape(repr(value))}$"
        with pytest.raises(CatalogError, match=message):
            build("S", "central_ext", **{arg: value})
    if arg in ("omega", "kappa", "m_coupling"):
        with pytest.raises(CatalogError, match=f"^{arg} must be"):
            build("S", "isotropic", **{arg: True})


@pytest.mark.parametrize(
    "scales",
    [{"omega": 0}, {"kappa": -1}, {"omega": Fraction(-1, 2), "kappa": 2}, {"kappa": 0}],
)
def test_nonpositive_scales_keep_their_message(scales) -> None:
    for rec in list_catalog():
        with pytest.raises(CatalogError, match="^omega and kappa must be positive$"):
            build(rec.name, rec.variant, **scales)
    with pytest.raises(CatalogError, match="^omega and kappa must be positive$"):
        KinematicalParams.for_algebra("C", **scales)


@pytest.mark.parametrize(
    ("name", "kwargs", "message"),
    [
        (
            "NH+",
            {"omega": 2, "kappa": 3, "mu_charge": 1, "alpha_charge": 1},
            "central charges (mu=1, alpha=1) are inadmissible for 'NH+': the Jacobi "
            "identity fails on (K1, P2, H) with residual S = 18",
        ),
        (
            "G",
            {"mu_charge": 1, "alpha_charge": Fraction(1, 3)},
            "central charges (mu=1, alpha=1/3) are inadmissible for 'G': the Jacobi "
            "identity fails on (K1, P2, H) with residual S = 1/3",
        ),
        (
            "G'-",
            {"omega": Fraction(1, 2), "mu_charge": Fraction(1, 2), "alpha_charge": 1},
            "central charges (mu=1/2, alpha=1) are inadmissible for \"G'-\": the Jacobi "
            "identity fails on (K1, P2, H) with residual S = -1/2",
        ),
    ],
)
def test_inadmissible_charges_keep_their_message(name, kwargs, message) -> None:
    with pytest.raises(CatalogError) as err:
        build(name, "central_ext", **kwargs)
    assert str(err.value) == message


def test_the_expansion_cache_is_keyed_by_name_and_variant_only() -> None:
    from kinorbit.catalog import _expansion

    for rec in list_catalog():
        build(rec.name, rec.variant)
    filled = _expansion.cache_info().currsize
    assert filled <= 32
    rng = random.Random(20261019)
    for _ in range(3):
        for rec in list_catalog():
            build(rec.name, rec.variant, omega=_rand_param(rng), kappa=_rand_param(rng))
        build("S", "central_ext", mu_charge=_rand_param(rng), alpha_charge=_rand_param(rng),
              m_coupling=_rand_param(rng))
    for bad in (("XX", "isotropic"), ("dS+", "anisotropic"), ("G", "weird")):
        with pytest.raises(CatalogError):
            build(*bad)
    assert _expansion.cache_info().currsize == filled
