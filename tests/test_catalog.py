from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest

from kinorbit.algebra_core import StructureConstants, check_jacobi
from kinorbit.catalog import (
    ANISOTROPIC_NAMES,
    CENTRAL_EXTENSION_NAMES,
    ISOTROPIC_NAMES,
    NONCENTRAL_EXTENSION_NAMES,
    VARIANTS,
    AlgebraDescriptor,
    CatalogError,
    KinematicalParams,
    admissible_central_extensions,
    build,
    generator_label,
    list_catalog,
)


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
            assert check_jacobi(alg) == [], (rec.name, rec.variant)


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
        assert check_jacobi(alg) == []


def test_central_extension_default_charges() -> None:
    from reference_forms import DEFAULT_CENTRAL_CHARGES

    cases = {
        "NH+": (1, Fraction(1)),
        "NH-": (1, Fraction(-1)),
        "G": (1, Fraction(0)),
        "G'+": (0, Fraction(1)),
        "G'-": (0, Fraction(-1)),
        "S": (0, Fraction(0)),
    }
    for name, (lam, beta_sign) in cases.items():
        rule = admissible_central_extensions(lam, beta_sign)
        assert (rule.default_mu, rule.default_alpha) == DEFAULT_CENTRAL_CHARGES[name], name


def test_central_extension_admissibility_rules() -> None:
    # relative space, expanding curvature: charges must be opposite
    rule = admissible_central_extensions(1, 1)
    assert rule.admissible(1, -1)
    assert rule.admissible(Fraction(2, 3), Fraction(-2, 3))
    assert not rule.admissible(1, 1)
    # relative space, oscillating curvature: charges must be equal
    rule = admissible_central_extensions(1, -1)
    assert rule.admissible(1, 1)
    assert not rule.admissible(1, -1)
    # relative space, flat: second charge must vanish
    rule = admissible_central_extensions(1, 0)
    assert rule.admissible(5, 0)
    assert not rule.admissible(1, Fraction(1, 7))
    # absolute space, curved: first charge must vanish
    rule = admissible_central_extensions(0, 1)
    assert rule.admissible(0, 3)
    assert not rule.admissible(Fraction(1, 2), 3)
    # absolute space, flat: no constraint
    rule = admissible_central_extensions(0, 0)
    assert rule.admissible(7, -2)
    assert rule.admissible(0, 0)


def test_central_extension_rule_accepts_literal_beta_value() -> None:
    by_sign = admissible_central_extensions(1, 1)
    by_value = admissible_central_extensions(1, 9, omega=3)
    assert by_sign == by_value
    assert admissible_central_extensions(0, -4, omega=2).beta_sign == -1
    with pytest.raises(CatalogError):
        admissible_central_extensions(1, 1, omega=3)
    with pytest.raises(CatalogError):
        admissible_central_extensions(2, 0)


@pytest.mark.parametrize("omega", [0, -1, Fraction(-1, 2)])
def test_central_extension_rule_needs_a_positive_omega(omega) -> None:
    # beta = 0 = omega^2 at omega = 0 must not read as the beta > 0 rule
    with pytest.raises(CatalogError, match="omega and kappa must be positive"):
        admissible_central_extensions(1, 0, omega=omega)
    with pytest.raises(CatalogError, match="omega and kappa must be positive"):
        admissible_central_extensions(0, 1, omega=omega)


def test_inadmissible_central_charges_rejected_when_enforced() -> None:
    with pytest.raises(CatalogError):
        build("NH+", "central_ext", mu_charge=1, alpha_charge=1)
    with pytest.raises(CatalogError):
        build("G", "central_ext", mu_charge=1, alpha_charge=Fraction(1, 3))
    with pytest.raises(CatalogError):
        build("G'+", "central_ext", mu_charge=Fraction(1, 2), alpha_charge=1)


def test_forced_inadmissible_charges_break_jacobi_with_pinned_residual() -> None:
    for omega, kappa in ((1, 1), (2, 3), (Fraction(1, 2), Fraction(5, 7))):
        alg = build(
            "NH+",
            "central_ext",
            omega=omega,
            kappa=kappa,
            mu_charge=1,
            alpha_charge=1,
            enforce_admissibility=False,
        )
        k2 = Fraction(kappa) ** 2
        violations = check_jacobi(alg)
        assert [(v.triple, v.residual) for v in violations] == [
            (("K1", "P2", "H"), (("S", 2 * k2),)),
            (("K2", "P1", "H"), (("S", -2 * k2),)),
        ]


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


def test_central_extension_rule_docstring_states_the_accepted_beta() -> None:
    doc = " ".join(admissible_central_extensions.__doc__.split())
    assert "{+omega^2, 0, -omega^2}" in doc
    assert "may be a sign" not in doc
    for omega in (Fraction(1), Fraction(2), Fraction(1, 3)):
        w2 = omega**2
        for beta, sign in ((w2, 1), (0, 0), (-w2, -1)):
            assert admissible_central_extensions(1, beta, omega=omega).beta_sign == sign
    # a sign is a value of beta only at omega = 1
    with pytest.raises(CatalogError, match="beta must be one of"):
        admissible_central_extensions(1, 1, omega=2)
    with pytest.raises(CatalogError, match="beta must be one of"):
        admissible_central_extensions(0, -1, omega=Fraction(1, 2))


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
            "central charges (mu=1, alpha=1) are inadmissible for 'NH+' (lam=1, "
            "beta=4): the Jacobi identity forces mu*beta/c^2 = -kappa^2*lam*alpha, "
            "i.e. mu = -alpha (both otherwise free)",
        ),
        (
            "G",
            {"mu_charge": 1, "alpha_charge": Fraction(1, 3)},
            "central charges (mu=1, alpha=1/3) are inadmissible for 'G' (lam=1, "
            "beta=0): the Jacobi identity forces mu*beta/c^2 = -kappa^2*lam*alpha, "
            "i.e. alpha = 0, mu free",
        ),
        (
            "G'-",
            {"omega": Fraction(1, 2), "mu_charge": Fraction(1, 2), "alpha_charge": 1},
            "central charges (mu=1/2, alpha=1) are inadmissible for \"G'-\" (lam=0, "
            "beta=-1/4): the Jacobi identity forces mu*beta/c^2 = -kappa^2*lam*alpha, "
            "i.e. mu = 0, alpha free",
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
