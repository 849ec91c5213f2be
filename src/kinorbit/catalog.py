"""Catalog of planar kinematical Lie algebras and their extensions.

Twelve isotropic algebras are generated from three parameters: a flag
``lam`` in {0, 1} controlling whether boosts act on time translations, a
coefficient ``beta`` in {+omega^2, 0, -omega^2} controlling how momenta act
on time translations, and a coupling ``gamma`` in {1/c^2, 0} controlling
the boost-momentum bracket, with the velocity scale tied to the two
curvature scales by c = omega/kappa.  Each algebra additionally comes in up
to three derived variants:

``anisotropic``
    the rotation generator dropped (admissible whenever rotations never
    appear on the right-hand side of a bracket);
``central_ext``
    the anisotropic algebra enlarged by two central charges M, S entering
    [K,K], [K,P], [P,P] (for Carroll the boost-momentum bracket keeps H);
``noncentral_ext``
    the isotropic absolute-time algebras enlarged by noncentral vector
    generators (F_i, Pi_i) and further charges.

Brackets are written in rotation-covariant vector notation over generator
families: K, P, F and Pi are vectors with components 1, 2, the others are
scalars.  A bracket ``(V, V): {X: c}`` means [V_i, V_j] = c eps_ij X,
``(V, W): {X: c}`` means [V_i, W_j] = c delta_ij X, and ``(V, s): {W: c}``
means [V_i, s] = c W_i; wherever J is in the basis it rotates every vector,
[J, V_i] = eps_ij V_j.  Each fact lives in one place: a name's label and
(lam, beta sign, gamma != 0) in ``_FAMILY``, which names admit a variant
and why in ``_ADMITTED``, a variant's basis in ``_families``, its brackets
in ``_brackets``, the central-charge rule in ``CentralExtensionRule`` and
``_CENTRAL_CASES``, and the expansion into components in ``_assemble``.

All structure constants are exact rationals; parameters are injected as
rationals at build time so Jacobi checks stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra_core import GeneratorLabel, StructureConstants
from .rational_linalg import rat

__all__ = [
    "CatalogError",
    "KinematicalParams",
    "AlgebraDescriptor",
    "CentralExtensionRule",
    "CatalogRecord",
    "ISOTROPIC_NAMES",
    "ANISOTROPIC_NAMES",
    "CENTRAL_EXTENSION_NAMES",
    "NONCENTRAL_EXTENSION_NAMES",
    "VARIANTS",
    "admissible_central_extensions",
    "build",
    "generator_label",
    "list_catalog",
]


class CatalogError(ValueError):
    """Raised for unknown algebra names, inadmissible variant requests and
    parameter values outside their domain (a nonpositive scale or mass, a
    vanishing charge)."""


# name -> (label, lam, beta sign, gamma nonzero?), in catalog order: the
# boosts-act-on-H row first, then not; curved pairs before flat.
_FAMILY = {
    "dS+": ("de Sitter (expanding)", 1, 1, True),
    "P": ("Poincare", 1, 0, True),
    "dS-": ("de Sitter (oscillating)", 1, -1, True),
    "NH+": ("Newton-Hooke (expanding)", 1, 1, False),
    "G": ("Galilei", 1, 0, False),
    "NH-": ("Newton-Hooke (oscillating)", 1, -1, False),
    "P'+": ("para-Poincare (expanding)", 0, 1, True),
    "C": ("Carroll", 0, 0, True),
    "P'-": ("para-Poincare (oscillating)", 0, -1, True),
    "G'+": ("para-Galilei (expanding)", 0, 1, False),
    "S": ("Static", 0, 0, False),
    "G'-": ("para-Galilei (oscillating)", 0, -1, False),
}

ISOTROPIC_NAMES = tuple(_FAMILY)
# J can be dropped where [K,K] = -lam*gamma J and [P,P] = beta*gamma J vanish
ANISOTROPIC_NAMES = tuple(
    name for name, (_, lam, sign, gamma) in _FAMILY.items()
    if lam * gamma == sign * gamma == 0
)
CENTRAL_EXTENSION_NAMES = ANISOTROPIC_NAMES
# absolute time: the boost-momentum bracket does not reach H
NONCENTRAL_EXTENSION_NAMES = tuple(
    name for name, (*_, gamma) in _FAMILY.items() if not gamma
)

# variant -> (names that admit it, why the others do not)
_ADMITTED = {
    "isotropic": (ISOTROPIC_NAMES, ""),
    "anisotropic": (
        ANISOTROPIC_NAMES,
        "its boost-boost or momentum-momentum brackets produce the rotation "
        "generator, which therefore cannot be dropped",
    ),
    "central_ext": (
        CENTRAL_EXTENSION_NAMES,
        "the two-charge central extension exists only for "
        f"{', '.join(CENTRAL_EXTENSION_NAMES)}",
    ),
    "noncentral_ext": (
        NONCENTRAL_EXTENSION_NAMES,
        "noncentral extensions exist only for the absolute-time algebras "
        f"{', '.join(NONCENTRAL_EXTENSION_NAMES)}",
    ),
}
VARIANTS = tuple(_ADMITTED)

# Formal L^a T^b dimension tags per generator family name.
_DIMENSION_TAGS = {
    "J": (0, 0),
    "K": (-1, 1),
    "P": (-1, 0),
    "H": (0, -1),
    "M": (-2, 1),
    "S": (0, 0),
    "F": (-1, -1),
    "Pi": (-1, 0),
    "M'": (-2, 1),
    "B": (-2, 0),
    "Lambda": (-2, -1),
}
_VECTORS = ("K", "P", "F", "Pi")


def generator_label(name: str) -> GeneratorLabel:
    """Generator label with its formal dimension tag attached."""
    family = name.rstrip("12")
    try:
        tag = _DIMENSION_TAGS[family]
    except KeyError:
        raise CatalogError(f"unknown generator family for {name!r}") from None
    return GeneratorLabel(name, tag)


@dataclass(frozen=True)
class KinematicalParams:
    """Numeric parameters (lam, beta, gamma) plus the scales they derive from.

    ``beta`` must be one of {+omega^2, 0, -omega^2} and ``gamma`` one of
    {kappa^2/omega^2, 0} (the latter is 1/c^2 under c = omega/kappa).
    Derived combinations: ``alpha = beta*gamma`` and ``mu = -lam*gamma``.
    """

    lam: Fraction
    beta: Fraction
    gamma: Fraction
    omega: Fraction = Fraction(1)
    kappa: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        for field_name in ("lam", "beta", "gamma", "omega", "kappa"):
            object.__setattr__(self, field_name, rat(getattr(self, field_name)))
        if self.lam not in (0, 1):
            raise CatalogError(f"lam must be 0 or 1, got {self.lam}")
        if self.omega <= 0 or self.kappa <= 0:
            raise CatalogError("omega and kappa must be positive")
        w2 = self.omega**2
        if self.beta not in (w2, Fraction(0), -w2):
            raise CatalogError(
                f"beta must be one of +omega^2, 0, -omega^2 "
                f"(omega={self.omega}), got {self.beta}"
            )
        if self.gamma not in (self.inv_c2, Fraction(0)):
            raise CatalogError(
                f"gamma must be 1/c^2 = kappa^2/omega^2 or 0, got {self.gamma}"
            )

    @classmethod
    def for_algebra(
        cls, name: str, omega=Fraction(1), kappa=Fraction(1)
    ) -> "KinematicalParams":
        _, lam, beta_sign, has_gamma = _family(name)
        omega = rat(omega)
        kappa = rat(kappa)
        return cls(
            lam=Fraction(lam),
            beta=beta_sign * omega**2,
            # omega = 0 reaches __post_init__, which rejects it
            gamma=(kappa**2 / omega**2) if has_gamma and omega else Fraction(0),
            omega=omega,
            kappa=kappa,
        )

    @property
    def c(self) -> Fraction:
        """Velocity scale c = omega/kappa."""
        return self.omega / self.kappa

    @property
    def inv_c2(self) -> Fraction:
        return self.kappa**2 / self.omega**2

    @property
    def alpha(self) -> Fraction:
        return self.beta * self.gamma

    @property
    def mu(self) -> Fraction:
        return -self.lam * self.gamma


def _family(name: str) -> tuple[str, int, int, bool]:
    try:
        return _FAMILY[name]
    except KeyError:
        raise CatalogError(
            f"unknown algebra name {name!r}; valid names: {', '.join(ISOTROPIC_NAMES)}"
        ) from None


@dataclass(frozen=True)
class AlgebraDescriptor:
    """A catalog selector: algebra name plus construction variant."""

    name: str
    variant: str = "isotropic"

    def __post_init__(self) -> None:
        _family(self.name)
        if self.variant not in _ADMITTED:
            raise CatalogError(
                f"unknown variant {self.variant!r}; valid variants: {', '.join(VARIANTS)}"
            )
        names, reason = _ADMITTED[self.variant]
        if self.name not in names:
            raise CatalogError(
                f"{self.variant} variant is inadmissible for {self.name!r}: {reason}"
            )

    @property
    def label(self) -> str:
        return _FAMILY[self.name][0]

    @property
    def time_class(self) -> str:
        """'absolute' when the boost-momentum bracket does not reach H."""
        return "relative" if _FAMILY[self.name][3] else "absolute"

    @property
    def space_class(self) -> str:
        """'relative' when boosts act on time translations (lam = 1)."""
        return "relative" if _FAMILY[self.name][1] == 1 else "absolute"

    @property
    def dim(self) -> int:
        return len(_basis(_families(self.name, self.variant)))


@dataclass(frozen=True)
class CentralExtensionRule:
    """Admissible central charges (mu, alpha) for one (lam, beta) case.

    The charges enter as [K,K] = (mu/c^2) S eps, [P,P] = alpha kappa^2 S eps;
    the Jacobi identity forces mu*beta/c^2 = -kappa^2*lam*alpha, which at
    sign level reads mu*sign(beta) = -lam*alpha.
    """

    lam: int
    beta_sign: int
    description: str
    default_mu: Fraction
    default_alpha: Fraction

    def admissible(self, mu, alpha) -> bool:
        return rat(mu) * self.beta_sign == -self.lam * rat(alpha)


# (lam, beta sign) -> (the rule in words, default mu, default alpha)
_CENTRAL_CASES = {
    (1, 1): ("mu = -alpha (both otherwise free)", 1, -1),
    (1, -1): ("mu = +alpha (both otherwise free)", 1, 1),
    (1, 0): ("alpha = 0, mu free", 1, 0),
    (0, 1): ("mu = 0, alpha free", 0, 1),
    (0, -1): ("mu = 0, alpha free", 0, 1),
    (0, 0): ("mu and alpha both free", 1, 1),
}


def admissible_central_extensions(lam, beta, omega=Fraction(1)) -> CentralExtensionRule:
    """The admissible-charge rule for given ``lam`` and ``beta``.

    ``beta`` may be a sign in {-1, 0, +1} or a value in {-omega^2, 0, +omega^2}.
    """
    lam = rat(lam)
    if lam not in (0, 1):
        raise CatalogError(f"lam must be 0 or 1, got {lam}")
    beta = rat(beta)
    omega = rat(omega)
    if omega <= 0:
        raise CatalogError("omega and kappa must be positive")
    if beta not in (omega**2, 0, -(omega**2)):
        raise CatalogError(
            f"beta must be one of +omega^2, 0, -omega^2, got {beta}"
        )
    sign = (beta > 0) - (beta < 0)
    description, mu, alpha = _CENTRAL_CASES[(int(lam), sign)]
    return CentralExtensionRule(
        lam=int(lam),
        beta_sign=sign,
        description=description,
        default_mu=Fraction(mu),
        default_alpha=Fraction(alpha),
    )


# -- bracket assembly -------------------------------------------------------


def _families(name: str, variant: str) -> tuple[str, ...]:
    """The generator families of a catalog entry, in basis order."""
    if variant == "isotropic":
        return ("J", "K", "P", "H")
    if variant == "anisotropic":
        return ("K", "P", "H")
    if variant == "central_ext":
        return ("K", "P", "H", "S") if name == "C" else ("K", "P", "H", "M", "S")
    if name == "S":
        return ("J", "K", "P", "H", "M", "F", "Pi", "M'", "B", "Lambda")
    extra = {"G": ("F", "Pi"), "G'+": ("Pi",), "G'-": ("Pi",)}.get(name, ())
    return ("J", "K", "P", "H", "M", "S", *extra)


@cache
def _basis(families: tuple[str, ...]) -> tuple[GeneratorLabel, ...]:
    """The labeled basis of ``families``: a vector family spans two components."""
    return tuple(
        GeneratorLabel(component, _DIMENSION_TAGS[family])
        for family in families
        for component in ((family + "1", family + "2") if family in _VECTORS else (family,))
    )


def _brackets(
    name: str,
    variant: str,
    params: KinematicalParams,
    mu_charge,
    alpha_charge,
    m_coupling,
    enforce_admissibility: bool,
) -> dict:
    """The brackets of a catalog entry in vector notation (see the module doc)."""
    time = {("K", "H"): {"P": params.lam}, ("P", "H"): {"K": params.beta}}
    if variant == "isotropic":
        return {
            ("K", "K"): {"J": params.mu},
            ("P", "P"): {"J": params.alpha},
            ("K", "P"): {"H": params.gamma},
            **time,
        }
    if variant == "anisotropic":
        return {("K", "P"): {"H": params.gamma}, **time}
    if variant == "central_ext":
        rule = admissible_central_extensions(params.lam, params.beta, params.omega)
        if mu_charge is None:
            mu_charge = rule.default_mu
        if alpha_charge is None:
            alpha_charge = rule.default_alpha
        mu_charge, alpha_charge = rat(mu_charge), rat(alpha_charge)
        if enforce_admissibility and not rule.admissible(mu_charge, alpha_charge):
            raise CatalogError(
                f"central charges (mu={mu_charge}, alpha={alpha_charge}) are "
                f"inadmissible for {name!r} (lam={params.lam}, beta={params.beta}): "
                f"the Jacobi identity forces mu*beta/c^2 = -kappa^2*lam*alpha, "
                f"i.e. {rule.description}"
            )
        return {
            ("K", "K"): {"S": mu_charge * params.inv_c2},
            ("P", "P"): {"S": alpha_charge * params.kappa**2},
            ("K", "P"): {"H": params.inv_c2} if name == "C" else {"M": rat(m_coupling)},
            **time,
        }
    sign, k2 = _FAMILY[name][2], params.kappa**2
    oscillator = {"K": sign * params.omega**2}
    if name in ("NH+", "NH-"):
        return {
            ("K", "K"): {"S": params.inv_c2},
            ("P", "P"): {"S": -sign * k2},
            ("K", "P"): {"M": 1},
            ("K", "H"): {"P": 1},
            ("P", "H"): oscillator,
        }
    if name in ("G'+", "G'-"):
        return {
            ("K", "P"): {"M": 1},
            ("P", "P"): {"S": k2},
            ("K", "H"): {"Pi": 1},
            ("P", "H"): oscillator,
        }
    if name == "G":
        return {
            ("K", "K"): {"S": params.inv_c2},
            ("K", "P"): {"M": 1},
            ("K", "H"): {"Pi": 1},
            ("P", "H"): {"F": 1},
        }
    return {
        ("K", "P"): {"M": 1},
        ("K", "F"): {"B": 1},
        ("P", "F"): {"Lambda": 1},
        ("K", "Pi"): {"M'": 1},
        ("P", "Pi"): {"B": 1},
        ("K", "H"): {"Pi": 1},
        ("P", "H"): {"F": 1},
    }


def _assemble(families: tuple[str, ...], brackets: dict) -> StructureConstants:
    """Expand vector-notation ``brackets`` into components over the basis of
    ``families``, with J's rotation of every vector when J is present."""
    table: dict = {}
    if "J" in families:
        for v in families:
            if v in _VECTORS:
                table[("J", v + "1")] = {v + "2": 1}
                table[("J", v + "2")] = {v + "1": -1}
    for (a, b), targets in brackets.items():
        if a == b:  # [V_i, V_j] = eps_ij X
            table[(a + "1", a + "2")] = targets
        elif b in _VECTORS:  # [V_i, W_j] = delta_ij X
            table[(a + "1", b + "1")] = table[(a + "2", b + "2")] = targets
        else:  # [V_i, s] = c W_i
            for i in "12":
                table[(a + i, b)] = {w + i: c for w, c in targets.items()}
    return StructureConstants(_basis(families), table)


def build(
    descriptor: AlgebraDescriptor | str,
    variant: str | None = None,
    *,
    omega=Fraction(1),
    kappa=Fraction(1),
    mu_charge=None,
    alpha_charge=None,
    m_coupling=Fraction(1),
    enforce_admissibility: bool = True,
) -> StructureConstants:
    """Build the structure constants for a catalog algebra.

    ``descriptor`` may be an :class:`AlgebraDescriptor` or a bare name (in
    which case ``variant`` selects the variant, default ``isotropic``).
    The parameters of the name are derived from the scales ``omega`` and
    ``kappa`` (:meth:`KinematicalParams.for_algebra`).  For ``central_ext``
    builds, the charges ``mu_charge``/``alpha_charge`` default to the
    admissible normalization and are validated against the admissibility
    rule unless ``enforce_admissibility`` is False (used to demonstrate the
    resulting Jacobi violation).  ``m_coupling`` scales the boost-momentum
    central charge so that setting all extension parameters to zero
    recovers the unextended algebra.
    """
    if isinstance(descriptor, str):
        descriptor = AlgebraDescriptor(descriptor, variant or "isotropic")
    elif variant is not None and variant != descriptor.variant:
        raise CatalogError(
            f"conflicting variants {descriptor.variant!r} and {variant!r}"
        )
    name, variant = descriptor.name, descriptor.variant
    params = KinematicalParams.for_algebra(name, omega, kappa)
    brackets = _brackets(
        name, variant, params, mu_charge, alpha_charge, m_coupling,
        enforce_admissibility,
    )
    return _assemble(_families(name, variant), brackets)


@dataclass(frozen=True)
class CatalogRecord:
    """One machine-readable catalog listing row."""

    name: str
    label: str
    variant: str
    dim: int
    time_class: str
    space_class: str
    param_slots: tuple[str, ...]


def _param_slots(name: str, variant: str) -> tuple[str, ...]:
    """The scales a build reads: kappa enters through 1/c^2 and the
    extension charges, omega through beta; the noncentral Static
    extension has no scale at all."""
    _, lam, beta_sign, has_gamma = _FAMILY[name]
    if has_gamma or variant == "central_ext" or (
        variant == "noncentral_ext" and (lam or beta_sign)
    ):
        return ("omega", "kappa")
    return ("omega",) if beta_sign else ()


def list_catalog() -> tuple[CatalogRecord, ...]:
    """All (name, variant) combinations in fixed catalog order."""
    return tuple(
        CatalogRecord(
            name=name,
            label=desc.label,
            variant=variant,
            dim=desc.dim,
            time_class=desc.time_class,
            space_class=desc.space_class,
            param_slots=_param_slots(name, variant),
        )
        for name in ISOTROPIC_NAMES
        for variant, (names, _) in _ADMITTED.items()
        if name in names
        for desc in (AlgebraDescriptor(name, variant),)
    )
