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

All structure constants are exact rationals; parameters are injected as
rationals at build time so Jacobi checks stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


# Catalog order: boosts-act-on-H row first, then not; curved pairs before flat.
ISOTROPIC_NAMES = (
    "dS+", "P", "dS-",
    "NH+", "G", "NH-",
    "P'+", "C", "P'-",
    "G'+", "S", "G'-",
)

_LABELS = {
    "dS+": "de Sitter (expanding)",
    "dS-": "de Sitter (oscillating)",
    "P": "Poincare",
    "NH+": "Newton-Hooke (expanding)",
    "NH-": "Newton-Hooke (oscillating)",
    "G": "Galilei",
    "P'+": "para-Poincare (expanding)",
    "P'-": "para-Poincare (oscillating)",
    "C": "Carroll",
    "G'+": "para-Galilei (expanding)",
    "G'-": "para-Galilei (oscillating)",
    "S": "Static",
}

# name -> (lam, beta sign, gamma nonzero?)
_FAMILY = {
    "dS+": (1, 1, True),
    "P": (1, 0, True),
    "dS-": (1, -1, True),
    "NH+": (1, 1, False),
    "G": (1, 0, False),
    "NH-": (1, -1, False),
    "P'+": (0, 1, True),
    "C": (0, 0, True),
    "P'-": (0, -1, True),
    "G'+": (0, 1, False),
    "S": (0, 0, False),
    "G'-": (0, -1, False),
}

ANISOTROPIC_NAMES = ("NH+", "G", "NH-", "C", "G'+", "S", "G'-")
CENTRAL_EXTENSION_NAMES = ANISOTROPIC_NAMES
NONCENTRAL_EXTENSION_NAMES = ("NH+", "G", "NH-", "G'+", "S", "G'-")
VARIANTS = ("isotropic", "anisotropic", "central_ext", "noncentral_ext")

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


def generator_label(name: str) -> GeneratorLabel:
    """Generator label with its formal dimension tag attached."""
    family = name.rstrip("12")
    try:
        tag = _DIMENSION_TAGS[family]
    except KeyError:
        raise CatalogError(f"unknown generator family for {name!r}") from None
    return GeneratorLabel(name, tag)


def _labels(names: tuple[str, ...]) -> tuple[GeneratorLabel, ...]:
    return tuple(generator_label(n) for n in names)


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
        lam, beta_sign, has_gamma = _family(name)
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


def _family(name: str) -> tuple[int, int, bool]:
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
        if self.variant not in VARIANTS:
            raise CatalogError(
                f"unknown variant {self.variant!r}; valid variants: {', '.join(VARIANTS)}"
            )
        if self.variant == "anisotropic" and self.name not in ANISOTROPIC_NAMES:
            raise CatalogError(
                f"anisotropic variant is inadmissible for {self.name!r}: its "
                f"boost-boost or momentum-momentum brackets produce the rotation "
                f"generator, which therefore cannot be dropped"
            )
        if self.variant == "central_ext" and self.name not in CENTRAL_EXTENSION_NAMES:
            raise CatalogError(
                f"central_ext variant is inadmissible for {self.name!r}: the "
                f"two-charge central extension exists only for "
                f"{', '.join(CENTRAL_EXTENSION_NAMES)}"
            )
        if self.variant == "noncentral_ext" and self.name not in NONCENTRAL_EXTENSION_NAMES:
            raise CatalogError(
                f"noncentral_ext variant is inadmissible for {self.name!r}: "
                f"noncentral extensions exist only for the absolute-time "
                f"algebras {', '.join(NONCENTRAL_EXTENSION_NAMES)}"
            )

    @property
    def label(self) -> str:
        return _LABELS[self.name]

    @property
    def time_class(self) -> str:
        """'absolute' when the boost-momentum bracket does not reach H."""
        return "relative" if _family(self.name)[2] else "absolute"

    @property
    def space_class(self) -> str:
        """'relative' when boosts act on time translations (lam = 1)."""
        return "relative" if _family(self.name)[0] == 1 else "absolute"

    @property
    def dim(self) -> int:
        return _VARIANT_DIMS[self.variant](self.name)


_VARIANT_DIMS = {
    "isotropic": lambda name: 6,
    "anisotropic": lambda name: 5,
    "central_ext": lambda name: 6 if name == "C" else 7,
    "noncentral_ext": lambda name: {
        "NH+": 8, "NH-": 8, "G'+": 10, "G'-": 10, "G": 12, "S": 14
    }[name],
}


@dataclass(frozen=True)
class CentralExtensionRule:
    """Admissible central charges (mu, alpha) for one (lam, beta) case.

    The charges enter as [K,K] = (mu/c^2) S eps, [P,P] = alpha kappa^2 S eps;
    the Jacobi identity forces mu*beta/c^2 = -kappa^2*lam*alpha, which
    reduces to one of four sign-level cases.
    """

    lam: int
    beta_sign: int
    description: str
    default_mu: Fraction
    default_alpha: Fraction

    def admissible(self, mu, alpha) -> bool:
        mu, alpha = rat(mu), rat(alpha)
        if self.lam == 1 and self.beta_sign != 0:
            return mu == -self.beta_sign * alpha
        if self.lam == 1 and self.beta_sign == 0:
            return alpha == 0
        if self.lam == 0 and self.beta_sign != 0:
            return mu == 0
        return True


def admissible_central_extensions(lam, beta, omega=Fraction(1)) -> CentralExtensionRule:
    """The admissible-charge rule for given ``lam`` and ``beta``.

    ``beta`` may be a sign in {-1, 0, +1} or a value in {-omega^2, 0, +omega^2}.
    """
    lam = rat(lam)
    if lam not in (0, 1):
        raise CatalogError(f"lam must be 0 or 1, got {lam}")
    beta = rat(beta)
    omega = rat(omega)
    if beta in (1, 0, -1) and omega == 1:
        sign = int(beta)
    elif beta == omega**2:
        sign = 1
    elif beta == -(omega**2):
        sign = -1
    elif beta == 0:
        sign = 0
    else:
        raise CatalogError(
            f"beta must be one of +omega^2, 0, -omega^2, got {beta}"
        )
    lam = int(lam)
    if lam == 1 and sign != 0:
        desc = f"mu = {'-' if sign > 0 else '+'}alpha (both otherwise free)"
    elif lam == 1:
        desc = "alpha = 0, mu free"
    elif sign != 0:
        desc = "mu = 0, alpha free"
    else:
        desc = "mu and alpha both free"
    defaults = {
        (1, 1): (1, -1),
        (1, -1): (1, 1),
        (1, 0): (1, 0),
        (0, 1): (0, 1),
        (0, -1): (0, 1),
        (0, 0): (1, 1),
    }[(lam, sign)]
    return CentralExtensionRule(
        lam=lam,
        beta_sign=sign,
        description=desc,
        default_mu=Fraction(defaults[0]),
        default_alpha=Fraction(defaults[1]),
    )


# -- bracket assembly -------------------------------------------------------


def _rotation_brackets(table, pairs) -> None:
    for v1, v2 in pairs:
        table[("J", v1)] = {v2: 1}
        table[("J", v2)] = {v1: -1}


def _base_brackets(table, params: KinematicalParams) -> None:
    """The boost/momentum/time brackets shared by all variants."""
    table[("K1", "H")] = {"P1": params.lam}
    table[("K2", "H")] = {"P2": params.lam}
    table[("P1", "H")] = {"K1": params.beta}
    table[("P2", "H")] = {"K2": params.beta}


def _build_isotropic(name: str, params: KinematicalParams) -> StructureConstants:
    table: dict = {}
    _rotation_brackets(table, [("K1", "K2"), ("P1", "P2")])
    table[("K1", "K2")] = {"J": -params.lam * params.gamma}
    table[("P1", "P2")] = {"J": params.alpha}
    table[("K1", "P1")] = {"H": params.gamma}
    table[("K2", "P2")] = {"H": params.gamma}
    _base_brackets(table, params)
    return StructureConstants(
        _labels(("J", "K1", "K2", "P1", "P2", "H")), table
    )


def _build_anisotropic(name: str, params: KinematicalParams) -> StructureConstants:
    table: dict = {}
    table[("K1", "P1")] = {"H": params.gamma}
    table[("K2", "P2")] = {"H": params.gamma}
    _base_brackets(table, params)
    return StructureConstants(_labels(("K1", "K2", "P1", "P2", "H")), table)


def _build_central_ext(
    name: str,
    params: KinematicalParams,
    mu_charge,
    alpha_charge,
    m_coupling,
    enforce_admissibility: bool,
) -> StructureConstants:
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
    table: dict = {}
    table[("K1", "K2")] = {"S": mu_charge * params.inv_c2}
    table[("P1", "P2")] = {"S": alpha_charge * params.kappa**2}
    if name == "C":
        table[("K1", "P1")] = {"H": params.inv_c2}
        table[("K2", "P2")] = {"H": params.inv_c2}
        basis = ("K1", "K2", "P1", "P2", "H", "S")
    else:
        m_coupling = rat(m_coupling)
        table[("K1", "P1")] = {"M": m_coupling}
        table[("K2", "P2")] = {"M": m_coupling}
        basis = ("K1", "K2", "P1", "P2", "H", "M", "S")
    _base_brackets(table, params)
    return StructureConstants(_labels(basis), table)


def _build_noncentral_ext(name: str, params: KinematicalParams) -> StructureConstants:
    w2 = params.omega**2
    k2 = params.kappa**2
    table: dict = {}
    if name in ("NH+", "NH-"):
        sign = 1 if name.endswith("+") else -1
        _rotation_brackets(table, [("K1", "K2"), ("P1", "P2")])
        table[("K1", "K2")] = {"S": params.inv_c2}
        table[("P1", "P2")] = {"S": -sign * k2}
        table[("K1", "P1")] = {"M": 1}
        table[("K2", "P2")] = {"M": 1}
        table[("K1", "H")] = {"P1": 1}
        table[("K2", "H")] = {"P2": 1}
        table[("P1", "H")] = {"K1": sign * w2}
        table[("P2", "H")] = {"K2": sign * w2}
        basis = ("J", "K1", "K2", "P1", "P2", "H", "M", "S")
    elif name in ("G'+", "G'-"):
        sign = 1 if name.endswith("+") else -1
        _rotation_brackets(table, [("K1", "K2"), ("P1", "P2"), ("Pi1", "Pi2")])
        table[("K1", "P1")] = {"M": 1}
        table[("K2", "P2")] = {"M": 1}
        table[("P1", "P2")] = {"S": k2}
        table[("K1", "H")] = {"Pi1": 1}
        table[("K2", "H")] = {"Pi2": 1}
        table[("P1", "H")] = {"K1": sign * w2}
        table[("P2", "H")] = {"K2": sign * w2}
        basis = ("J", "K1", "K2", "P1", "P2", "H", "M", "S", "Pi1", "Pi2")
    elif name == "G":
        _rotation_brackets(
            table, [("K1", "K2"), ("P1", "P2"), ("F1", "F2"), ("Pi1", "Pi2")]
        )
        table[("K1", "K2")] = {"S": params.inv_c2}
        table[("K1", "P1")] = {"M": 1}
        table[("K2", "P2")] = {"M": 1}
        table[("K1", "H")] = {"Pi1": 1}
        table[("K2", "H")] = {"Pi2": 1}
        table[("P1", "H")] = {"F1": 1}
        table[("P2", "H")] = {"F2": 1}
        basis = (
            "J", "K1", "K2", "P1", "P2", "H", "M", "S", "F1", "F2", "Pi1", "Pi2"
        )
    elif name == "S":
        _rotation_brackets(
            table, [("K1", "K2"), ("P1", "P2"), ("F1", "F2"), ("Pi1", "Pi2")]
        )
        table[("K1", "P1")] = {"M": 1}
        table[("K2", "P2")] = {"M": 1}
        table[("K1", "F1")] = {"B": 1}
        table[("K2", "F2")] = {"B": 1}
        table[("P1", "F1")] = {"Lambda": 1}
        table[("P2", "F2")] = {"Lambda": 1}
        table[("K1", "Pi1")] = {"M'": 1}
        table[("K2", "Pi2")] = {"M'": 1}
        table[("P1", "Pi1")] = {"B": 1}
        table[("P2", "Pi2")] = {"B": 1}
        table[("K1", "H")] = {"Pi1": 1}
        table[("K2", "H")] = {"Pi2": 1}
        table[("P1", "H")] = {"F1": 1}
        table[("P2", "H")] = {"F2": 1}
        basis = (
            "J", "K1", "K2", "P1", "P2", "H", "M",
            "F1", "F2", "Pi1", "Pi2", "M'", "B", "Lambda",
        )
    else:  # pragma: no cover - guarded by AlgebraDescriptor
        raise CatalogError(f"no noncentral extension for {name!r}")
    return StructureConstants(_labels(basis), table)


def build(
    descriptor: AlgebraDescriptor | str,
    variant: str | None = None,
    params: KinematicalParams | None = None,
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
    ``params`` overrides the scales; otherwise they are derived from
    ``omega`` and ``kappa``.  For ``central_ext`` builds, the charges
    ``mu_charge``/``alpha_charge`` default to the admissible normalization
    and are validated against the admissibility rule unless
    ``enforce_admissibility`` is False (used to demonstrate the resulting
    Jacobi violation).  ``m_coupling`` scales the boost-momentum central
    charge so that setting all extension parameters to zero recovers the
    unextended algebra.
    """
    if isinstance(descriptor, str):
        descriptor = AlgebraDescriptor(descriptor, variant or "isotropic")
    elif variant is not None and variant != descriptor.variant:
        raise CatalogError(
            f"conflicting variants {descriptor.variant!r} and {variant!r}"
        )
    if params is None:
        params = KinematicalParams.for_algebra(descriptor.name, omega, kappa)
    if descriptor.variant == "isotropic":
        return _build_isotropic(descriptor.name, params)
    if descriptor.variant == "anisotropic":
        return _build_anisotropic(descriptor.name, params)
    if descriptor.variant == "central_ext":
        return _build_central_ext(
            descriptor.name, params, mu_charge, alpha_charge, m_coupling,
            enforce_admissibility,
        )
    return _build_noncentral_ext(descriptor.name, params)


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
    lam, beta_sign, has_gamma = _family(name)
    if variant in ("isotropic", "anisotropic"):
        if has_gamma:
            return ("omega", "kappa")
        if beta_sign != 0:
            return ("omega",)
        return ()
    if variant == "central_ext":
        return ("omega", "kappa")
    slots = {
        "NH+": ("omega", "kappa"), "NH-": ("omega", "kappa"),
        "G'+": ("omega", "kappa"), "G'-": ("omega", "kappa"),
        "G": ("omega", "kappa"), "S": (),
    }
    return slots[name]


def list_catalog() -> tuple[CatalogRecord, ...]:
    """All (name, variant) combinations in fixed catalog order."""
    records = []
    for name in ISOTROPIC_NAMES:
        for variant in VARIANTS:
            try:
                desc = AlgebraDescriptor(name, variant)
            except CatalogError:
                continue
            records.append(
                CatalogRecord(
                    name=name,
                    label=desc.label,
                    variant=variant,
                    dim=desc.dim,
                    time_class=desc.time_class,
                    space_class=desc.space_class,
                    param_slots=_param_slots(name, variant),
                )
            )
    return tuple(records)
