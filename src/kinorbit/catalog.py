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
in ``_brackets``, and the expansion into components in ``_expansion``.
The central-charge rule is the Jacobi identity itself: :func:`build`
derives the default charges from (lam, beta sign) and checks explicit
charges on the table it builds.

Each (name, variant) is expanded once per process; a build fills in exact
rationals derived from omega, kappa and the charges, with the scale
quantities cached per (omega, kappa), bounded.
:mod:`kinorbit.algebra_core` is imported only inside
:func:`generator_label` and the expansion, which hands a build the
constructor of its algebra, so the catalog's names and descriptors
(``kinorbit list``) load no structure constants and no linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, partial

from .records import CatalogError, Record, exact, rat

__all__ = [
    "KinematicalParams",
    "AlgebraDescriptor",
    "ISOTROPIC_NAMES",
    "ANISOTROPIC_NAMES",
    "CENTRAL_EXTENSION_NAMES",
    "NONCENTRAL_EXTENSION_NAMES",
    "STANDARD_ORBIT_NAMES",
    "VARIANTS",
    "build",
    "generator_label",
    "list_catalog",
]


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

# the names whose central extension has a standard orbit chart
# (coadjoint.standard_orbit)
STANDARD_ORBIT_NAMES = ("G", "G'+", "G'-", "S", "C", "NH+", "NH-")

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


def generator_label(name: str):
    """The :class:`~kinorbit.algebra_core.GeneratorLabel` ``name`` with its
    formal dimension tag attached."""
    from .algebra_core import GeneratorLabel

    family = name.rstrip("12")
    try:
        tag = _DIMENSION_TAGS[family]
    except KeyError:
        raise CatalogError(f"unknown generator family for {name!r}") from None
    return GeneratorLabel(name, tag)


class KinematicalParams(Record):
    """Numeric parameters (lam, beta, gamma) plus the scales they derive from.

    ``beta`` must be one of {+omega^2, 0, -omega^2} and ``gamma`` one of
    {kappa^2/omega^2, 0} (the latter is 1/c^2 under c = omega/kappa).
    Derived combinations: ``alpha = beta*gamma`` and ``mu = -lam*gamma``.
    """

    __slots__ = _fields = ("lam", "beta", "gamma", "omega", "kappa")

    def __init__(
        self, lam: Fraction, beta: Fraction, gamma: Fraction,
        omega: Fraction = Fraction(1), kappa: Fraction = Fraction(1),
    ) -> None:
        lam, beta, gamma, omega, kappa = (rat(v) for v in (lam, beta, gamma, omega, kappa))
        if lam not in (0, 1):
            raise CatalogError(f"lam must be 0 or 1, got {lam}")
        if omega <= 0 or kappa <= 0:
            raise CatalogError("omega and kappa must be positive")
        w2 = omega**2
        if beta not in (w2, Fraction(0), -w2):
            raise CatalogError(
                f"beta must be one of +omega^2, 0, -omega^2 "
                f"(omega={omega}), got {beta}"
            )
        if gamma not in (kappa**2 / w2, Fraction(0)):
            raise CatalogError(
                f"gamma must be 1/c^2 = kappa^2/omega^2 or 0, got {gamma}"
            )
        self._init(lam, beta, gamma, omega, kappa)

    @classmethod
    def for_algebra(
        cls, name: str, omega=Fraction(1), kappa=Fraction(1)
    ) -> "KinematicalParams":
        """The parameters of a catalog name, derived by :func:`_quantities` and
        stored unchecked: they satisfy every check of ``__init__`` by construction."""
        q = _quantities(name, omega, kappa)
        return cls._stored(q["lam"], q["beta"], q["gamma"], q["omega"], q["kappa"])

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


_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


@lru_cache(maxsize=32)
def _scales(
    omega_num: int, omega_den: int, kappa_num: int, kappa_den: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """omega^2, kappa^2, 1/c^2 = kappa^2/omega^2 and -omega^2 at the exact,
    positive scales omega and kappa, given in lowest terms, derived once per
    pair.  The key is integers, which hash faster than a ``Fraction``."""
    w2, k2 = Fraction(omega_num, omega_den) ** 2, Fraction(kappa_num, kappa_den) ** 2
    return w2, k2, k2 / w2, -w2


def _quantities(name: str, omega, kappa) -> dict[str, Fraction]:
    """The parameters of ``name`` at the scales ``omega`` and ``kappa``, by
    the names ``_brackets`` reads them, plus the scales themselves.  The
    scales are read and checked before :func:`_scales` is consulted, so a
    refused value never reaches its cache."""
    _, lam, sign, has_gamma = _family(name)
    omega, kappa = exact("omega", omega), exact("kappa", kappa)
    ratios = (*omega.as_integer_ratio(), *kappa.as_integer_ratio())
    if ratios[0] <= 0 or ratios[2] <= 0:  # the numerators carry the signs
        raise CatalogError("omega and kappa must be positive")
    w2, k2, inv_c2, minus_w2 = _scales(*ratios)
    beta = w2 if sign > 0 else minus_w2 if sign else _ZERO
    gamma = inv_c2 if has_gamma else _ZERO
    lam = _ONE if lam else _ZERO
    return {
        "lam": lam, "beta": beta, "gamma": gamma, "mu": -gamma if lam and gamma else _ZERO,
        "alpha": beta * gamma if beta and gamma else _ZERO, "1/c^2": inv_c2,
        "kappa^2": k2, "1": _ONE, "omega": omega, "kappa": kappa,
    }


class AlgebraDescriptor(Record):
    """A catalog entry: algebra name plus construction variant.

    Construction refuses an unknown name or variant and a variant the name
    does not admit.  Every other fact of the entry is derived from the two
    fields: ``label``, ``dim``, ``time_class``, ``space_class`` and
    ``param_slots``.
    """

    __slots__ = _fields = ("name", "variant")

    def __init__(self, name: str, variant: str = "isotropic") -> None:
        _family(name)
        if variant not in _ADMITTED:
            raise CatalogError(
                f"unknown variant {variant!r}; valid variants: {', '.join(VARIANTS)}"
            )
        names, reason = _ADMITTED[variant]
        if name not in names:
            raise CatalogError(
                f"{variant} variant is inadmissible for {name!r}: {reason}"
            )
        self._init(name, variant)

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
        return sum(1 + (f in _VECTORS) for f in _families(self.name, self.variant))

    @property
    def param_slots(self) -> tuple[str, ...]:
        """The scales a build reads: kappa enters through 1/c^2 and the
        extension charges, omega through beta; the noncentral Static
        extension has no scale at all."""
        _, lam, beta_sign, has_gamma = _FAMILY[self.name]
        if has_gamma or self.variant == "central_ext" or (
            self.variant == "noncentral_ext" and (lam or beta_sign)
        ):
            return ("omega", "kappa")
        return ("omega",) if beta_sign else ()


# -- bracket expansion ------------------------------------------------------


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


def _brackets(name: str, variant: str) -> dict:
    """The brackets of a catalog entry in vector notation (see the module
    doc); a coefficient names the quantity a build fills in, '-' negating."""
    time = {("K", "H"): {"P": "lam"}, ("P", "H"): {"K": "beta"}}
    if variant == "isotropic":
        return {
            ("K", "K"): {"J": "mu"}, ("P", "P"): {"J": "alpha"}, ("K", "P"): {"H": "gamma"},
            **time,
        }
    if variant == "anisotropic":
        return {("K", "P"): {"H": "gamma"}, **time}
    if variant == "central_ext":
        return {
            ("K", "K"): {"S": "mu_charge/c^2"}, ("P", "P"): {"S": "alpha_charge*kappa^2"},
            ("K", "P"): {"H": "1/c^2"} if name == "C" else {"M": "m_coupling"},
            **time,
        }
    if name in ("NH+", "NH-"):
        return {
            ("K", "K"): {"S": "1/c^2"},
            ("P", "P"): {"S": "-kappa^2" if name == "NH+" else "kappa^2"},
            ("K", "P"): {"M": "1"}, ("K", "H"): {"P": "1"}, ("P", "H"): {"K": "beta"},
        }
    if name in ("G'+", "G'-"):
        return {
            ("K", "P"): {"M": "1"}, ("P", "P"): {"S": "kappa^2"},
            ("K", "H"): {"Pi": "1"}, ("P", "H"): {"K": "beta"},
        }
    if name == "G":
        return {
            ("K", "K"): {"S": "1/c^2"}, ("K", "P"): {"M": "1"},
            ("K", "H"): {"Pi": "1"}, ("P", "H"): {"F": "1"},
        }
    return {
        ("K", "P"): {"M": "1"}, ("K", "F"): {"B": "1"}, ("P", "F"): {"Lambda": "1"},
        ("K", "Pi"): {"M'": "1"}, ("P", "Pi"): {"B": "1"},
        ("K", "H"): {"Pi": "1"}, ("P", "H"): {"F": "1"},
    }


def _fill(slots, signed: dict) -> list:
    """``((i, j), {k: C_ij^k}, {k: -C_ij^k})`` per slot pair from the (value,
    negative) of each quantity in ``signed``; a missing quantity is zero."""
    pairs = []
    for pair, slot in slots:
        entry, negated = {}, {}
        for k, quantity, negate in slot:
            if quantity in signed:
                value, minus = signed[quantity]
                entry[k], negated[k] = (minus, value) if negate else (value, minus)
        if entry:
            pairs.append((pair, entry, negated))
    return pairs


@cache
def _expansion(name: str, variant: str) -> tuple:
    """A catalog entry's brackets in components (see the module doc), once per
    process: (the constructor of an algebra on its basis from a filled table,
    J's filled rotation pairs, the other slots ``((i, j), ((k, quantity,
    negate), ...))`` with i < j, and the quantities they read)."""
    from .algebra_core import GeneratorLabel, StructureConstants

    AlgebraDescriptor(name, variant)  # rejects an unknown or inadmissible pair
    families = _families(name, variant)
    basis = tuple(
        GeneratorLabel(component, _DIMENSION_TAGS[family])
        for family in families
        for component in ((family + "1", family + "2") if family in _VECTORS else (family,))
    )
    index = {g.name: i for i, g in enumerate(basis)}
    table: dict = {}
    for v in families if "J" in families else ():
        if v in _VECTORS:
            table[("J", v + "1")], table[("J", v + "2")] = {v + "2": "1"}, {v + "1": "-1"}
    rotations = len(table)
    for (a, b), targets in _brackets(name, variant).items():
        if a == b:  # [V_i, V_j] = eps_ij X
            table[(a + "1", a + "2")] = targets
        elif b in _VECTORS:  # [V_i, W_j] = delta_ij X
            table[(a + "1", b + "1")] = table[(a + "2", b + "2")] = targets
        else:  # [V_i, s] = c W_i
            for i in "12":
                table[(a + i, b)] = {w + i: c for w, c in targets.items()}
    slots = []
    for (a, b), row in table.items():
        i, j = index[a], index[b]
        slot = tuple((index[t], q.lstrip("-"), (i > j) != (q[0] == "-")) for t, q in row.items())
        slots.append(((min(i, j), max(i, j)), slot))
    rotation, slots = _fill(slots[:rotations], {"1": (_ONE, _MINUS_ONE)}), tuple(slots[rotations:])
    quantities = tuple(dict.fromkeys(q for _, slot in slots for _, q, _ in slot))
    return partial(StructureConstants._normalised, basis, index), rotation, slots, quantities


def build(
    name: str,
    variant: str = "isotropic",
    *,
    omega=Fraction(1),
    kappa=Fraction(1),
    mu_charge=None,
    alpha_charge=None,
    m_coupling=None,
):
    """Build the :class:`~kinorbit.algebra_core.StructureConstants` for the
    catalog entry ``name``, ``variant``.

    An unknown name or variant, or a variant the name does not admit, raises
    :class:`CatalogError`.  A build fills the expansion of its (name,
    variant) with the parameters of the scales ``omega`` and ``kappa`` (as
    :meth:`KinematicalParams.for_algebra`) and the charges of ``central_ext``,
    the only variant that takes ``mu_charge``, ``alpha_charge`` or an
    ``m_coupling`` other than 1.  Which charges close into a Lie algebra is
    the Jacobi identity, mu*beta/c^2 = -kappa^2*lam*alpha, or mu*sign(beta)
    = -lam*alpha.  The default charges satisfy it by construction: mu = 0
    where lam = 0 and beta != 0, else 1; alpha = -sign(beta) where lam = 1,
    else 1.  Explicit charges are checked on the built table, exactly: one
    that breaks the identity raises :class:`CatalogError` naming the charges
    and the first failing triple with its residual.  ``m_coupling`` (``None``
    means 1) scales the boost-momentum central charge so that setting all
    extension parameters to zero recovers the unextended algebra; Carroll,
    whose boost-momentum bracket keeps H, ignores it.  Each of the five
    parameters is read by :func:`~kinorbit.records.exact`: a bool, a
    non-finite float or a text that is no number raises
    :class:`CatalogError` naming the parameter.
    """
    algebra_of, rotation, slots, quantities = _expansion(name, variant)
    values = _quantities(name, omega, kappa)
    if variant != "central_ext":
        for arg, value in (
            ("mu_charge", mu_charge), ("alpha_charge", alpha_charge), ("m_coupling", m_coupling)
        ):
            if value is not None and (arg != "m_coupling" or exact(arg, value) != 1):
                raise CatalogError(
                    f"{arg} applies to the central_ext variant only, not to "
                    f"the {variant} variant of {name!r}"
                )
    else:
        _, lam, sign, _ = _FAMILY[name]
        mu = _ZERO if sign and not lam else _ONE
        alpha = Fraction(-sign) if lam else _ONE
        if mu_charge is not None:
            mu = exact("mu_charge", mu_charge)
        if alpha_charge is not None:
            alpha = exact("alpha_charge", alpha_charge)
        values["mu_charge/c^2"] = mu * values["1/c^2"]
        values["alpha_charge*kappa^2"] = alpha * values["kappa^2"]
        values["m_coupling"] = _ONE if m_coupling is None else exact("m_coupling", m_coupling)
    signed = {q: (v, _MINUS_ONE if v is _ONE else -v) for q in quantities if (v := values[q])}
    algebra = algebra_of(rotation + _fill(slots, signed))
    if mu_charge is not None or alpha_charge is not None:
        violations = algebra.jacobi_violations()
        if violations:
            first = violations[0]
            raise CatalogError(
                f"central charges (mu={mu}, alpha={alpha}) are inadmissible for {name!r}: "
                f"the Jacobi identity fails on ({', '.join(first.triple)}) with residual "
                + ", ".join(f"{g} = {v}" for g, v in first.residual)
            )
    return algebra


@cache
def list_catalog() -> tuple[AlgebraDescriptor, ...]:
    """Every catalog entry, as its :class:`AlgebraDescriptor`, in fixed
    catalog order (by name, then variant), built once."""
    return tuple(
        AlgebraDescriptor(name, variant)
        for name in ISOTROPIC_NAMES
        for variant, (names, _) in _ADMITTED.items()
        if name in names
    )
