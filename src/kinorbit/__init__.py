"""Exact-arithmetic toolkit for planar kinematical Lie algebras.

The package encodes the twelve planar kinematical Lie algebras and their
anisotropic, centrally extended and noncentrally extended variants as
exact rational structure constants, builds coadjoint-orbit symplectic
structures, classifies the resulting noncommutative phase spaces,
integrates the modified Hamilton equations, and implements the extended
Static group together with its orbit realization and invariants.

The exact layer imports no NumPy.  The names of the float layer
(:mod:`kinorbit.mechanics` and :mod:`kinorbit.static_group`) resolve when
first used, through the module ``__getattr__``, so ``import kinorbit``
does not load NumPy either.
"""

import importlib

from .algebra_core import (
    AlgebraElement,
    GeneratorLabel,
    JacobiViolation,
    StructureConstants,
    bracket,
    check_jacobi,
)
from .catalog import (
    AlgebraDescriptor,
    CatalogError,
    CatalogRecord,
    KinematicalParams,
    admissible_central_extensions,
    build,
    list_catalog,
)
from .coadjoint import (
    DegenerateChartError,
    DualPoint,
    MagneticCouplings,
    OrbitChart,
    OrbitInvariant,
    StandardOrbit,
    SymplecticStructure,
    casimir_residual,
    classify,
    kirillov_matrix,
    magnetic_fields,
    poisson_bracket,
    restrict,
    standard_orbit,
)
from .rational_linalg import RatMatrix, SingularMatrixError, rat, rat_inv, rat_rank
from .timegrid import IntegrationError

__version__ = "0.1.0"

# float-layer module -> the names it lends the package
_LAZY = {
    "mechanics": (
        "CANONICAL_BRACKET_MATRIX",
        "HamiltonianSpec",
        "MinimalCouplingResult",
        "NCPhaseSpace2D",
        "NCTrajectory",
        "bracket_pushforward",
        "hamiltonian_value",
        "integrate",
        "minimal_coupling_galilei",
        "minimal_coupling_paragalilei",
    ),
    "static_group": (
        "StaticConstants",
        "StaticGroupElement",
        "StaticOrbitState",
        "compose",
        "identity_element",
        "inverse",
        "multiplication_cocycle",
        "noncentral_invariants",
        "realize",
        "static_invariants",
        "static_symplectic",
        "time_evolution",
    ),
}


def __getattr__(name: str):
    """A float-layer module, or a name it lends, imported when first asked for."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            value = importlib.import_module(f".{module}", __name__)
            return value if name == module else getattr(value, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlgebraDescriptor",
    "AlgebraElement",
    "CANONICAL_BRACKET_MATRIX",
    "CatalogError",
    "CatalogRecord",
    "DegenerateChartError",
    "DualPoint",
    "GeneratorLabel",
    "HamiltonianSpec",
    "IntegrationError",
    "JacobiViolation",
    "KinematicalParams",
    "MagneticCouplings",
    "MinimalCouplingResult",
    "NCPhaseSpace2D",
    "NCTrajectory",
    "OrbitChart",
    "OrbitInvariant",
    "RatMatrix",
    "SingularMatrixError",
    "StandardOrbit",
    "StaticConstants",
    "StaticGroupElement",
    "StaticOrbitState",
    "StructureConstants",
    "SymplecticStructure",
    "admissible_central_extensions",
    "bracket",
    "bracket_pushforward",
    "build",
    "casimir_residual",
    "check_jacobi",
    "classify",
    "compose",
    "hamiltonian_value",
    "identity_element",
    "integrate",
    "inverse",
    "kirillov_matrix",
    "list_catalog",
    "magnetic_fields",
    "minimal_coupling_galilei",
    "minimal_coupling_paragalilei",
    "multiplication_cocycle",
    "noncentral_invariants",
    "poisson_bracket",
    "rat",
    "rat_inv",
    "rat_rank",
    "realize",
    "restrict",
    "standard_orbit",
    "static_invariants",
    "static_symplectic",
    "time_evolution",
    "__version__",
]
