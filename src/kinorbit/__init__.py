"""Exact-arithmetic toolkit for planar kinematical Lie algebras.

The package encodes the twelve planar kinematical Lie algebras and their
anisotropic, centrally extended and noncentrally extended variants as
exact rational structure constants, builds coadjoint-orbit symplectic
structures, classifies the resulting noncommutative phase spaces,
integrates the modified Hamilton equations, and implements the extended
Static group together with its orbit realization and invariants.

Every public name resolves when first used, through the module
``__getattr__``, so ``import kinorbit`` loads no submodule, and a name
loads only its own module and the layers below it.  Only
:func:`kinorbit.mechanics.integrate`, which wraps the columns of
:func:`kinorbit.mechanics.trajectory_rows` as NumPy arrays, imports NumPy,
and only when it is called.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it lends the package
_LAZY = {
    "algebra_core": (
        "AlgebraElement",
        "GeneratorLabel",
        "JacobiViolation",
        "StructureConstants",
    ),
    "catalog": (
        "AlgebraDescriptor",
        "KinematicalParams",
        "build",
        "list_catalog",
    ),
    "coadjoint": (
        "DegenerateChartError",
        "DualPoint",
        "MagneticCouplings",
        "OrbitChart",
        "OrbitInvariant",
        "StandardOrbit",
        "SymplecticStructure",
        "casimir_residual",
        "classify",
        "darboux_map",
        "kirillov_matrix",
        "magnetic_fields",
        "poisson_bracket",
        "restrict",
        "standard_orbit",
    ),
    "rational_linalg": ("RatMatrix", "SingularMatrixError", "rat_inv", "rat_rank"),
    "records": ("CatalogError", "Record", "rat"),
    "timegrid": ("IntegrationError",),
    "mechanics": (
        "CANONICAL_BRACKET_MATRIX",
        "HamiltonianSpec",
        "NCPhaseSpace2D",
        "NCTrajectory",
        "QuadraticHamiltonian",
        "integrate",
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
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A submodule, or a name it lends, imported when first asked for."""
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    return value if module == name else getattr(value, name)


__all__ = [*_HOME, "__version__"]
