"""Static hygiene of the package source, read with the stdlib ``ast`` module.

Every name a module exports through ``__all__`` must exist and be defined
in that module, not imported into it (the package ``__init__``, which lends
its modules' names, aside), every name a module imports must be used in it,
every name a test imports from a module must be defined there, and every
private module-level function, class or constant must be read in its
module.  ``typing.get_type_hints`` resolves the annotations of every
function and method of the package.
The exact layer and the CLI import neither NumPy nor the float layer
when they load, and NumPy is imported in one function body only, that of
``mechanics.integrate``.  No module imports ``dataclasses``, and the
CLI and the Static group load the layers only some commands run
(``catalog``, ``coadjoint``, ``rational_linalg``, ``configparser``,
``json``, ``random``) inside the functions that use them, the catalog
builds structure constants with an ``algebra_core`` it imports there too,
and the float layer imports no exact-algebra module when it loads.  The
CLI reads a run's parameter texts only in its table parser, and the
modules that form float rows call neither builtin ``sum`` nor a NumPy
reduction (``sum``, ``dot``, ``einsum``, ``matmul``, ``@``).  Every
``functools.lru_cache`` is bounded, and ``functools.cache`` decorates only
functions without parameters or with a finite key domain, so no cache
grows with the values a caller passes.  Every module of the package, the
tests, the benchmark and the oracle parses with the grammar of Python
3.10, the oldest version ``pyproject.toml`` and CI claim.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "kinorbit"
_MODULES = sorted(_PACKAGE.glob("*.py"))
_SOURCES = sorted(
    path for folder in ("src", "tests", "perfbench", "oracles")
    for path in (_ROOT / folder).rglob("*.py")
)


def _module_name(path: Path) -> str:
    return "kinorbit" if path.stem == "__init__" else f"kinorbit.{path.stem}"


def _exported(path: Path) -> list[str]:
    """The names the module at ``path`` lists in ``__all__``: the literal list,
    or the imported module's ``__all__`` when the list is computed."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            try:
                return list(ast.literal_eval(node.value))
            except ValueError:
                return list(importlib.import_module(_module_name(path)).__all__)
    return []


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _definitions(tree: ast.Module) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level names with a leading underscore that are not dunders."""
    return [
        name
        for name in _definitions(tree)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: str(path.relative_to(_ROOT)))
def test_every_module_parses_as_python_3_10(path: Path) -> None:
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", _MODULES, ids=_module_name)
def test_every_exported_name_resolves(path: Path) -> None:
    module = importlib.import_module(_module_name(path))
    assert [name for name in _exported(path) if not hasattr(module, name)] == []


def test_the_package_exports_exactly_the_names_its_modules_lend() -> None:
    package = importlib.import_module("kinorbit")
    lent = [name for names in package._LAZY.values() for name in names]
    assert sorted(package.__all__) == sorted([*lent, "__version__"])
    for module, names in package._LAZY.items():
        exported = _exported(_PACKAGE / f"{module}.py")
        assert sorted(set(names) - set(exported)) == [], module


@pytest.mark.parametrize("path", [path for path in _MODULES if path.stem != "__init__"],
                         ids=_module_name)
def test_no_module_exports_another_modules_names(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(set(_exported(path)) - set(_definitions(tree))) == []


def test_the_export_check_sees_an_imported_name() -> None:
    tree = ast.parse("from .records import rat\nX = 1\ndef f(): pass\nclass C: pass")
    assert sorted({"rat", "X", "f", "C"} - set(_definitions(tree))) == ["rat"]


def _kinorbit_imports(path: Path):
    """``(line, module, name)`` for each name ``path`` imports from a
    ``kinorbit`` submodule."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kinorbit."):
            for alias in node.names:
                yield node.lineno, node.module, alias.name


@pytest.mark.parametrize("path", [path for path in _SOURCES if not path.is_relative_to(_PACKAGE)],
                         ids=lambda path: str(path.relative_to(_ROOT)))
def test_names_are_imported_from_the_module_that_defines_them(path: Path) -> None:
    defined = {
        module.stem: set(_definitions(ast.parse(module.read_text(encoding="utf-8"))))
        for module in _MODULES
    }
    foreign = [
        (line, f"{module}.{name}")
        for line, module, name in _kinorbit_imports(path)
        if name not in defined[module.removeprefix("kinorbit.")]
    ]
    assert foreign == []


@pytest.mark.parametrize("path", _MODULES, ids=_module_name)
def test_no_unused_imports(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


def _functions(module) -> list:
    """``(name, function)`` for each function and method the source of
    ``module`` defines: module-level functions, ``functools.cache`` and
    ``lru_cache`` wrappers, and the methods, class and static methods and
    property accessors of its classes.  Functions that a class factory
    writes for it (a ``NamedTuple``'s ``__new__``) have no source there."""
    source = inspect.getsourcefile(module)

    def own(function) -> bool:
        code = getattr(inspect.unwrap(function), "__code__", None)
        return code is not None and code.co_filename == source

    found = []
    for name, value in vars(module).items():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for attribute, member in vars(value).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                members = (
                    [member.fget, member.fset, member.fdel]
                    if isinstance(member, property) else [member]
                )
                found += [(f"{name}.{attribute}", m) for m in members if callable(m) and own(m)]
        elif callable(value) and own(value):
            found.append((name, value))
    return found


@pytest.mark.parametrize("path", _MODULES, ids=_module_name)
def test_every_annotation_resolves(path: Path) -> None:
    # an annotation that names a type its module imports only inside a
    # function body raises NameError here
    module = importlib.import_module(_module_name(path))
    unresolved = []
    for name, function in _functions(module):
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []


def test_the_annotation_check_sees_functions_methods_and_caches() -> None:
    static_group = importlib.import_module("kinorbit.static_group")
    names = [name for name, _ in _functions(static_group)]
    assert {"compose", "noncentral_algebra", "StaticConstants.floats",
            "StaticGroupElement.__init__"} <= set(names)
    assert "StaticFloats.__new__" not in names
    records = importlib.import_module("kinorbit.records")
    assert {"Record._stored", "real"} <= {name for name, _ in _functions(records)}


@pytest.mark.parametrize("path", _MODULES, ids=_module_name)
def test_every_private_definition_is_read(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(set(_private_definitions(tree)) - read) == []


_EXACT_MODULES = (
    "records", "rational_linalg", "algebra_core", "catalog", "coadjoint", "timegrid", "cli",
)
_FLOAT_LAYER = {"numpy", "mechanics", "static_group"}


def _load_time_imports(tree: ast.Module) -> set[str]:
    """The first component of every module imported outside a function body."""
    names = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("stem", _EXACT_MODULES)
def test_exact_modules_load_no_numpy_and_no_float_layer(stem: str) -> None:
    tree = ast.parse((_PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    assert sorted(_load_time_imports(tree) & _FLOAT_LAYER) == []


@pytest.mark.parametrize("stem", ("mechanics", "static_group"))
def test_the_float_layer_imports_numpy_only_inside_functions(stem: str) -> None:
    tree = ast.parse((_PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    assert "numpy" not in _load_time_imports(tree)


def _numpy_imports(node: ast.AST, scope: str) -> list[str]:
    """The dotted name of the function or class around each import of NumPy
    under ``node``, ``scope`` for one outside them."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            found += [scope for a in child.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy":
            found.append(scope)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        found += _numpy_imports(child, f"{scope}.{child.name}" if named else scope)
    return found


def test_numpy_is_imported_only_inside_integrate() -> None:
    found = [
        where
        for path in _MODULES
        for where in _numpy_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert found == ["mechanics.integrate"]


@pytest.mark.parametrize("source, scope", [
    ("import numpy", "m"), ("import numpy.linalg as la", "m"), ("from numpy import array", "m"),
    ("def f():\n    import numpy as np", "m.f"),
    ("class C:\n    def g(self):\n        from numpy.linalg import inv", "m.C.g"),
])
def test_the_numpy_check_sees_every_import_form(source: str, scope: str) -> None:
    assert _numpy_imports(ast.parse(source), "m") == [scope]


@pytest.mark.parametrize("path", _MODULES, ids=_module_name)
def test_no_module_imports_dataclasses(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names
    }
    imported.update(
        node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    )
    assert "dataclasses" not in {name.split(".")[0] for name in imported}


# module -> what it may import only inside a function body
_DEFERRED = {
    "catalog": {"algebra_core"},
    "cli": {"catalog", "coadjoint", "configparser", "json", "random", "rational_linalg"},
    "static_group": {"algebra_core", "catalog", "coadjoint", "rational_linalg"},
    "mechanics": {"algebra_core", "catalog", "coadjoint"},
}


@pytest.mark.parametrize("stem", sorted(_DEFERRED))
def test_layers_some_commands_skip_are_imported_where_used(stem: str) -> None:
    tree = ast.parse((_PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    assert sorted(_load_time_imports(tree) & _DEFERRED[stem]) == []


_RAW_PARAMS = ("_param_fraction", "_param_float")


def _raw_param_reads(root: ast.AST) -> list[ast.AST]:
    """The nodes under ``root`` that read a run's parameter texts: ``config.params``
    and the names (or definitions) of the per-key readers."""
    return [
        node
        for node in ast.walk(root)
        if (isinstance(node, ast.Name) and node.id in _RAW_PARAMS)
        or (isinstance(node, ast.FunctionDef) and node.name in _RAW_PARAMS)
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "params"
            and isinstance(node.value, ast.Name)
            and node.value.id == "config"
        )
    ]


def test_the_cli_reads_parameters_only_in_its_table_parser() -> None:
    # every command reads the values cli._params returns for its table
    tree = ast.parse((_PACKAGE / "cli.py").read_text(encoding="utf-8"))
    parsers = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_params"
    ]
    inside = {id(node) for parser in parsers for node in ast.walk(parser)}
    outside = [node.lineno for node in _raw_param_reads(tree) if id(node) not in inside]
    assert outside == []
    assert [node for parser in parsers for node in _raw_param_reads(parser)]


# NumPy reductions that add in an order NumPy leaves unspecified (pairwise,
# blocked or by BLAS), whatever name or method reaches them
_REDUCTIONS = {"sum", "nansum", "dot", "vdot", "inner", "tensordot", "einsum", "matmul"}


def _summing_nodes(tree: ast.Module) -> list[int]:
    """The lines of calls of builtin ``sum`` or of a NumPy reduction, as a
    name, an attribute or a method, and of the ``@`` operator."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _REDUCTIONS:
                lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("stem", ("mechanics", "static_group", "timegrid"))
def test_the_float_rows_call_no_builtin_sum(stem: str) -> None:
    # from Python 3.12 sum() compensates float sums, and a NumPy reduction
    # may change its summation order between NumPy versions; the pinned
    # digests of the float commands must depend on neither
    tree = ast.parse((_PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    assert _summing_nodes(tree) == []


@pytest.mark.parametrize("source", [
    "sum(x)", "np.sum(x)", "x.sum()", "x.sum(axis=0)", "np.dot(a, b)", "a.dot(b)",
    "np.einsum('i,i', a, b)", "np.matmul(a, b)", "a @ b", "a @= b", "np.add(a, b @ c)",
])
def test_the_sum_check_sees_every_summing_form(source: str) -> None:
    assert _summing_nodes(ast.parse(source)) == [1]


# functions whose unbounded cache is keyed by a finite domain: the
# (name, variant) pairs of the catalog
_FINITE_KEY_CACHES = {"catalog._expansion"}


def _functools_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> functools name, for ``cache`` and ``lru_cache``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def _cache_decorators(tree: ast.Module):
    """``(function, kind, call)`` for each function decorated by ``cache`` or
    ``lru_cache``; ``call`` is the decorator's call node, or None if bare."""
    aliases = _functools_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            if isinstance(target, ast.Name) and target.id in aliases:
                yield node, aliases[target.id], call
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "functools"
                and target.attr in ("cache", "lru_cache")
            ):
                yield node, target.attr, call


def _finite_maxsize(call) -> bool:
    """An ``lru_cache`` decorator's maxsize is a literal integer (128 if bare)."""
    if call is None:
        return True
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return not sizes or (
        isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
    )


@pytest.mark.parametrize("path", _MODULES, ids=_module_name)
def test_every_cache_is_bounded(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unbounded = []
    for function, kind, call in _cache_decorators(tree):
        name = f"{path.stem}.{function.name}"
        if kind == "lru_cache" and not _finite_maxsize(call):
            unbounded.append(name)
        arguments = function.args
        takes_values = (
            arguments.posonlyargs or arguments.args or arguments.kwonlyargs
            or arguments.vararg or arguments.kwarg
        )
        if kind == "cache" and takes_values and name not in _FINITE_KEY_CACHES:
            unbounded.append(name)
    assert unbounded == []


def test_the_cache_check_sees_every_cache_in_the_package() -> None:
    found = {
        f"{path.stem}.{function.name}": kind
        for path in _MODULES
        for function, kind, _ in _cache_decorators(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found["algebra_core._jacobi_plan"] == "lru_cache"
    assert found["catalog._expansion"] == found["catalog.list_catalog"] == "cache"
    assert found["static_group.noncentral_algebra"] == "cache"
