"""Command-line interface.

Subcommands
-----------
``list``
    every catalog algebra/variant with dimension, classes and parameter slots;
``verify``
    Jacobi, Casimir-residual and omega*theta=1 suites with a pass/fail table;
``orbit``
    the restricted pairing matrix, its inverse, the canonical bracket
    matrix and the G/F scalars of a standard orbit;
``classify``
    the phase-space taxonomy of all standard orbits (plus their h = 0
    reductions, which are canonical);
``simulate``
    RK4 trajectory of the modified Hamilton equations;
``realize``
    closed-form time evolution of an extended-Static orbit state with its
    two invariants.

Options can come from flags or an INI file (section ``[run]``, parameters
as ``param.NAME`` keys); flags win.  Output is deterministic: floats are
printed with %.17g, exact rationals as fraction strings, and no
timestamps are emitted.  Exit status: 0 all passed, 1 verification or
integration failure (including degenerate charts), 2 configuration error
(including a non-finite or out-of-range number, an exact parameter that
spans more than :data:`MAX_PARAM_DIGITS` digits, and a step count t_end/dt
above :data:`kinorbit.mechanics.MAX_STEPS`).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import random
import re
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .algebra_core import StructureConstants
from .catalog import AlgebraDescriptor, CatalogError, build, list_catalog
from .coadjoint import (
    STANDARD_ORBIT_NAMES,
    standard_orbit,
)
from .mechanics import (
    HamiltonianSpec,
    IntegrationError,
    NCPhaseSpace2D,
    integrate,
    step_count,
)
from .rational_linalg import rat, reye
from .static_group import (
    StaticConstants,
    StaticOrbitState,
    noncentral_algebra,
    noncentral_invariants,
    static_invariants,
    static_symplectic,
    time_evolution,
)

__all__ = ["MAX_PARAM_DIGITS", "ConfigError", "RunConfig", "run", "main"]

_FORMATS = ("csv", "json-lines")
_COMMANDS = ("list", "verify", "orbit", "classify", "simulate", "realize")
_SEED = 20260823

# Most decimal digits an exact parameter may span: the length of its text
# plus the magnitude of its decimal exponent.  The check runs before the
# value is built, so no parameter makes a huge integer, and every exact
# output stays within Python's 4300-digit limit on int-to-str conversion
# (the standard orbits' entries grow to about ten times the inputs' span).
MAX_PARAM_DIGITS = 400


class ConfigError(ValueError):
    """Raised for malformed configuration input."""


@dataclass
class RunConfig:
    """A fully resolved run request."""

    command: str
    algebra: str | None = None
    variant: str | None = None
    params: dict[str, str] = field(default_factory=dict)
    t_end: float = 10.0
    dt: float = 0.01
    out: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(
                f"unknown command {self.command!r}; valid: {', '.join(_COMMANDS)}"
            )
        if self.format not in _FORMATS:
            raise ConfigError(
                f"unknown format {self.format!r}; valid: {', '.join(_FORMATS)}"
            )
        try:
            step_count(self.t_end, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_ini(self) -> str:
        """Serialize to the INI layout accepted by :meth:`from_ini`."""
        lines = ["[run]"]
        lines.append(f"command = {self.command}")
        if self.algebra is not None:
            lines.append(f"algebra = {self.algebra}")
        if self.variant is not None:
            lines.append(f"variant = {self.variant}")
        lines.append(f"t_end = {self.t_end!r}")
        lines.append(f"dt = {self.dt!r}")
        lines.append(f"format = {self.format}")
        if self.out is not None:
            lines.append(f"out = {self.out}")
        for key in sorted(self.params):
            lines.append(f"param.{key} = {self.params[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # param names are case sensitive (G vs g)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed INI configuration: {exc}") from None
        if "run" not in parser:
            raise ConfigError("configuration must contain a [run] section")
        section = parser["run"]
        known = {"command", "algebra", "variant", "t_end", "dt", "format", "out"}
        fields: dict = {}
        params: dict[str, str] = {}
        for key, value in section.items():
            if key in known:
                fields[key] = value
            elif key.startswith("param."):
                params[key[len("param."):]] = value
            else:
                raise ConfigError(
                    f"unknown configuration key {key!r} in [run] section"
                )
        if "command" not in fields:
            raise ConfigError("configuration must set 'command'")
        try:
            t_end = float(fields.get("t_end", 10.0))
            dt = float(fields.get("dt", 0.01))
        except ValueError as exc:
            raise ConfigError(f"bad numeric value in configuration: {exc}") from None
        return cls(
            command=fields["command"],
            algebra=fields.get("algebra"),
            variant=fields.get("variant"),
            params=params,
            t_end=t_end,
            dt=dt,
            out=fields.get("out"),
            format=fields.get("format", "csv"),
        )


def _parse_cli_params(pairs: list[str]) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(
                f"--param expects key=value, got {pair!r}"
            )
        key, value = pair.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        params[key] = value.strip()
    return params


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = RunConfig.from_ini(handle.read())
        except OSError as exc:
            raise ConfigError(f"cannot read configuration file: {exc}") from None
        config = replace(config, command=args.command)
    else:
        config = RunConfig(command=args.command)
    overrides = {
        name: getattr(args, name)
        for name in ("algebra", "variant", "t_end", "dt", "out", "format")
        if getattr(args, name) is not None
    }
    if overrides:
        config = replace(config, **overrides)
    if args.param:
        merged = dict(config.params)
        merged.update(_parse_cli_params(args.param))
        config = replace(config, params=merged)
    return config


def _param_fraction(config: RunConfig, key: str, default) -> Fraction:
    raw = config.params.get(key)
    if raw is None:
        return rat(default)
    try:
        # an over-long text fails on its length alone; its exponent is not parsed
        exponent = len(raw) <= MAX_PARAM_DIGITS and re.search(r"[eE]([+-]?[\d_]+)", raw)
        span = len(raw) + (abs(int(exponent.group(1))) if exponent else 0)
        if span > MAX_PARAM_DIGITS:
            raise ValueError(
                f"spans more than {MAX_PARAM_DIGITS} decimal digits "
                "(its length plus the magnitude of its exponent)"
            )
        return rat(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for parameter {key!r}: {exc}") from None


def _param_float(config: RunConfig, key: str, default: float) -> float:
    if key not in config.params:
        return default
    try:
        return float(_param_fraction(config, key, default))
    except OverflowError:
        raise ConfigError(
            f"bad value for parameter {key!r}: {config.params[key]} is out of float range"
        ) from None


# Rows formatted per write, so the text held at once stays near a
# megabyte however many rows a run has.
_EMIT_CHUNK = 4096


def _format_rows(fmt: str, fieldnames: list[str], rows) -> str:
    """The lines of ``rows`` (CSV without header, or JSON lines), formatted
    by one ``%`` on a row template repeated once per row."""
    floats = isinstance(rows, np.ndarray)
    if fmt == "csv":
        order = range(len(fieldnames))
        template = ",".join(["%.17g" if floats else "%s"] * len(fieldnames))
    else:
        # json.dumps(row, sort_keys=True); %.17g text needs no JSON escaping,
        # so quoting it makes its JSON string
        order = sorted(range(len(fieldnames)), key=fieldnames.__getitem__)
        cell = '"%.17g"' if floats else "%s"
        template = "{%s}" % ", ".join(
            _json_string(fieldnames[j]).replace("%", "%%") + ": " + cell for j in order
        )
    if floats:
        cells = rows[:, order].ravel().tolist()
    else:
        quote = str if fmt == "csv" else _json_string
        cells = [quote(str(row.get(fieldnames[j], ""))) for row in rows for j in order]
    return ((template + "\n") * len(rows)) % tuple(cells)


def _emit(config: RunConfig, fieldnames: list[str], rows) -> None:
    """Write ``rows`` as CSV or JSON lines to stdout or ``config.out``.

    ``rows`` is either a float array with one column per field (printed
    with %.17g) or a list of dicts keyed by field name, where a missing
    field prints empty.  A JSON line maps each field to its formatted
    string, keys sorted, exactly as ``json.dumps(..., sort_keys=True)``.
    """
    if config.out is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(config.out, "w", encoding="utf-8", newline="")
    with target as handle:
        if config.format == "csv":
            handle.write(",".join(fieldnames) + "\n")
        for start in range(0, len(rows), _EMIT_CHUNK):
            chunk = rows[start : start + _EMIT_CHUNK]
            handle.write(_format_rows(config.format, fieldnames, chunk))


# -- subcommands ------------------------------------------------------------


# (chart kind, variant, algebras) of the orbit charts each chart command reads
_STANDARD_CHARTS = ("standard orbit", "central_ext", STANDARD_ORBIT_NAMES)
_CHARTS = {
    "orbit": _STANDARD_CHARTS,
    "classify": _STANDARD_CHARTS,
    "simulate": _STANDARD_CHARTS,
    "realize": ("extended-Static orbit", "noncentral_ext", ("S",)),
}


def _check_selection(config: RunConfig) -> None:
    """Refuse an ``--algebra`` or ``--variant`` that the command cannot serve.

    ``list`` and ``verify`` serve every entry the catalog admits; an unknown
    name or variant, or a variant the catalog does not admit for the name,
    raises the catalog's :class:`CatalogError`.  The other commands serve
    only the algebras and the variant of the charts they read.
    """
    if config.command not in _CHARTS:
        if config.algebra is not None or config.variant is not None:
            # every name has the isotropic variant, and G has every variant
            AlgebraDescriptor(config.algebra or "G", config.variant or "isotropic")
        return
    kind, variant, names = _CHARTS[config.command]
    if config.variant not in (None, variant):
        raise ConfigError(
            f"{config.command} reads only {variant} orbits, not variant {config.variant!r}"
        )
    if config.algebra not in (None, *names):
        raise ConfigError(
            f"no {kind} chart for {config.algebra!r}; available: {', '.join(names)}"
        )


def _selects(config: RunConfig, name: str, variant: str) -> bool:
    """Whether ``--algebra`` and ``--variant``, when given, select this entry."""
    return config.algebra in (None, name) and config.variant in (None, variant)


def _selected_records(config: RunConfig) -> list:
    """The catalog records matching ``--algebra`` and ``--variant``, when given."""
    return [r for r in list_catalog() if _selects(config, r.name, r.variant)]


def _cmd_list(config: RunConfig) -> tuple[int, list[str], list[dict]]:
    rows = [
        {
            "name": record.name,
            "label": record.label,
            "variant": record.variant,
            "dim": record.dim,
            "time_class": record.time_class,
            "space_class": record.space_class,
            "param_slots": " ".join(record.param_slots) or "-",
        }
        for record in _selected_records(config)
    ]
    return 0, ["name", "label", "variant", "dim", "time_class", "space_class", "param_slots"], rows


def _max_violation(algebra: StructureConstants) -> Fraction:
    return max(
        (violation.magnitude for violation in algebra.jacobi_violations()),
        default=Fraction(0),
    )


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _inverse_residual(structure) -> Fraction:
    """Largest entry of |omega*theta - I|: exactly 0 for inverse pairings."""
    residual = structure.omega @ structure.theta - reye(structure.dim)
    return max(abs(v) for v in residual.flat)


def _worst_residual(algebra: StructureConstants, checks) -> Fraction:
    """Largest |K(alpha) . grad I| over the ``(invariant, point)`` pairs of ``checks``."""
    return max(
        (
            abs(r)
            for invariant, point in checks
            for r in invariant.residual(algebra, point)
        ),
        default=Fraction(0),
    )


def _cmd_verify(config: RunConfig) -> tuple[int, list[str], list[dict]]:
    omega = _param_fraction(config, "omega", 1)
    kappa = _param_fraction(config, "kappa", 1)
    rows = []
    failed = False

    def add(suite: str, subject: str, residual: Fraction) -> None:
        nonlocal failed
        ok = residual == 0
        failed = failed or not ok
        rows.append(
            {
                "suite": suite,
                "subject": subject,
                "status": "pass" if ok else "fail",
                "max_residual": residual,
            }
        )

    for record in _selected_records(config):
        algebra = build(record.name, record.variant, omega=omega, kappa=kappa)
        add("jacobi", f"{record.name}:{record.variant}", _max_violation(algebra))

    rng = random.Random(_SEED)
    for name in STANDARD_ORBIT_NAMES:
        if not _selects(config, name, "central_ext"):
            continue
        orbit = standard_orbit(
            name, m=Fraction(2), h=Fraction(1), E=Fraction(2),
            omega=omega, kappa=kappa,
        )
        checks = (
            (
                invariant,
                orbit.point.replace(
                    **{coord: _random_fraction(rng) for coord in ("K1", "K2", "P1", "P2")}
                ),
            )
            for invariant in orbit.invariants
            for _ in range(5)
        )
        add("casimir", f"{name}:central_ext", _worst_residual(orbit.algebra, checks))
        add("omega_theta", f"{name}:central_ext", _inverse_residual(orbit.structure))

    if _selects(config, "S", "noncentral_ext"):
        constants = StaticConstants(m=1, mu=2, beta=1, kappa=1)
        algebra = noncentral_algebra()

        def static_point() -> list[Fraction]:
            coords = [_random_fraction(rng) for _ in range(algebra.dim)]
            coords[algebra.index("M'")] = Fraction(2)
            coords[algebra.index("B")] = Fraction(1)
            coords[algebra.index("Lambda")] = Fraction(1)
            return coords

        checks = (
            (invariant, static_point())
            for invariant in noncentral_invariants()
            for _ in range(5)
        )
        add("casimir", "S:noncentral_ext", _worst_residual(algebra, checks))
        add(
            "omega_theta",
            "S:noncentral_ext",
            _inverse_residual(static_symplectic(constants)),
        )

    return (1 if failed else 0), ["suite", "subject", "status", "max_residual"], rows


def _orbit_request(config: RunConfig, name: str | None, h: Fraction):
    """The standard orbit ``name`` at position scale ``h`` and the other
    orbit parameters of ``config``."""
    if name is None:
        raise ConfigError(
            f"this command needs --algebra (one of {', '.join(STANDARD_ORBIT_NAMES)})"
        )
    return standard_orbit(
        name,
        m=_param_fraction(config, "m", 2),
        h=h,
        E=_param_fraction(config, "E", 2),
        omega=_param_fraction(config, "omega", 1),
        kappa=_param_fraction(config, "kappa", 1),
    )


def _orbit_report(orbit) -> dict:
    return {
        "name": orbit.name,
        "variant": orbit.variant,
        "dim": orbit.structure.dim,
        "class": orbit.phase_space_class,
        "G": orbit.structure.G_field,
        "F": orbit.structure.F_field,
        "max_residual": _worst_residual(
            orbit.algebra, ((invariant, orbit.point) for invariant in orbit.invariants)
        ),
    }


def _cmd_orbit(config: RunConfig) -> tuple[int, list[str], list[dict]]:
    orbit = _orbit_request(config, config.algebra, _param_fraction(config, "h", 1))
    report = _orbit_report(orbit)
    fieldnames = ["record", "key", "value1", "value2", "value3", "value4"]
    rows = [
        {
            "record": "report",
            "key": orbit.name,
            "value1": report["variant"],
            "value2": report["dim"],
            "value3": report["class"],
            "value4": report["max_residual"],
        },
        {"record": "field", "key": "G", "value1": report["G"]},
        {"record": "field", "key": "F", "value1": report["F"]},
    ]
    matrices = (
        ("omega", orbit.structure.omega),
        ("theta", orbit.structure.theta),
        ("canonical_theta", orbit.structure.canonical_theta),
    )
    for label, matrix in matrices:
        for i in range(matrix.shape[0]):
            row = {"record": label, "key": f"row{i}"}
            for j in range(matrix.shape[1]):
                row[f"value{j + 1}"] = matrix[i, j]
            rows.append(row)
    return 0, fieldnames, rows


def _cmd_classify(config: RunConfig) -> tuple[int, list[str], list[dict]]:
    rows = []
    h = _param_fraction(config, "h", 1)
    for name in STANDARD_ORBIT_NAMES if config.algebra is None else (config.algebra,):
        for h_value in (h, Fraction(0)):
            report = _orbit_report(_orbit_request(config, name, h_value))
            report["h"] = h_value
            rows.append(report)
    fieldnames = ["name", "variant", "dim", "class", "G", "F", "max_residual", "h"]
    return 0, fieldnames, rows


def _cmd_simulate(config: RunConfig) -> tuple[int, list[str], np.ndarray]:
    if config.algebra is not None:
        orbit = _orbit_request(config, config.algebra, _param_fraction(config, "h", 1))
        g_default = orbit.structure.G_field
        f_default = orbit.structure.F_field
        mass_default = orbit.masses["m"]
    else:
        g_default = Fraction(0)
        f_default = Fraction(0)
        mass_default = Fraction(1)
    space = NCPhaseSpace2D(
        G_field=_param_fraction(config, "G", g_default),
        F_field=_param_fraction(config, "F", f_default),
        mass=_param_fraction(config, "mass", mass_default),
    )
    ham = HamiltonianSpec(
        linear=(
            _param_float(config, "a1", 0.0),
            _param_float(config, "a2", 0.0),
        ),
        quadratic=(
            _param_float(config, "k11", 0.0),
            _param_float(config, "k12", 0.0),
            _param_float(config, "k22", 0.0),
        ),
    )
    state0 = [
        _param_float(config, "q1", 0.0),
        _param_float(config, "q2", 0.0),
        _param_float(config, "p1", 1.0),
        _param_float(config, "p2", 0.0),
    ]
    trajectory = integrate(space, ham, state0, config.t_end, config.dt)
    rows = np.column_stack(
        [
            trajectory.times,
            trajectory.states,
            trajectory.energies,
            trajectory.invariant_drift,
        ]
    )
    return 0, ["t", "q1", "q2", "p1", "p2", "H", "drift"], rows


def _cmd_realize(config: RunConfig) -> tuple[int, list[str], np.ndarray]:
    constants = StaticConstants(
        m=_param_fraction(config, "m", 1),
        mu=_param_fraction(config, "mu", 2),
        beta=_param_fraction(config, "beta", 1),
        kappa=_param_fraction(config, "kappa", 1),
        nu=_param_fraction(config, "nu", 0),
        h=_param_fraction(config, "h", 0),
    )
    state = StaticOrbitState(
        constants=constants,
        position=(_param_float(config, "q1", 1.0), _param_float(config, "q2", 0.0)),
        velocity=(_param_float(config, "u1", 0.0), _param_float(config, "u2", 1.0)),
        momentum=(_param_float(config, "p1", 0.0), _param_float(config, "p2", 0.0)),
        boost_momentum=(
            _param_float(config, "k1", 0.0),
            _param_float(config, "k2", 0.0),
        ),
        energy=_param_float(config, "E", 0.0),
        angular_momentum=_param_float(config, "j", 0.0),
    )
    n_steps = step_count(config.t_end, config.dt)
    times = np.arange(n_steps + 1) * (config.t_end / n_steps)
    evolved = time_evolution(state, times)
    rows = np.column_stack(
        np.broadcast_arrays(
            times,
            *evolved.position,
            *evolved.velocity,
            *evolved.momentum,
            *evolved.boost_momentum,
            evolved.energy,
            *static_invariants(evolved),
        )
    )
    fieldnames = [
        "t", "q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2", "E", "s_inv", "U",
    ]
    return 0, fieldnames, rows


_DISPATCH = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "orbit": _cmd_orbit,
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "realize": _cmd_realize,
}


def run(config: RunConfig) -> int:
    """Execute a resolved run request; returns the process exit status."""
    try:
        _check_selection(config)
        code, fieldnames, rows = _DISPATCH[config.command](config)
    except (ConfigError, CatalogError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except OverflowError as exc:
        sys.stderr.write(f"configuration error: value out of float range: {exc}\n")
        return 2
    except (IntegrationError, ValueError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    _emit(config, fieldnames, rows)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinorbit",
        description=(
            "Exact catalog of planar kinematical Lie algebras, their "
            "coadjoint-orbit phase spaces and noncommutative mechanics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "list": "list catalog algebras, variants, dimensions and parameter slots",
        "verify": "run Jacobi / Casimir / inverse-pairing suites",
        "orbit": "emit the symplectic data of a standard orbit",
        "classify": "emit the phase-space taxonomy of the standard orbits",
        "simulate": "integrate the modified Hamilton equations",
        "realize": "trace the time evolution of an extended-Static orbit state",
    }
    for command in _COMMANDS:
        p = sub.add_parser(command, help=helps[command])
        p.add_argument("--config", help="INI file with a [run] section")
        p.add_argument("--algebra", help="catalog algebra name (e.g. G, NH+, S)")
        p.add_argument("--variant", help="catalog variant name")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="set a model parameter (repeatable); values may be rational",
        )
        p.add_argument("--t-end", type=float, dest="t_end", help="integration horizon")
        p.add_argument("--dt", type=float, help="integration step")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=_FORMATS, help="output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
