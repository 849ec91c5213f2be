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
    2-stage Gauss trajectory of the modified Hamilton equations;
``realize``
    closed-form time evolution of an extended-Static orbit state with its
    two invariants.

Options can come from flags or an INI file (section ``[run]``, parameters
as ``param.NAME`` keys); flags win.  One table (``_COMMANDS``) names each
command with its handler and help line, one (``_PARAMS``) lists each
command's parameter keys with their defaults, and one parser reads a run's
parameters against it.  Each command returns its output as ordered
columns: a float (one value on every row), an ``array('d')`` of floats or
a list of exact values.  Output is deterministic: floats are printed with
%.17g, exact values as ``str`` gives them (fractions as ``p/q``), and no
timestamps are emitted.  Exit status: 0 all passed, 1 verification or
integration failure (including degenerate charts), 2 configuration error
(including a parameter key the command does not read, a non-finite or
out-of-range number, an exact parameter that spans more than
:data:`MAX_PARAM_DIGITS` digits, a step count t_end/dt above
:data:`kinorbit.timegrid.MAX_STEPS`, an unwritable ``--out`` file, and
output that cannot be written or flushed, to ``--out`` or stdout: one
line ``configuration error: cannot write output: ...``).  A reader that
closes the pipe before the output ends ends the run with status 1, as
Python itself ends on a broken pipe, and nothing on stderr: stdout is
pointed at devnull, so the flush at exit has nowhere to fail.
No command loads NumPy, and each loads only the layers it runs, beyond
:mod:`kinorbit.records` and :mod:`kinorbit.timegrid`: ``list`` the
catalog alone; ``orbit``, ``classify``, ``verify`` and ``simulate
--algebra`` also :mod:`kinorbit.algebra_core`,
:mod:`kinorbit.rational_linalg` and :mod:`kinorbit.coadjoint`;
``simulate`` :mod:`kinorbit.mechanics` with the linear algebra, and
``realize`` :mod:`kinorbit.static_group` alone, which the Static suite
of ``verify`` loads too.
An INI file loads :mod:`configparser`, ``verify`` :mod:`random`, and
``json-lines`` output the JSON string encoder.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from array import array
from fractions import Fraction
from itertools import chain

from .records import CatalogError, Record, rat
from .timegrid import ROW_BLOCK, IntegrationError, step_count

__all__ = ["MAX_PARAM_DIGITS", "ConfigError", "RunConfig", "run", "main"]

_FORMATS = ("csv", "json-lines")
_SEED = 20260823

# Most decimal digits an exact parameter may span: the length of its text
# plus the magnitude of its decimal exponent.  The check runs before the
# value is built, so no parameter makes a huge integer, and every exact
# output stays within Python's 4300-digit limit on int-to-str conversion
# (the standard orbits' entries grow to about ten times the inputs' span).
MAX_PARAM_DIGITS = 400


class ConfigError(ValueError):
    """Raised for malformed configuration input."""


class RunConfig(Record):
    """A fully resolved run request.  ``params`` defaults to a new empty dict,
    which makes the record unhashable; :meth:`_replace` gives a changed copy."""

    __slots__ = _fields = (
        "command", "algebra", "variant", "params", "t_end", "dt", "out", "format",
    )

    def __init__(
        self,
        command: str,
        algebra: str | None = None,
        variant: str | None = None,
        params: dict[str, str] | None = None,
        t_end: float = 10.0,
        dt: float = 0.01,
        out: str | None = None,
        format: str = "csv",
    ) -> None:
        if command not in _COMMANDS:
            raise ConfigError(
                f"unknown command {command!r}; valid: {', '.join(_COMMANDS)}"
            )
        if format not in _FORMATS:
            raise ConfigError(
                f"unknown format {format!r}; valid: {', '.join(_FORMATS)}"
            )
        try:
            step_count(t_end, dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        params = {} if params is None else params
        self._init(command, algebra, variant, params, t_end, dt, out, format)

    def to_ini(self) -> str:
        """Serialize to the INI layout accepted by :meth:`from_ini`."""
        fields = {
            "command": self.command, "algebra": self.algebra, "variant": self.variant,
            "t_end": repr(self.t_end), "dt": repr(self.dt), "format": self.format, "out": self.out,
        }
        fields.update((f"param.{key}", self.params[key]) for key in sorted(self.params))
        lines = (f"{key} = {value}\n" for key, value in fields.items() if value is not None)
        return "[run]\n" + "".join(lines)

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        """The run request of an INI text; every value is literal (no ``%`` interpolation)."""
        import configparser

        parser = configparser.ConfigParser(interpolation=None)
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
            t_end = float(fields.pop("t_end", 10.0))
            dt = float(fields.pop("dt", 0.01))
        except ValueError as exc:
            raise ConfigError(f"bad numeric value in configuration: {exc}") from None
        return cls(**fields, params=params, t_end=t_end, dt=dt)

    def with_params(self, pairs: list[str]) -> "RunConfig":
        """This request with the ``--param`` pairs ``key=value`` set; they win."""
        params = dict(self.params)
        for pair in pairs:
            key, sep, value = pair.partition("=")
            if not (sep and key.strip()):
                raise ConfigError(f"--param expects key=value, got {pair!r}")
            params[key.strip()] = value.strip()
        return self._replace(params=params)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read configuration file: {exc}") from None
        config = RunConfig.from_ini(text)._replace(command=args.command)
    else:
        config = RunConfig(command=args.command)
    overrides = {
        name: getattr(args, name)
        for name in ("algebra", "variant", "t_end", "dt", "out", "format")
        if getattr(args, name) is not None
    }
    return config._replace(**overrides).with_params(args.param)


# The parameters each command reads, in the order they are read, and their
# defaults.  A key with a float default is read as a float, any other
# exactly; None leaves the value to the command.  simulate reads the orbit
# keys only with --algebra, before its own.
_ORBIT_PARAMS = {"h": 1, "m": 2, "E": 2, "omega": 1, "kappa": 1}
_PARAMS = {
    "list": {},
    "verify": _ORBIT_PARAMS,
    "orbit": _ORBIT_PARAMS,
    "classify": _ORBIT_PARAMS,
    "simulate": {
        "G": None, "F": None, "mass": None,
        "a1": 0.0, "a2": 0.0, "k11": 0.0, "k12": 0.0, "k22": 0.0,
        "q1": 0.0, "q2": 0.0, "p1": 1.0, "p2": 0.0,
    },
    "realize": {
        "m": 1, "mu": 2, "beta": 1, "kappa": 1, "nu": 0, "h": 0,
        "q1": 1.0, "q2": 0.0, "u1": 0.0, "u2": 1.0, "p1": 0.0, "p2": 0.0,
        "k1": 0.0, "k2": 0.0, "E": 0.0, "j": 0.0,
    },
}


def _params(config: RunConfig) -> dict:
    """The value of each parameter the command reads, from ``--param`` and
    the INI ``param.*`` keys or else its default (see :data:`_PARAMS`).

    A key the command does not read is a :class:`ConfigError` naming the
    keys it does.  An exact value is a ``Fraction``, and its text may span
    at most :data:`MAX_PARAM_DIGITS` decimal digits (its length plus the
    magnitude of its exponent), checked before the value is built.
    """
    table = _PARAMS[config.command]
    if config.command == "simulate" and config.algebra is not None:
        table = {**_ORBIT_PARAMS, **table}
    for key in config.params:
        if key not in table:
            accepts = ", ".join(table) or "none"
            if config.command == "simulate" and config.algebra is None:
                accepts += f"; with --algebra also {', '.join(_ORBIT_PARAMS)}"
            raise ConfigError(
                f"{config.command} reads no parameter {key!r}; it reads: {accepts}"
            )
    values = {}
    for key, default in table.items():
        raw = config.params.get(key)
        if raw is None:
            values[key] = rat(default) if isinstance(default, int) else default
            continue
        try:
            # an over-long text fails on its length alone; its exponent is not parsed
            exponent = len(raw) <= MAX_PARAM_DIGITS and re.search(r"[eE]([+-]?[\d_]+)", raw)
            span = len(raw) + (abs(int(exponent.group(1))) if exponent else 0)
            if span > MAX_PARAM_DIGITS:
                raise ValueError(
                    f"spans more than {MAX_PARAM_DIGITS} decimal digits "
                    "(its length plus the magnitude of its exponent)"
                )
            values[key] = rat(raw)
        except ZeroDivisionError:
            raise ConfigError(
                f"bad value for parameter {key!r}: {raw} has a zero denominator"
            ) from None
        except ValueError as exc:
            raise ConfigError(f"bad value for parameter {key!r}: {exc}") from None
        if isinstance(default, float):
            try:
                values[key] = float(values[key])
            except OverflowError:
                raise ConfigError(
                    f"bad value for parameter {key!r}: {raw} is out of float range"
                ) from None
    return values


# Head of a block's float column that decides whether the column is
# few-valued: if at most half its entries are distinct, each distinct value
# of the block is formatted once.  A wrong guess costs time, not bytes.
_SAMPLE = 64


def _few_valued_texts(values: array) -> list[str] | None:
    """The %.17g texts of ``values``, each distinct value formatted once, if
    the head of ``values`` holds few distinct values; None otherwise.

    The memo holds the block's distinct values.  A zero is formatted
    directly, since 0.0 and -0.0 are one key; a NaN finds its own entry,
    as a key matches itself."""
    if len(set(values[:_SAMPLE])) * 2 > min(_SAMPLE, len(values)):
        return None
    values = values.tolist()
    memo = {value: "%.17g" % value for value in dict.fromkeys(values)}
    if 0.0 in memo:
        return [memo[value] if value else "%.17g" % value for value in values]
    return list(map(memo.__getitem__, values))


def _format_rows(fmt: str, columns: dict, start: int, stop: int) -> str:
    """Rows ``start`` to ``stop`` of ``columns`` (CSV without header, or JSON
    lines) by one ``%`` on a row template repeated per row; a float column
    is in the template, and a few-valued ``array('d')`` column enters as
    the texts of :func:`_few_valued_texts`."""
    if fmt == "csv":
        order, quote, cell, text = list(columns), str, "%.17g", "%s"
    else:  # json.dumps(row, sort_keys=True)
        from json.encoder import encode_basestring_ascii as quote

        # %.17g text needs no JSON escaping, so quoting it makes its JSON string
        order, cell, text = sorted(columns), '"%.17g"', '"%s"'
    cells, values = [], []
    for field in order:
        column = columns[field]
        if isinstance(column, float):
            cells.append(cell % column)
        elif isinstance(column, list):
            cells.append("%s")
            values.append([quote(str(value)) for value in column[start:stop]])
        else:
            block = column[start:stop]
            texts = _few_valued_texts(block)
            cells.append(cell if texts is None else text)
            values.append(block if texts is None else texts)
    if fmt == "csv":
        template = ",".join(cells)
    else:
        template = "{%s}" % ", ".join(
            quote(field).replace("%", "%%") + ": " + cell for field, cell in zip(order, cells)
        )
    return ((template + "\n") * (stop - start)) % tuple(chain.from_iterable(zip(*values)))


def _emit(config: RunConfig, columns: dict, rows: range) -> None:
    """Write the rows ``rows`` of ``columns`` as CSV or JSON lines to stdout
    or ``config.out``.

    ``columns`` maps each field, in order, to its column: a float is the
    value of every row, an ``array('d')`` holds floats (printed with
    %.17g; a column with few distinct values in a block of
    :data:`~kinorbit.timegrid.ROW_BLOCK` rows has each of them formatted
    once), and a list holds exact values (printed with ``str``).  A JSON
    line maps each field to its formatted string, keys sorted, exactly as
    ``json.dumps(..., sort_keys=True)``.  The output is flushed before
    return; a write or flush that fails raises :class:`ConfigError`,
    except a closed pipe, whose :class:`BrokenPipeError` propagates.
    """
    if config.out is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        try:
            target = open(config.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from None
    try:
        with target as handle:
            if config.format == "csv":
                handle.write(",".join(columns) + "\n")
            for start in range(0, len(rows), ROW_BLOCK):
                stop = min(start + ROW_BLOCK, len(rows))
                handle.write(_format_rows(config.format, columns, start, stop))
            handle.flush()
    except OSError as exc:
        if config.out is None:
            # stdout keeps the text it could not write, and Python flushes
            # it again at exit: point it at devnull, as the signal module's
            # documentation advises for SIGPIPE
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise
        raise ConfigError(f"cannot write output: {exc}") from None


# -- subcommands ------------------------------------------------------------


# (chart kind, variant, algebras) of the orbit charts each chart command
# reads; None stands for the catalog's STANDARD_ORBIT_NAMES
_STANDARD_CHARTS = ("standard orbit", "central_ext", None)
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
            from .catalog import AlgebraDescriptor

            # every name has the isotropic variant, and G has every variant
            AlgebraDescriptor(config.algebra or "G", config.variant or "isotropic")
        return
    kind, variant, names = _CHARTS[config.command]
    if config.variant not in (None, variant):
        raise ConfigError(
            f"{config.command} reads only {variant} orbits, not variant {config.variant!r}"
        )
    if config.algebra is None:
        return
    if names is None:
        from .catalog import STANDARD_ORBIT_NAMES as names
    if config.algebra not in names:
        raise ConfigError(
            f"no {kind} chart for {config.algebra!r}; available: {', '.join(names)}"
        )


def _selects(config: RunConfig, name: str, variant: str) -> bool:
    """Whether ``--algebra`` and ``--variant``, when given, select this entry."""
    return config.algebra in (None, name) and config.variant in (None, variant)


def _selected_records(config: RunConfig) -> list:
    """The catalog entries matching ``--algebra`` and ``--variant``, when given."""
    from .catalog import list_catalog

    return [r for r in list_catalog() if _selects(config, r.name, r.variant)]


def _columns(fieldnames: list[str], rows: list[dict]) -> dict[str, list]:
    """Dict rows as the exact columns of ``fieldnames``; a field a row lacks prints empty."""
    return {field: [row.get(field, "") for row in rows] for field in fieldnames}


def _cmd_list(config: RunConfig, params: dict) -> tuple[int, dict]:
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
    fieldnames = ["name", "label", "variant", "dim", "time_class", "space_class", "param_slots"]
    return 0, _columns(fieldnames, rows)


def _max_violation(algebra) -> Fraction:
    """Largest Jacobi residual of the structure constants ``algebra``, 0 if none."""
    return max(
        (violation.magnitude for violation in algebra.jacobi_violations()),
        default=Fraction(0),
    )


def _random_fraction(rng) -> Fraction:
    """A fraction p/q, p in [-9, 9] and q in [1, 9], from the ``random.Random`` ``rng``."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _inverse_residual(structure) -> Fraction:
    """Largest entry of |omega*theta - I|: exactly 0 for inverse pairings."""
    product = structure.omega @ structure.theta
    return max(
        abs(v - (i == j)) for i, row in enumerate(product) for j, v in enumerate(row)
    )


def _worst_residual(algebra, checks) -> Fraction:
    """Largest |K(alpha) . grad I| of the structure constants ``algebra`` over
    the ``(invariant, point)`` pairs of ``checks``."""
    return max(
        (
            abs(r)
            for invariant, point in checks
            for r in invariant.residual(algebra, point)
        ),
        default=Fraction(0),
    )


def _cmd_verify(config: RunConfig, params: dict) -> tuple[int, dict]:
    import random

    from .catalog import STANDARD_ORBIT_NAMES, build

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
        algebra = build(
            record.name, record.variant, omega=params["omega"], kappa=params["kappa"]
        )
        add("jacobi", f"{record.name}:{record.variant}", _max_violation(algebra))

    rng = random.Random(_SEED)
    for name in STANDARD_ORBIT_NAMES:
        if not _selects(config, name, "central_ext"):
            continue
        orbit = _orbit_request(params, name)
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
        from .static_group import (
            StaticConstants,
            noncentral_algebra,
            noncentral_invariants,
            static_symplectic,
        )

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

    fieldnames = ["suite", "subject", "status", "max_residual"]
    return (1 if failed else 0), _columns(fieldnames, rows)


def _orbit_request(params: dict, name: str | None):
    """The standard orbit ``name`` at the orbit parameters of ``params``."""
    if name is None:
        from .catalog import STANDARD_ORBIT_NAMES

        raise ConfigError(
            f"this command needs --algebra (one of {', '.join(STANDARD_ORBIT_NAMES)})"
        )
    from .coadjoint import standard_orbit

    return standard_orbit(name, **{key: params[key] for key in _ORBIT_PARAMS})


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


def _cmd_orbit(config: RunConfig, params: dict) -> tuple[int, dict]:
    orbit = _orbit_request(params, config.algebra)
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
    rows += [
        {"record": label, "key": f"row{i}", **{f"value{j + 1}": v for j, v in enumerate(entries)}}
        for label, matrix in matrices
        for i, entries in enumerate(matrix)
    ]
    return 0, _columns(fieldnames, rows)


def _cmd_classify(config: RunConfig, params: dict) -> tuple[int, dict]:
    from .catalog import STANDARD_ORBIT_NAMES

    rows = []
    for name in STANDARD_ORBIT_NAMES if config.algebra is None else (config.algebra,):
        for h in (params["h"], Fraction(0)):
            report = _orbit_report(_orbit_request({**params, "h": h}, name))
            report["h"] = h
            rows.append(report)
    fieldnames = ["name", "variant", "dim", "class", "G", "F", "max_residual", "h"]
    return 0, _columns(fieldnames, rows)


def _cmd_simulate(config: RunConfig, params: dict) -> tuple[int, dict]:
    from .mechanics import HamiltonianSpec, NCPhaseSpace2D, trajectory_rows

    # G, F and mass left unset come from the orbit, or are 0, 0 and 1
    fields = {"G": Fraction(0), "F": Fraction(0), "mass": Fraction(1)}
    if config.algebra is not None:
        orbit = _orbit_request(params, config.algebra)
        fields = {
            "G": orbit.structure.G_field,
            "F": orbit.structure.F_field,
            "mass": orbit.masses["m"],
        }
    G, F, mass = (fields[key] if params[key] is None else params[key] for key in fields)
    space = NCPhaseSpace2D(G_field=G, F_field=F, mass=mass)
    ham = HamiltonianSpec(
        linear=(params["a1"], params["a2"]),
        quadratic=(params["k11"], params["k12"], params["k22"]),
    )
    state0 = [params[key] for key in ("q1", "q2", "p1", "p2")]
    return 0, trajectory_rows(space, ham, state0, config.t_end, config.dt)


def _cmd_realize(config: RunConfig, params: dict) -> tuple[int, dict]:
    from .static_group import StaticConstants, StaticOrbitState, evolution_rows

    constants = StaticConstants(
        **{key: params[key] for key in ("m", "mu", "beta", "kappa", "nu", "h")}
    )
    state = StaticOrbitState(
        constants=constants,
        position=(params["q1"], params["q2"]),
        velocity=(params["u1"], params["u2"]),
        momentum=(params["p1"], params["p2"]),
        boost_momentum=(params["k1"], params["k2"]),
        energy=params["E"],
        angular_momentum=params["j"],
    )
    return 0, evolution_rows(state, config.t_end, config.dt)


# command -> (handler, help line), in the order the parser lists them
_COMMANDS = {
    "list": (_cmd_list, "list catalog algebras, variants, dimensions and parameter slots"),
    "verify": (_cmd_verify, "run Jacobi / Casimir / inverse-pairing suites"),
    "orbit": (_cmd_orbit, "emit the symplectic data of a standard orbit"),
    "classify": (_cmd_classify, "emit the phase-space taxonomy of the standard orbits"),
    "simulate": (_cmd_simulate, "integrate the modified Hamilton equations"),
    "realize": (_cmd_realize, "trace the time evolution of an extended-Static orbit state"),
}


def run(config: RunConfig) -> int:
    """Execute a resolved run request; returns the process exit status."""
    try:
        _check_selection(config)
        code, columns = _COMMANDS[config.command][0](config, _params(config))
        # every command has a column that is not one float
        n_rows = next(len(c) for c in columns.values() if not isinstance(c, float))
        _emit(config, columns, range(n_rows))
    except BrokenPipeError:
        # the reader has gone, and wants no more output, errors included
        return 1
    except (ConfigError, CatalogError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except OverflowError as exc:
        sys.stderr.write(f"configuration error: value out of float range: {exc}\n")
        return 2
    except (IntegrationError, ValueError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinorbit",
        description=(
            "Exact catalog of planar kinematical Lie algebras, their "
            "coadjoint-orbit phase spaces and noncommutative mechanics."
        ),
    )
    # the options every command takes, defined once and shared by each
    # command's parser
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", help="INI file with a [run] section")
    options.add_argument("--algebra", help="catalog algebra name (e.g. G, NH+, S)")
    options.add_argument("--variant", help="catalog variant name")
    options.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="set a model parameter (repeatable); values may be rational",
    )
    options.add_argument("--t-end", type=float, dest="t_end", help="integration horizon")
    options.add_argument("--dt", type=float, help="integration step")
    options.add_argument("--out", help="output file (default: stdout)")
    options.add_argument("--format", choices=_FORMATS, help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        sub.add_parser(command, help=help_line, parents=[options])
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
