from __future__ import annotations

import argparse
import errno
import json
import math
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from kinorbit import cli, timegrid
from kinorbit.catalog import build
from kinorbit.cli import MAX_PARAM_DIGITS, ConfigError, RunConfig, main
from kinorbit.records import CatalogError


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_reports_the_whole_catalog(capsys) -> None:
    code, out, _ = _run(capsys, ["list"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,label,variant,dim,time_class,space_class,param_slots"
    assert len(lines) == 1 + 32
    assert "S,Static,noncentral_ext,14,absolute,absolute,-" in lines
    assert "C,Carroll,central_ext,6,relative,absolute,omega kappa" in lines


def test_list_filters_by_algebra_and_variant(capsys) -> None:
    code, out, _ = _run(capsys, ["list", "--algebra", "G", "--variant", "noncentral_ext"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("G,Galilei,noncentral_ext,12")


def test_verify_passes_on_the_clean_catalog(capsys) -> None:
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(",fail," not in line for line in lines[1:])
    assert any(",pass," in line or line.endswith("pass") or ",pass" in line for line in lines[1:])


@pytest.mark.parametrize(
    "variant, suites, subjects",
    [
        ("isotropic", {"jacobi"}, 12),
        ("central_ext", {"jacobi", "casimir", "omega_theta"}, 7),
        ("noncentral_ext", {"jacobi", "casimir", "omega_theta"}, 6),
    ],
)
def test_verify_applies_the_variant_to_every_suite(capsys, variant, suites, subjects) -> None:
    code, out, _ = _run(capsys, ["verify", "--variant", variant])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert {row[0] for row in rows} == suites
    assert all(row[1].endswith(":" + variant) for row in rows)
    assert len({row[1] for row in rows}) == subjects


def test_orbit_reports_fields_and_matrices(capsys) -> None:
    code, out, _ = _run(capsys, ["orbit", "--algebra", "G"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("record,key,value1")
    body = "\n".join(lines)
    assert "position_nc" in body
    assert "-1/4" in body  # G field of the default Galilei orbit


def test_orbit_degenerate_chart_is_a_runtime_failure(capsys) -> None:
    code, _, err = _run(capsys, ["orbit", "--algebra", "C", "--param", "E=1"])
    assert code == 1
    assert "singular" in err or "degenerate" in err.lower()


@pytest.mark.parametrize(
    "argv, label, rank",
    [
        (["--algebra", "C", "--param", "E=0"], "E/c^2", 4),
        (["--algebra", "NH+", "--param", "m=0", "--param", "h=1"], "m", 4),
        (["--algebra", "S", "--param", "m=1", "--param", "h=1"], "m - kappa^2*h/omega", 2),
        (["--algebra", "G", "--param", "m=0", "--param", "h=1"], "m", 2),
    ],
    ids=["C", "NH+", "S", "G"],
)
def test_orbit_with_a_vanishing_scale_names_it_and_the_rank(capsys, argv, label, rank) -> None:
    code, out, err = _run(capsys, ["orbit", *argv])
    assert (code, out) == (1, "")
    assert err == (
        f"verification failure: position scale {label} vanishes, so q = K/({label}) is "
        f"undefined; the pairing on ('K1', 'K2', 'P1', 'P2') has rank {rank} of 4 at the "
        "base point\n"
    )


def _build_error(name: str, variant: str) -> str:
    """The reason ``catalog.build`` gives for refusing ``name`` and ``variant``."""
    try:
        build(name, variant)
    except CatalogError as exc:
        return str(exc)
    raise AssertionError(f"the catalog builds {name}:{variant}")


_INADMISSIBLE = _build_error("dS+", "central_ext")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["orbit", "--algebra", "XX"], "no standard orbit chart for 'XX'"),
        (["verify", "--algebra", "nope"], "unknown algebra name 'nope'"),
        (["list", "--algebra", "nope"], "unknown algebra name 'nope'"),
        (["list", "--variant", "weird"], "unknown variant 'weird'"),
        (["verify", "--variant", "weird"], "unknown variant 'weird'"),
        (["classify", "--algebra", "dS+"], "no standard orbit chart for 'dS+'"),
        # a known name with a known variant that the catalog does not admit for it
        (["list", "--algebra", "dS+", "--variant", "central_ext"], _INADMISSIBLE),
        (["verify", "--algebra", "dS+", "--variant", "central_ext"], _INADMISSIBLE),
        # a variant or algebra that the command's charts do not serve
        (["orbit", "--algebra", "G", "--variant", "weird"], "not variant 'weird'"),
        (["orbit", "--algebra", "G", "--variant", "isotropic"],
         "orbit reads only central_ext orbits"),
        (["classify", "--variant", "anisotropic"], "not variant 'anisotropic'"),
        (["simulate", "--variant", "weird"], "not variant 'weird'"),
        (["realize", "--variant", "central_ext"], "realize reads only noncentral_ext"),
        (["realize", "--algebra", "nope"], "no extended-Static orbit chart for 'nope'"),
        (["realize", "--algebra", "G"], "no extended-Static orbit chart for 'G'"),
    ],
    ids=["orbit", "verify", "list", "list-variant", "verify-variant", "classify",
         "list-inadmissible", "verify-inadmissible", "orbit-variant",
         "orbit-isotropic", "classify-variant", "simulate-variant",
         "realize-variant", "realize-algebra", "realize-other-algebra"],
)
def test_unknown_algebra_is_a_usage_error(capsys, argv, reason) -> None:
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert reason in err


def test_bad_parameter_value_is_a_usage_error(capsys) -> None:
    code, _, err = _run(capsys, ["orbit", "--algebra", "G", "--param", "m=abc"])
    assert code == 2


_SIMULATE_KEYS = "G, F, mass, a1, a2, k11, k12, k22, q1, q2, p1, p2"
_ORBIT_KEYS = "h, m, E, omega, kappa"
_REALIZE_KEYS = "m, mu, beta, kappa, nu, h, q1, q2, u1, u2, p1, p2, k1, k2, E, j"


# (command line, the key it does not read, the keys it reads)
@pytest.mark.parametrize(
    "argv, key, accepted",
    [
        (["list", "--param", "foo=1"], "foo", "none"),
        (["verify", "--param", "G=1"], "G", _ORBIT_KEYS),
        (["orbit", "--algebra", "G", "--param", "mass=2"], "mass", _ORBIT_KEYS),
        (["classify", "--param", "omgea=2"], "omgea", _ORBIT_KEYS),
        (["simulate", "--param", "qq1=5"], "qq1", _SIMULATE_KEYS),
        # the orbit keys need --algebra
        (["simulate", "--param", "m=3"], "m", _SIMULATE_KEYS),
        (["simulate", "--algebra", "G", "--param", "mu=3"], "mu",
         f"{_ORBIT_KEYS}, {_SIMULATE_KEYS}"),
        (["realize", "--param", "G=1"], "G", _REALIZE_KEYS),
    ],
    ids=["list", "verify", "orbit", "classify", "simulate", "simulate-orbit-key",
         "simulate-algebra", "realize"],
)
def test_a_parameter_the_command_does_not_read_is_a_usage_error(
    tmp_path, capsys, argv, key, accepted
) -> None:
    *command, _, pair = argv
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ncommand = {command[0]}\nparam.{pair.replace('=', ' = ')}\n")
    # from --param, and from an INI param.* line
    for run in (argv, [*command, "--config", str(cfg)]):
        code, out, err = _run(capsys, [*run, "--t-end", "1", "--dt", "0.5"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"configuration error: {command[0]} reads no parameter {key!r}")
        assert f"it reads: {accepted}" in err
        assert err.count("\n") == 1


def test_verify_builds_its_standard_orbits_from_the_orbit_parameters(capsys) -> None:
    # the Carroll chart is degenerate at E = h*omega, as for orbit
    assert _run(capsys, ["orbit", "--algebra", "C", "--param", "E=1"])[0] == 1
    code, out, err = _run(capsys, ["verify", "--algebra", "C", "--param", "E=1"])
    assert (code, out) == (1, "")
    assert err.startswith("verification failure:") and "singular" in err


def test_realize_and_simulate_end_on_t_end(capsys) -> None:
    for command in ("realize", "simulate"):
        code, out, _ = _run(capsys, [command, "--t-end", "0.7", "--dt", "0.01"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 71
        assert lines[-1].split(",")[0] == "0.69999999999999996"


@pytest.mark.parametrize(
    "command, algebra, params",
    [("simulate", None, {}), ("simulate", "NH+", {"a1": "1/2"}), ("realize", None, {"q2": "1/3"})],
    ids=["simulate", "simulate-orbit", "realize"],
)
@pytest.mark.parametrize("t_end, dt", [(0.7, 0.01), (3.7, 0.07), (1.0, 0.25)])
def test_every_float_column_is_one_value_or_a_value_per_grid_time(
    command, algebra, params, t_end, dt
) -> None:
    config = RunConfig(command, algebra=algebra, params=params, t_end=t_end, dt=dt)
    code, columns = cli._COMMANDS[command][0](config, cli._params(config))
    assert code == 0
    assert list(columns)[0] == "t"
    n_steps = timegrid.step_count(t_end, dt)
    assert columns["t"] == timegrid.grid_times(t_end, n_steps)
    for column in columns.values():
        assert isinstance(column, float) or (
            isinstance(column, array) and len(column) == n_steps + 1
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--param", "mass=-1"],
        ["simulate", "--param", "mass=0"],
        ["realize", "--param", "mu=0"],
        ["realize", "--param", "kappa=0"],
    ],
    ids=["negative-mass", "zero-mass", "zero-mu", "zero-kappa"],
)
def test_parameters_outside_their_domain_are_usage_errors(capsys, argv) -> None:
    code, out, err = _run(capsys, [*argv, "--t-end", "1", "--dt", "0.5"])
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--param", "G=2", "--param", "F=1/2"],
        ["realize", "--param", "mu=2", "--param", "kappa=2", "--param", "beta=-2"],
    ],
    ids=["simulate-1-GF", "realize-det"],
)
def test_degenerate_parameters_are_runtime_failures(capsys, argv) -> None:
    code, out, err = _run(capsys, [*argv, "--t-end", "1", "--dt", "0.5"])
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure:")
    assert "degenerate" in err


def test_classify_matches_the_taxonomy(capsys) -> None:
    code, out, _ = _run(capsys, ["classify"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,variant,dim,class,G,F,max_residual,h"
    table = {}
    for line in lines[1:]:
        cells = line.split(",")
        table[(cells[0], cells[7])] = (cells[3], cells[4], cells[5])
    assert table[("G", "1")][0] == "position_nc"
    assert table[("G'+", "1")][0] == "momentum_nc"
    assert table[("S", "1")][0] == "fully_nc"
    assert table[("C", "1")][0] == "fully_nc"
    assert table[("NH+", "1")][:2] == ("fully_nc", "-1/4")
    for name in ("G", "G'+", "G'-", "S", "C", "NH+", "NH-"):
        assert table[(name, "0")][0] == "canonical"
        assert table[(name, "0")][1] == "0"
        assert table[(name, "0")][2] == "0"


def test_simulate_headers_and_determinism(tmp_path, capsys) -> None:
    argv = [
        "simulate",
        "--param", "G=-1/4", "--param", "a1=1",
        "--t-end", "1.0", "--dt", "0.01",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code, _, _ = _run(capsys, argv + ["--out", str(first)])
    assert code == 0
    code, _, _ = _run(capsys, argv + ["--out", str(second)])
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H,drift"
    assert len(lines) == 1 + 101


def test_simulate_full_precision_floats(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["simulate", "--param", "G=1/3", "--param", "a2=1", "--t-end", "0.1", "--dt", "0.05"],
    )
    assert code == 0
    # %.17g output: at least one value with a long mantissa survives
    assert any(len(cell) >= 12 for line in out.splitlines()[1:] for cell in line.split(","))


def test_simulate_anomalous_velocity_direction(capsys) -> None:
    # pure force along q1 with G = -1 pushes q2 at unit rate initially
    code, out, _ = _run(
        capsys,
        ["simulate", "--param", "G=-1", "--param", "a1=1",
         "--param", "p1=0", "--t-end", "0.1", "--dt", "0.1"],
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    q2 = float(last[2])
    assert q2 == pytest.approx(0.1, abs=1e-3)


def test_simulate_sources_fields_from_an_orbit(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["simulate", "--algebra", "G", "--t-end", "0.1", "--dt", "0.05"],
    )
    assert code == 0
    assert out.splitlines()[0] == "t,q1,q2,p1,p2,H,drift"


@pytest.mark.xfail(
    strict=True,
    reason="simulate keeps only the orbit's G, F and m and fixes {q_i, p_i} = +1, "
    "so at the defaults G = F = -1 it refuses the S chart, whose cross bracket "
    "{q_i, p_i} = -2 keeps it nondegenerate",
)
def test_simulate_on_the_static_orbit_runs_its_chart(capsys) -> None:
    code, _, _ = _run(capsys, ["simulate", "--algebra", "S", "--t-end", "0.1", "--dt", "0.05"])
    assert code == 0


def test_realize_headers_and_invariant_columns(capsys) -> None:
    code, out, _ = _run(capsys, ["realize", "--t-end", "1.0", "--dt", "0.25"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,q1,q2,u1,u2,p1,p2,k1,k2,E,s_inv,U"
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # invariants stay constant along the closed-form evolution
    assert float(first[10]) == pytest.approx(float(last[10]), abs=1e-12)
    assert float(first[11]) == pytest.approx(float(last[11]), abs=1e-12)
    # default charges: kappa_e = 1/2, q = (1,0) -> p1(t) = -t/2
    assert float(last[5]) == pytest.approx(-0.5, abs=1e-12)


def _reference_output(fmt: str, columns: dict, n_rows: int) -> str:
    """The output of ``columns`` formatted value by value: %.17g per float,
    ``str`` per exact value, joined by commas under a header for csv, and
    ``json.dumps(row, sort_keys=True)`` per row for json-lines."""

    def text(column, row: int) -> str:
        if isinstance(column, float):
            return "%.17g" % column
        return "%.17g" % column[row] if isinstance(column, array) else str(column[row])

    rows = [{field: text(column, r) for field, column in columns.items()} for r in range(n_rows)]
    if fmt == "csv":
        lines = [",".join(columns), *(",".join(row.values()) for row in rows)]
    else:
        lines = [json.dumps(row, sort_keys=True) for row in rows]
    return "".join(line + "\n" for line in lines)


def _assert_same_text(text: str, reference: str) -> None:
    """``text == reference``, reported by the first line that differs (a
    diff of the whole texts would take minutes)."""
    lines, expected = text.splitlines(keepends=True), reference.splitlines(keepends=True)
    for row, (line, want) in enumerate(zip(lines, expected)):
        assert line == want, f"line {row}"
    assert len(lines) == len(expected)


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_the_emitter_prints_every_value_as_the_reference_does(tmp_path, fmt) -> None:
    # three blocks of rows; few-valued columns are formatted once per value,
    # the rest value by value, and neither may change a byte
    rng = random.Random(4242)
    n = 2 * timegrid.ROW_BLOCK + 123
    few = [rng.uniform(-9, 9) for _ in range(5)]
    varied = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(n)]
    columns = {
        "constant": array("d", [1 / 3] * n),
        "few": array("d", (rng.choice(few) for _ in range(n))),
        "zeros": array("d", (rng.choice((0.0, -0.0, few[0], few[1])) for _ in range(n))),
        "special": array("d", (rng.choice((0.0, math.nan, math.inf, -math.inf)) for _ in range(n))),
        # each block's head is constant, and the rest of it all distinct
        "head": array("d", (0.25 if i % timegrid.ROW_BLOCK < 100 else varied[i] for i in range(n))),
        "distinct": array("d", varied),
        "scalar": -0.0,
        "exact": [Fraction(i, 7) for i in range(n)],
    }
    out = tmp_path / "out"
    cli._emit(RunConfig("list", out=str(out), format=fmt), columns, range(n))
    _assert_same_text(out.read_text(), _reference_output(fmt, columns, n))


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize(
    "command, algebra, params",
    [("simulate", "G", {"k11": "2", "a1": "1/4", "q1": "1/3"}),
     ("realize", None, {"beta": "-1/2", "q2": "3/4", "k2": "-1"})],
    ids=["simulate", "realize"],
)
def test_long_runs_print_every_value_as_the_reference_does(
    tmp_path, command, algebra, params, fmt
) -> None:
    config = RunConfig(command, algebra=algebra, params=params, t_end=10.0, dt=0.001,
                       out=str(tmp_path / "out"), format=fmt)
    _, columns = cli._COMMANDS[command][0](config, cli._params(config))
    assert cli.run(config) == 0
    _assert_same_text((tmp_path / "out").read_text(), _reference_output(fmt, columns, 10_001))


def test_json_lines_output_parses_with_sorted_keys(capsys) -> None:
    code, out, _ = _run(capsys, ["classify", "--format", "json-lines"])
    assert code == 0
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert list(record) == sorted(record)
        assert "class" in record


def test_run_config_ini_round_trip() -> None:
    cfg = RunConfig(
        command="simulate",
        algebra="G",
        params={"G": "-1/4", "mass": "2"},
        t_end=2.5,
        dt=0.005,
        format="json-lines",
    )
    # a % is literal text, never an interpolation
    percent = RunConfig(command="list", params={"m": "5%", "q": "%(m)s"}, out="100%.csv")
    for config in (cfg, percent):
        assert RunConfig.from_ini(config.to_ini()) == config


def test_run_config_rejects_unknown_keys() -> None:
    with pytest.raises(ConfigError):
        RunConfig.from_ini("[run]\ncommand = list\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini("not an ini file [")
    with pytest.raises(ConfigError):
        RunConfig(command="no_such_command")
    with pytest.raises(ConfigError):
        RunConfig(command="list", format="xml")


def test_config_file_drives_a_run_and_flags_win(tmp_path, capsys) -> None:
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        "command = simulate\n"
        "t_end = 0.2\n"
        "dt = 0.1\n"
        "param.G = -1/4\n"
        "param.a1 = 1\n"
    )
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3  # header + 2 steps + t=0
    # a flag overrides the file value
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg), "--t-end", "0.4"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 5


def test_malformed_config_file_is_a_usage_error(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.ini"
    # file bytes -> the start of the one-line message
    cases = {
        b"[run]\ncommand = simulate\nnonsense_key = 1\n": "unknown configuration key",
        b"[run]\ncommand = simulate\nparam.mass = 5%\n": "bad value for parameter 'mass'",
        b"[run]\ncommand = simulate\nout = %(x)s\nt_end = 5%\n": "bad numeric value",
        b"\xff\xfe[run]\ncommand = simulate\n": "cannot read configuration file: 'utf-8'",
    }
    for content, message in cases.items():
        bad.write_bytes(content)
        code, out, err = _run(capsys, ["simulate", "--config", str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"configuration error: {message}"), err
        assert err.count("\n") == 1 and err.endswith("\n")


def test_verify_is_deterministic(tmp_path, capsys) -> None:
    first = tmp_path / "v1.csv"
    second = tmp_path / "v2.csv"
    assert _run(capsys, ["verify", "--out", str(first)])[0] == 0
    assert _run(capsys, ["verify", "--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "where, reason",
    [("missing/out.csv", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_an_unwritable_out_file_is_a_usage_error(tmp_path, capsys, where, reason) -> None:
    code, out, err = _run(capsys, ["list", "--out", str(tmp_path / where)])
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: cannot write output file:")
    assert reason in err
    assert err.count("\n") == 1


class _FailingStdout:
    """A stdout whose write or flush raises ``error``; its file descriptor
    is that of ``stand_in``, an open file."""

    def __init__(self, error: OSError, failing: str, stand_in) -> None:
        self.error, self.failing, self.stand_in = error, failing, stand_in

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise self.error
        return len(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise self.error

    def fileno(self) -> int:
        return self.stand_in.fileno()


_FULL = "configuration error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "error, code, err",
    [(BrokenPipeError(errno.EPIPE, "Broken pipe"), 1, ""),
     (OSError(errno.ENOSPC, "No space left on device"), 2, _FULL)],
    ids=["closed-pipe", "full-disk"],
)
def test_stdout_that_cannot_be_written_ends_the_run_cleanly(
    tmp_path, capsys, monkeypatch, failing, error, code, err
) -> None:
    # one line or none on stderr, and stdout pointed at devnull, so that
    # Python's own flush at exit has nothing left to fail on
    with open(tmp_path / "stdout", "wb") as stand_in:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(error, failing, stand_in))
        assert main(["list"]) == code
        assert os.path.samestat(os.fstat(stand_in.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == err


_DEV_FULL = Path("/dev/full")
_needs_dev_full = pytest.mark.skipif(not _DEV_FULL.exists(), reason="no /dev/full here")


@_needs_dev_full
def test_an_out_file_on_a_full_disk_is_a_usage_error(capsys) -> None:
    assert _run(capsys, ["list", "--out", str(_DEV_FULL)]) == (2, "", _FULL)


def _cli(*argv: str, buffered: bool, stdout) -> subprocess.Popen:
    """``python -m kinorbit.cli argv`` in a fresh interpreter, its stdout
    block-buffered or not, with stdout ``stdout`` and stderr piped."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "kinorbit.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_the_pipe_ends_the_run_quietly(buffered) -> None:
    # 10^4 rows are far more than a pipe holds, so the run is still writing
    # when the reader goes
    child = _cli("simulate", "--t-end", "10", "--dt", "0.001",
                 buffered=buffered, stdout=subprocess.PIPE)
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert first == b"t,q1,q2,p1,p2,H,drift\n"
    assert err == b""


@_needs_dev_full
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_disk_is_a_usage_error(buffered) -> None:
    with open(_DEV_FULL, "w") as full:
        child = _cli("list", buffered=buffered, stdout=full)
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 2
    assert err.decode() == _FULL


def _spanning(span: int, shape: str) -> str:
    """A parameter whose length plus exponent magnitude is ``span`` digits."""
    if shape == "big":
        return "9" * (span - 304) + "e300"
    if shape == "small":
        return "0." + "9" * (span - 307) + "e-300"
    return "9" * (span // 2) + "/" + "7" * (span - 1 - span // 2)


_NOT_FINITE = "t_end and dt must be positive and finite"
_TOO_WIDE = f"spans more than {MAX_PARAM_DIGITS} decimal digits"
# Each rejected command line and the check that must reject it. The exact
# values stay within MAX_PARAM_DIGITS, so that they reach the float guards.
_USAGE_ERRORS = {
    "simulate --t-end inf": _NOT_FINITE,
    "simulate --t-end nan": _NOT_FINITE,
    "simulate --dt nan": _NOT_FINITE,
    "realize --dt nan": _NOT_FINITE,
    "simulate --param a1=1e309": "'a1': 1e309 is out of float range",
    "realize --param q1=1e309": "'q1': 1e309 is out of float range",
    "realize --param q1=1/0": "bad value for parameter 'q1': 1/0 has a zero denominator",
    "orbit --algebra G --param m=1/0": "bad value for parameter 'm': 1/0 has a zero denominator",
    # exact values no float holds, named: out of range, or nonzero but 0
    "simulate --param G=1e309": "value out of float range: G is inf as a float",
    "simulate --param mass=1e-330": "value out of float range: 1/mass is inf as a float",
    "realize --param kappa=1e-330": "value out of float range: kappa is 0.0 as a float",
    "realize --param mu=1e330": "value out of float range: mu is inf as a float",
    "simulate --param G=1e330": "value out of float range: G is inf as a float",
    "simulate --param mass=1e330": "value out of float range: 1/mass is 0.0 as a float",
    # more steps than MAX_STEPS: rejected before anything is allocated
    "simulate --t-end 1e9 --dt 1e-3": "exceeds the step budget",
    "realize --t-end 1e300 --dt 1e-300": "exceeds the step budget",
    # exact charges that are nonzero but 0 (or a 0 determinant) as floats
    "realize --param mu=1e-330 --param beta=0": "mu is 0.0 as a float but not exactly",
    "realize --param kappa=1e-330 --param beta=0": "kappa is 0.0 as a float but not exactly",
    "realize --param mu=1e-200 --param kappa=1e-200 --param beta=0":
        "mu*kappa - beta^2 is 0.0 as a float but not exactly",
    # exact values past MAX_PARAM_DIGITS, rejected before they are built
    "orbit --algebra G --param m=1e5000": _TOO_WIDE,
    "orbit --algebra G --param m=1e1000000000": _TOO_WIDE,
    "orbit --algebra G --param m=1e1_000_000_000": _TOO_WIDE,
    "classify --param h=" + "9" * 5000: _TOO_WIDE,
    **{
        f"orbit --algebra C --param kappa={_spanning(MAX_PARAM_DIGITS + 1, shape)}": _TOO_WIDE
        for shape in ("big", "small", "frac")
    },
}


@pytest.mark.parametrize("argv", [line.split() for line in _USAGE_ERRORS])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_numbers_are_usage_errors(capsys, argv) -> None:
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error:")
    assert _USAGE_ERRORS[" ".join(argv)] in err
    assert err.count("\n") == 1


def test_out_of_range_numbers_in_a_config_file_are_usage_errors(tmp_path, capsys) -> None:
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ncommand = realize\nt_end = nan\n")
    code, _, err = _run(capsys, ["realize", "--config", str(cfg)])
    assert code == 2
    assert err.startswith("configuration error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "1e300", "--dt", "1e295",
         "--param", "q1=1e10", "--param", "k11=1e300"],
        ["realize", "--t-end", "1e300", "--dt", "1e295", "--param", "q1=1e10"],
        # finite states whose energy or invariant overflows
        ["simulate", "--t-end", "1", "--dt", "0.5", "--param", "q1=1e200", "--param", "k11=1"],
        ["realize", "--t-end", "1", "--dt", "0.5", "--param", "q1=1e200"],
    ],
    ids=["simulate", "realize", "simulate-energy", "realize-invariant"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_runs_are_runtime_failures(capsys, argv) -> None:
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure:")
    assert err.count("\n") == 1


_EXACT_COMMANDS = [
    ["orbit", "--algebra", "S"],
    ["orbit", "--algebra", "NH-"],
    ["orbit", "--algebra", "C"],
    ["classify"],
    ["verify"],
]
# shapes of (m, h, E, omega, kappa) under which the exact entries grow most
_WIDEST = [
    ("small", "big", "big", "small", "big"),
    ("big", "big", "small", "big", "small"),
    ("big", "small", "big", "big", "small"),
    ("frac",) * 5,
]


@pytest.mark.parametrize("shapes", _WIDEST, ids="-".join)
@pytest.mark.parametrize("command", _EXACT_COMMANDS, ids=" ".join)
def test_exact_parameters_at_the_bound_run(capsys, command, shapes) -> None:
    params = []
    for key, shape in zip(("m", "h", "E", "omega", "kappa"), shapes):
        params += ["--param", f"{key}={_spanning(MAX_PARAM_DIGITS, shape)}"]
    code, out, err = _run(capsys, command + params)
    assert (code, err) == (0, "")
    assert out


_HELP = """\
usage: kinorbit [-h] {list,verify,orbit,classify,simulate,realize} ...

Exact catalog of planar kinematical Lie algebras, their coadjoint-orbit phase
spaces and noncommutative mechanics.

positional arguments:
  {list,verify,orbit,classify,simulate,realize}
    list                list catalog algebras, variants, dimensions and
                        parameter slots
    verify              run Jacobi / Casimir / inverse-pairing suites
    orbit               emit the symplectic data of a standard orbit
    classify            emit the phase-space taxonomy of the standard orbits
    simulate            integrate the modified Hamilton equations
    realize             trace the time evolution of an extended-Static orbit
                        state

options:
  -h, --help            show this help message and exit
"""
# every command takes the same options
_COMMAND_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --config CONFIG       INI file with a [run] section
  --algebra ALGEBRA     catalog algebra name (e.g. G, NH+, S)
  --variant VARIANT     catalog variant name
  --param KEY=VALUE     set a model parameter (repeatable); values may be
                        rational
  --t-end T_END         integration horizon
  --dt DT               integration step
  --out OUT             output file (default: stdout)
  --format {csv,json-lines}
                        output format
"""
_SHORT_USAGE = """\
usage: kinorbit {command} [-h] [--config CONFIG] [--algebra ALGEBRA]
{indent}[--variant VARIANT] [--param KEY=VALUE] [--t-end T_END]
{indent}[--dt DT] [--out OUT] [--format {{csv,json-lines}}]
"""
_LONG_USAGE = """\
usage: kinorbit {command} [-h] [--config CONFIG] [--algebra ALGEBRA]
{indent}[--variant VARIANT] [--param KEY=VALUE]
{indent}[--t-end T_END] [--dt DT] [--out OUT]
{indent}[--format {{csv,json-lines}}]
"""
_USAGES = {
    "list": _SHORT_USAGE, "verify": _SHORT_USAGE, "orbit": _SHORT_USAGE,
    "classify": _LONG_USAGE, "simulate": _LONG_USAGE, "realize": _LONG_USAGE,
}


@pytest.mark.parametrize("command", [None, *_USAGES])
def test_help_text_is_pinned(monkeypatch, capsys, command) -> None:
    """``kinorbit --help`` and ``kinorbit <command> --help`` at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"] if command is None else [command, "--help"])
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    if command is None:
        expected = _HELP
    else:
        indent = " " * len(f"usage: kinorbit {command} ")
        expected = _USAGES[command].format(command=command, indent=indent) + _COMMAND_OPTIONS
    assert (captured.out, captured.err) == (expected, "")


def _reference_parser() -> argparse.ArgumentParser:
    """The command line parser with each command's eight options added to its
    own subparser, one ``add_argument`` at a time."""
    parser = argparse.ArgumentParser(
        prog="kinorbit",
        description=(
            "Exact catalog of planar kinematical Lie algebras, their "
            "coadjoint-orbit phase spaces and noncommutative mechanics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in cli._COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
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
        p.add_argument("--format", choices=("csv", "json-lines"), help="output format")
    return parser


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([command, "--help"] for command in cli._COMMANDS),
        ["--foo"],
        ["list", "--foo"],
        ["realize", "--format", "xml"],
        ["simulate", "--dt"],
        ["frob"],
    ],
    ids=" ".join,
)
def test_the_shared_options_print_as_options_added_per_command(
    monkeypatch, capsys, argv
) -> None:
    # the help and error texts of the argparse that runs the tests, not pinned text
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for parser in (cli._build_parser(), _reference_parser()):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        seen.append((exit_info.value.code, *capsys.readouterr()))
    assert seen[0] == seen[1]


def test_the_shared_options_parse_as_options_added_per_command() -> None:
    argv = ["simulate", "--param", "q1=1", "--param", "p1=2", "--t-end", "3", "--format", "csv"]
    parsed = cli._build_parser().parse_args(argv)
    assert parsed == _reference_parser().parse_args(argv)
    # each run gets its own --param list; the shared default is not appended to
    assert cli._build_parser().parse_args(["list"]).param == []
    assert parsed.param == ["q1=1", "p1=2"]
