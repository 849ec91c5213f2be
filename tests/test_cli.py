from __future__ import annotations

import json
from fractions import Fraction

import pytest

from kinorbit.catalog import CatalogError, build
from kinorbit.cli import MAX_PARAM_DIGITS, ConfigError, RunConfig, main


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
    text = cfg.to_ini()
    back = RunConfig.from_ini(text)
    assert back == cfg


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
    bad.write_text("[run]\ncommand = simulate\nnonsense_key = 1\n")
    code, _, err = _run(capsys, ["simulate", "--config", str(bad)])
    assert code == 2


def test_verify_is_deterministic(tmp_path, capsys) -> None:
    first = tmp_path / "v1.csv"
    second = tmp_path / "v2.csv"
    assert _run(capsys, ["verify", "--out", str(first)])[0] == 0
    assert _run(capsys, ["verify", "--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()


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
    "simulate --param G=1e309": "value out of float range: integer division",
    "simulate --param mass=1e-330": "value out of float range: integer division",
    "realize --param kappa=1e-330": "value out of float range: integer division",
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
