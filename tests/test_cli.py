from __future__ import annotations

import json
from fractions import Fraction

import pytest

from kinorbit.cli import ConfigError, RunConfig, main


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


def test_unknown_algebra_is_a_usage_error(capsys) -> None:
    code, _, err = _run(capsys, ["orbit", "--algebra", "XX"])
    assert code == 2
    assert err


def test_bad_parameter_value_is_a_usage_error(capsys) -> None:
    code, _, err = _run(capsys, ["orbit", "--algebra", "G", "--param", "m=abc"])
    assert code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--t-end", "inf"],
        ["simulate", "--t-end", "nan"],
        ["simulate", "--dt", "nan"],
        ["realize", "--dt", "nan"],
        ["simulate", "--param", "a1=1e400"],
        ["realize", "--param", "q1=1e400"],
        ["simulate", "--param", "G=1e400"],
        ["simulate", "--param", "mass=1e-400"],
        ["realize", "--param", "kappa=1e-400"],
        # more steps than MAX_STEPS: rejected before anything is allocated
        ["simulate", "--t-end", "1e9", "--dt", "1e-3"],
        ["realize", "--t-end", "1e300", "--dt", "1e-300"],
        # exact charges that are nonzero but 0 (or a 0 determinant) as floats
        ["realize", "--param", "mu=1e-400", "--param", "beta=0"],
        ["realize", "--param", "kappa=1e-400", "--param", "beta=0"],
        ["realize", "--param", "mu=1e-200", "--param", "kappa=1e-200", "--param", "beta=0"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_range_numbers_are_usage_errors(capsys, argv) -> None:
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error:")
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
    ],
    ids=["simulate", "realize"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_runs_are_runtime_failures(capsys, argv) -> None:
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure:")
    assert err.count("\n") == 1
