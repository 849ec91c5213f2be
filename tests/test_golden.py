"""Byte-level fingerprints of CLI stdout for a pinned set of runs.

The digests were taken from the row-at-a-time implementation, and those
of ``simulate`` from the step-by-step, compensated 2-stage Gauss flow on
Python floats of ``mechanics.planar_flow``, its step formed by
``mechanics.propagator``, with the energies of
``mechanics.QuadraticHamiltonian.column_values`` in
``mechanics.trajectory_rows``; any change to the exact
commands, to the closed-form Static evolution, to the integrator or to
the output formatting that alters a single byte fails here.  Every row
is formed from IEEE double operations in a fixed order (no BLAS, no
compensated ``sum()``), so the digests hold on every supported Python
and platform.

Every command also runs in a fresh interpreter, which must print the
same bytes without ever importing NumPy or ``dataclasses``, and load
only the ``kinorbit`` modules pinned for it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kinorbit.cli import main

_SRC = Path(__file__).resolve().parents[1] / "src"

_REALIZE = [
    "realize", "--t-end", "10", "--dt", "0.01",
    "--param", "m=3/2", "--param", "mu=5/2", "--param", "beta=-1/3",
    "--param", "kappa=7/4", "--param", "nu=1/2", "--param", "h=-3/4",
    "--param", "q1=1/3", "--param", "q2=-2/7", "--param", "u1=5/9",
    "--param", "u2=-1/6", "--param", "p1=2/3", "--param", "p2=1/11",
    "--param", "k1=-3/5", "--param", "k2=4/13", "--param", "E=1/7",
    "--param", "j=-5/3",
]

_SIMULATE = [
    "simulate", "--t-end", "10", "--dt", "0.01",
    "--param", "G=-1/4", "--param", "F=1/3", "--param", "mass=3/2",
    "--param", "a1=1/2", "--param", "a2=-1", "--param", "k11=2",
    "--param", "k12=1/4", "--param", "k22=1", "--param", "q1=1/3",
    "--param", "q2=-2/7", "--param", "p1=5/9", "--param", "p2=-1/6",
]

# (argv, format, output line count, sha256 of stdout)
_GOLDEN = [
    (["list"], "csv", 33,
     "3bea3fcb4dc705e409187dbfd0ddf52d58411328d5228a66fff6cee89833bb88"),
    (["list"], "json-lines", 32,
     "3b04856003d8002b5e0f76598d7447517e6f477f35cf64d88427670ad66c6054"),
    (["verify"], "csv", 49,
     "c54e985d6d6feea95d1c536b58d5c02899c7f041399ee796693ace73ab8b3867"),
    (["verify"], "json-lines", 48,
     "aee744f280abe6d39c3d7424589ed0abfd458bde1dbce7e8f93a04e984cfee51"),
    (["orbit", "--algebra", "G"], "csv", 16,
     "a6f7b87c279ca16ace2af5d560e1739c93c6b3175f1a51dd0733370978f812d9"),
    (["orbit", "--algebra", "G"], "json-lines", 15,
     "d59f12dee882999cf3c125c408287a914a0836cd6775ab8d56b8ddaf34f0e19a"),
    (["classify"], "csv", 15,
     "6e3d156f2e267cff17efb07ddbb0d8b94cfc085320d92378dade4df6a0ece000"),
    (["classify"], "json-lines", 14,
     "c7ef9af88d08af9ef188e6d1b50411ec1ff7fe4babcf48e54c7636bab7dd8e89"),
    (_REALIZE, "csv", 1002,
     "accc100f9509b1e7a23e3700bae54f5f7d641b4f4b3fb146d234d17b2ef19948"),
    (_REALIZE, "json-lines", 1001,
     "2e0fcdf32c51bbe7d999dfaae413f0c213ba0d25b4cebd7f8aa3def72a2d560e"),
    (_SIMULATE, "csv", 1002,
     "5219f2964161dfcf2f8b87b1790bb595f248867cfaead59fb3d243d8fd5f2dd7"),
    (_SIMULATE, "json-lines", 1001,
     "fc634379e0a2b80220c50089b8139bb663aba78ec8a0d4ef74189117b0252299"),
]


@pytest.mark.parametrize(
    "argv, fmt, lines, digest",
    _GOLDEN,
    ids=[f"{argv[0]}-{fmt}" for argv, fmt, _, _ in _GOLDEN],
)
def test_stdout_matches_the_pinned_digest(capsys, argv, fmt, lines, digest) -> None:
    code = main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Runs the CLI with the given arguments, then reports on stderr whether
# NumPy and dataclasses were imported and which kinorbit modules were; the
# exit status is the CLI's.
_FRESH_CLI = """
import sys
from kinorbit.cli import main
status = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("numpy loaded: %s\\n" % ("numpy" in sys.modules))
sys.stderr.write("dataclasses loaded: %s\\n" % ("dataclasses" in sys.modules))
sys.stderr.write(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "kinorbit")))
sys.exit(status)
"""

# The kinorbit modules each command loads, beyond the package, the CLI and
# the two modules every layer imports.  ``list`` loads the catalog alone,
# and ``realize`` the Static group alone: no structure constants and no
# linear algebra.
_BASE = ("kinorbit", "kinorbit.cli", "kinorbit.records", "kinorbit.timegrid")
_EXACT_LAYERS = (
    "kinorbit.algebra_core", "kinorbit.catalog", "kinorbit.coadjoint", "kinorbit.rational_linalg",
)
_LOADS = {
    "list": ("kinorbit.catalog",),
    "orbit": _EXACT_LAYERS,
    "classify": _EXACT_LAYERS,
    "verify": (*_EXACT_LAYERS, "kinorbit.static_group"),
    "simulate": ("kinorbit.mechanics", "kinorbit.rational_linalg"),
    "simulate --algebra": (*_EXACT_LAYERS, "kinorbit.mechanics"),
    "realize": ("kinorbit.static_group",),
}


def _check_loads(result: subprocess.CompletedProcess, command: str) -> None:
    """A fresh run loaded no NumPy, no dataclasses and only ``command``'s modules."""
    assert result.stderr.decode().split("\n") == [
        "numpy loaded: False",
        "dataclasses loaded: False",
        " ".join(sorted(_BASE + _LOADS[command])),
    ]


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def _central_ext_rows(out: str) -> str:
    """The header and the central_ext rows of a CSV ``verify`` table."""
    header, *rows = out.splitlines(keepends=True)
    return header + "".join(row for row in rows if row.split(",")[1].endswith(":central_ext"))


def _check_fresh_run(argv, fmt, lines, digest) -> None:
    """The CLI prints the pinned bytes in a fresh interpreter, loading only
    the modules pinned for the command."""
    result = _run_fresh("-c", _FRESH_CLI, *argv, "--format", fmt)
    assert result.returncode == 0, result.stderr.decode()
    _check_loads(result, argv[0])
    assert len(result.stdout.splitlines()) == lines
    assert hashlib.sha256(result.stdout).hexdigest() == digest


_EXACT = [case for case in _GOLDEN if case[0][0] in ("list", "orbit", "classify")]
_OTHERS = [case for case in _GOLDEN if case not in _EXACT]


@pytest.mark.parametrize(
    "argv, fmt, lines, digest", _EXACT, ids=[f"{argv[0]}-{fmt}" for argv, fmt, _, _ in _EXACT]
)
def test_exact_commands_print_the_pinned_bytes_without_numpy(argv, fmt, lines, digest) -> None:
    _check_fresh_run(argv, fmt, lines, digest)


@pytest.mark.parametrize(
    "argv, fmt, lines, digest", _OTHERS, ids=[f"{argv[0]}-{fmt}" for argv, fmt, _, _ in _OTHERS]
)
def test_float_commands_and_verify_print_the_pinned_bytes_without_numpy(
    argv, fmt, lines, digest
) -> None:
    _check_fresh_run(argv, fmt, lines, digest)


def test_verify_central_ext_prints_the_pinned_rows_without_numpy(capsys) -> None:
    # every central_ext suite draws its points before the Static suite, so
    # the filtered table is the pinned full table's central_ext rows
    assert main(["verify"]) == 0
    full = capsys.readouterr().out
    pinned = next(
        digest for argv, fmt, _, digest in _GOLDEN if argv == ["verify"] and fmt == "csv"
    )
    assert hashlib.sha256(full.encode("utf-8")).hexdigest() == pinned
    expected = _central_ext_rows(full)
    # seven Jacobi rows, and a Casimir and an omega-theta row per standard orbit
    assert len(expected.splitlines()) == 1 + 7 + 2 * 7
    result = _run_fresh("-c", _FRESH_CLI, "verify", "--variant", "central_ext")
    assert result.returncode == 0, result.stderr.decode()
    # without the Static suite, verify leaves the float layer unloaded
    _check_loads(result, "orbit")
    assert result.stdout.decode() == expected


def test_simulate_from_an_orbit_loads_the_orbit_layers() -> None:
    result = _run_fresh(
        "-c", _FRESH_CLI, "simulate", "--algebra", "G", "--t-end", "1", "--dt", "0.1"
    )
    assert result.returncode == 0, result.stderr.decode()
    _check_loads(result, "simulate --algebra")
    assert len(result.stdout.splitlines()) == 12


def test_importing_the_package_loads_no_numpy_until_a_float_name_is_used() -> None:
    result = _run_fresh(
        "-c",
        "import sys, kinorbit\n"
        "print(*sorted(m for m in sys.modules if m.startswith('kinorbit')))\n"
        "print(kinorbit.build.__module__, *sorted(m for m in sys.modules if 'kinorbit.' in m))\n"
        "import kinorbit.cli\n"
        "print(hasattr(kinorbit, 'no_such_name'), 'numpy' in sys.modules)\n"
        "print(kinorbit.integrate.__module__, kinorbit.realize.__module__)\n"
        "print('numpy' in sys.modules, 'dataclasses' in sys.modules)\n",
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().splitlines() == [
        # the package alone loads no submodule; a name loads its layers
        "kinorbit",
        "kinorbit.catalog kinorbit.catalog kinorbit.records",
        "False False",
        "kinorbit.mechanics kinorbit.static_group",
        "False False",
    ]
