"""Byte-level fingerprints of CLI stdout for a pinned set of runs.

The digests were taken from the row-at-a-time implementation, and those
of ``simulate`` from the doubling-stride RK4 of ``mechanics.affine_flow``;
any change to the exact commands, to the closed-form Static evolution, to
the integrator or to the output formatting that alters a single byte fails
here.  ``simulate`` rows come from NumPy matrix products, so their last
bits, and its digests, can differ under another BLAS build or CPU family.
"""

from __future__ import annotations

import hashlib

import pytest

from kinorbit.cli import main

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
     "f70ba6d1f403d4e74cbd4cf4d1aa3df12a05ec8c3d90dfbd3ccb77536caef4e4"),
    (_SIMULATE, "json-lines", 1001,
     "349a05246cb2aa2de09fb1b001094615c724db8d25d7fd24c8a58f0fdf35d243"),
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
