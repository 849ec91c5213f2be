"""Seeded inputs, timed operations and output checks for each workload.

Every workload is a closed loop with one client: the next operation starts
after the previous one has returned.  Inputs for operation ``i`` come from
``random.Random(f"{workload}:{seed}:{i}")``, so the same seed gives the
same inputs whatever the machine speed.  kinorbit receives only the drawn
arguments.

``run`` is the timed part of an operation.  ``check`` runs afterwards,
outside the timed region, and returns the names of the checks that
failed, plus the exact and the float outputs as text for the digests.
Reference values come from closed forms written here, from
``scipy.linalg.expm`` and from identities the outputs must satisfy.

This module imports no scipy at load time: the set-up probe imports it to
make a warm-up call, and set-up time must not include the checker.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Fr
from pathlib import Path
from typing import Callable

import numpy as np

import spans
from kinorbit import catalog, coadjoint, mechanics, static_group

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Check names whose failures are a known program defect.  The op still
# counts as failed; the run stays ``correct`` while no other check fails.
# classify_tolerance: ``classify`` applies a relative float tolerance to
# exact data, so a G or F that is nonzero but at most CLASSIFY_TOL times
# the largest bracket is reported as zero.  Any other disagreement with
# the exact class fails the check ``classify_wrong``, which is not listed.
KNOWN_DEFECTS = frozenset({"classify_tolerance"})
CLASSIFY_TOL = Fr("1e-12")

# Orbit charges of the timed exact_catalog ops have magnitudes from 1e-2 to
# 1e2, where every G and F that is nonzero stays above CLASSIFY_TOL times
# the largest bracket, so no timed op meets the defect above.  The defect
# is shown instead, in every exact_catalog run and outside its ops, by
# ``defect_probes`` on charges from 1e-16 to 1e4.
ORBIT_EXPONENTS = (-2, 1)
WIDE_EXPONENTS = (-16, 3)
DEFECT_PROBES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int  # ops per round; wall_s and cpu_s are the time of one round
    cal_every: int  # ops between calibration samples
    cal_units: int  # calibration units per sample
    trace_ops_per_s: float  # traced-run op count per second of --seconds
    draw: Callable[[random.Random, int], dict]
    run: Callable[..., object]
    check: Callable[[dict, object], tuple[list[str], str, str]]


def rng_for(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _ratio(rng: random.Random, lo: int, hi: int, den: int) -> Fr:
    """A rational n/den with lo <= n <= hi."""
    return Fr(rng.randint(lo, hi), den)


def _charge(rng: random.Random, exponents: tuple[int, int] = WIDE_EXPONENTS) -> Fr:
    """A positive rational d.d * 10**e, e drawn from ``exponents`` (inclusive)."""
    return Fr(rng.randint(10, 99), 10) * Fr(10) ** rng.randint(*exponents)


def _unit(rng: random.Random) -> float:
    return rng.uniform(-1.0, 1.0)


# -- closed forms of the standard orbits ------------------------------------
#
# Chart (K1, K2, P1, P2) at the point (M = m, S = h, H = E), or (H = E, S = h)
# for Carroll.  The restricted pairing matrix is
#     [[0, a, c, 0], [-a, 0, 0, c], [-c, 0, 0, b], [0, -c, -b, 0]]
# with a = h mu/c^2, b = h alpha kappa^2 and c = M (E/c^2 for Carroll), where
# (mu, alpha) are the admissible default charges.  Positions are q = K/s.

_DEFAULT_CHARGES = {
    "G": (1, 0), "G'+": (0, 1), "G'-": (0, 1), "S": (1, 1), "C": (1, 1),
    "NH+": (1, -1), "NH-": (1, 1),
}


def _pairing(name, h, c, omega, kappa):
    mu, alpha = _DEFAULT_CHARGES[name]
    inv_c2 = kappa**2 / omega**2
    return h * mu * inv_c2, h * alpha * kappa**2, c


def _orbit_closed_form(name, m, h, E, omega, kappa):
    """(a, b, c, scale, mass) of the standard orbit ``name``."""
    inv_c2 = kappa**2 / omega**2
    if name == "C":
        scale = E * inv_c2
        return (*_pairing(name, h, scale, omega, kappa), scale, scale)
    scale = m - kappa**2 * h / omega if name == "S" else m
    return (*_pairing(name, h, m, omega, kappa), scale, m)


def _expected_rank(a, b, c) -> int:
    if a * b - c * c != 0:
        return 4
    return 2 if (a, b, c) != (0, 0, 0) else 0


def _canonical_theta(a, b, c, s):
    """Closed-form canonical bracket matrix of (q1, q2, p1, p2)."""
    z = Fr(0)
    return [
        [z, -a / s**2, -c / s, z],
        [a / s**2, z, z, -c / s],
        [c / s, z, z, -b],
        [z, c / s, b, z],
    ]


def _exact_class(theta) -> str:
    """Phase-space class of a (q1, q2, p1, p2) bracket matrix, by exact zero tests."""
    g, f, cross = theta[0][1], theta[2][3], theta[2][0]
    template = [
        [0, g, -cross, 0], [-g, 0, 0, -cross], [cross, 0, 0, f], [0, cross, -f, 0],
    ]
    if any(theta[i][j] != template[i][j] for i in range(4) for j in range(4)):
        return "fully_nc"
    return {(True, True): "fully_nc", (True, False): "position_nc",
            (False, True): "momentum_nc", (False, False): "canonical"}[(g != 0, f != 0)]


def _classify_failure(phase_class: str, theta) -> str | None:
    """Name of the failed check if ``phase_class`` is not the exact class of
    ``theta``: ``classify_tolerance`` when it is exactly the class one gets
    by taking every G or F no larger than the tolerance as zero, else
    ``classify_wrong``."""
    exact = _exact_class(theta)
    if phase_class == exact:
        return None
    threshold = CLASSIFY_TOL * max(abs(x) for row in theta for x in row)
    rounded = [row[:] for row in theta]
    tiny = False
    for i, j in ((0, 1), (2, 3)):
        if theta[i][j] != 0 and abs(theta[i][j]) <= threshold:
            rounded[i][j], rounded[j][i], tiny = Fr(0), Fr(0), True
    if tiny and phase_class == _exact_class(rounded):
        return "classify_tolerance"
    return "classify_wrong"


def _is_identity(product) -> bool:
    n = product.shape[0]
    return all(product[i, j] == (1 if i == j else 0) for i in range(n) for j in range(n))


# -- exact_catalog ----------------------------------------------------------

_DEGENERATE_CHART = coadjoint.OrbitChart(("K1", "K2", "P1", "P2"))


def _degenerate_point(rng, h, omega, kappa):
    """A central_ext algebra and a dual point where the (K, P) chart is singular."""
    name = rng.choice(coadjoint.STANDARD_ORBIT_NAMES)
    root = _sign(rng) * h * kappa**2 / omega  # c with c^2 = ab on NH-, S
    if name in ("G", "G'+", "G'-"):  # ab = 0, so c = M = 0
        values, c = {"M": 0, "S": h, "H": 1}, Fr(0)
    elif name == "NH+":  # ab < 0 unless h = 0
        values, c, h = {"M": 0, "S": 0, "H": 1}, Fr(0), Fr(0)
    elif name == "C":  # c = E/c^2, so E = +-h omega
        E = root * omega**2 / kappa**2
        values, c = {"H": E, "S": h}, E * kappa**2 / omega**2
    else:
        values, c = {"M": root, "S": h, "H": 1}, root
    a, b, c = _pairing(name, h, c, omega, kappa)
    return name, values, _expected_rank(a, b, c)


def _orbit_params(rng: random.Random, exponents: tuple[int, int]) -> dict:
    """omega, kappa and charges m, h, E at which every standard orbit's
    (K, P) chart is nondegenerate."""
    omega, kappa = _ratio(rng, 1, 9, rng.randint(1, 9)), _ratio(rng, 1, 9, rng.randint(1, 9))
    while True:
        m = _charge(rng, exponents)
        h, E = _sign(rng) * _charge(rng, exponents), _sign(rng) * _charge(rng, exponents)
        forms = [_orbit_closed_form(n, m, h, E, omega, kappa)
                 for n in coadjoint.STANDARD_ORBIT_NAMES]
        if all(s != 0 and a * b - c * c != 0 for a, b, c, s, _ in forms):
            return {"omega": omega, "kappa": kappa, "m": m, "h": h, "E": E}


def _draw_exact(rng: random.Random, index: int) -> dict:
    params = _orbit_params(rng, ORBIT_EXPONENTS)
    while True:
        static = {"m": _charge(rng), "mu": _sign(rng) * _charge(rng),
                  "beta": _sign(rng) * _charge(rng), "kappa": _sign(rng) * _charge(rng)}
        if static["mu"] * static["kappa"] != static["beta"] ** 2:
            break
    return {
        **params,
        "perturb": {k: _ratio(rng, -9, 9, rng.randint(1, 9)) for k in ("K1", "K2", "P1", "P2")},
        "static": static,
        # Every fourth op also inverts a singular chart, the only path to rat_rank.
        "degenerate": (_degenerate_point(rng, params["h"], params["omega"], params["kappa"])
                       if index % 4 == 3 else None),
    }


def _run_exact(inp: dict, tracer=None):
    scales = {"omega": inp["omega"], "kappa": inp["kappa"]}
    jacobi = []
    for record in catalog.list_catalog():
        algebra = catalog.build(record.name, record.variant, **scales)
        jacobi.append(algebra.jacobi_violations())
    orbits = []
    for name in coadjoint.STANDARD_ORBIT_NAMES:
        orbit = coadjoint.standard_orbit(name, m=inp["m"], h=inp["h"], E=inp["E"], **scales)
        structure = orbit.structure
        moved = orbit.point.replace(**inp["perturb"])
        residuals = [invariant.residual(orbit.algebra, point)
                     for invariant in orbit.invariants for point in (orbit.point, moved)]
        orbits.append((structure, coadjoint.classify(structure), residuals,
                       structure.omega @ structure.theta))
    static = static_group.static_symplectic(static_group.StaticConstants(**inp["static"]))
    static_product = static.omega @ static.theta
    rank = None
    if inp["degenerate"] is not None:
        name, values, _ = inp["degenerate"]
        algebra = catalog.build(name, "central_ext", **scales)
        point = coadjoint.DualPoint.from_mapping(algebra, values)
        try:
            coadjoint.restrict(algebra, point, _DEGENERATE_CHART)
            rank = "no error"
        except coadjoint.DegenerateChartError as exc:
            rank = exc.rank
    return jacobi, orbits, static_product, rank


def _check_exact(inp: dict, out) -> tuple[list[str], str, str]:
    jacobi, orbits, static_product, rank = out
    failed = set()
    if any(jacobi):
        failed.add("jacobi")
    text = io.StringIO()
    for name, (structure, phase_class, residuals, product) in zip(
        coadjoint.STANDARD_ORBIT_NAMES, orbits
    ):
        a, b, c, s, _ = _orbit_closed_form(
            name, inp["m"], inp["h"], inp["E"], inp["omega"], inp["kappa"])
        theta = [[structure.canonical_theta[i, j] for j in range(4)] for i in range(4)]
        if theta != _canonical_theta(a, b, c, s):
            failed.add("canonical_theta")
        if (structure.G_field, structure.F_field) != (theta[0][1], theta[2][3]):
            failed.add("fields")
        classify_failure = _classify_failure(phase_class, theta)
        if classify_failure:
            failed.add(classify_failure)
        if any(r != 0 for residual in residuals for r in residual):
            failed.add("casimir")
        if not _is_identity(product):
            failed.add("omega_theta")
        text.write(f"{name} {phase_class} {theta}\n")
    if not _is_identity(static_product):
        failed.add("static_omega_theta")
    if inp["degenerate"] is not None and rank != inp["degenerate"][2]:
        failed.add("degenerate_rank")
    text.write(f"rank {rank}\n")
    return sorted(failed), text.getvalue(), ""


def defect_probes(seed: int) -> tuple[int, Counter]:
    """Classify every standard orbit at the point h = 1e-14 on G, m = E =
    omega = kappa = 1, and at DEFECT_PROBES seeded points with charges from
    1e-16 to 1e4.  Return the number of points and, per failed check, the
    number of points at which some orbit's ``classify`` fails it."""
    points = [{"omega": Fr(1), "kappa": Fr(1), "m": Fr(1), "h": Fr(1, 10**14), "E": Fr(1)}]
    points += [_orbit_params(rng_for("defect_probes", seed, i), WIDE_EXPONENTS)
               for i in range(DEFECT_PROBES)]
    failures: Counter = Counter()
    for params in points:
        failed = set()
        for name in coadjoint.STANDARD_ORBIT_NAMES:
            structure = coadjoint.standard_orbit(name, **params).structure
            theta = [[structure.canonical_theta[i, j] for j in range(4)] for i in range(4)]
            failure = _classify_failure(coadjoint.classify(structure), theta)
            if failure:
                failed.add(failure)
        failures.update(failed)
    return len(points), failures


# -- cli_trajectories -------------------------------------------------------

T_END, DT, ROWS = 10, 0.001, 10_001
_OP_TIMEOUT_S = 90


def _simulate_params(rng: random.Random) -> dict:
    """Orbit and potential for ``simulate``; ranges keep 1 - G F > 0 and the
    orbit chart nondegenerate, and the potential positive definite."""
    k11, k22 = _ratio(rng, 2, 12, 4), _ratio(rng, 2, 12, 4)
    bound = int(4 * min(k11, k22))
    return {
        "algebra": rng.choice(coadjoint.STANDARD_ORBIT_NAMES),
        "m": _ratio(rng, 8, 16, 4), "h": _ratio(rng, -4, 4, 16), "E": _ratio(rng, 8, 16, 4),
        "omega": _ratio(rng, 6, 9, 6), "kappa": _ratio(rng, 6, 9, 6),
        "k11": k11, "k22": k22, "k12": _ratio(rng, -bound, bound, 9),
        "a1": _ratio(rng, -4, 4, 4), "a2": _ratio(rng, -4, 4, 4),
        **{k: _ratio(rng, -4, 4, 4) for k in ("q1", "q2", "p1", "p2")},
    }


def _realize_params(rng: random.Random) -> dict:
    """Static charges with det = mu kappa - beta^2 >= 3/4 and a start state."""
    return {
        "m": _ratio(rng, 2, 12, 4), "mu": _ratio(rng, 4, 12, 4),
        "beta": _ratio(rng, -2, 2, 4), "kappa": _ratio(rng, 4, 12, 4),
        "nu": _ratio(rng, -4, 4, 4), "h": _ratio(rng, -4, 4, 4),
        **{k: _ratio(rng, -4, 4, 4)
           for k in ("q1", "q2", "u1", "u2", "p1", "p2", "k1", "k2", "E", "j")},
    }


def _draw_cli(rng: random.Random, index: int) -> dict:
    # Four consecutive ops cover simulate/realize times csv/json-lines.
    command = ("simulate", "realize")[index % 2]
    fmt = ("csv", "json-lines")[(index // 2) % 2]
    params = _simulate_params(rng) if command == "simulate" else _realize_params(rng)
    argv = [command]
    if command == "simulate":
        argv += ["--algebra", params["algebra"]]
    for key, value in params.items():
        if key != "algebra":
            argv += ["--param", f"{key}={value}"]
    argv += ["--t-end", str(T_END), "--dt", str(DT), "--format", fmt]
    return {"command": command, "format": fmt, "params": params, "argv": argv,
            "kind": f"{command}_{fmt.split('-')[0]}"}


def child_env() -> dict:
    """Environment of child interpreters: the caller's, with kinorbit's
    sources first on the path and OpenBLAS's default threading."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Run one child interpreter to completion; a watchdog kills it after
    ``_OP_TIMEOUT_S`` seconds.

    The wait blocks in ``waitpid``.  ``communicate(timeout=...)`` would
    instead poll for the exit in sleeps of up to 50 ms, which rounds a
    child's time up by as much as one sleep.
    """
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), cwd=ROOT,
    )
    watchdog = threading.Timer(_OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    finally:
        watchdog.cancel()
    return proc.returncode, out, err


def _run_cli(inp: dict, tracer=None):
    if tracer is None:
        return run_child(["-m", "kinorbit.cli", *inp["argv"]])
    spans_path = tracer.child_dir / "child-spans.jsonl"
    record = tracer.open("cli.request")
    try:
        result = run_child([str(HERE / "traced_cli.py"), str(spans_path), *inp["argv"]])
    finally:
        tracer.close(record)
    record[5] = {"bytes_out": len(result[1])}
    tracer.adopt(spans.load(spans_path), record[0])
    spans_path.unlink()
    return result


def _parse_rows(fmt: str, text: str) -> dict[str, np.ndarray]:
    lines = text.splitlines()
    if fmt == "csv":
        header = lines[0].split(",")
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        return {name: table[:, i] for i, name in enumerate(header)}
    rows = [json.loads(line) for line in lines]
    return {name: np.array([row[name] for row in rows], dtype=float) for name in rows[0]}


def _close(actual, expected, rtol) -> bool:
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    return bool(np.all(np.abs(actual - expected) <= rtol * (1.0 + np.abs(expected))))


def _affine_flow(A, b, z0, times) -> np.ndarray:
    """States of dz/dt = A z + b from z0 at ``times``, by matrix exponential."""
    from scipy.linalg import expm

    generator = np.zeros((5, 5))
    generator[:4, :4], generator[:4, 4] = A, b
    start = np.append(np.asarray(z0, float), 1.0)
    return np.array([(expm(generator * t) @ start)[:4] for t in times])


def _hamiltonian(space, ham, z) -> np.ndarray:
    (a1, a2), (k11, k12, k22) = ham.linear, ham.quadratic
    q1, q2, p1, p2 = z.T
    return ((p1**2 + p2**2) / (2 * float(space.mass)) + a1 * q1 + a2 * q2
            + (k11 * q1**2 + 2 * k12 * q1 * q2 + k22 * q2**2) / 2)


def _check_simulate(params: dict, rows: dict) -> set[str]:
    failed = set()
    P = {k: v for k, v in params.items() if k != "algebra"}
    a, b, c, s, mass = _orbit_closed_form(
        params["algebra"], P["m"], P["h"], P["E"], P["omega"], P["kappa"])
    space = mechanics.NCPhaseSpace2D(G_field=-a / s**2, F_field=-b, mass=mass)
    ham = mechanics.HamiltonianSpec(
        linear=(float(P["a1"]), float(P["a2"])),
        quadratic=(float(P["k11"]), float(P["k12"]), float(P["k22"])),
    )
    z = np.column_stack([rows[k] for k in ("q1", "q2", "p1", "p2")])
    if not _close(rows["t"], np.linspace(0.0, T_END, ROWS), 1e-12):
        failed.add("simulate_times")
    sample = sorted({0, ROWS - 1, *random.Random(str(params)).sample(range(ROWS), 8)})
    A, b_vec = mechanics.linear_system(space, ham)
    exact = _affine_flow(A, b_vec, [float(P[k]) for k in ("q1", "q2", "p1", "p2")],
                         rows["t"][sample])
    if not _close(z[sample], exact, 1e-8):
        failed.add("simulate_expm")
    energy = _hamiltonian(space, ham, z)
    if not _close(rows["H"], energy, 1e-12):
        failed.add("simulate_energy")
    if not _close(rows["drift"], rows["H"] - rows["H"][0], 1e-12):
        failed.add("simulate_drift")
    return failed


def _check_realize(params: dict, rows: dict) -> set[str]:
    failed = set()
    det = params["mu"] * params["kappa"] - params["beta"] ** 2
    kappa_e, mu_e = float(det / params["mu"]), float(det / params["kappa"])
    t = rows["t"]
    if not _close(t, np.arange(ROWS) * (T_END / (ROWS - 1)), 1e-12):
        failed.add("realize_times")
    for key in ("q1", "q2", "u1", "u2", "E"):
        if not _close(rows[key], float(params[key]), 1e-12):
            failed.add("realize_frozen")
    for i in "12":
        q, u = float(params["q" + i]), float(params["u" + i])
        if not (_close(rows["p" + i], float(params["p" + i]) - t * kappa_e * q, 1e-9)
                and _close(rows["k" + i], float(params["k" + i]) + t * mu_e * u, 1e-9)):
            failed.add("realize_linear")
    scale = 1.0 + max(np.max(np.abs(rows[k])) for k in ("p1", "p2", "k1", "k2")) ** 2
    for key in ("s_inv", "U"):
        if np.max(np.abs(rows[key] - rows[key][0])) > 1e-9 * scale:
            failed.add("realize_invariants")
    return failed


def _check_cli(inp: dict, out) -> tuple[list[str], str, str]:
    code, stdout, stderr = out
    if code != 0:
        return [f"exit_{code}"], "", ""
    text = stdout.decode()
    try:
        rows = _parse_rows(inp["format"], text)
    except (ValueError, KeyError, IndexError):
        return ["unparsable_output"], "", text
    if len(rows.get("t", ())) != ROWS:
        return ["row_count"], "", text
    check = _check_simulate if inp["command"] == "simulate" else _check_realize
    return sorted(check(inp["params"], rows)), "", text


# -- short_calls ------------------------------------------------------------


def _element(rng: random.Random) -> static_group.StaticGroupElement:
    u = lambda: _unit(rng)  # noqa: E731
    return static_group.StaticGroupElement(
        angle=rng.uniform(-math.pi, math.pi), boost=(u(), u()), translation=(u(), u()),
        time=u(), f_shift=(u(), u()), pi_shift=(u(), u()),
        phase_m=u(), phase_mprime=u(), phase_b=u(), phase_lambda=u(),
    )


def _draw_short(rng: random.Random, index: int) -> dict:
    k11, k22 = _ratio(rng, 2, 12, 4), _ratio(rng, 2, 12, 4)
    bound = int(4 * min(k11, k22))
    # Stratified over each round of ten ops, so the ops at one place in a
    # round do about the same number of steps and their times differ by
    # machine speed only.
    steps = 16 + int(49 * (index % 10 + rng.random()) / 10)
    return {
        # |G F| <= 1/4, so the bracket matrix stays symplectic.
        "space": {"G_field": _ratio(rng, -4, 4, 8), "F_field": _ratio(rng, -4, 4, 8),
                  "mass": _ratio(rng, 2, 12, 4)},
        "linear": (_unit(rng), _unit(rng)),
        "quadratic": (float(k11), float(_ratio(rng, -bound, bound, 9)), float(k22)),
        "z0": [_unit(rng) for _ in range(4)],
        "steps": steps, "dt": 0.01, "t_end": steps * 0.01,
        "constants": {"m": _ratio(rng, 2, 12, 4), "mu": _ratio(rng, 4, 12, 4),
                      "beta": _ratio(rng, -2, 2, 4), "kappa": _ratio(rng, 4, 12, 4),
                      "nu": _ratio(rng, -4, 4, 4), "h": _ratio(rng, -4, 4, 4)},
        "state": {"position": (_unit(rng), _unit(rng)), "velocity": (_unit(rng), _unit(rng)),
                  "momentum": (_unit(rng), _unit(rng)),
                  "boost_momentum": (_unit(rng), _unit(rng)),
                  "energy": _unit(rng), "angular_momentum": _unit(rng)},
        "elements": [_element(rng) for _ in range(3)],
        "t": rng.uniform(0.0, 10.0),
    }


def _run_short(inp: dict, tracer=None):
    space = mechanics.NCPhaseSpace2D(**inp["space"])
    ham = mechanics.HamiltonianSpec(linear=inp["linear"], quadratic=inp["quadratic"])
    trajectory = mechanics.integrate(space, ham, inp["z0"], inp["t_end"], inp["dt"])
    constants = static_group.StaticConstants(**inp["constants"])
    state = static_group.StaticOrbitState(constants=constants, **inp["state"])
    g1, g2, g3 = inp["elements"]
    compose = static_group.compose
    return {
        "space": space, "ham": ham, "trajectory": trajectory, "state": state,
        "moved": static_group.realize(g1, state),
        "left": compose(compose(g1, g2), g3),
        "right": compose(g1, compose(g2, g3)),
        "unit": compose(g1, static_group.inverse(g1)),
        "invariants": static_group.static_invariants(state),
        "evolved": static_group.time_evolution(state, inp["t"]),
    }


def _group_vector(g) -> np.ndarray:
    return np.array([g.angle, *g.boost, *g.translation, g.time, *g.f_shift, *g.pi_shift,
                     g.phase_m, g.phase_mprime, g.phase_b, g.phase_lambda])


def _check_short(inp: dict, out) -> tuple[list[str], str, str]:
    failed = set()
    trajectory = out["trajectory"]
    if trajectory.times.size != inp["steps"] + 1:
        failed.add("integrate_steps")
    A, b = mechanics.linear_system(out["space"], out["ham"])
    exact = _affine_flow(A, b, inp["z0"], [trajectory.times[-1]])[0]
    if not _close(trajectory.final_state, exact, 1e-6):
        failed.add("integrate_expm")
    if not _close(trajectory.energies, _hamiltonian(out["space"], out["ham"],
                                                   trajectory.states), 1e-12):
        failed.add("integrate_energy")

    g1, g2, _ = inp["elements"]
    state, moved = out["state"], out["moved"]
    invariants = np.array(out["invariants"])
    scale = 1.0 + float(np.max(np.abs(moved.chart_vector))) ** 2
    if np.max(np.abs(np.array(static_group.static_invariants(moved)) - invariants)) > 1e-9 * scale:
        failed.add("realize_invariants")
    twice = static_group.realize(g1, static_group.realize(g2, state))
    once = static_group.realize(static_group.compose(g1, g2), state)
    if not _close(once.chart_vector, twice.chart_vector, 1e-9):
        failed.add("realize_action")

    left, right = _group_vector(out["left"]), _group_vector(out["right"])
    if not _close(left, right, 1e-9):
        failed.add("compose_associative")
    if not _close(_group_vector(out["unit"]), np.zeros(14), 1e-9):
        failed.add("compose_inverse")

    c = out["state"].constants
    evolved, t = out["evolved"], inp["t"]
    q, u = np.array(state.position), np.array(state.velocity)
    if not (_close(evolved.momentum, np.array(state.momentum) - t * float(c.kappa_e) * q, 1e-12)
            and _close(evolved.boost_momentum,
                       np.array(state.boost_momentum) + t * float(c.mu_e) * u, 1e-12)):
        failed.add("time_evolution_linear")
    scale = 1.0 + float(np.max(np.abs(evolved.chart_vector))) ** 2
    drift = np.array(static_group.static_invariants(evolved)) - invariants
    if np.max(np.abs(drift)) > 1e-9 * scale:
        failed.add("time_evolution_invariants")

    floats = np.concatenate([trajectory.states.ravel(), moved.chart_vector, left,
                             _group_vector(out["unit"]), invariants, evolved.chart_vector])
    return sorted(failed), "", floats.tobytes().hex()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_catalog", 4, 4, 4, 6.5, _draw_exact, _run_exact, _check_exact),
        Workload("cli_trajectories", 4, 1, 2, 0.27, _draw_cli, _run_cli, _check_cli),
        Workload("short_calls", 10, 10, 4, 40.0, _draw_short, _run_short, _check_short),
    )
}
