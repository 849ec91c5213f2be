"""kinorbit benchmark: one seeded workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare DIR_A DIR_B

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off.  ``--trace 1`` runs a fixed op list twice, untraced and
traced in alternating rounds, and reports the per-layer metrics.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  Every run also writes its full record (machine
fingerprint, all metrics, failing checks, output digests and, on
``exact_catalog``, the untimed probes of the known ``classify`` defect) to ``--out``
(default ``.perfbench_out``), and a traced run writes its spans there as
JSON lines.  ``--compare`` reads two such directories.

An untraced run repeats rounds of the workload's fixed number of ops for
``--seconds``.  Every timing is scaled to the machine's reference speed
(see ``Speedometer``).  ``wall_s`` and ``cpu_s`` are the time of one round
with every op at the median of its place in the round, ``ops_per_s`` is
ops per round over ``wall_s``, ``setup_s`` is the median of fresh-interpreter
set-ups spread over the run, and ``peak_rss_mb`` is the peak resident
memory of the processes that run the ops without the checks.  The raw,
unscaled figures are printed too and kept in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_SAMPLES = 12
IMPORT_SAMPLES = 3
P90_MIN_OPS = 100  # p90 is reported only with at least 10 samples beyond it
RSS_ROUNDS = 2  # rounds of ops the peak-memory probe runs
PROBE_CAL_UNITS = 1  # child calibration units timed before and after a set-up probe

# The 2-vCPU Xeon VM this benchmark was tuned on changes speed by up to 1.9x,
# in stretches from a fraction of a second to minutes, and CPU time moves
# with wall time; no statistic taken inside one run absorbs a slow stretch
# that lasts the whole run.  So runs time a fixed calibration unit between
# ops and scale each timing by the unit's reference time over its median
# time within CAL_WINDOW_NS of it.  Work in this process, the start of a
# child interpreter and its import of NumPy slow down by different factors,
# so in-process ops are scaled by an in-process unit, CLI ops by starting
# an interpreter that does nothing, and set-up probes, most of whose time
# is NumPy's import, by starting one that imports NumPy.  The reference
# times are the units' times there at full speed (Python 3.11.7, NumPy
# 2.4.6); on another machine only the scale of the figures differs.
CAL_REF_NS = 1_400_000
CHILD_CAL_REF_NS = 45_000_000
PROBE_CAL_REF_NS = 120_000_000
CAL_WINDOW_NS = 300_000_000


def _cpu_ns() -> int:
    """CPU time of this process plus all of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((children.ru_utime + children.ru_stime) * 1e9)


def _calibration_unit() -> None:
    """Fixed work of the kinds kinorbit spends its time on (Fraction
    arithmetic, interpreted loops, dicts and small NumPy arrays), in no
    kinorbit code, so a change to kinorbit cannot change it."""
    import numpy as np

    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, 2 * i + 1) * Fraction(3, i + 5)
    state, matrix = np.arange(4.0), np.eye(4) * 0.5
    for _ in range(150):
        state = matrix @ state + 1.0
    words: dict[str, int] = {}
    for i in range(1500):
        words[str(i)] = words.get(str(i % 97), 0) + i


class Speedometer:
    """Calibration samples of a run, and the scale of a timing taken between them."""

    def __init__(self, unit, reference_ns: float) -> None:
        self.unit, self.reference_ns = unit, reference_ns
        self.stamps: list[int] = []  # midpoint of each sample, perf_counter_ns
        self.unit_ns: list[float] = []  # time of one unit in that sample

    def sample(self, units: int) -> None:
        start = time.perf_counter_ns()
        for _ in range(units):
            self.unit()
        end = time.perf_counter_ns()
        self.stamps.append((start + end) // 2)
        self.unit_ns.append((end - start) / units)

    def scale(self, start: int, end: int) -> float:
        """Factor that turns a timing taken from ``start`` to ``end`` into
        one at the reference speed."""
        lo = bisect_left(self.stamps, start - CAL_WINDOW_NS)
        hi = bisect_right(self.stamps, end + CAL_WINDOW_NS)
        if lo == hi:  # no sample near: take the last one before it
            lo = min(max(lo - 1, 0), len(self.stamps) - 1)
            hi = lo + 1
        return self.reference_ns / statistics.median(self.unit_ns[lo:hi])

    def speed(self) -> float:
        """Median speed of the run relative to the reference."""
        return statistics.median(self.reference_ns / ns for ns in self.unit_ns)


def _child_meter(workloads, argv: list[str], reference_ns: float) -> Speedometer:
    """Calibration by a child interpreter run with ``argv``."""
    def unit() -> None:
        code, _, err = workloads.run_child(argv)
        if code != 0:
            raise RuntimeError(f"calibration child exited with {code}: {err.decode()[-2000:]}")

    return Speedometer(unit, reference_ns)


def _meters(workloads, spec) -> tuple[Speedometer, Speedometer]:
    """The calibration of the workload's ops and that of set-up probes."""
    probe = _child_meter(workloads, ["-c", "import numpy"], PROBE_CAL_REF_NS)
    if spec.name == "cli_trajectories":
        return _child_meter(workloads, ["-c", "pass"], CHILD_CAL_REF_NS), probe
    return Speedometer(_calibration_unit, CAL_REF_NS), probe


def _machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def _setup_probe(workloads, name: str, seed: int):
    """Return a function that times one fresh interpreter importing kinorbit
    and making the workload's warm-up call.

    The first probe, run here, is untimed: it writes the bytecode caches,
    which a user pays once per install, not per run.
    """
    argv = [str(HERE / "setup_probe.py"), name, str(seed)]

    def probe() -> tuple[int, int]:
        start = time.perf_counter_ns()
        code, _, err = workloads.run_child(argv)
        end = time.perf_counter_ns()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}: {err.decode()[-2000:]}")
        return start, end

    probe()
    return probe


def _peak_rss_mb(workloads, name: str, seed: int) -> float:
    """Peak resident memory of a child that makes the warm-up call and then
    runs the first RSS_ROUNDS rounds of ops without the checks."""
    rounds = str(RSS_ROUNDS * workloads.WORKLOADS[name].round_size)
    code, out, err = workloads.run_child([str(HERE / "setup_probe.py"), name, str(seed), rounds])
    if code != 0:
        raise RuntimeError(f"memory probe exited with {code}: {err.decode()[-2000:]}")
    return int(out.decode().split()[-1]) / 1024


def _import_times(workloads) -> tuple[float, float]:
    """Median cumulative import time of kinorbit (+cli) and of NumPy, from -X importtime."""
    kinorbit_s, numpy_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import kinorbit, kinorbit.cli"],
            check=True, capture_output=True, text=True, env=workloads.child_env(),
            cwd=ROOT, timeout=60,
        )
        top, numpy_us = 0, 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].rstrip()
            name, depth = module.strip(), len(module) - len(module.lstrip()) - 1
            if depth == 0 and name in ("kinorbit", "kinorbit.cli"):
                top += int(parts[1])
            if name == "numpy" and not numpy_us:
                numpy_us = int(parts[1])
        kinorbit_s.append(top / 1e6)
        numpy_s.append(numpy_us / 1e6)
    return statistics.median(kinorbit_s), statistics.median(numpy_s)


class Pass:
    """Timings, failures and digests of one pass over an op list."""

    def __init__(self) -> None:
        self.start_ns: list[int] = []
        self.wall_ns: list[int] = []
        self.cpu_ns: list[int] = []
        self.kinds: list[str | None] = []
        self.setup_s: list[float] = []
        self.scales: list[float] = []  # speed scale of each op, untraced runs only
        self.failures: Counter = Counter()
        self.failed = 0
        self.exact = hashlib.sha256()
        self.floats = hashlib.sha256()


def _run_op(workloads, spec, seed: int, index: int, result: Pass, tracer=None) -> None:
    """Draw, time, then check op ``index``, recording it in ``result``."""
    inp = spec.draw(workloads.rng_for(spec.name, seed, index), index)
    span = tracer.open("op") if tracer else None
    if tracer:
        tracer.active = True
    cpu0, wall0 = _cpu_ns(), time.perf_counter_ns()
    try:
        out, error = spec.run(inp, tracer), None
    except Exception as exc:  # an op that raises is a failed op
        out, error = None, exc
    wall1, cpu1 = time.perf_counter_ns(), _cpu_ns()
    if tracer:
        tracer.active = False
        tracer.close(span)
    result.start_ns.append(wall0)
    result.wall_ns.append(wall1 - wall0)
    result.cpu_ns.append(cpu1 - cpu0)
    result.kinds.append(inp.get("kind"))
    if error is not None:
        names, exact, floats = [f"raised_{type(error).__name__}"], "", ""
    else:
        try:
            names, exact, floats = spec.check(inp, out)
        except Exception as exc:  # malformed output the checks cannot read
            names, exact, floats = [f"check_raised_{type(exc).__name__}"], "", ""
    result.failures.update(names)
    result.failed += bool(names)
    if index < spec.round_size:
        result.exact.update(exact.encode())
        result.floats.update(floats.encode())


def _round_median(values: list[float], size: int) -> float:
    """Time of one round in which every op takes the median of the ops at
    its place in the round; the statistic of ``wall_s`` and ``cpu_s``.

    Ops at one place in a round are of one kind (``simulate`` as CSV, the
    op with a singular chart, ...), so a place's median is not pulled
    between kinds.
    """
    return sum(statistics.median(values[i::size]) for i in range(size))


def _untraced(workloads, spec, args) -> tuple[dict, Pass]:
    probe = _setup_probe(workloads, spec.name, args.seed)
    if spec.name != "cli_trajectories":
        spec.run(spec.draw(workloads.rng_for(spec.name, args.seed, "warmup"), 0))
    (meter, probe_meter), probes = _meters(workloads, spec), []

    def timed_probe() -> None:
        probe_meter.sample(PROBE_CAL_UNITS)
        probes.append(probe())
        probe_meter.sample(PROBE_CAL_UNITS)

    result, index, start = Pass(), 0, time.perf_counter()
    while time.perf_counter() - start < args.seconds or index % spec.round_size:
        # Set-up probes are spread evenly over the run, between rounds, so
        # they meet the same changes of machine speed as the ops.
        while (index % spec.round_size == 0 and len(probes) < SETUP_SAMPLES and
               len(probes) * args.seconds <= SETUP_SAMPLES * (time.perf_counter() - start)):
            timed_probe()
        if index % spec.cal_every == 0:
            meter.sample(spec.cal_units)
        _run_op(workloads, spec, args.seed, index, result)
        index += 1
    meter.sample(spec.cal_units)
    while len(probes) < SETUP_SAMPLES:
        timed_probe()

    scales = [meter.scale(t, t + w) for t, w in zip(result.start_ns, result.wall_ns)]
    walls = [w * f for w, f in zip(result.wall_ns, scales)]
    cpus = [c * f for c, f in zip(result.cpu_ns, scales)]
    result.setup_s = [(end - begin) * probe_meter.scale(begin, end) / 1e9
                      for begin, end in probes]
    wall_s = _round_median(walls, spec.round_size) / 1e9
    if spec.name == "cli_trajectories":  # every op is a child: the largest of them
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        peak_rss_mb = _peak_rss_mb(workloads, spec.name, args.seed)
    n = len(walls)
    metrics = {
        "setup_s": statistics.median(result.setup_s),
        "wall_s": wall_s,
        "ops_per_s": spec.round_size / wall_s,
        "op_p50_ms": statistics.median(walls) / 1e6,
        "op_p90_ms": (statistics.quantiles(walls, n=10)[8] / 1e6
                      if n >= P90_MIN_OPS else None),
        "cpu_s": _round_median(cpus, spec.round_size) / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": result.failed / n,
    }
    for kind in sorted({k for k in result.kinds if k}):
        metrics[f"{kind}_p50_ms"] = statistics.median(
            w for w, k in zip(walls, result.kinds) if k == kind) / 1e6
    metrics.update({
        "raw_setup_s": statistics.median((end - begin) / 1e9 for begin, end in probes),
        "raw_wall_s": _round_median(result.wall_ns, spec.round_size) / 1e9,
        "raw_cpu_s": _round_median(result.cpu_ns, spec.round_size) / 1e9,
        "speed": meter.speed(),
        "probe_speed": probe_meter.speed(),
    })
    result.scales = scales
    return metrics, result


def _traced(workloads, spec, args, out_dir: Path) -> tuple[dict, Pass]:
    import spans

    import_s, import_numpy_s = _import_times(workloads)
    count = spec.round_size * max(1, round(args.seconds * spec.trace_ops_per_s / spec.round_size))
    if spec.name != "cli_trajectories":
        spec.run(spec.draw(workloads.rng_for(spec.name, args.seed, "warmup"), 0))
    # Rounds alternate untraced/traced and traced/untraced on the same
    # inputs, so a change of machine speed hits both sides alike.
    plain, traced, tracer = Pass(), Pass(), spans.Tracer(child_dir=out_dir)
    meter = _meters(workloads, spec)[0]
    for first in range(0, count, spec.round_size):
        for side in ((plain, traced) if first // spec.round_size % 2 else (traced, plain)):
            meter.sample(spec.cal_units * spec.round_size // spec.cal_every)
            if side is traced:
                tracer.install()
            try:
                for index in range(first, first + spec.round_size):
                    _run_op(workloads, spec, args.seed, index, side,
                            tracer if side is traced else None)
            finally:
                tracer.uninstall()
    meter.sample(spec.cal_units)
    tracer.dump(out_dir / f"{spec.name}-seed{args.seed}.spans.jsonl")

    def scaled_ns(side: Pass) -> float:
        return sum(w * meter.scale(t, t + w) for t, w in zip(side.start_ns, side.wall_ns))

    totals = spans.totals(tracer.spans)
    metrics = {}
    for name, *_ in spans.TARGETS:
        metrics[f"{name}.calls"] = totals[name]["calls"]
        metrics[f"{name}.self_s"] = totals[name]["self_ns"] / 1e9
    steps = totals["mechanics.integrate"]["steps"]
    metrics.update({
        "rational_linalg.rat_inv.size_sum": totals["rational_linalg.rat_inv"]["size"],
        "algebra_core.jacobi.triples": totals["algebra_core.jacobi"]["triples"],
        "coadjoint.restrict.degenerate":
            totals["coadjoint.restrict"]["error.DegenerateChartError"],
        "mechanics.integrate.steps": steps,
        "mechanics.integrate.ns_per_step":
            totals["mechanics.integrate"]["self_ns"] / steps if steps else 0.0,
        "cli.rows": totals["cli._emit"]["rows"],
        "cli.bytes_out": totals["cli.request"]["bytes_out"],
        "kinorbit.import_s": import_s,
        "kinorbit.import_numpy_s": import_numpy_s,
        "trace.overhead_frac": scaled_ns(traced) / scaled_ns(plain) - 1,
    })
    traced.wall_ns += plain.wall_ns
    traced.failures += plain.failures
    traced.failed += plain.failed
    return metrics, traced


def _report(args, machine, metrics, result, listed) -> None:
    print(f"kinorbit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: Python {machine['python']}, NumPy {machine['numpy']}, "
          f"nproc {machine['nproc']}, {machine['cpu_model']}, load average "
          f"{machine['loadavg_start'][0]:.2f} -> {machine['loadavg_end'][0]:.2f}")
    n = len(result.wall_ns)
    print("metrics (* = listed in BENCHMARK.json):")
    for name, value in metrics.items():
        mark = "*" if name in listed else " "
        if value is None:
            print(f" {mark}{name:41s} not reported: {n} ops, p90 needs {P90_MIN_OPS}")
            continue
        unit = listed[name]["unit"] if name in listed else (
            "1/s" if name == "ops_per_s" else "ms" if name.endswith("_ms")
            else "count" if name.endswith(".calls") else "s" if name.endswith("_s")
            else "ratio")
        print(f" {mark}{name:41s} {value:.6g} {unit}")
    print(f"failed ops: {result.failed} of {n}"
          + "".join(f"; {k}: {v}" for k, v in sorted(result.failures.items())))
    print(f"sha256 of the first round: exact {result.exact.hexdigest()}, "
          f"float {result.floats.hexdigest()}")


def run(args) -> int:
    if not (SRC / "kinorbit" / "__init__.py").is_file():
        print(f"perfbench: kinorbit sources not found under {SRC}", file=sys.stderr)
        return 2
    # The checks call scipy.linalg.expm, which wakes OpenBLAS worker threads
    # that keep spinning into the next timed op; one BLAS thread in this
    # process keeps the checker out of the timings.  kinorbit's own matrices
    # are too small for OpenBLAS to thread, and child processes get the
    # default back (see workloads.child_env).  Set before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    machine = _machine()
    if args.trace:
        metrics, result = _traced(workloads, spec, args, out_dir)
        listed = {m["name"]: m for m in SPEC["per_layer"]}
    else:
        metrics, result = _untraced(workloads, spec, args)
        listed = {m["name"]: m for m in SPEC["end_to_end"]}
    # The known classify defect, shown on points kept out of the timed ops.
    probes, defects = (workloads.defect_probes(args.seed) if spec.name == "exact_catalog"
                       else (0, Counter()))
    machine["loadavg_end"] = list(os.getloadavg())
    unknown = (set(result.failures) | set(defects)) - workloads.KNOWN_DEFECTS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "attempted": len(result.wall_ns),
        "failed": result.failed, "correct": not unknown,
        "failures": dict(result.failures), "metrics": metrics,
        "defect_probes": {"points": probes, "failures": dict(defects)},
        "op_wall_ms": [round(w / 1e6, 3) for w in result.wall_ns],
        "op_cpu_ms": [round(c / 1e6, 3) for c in result.cpu_ns],
        "op_scale": [round(f, 4) for f in result.scales],
        "setup_probe_s": [round(t, 4) for t in result.setup_s],
        "digests": {"ops": spec.round_size, "exact_sha256": result.exact.hexdigest(),
                    "float_sha256": result.floats.hexdigest()},
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    _report(args, machine, metrics, result, listed)
    if probes:
        print(f"defect probes (untimed, charges 1e-16..1e4): {probes} points"
              + "".join(f"; {k}: {v}" for k, v in sorted(defects.items())))
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": m["unit"]}
                    for name, m in listed.items()},
    }))
    return 0


# -- compare ------------------------------------------------------------------


def _load_set(directory: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, value in record["metrics"].items():
            if value is not None:
                values.setdefault((record["workload"], name), []).append(value)
    return values


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(dir_a: str, dir_b: str) -> int:
    """Print, per workload and metric, both sides' median and quartiles and
    the ratio B/A against A's median; mark a metric unresolved where either
    side's quartile spread, as a share of its median, exceeds the bound."""
    a, b = _load_set(dir_a), _load_set(dir_b)
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    print(f"A = {dir_a}   B = {dir_b}")
    print(f"{'workload':17s} {'metric':40s} {'A median [q1, q3] n':34s} "
          f"{'B median [q1, q3] n':34s} {'B/A':>7s}  mark")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        qa, qb = _summary(a[key]), _summary(b[key])
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        spec = metrics.get(name, {})
        bound = spec.get("bound")
        mark = ""
        if bound is not None:
            lower = spec["better"] == "lower"
            spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else float("inf") for q in (qa, qb))
            worse = ratio - 1 if lower else 1 - ratio
            every_run_better = (max(b[key]) < min(a[key]) if lower
                                else min(b[key]) > max(a[key]))
            mark = ("unresolved" if spread > bound and not every_run_better
                    else "worse" if worse > bound else "better" if worse < -bound
                    else "same")
        cell = lambda q, v: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {len(v)}"  # noqa: E731
        print(f"{workload:17s} {name:40s} {cell(qa, a[key]):34s} {cell(qb, b[key]):34s} "
              f"{ratio:7.3f}  {mark}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory for result records, relative to the repository root")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
