"""In-memory span recorder for the traced benchmark pass.

The tracer wraps kinorbit's public functions at every name a caller looks
them up by: each ``kinorbit.*`` module attribute bound to the original
function object, or the class attribute for methods.  Nothing inside
kinorbit is edited.  Per-step internals such as ``hamilton_rhs`` are not
wrapped, so the tracing cost stays per call, not per step.

A span is ``[id, parent, name, start_ns, end_ns, attrs]``.  Spans are kept
in memory while the run lasts and written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from math import comb


def _rat_inv_size(args, kwargs, result):
    return {"size": int(args[0].shape[0])}


def _jacobi_triples(args, kwargs, result):
    return {"triples": comb(args[0].dim, 3)}


def _integrate_steps(args, kwargs, result):
    return {"steps": int(result.times.size - 1)}


def _emit_rows(args, kwargs, result):
    return {"rows": len(args[2])}


# (span name, module, attribute path, counter hook)
TARGETS = (
    ("rational_linalg.rat_inv", "kinorbit.rational_linalg", "rat_inv", _rat_inv_size),
    ("rational_linalg.rat_rank", "kinorbit.rational_linalg", "rat_rank", None),
    ("algebra_core.jacobi", "kinorbit.algebra_core",
     "StructureConstants.jacobi_violations", _jacobi_triples),
    ("algebra_core.adjoint_matrix", "kinorbit.algebra_core",
     "StructureConstants.adjoint_matrix", None),
    ("catalog.build", "kinorbit.catalog", "build", None),
    ("coadjoint.standard_orbit", "kinorbit.coadjoint", "standard_orbit", None),
    ("coadjoint.restrict", "kinorbit.coadjoint", "restrict", None),
    ("coadjoint.kirillov_matrix", "kinorbit.coadjoint", "kirillov_matrix", None),
    ("coadjoint.classify", "kinorbit.coadjoint", "classify", None),
    ("coadjoint.casimir_residual", "kinorbit.coadjoint", "casimir_residual", None),
    ("mechanics.integrate", "kinorbit.mechanics", "integrate", _integrate_steps),
    ("static_group.time_evolution", "kinorbit.static_group", "time_evolution", None),
    ("static_group.static_invariants", "kinorbit.static_group", "static_invariants", None),
    ("static_group.realize", "kinorbit.static_group", "realize", None),
    ("static_group.compose", "kinorbit.static_group", "compose", None),
    ("static_group.static_symplectic", "kinorbit.static_group", "static_symplectic", None),
    ("static_group.noncentral_invariants", "kinorbit.static_group",
     "noncentral_invariants", None),
    ("cli.run", "kinorbit.cli", "run", None),
    ("cli._emit", "kinorbit.cli", "_emit", _emit_rows),
)


class Tracer:
    """Records one span per wrapped call while ``active`` is true.

    ``child_dir`` is the directory where child processes write their spans.
    """

    def __init__(self, child_dir=None) -> None:
        self.child_dir = child_dir
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(record, {"error": type(exc).__name__})
                raise
            self.close(record, counter and counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every lookup name of each target with a recording wrapper."""
        importlib.import_module("kinorbit.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "kinorbit" or key.startswith("kinorbit.")]
        for name, module_name, path, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def open(self, name: str) -> list:
        """Start a span that the caller closes with :meth:`close`."""
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter_ns(), 0, None]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def close(self, record: list, attrs: dict | None = None) -> None:
        record[4] = time.perf_counter_ns()
        record[5] = attrs
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for sid, sparent, name, start, end, attrs in spans:
            self.spans.append([sid + offset,
                               parent if sparent is None else sparent + offset,
                               name, start, end, attrs])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def totals(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per span name: calls, total and self nanoseconds, summed counters.

    Self time is a span's duration minus the durations of its direct
    children; calls in one process never overlap, so children do not
    overlap each other.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for sid, parent, name, start, end, attrs in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[sid]
        for key, value in (attrs or {}).items():
            if key == "error":
                entry["error." + value] += 1
            else:
                entry[key] += value
    return out
