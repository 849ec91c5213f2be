"""The benchmark's traced pass wraps functions by name; guard those names.

``perfbench/spans.py`` lists each traced function as a module and an
attribute path.  A refactor that renames or removes one fails here rather
than in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(_PERFBENCH))


def test_every_trace_target_resolves_to_a_callable(spans) -> None:
    for name, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_tracer_installs_and_uninstalls_cleanly(spans) -> None:
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert len(patched) >= len(spans.TARGETS)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
