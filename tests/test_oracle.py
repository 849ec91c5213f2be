"""Run the independent sympy oracle, so its closed forms cannot rot."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")

ORACLE = Path(__file__).resolve().parents[1] / "oracles" / "closed_form_oracle.py"


def test_closed_form_oracle_passes_every_check() -> None:
    result = subprocess.run(
        [sys.executable, str(ORACLE)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    lines = result.stdout.splitlines()
    assert sum(line.startswith("ok:") for line in lines) == 82
