"""A failing property test must print its falsifying example.

The suite turns warnings into errors (``pyproject.toml``).  A warning that
a dependency raises while Hypothesis writes its failure report would then
end the run in an INTERNALERROR, without the example; the configuration
ignores that one warning.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 5
'''


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path) -> None:
    (tmp_path / "test_failing.py").write_text(textwrap.dedent(_FAILING))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_failing.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "Falsifying example" in output, output
    assert result.returncode == 1, output
