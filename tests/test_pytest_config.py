"""The repository's pytest configuration under a falsified Hypothesis property.

Warnings are errors, but writing the failing-example patch makes Hypothesis
import libcst, which warns that mypy_extensions.TypedDict is deprecated; as an
error that warning would abort the session, hide the falsifying example and
skip every later test.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_after():
    pass
"""


def test_falsified_property_shows_its_example_and_later_tests_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
