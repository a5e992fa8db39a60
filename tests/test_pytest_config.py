"""The pytest settings in pyproject.toml report a failing property cleanly.

``filterwarnings`` makes every warning an error, so a warning raised by a
plugin while it reports a failure would end the run in INTERNALERROR and
hide the falsifying example.  The test runs a failing hypothesis property
under the repository's settings in a scratch directory (without the explain
phase, which only makes it slower).
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROPERTY = """\
from hypothesis import Phase, given, settings, strategies as st


@settings(derandomize=True, max_examples=5, database=None,
          phases=[Phase.generate, Phase.shrink])
@given(st.integers())
def test_property(x):
    assert x != x
"""


def test_failing_property_is_reported_not_internalerror(tmp_path):
    (tmp_path / "tests").mkdir()  # the settings' testpaths
    (tmp_path / "tests" / "test_property.py").write_text(PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "FAILED tests/test_property.py::test_property" in out, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
