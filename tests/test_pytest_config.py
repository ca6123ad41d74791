"""The repository's pytest settings let a session run to its summary."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_AND_PLAIN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_passes():
    assert True
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # Reporting a failed @given test imports third-party code that raises a
    # DeprecationWarning; under filterwarnings = ["error"] alone that ended
    # the session with INTERNALERROR before the next test ran.
    (tmp_path / "test_probe.py").write_text(PROPERTY_AND_PLAIN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
