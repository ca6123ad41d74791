"""Every demo prints exactly its frozen output (tests/data/demos/<name>.out)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spintail

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_frozen(demo, tmp_path):
    # the child imports the same package as this session; demo 07 leaves its
    # temporary config in TMPDIR
    src = str(Path(spintail.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), TMPDIR=str(tmp_path))
    env.pop("SPINTAIL_VERBOSE", None)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.out").read_bytes()
    assert proc.stdout == expected
