"""Every script under demos/ runs to completion and prints its pinned output.

tests/golden/demos/<stem>.txt holds each demo's stdout; the demos print
neighborhoods, strings and triangles, so a change in what the library
returns shows there byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{script.stem}.txt").read_bytes()
