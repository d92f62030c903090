import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, cwd=ROOT)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr


def test_census_demo_counts_classes():
    result = run_demo(ROOT / "demos" / "03_exhaustive_census.py")
    assert "N=6, size 4 up to equivalence: 8 classes of 21 words" in \
        result.stdout.splitlines()
