"""Smoke tests: every script in demos/ runs to completion on the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    if path.stem.startswith("03"):
        assert "dimensions:   (1, 1, 1)" in result.stdout
