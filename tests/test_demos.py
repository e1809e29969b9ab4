"""Every demo runs to completion as a script, with nothing on stderr."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    if path.stem.startswith("02_"):
        assert "break-even value: 0.5555555556" in proc.stdout
        assert "break-even observation: 0.6666666667" in proc.stdout
