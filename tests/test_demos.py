"""Every narrative demo runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
