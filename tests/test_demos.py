"""Each demo script runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS)
                                          if f.endswith(".py")))
def test_demo_runs(script, tmp_path):
    # run in a scratch directory: a demo may write its output into cwd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
