"""Smoke tests for the scripts the README points users at."""

import os
import subprocess
import sys
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_optimum_runs_without_warnings():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "reproduce_optimum.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    hardy = [line for line in proc.stdout.splitlines() if line.startswith("hardy maximum")]
    assert len(hardy) == 1
    assert abs(float(hardy[0].split()[2]) - oracles.HARDY_MAX) < 1e-9
