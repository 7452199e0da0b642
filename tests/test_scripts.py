"""Smoke test for the library example the README points users at."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_with_src(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_readme_library_block_runs():
    # the README's one python block uses only the current public API
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    proc = _run_with_src("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0.10781271774893")
