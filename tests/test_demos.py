"""Every demo script runs to completion against the package in this checkout.

Each demo runs in its own interpreter with the checkout's `src` on
PYTHONPATH and TMPDIR pointed at the test's temporary directory, where
the demos write all their files.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import opinesum

SRC = Path(opinesum.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(tmp_path, demo):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
