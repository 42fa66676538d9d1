"""Smoke tests for the experiment scripts, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args,summary", [
    (["transfer_demo.py", "--n", "3", "--d", "3", "--r", "4", "--seed", "1"],
     "restricted ideal dimensions: [0, 0, 2, 6, 11]"),
    (["sharpness_survey.py", "--samples", "2"],
     "sharp iff 111-sharp on 2/2 instances"),
], ids=["transfer_demo", "sharpness_survey"])
def test_script_runs(args, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == summary
