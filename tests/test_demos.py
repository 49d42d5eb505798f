"""Smoke test: every demo runs to completion and every check it prints holds."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_and_its_checks_hold(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    verdicts = re.findall(r": (True|False)\b", proc.stdout)
    assert verdicts and set(verdicts) == {"True"}, proc.stdout
    for line in proc.stdout.splitlines():
        if "verifies" in line:
            assert line.rstrip().endswith("True"), line
