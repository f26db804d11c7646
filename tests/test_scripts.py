"""Smoke tests: each script under scripts/ runs and prints its summary line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name, args, summary",
    [
        # the shell code is weight-symmetric: certified by the orbit pre-check
        (
            "sweep_spectral.py",
            ("--m", "9", "--threads", "2"),
            r"^\(m=9, k1=2, k2=4\): minimal \[triple-minus ok, triple-plus ok, mixed-pair ok\] "
            r"7,748,252,316 checks in \d+s$",
        ),
        # random pairs fall through to the inline sweep (processes=1)
        (
            "cross_oracle_experiment.py",
            ("--per-m", "10", "--m", "2", "3", "--seed", "1"),
            r"^0 mismatches in \d+\.\ds$",
        ),
    ],
)
def test_script_runs(name, args, summary):
    out = run_script(name, *args)
    assert re.search(summary, out, re.MULTILINE), out
