"""Smoke tests: each script under scripts/ runs and prints its summary line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize(
    "name, args, summary",
    [
        # the shell code is weight-symmetric: certified by the orbit pre-check
        (
            "sweep_spectral.py",
            ("--m", "9"),
            r"^\(m=9, k1=2, k2=4\): minimal \[triple-minus ok, triple-plus ok, mixed-pair ok\] "
            r"7,748,252,316 checks in \d+s$",
        ),
        # random pairs are decided on the heavy-shift lines
        (
            "cross_oracle_experiment.py",
            ("--per-m", "10", "--m", "2", "3", "--seed", "1"),
            r"^0 mismatches in \d+\.\ds$",
        ),
        # from m = 4 on, few-coordinate pairs too: the oracle's witnesses at
        # m = 4-5 come from them, since random pairs there are minimal
        (
            "cross_oracle_experiment.py",
            ("--per-m", "3", "--m", "4", "--seed", "1"),
            r"^m=4: random \d minimal, \d non-minimal; few-coordinate 0 minimal, 3 non-minimal; "
            r"verdicts and CWEs checked\n0 mismatches in \d+\.\ds$",
        ),
    ],
)
def test_script_runs(name, args, summary):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(summary, proc.stdout, re.MULTILINE), proc.stdout


@pytest.mark.parametrize("m", ["1", "6"])
def test_cross_oracle_rejects_out_of_range_m(m):
    # no pair passes validate at m = 1, and the brute-force oracle stops at
    # m = 5: the script must refuse with a usage error, not sample forever
    # or fail later
    proc = run_script("cross_oracle_experiment.py", "--m", m, timeout=30)
    assert proc.returncode == 2
    assert "m must be between 2 and 5" in proc.stderr


@pytest.mark.parametrize("limit, code", [("4", 0), ("0.001", 1)])
def test_max_rss_enforces_its_limit(limit, code):
    # a child that holds 32 MiB: under a 4 GiB limit it passes, over 1 MiB it fails
    hold = "import numpy; a = numpy.ones(2**22); print(a.size)"
    proc = run_script("max_rss.py", "--limit-gib", limit, "--", sys.executable, "-c", hold, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == "4194304\n"  # the command's stdout passes through
    peak = int(re.search(r"^max_rss: (\d+) MiB peak", proc.stderr, re.MULTILINE).group(1))
    assert peak >= 32


def test_max_rss_passes_on_the_command_exit_code():
    proc = run_script("max_rss.py", "--limit-gib", "4", "--", sys.executable, "-c", "raise SystemExit(3)", timeout=60)
    assert proc.returncode == 3
