"""Tests of the benchmark itself: its scrambled inputs and its computed counts.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from terncode import code, gf3  # noqa: E402

from inputs import compose_linear, random_invertible, rank_mod3, scrambled_pair, shell_pair  # noqa: E402
from workloads import CERTIFY  # noqa: E402


def weight_class_constant(spec: code.CodeSpec) -> bool:
    """True iff every family spectrum is constant on every Hamming-weight class."""
    weights = gf3.weights_table(spec.m)
    for sp in spec.spectra.values():
        for i in range(spec.m + 1):
            if np.unique(sp.rd[weights == i]).size > 1:
                return False
    return True


def test_rank_mod3():
    assert rank_mod3(np.eye(4, dtype=np.int64)) == 4
    assert rank_mod3(np.array([[1, 2], [2, 1]])) == 1  # second row = 2 * first mod 3
    assert rank_mod3(np.array([[1, 1], [1, 2]])) == 2


def test_compose_with_identity_is_a_no_op():
    f, _ = shell_pair(5, 1, 3)
    assert compose_linear(f, np.eye(5, dtype=np.int64)) == f


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_invertible_is_invertible(seed):
    a = random_invertible(6, np.random.default_rng(seed))
    assert rank_mod3(a) == 6


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scrambled_pair_is_equivalent_but_not_weight_symmetric(seed):
    m, k1, k2 = CERTIFY
    f, g = shell_pair(m, k1, k2)
    shell = code.validate(m, f, g)
    fs, gs, a = scrambled_pair(f, g, np.random.default_rng(seed))
    assert rank_mod3(a) == m
    scrambled = code.validate(m, fs, gs)  # raises if a hypothesis fails
    assert code.weight_distribution(scrambled) == code.weight_distribution(shell)
    assert code.cwe(scrambled) == code.cwe(shell)
    assert weight_class_constant(shell)
    assert not weight_class_constant(scrambled)


def test_same_seed_same_scramble():
    f, g = shell_pair(*CERTIFY)
    one = scrambled_pair(f, g, np.random.default_rng(7))
    two = scrambled_pair(f, g, np.random.default_rng(7))
    assert one[0] == two[0] and one[1] == two[1]


COMPUTED = ("gf3.gather_bytes", "spectrum.transform_bytes", "minimality.checks",
            "minimality.bruteforce.checks", "code.cwe.terms", "cli.stdout_bytes")


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_computed_counts_repeat_exactly():
    first = traced_run("screen-random", 3)
    second = traced_run("screen-random", 3)
    assert first["correct"] and second["correct"]
    for name in COMPUTED:
        assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"][name]["value"] > 0, name
