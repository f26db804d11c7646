"""The sample pairs of ``terncode.samples``, against their written-out definitions."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from terncode import gf3
from terncode.samples import junta_spec, random_valid_spec, scrambled_spec


@pytest.mark.parametrize("m", range(2, 9))
def test_scramble_equals_the_matrix_scramble(m):
    spec = random_valid_spec(m, np.random.default_rng(m))
    digits = gf3.digits_table(m).astype(np.int64)
    # the tests' two step lists, I + E_01 and I + E_01 + ... + E_(m-2,m-1), and a seeded product
    upper = np.eye(m, dtype=np.int64) + np.eye(m, k=1, dtype=np.int64)
    rng = np.random.default_rng(100 + m)
    seeded = [(*map(int, rng.choice(m, size=2, replace=False)), int(rng.integers(1, 3))) for _ in range(2 * m)]
    cases = [([(0, 1, 1)], None), ([(i, i + 1, 1) for i in range(m - 2, -1, -1)], upper), (seeded, None)]
    for steps, a in cases:
        if a is None:  # the product of the steps' matrices I + c*E_ab
            a = np.eye(m, dtype=np.int64)
            for i, j, c in steps:
                a[:, j] += c * a[:, i]
        image = ((a @ digits) % 3 * 3 ** np.arange(m)[:, None]).sum(axis=0)  # x -> A x
        scrambled = scrambled_spec(spec, steps)
        assert np.array_equal(scrambled.f.table, spec.f.table[image])
        assert np.array_equal(scrambled.g.table, spec.g.table[image])


@pytest.mark.parametrize("m", range(4, 10))
def test_junta_tables_are_h1_and_h2_of_the_digits(m):
    rng, ref = np.random.default_rng(m), np.random.default_rng(m)
    spec = junta_spec(m, rng)
    h = ref.integers(0, 3, size=(2, 3, 3), dtype=np.int8)
    assert rng.bit_generator.state == ref.bit_generator.state  # the first draw was taken
    h[:, 0, 0] = 0
    digits = gf3.digits_table(m).astype(np.int64)
    assert np.array_equal(spec.f.table, h[0][digits[0], digits[1]])
    assert np.array_equal(spec.g.table, h[1][digits[2], digits[3]])


def test_import_terncode_does_not_load_the_samples():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import terncode; print('terncode.samples' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout == "False\n"
