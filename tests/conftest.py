import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from terncode import gf3
from terncode.code import CodeSpec, validate
from terncode.errors import ValidationError
from terncode.spectrum import TernaryFunction


def random_valid_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a pair (f, g) satisfying the construction hypotheses."""
    while True:
        f = TernaryFunction.random(m, rng)
        g = TernaryFunction.random(m, rng)
        try:
            return validate(m, f, g)
        except ValidationError:
            continue


def weight_symmetric_spec(m: int, f_by_weight, g_by_weight) -> CodeSpec:
    """The code of f(x) = f_by_weight[wt(x)], g(x) = g_by_weight[wt(x)]."""
    weights = gf3.weights_table(m)
    f = TernaryFunction(m, np.asarray(f_by_weight)[weights])
    g = TernaryFunction(m, np.asarray(g_by_weight)[weights])
    return validate(m, f, g)


def random_weight_symmetric_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a valid pair whose f and g are functions of wt(x)."""
    while True:
        by_weight = rng.integers(0, 3, size=(2, m + 1))
        by_weight[:, 0] = 0
        try:
            return weight_symmetric_spec(m, *by_weight)
        except ValidationError:
            continue


def shell_spec(m: int, k1: int, k2: int) -> CodeSpec:
    """The Hamming-weight-shell pair of ``hwconstruct.build_fg``, at any m."""
    f = [int(1 <= i <= k2 and i != k1) for i in range(m + 1)]
    g = [1 if k1 <= i < k2 else 2 if i == k2 else 0 for i in range(m + 1)]
    return weight_symmetric_spec(m, f, g)
