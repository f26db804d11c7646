import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from terncode import gf3
from terncode.code import CodeSpec, validate
from terncode.errors import ValidationError
from terncode.spectrum import TernaryFunction


# Rejection samplers give up after this many draws.  At m = 1 every pair
# fails validate; at m >= 2 more than half the draws pass.
MAX_DRAWS = 1000


def _first_valid(m: int, draw) -> CodeSpec:
    """The first ``draw()`` that does not raise ValidationError."""
    for _ in range(MAX_DRAWS):
        try:
            return draw()
        except ValidationError:
            continue
    raise RuntimeError(f"no valid pair at m={m} in {MAX_DRAWS} draws")


def random_valid_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a pair (f, g) satisfying the construction hypotheses."""
    return _first_valid(m, lambda: validate(m, TernaryFunction.random(m, rng), TernaryFunction.random(m, rng)))


def sparse_random_spec(m: int, rng: np.random.Generator, support: int = 3) -> CodeSpec:
    """Rejection-sample a valid pair whose f is nonzero at ``support`` random
    points and whose g is uniform.  The word of f has low weight and lies
    inside many linear words, so such codes are in practice not minimal."""

    def draw() -> CodeSpec:
        f = np.zeros(gf3.pow3(m), dtype=np.int8)
        f[rng.choice(np.arange(1, gf3.pow3(m)), size=support, replace=False)] = rng.integers(1, 3, size=support)
        return validate(m, TernaryFunction(m, f), TernaryFunction.random(m, rng))

    return _first_valid(m, draw)


def weight_symmetric_spec(m: int, f_by_weight, g_by_weight) -> CodeSpec:
    """The code of f(x) = f_by_weight[wt(x)], g(x) = g_by_weight[wt(x)]."""
    weights = gf3.weights_table(m)
    f = TernaryFunction(m, np.asarray(f_by_weight)[weights])
    g = TernaryFunction(m, np.asarray(g_by_weight)[weights])
    return validate(m, f, g)


def random_weight_symmetric_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a valid pair whose f and g are functions of wt(x)."""

    def draw() -> CodeSpec:
        by_weight = rng.integers(0, 3, size=(2, m + 1))
        by_weight[:, 0] = 0
        return weight_symmetric_spec(m, *by_weight)

    return _first_valid(m, draw)


def shell_spec(m: int, k1: int, k2: int) -> CodeSpec:
    """The Hamming-weight-shell pair of ``hwconstruct.build_fg``, at any m."""
    f = [int(1 <= i <= k2 and i != k1) for i in range(m + 1)]
    g = [1 if k1 <= i < k2 else 2 if i == k2 else 0 for i in range(m + 1)]
    return weight_symmetric_spec(m, f, g)


def scrambled_spec(spec: CodeSpec, a: np.ndarray) -> CodeSpec:
    """The code of (f o A, g o A) for an invertible m x m matrix A over F_3.

    It is permutation-equivalent to ``spec`` (same weights, CWE and
    minimality), but for a non-monomial A its spectra are no longer
    constant on Hamming-weight classes.
    """
    m = spec.m
    digits = gf3.digits_table(m).astype(np.int64)
    perm = ((a @ digits) % 3 * 3 ** np.arange(m)[:, None]).sum(axis=0)
    return validate(m, TernaryFunction(m, spec.f.table[perm]), TernaryFunction(m, spec.g.table[perm]))
