"""Sample pairs (f, g) for the tests and the scripts, each recipe written once.

The samplers draw from a ``numpy.random.Generator`` the caller seeds, and no
recipe builds the (m, 3^m) digits table.  ``import terncode`` does not load
this module.
"""

from collections.abc import Callable, Iterable

import numpy as np

from . import gf3
from .code import CodeSpec, validate
from .errors import ValidationError
from .hwconstruct import shell_tables
from .spectrum import TernaryFunction

# Rejection samplers give up after this many draws.  At m = 1 every pair
# fails validate; at m >= 2 more than half the draws pass.
MAX_DRAWS = 1000


def first_valid(m: int, draw: Callable[[], CodeSpec]) -> CodeSpec:
    """The first ``draw()`` that does not raise ValidationError."""
    for _ in range(MAX_DRAWS):
        try:
            return draw()
        except ValidationError:
            continue
    raise RuntimeError(f"no valid pair at m={m} in {MAX_DRAWS} draws")


def random_valid_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a pair (f, g) satisfying the construction hypotheses."""
    return first_valid(m, lambda: validate(m, TernaryFunction.random(m, rng), TernaryFunction.random(m, rng)))


def sparse_random_spec(m: int, rng: np.random.Generator, support: int = 3) -> CodeSpec:
    """Rejection-sample a valid pair whose f is nonzero at ``support`` random
    points and whose g is uniform.  The word of f has low weight and lies
    inside many linear words, so such codes are in practice not minimal."""

    def draw() -> CodeSpec:
        f = np.zeros(gf3.pow3(m), dtype=np.int8)
        f[rng.choice(np.arange(1, gf3.pow3(m)), size=support, replace=False)] = rng.integers(1, 3, size=support)
        return validate(m, TernaryFunction(m, f), TernaryFunction.random(m, rng))

    return first_valid(m, draw)


def junta_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a valid pair f(x) = h1(x_0, x_1), g(x) = h2(x_2, x_3)
    for random h1, h2 on F_3^2 vanishing at 0.  Each spectrum lives on a few
    shifts, so such pairs have many heavy points.  Digits past x_(m-1) read
    as 0, so below m = 3 every g is zero.  The tables repeat a block of the
    lowest 9 or 81 indices, whose digits are (x_0, x_1) or (x_2, x_3)."""

    def draw() -> CodeSpec:
        h = rng.integers(0, 3, size=(2, 3, 3), dtype=np.int8)
        h[:, 0, 0] = 0
        f = np.resize(h[0].T.ravel(), gf3.pow3(m))
        g = np.resize(np.repeat(h[1].T.ravel(), 9), gf3.pow3(m))
        return validate(m, TernaryFunction(m, f), TernaryFunction(m, g))

    return first_valid(m, draw)


def weight_symmetric_spec(m: int, f_by_weight, g_by_weight) -> CodeSpec:
    """The code of f(x) = f_by_weight[wt(x)], g(x) = g_by_weight[wt(x)]."""
    weights = gf3.weights_table(m)
    return validate(m, *(TernaryFunction(m, np.asarray(values)[weights]) for values in (f_by_weight, g_by_weight)))


def random_weight_symmetric_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a valid pair whose f and g are functions of wt(x)."""

    def draw() -> CodeSpec:
        by_weight = rng.integers(0, 3, size=(2, m + 1))
        by_weight[:, 0] = 0
        return weight_symmetric_spec(m, *by_weight)

    return first_valid(m, draw)


def shell_spec(m: int, k1: int, k2: int) -> CodeSpec:
    """The Hamming-weight-shell pair of ``hwconstruct.build_fg``, at any m."""
    return validate(m, *shell_tables(m, k1, k2))


def transvect(F: TernaryFunction, a: int, b: int, c: int) -> TernaryFunction:
    """The function x -> F(x with x_a replaced by x_a + c*x_b), a != b.

    The image index of x is x + ((x_a + c*x_b) mod 3 - x_a)*3^a, from two
    digit extractions of the index, taken in chunks of 2^20: the memory
    beyond the two tables stays small at m = 16.
    """
    n, chunk = gf3.pow3(F.m), 1 << 20
    out = np.empty(n, np.int8)
    for start in range(0, n, chunk):
        x = np.arange(start, min(start + chunk, n), dtype=np.int64)
        x_a = x // gf3.pow3(a) % 3
        image = x + ((x_a + c * (x // gf3.pow3(b) % 3)) % 3 - x_a) * gf3.pow3(a)
        out[start : start + x.size] = F.table[image]
    return TernaryFunction(F.m, out)


def scrambled_spec(spec: CodeSpec, steps: Iterable[tuple[int, int, int]]) -> CodeSpec:
    """The code of (f o A, g o A) for A = T_1 T_2 ... T_k, step i = (a, b, c)
    giving T_i = I + c*E_ab (x_a <- x_a + c*x_b).  It is permutation-
    equivalent to ``spec`` (same weights, CWE and minimality), but for a
    non-monomial A its spectra are no longer constant on weight classes."""
    f, g = spec.f, spec.g
    for a, b, c in steps:
        f, g = transvect(f, a, b, c), transvect(g, a, b, c)
    return validate(spec.m, f, g)
