"""Seeded inputs for the benchmark workloads.

Everything here is built from a ``numpy.random.Generator`` the caller seeds,
so one seed always yields the same pairs.  The library only ever sees the
resulting function tables.
"""

from __future__ import annotations

import numpy as np

from terncode import code, gf3
from terncode.errors import ValidationError
from terncode.spectrum import TernaryFunction


def shell_pair(m: int, k1: int, k2: int) -> tuple[TernaryFunction, TernaryFunction]:
    """The Hamming-weight-shell pair of ``hwconstruct.build_fg`` at any m.

    ``HWParams`` admits m >= 9 only; the certify workloads run the same
    shells at m = 8, where the code is still minimal, fails Ashikhmin-Barg
    and so needs the full spectral sweep.
    """
    w = gf3.weights_table(m).astype(np.int16)
    f = ((w >= 1) & (w <= k2) & (w != k1)).astype(np.int8)
    g = np.zeros_like(f)
    g[(w >= k1) & (w <= k2 - 1)] = 1
    g[w == k2] = 2
    return TernaryFunction(m, f), TernaryFunction(m, g)


def rank_mod3(a: np.ndarray) -> int:
    """Rank of an integer matrix over GF(3), by Gaussian elimination."""
    rows = [[int(x) % 3 for x in row] for row in a]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]  # 1 and 2 are their own inverses mod 3
        rows[rank] = [(x * inv) % 3 for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % 3 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_invertible(m: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly drawn invertible m x m matrix over GF(3) (rejection by rank)."""
    while True:
        a = rng.integers(0, 3, size=(m, m), dtype=np.int64)
        if rank_mod3(a) == m:
            return a


def compose_linear(F: TernaryFunction, a: np.ndarray) -> TernaryFunction:
    """The function x -> F(A x), tabulated in the global enumeration order."""
    m = F.m
    digits = gf3.digits_table(m).astype(np.int64)
    image = (a @ digits) % 3
    idx = (image * (3 ** np.arange(m, dtype=np.int64))[:, None]).sum(axis=0)
    return TernaryFunction(m, F.table[idx])


def scrambled_pair(f: TernaryFunction, g: TernaryFunction, rng: np.random.Generator
                   ) -> tuple[TernaryFunction, TernaryFunction, np.ndarray]:
    """(f o A, g o A) for a seeded invertible A.

    x -> A x permutes the nonzero coordinates, and the linear part v.x
    becomes (A^-T v).(A x), so the new code is permutation-equivalent: same
    weight distribution, CWE and minimality verdict.  Its spectra are no
    longer constant on Hamming-weight classes unless A happens to be monomial.
    """
    a = random_invertible(f.m, rng)
    return compose_linear(f, a), compose_linear(g, a), a


def random_valid_spec(m: int, rng: np.random.Generator) -> code.CodeSpec:
    """Rejection-sample a pair (f, g) that passes ``code.validate``."""
    while True:
        f = TernaryFunction.random(m, rng)
        g = TernaryFunction.random(m, rng)
        try:
            return code.validate(m, f, g)
        except ValidationError:
            continue
