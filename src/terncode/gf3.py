"""Exact arithmetic and enumeration for vectors over GF(3).

A vector in F_3^m is identified with its base-3 index (little endian:
``index = sum(digits[i] * 3**i)``).  This fixes the global enumeration
order of F_3^m used by every other module: code coordinates run over the
nonzero indices 1 .. 3^m - 1 in ascending order.

Bulk work uses dense numpy lookup tables.  Hamming weights
(``weights_table``), negation (``neg_perm``) and the pairwise add/sub rows
(``add_perm_rows``, ``sub_perm_rows``) all come from one digit recursion,
``_stack_digits``: the table for k + 1 digits is three stacked copies of
the table for k digits, so each costs O(3^m) per row and needs no digit
table.  The (m, 3^m) int8 ``digits_table`` serves the small-m integer
products -- ``dot_matrix`` (digits^T @ digits), ``TernaryFunction.linear``
and the generator matrix of :mod:`terncode.code` -- and outside callers;
no path that grows with m builds it.  The scalar helpers ``neg_index`` and
``sub_index`` serve witnesses with integer digit arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapacityError

# 3**16 ~ 43e6 dense table entries per function; larger m would need a
# sparse representation.  Raise deliberately if you have the memory.
MAX_M = 16


def pow3(m: int) -> int:
    return 3**m


def check_dimension(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"dimension m must be a positive integer, got {m!r}")
    if m > MAX_M:
        raise CapacityError(f"dimension m={m} exceeds the dense-table cap MAX_M={MAX_M}")


# ---------------------------------------------------------------------------
# Per-dimension tables, built by one digit recursion
# ---------------------------------------------------------------------------


def _stack_digits(table: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Fill the last axis of ``table`` (3^m entries, the first one given) digit by digit.

    ``steps`` has shape (..., m, 3).  The top digit is the slowest axis of an
    index, so the entries for k + 1 digits are three stacked copies of the
    entries for k digits, copy d offset by ``steps[..., k, d]``.
    """
    for k in range(steps.shape[-2]):
        n = pow3(k)
        for d in (1, 2, 0):  # copy 0 last: it is the source of the others
            np.add(table[..., :n], steps[..., k, d, None], out=table[..., d * n : (d + 1) * n])
    return table


def _index_rows(m: int, rows, sign: int) -> np.ndarray:
    """idx(v_r + sign * v_j) for each r in ``rows`` and every j; shape (len(rows), 3^m) int64."""
    rows = np.asarray(rows, dtype=np.int64)
    scale = 3 ** np.arange(m, dtype=np.int64)[:, None]
    steps = (rows[:, None, None] // scale + sign * np.arange(3)) % 3 * scale  # [r, k, d]
    return _stack_digits(np.zeros((len(rows), pow3(m)), dtype=np.int64), steps)


@lru_cache(maxsize=None)
def digits_table(m: int) -> np.ndarray:
    """Shape (m, 3^m) int8; row i holds digit i of every index."""
    check_dimension(m)
    table = np.empty((m, pow3(m)), dtype=np.int8)
    for i in range(m):
        table[i].reshape(-1, 3, pow3(i))[...] = np.arange(3, dtype=np.int8)[:, None]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def weights_table(m: int) -> np.ndarray:
    """Shape (3^m,) int8; Hamming weight of every index."""
    check_dimension(m)
    w = _stack_digits(np.zeros(pow3(m), dtype=np.int8), np.tile(np.int8([0, 1, 1]), (m, 1)))
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def neg_perm(m: int) -> np.ndarray:
    """Permutation p with p[i] = index of -v_i (digitwise 1 <-> 2 swap)."""
    check_dimension(m)
    out = sub_perm_rows(m, [0])[0]
    out.setflags(write=False)
    return out


def add_perm_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """idx(v_r + v_j) for each r in ``rows`` and every j; shape (len(rows), 3^m)."""
    return _index_rows(m, rows, 1)


def sub_perm_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """idx(v_r - v_j) for each r in ``rows`` and every j."""
    return _index_rows(m, rows, -1)


@lru_cache(maxsize=8)
def dot_matrix(m: int) -> np.ndarray:
    """(3^m, 3^m) int8 matrix of v_i . v_j mod 3.  Small-m oracle helper only."""
    check_dimension(m)
    if m > 8:
        raise CapacityError(f"dot_matrix is a small-m helper (m <= 8), got m={m}")
    digits = digits_table(m)
    out = digits.T @ digits  # int8: at most m*4 = 32
    out %= 3
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Scalar index arithmetic (cold paths: witnesses)
# ---------------------------------------------------------------------------


def neg_index(m: int, i: int) -> int:
    return sub_index(m, 0, i)


def sub_index(m: int, i: int, j: int) -> int:
    # digit k of i - j is (i // 3^k - j // 3^k) mod 3
    return int(sum((i // pow3(k) - j // pow3(k)) % 3 * pow3(k) for k in range(m)))


def count_vectors_of_weight(m: int, i: int) -> int:
    """Number of vectors of Hamming weight i in F_3^m: 2^i * C(m, i)."""
    if not 0 <= i <= m:
        return 0
    return 2**i * comb(m, i)
