"""Exact arithmetic and enumeration for vectors over GF(3).

A vector in F_3^m is identified with its base-3 index (little endian:
``index = sum(digits[i] * 3**i)``).  This fixes the global enumeration
order of F_3^m used by every other module: code coordinates run over the
nonzero indices 1 .. 3^m - 1 in ascending order.

Bulk work uses the cached dense lookup tables below (per-index digits,
Hamming weights, negation and pairwise add/sub permutations), all plain
numpy arrays; the scalar helpers ``neg_index`` and ``sub_index`` serve
witnesses.
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
# Cached per-dimension tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def digits_table(m: int) -> np.ndarray:
    """Shape (m, 3^m) int8; row i holds digit i of every index."""
    check_dimension(m)
    idx = np.arange(pow3(m), dtype=np.int64)
    table = np.empty((m, pow3(m)), dtype=np.int8)
    for i in range(m):
        table[i] = (idx // 3**i) % 3
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def weights_table(m: int) -> np.ndarray:
    """Shape (3^m,) int8; Hamming weight of every index."""
    w = (digits_table(m) != 0).sum(axis=0).astype(np.int8)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def neg_perm(m: int) -> np.ndarray:
    """Permutation p with p[i] = index of -v_i (digitwise 1 <-> 2 swap)."""
    digs = digits_table(m)
    out = np.zeros(pow3(m), dtype=np.int64)
    for i in range(m):
        out += (np.int64(3) - digs[i]) % 3 * 3**i
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _componentwise_index_table(d: int, subtract: bool) -> np.ndarray:
    """(3^d, 3^d) table of idx(a +/- b) for d-digit blocks; d=0 degenerates to [[0]]."""
    if d == 0:
        return np.zeros((1, 1), dtype=np.int64)
    digs = digits_table(d).astype(np.int64)
    out = np.zeros((pow3(d), pow3(d)), dtype=np.int64)
    for i in range(d):
        col = digs[i][:, None]
        row = digs[i][None, :]
        out += ((col - row) % 3 if subtract else (col + row) % 3) * 3**i
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _half_split(m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Split every index into (low L digits, high m-L digits) once per m."""
    low = (m + 1) // 2
    idx = np.arange(pow3(m), dtype=np.int64)
    lo = idx % pow3(low)
    hi = idx // pow3(low)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return low, lo, hi


def add_perm_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """idx(v_r + v_j) for each r in ``rows`` and every j; shape (len(rows), 3^m)."""
    low, lo, hi = _half_split(m)
    t_lo = _componentwise_index_table(low, subtract=False)
    t_hi = _componentwise_index_table(m - low, subtract=False)
    rows = np.asarray(rows, dtype=np.int64)
    return t_lo[lo[rows][:, None], lo[None, :]] + pow3(low) * t_hi[hi[rows][:, None], hi[None, :]]


def sub_perm_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """idx(v_r - v_j) for each r in ``rows`` and every j."""
    low, lo, hi = _half_split(m)
    t_lo = _componentwise_index_table(low, subtract=True)
    t_hi = _componentwise_index_table(m - low, subtract=True)
    rows = np.asarray(rows, dtype=np.int64)
    return t_lo[lo[rows][:, None], lo[None, :]] + pow3(low) * t_hi[hi[rows][:, None], hi[None, :]]


@lru_cache(maxsize=8)
def dot_matrix(m: int) -> np.ndarray:
    """(3^m, 3^m) int8 matrix of v_i . v_j mod 3.  Small-m oracle helper only."""
    check_dimension(m)
    if m > 8:
        raise CapacityError(f"dot_matrix is a small-m helper (m <= 8), got m={m}")
    digs = digits_table(m).astype(np.int16)
    out = np.zeros((pow3(m), pow3(m)), dtype=np.int16)
    for i in range(m):
        out += digs[i][:, None] * digs[i][None, :]
    out %= 3
    out = out.astype(np.int8)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Scalar index arithmetic (cold paths: witnesses)
# ---------------------------------------------------------------------------


def neg_index(m: int, i: int) -> int:
    return int(neg_perm(m)[i])


def sub_index(m: int, i: int, j: int) -> int:
    digs = digits_table(m)
    return int(sum(int((digs[k, i] - digs[k, j]) % 3) * 3**k for k in range(m)))


def count_vectors_of_weight(m: int, i: int) -> int:
    """Number of vectors of Hamming weight i in F_3^m: 2^i * C(m, i)."""
    if not 0 <= i <= m:
        return 0
    return 2**i * comb(m, i)
