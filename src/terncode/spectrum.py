"""Character-sum (Walsh) transforms of maps F_3^m -> F_3, exactly, as value counts.

The transform of F at shift w is F_hat(w) = sum_x zeta^(F(x) - w.x), with
zeta a primitive cube root of unity.  It is determined by the exact point
counts

    N_lambda(w) = #{x in F_3^m : F(x) - w.x = lambda},   N0 + N1 + N2 = 3^m.

Downstream code consumes the counts N1, N2 (complete weight enumerators;
N0 follows from them) and the doubled real part 2*Re(F_hat(w)) =
2*3^m - 3*(N1 + N2) (weights and minimality tests); doubling removes the
half introduced by Re(zeta) = -1/2, so every comparison against 3^m becomes
an exact integer comparison against 2*3^m.  A ``CountSpectrum`` stores two
int32 arrays, N1 and the doubled real part; N2 and N0 are derived on
demand.

``count_spectra`` takes one of two paths per call.  When every member is
constant on the Hamming-weight classes (F(x) = F_j for wt(x) = j, as for
the paper's shell pairs), the counts are constant on the weight classes of
the shift too: N_lambda(i) = sum_j D_m[i, j, (F_j - lambda) mod 3], where
D_m[i, j, c] counts the x of weight j with w.x = c for a w of weight i (a
Krawtchouk-type table of (m+1)^2 * 3 exact int64 entries, built once per
m).  The checks run on the m + 1 class values, and a digit recursion fills
the dense rows: O(3^m) copies, no thread and no workspace.  Any other call
runs a radix-3 decimation butterfly on the counts themselves, O(m * 3^m)
additions, integer-only, for several functions at once
(``fast_count_spectrum`` is the one-function form of ``count_spectra``).
Each entry holds (N1, N2) of the points gathered so far.  Stage s runs in
the narrowest unsigned dtype that holds 3^s, from uint8 up; up to 2^17
entries, the members of a call share each stage.  Read transposed, the
table puts its low ceil(m/2) digits on top, so their stages walk long
contiguous runs; one transposing copy restores the index order for the
stages on the high digits.  The last stage writes the int32 counts, and
the doubled real part is then written over the N2 row.  A call with more
members than one butterfly holds (m >= 10 for the four family members)
runs its butterflies on min(2, usable CPUs, butterflies) threads, each
with its own workspace.  The test suite checks both paths bit-exactly
against direct per-shift counting and against each other.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache

import numpy as np

from . import gf3
from .errors import ConsistencyError


# ---------------------------------------------------------------------------
# Dense function tables
# ---------------------------------------------------------------------------


class TernaryFunction:
    """A total map F_3^m -> F_3 stored as a dense table of 3^m trits.

    Entry ``table[idx]`` is the value at the vector with base-3 index
    ``idx`` (the global enumeration order fixed in :mod:`terncode.gf3`).
    """

    __slots__ = ("m", "table")

    def __init__(self, m: int, table):
        gf3.check_dimension(m)
        given = np.asarray(table)
        if given.dtype.kind not in "biu":
            raise ValueError("table entries must be integers")
        if given.shape != (gf3.pow3(m),):
            raise ValueError(f"table must have exactly 3^{m} = {gf3.pow3(m)} entries, got shape {given.shape}")
        arr = given.astype(np.int8)  # a copy, even of an int8 table
        # checked in the given dtype, where the cast would wrap 257 to 1, but a
        # one-byte table after the cast, which maps 128-255 below 0
        checked = arr if given.itemsize == 1 else given
        if checked.min() < 0 or checked.max() > 2:
            raise ValueError("table entries must lie in {0, 1, 2}")
        arr.setflags(write=False)
        self.m = m
        self.table = arr

    # -- constructors --------------------------------------------------

    @classmethod
    def random(cls, m: int, rng: np.random.Generator, zero_at_origin: bool = True) -> "TernaryFunction":
        table = rng.integers(0, 3, size=gf3.pow3(m), dtype=np.int8)
        if zero_at_origin:
            table[0] = 0
        return cls(m, table)

    # -- text serialization (first line "m=<int>", second line 3^m digits)

    @classmethod
    def from_text(cls, text: str) -> "TernaryFunction":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) != 2 or not lines[0].startswith("m="):
            raise ValueError("function table must be two lines: 'm=<int>' then 3^m digits")
        m = int(lines[0][2:])
        gf3.check_dimension(m)
        if len(lines[1]) != gf3.pow3(m):
            raise ValueError(f"expected {gf3.pow3(m)} digits on line 2, got {len(lines[1])}")
        # one byte per character (non-ASCII becomes "?"); bytes below "0" wrap past 2
        digits = np.frombuffer(lines[1].encode("ascii", "replace"), dtype=np.uint8) - ord("0")
        if digits.max() > 2:
            raise ValueError("digits must be drawn from {0,1,2}")
        return cls(m, digits)

    def to_text(self) -> str:
        return f"m={self.m}\n" + (self.table + ord("0")).astype(np.uint8).tobytes().decode() + "\n"

    # -- pointwise algebra ----------------------------------------------

    def value(self, idx: int) -> int:
        return int(self.table[idx])

    def is_zero(self) -> bool:
        return not self.table.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryFunction)
            and self.m == other.m
            and bool(np.array_equal(self.table, other.table))
        )


def combine(u: int, r: int, f: TernaryFunction, g: TernaryFunction) -> TernaryFunction:
    """The pointwise combination (u*f + r*g) mod 3."""
    if f.m != g.m:
        raise ValueError(f"dimension mismatch: {f.m} vs {g.m}")
    s = u % 3 * f.table + r % 3 * g.table  # int8: at most 2*2 + 2*2
    return TernaryFunction(f.m, s - 3 * (s // 3))  # s % 3 by floor division, numpy's faster loop


# ---------------------------------------------------------------------------
# Count spectra
# ---------------------------------------------------------------------------


# N1 + N2 <= 3^m, so |2*Re| <= 3*(N1 + N2) + 2*3^m stays below 2^31 for
# m <= 18: the doubled real part is computed in int32.
assert 3 ** (gf3.MAX_M + 1) < 2**31, "int32 doubled real part overflows at MAX_M"


class CountSpectrum:
    """Exact per-shift value counts N1, N2 of F(x) - w.x over F_3^m.

    Two read-only int32 arrays are kept: N1 and the doubled real part rd
    (every count is at most 3^m, and |rd| <= 2*3^m).  N2 = (2*3^m - rd)/3 -
    N1 is derived as a fresh read-only int32 array on each read, and N0 =
    3^m - N1 - N2 as int64, so callers may square it.
    """

    __slots__ = ("m", "n1", "rd")

    def __init__(self, m: int, n1, n2):
        n1, n2 = np.asarray(n1), np.asarray(n2)
        if n1.dtype.kind not in "iu" or n2.dtype.kind not in "iu":
            raise ValueError("counts must be integer arrays")
        if not (n1.shape == n2.shape == (gf3.pow3(m),)):
            raise ValueError("count arrays must each have 3^m entries")
        # checked in the given dtype: the int32 cast would wrap a count past
        # 2^31; n2 is copied, since rd is written over it
        _check_bounds(gf3.pow3(m), n1, n2)
        self._keep(m, n1.astype(np.int32, copy=False), n2.astype(np.int32))

    @classmethod
    def _over_n2(cls, m: int, n1: np.ndarray, n2: np.ndarray) -> "CountSpectrum":
        """The spectrum of the int32 rows (N1, N2), writing rd over ``n2``."""
        _check_bounds(gf3.pow3(m), n1, n2)
        sp = cls.__new__(cls)
        sp._keep(m, n1, n2)
        return sp

    @classmethod
    def _checked(cls, m: int, n1: np.ndarray, rd: np.ndarray) -> "CountSpectrum":
        """The spectrum of the int32 rows (N1, rd), whose counts were checked by class."""
        sp = cls.__new__(cls)
        sp._set(m, n1, rd)
        return sp

    def _keep(self, m: int, n1: np.ndarray, rd: np.ndarray) -> None:
        """Keep N1 and rd, computed in place over the range-checked int32 row N2."""
        total = gf3.pow3(m)
        rd += n1  # N1 + N2; each count at most 3^m, so the int32 sum cannot wrap
        if rd.max() > total:
            raise ConsistencyError("count out of range: N1 + N2 > 3^m")
        rd *= -3  # 2*Re(F_hat(w)) = 2*3^m - 3*(N1 + N2)
        rd += 2 * total
        self._set(m, n1, rd)

    def _set(self, m: int, n1: np.ndarray, rd: np.ndarray) -> None:
        n1.setflags(write=False)
        rd.setflags(write=False)
        self.m = m
        self.n1 = n1
        self.rd = rd  # doubled real part 2*Re(F_hat(w)) per shift

    @property
    def n2(self) -> np.ndarray:
        """N2 = (2*3^m - rd)/3 - N1 per shift."""
        n2 = np.subtract(2 * gf3.pow3(self.m), self.rd)  # 3*(N1 + N2), int32
        n2 //= 3
        n2 -= self.n1
        n2.setflags(write=False)
        return n2

    @property
    def n0(self) -> np.ndarray:
        """N0 = 3^m - N1 - N2 = (3^m + rd)/3 per shift."""
        return (gf3.pow3(self.m) + self.rd.astype(np.int64)) // 3


def _check_bounds(total: int, n1: np.ndarray, n2: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless every count of N1 and N2 lies in [0, ``total``]."""
    if int(n1.min()) < 0 or int(n2.min()) < 0:
        raise ConsistencyError("count out of range: N1 or N2 negative")
    if int(n1.max()) > total or int(n2.max()) > total:
        raise ConsistencyError("count out of range: N1 or N2 > 3^m")


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

# After s stages an entry counts the values of F(x) - w.x over 3^s points x,
# so every count and every intermediate of stage s lies in [0, 3^s].  Stage s
# writes the narrowest unsigned dtype that holds 3^s (uint8 for s <= 5,
# uint16 for s <= 10, uint32 beyond) from the dtype of stage s - 1; the last
# stage writes uint32 into the int32 output, exact while 3^m < 2^31.
_DTYPES = (np.uint8, np.uint16, np.uint32)
assert 3**gf3.MAX_M < 2**31, "int32 counts overflow at MAX_M"

# Entries (members times 3^m) per butterfly: all four family members share
# each stage's calls up to m = 9, and go one at a time from m = 11.
_BATCH_ENTRIES = 2**17


def _plan(m: int) -> list[tuple]:
    """The butterfly's steps (p, dtype), each writing ``dtype`` into the other buffer.

    A step is the stage along digit position p, or for p = None the copy
    that restores the index order.  The low L = ceil(m/2) digits come first,
    in the transposed layout, where they sit at positions m - L .. m - 1; the
    high digits follow at positions L .. m - 1.
    """
    L = (m + 1) // 2
    steps = [
        (s - 1 + m - L if s <= L else s - 1, next(t for t in _DTYPES if 3**s <= np.iinfo(t).max))
        for s in range(1, m + 1)
    ]
    steps[-1] = (steps[-1][0], np.uint32)
    if m > L:
        steps.insert(L, (None, steps[L - 1][1]))
    return steps


def _stage(x: np.ndarray, y: np.ndarray, p: int, total: int) -> None:
    """One radix-3 stage along digit position p, from counts ``x`` into ``y``.

    ``x`` and ``y`` are (B, 2, 3^m) unsigned arrays holding (N1, N2) per
    member and entry; ``y`` may be the wider.  Every entry of ``x`` counts
    ``total`` points, so its N0 is z = ``total`` - N1 - N2.  With x_j the
    entry whose digit p is j, the entry y_k whose shift digit is k has
    y_k[lambda] = sum_j x_j[lambda + k*j]:

        y0 = x0 + x1 + x2
        y1 = (x0.N1 + x1.N2 + z2, x0.N2 + z1 + x2.N1)
        y2 = (x0.N1 + z1 + x2.N2, x0.N2 + x1.N1 + z2)

    (z2, z1) go first into the N1 rows of (y1, y2), which then gather their
    other terms.  Each call covers both shift digits 1 and 2 of one row.
    """
    x = x.reshape(x.shape[0], 2, -1, 3, 3**p)
    y = y.reshape(x.shape)
    n1, n2 = y[:, 0, :, 1:], y[:, 1, :, 1:]  # rows N1 and N2 of (y1, y2)
    np.subtract(x.dtype.type(total), x[:, 0, :, :0:-1], out=n1, dtype=y.dtype)
    np.subtract(n1, x[:, 1, :, :0:-1], out=n1)  # (z2, z1)
    np.add(x[:, 1, :, :1], x[:, 0, :, :0:-1], out=n2, dtype=y.dtype)  # x0.N2 + (x2.N1, x1.N1)
    np.add(n2, n1[:, :, ::-1], out=n2)  # + (z1, z2)
    np.add(n1, x[:, 0, :, :1], out=n1)  # (z2, z1) + x0.N1
    np.add(n1, x[:, 1, :, 1:], out=n1)  # + (x1.N2, x2.N2)
    np.add(x[:, :, :, 0], x[:, :, :, 1], out=y[:, :, :, 0], dtype=y.dtype)
    np.add(y[:, :, :, 0], x[:, :, :, 2], out=y[:, :, :, 0])


def _leading(buf: np.ndarray, dtype, shape: tuple) -> np.ndarray:
    """The leading bytes of the contiguous ``buf`` as a ``dtype`` array of ``shape``."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return buf.reshape(-1).view(np.uint8)[:size].view(dtype).reshape(shape)


def _thread_count(batches: int) -> int:
    """Threads for ``batches`` butterflies: min(2, usable CPUs, batches)."""
    if batches < 2:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(2, cpus, batches)


def count_spectra(members) -> list[CountSpectrum]:
    """Count spectra of functions on one F_3^m, as dense read-only int32 rows.

    When every member is constant on the Hamming-weight classes, so is its
    spectrum, and the counts come from the m + 1 class values (see
    ``_class_spectra``).  Otherwise all members run the count butterfly of
    ``_butterfly_spectra``.  The choice is made per call, for all members
    or none, and a table off the weight classes is turned away by a short
    prefix compare; the spectra are the same bit for bit either way.

    A count that breaks sum_w N_lambda(w) = 3^(m-1)*(3^m - 1) +
    3^m*[F(0) = lambda] (lambda = 1, 2), or leaves [0, 3^m], raises
    ``ConsistencyError``.
    """
    members = list(members)
    m = members[0].m
    if any(F.m != m for F in members):
        raise ValueError("count_spectra needs functions of one dimension")
    values = _class_values(members)
    if values is not None:
        return _class_spectra(m, values)
    return _butterfly_spectra(members)


def _butterfly_spectra(members: list) -> list[CountSpectrum]:
    """Count spectra of functions on one F_3^m by a count-domain butterfly.

    Each butterfly entry holds the counts (N1, N2) of F(x) - w.x over the
    points x it has gathered: one point per entry before the first stage,
    all 3^m after the last (see ``_stage``), so no ring arithmetic and no
    recovery pass.  Members share one stacked butterfly up to
    ``_BATCH_ENTRIES`` entries.  The table index lo + 3^L*hi splits into
    its low L = ceil(m/2) and high m - L digits.  The point counts are laid
    out transposed, so the stages on the low digits walk contiguous runs of
    at least 3^(m-L) entries; one transposing copy restores the index order
    for the high digits (see ``_plan``).  The steps alternate between a
    workspace and the batch's fresh int32 output, so the last stage lands
    in the output, which only the spectra keep.

    Two or more batches run on ``_thread_count`` threads, the caller and at
    most one helper, each with its own workspace and taking every other
    batch.  The spectra come back in member order, and the first failing
    member's exception is raised in the caller after the helper has ended.

    The sum rule of ``count_spectra`` is checked mod 2^32, one uint32
    reduction per row; a single count off by less than 2^32 still breaks
    it.
    """
    m = members[0].m
    n = gf3.pow3(m)
    steps = _plan(m)
    per = max(1, min(4, _BATCH_ENTRIES // n))
    wide = max((np.dtype(dtype).itemsize for _, dtype in steps[:-1]), default=1)
    batches = [members[start : start + per] for start in range(0, len(members), per)]
    threads = _thread_count(len(batches))
    # every large array is allocated by the caller: blocks a helper thread
    # allocates stay in its own malloc arena, and repeated calls then raise
    # the peak RSS
    works = [np.empty(per * 2 * n * wide, np.uint8) for _ in range(threads)]
    outs = [np.empty((len(batch), 2, n), np.int32) for batch in batches]
    if threads == 1:
        return [sp for batch, out in zip(batches, outs) for sp in _butterfly(batch, out, works[0], steps)]
    results: list = [None] * len(batches)
    errors: list = [None] * len(batches)

    def run(k: int) -> None:
        for i in range(k, len(batches), threads):
            try:
                results[i] = _butterfly(batches[i], outs[i], works[k], steps)
            except Exception as exc:
                errors[i] = exc
                return

    helper = threading.Thread(target=run, args=(1,))
    helper.start()
    try:
        run(0)
    finally:
        helper.join()
    # each thread stops at its first failure, so the first error in batch
    # order is the one a sequential run would raise
    for exc in errors:
        if exc is not None:
            raise exc
    return [sp for batch in results for sp in batch]


def _butterfly(batch: list, out: np.ndarray, work: np.ndarray, steps: list[tuple]) -> list[CountSpectrum]:
    """The spectra of one batch, by the butterfly from ``work`` into ``out`` (see ``count_spectra``)."""
    m = batch[0].m
    n, L = gf3.pow3(m), (m + 1) // 2
    lo, hi = gf3.pow3(L), gf3.pow3(m - L)
    shape = out.shape
    bufs = (work, out) if len(steps) % 2 else (out, work)
    x = _leading(bufs[0], np.uint8, shape)
    tables = np.stack([F.table for F in batch]).reshape(len(batch), hi, lo)
    tables = np.ascontiguousarray(tables.transpose(0, 2, 1))  # faster than two strided reads
    for row, value in enumerate((1, 2)):
        np.equal(tables, value, out=x[:, row].reshape(tables.shape).view(np.bool_))
    total = 1
    for i, (p, dtype) in enumerate(steps, 1):
        y = _leading(bufs[i % 2], dtype, shape)
        if p is None:
            np.copyto(y.reshape(-1, hi, lo), x.reshape(-1, lo, hi).transpose(0, 2, 1))
        else:
            _stage(x, y, p, total)
            total *= 3
        x = y
    spectra = []
    for F, counts, sums in zip(batch, out, x.sum(axis=2, dtype=np.uint32).tolist()):
        if sums != [rule % 2**32 for rule in _sum_rule(m, int(F.table[0]))]:
            raise ConsistencyError(_SUM_RULE_BROKEN)
        spectra.append(CountSpectrum._over_n2(m, counts[0], counts[1]))
    return spectra


def _sum_rule(m: int, f0: int) -> list[int]:
    """sum_w N_lambda(w) for lambda = 1, 2, of a function with F(0) = ``f0``."""
    n = gf3.pow3(m)
    return [3 ** (m - 1) * (n - 1) + n * (f0 == value) for value in (1, 2)]


_SUM_RULE_BROKEN = "count spectrum breaks sum_w N_lambda(w) = 3^(m-1)*(3^m - 1) + 3^m*[F(0) = lambda]"


# ---------------------------------------------------------------------------
# Weight-symmetric transforms
# ---------------------------------------------------------------------------

# A table is first compared with its class values on the 3^4 indices below
# 3^4, which turns away a table off the weight classes in a few us.
_PREFIX_DIGITS = 4


@lru_cache(maxsize=None)
def _class_representatives(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The index (3^j - 1)/2 of each weight class j, whose j low digits are 1,
    and that of the class of each index below 3^min(m, ``_PREFIX_DIGITS``)."""
    reps = (3 ** np.arange(m + 1) - 1) // 2
    prefix = reps[gf3.weights_table(min(m, _PREFIX_DIGITS))]
    reps.setflags(write=False)
    prefix.setflags(write=False)
    return reps, prefix


def _class_values(members: list) -> np.ndarray | None:
    """The (members, m + 1) int8 class values F_j of members that are all
    constant on the weight classes, or None.

    A member is compared with its value at the class representative of each
    index, first on a short prefix, then in full against the table that
    ``_fill_by_class`` builds from the class values.
    """
    m = members[0].m
    reps, prefix = _class_representatives(m)
    for F in members:
        if (F.table[: prefix.size] != F.table[prefix]).any():
            return None
    values = np.stack([F.table[reps] for F in members])
    tables = _fill_by_class(np.empty((len(members), gf3.pow3(m)), np.int8), values)
    if all(np.array_equal(F.table, table) for F, table in zip(members, tables)):
        return values
    return None


def _fill_by_class(out: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Write values[..., wt(x)] at every index x of the last axis of ``out``; return ``out``.

    A digit recursion in the manner of ``gf3._stack_digits``, with no gather
    through a weights table.  Let A_k(h) be the 3^k entries values[..., h +
    wt(y)], y < 3^k.  It is kept in the block of 3^k entries whose m - k
    high digits are h ones above zeros, block s = (3^(m-k) - 3^(m-k-h))/2.
    That block begins the block s/3 of 3^(k+1) entries, which must hold
    A_(k+1)(h) = (A_k(h), A_k(h+1), A_k(h+1)): so each step copies A_k(h+1)
    into blocks s + 1 and s + 2.  No copy writes a block still to be read,
    and when h + 1 = m - k block s + 1 already holds A_k(h+1).

    Over several rows, the source and destination views of a copy span
    overlapping address ranges, and numpy then copies the source into a
    temporary first.  So blocks of ``_ROW_COPY_MIN`` entries or more are
    copied one row at a time.
    """
    m = values.shape[-1] - 1
    n = gf3.pow3(m)
    rows = out.reshape(-1, n)
    for h in range(m + 1):
        out[..., (n - gf3.pow3(m - h)) // 2] = values[..., h]
    for k in range(m):
        size, high = gf3.pow3(k), gf3.pow3(m - k)
        parts = (rows,) if size < _ROW_COPY_MIN else rows[:, None]
        for h in range(m - k):
            src = (high - high // 3 ** (h + 1)) // 2 * size
            dst = ((high - high // 3**h) // 2 + 1) * size
            lo = dst + size * (dst == src)
            for part in parts:
                dest = part[:, lo : dst + 2 * size]
                np.copyto(dest.reshape(len(part), -1, size), part[:, None, src : src + size])
    return out


# Blocks this long are copied one row at a time.  A shorter block is copied
# over all rows at once, through a temporary of at most 8 rows * 3^8 int32
# (210 kB) for the four members' N1 and rd; that took less time at m = 8-12
# than a call per row from 3^4 or 3^6 on, or none from 3^20.
_ROW_COPY_MIN = 3**8


@lru_cache(maxsize=None)
def _dot_counts(m: int) -> np.ndarray:
    """D[i, j, c] = #{x : wt(x) = j, w.x = c} for any w of weight i; int64, shape (m+1, m+1, 3).

    Of the j nonzero digits of x, t meet the support of w and j - t miss it:
    C(i, t)*C(m - i, j - t)*2^(j - t) ways.  The t products w_k*x_k run
    over {1, 2}^t, and A(t, c) = (2^t + (-1)^t*(2 if c = 0 else -1))/3 of
    those sum to c.  Every term is a count of points, at most 3^m.
    """
    r = np.arange(m + 1)
    binom = np.zeros((m + 1, m + 1), np.int64)  # C(a, b), 0 for b > a
    binom[:, 0] = 1
    for a in range(1, m + 1):
        binom[a, 1:] = binom[a - 1, 1:] + binom[a - 1, :-1]
    pow2 = 2**r
    a_tc = (pow2[:, None] + (-1) ** r[:, None] * np.array([2, -1, -1])) // 3
    off = np.clip(r[None, :] - r[:, None], 0, None)  # [t, j] = j - t, or 0 below j = t
    outside = binom[(m - r)[:, None, None], off] * pow2[off] * (r[None, :] >= r[:, None])  # [i, t, j]
    table = np.einsum("itj,tc->ijc", binom[:, :, None] * outside, a_tc)
    table.setflags(write=False)
    return table


def _class_counts(values: np.ndarray) -> np.ndarray:
    """(members, 2, m + 1) int64 counts N_lambda(i), lambda = 1, 2, per weight class i of the shift.

    N_lambda(i) = sum_j D[i, j, (F_j - lambda) mod 3] with D = ``_dot_counts``.
    """
    m = values.shape[-1] - 1
    lam = np.array([1, 2])[:, None]
    counts = _dot_counts(m)[:, np.arange(m + 1), (values[:, None, :] - lam) % 3]  # [i, member, lambda, j]
    return counts.sum(axis=-1).transpose(1, 2, 0)


def _class_spectra(m: int, values: np.ndarray) -> list[CountSpectrum]:
    """The spectra of members constant on the weight classes, from their class values.

    The spectrum is constant on the classes of the shift w, so N1 and N2
    are computed once per class (``_class_counts``).  The range checks and
    the sum rule run on these m + 1 values, each class weighted by its size
    2^i*C(m, i) in the sum; every class is nonempty, so that checks exactly
    what the dense checks would.  N1 and rd are then filled into the dense
    int32 rows by ``_fill_by_class``.  No thread and no workspace.
    """
    n = gf3.pow3(m)
    sizes = np.array([gf3.count_vectors_of_weight(m, i) for i in range(m + 1)], np.int64)
    rows = np.empty((len(values), 2, m + 1), np.int32)
    for (n1, n2), f0, row in zip(_class_counts(values), values[:, 0], rows):
        if [int(s) for s in (n1 @ sizes, n2 @ sizes)] != _sum_rule(m, int(f0)):
            raise ConsistencyError(_SUM_RULE_BROKEN)
        _check_bounds(n, n1, n2)
        if int((n1 + n2).max()) > n:
            raise ConsistencyError("count out of range: N1 + N2 > 3^m")
        row[0], row[1] = n1, 2 * n - 3 * (n1 + n2)
    out = _fill_by_class(np.empty((len(values), 2, n), np.int32), rows)
    return [CountSpectrum._checked(m, n1, rd) for n1, rd in out]


def fast_count_spectrum(F: TernaryFunction) -> CountSpectrum:
    """The count spectrum of one function: ``count_spectra([F])[0]``."""
    return count_spectra([F])[0]


def spectrum_by_weight_class(spectrum: CountSpectrum) -> list[dict]:
    """Doubled real parts grouped by the Hamming weight of the shift.

    Returns one record per weight class i: the class size and the sorted
    multiset of doubled real parts occurring on shifts of that weight.
    """
    weights = gf3.weights_table(spectrum.m)
    out = []
    for i in range(spectrum.m + 1):
        sel = spectrum.rd[weights == i]
        values, counts = np.unique(sel, return_counts=True)
        out.append(
            {
                "weight": i,
                "class_size": int(sel.size),
                "real_doubled": [[int(v), int(c)] for v, c in zip(values, counts)],
            }
        )
    return out
