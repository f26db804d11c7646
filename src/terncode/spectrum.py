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

``count_spectra`` computes the counts by a radix-3 decimation butterfly on
the counts themselves, O(m * 3^m) additions, integer-only, for several
functions at once (``fast_count_spectrum`` is its one-function form).  Each
entry holds (N1, N2) of the points gathered so far.  Stage s runs in the
narrowest unsigned dtype that holds 3^s, from uint8 up; up to 2^17
entries, the members of a call share each stage.  Read transposed, the
table puts its low ceil(m/2) digits on top, so their stages walk long
contiguous runs; one transposing copy restores the index order for the
stages on the high digits.  The last stage writes the int32 counts, and
the doubled real part is then written over the N2 row.  A call with more
members than one butterfly holds (m >= 10 for the four family members)
runs its butterflies on min(2, usable CPUs, butterflies) threads, each
with its own workspace.  The test suite checks it bit-exactly against
direct per-shift counting.
"""

from __future__ import annotations

import os
import threading

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
        arr = np.asarray(table, dtype=np.int8).copy()
        if arr.shape != (gf3.pow3(m),):
            raise ValueError(f"table must have exactly 3^{m} = {gf3.pow3(m)} entries, got shape {arr.shape}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) > 2:
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
        # n2 is copied, since rd is written over it
        self._keep(m, np.asarray(n1, dtype=np.int32), np.array(n2, dtype=np.int32))

    @classmethod
    def _over_n2(cls, m: int, n1: np.ndarray, n2: np.ndarray) -> "CountSpectrum":
        """The spectrum of the int32 rows (N1, N2), writing rd over ``n2``."""
        sp = cls.__new__(cls)
        sp._keep(m, n1, n2)
        return sp

    def _keep(self, m: int, n1: np.ndarray, rd: np.ndarray) -> None:
        total = gf3.pow3(m)
        if not (n1.shape == rd.shape == (total,)):
            raise ValueError("count arrays must each have 3^m entries")
        if n1.min() < 0 or rd.min() < 0:
            raise ConsistencyError("count out of range: N1 or N2 negative")
        # each count at most 3^m, so their int32 sum cannot wrap
        if n1.max() > total or rd.max() > total:
            raise ConsistencyError("count out of range: N1 or N2 > 3^m")
        rd += n1  # N1 + N2, in place over N2
        if rd.max() > total:
            raise ConsistencyError("count out of range: N1 + N2 > 3^m")
        rd *= -3  # 2*Re(F_hat(w)) = 2*3^m - 3*(N1 + N2)
        rd += 2 * total
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

    A count that breaks sum_w N_lambda(w) = 3^(m-1)*(3^m - 1) +
    3^m*[F(0) = lambda] (lambda = 1, 2) raises ``ConsistencyError``.  The
    sums are taken mod 2^32, one uint32 reduction per row; a single count
    off by less than 2^32 still breaks them.
    """
    members = list(members)
    m = members[0].m
    if any(F.m != m for F in members):
        raise ValueError("count_spectra needs functions of one dimension")
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
    base = 3 ** (m - 1) * (n - 1)
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
        if sums != [(base + n * (int(F.table[0]) == value)) % 2**32 for value in (1, 2)]:
            raise ConsistencyError(
                "count spectrum breaks sum_w N_lambda(w) = 3^(m-1)*(3^m - 1) + 3^m*[F(0) = lambda]"
            )
        spectra.append(CountSpectrum._over_n2(m, counts[0], counts[1]))
    return spectra


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
