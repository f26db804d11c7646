"""Character-sum (Walsh) transforms of maps F_3^m -> F_3, exactly, in Z[zeta_3].

The transform of F at shift w is F_hat(w) = sum_x zeta^(F(x) - w.x), an
element a + b*zeta of the ring Z[zeta_3] (zeta^2 = -1 - zeta).  The pair
(a, b) is equivalent to the exact point counts

    N_lambda(w) = #{x in F_3^m : F(x) - w.x = lambda},

via a = N0 - N2, b = N1 - N2 and N0 + N1 + N2 = 3^m.  Downstream code
consumes the counts N1, N2 (complete weight enumerators; N0 follows from
them) and the doubled real part 2*Re(F_hat(w)) = 2a - b = 2*3^m - 3*(N1 + N2)
(weights and minimality tests); doubling removes the half introduced by
Re(zeta) = -1/2, so every comparison against 3^m becomes an exact integer
comparison against 2*3^m.  A ``CountSpectrum`` stores N1, N2 and the
doubled real part as int32 arrays; N0, a and b are derived on demand.

Two independent implementations are provided:

* ``naive_count_spectrum``: direct evaluation of the defining counts per
  shift (the oracle; m <= 8).
* ``fast_count_spectrum``: radix-3 decimation butterfly over Z[zeta_3],
  O(m * 3^m) ring operations, integer-only.  The (a, b) pair is one
  (2, 3^m) array.  Read transposed, the table puts its low ceil(m/2)
  digits on top, so their stages walk long contiguous runs in int16; one
  transposing copy into int32 restores the index order for the stages on
  the high digits.  Every stage writes into the other of two ping-pong
  buffers.

The test suite requires the two to agree bit-exactly.
"""

from __future__ import annotations

import numpy as np

from . import gf3
from .errors import CapacityError, ConsistencyError


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
    def zeros(cls, m: int) -> "TernaryFunction":
        return cls(m, np.zeros(gf3.pow3(m), dtype=np.int8))

    @classmethod
    def linear(cls, m: int, w_index: int) -> "TernaryFunction":
        """F(x) = w . x for the vector w with the given index."""
        if not 0 <= w_index < gf3.pow3(m):
            raise ValueError(f"functional index {w_index} out of range for m={m}")
        digits = gf3.digits_table(m)
        return cls(m, digits[:, w_index] @ digits % 3)

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

    def __hash__(self):
        return hash((self.m, self.table.tobytes()))


def combine(u: int, r: int, f: TernaryFunction, g: TernaryFunction) -> TernaryFunction:
    """The pointwise combination (u*f + r*g) mod 3."""
    if f.m != g.m:
        raise ValueError(f"dimension mismatch: {f.m} vs {g.m}")
    s = u % 3 * f.table + r % 3 * g.table  # int8: at most 2*2 + 2*2
    return TernaryFunction(f.m, s - 3 * (s // 3))  # s % 3 by floor division, numpy's faster loop


# ---------------------------------------------------------------------------
# Count spectra
# ---------------------------------------------------------------------------


# |a|, |b| <= 3^m, so 3^m - a - b and 3*(N1 + N2) are at most 3^(m+1) in
# absolute value: count recovery stays in int32 for m <= 18.
assert 3 ** (gf3.MAX_M + 1) < 2**31, "int32 count recovery overflows at MAX_M"


class CountSpectrum:
    """Exact per-shift value counts N1, N2 of F(x) - w.x over F_3^m.

    N1, N2 and the doubled real part are read-only int32 arrays (every
    count is at most 3^m, and |2*Re| <= 2*3^m).  N0 = 3^m - N1 - N2 is
    derived, like the ring coordinates a and b; these come back as int64,
    so callers may square them.
    """

    __slots__ = ("m", "n1", "n2", "rd")

    def __init__(self, m: int, n1, n2):
        total = gf3.pow3(m)
        n1 = np.asarray(n1, dtype=np.int32)
        n2 = np.asarray(n2, dtype=np.int32)
        if not (n1.shape == n2.shape == (total,)):
            raise ValueError("count arrays must each have 3^m entries")
        rd = n1 + n2
        if n1.min() < 0 or n2.min() < 0 or rd.max() > total:
            raise ConsistencyError("count out of range: N1 or N2 negative, or N1 + N2 > 3^m")
        rd *= -3  # 2*Re(F_hat(w)) = 2*3^m - 3*(N1 + N2), in place
        rd += 2 * total
        for arr in (n1, n2, rd):
            arr.setflags(write=False)
        self.m = m
        self.n1, self.n2 = n1, n2
        self.rd = rd  # doubled real part 2*Re(F_hat(w)) per shift

    @property
    def n0(self) -> np.ndarray:
        """N0 = 3^m - N1 - N2 per shift."""
        return gf3.pow3(self.m) - self.n1.astype(np.int64) - self.n2

    @property
    def a(self) -> np.ndarray:
        """Z[zeta] coordinate a = N0 - N2 per shift."""
        return self.n0 - self.n2

    @property
    def b(self) -> np.ndarray:
        """Z[zeta] coordinate b = N1 - N2 per shift."""
        return self.n1.astype(np.int64) - self.n2

    @classmethod
    def from_transform_pair(cls, m: int, a: np.ndarray, b: np.ndarray) -> "CountSpectrum":
        """Recover counts from ring coordinates in int32; non-divisibility is a bug."""
        t = np.subtract(gf3.pow3(m), a, dtype=np.int32)
        t -= b
        n2 = t // 3
        if (3 * n2 != t).any():
            raise ConsistencyError("3^m - a - b not divisible by 3: transform produced an invalid pair")
        return cls(m, np.add(b, n2, out=t), n2)  # N1 = b + N2 takes t's buffer


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

# After k stages every entry is a sum of 3^k units zeta^j, so |a|, |b| <= 3^k.
# Inside stage k + 1 the largest intermediate is d_a - d_b (d = x2 - x1), at
# most 4*3^k.  The first ceil(m/2) stages (k <= ceil(m/2) - 1) run in int16:
# 4*3^7 = 8748 < 2^15 for m <= 16.  All m stages fit int32: 4*3^(m-1) < 2^31
# for m <= 19.
assert 4 * 3 ** ((gf3.MAX_M + 1) // 2 - 1) < 2**15, "int16 butterfly half overflows at MAX_M"
assert 4 * 3 ** (gf3.MAX_M - 1) < 2**31, "int32 butterfly overflows at MAX_M"


def _stages(src: np.ndarray, dst: np.ndarray, d: np.ndarray, positions) -> np.ndarray:
    """Radix-3 stages on the (a, b) rows of ``src``, one per digit position p.

    Along digit p, with x_j the entry whose digit is j, a stage writes the
    length-3 transform y_k = x_0 + zeta^(-k) x_1 + zeta^(-2k) x_2 as
    d = x2 - x1, zd = zeta*d = (-d_b, d_a - d_b), y0 = x0 + x1 + x2,
    y1 = x0 - x1 + zd and y2 = x0 - x2 - zd.  Stages alternate between
    ``src`` and ``dst`` ((2, 3^m), one dtype); ``d`` holds 2*3^(m-1)
    entries.  Returns the buffer holding the result.
    """
    for p in positions:
        x = src.reshape(2, -1, 3, 3**p)
        y = dst.reshape(2, -1, 3, 3**p)
        x0, x1, x2 = x[:, :, 0], x[:, :, 1], x[:, :, 2]
        y0, y1, y2 = y[:, :, 0], y[:, :, 1], y[:, :, 2]
        dd = d.reshape(2, -1, 3**p)
        np.subtract(x2, x1, out=dd)
        np.subtract(dd[0], dd[1], out=dd[0])
        np.negative(dd[1], out=dd[1])
        zd = dd[::-1]  # (-d_b, d_a - d_b)
        np.add(x0, x1, out=y0)
        np.add(y0, x2, out=y0)
        np.subtract(x0, x1, out=y1)
        np.add(y1, zd, out=y1)
        np.subtract(x0, x2, out=y2)
        np.subtract(y2, zd, out=y2)
        src, dst = dst, src
    return src


def fast_count_spectrum(F: TernaryFunction) -> CountSpectrum:
    """Radix-3 decimation butterfly over Z[zeta_3]; O(m * 3^m) ring ops.

    The table index lo + 3^L*hi splits into its low L = ceil(m/2) and high
    H = m - L digits.  The int8 table is copied transposed, (3^H, 3^L) ->
    (3^L, 3^H), so the low digits sit at positions H..m-1 and every stage
    on them walks contiguous runs of at least 3^H entries; those L stages
    run in int16 (bounds above).  One transposing copy into int32 restores
    the index order, and the last H stages run on positions L..m-1, with
    runs of at least 3^L.  Two (2, 3^m) int32 buffers serve both halves:
    the int16 stages use their leading halves.
    """
    m = F.m
    n, L = gf3.pow3(m), (m + 1) // 2
    lo, hi = gf3.pow3(L), gf3.pow3(m - L)
    bufs = [np.empty((2, n), np.int32) for _ in range(2)]
    d = np.empty(2 * n // 3, np.int32)
    half = [buf.reshape(-1).view(np.int16)[: 2 * n].reshape(2, n) for buf in bufs]
    v = np.ascontiguousarray(F.table.reshape(hi, lo).T).reshape(-1)
    # zeta^v = (a, b) = (1, 0), (0, 1), (-1, -1): a = 1 - v and b = v - 3*(v >> 1)
    np.subtract(1, v, out=half[0][0])
    np.multiply(v >> 1, -3, out=half[0][1])
    half[0][1] += v
    x16 = _stages(half[0], half[1], d.view(np.int16)[: d.size], range(m - L, m))
    i = 0 if x16 is half[1] else 1  # the int32 buffer that does not hold x16
    np.copyto(bufs[i].reshape(2, hi, lo), x16.reshape(2, lo, hi).transpose(0, 2, 1))
    x = _stages(bufs[i], bufs[1 - i], d, range(L, m))
    return CountSpectrum.from_transform_pair(m, x[0], x[1])


def naive_count_spectrum(F: TernaryFunction) -> CountSpectrum:
    """Direct per-shift counting of F(x) - w.x values.  The small-m oracle."""
    m = F.m
    if m > 8:
        raise CapacityError(f"naive transform is the small-m oracle (m <= 8), got m={m}")
    dots = gf3.dot_matrix(m)  # dots[w, x] = w.x mod 3
    vals = (F.table[None, :].astype(np.int16) - dots) % 3
    return CountSpectrum(m, np.count_nonzero(vals == 1, axis=1), np.count_nonzero(vals == 2, axis=1))


def transform(F: TernaryFunction, method: str = "fast") -> CountSpectrum:
    if method == "fast":
        return fast_count_spectrum(F)
    if method == "naive":
        return naive_count_spectrum(F)
    raise ValueError(f"unknown transform method {method!r}")


def parseval_sum(spectrum: CountSpectrum) -> int:
    """sum_w |F_hat(w)|^2; equals 3^(2m) for every function."""
    a = spectrum.a
    b = spectrum.b
    return int((a * a - a * b + b * b).sum())


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
