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
doubled real part; N0, a and b are derived on demand.

Two independent implementations are provided:

* ``naive_count_spectrum``: direct evaluation of the defining counts per
  shift (the oracle; m <= 8).
* ``fast_count_spectrum``: radix-3 decimation butterfly over Z[zeta_3],
  O(m * 3^m) ring operations, integer-only.

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
        digs = gf3.digits_table(m)
        w_digits = [(w_index // 3**i) % 3 for i in range(m)]
        vals = np.zeros(gf3.pow3(m), dtype=np.int64)
        for i in range(m):
            if w_digits[i]:
                vals += int(w_digits[i]) * digs[i]
        return cls(m, vals % 3)

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
        if set(lines[1]) - set("012"):
            raise ValueError("digits must be drawn from {0,1,2}")
        return cls(m, np.frombuffer(lines[1].encode(), dtype=np.uint8) - ord("0"))

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
    return TernaryFunction(f.m, (u % 3 * f.table.astype(np.int16) + r % 3 * g.table) % 3)


# ---------------------------------------------------------------------------
# Count spectra
# ---------------------------------------------------------------------------


class CountSpectrum:
    """Exact per-shift value counts N1, N2 of F(x) - w.x over F_3^m.

    N0 = 3^m - N1 - N2 is derived, like the ring coordinates a and b.
    """

    __slots__ = ("m", "n1", "n2", "rd")

    def __init__(self, m: int, n1, n2):
        total = gf3.pow3(m)
        n1 = np.asarray(n1, dtype=np.int64)
        n2 = np.asarray(n2, dtype=np.int64)
        if not (n1.shape == n2.shape == (total,)):
            raise ValueError("count arrays must each have 3^m entries")
        n12 = n1 + n2
        if (n1 < 0).any() or (n2 < 0).any() or (n12 > total).any():
            raise ConsistencyError("count out of range: N1 or N2 negative, or N1 + N2 > 3^m")
        rd = 2 * total - 3 * n12
        for arr in (n1, n2, rd):
            arr.setflags(write=False)
        self.m = m
        self.n1, self.n2 = n1, n2
        self.rd = rd  # doubled real part 2*Re(F_hat(w)) per shift

    @property
    def n0(self) -> np.ndarray:
        """N0 = 3^m - N1 - N2 per shift."""
        return gf3.pow3(self.m) - self.n1 - self.n2

    @property
    def a(self) -> np.ndarray:
        """Z[zeta] coordinate a = N0 - N2 per shift."""
        return self.n0 - self.n2

    @property
    def b(self) -> np.ndarray:
        """Z[zeta] coordinate b = N1 - N2 per shift."""
        return self.n1 - self.n2

    @classmethod
    def from_transform_pair(cls, m: int, a: np.ndarray, b: np.ndarray) -> "CountSpectrum":
        """Recover counts from ring coordinates; non-divisibility is a bug."""
        n2, rem = np.divmod(gf3.pow3(m) - np.asarray(a, dtype=np.int64) - b, 3)
        if rem.any():
            raise ConsistencyError("3^m - a - b not divisible by 3: transform produced an invalid pair")
        return cls(m, b + n2, n2)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

# zeta^v as (a, b) pairs, indexed by the function value v
_ZETA_A = np.array([1, 0, -1], dtype=np.int32)
_ZETA_B = np.array([0, 1, -1], dtype=np.int32)

# After k butterfly axes every entry is a sum of 3^k units zeta^j, so
# |a|, |b| <= 3^k <= 3^m; inside axis k + 1 (k <= m - 1) the largest
# intermediate is a0 + (b1 - a1) - b2, at most 4*3^(m-1) < 2^31 for m <= 19.
assert 4 * 3 ** (gf3.MAX_M - 1) < 2**31, "int32 butterfly overflows at MAX_M"


def fast_count_spectrum(F: TernaryFunction) -> CountSpectrum:
    """Radix-3 decimation butterfly over Z[zeta_3]; O(m * 3^m) ring ops, int32."""
    m = F.m
    A = _ZETA_A[F.table]
    B = _ZETA_B[F.table]
    for ax in range(m):
        # middle index = digit ax of the shift (little-endian base-3 index)
        a = A.reshape(-1, 3, 3**ax)
        b = B.reshape(-1, 3, 3**ax)
        a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
        b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
        # length-3 sub-transform out[k] = y0 + zeta^(-k) y1 + zeta^(-2k) y2,
        # with zeta*(a,b) = (-b, a-b) and zeta^2*(a,b) = (b-a, -a)
        A, B = np.empty_like(a), np.empty_like(b)
        A[:, 0] = a0 + a1 + a2
        B[:, 0] = b0 + b1 + b2
        A[:, 1] = a0 + (b1 - a1) - b2
        B[:, 1] = b0 - a1 + (a2 - b2)
        A[:, 2] = a0 - b1 + (b2 - a2)
        B[:, 2] = b0 + (a1 - b1) - a2
    return CountSpectrum.from_transform_pair(m, A.reshape(-1), B.reshape(-1))


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
