"""Character-sum (Walsh) transforms of maps F_3^m -> F_3, exactly, as value counts.

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
* ``count_spectra``: a radix-3 decimation butterfly on the counts
  themselves, O(m * 3^m) additions, integer-only, for several functions at
  once (``fast_count_spectrum`` is its one-function form).  Each entry
  holds (N1, N2) of the points gathered so far, so counts never pass
  through Z[zeta_3].  Stage s runs in the narrowest unsigned dtype that
  holds 3^s, from uint8 up; up to 2^17 entries, the members of a call
  share each stage.  Read transposed, the table puts its low ceil(m/2)
  digits on top, so their stages walk long contiguous runs; one
  transposing copy restores the index order for the stages on the high
  digits.  The last stage writes the int32 counts the spectra keep.

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


# N1 + N2 <= 3^m, so |2*Re| <= 3*(N1 + N2) + 2*3^m stays below 2^31 for
# m <= 18: the doubled real part is computed in int32.
assert 3 ** (gf3.MAX_M + 1) < 2**31, "int32 doubled real part overflows at MAX_M"


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
    for the high digits (see ``_plan``).  The steps alternate between one
    workspace, allocated per call, and the batch's fresh int32 output, so
    the last stage lands in the output, which only the spectra keep.

    A count that breaks sum_w N_lambda(w) = 3^(m-1)*(3^m - 1) +
    3^m*[F(0) = lambda] (lambda = 1, 2) raises ``ConsistencyError``.  The
    sums are taken mod 2^32, one uint32 reduction per row; a single count
    off by less than 2^32 still breaks them.
    """
    members = list(members)
    m = members[0].m
    if any(F.m != m for F in members):
        raise ValueError("count_spectra needs functions of one dimension")
    n, L = gf3.pow3(m), (m + 1) // 2
    lo, hi = gf3.pow3(L), gf3.pow3(m - L)
    steps = _plan(m)
    per = max(1, min(4, _BATCH_ENTRIES // n))
    wide = max((np.dtype(dtype).itemsize for _, dtype in steps[:-1]), default=1)
    work = np.empty(per * 2 * n * wide, np.uint8)
    base = 3 ** (m - 1) * (n - 1)
    spectra = []
    for start in range(0, len(members), per):
        batch = members[start : start + per]
        shape = (len(batch), 2, n)
        out = np.empty(shape, np.int32)
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
        for F, counts, sums in zip(batch, out, x.sum(axis=2, dtype=np.uint32).tolist()):
            if sums != [(base + n * (int(F.table[0]) == value)) % 2**32 for value in (1, 2)]:
                raise ConsistencyError(
                    "count spectrum breaks sum_w N_lambda(w) = 3^(m-1)*(3^m - 1) + 3^m*[F(0) = lambda]"
                )
            spectra.append(CountSpectrum(m, counts[0], counts[1]))
    return spectra


def fast_count_spectrum(F: TernaryFunction) -> CountSpectrum:
    """The count spectrum of one function: ``count_spectra([F])[0]``."""
    return count_spectra([F])[0]


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
