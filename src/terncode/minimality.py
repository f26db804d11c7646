"""Minimality certification for the ternary codes of :mod:`terncode.code`.

Three independent certifiers:

* ``is_minimal_bruteforce``: the definition itself.  Materializes every
  codeword and tests all ordered support inclusions (m <= 5).
* ``spectral_check``: the exact spectral criterion.  Up to scalar
  multiples, every codeword is s_v (a purely linear word) or F + s_v with
  F one of the four literal family members, and support covering between
  two codewords reduces, through the weight identity
  ``wt(c1+c2) + wt(c1-c2) = 2 wt(c1) - wt(c2)``, to an exact equation on
  doubled real parts of the family transforms.  Concretely, with
  RD(F, w) = 2*Re(F_hat(w)) and target T = 2*3^m:

  - condition "triple-plus": RD(F,v1) + RD(F,v2) + RD(F,v3) != T for all
    distinct triples v1+v2+v3 = 0   (a linear word covering F + s_b);
  - condition "triple-minus": RD(F,v1) + RD(F,v2) - 2*RD(F,v3) != T for the
    same triples   (same-F pairs, and F + s_b covering a linear word);
  - condition "mixed-pair": for ordered F1 != F2 and all (v1, v2),
    RD(F1+F2, v1+v2) + RD(F1-F2, v1-v2) - 2*RD(F1, v1) + RD(F2, v2) != T.

  Sums and differences F1 +/- F2 are again +/- a family member, and
  RD(-F, w) = RD(F, -w), so four spectra feed the whole sweep.  Every
  violation maps back to an explicit covering codeword pair.
* ``ashikhmin_barg``: the classical sufficient ratio test, in cross-
  multiplied integers.

``spectral_sweep`` evaluates the criterion on all 3^(2m) pairs (v1, v2);
it is the oracle the faster paths of ``spectral_check`` are tested against.
It is vectorized over v2 in v1 blocks that are cosets: the 3^min(3, m)
rows sharing their high base-3 digits.  Over such a block every operand
RD(F, +/-(v1 +/- v2)) is a column gather and a row gather of one int32
table, with no per-pair index array.  Both orders of a mixed pair share
one sum: (F1, F2) at (v1, v2) and (F2, F1) at (v2, v1) both need
X = RD(F1+F2, v1+v2) + RD(F1-F2, v1-v2), because RD(-F, -w) = RD(F, w).
One process scans the blocks in order and drops a condition once it is
decided, so the scan order fixes the witnesses reported and the check
count.  A clean sweep costs 20*3^(2m) - 8*3^m checks; on a 2-core machine
it takes about 1.4 s at m = 8 and 15 s at m = 9.

``spectral_check`` decides the same criterion without the sweep, in two
steps.

First, an orbit pre-check.  When every family spectrum is constant on
Hamming-weight classes (the shell construction of
:mod:`terncode.hwconstruct` defines f and g through wt(x) only), each
condition depends on (v1, v2) only through its orbit under the monomial
group, i.e. the composition (n0, na, nb, nc, nd) of m into the coordinate
types (0,0), (x,0), (0,y), (x,x), (x,-x) -- the classes of the ternary
Hamming association scheme.  The weights are linear in the composition:
wt(v1) = na+nc+nd, wt(v2) = nb+nc+nd, wt(v1+v2) = wt(v3) = na+nb+nc and
wt(v1-v2) = na+nb+nd, and v1 = v2 exactly when na = nb = nd = 0.  So the
C(m+4, 4) compositions decide the criterion (495 at m = 8, against 3^16
pairs).  If no orbit violates a condition, the verdict is the one a clean
sweep reports, check count included.

Otherwise, heavy-shift lines.  Every condition is an integer equation
sum_i c_i * RD(F_i, w_i) = T with sum_i |c_i| <= 5, so a violation has an
operand with |RD(F, w)| >= ceil(T / 5); call such a w heavy.  Since
|RD(F, w)| <= 2|F_hat(w)| and sum_w |F_hat(w)|^2 = 3^(2m) (Parseval), a
member has at most 25 heavy shifts, and more raises ConsistencyError.
Let P be the heavy shifts of all four members together with their
negations.  Every operand argument is v1, v2, +/-(v1+v2) or +/-(v1-v2),
so every violation lies on one of the lines v1 = p, v2 = p, v1+v2 = p and
v1-v2 = p through a point p of P, each holding 3^m pairs.  Scanning those
at most 4*|P| lines is therefore the whole criterion, not a pre-check.
Each hit gets an int64 key in the sweep's scan order (block of v1,
comparison, then (lo1, lo2, hi2) within the block), so the smallest key
per condition is the witness the sweep would report first, and the check
count the sweep would report follows from it; an exhaustive witness list
is the smallest unique keys.  The shell codes and their scrambled copies
have P = {0} (four lines); uniformly random valid pairs from m = 6 on
typically have P empty.  On a 2-core machine a scrambled (m, 2, 4) shell
certifies in about 4 ms at m = 8, 0.03 s at m = 10 and 0.3 s at m = 12,
where the sweep takes 1.4 s, minutes and hours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import gf3
from .code import FAMILY_NAMES, FAMILY_TO_UR, CodeSpec, all_codewords_matrix, materialize
from .errors import CapacityError, ConsistencyError

# ordered (F1, F2) with F1+F2 and F1-F2 resolved to (member, sign),
# sign -1 meaning the pointwise negation of the member
PAIR_ALGEBRA: tuple[tuple[str, str, tuple[str, int], tuple[str, int]], ...] = (
    ("f", "g", ("f+g", +1), ("f-g", +1)),
    ("f", "f+g", ("f-g", -1), ("g", -1)),
    ("f", "f-g", ("f+g", -1), ("g", +1)),
    ("g", "f", ("f+g", +1), ("f-g", -1)),
    ("g", "f+g", ("f-g", +1), ("f", -1)),
    ("g", "f-g", ("f", +1), ("f+g", -1)),
    ("f+g", "f", ("f-g", -1), ("g", +1)),
    ("f+g", "g", ("f-g", +1), ("f", +1)),
    ("f+g", "f-g", ("f", -1), ("g", -1)),
    ("f-g", "f", ("f+g", -1), ("g", -1)),
    ("f-g", "g", ("f", +1), ("f+g", +1)),
    ("f-g", "f+g", ("f", -1), ("g", +1)),
)

ALL_CONDITIONS = ("triple-minus", "triple-plus", "mixed-pair")


# ---------------------------------------------------------------------------
# Support covering
# ---------------------------------------------------------------------------


def covers(a, b) -> bool:
    """True iff Supp(b) is contained in Supp(a).

    Computed directly and cross-checked against the weight identity
    wt(a+b) + wt(a+2b) = 2*wt(a) - wt(b); disagreement is a bug.
    """
    a = np.asarray(a, dtype=np.int16) % 3
    b = np.asarray(b, dtype=np.int16) % 3
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    direct = not np.any((b != 0) & (a == 0))
    wt_a = int(np.count_nonzero(a))
    wt_b = int(np.count_nonzero(b))
    identity = (
        int(np.count_nonzero((a + b) % 3)) + int(np.count_nonzero((a + 2 * b) % 3))
        == 2 * wt_a - wt_b
    )
    if direct != identity:
        raise ConsistencyError("support inclusion and the weight identity disagree")
    return direct


def ashikhmin_barg(wmin: int, wmax: int) -> bool:
    """Sufficient minimality test wmin/wmax > 2/3, cross-multiplied."""
    if not 0 < wmin <= wmax:
        raise ValueError(f"need 0 < wmin <= wmax, got ({wmin}, {wmax})")
    return 3 * wmin > 2 * wmax


# ---------------------------------------------------------------------------
# Verdicts and witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverWitness:
    """word(b_params) is covered by word(a_params); params are (u, r, v)."""

    a_params: tuple[int, int, int]
    b_params: tuple[int, int, int]

    def to_json_obj(self) -> dict:
        return {"kind": "cover", "a": list(self.a_params), "b": list(self.b_params)}


@dataclass(frozen=True)
class SpectralWitness:
    condition: str  # "triple-minus", "triple-plus", "mixed-pair"
    functions: tuple[str, ...]
    vectors: tuple[int, ...]  # (v1, v2, v3) for the triple conditions, (v1, v2) for mixed-pair
    covering_pair: tuple[tuple[int, int, int], tuple[int, int, int]]

    def to_json_obj(self) -> dict:
        return {
            "kind": "spectral",
            "condition": self.condition,
            "functions": list(self.functions),
            "vectors": list(self.vectors),
            "covering_pair": [list(self.covering_pair[0]), list(self.covering_pair[1])],
        }


@dataclass
class MinimalityVerdict:
    minimal: bool
    method: str  # "cover-oracle" or "spectral"
    witnesses: list = field(default_factory=list)
    checks: int = 0

    def __post_init__(self):
        if self.minimal != (len(self.witnesses) == 0):
            raise ConsistencyError("verdict minimal flag inconsistent with witnesses")

    def to_json_obj(self) -> dict:
        return {
            "minimal": self.minimal,
            "method": self.method,
            "checks": self.checks,
            "witnesses": [w.to_json_obj() for w in self.witnesses],
        }


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

BRUTEFORCE_MAX_M = 5


def is_minimal_bruteforce(spec: CodeSpec, max_witnesses: int = 1) -> MinimalityVerdict:
    """Check every ordered pair of nonzero, non-proportional codewords."""
    if spec.m > BRUTEFORCE_MAX_M:
        raise CapacityError(f"brute-force oracle supports m <= {BRUTEFORCE_MAX_M}, got m={spec.m}")
    total = gf3.pow3(spec.m)
    words, labels = all_codewords_matrix(spec)
    supports = words != 0
    n_rows = len(labels)

    def row_of(u: int, r: int, v: int) -> int:
        return (u * 3 + r) * total + v

    partner = np.empty(n_rows, dtype=np.int64)
    neg = gf3.neg_perm(spec.m)
    for i, (u, r, v) in enumerate(labels):
        partner[i] = row_of((2 * u) % 3, (2 * r) % 3, int(neg[v]))
    zero_row = row_of(0, 0, 0)

    witnesses: list[CoverWitness] = []
    checks = 0
    for a_row in range(n_rows):
        if a_row == zero_row:
            continue
        covered = ~(supports & ~supports[a_row]).any(axis=1)
        covered[a_row] = False
        covered[partner[a_row]] = False
        covered[zero_row] = False
        checks += n_rows - 3
        for b_row in np.flatnonzero(covered):
            witnesses.append(CoverWitness(labels[a_row], labels[int(b_row)]))
            if len(witnesses) >= max_witnesses:
                return MinimalityVerdict(False, "cover-oracle", witnesses, checks)
    return MinimalityVerdict(not witnesses, "cover-oracle", witnesses, checks)


# ---------------------------------------------------------------------------
# Spectral criterion sweep
# ---------------------------------------------------------------------------


# |RD(F, w)| = |2 Re F_hat(w)| <= 2*3^m, because F_hat(w) is a sum of 3^m
# roots of unity.  Every operand and partial sum the kernel forms is then at
# most 10*3^m in absolute value (the widest is the mixed-pair left side
# RD + RD - 2*RD + RD), below 2^31 for m <= 17: the sweep runs in int32.
assert 10 * 3**gf3.MAX_M < 2**31, "int32 sweep overflows at MAX_M"

_BLOCK_DIGITS = 3  # a v1 block is one coset of 3^3 rows (same high digits)

# The unordered mixed pairs, as (F1, F2, sum operand, difference operand)
# with each operand a (member, shift kind) of _shift_tables.  One sum
# X = RD(F1+F2, v1+v2) + RD(F1-F2, v1-v2) serves both orders: (F2, F1) at
# (v2, v1) has the sum RD(F1+F2, v1+v2) + RD(-(F1-F2), -(v1-v2)) = X,
# because RD(-F, -w) = RD(F, w).
_MIXED_PAIRS = tuple(
    (f1, f2, (s, "sum" if s_sign > 0 else "nsum"), (d, "diff" if d_sign > 0 else "ndiff"))
    for f1, f2, (s, s_sign), (d, d_sign) in PAIR_ALGEBRA
    if FAMILY_NAMES.index(f1) < FAMILY_NAMES.index(f2)
)


def _shift_tables(d: int, rows, neg_rows) -> dict[str, np.ndarray]:
    """idx(a+b), idx(-(a+b)), idx(a-b) and idx(b-a) for every d-digit b,
    one row per a in ``rows``; ``neg_rows`` holds the -a."""
    a = np.concatenate([rows, neg_rows])
    add, sub = gf3.add_perm_rows(d, a), gf3.sub_perm_rows(d, a)
    n = len(rows)
    return {"sum": add[:n], "nsum": sub[n:], "diff": sub[:n], "ndiff": add[n:]}


class _BlockKernel:
    """The spectral conditions over v1 blocks, with int32 tables and reused buffers.

    An index v = lo + K*hi splits into its low L = min(3, m) digits and its
    high m - L digits (K = 3^L, H = 3^(m-L)).  A block holds the K rows v1
    with one hi1, and block arrays have shape (K, 3^m): row lo1, column
    lo2*H + hi2 for v2 = lo2 + K*hi2.  With RT[F][lo, hi] = RD(F, lo + K*hi),
    RD(F, +/-(v1 +/- v2)) over a block is ``RT[F][:, col][lo_table]``: a
    gather of H columns picked by hi1 and a gather of whole rows picked by
    (lo1, lo2), with no per-pair index array.
    """

    def __init__(self, m: int, rd_by_name: dict[str, np.ndarray]):
        L = min(_BLOCK_DIGITS, m)
        K, H = gf3.pow3(L), gf3.pow3(m - L)
        self.hi_digits, self.K, self.H, self.target = m - L, K, H, 2 * gf3.pow3(m)
        self.neg = gf3.neg_perm(m)
        self.rt = {
            n: np.ascontiguousarray(rd.astype(np.int32).reshape(H, K).T) for n, rd in rd_by_name.items()
        }
        self.v2_rd = {n: rt.reshape(-1) for n, rt in self.rt.items()}  # RD(F, v2) by block column
        self.v2_rd2 = {n: 2 * r for n, r in self.v2_rd.items()}
        self.v2_rest = {n: self.target - r for n, r in self.v2_rd.items()}  # T - RD(F, v2)
        lo = np.arange(K)
        self.lo = _shift_tables(L, lo, self.neg[lo])
        self.diag = lo * (K * H + H)  # flat block position of v2 = v1 in row lo1, less hi1
        keys = {(n, "nsum") for n in FAMILY_NAMES} | {op for p in _MIXED_PAIRS for op in p[2:]}
        self.ops = {key: np.empty((K, K * H), np.int32) for key in keys}
        self.col = np.empty((K, H), np.int32)
        self.x = np.empty((K, K * H), np.int32)
        self.y = np.empty((K, K * H), np.int32)
        self.hits = np.empty((K, K * H), bool)

    def scan(self, mode: str, cap: int) -> tuple[list[tuple], int]:
        """Scan every pair; return raw witness tuples and the check count.

        Mode "first" stops at the first hit, "per-condition" drops each
        condition at its first hit and stops when all three are decided,
        and "exhaustive" stops at ``cap`` hits.  Checks count the open
        conditions up to and including the comparison where scanning stops.
        Scan order is fixed: v1 blocks ascending; within a block the triple
        conditions (family order, "triple-minus" then "triple-plus") before
        mixed-pair (unordered pair order, (F1, F2) then (F2, F1)); hits
        within one comparison in row-major block order (lo1, lo2, hi2).
        """
        K, H, T = self.K, self.H, self.target
        x, y, hits = self.x, self.y, self.hits
        need = set(ALL_CONDITIONS)
        out: list[tuple] = []
        checks = 0

        for b0 in range(0, K * H, K):
            hi1 = b0 // K
            cols = _shift_tables(self.hi_digits, [hi1], [self.neg[b0] // K])
            gathered: set[tuple[str, str]] = set()

            def operand(name: str, kind: str) -> np.ndarray:
                """RD(name, w) over the block, w = v1+v2, -(v1+v2), v1-v2 or v2-v1 by kind."""
                buf = self.ops[name, kind]
                if (name, kind) not in gathered:
                    np.take(self.rt[name], cols[kind][0], axis=1, out=self.col, mode="clip")
                    np.take(self.col, self.lo[kind], axis=0, out=buf.reshape(K, K, H), mode="clip")
                    gathered.add((name, kind))
                return buf

            def take(label: str, raw) -> bool:
                """Append raw(v1, v2, v3) per hit; return True when scanning is done."""
                if not hits.any():
                    return False
                r, j = np.nonzero(hits)
                n = cap - len(out) if mode == "exhaustive" else 1
                r, lo2, hi2 = r[:n], j[:n] // H, j[:n] % H
                v3 = self.lo["nsum"][r, lo2] + K * cols["nsum"][0, hi2]
                out.extend(raw(int(a), int(b), int(c)) for a, b, c in zip(b0 + r, lo2 + K * hi2, v3))
                if mode == "exhaustive":
                    return len(out) >= cap
                if mode == "per-condition":
                    need.discard(label)
                    return not need
                return True  # mode "first"

            if need & {"triple-minus", "triple-plus"}:
                for name in FAMILY_NAMES:
                    a3 = operand(name, "nsum")  # RD(F, v3) with v3 = -(v1 + v2)
                    # x = T - RD(F, v1) - RD(F, v2)
                    np.subtract(self.v2_rest[name], self.rt[name][:, hi1, None], out=x)
                    if "triple-minus" in need:
                        checks += hits.size - K
                        np.multiply(a3, -2, out=y)
                        np.equal(y, x, out=hits)
                        hits.reshape(-1)[self.diag + hi1] = False  # v1 = v2 = v3 is degenerate
                        if take("triple-minus", lambda v1, v2, v3, _n=name: ("triple-minus", _n, v1, v2, v3)):
                            return out, checks
                    if "triple-plus" in need:
                        checks += hits.size - K
                        np.equal(a3, x, out=hits)
                        hits.reshape(-1)[self.diag + hi1] = False
                        if take("triple-plus", lambda v1, v2, v3, _n=name: ("triple-plus", _n, v1, v2, v3)):
                            return out, checks
            for f1, f2, sum_op, diff_op in _MIXED_PAIRS:
                if "mixed-pair" not in need:
                    break
                np.add(operand(*sum_op), operand(*diff_op), out=x)
                a1 = self.rt[f1][:, hi1, None]
                # (F1, F2) at (v1, v2): X - 2*RD(F1, v1) + RD(F2, v2) = T
                checks += hits.size
                np.add(x, self.v2_rd[f2], out=y)
                np.equal(y, T + 2 * a1, out=hits)
                if take("mixed-pair", lambda v1, v2, _, _a=f1, _b=f2: ("mixed-pair", _a, _b, v1, v2)):
                    return out, checks
                if "mixed-pair" not in need:
                    break
                # (F2, F1) at (v2, v1): X - 2*RD(F2, v2) + RD(F1, v1) = T
                checks += hits.size
                np.subtract(x, self.v2_rd2[f2], out=y)
                np.equal(y, T - a1, out=hits)
                if take("mixed-pair", lambda v1, v2, _, _a=f1, _b=f2: ("mixed-pair", _b, _a, v2, v1)):
                    return out, checks
        return out, checks


def _raw_to_witness(m: int, raw: tuple) -> SpectralWitness:
    """Map a raw violation to the covering codeword pair it certifies."""
    if raw[0] == "triple-minus":
        _, name, v1, v2, v3 = raw
        u, r = FAMILY_TO_UR[name]
        pair = ((u, r, gf3.neg_index(m, v3)), (u, r, gf3.neg_index(m, v1)))
        return SpectralWitness("triple-minus", (name,), (v1, v2, v3), pair)
    if raw[0] == "triple-plus":
        _, name, v1, v2, v3 = raw
        u, r = FAMILY_TO_UR[name]
        pair = ((0, 0, gf3.sub_index(m, v2, v3)), (u, r, gf3.neg_index(m, v3)))
        return SpectralWitness("triple-plus", (name,), (v1, v2, v3), pair)
    _, f1, f2, v1, v2 = raw
    u1, r1 = FAMILY_TO_UR[f1]
    u2, r2 = FAMILY_TO_UR[f2]
    pair = ((u1, r1, gf3.neg_index(m, v1)), (u2, r2, gf3.neg_index(m, v2)))
    return SpectralWitness("mixed-pair", (f1, f2), (v1, v2), pair)


# default witness cap of an exhaustive run
MAX_WITNESSES = 1000


def _check_cap(exhaustive: bool, max_witnesses: int) -> None:
    # with no witness to report, a non-minimal code would read as minimal
    if exhaustive and max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, got {max_witnesses}")


def spectral_sweep(
    spec: CodeSpec,
    *,
    exhaustive: bool = False,
    per_condition: bool = False,
    max_witnesses: int = MAX_WITNESSES,
) -> MinimalityVerdict:
    """Evaluate the exact spectral criterion on every pair (v1, v2).

    Default mode stops at the first violation; ``per_condition`` keeps
    scanning until each of the three conditions has either a witness or a
    clean sweep; ``exhaustive``
    collects up to ``max_witnesses`` violations.  One process, no budget:
    this is the oracle the faster paths of :func:`spectral_check` are
    tested against.
    """
    _check_cap(exhaustive, max_witnesses)
    if exhaustive:
        mode, cap = "exhaustive", max_witnesses
    elif per_condition:
        mode, cap = "per-condition", 3
    else:
        mode, cap = "first", 1
    rd_by_name = {name: spec.spectra[name].rd for name in FAMILY_NAMES}
    raws, checks = _BlockKernel(spec.m, rd_by_name).scan(mode, cap)
    witnesses = [_raw_to_witness(spec.m, raw) for raw in raws]
    return MinimalityVerdict(not witnesses, "spectral", witnesses, checks)


# ---------------------------------------------------------------------------
# Orbit pre-check for weight-symmetric spectra
# ---------------------------------------------------------------------------


def orbit_violations(spec: CodeSpec) -> set[str] | None:
    """The conditions some (v1, v2) orbit violates, or None if the spectra
    are not all constant on Hamming-weight classes.

    Evaluates the same three conditions as :func:`spectral_sweep`, once
    per composition (n0, na, nb, nc, nd) of m (see the module docstring).
    """
    m = spec.m
    weights = gf3.weights_table(m)
    rd_w = {}
    for name in FAMILY_NAMES:
        rd = spec.spectra[name].rd
        rd_w[name] = np.zeros(m + 1, dtype=rd.dtype)
        rd_w[name][weights] = rd  # keeps one value per class; the gather below finds any other
        if not np.array_equal(rd_w[name][weights], rd):
            return None
    comps = np.indices((m + 1,) * 4).reshape(4, -1)
    na, nb, nc, nd = comps[:, comps.sum(axis=0) <= m]  # n0 is the remainder
    w1, w2 = na + nc + nd, nb + nc + nd
    w_sum, w_diff = na + nb + nc, na + nb + nd  # wt(v3) = wt(v1+v2)
    distinct = (na + nb + nd) > 0  # v1 = v2 (= v3) exactly when na = nb = nd = 0
    target = 2 * gf3.pow3(m)
    violated = set()
    for name in FAMILY_NAMES:
        A = rd_w[name]
        base = A[w1] + A[w2]
        if np.any(distinct & (base - 2 * A[w_sum] == target)):
            violated.add("triple-minus")
        if np.any(distinct & (base + A[w_sum] == target)):
            violated.add("triple-plus")
    # RD(-F, w) = RD(F, -w) and wt(-w) = wt(w): the signs of PAIR_ALGEBRA drop out
    for f1, f2, (sum_name, _), (diff_name, _) in PAIR_ALGEBRA:
        S = rd_w[sum_name][w_sum] + rd_w[diff_name][w_diff] - 2 * rd_w[f1][w1] + rd_w[f2][w2]
        if np.any(S == target):
            violated.add("mixed-pair")
    return violated


# ---------------------------------------------------------------------------
# Heavy-shift lines: the whole criterion on O(3^m) pairs
# ---------------------------------------------------------------------------

# Each condition is an integer equation sum_i c_i * RD(F_i, w_i) = T with
# T = 2*3^m and S = sum_i |c_i| at most 5 (triple-plus 3, triple-minus 4,
# mixed-pair 5 from 1, 1, -2, 1).  So a violation has an operand with
# |RD(F, w)| >= T / S >= T / 5, hence >= ceil(T / 5): its argument w is
# heavy for F.  Since |RD(F, w)| <= 2|F_hat(w)| and sum_w |F_hat(w)|^2 =
# 3^(2m) (Parseval), a heavy w has |F_hat(w)|^2 >= 3^(2m) / 25, and at most
# 25 shifts per member are heavy.
_MAX_HEAVY = 25
# pairs (v1, v2) per line evaluation: several points' lines at small m, a
# slice of one point's lines at large m.  A batch holds about 120 bytes per
# pair (int64 index arrays, int32 operands), so 2^14 pairs stay near 2 MB:
# in cache, and below the process's other peaks.  Half that size doubles
# the per-batch overhead (measured 1.6x slower at m = 8).
_LINE_BATCH = 1 << 14
# The sweep's 20 block comparisons in scan order: c = 2*i_F + (0 minus,
# 1 plus) for the triples of FAMILY_NAMES[i_F], then c = 8 + 2*pair + order
# for _MIXED_PAIRS, order 0 being (F1, F2) at (v1, v2) and 1 (F2, F1) at
# (v2, v1).
_COMPARISONS = 20
assert _COMPARISONS * 9**gf3.MAX_M < 2**63, "scan-order keys overflow int64 at MAX_M"
_CONDITION_OF = ("triple-minus", "triple-plus") * 4 + ("mixed-pair",) * 12


def heavy_points(spec: CodeSpec) -> np.ndarray:
    """P: the shifts w with |RD(F, w)| >= ceil(2*3^m / 5) for some member F,
    closed under negation, ascending.

    Raises :class:`ConsistencyError` if one member has more than 25 heavy
    shifts, which Parseval rules out.
    """
    m = spec.m
    threshold = -(-2 * gf3.pow3(m) // 5)
    neg = gf3.neg_perm(m)
    points = []
    for name in FAMILY_NAMES:
        heavy = np.flatnonzero(np.abs(spec.spectra[name].rd) >= threshold)
        if len(heavy) > _MAX_HEAVY:
            raise ConsistencyError(
                f"{name} has {len(heavy)} heavy shifts, more than the {_MAX_HEAVY} Parseval allows"
            )
        points += [heavy, neg[heavy]]
    return np.unique(np.concatenate(points))


def _key_layout(m: int) -> tuple[int, int, int]:
    """(K, H, stride) of the scan-order key: K = 3^min(3, m) rows per sweep
    block, H = 3^m / K blocks, and stride = K*K*H = K*3^m per comparison."""
    K = gf3.pow3(min(_BLOCK_DIGITS, m))
    H = gf3.pow3(m) // K
    return K, H, K * gf3.pow3(m)


def _line_keys(spec: CodeSpec, points: np.ndarray):
    """Evaluate the 20 block comparisons on every line through ``points``.

    A violation has a heavy operand argument (see ``_MAX_HEAVY``), which is
    one of v1, v2, +/-(v1+v2) and +/-(v1-v2) (v3 = -(v1+v2)).  With P = -P,
    the pair (v1, v2) lies on one of the lines v1 = p, v2 = p, v1+v2 = p
    and v1-v2 = p for some p in P.  Each line holds 3^m pairs: with j
    running over F_3^m,

    - v1 = p:      (p, j), v1+v2 = p+j, v1-v2 = p-j;
    - v2 = p:      (j, p), v1+v2 = p+j, v1-v2 = -(p-j);
    - v1+v2 = p:   (j, p-j), v1-v2 = 2j-p = -(p+j);
    - v1-v2 = p:   (j, -(p-j)), v1+v2 = -(p+j).

    Yields (points done, keys) per batch.  A hit of comparison c at (v1, v2)
    has the key (v1 // K, c, v1 % K, v2 % K, v2 // K) in mixed radix
    (K, H as in :func:`_key_layout`), so keys ascend in the sweep's scan
    order.  Keys are below 20*3^(2m) < 2^63 for m <= 16, and operand sums
    stay in int32 by the bound above ``_BLOCK_DIGITS``.  A pair on two
    lines yields its hits twice.
    """
    m = spec.m
    n, T = gf3.pow3(m), 2 * gf3.pow3(m)
    K, H, _ = _key_layout(m)
    neg = gf3.neg_perm(m)
    rd = {name: spec.spectra[name].rd.astype(np.int32) for name in FAMILY_NAMES}
    j_all = np.arange(n)
    per_batch = max(1, _LINE_BATCH // (4 * n))  # points per batch
    seg = min(n, _LINE_BATCH // 4)  # j per batch when one point's lines do not fit
    for i0 in range(0, len(points), per_batch):
        pts = points[i0 : i0 + per_batch]
        add, sub = gf3.add_perm_rows(m, pts), gf3.sub_perm_rows(m, pts)  # p+j, p-j
        for j0 in range(0, n, seg):
            js = slice(j0, j0 + seg)
            p, j, a, s = np.broadcast_arrays(pts[:, None], j_all[js], add[:, js], sub[:, js])
            na, ns = neg[a], neg[s]
            v1 = np.stack([p, j, j, j]).reshape(-1)
            v2 = np.stack([j, p, s, ns]).reshape(-1)
            arg = {"sum": np.stack([a, a, p, na]).reshape(-1), "diff": np.stack([s, ns, na, p]).reshape(-1)}
            arg["nsum"], arg["ndiff"] = neg[arg["sum"]], neg[arg["diff"]]
            at_v1 = {name: rd[name][v1] for name in FAMILY_NAMES}
            at_v2 = {name: rd[name][v2] for name in FAMILY_NAMES}
            keys = []

            def hits(mask: np.ndarray, c: int) -> None:
                idx = np.flatnonzero(mask)
                w1, w2 = v1[idx], v2[idx]
                keys.append((((w1 // K * _COMPARISONS + c) * K + w1 % K) * K + w2 % K) * H + w2 // K)

            distinct = v1 != v2  # v1 = v2 = v3 is degenerate for the triples
            for i, name in enumerate(FAMILY_NAMES):
                x = at_v1[name] + at_v2[name]
                a3 = rd[name][arg["nsum"]]  # RD(F, v3)
                hits(distinct & (x - 2 * a3 == T), 2 * i)
                hits(distinct & (x + a3 == T), 2 * i + 1)
            for k, (f1, f2, (s_name, s_kind), (d_name, d_kind)) in enumerate(_MIXED_PAIRS):
                x = rd[s_name][arg[s_kind]] + rd[d_name][arg[d_kind]]
                a1, a2 = at_v1[f1], at_v2[f2]
                hits(x - 2 * a1 + a2 == T, 8 + 2 * k)
                hits(x - 2 * a2 + a1 == T, 9 + 2 * k)
            yield i0 + len(pts) if j0 + seg >= n else i0, np.concatenate(keys)


def _key_to_raw(m: int, key: int) -> tuple:
    """The raw violation of :meth:`_BlockKernel.scan` that a line key encodes."""
    K, H, stride = _key_layout(m)
    hi1, rest = divmod(int(key), _COMPARISONS * stride)
    c, rest = divmod(rest, stride)
    lo1, rest = divmod(rest, K * H)
    lo2, hi2 = divmod(rest, H)
    v1, v2 = lo1 + K * hi1, lo2 + K * hi2
    if c < 8:
        v3 = gf3.sub_index(m, gf3.neg_index(m, v1), v2)
        return (_CONDITION_OF[c], FAMILY_NAMES[c // 2], v1, v2, v3)
    pair, order = divmod(c - 8, 2)
    f1, f2 = _MIXED_PAIRS[pair][:2]
    return ("mixed-pair", f1, f2, v1, v2) if order == 0 else ("mixed-pair", f2, f1, v2, v1)


def _sweep_checks(m: int, condition: str | None, key: int | None) -> int:
    """Checks the sweep counts for ``condition`` (None: all three) up to and
    including the hit ``key``, or over the whole sweep when ``key`` is None.

    A block comparison counts K*3^m checks, less the K degenerate pairs
    v1 = v2 for a triple comparison.
    """
    K, H, stride = _key_layout(m)
    comps = [c for c in range(_COMPARISONS) if condition in (None, _CONDITION_OF[c])]

    def size(c: int) -> int:
        return stride - K if c < 8 else stride

    if key is None:
        return H * sum(map(size, comps))
    block, c_hit = divmod(key // stride, _COMPARISONS)
    return block * sum(map(size, comps)) + sum(size(c) for c in comps if c <= c_hit)


def spectral_check(
    spec: CodeSpec,
    *,
    exhaustive: bool = False,
    per_condition: bool = False,
    max_witnesses: int = MAX_WITNESSES,
    processes: int | None = None,
    budget_seconds: float | None = None,
) -> MinimalityVerdict:
    """Evaluate the exact spectral minimality criterion.

    Returns the verdict :func:`spectral_sweep` returns with the same
    ``exhaustive``, ``per_condition`` and ``max_witnesses``, witnesses and
    check count included (a clean sweep counts 20*3^(2m) - 8*3^m checks in
    every mode).  When the orbit pre-check finds weight-symmetric spectra
    and no violated orbit, the clean verdict is returned at once.
    Otherwise the lines through the heavy points decide it in every mode,
    on one process: the first violation, each condition's first violation,
    or the first ``max_witnesses`` violations in the sweep's scan order.
    ``processes`` is ignored; the perfbench workloads still pass it.
    ``budget_seconds`` caps wall-clock time: a budget spent before the
    line scan raises :class:`CapacityError` with ``completed_fraction`` 0,
    one spent during it raises between batches with the share of heavy
    points done.
    """
    _check_cap(exhaustive, max_witnesses)
    m = spec.m
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds

    def spent() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    clean = MinimalityVerdict(True, "spectral", [], _sweep_checks(m, None, None))
    clean_orbits = orbit_violations(spec) == set()
    if spent():
        raise CapacityError("budget exceeded before the heavy-line scan", completed_fraction=0.0)
    if clean_orbits:
        return clean
    points = heavy_points(spec)
    first: dict[str, int] = {}  # condition -> its smallest key
    kept = np.zeros(0, np.int64)  # exhaustive: the smallest unique keys
    _, _, stride = _key_layout(m)
    for done, keys in _line_keys(spec, points):
        if exhaustive:  # a pair on two lines yields its hits twice
            kept = np.unique(np.concatenate([kept, keys]))[:max_witnesses]
        else:
            cond_of_key = np.take(_CONDITION_OF, keys // stride % _COMPARISONS)
            for cond in ALL_CONDITIONS:
                hits = keys[cond_of_key == cond]
                if hits.size:
                    key = int(hits.min())
                    first[cond] = min(key, first.get(cond, key))
        if done < len(points) and spent():
            message = f"budget exceeded after {done}/{len(points)} heavy points"
            raise CapacityError(message, completed_fraction=done / len(points))
    if not first and not kept.size:
        return clean
    if exhaustive:
        reported = kept.tolist()
        # the sweep stops at the comparison holding its last witness
        checks = _sweep_checks(m, None, reported[-1]) if len(reported) == max_witnesses else clean.checks
    elif per_condition:
        reported = sorted(first.values())
        checks = sum(_sweep_checks(m, cond, first.get(cond)) for cond in ALL_CONDITIONS)
    else:
        reported = [min(first.values())]
        checks = _sweep_checks(m, None, reported[0])
    witnesses = [_raw_to_witness(m, _key_to_raw(m, key)) for key in reported]
    return MinimalityVerdict(False, "spectral", witnesses, checks)


def confirm_witness(spec: CodeSpec, witness) -> bool:
    """Materialize a witness's codeword pair and re-check the covering."""
    if isinstance(witness, SpectralWitness):
        a_params, b_params = witness.covering_pair
    else:
        a_params, b_params = witness.a_params, witness.b_params
    a = materialize(spec, *a_params)
    b = materialize(spec, *b_params)
    if a_params == b_params or not b.word.any():
        raise ConsistencyError("witness pair is degenerate")
    return covers(a.word, b.word)
