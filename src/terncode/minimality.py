"""Minimality certification for the ternary codes of :mod:`terncode.code`.

Two certifiers and one sufficient test:

* ``is_minimal_bruteforce``: the definition itself.  Takes one codeword
  per pair {c, -c}, the (3^(m+2) - 1)/2 representative rows, and decides
  all ordered support inclusions (m <= 5) once per such pair: the words a
  covers are those that vanish wherever a does, the AND of the bitsets
  Z[x] of words with zero coordinate x over the zero coordinates x of a,
  in uint64 words over the representatives.  Those words form a subspace,
  the subcode vanishing on zero(a) (Ashikhmin and Barg, 1998), and a
  subspace of F_3^(m+2) is cut out by m + 2 independent equations.  So
  the AND runs over the zeros of a among 36 fixed anchor coordinates
  (about 12 of the ~80 zeros of a word at m = 5), and each word it lets
  through is verified on all of zero(a): sample, then verify.  x is a
  zero of c(u, r, v) when (u f + r g)(x) = -(v.x) mod 3, read from a
  table of -(v.x) built once per m.
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
  RD(-F, w) = RD(F, -w), so four spectra feed the whole criterion.  Every
  violation maps back to an explicit covering codeword pair.
* ``ashikhmin_barg``: the classical sufficient ratio test, in cross-
  multiplied integers.

The scan order.  The criterion is 20 comparisons over the 3^(2m) pairs
(v1, v2): for each member, triple-minus then triple-plus, then both orders
of each of the six unordered mixed pairs.  Every violation has a place in
one fixed order over (comparison, v1, v2), its int64 key (see
:func:`_key_layout`): v1 runs over cosets of K = 3^min(3, m) rows that
share their high base-3 digits, and within a coset the 20 comparisons run
in turn, each over the K*3^m pairs of the coset in row-major (lo1, lo2,
hi2) order.  Each (coset, comparison) counts K*3^m checks, less the K
degenerate pairs v1 = v2 of a triple comparison, so the whole criterion
counts 20*3^(2m) - 8*3^m.  One function turns hit keys into the verdict:
the smallest key (or of each condition, or the smallest keys of an
exhaustive run) gives the witnesses, and a scan stopping at the
comparison of the last one reported gives the check count.  The CLI
prints both, so this order is part of its output.

``spectral_check`` never visits the 3^(2m) pairs; it decides the criterion
in two steps.

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
pairs).  If no orbit violates a condition, the verdict is the clean one:
no witness, and the full check count of the scan order.

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
When 4|P| >= 3^m they hold at least the 3^(2m) pairs of the whole space,
and the scan takes the lines v1 = p through every point p instead: one
line kind, each pair once.  Of 200 random valid pairs, all took that
cover at m = 2 and at m = 3, and none at m = 4 (|P| <= 20).  Either
way each hit gets its scan-order key, and the keys go through the
verdict function above, so the witnesses and the check count are those
the scan order defines.  The shell codes and their scrambled copies have
P = {0} (four lines); uniformly random valid pairs from m = 6 on
typically have P empty.  On a 2-core machine a scrambled (m, 2, 4) shell
certifies in about 2 ms at m = 8, 0.01 s at m = 10 and 0.1 s at m = 12,
against 4.3e7, 3.5e9 and 2.8e11 pairs (v1, v2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import gf3
from .code import FAMILY_NAMES, FAMILY_TO_UR, UR_TO_FAMILY, CodeSpec, materialize, neg_dot_table, pair_rows
from .errors import CapacityError, ConsistencyError


def _member(f1: str, f2: str, sign: int) -> tuple[str, int]:
    """F1 + sign*F2 as (member, sign), from the (u, r) of each."""
    (u1, r1), (u2, r2) = FAMILY_TO_UR[f1], FAMILY_TO_UR[f2]
    return UR_TO_FAMILY[(u1 + sign * u2) % 3, (r1 + sign * r2) % 3]


# ordered (F1, F2) with F1+F2 and F1-F2 resolved to (member, sign),
# sign -1 meaning the pointwise negation of the member
PAIR_ALGEBRA: tuple[tuple[str, str, tuple[str, int], tuple[str, int]], ...] = tuple(
    (f1, f2, _member(f1, f2, 1), _member(f1, f2, -1)) for f1, f2 in permutations(FAMILY_NAMES, 2)
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
# Anchor coordinates, evenly spread over 1 .. 3^m - 1 (all of them for
# m <= 3); each row ANDs the bitsets of its zeros among them.  A row of a
# random pair at m = 5 has about 12 zeros among 36 anchors; with fewer
# anchors, rows with few zeros among them let hundreds of false candidates
# through.  Candidates are verified on all of zero(a), unless the anchors
# are all the coordinates.
_COVER_ANCHORS = 36
# Rows with candidates per step: a non-minimal code stops after the step
# that completes its witnesses.  A step unpacks their bitsets to one byte
# per bit, 74 kB at m = 5.
_COVER_ROWS = 64
# Candidate pairs verified at once, about 4(3^m - 1) bytes each (250 kB at
# m = 5).
_VERIFY_PAIRS = 256


# the pair rows 3u + r below the row of (-u, -r), for (u, r) = (0, 1),
# (1, 0), (1, 1) and (1, 2): a literal, since numpy work at import time
# raised the benchmark's peak RSS by about 0.3 MiB
_FULL_PAIR_ROWS = (1, 3, 4, 5)


@lru_cache(maxsize=None)
def _representatives(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(half, reps, own, not_own): the rows i < -i, one per pair {c, -c} of
    nonzero words, ascending.  First (0, 0, v) for the v < -v in ``half``,
    then every (u, r, v) of each (u, r) in ``_FULL_PAIR_ROWS``.  The own bit
    of representative i is ``~not_own[i]`` at word ``own[i]`` of the
    flattened (rows, words) bitsets."""
    total = gf3.pow3(m)
    half = np.flatnonzero(np.arange(total) < gf3.neg_perm(m))
    reps = np.concatenate([half, *(ur * total + np.arange(total) for ur in _FULL_PAIR_ROWS)])
    i = np.arange(len(reps))
    own = i * -(-len(reps) // 64) + i // 64
    return half, reps, own, ~(np.uint64(1) << (i % 64).astype(np.uint64))


class _ZeroBitsets:
    """The words covered by each representative row, from transposed bitsets.

    The representatives are one row r < -r per pair {c, -c} of nonzero
    words (the two share a support).  Z[x] is the bitset over
    representatives b of the words with b_x = 0, packed little-endian into
    uint64 words; a last row sets every valid bit.  Supp(b) is inside
    Supp(a) exactly when b vanishes wherever a does, so the representatives
    a covers form the AND of Z[x] over the zero coordinates x of a.
    ``cover`` holds, for every a, the AND over its zeros among the anchors,
    own bit cleared: a superset, and a candidate b stays only if zero(a)
    is inside zero(b).  x is a zero of c(u, r, v) when row 3u + r of
    :func:`code.pair_rows` equals row v of :func:`code.neg_dot_table`.
    """

    def __init__(self, spec: CodeSpec):
        m = spec.m
        self.total = total = gf3.pow3(m)
        half, self.reps, own, not_own = _representatives(m)
        self.table, self.pairs = neg_dot_table(m), pair_rows(spec)
        n_coords, n_reps = total - 1, len(self.reps)
        n_words = -(-n_reps // 64)
        zero = np.zeros((n_coords + 1, 64 * n_words), bool)  # zero[x - 1, b]: b_x == 0; last row the pad
        np.equal(self.table[half], 0, out=zero[:-1, : len(half)].T)  # (u, r) = (0, 0): the pair rows are 0
        # one row per coordinate: compares into rows of zero run several
        # times faster than into its transposed view
        columns = self.table.T.copy()
        for k, ur in enumerate(_FULL_PAIR_ROWS):
            lo = len(half) + k * total
            np.equal(columns, self.pairs[ur, :, None], out=zero[:-1, lo : lo + total])
        zero[-1, :n_reps] = True
        z = np.packbits(zero, bitorder="little").view("<u8").reshape(len(zero), n_words)
        # a row's slot at an anchor outside its zeros reads the pad row
        n_anchors = min(_COVER_ANCHORS, n_coords)
        anchors = (np.arange(n_anchors) * n_coords // n_anchors).astype(np.int16)
        self.exact = n_anchors == n_coords
        slots = np.where(zero[anchors, :n_reps], anchors[:, None], np.int16(n_coords))
        del zero
        # AND in place, one anchor at a time: one gather over all anchors
        # would hold a copy of the bitsets per anchor, 5.7 MB at m = 5
        cover = z.take(slots[0], axis=0)
        for slot in slots[1:]:
            np.bitwise_and(cover, z.take(slot, axis=0), out=cover)
        cover.reshape(-1)[own] &= not_own
        self.cover = cover

    def zero_rows(self, i: np.ndarray) -> np.ndarray:
        """The zero coordinates of representatives ``i``, one bool row each."""
        ur, v = np.divmod(self.reps[i], self.total)
        return self.table[v] == self.pairs[ur]

    def covered(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (a, b) of representatives with a in ``rows`` (ascending)
        covering b != a, ascending in a, then in b."""
        bits = np.unpackbits(self.cover[rows].view(np.uint8), axis=1, bitorder="little")
        a, b = np.divmod(np.flatnonzero(bits), bits.shape[1])
        a = rows[a]
        if self.exact:
            return a, b
        keep = np.ones(len(a), bool)
        for i in range(0, len(a), _VERIFY_PAIRS):
            batch = slice(i, i + _VERIFY_PAIRS)
            keep[batch] = ~(self.zero_rows(a[batch]) > self.zero_rows(b[batch])).any(axis=1)
        return a[keep], b[keep]


def is_minimal_bruteforce(spec: CodeSpec, max_witnesses: int = 1) -> MinimalityVerdict:
    """Check every ordered pair of nonzero, non-proportional codewords.

    Rows a ascend, and each counts 3^(m+2) - 3 checks: every row b but 0,
    a and -a.  The witnesses of a row are the rows b it covers, ascending;
    the scan stops once ``max_witnesses`` (at least one) are listed.
    Coverage is decided once per pair {c, -c}, on the zero bitsets of
    :class:`_ZeroBitsets`, in steps over the representatives with
    candidates in ascending order.  A row's representative is never above
    it, so after a step every row below the next step's first
    representative has all its witnesses.
    """
    if spec.m > BRUTEFORCE_MAX_M:
        raise CapacityError(f"brute-force oracle supports m <= {BRUTEFORCE_MAX_M}, got m={spec.m}")
    max_witnesses = max(max_witnesses, 1)
    total = gf3.pow3(spec.m)
    n_rows = 9 * total
    negated = gf3.neg_perm(spec.m + 2)  # row of -c: the negated message; row 0 is the zero word
    bitsets = _ZeroBitsets(spec)
    reps = bitsets.reps
    hit = np.flatnonzero(bitsets.cover.any(axis=1))  # the representatives with candidates

    def params(row: int) -> tuple[int, int, int]:
        """(u, r, v) of the message index (3u + r)*3^m + v."""
        ur, v = divmod(row, total)
        return (*divmod(ur, 3), v)

    pending = np.zeros(0, np.int64)  # covering row pairs a*n_rows + b not yet listed, ascending
    witnesses: list[CoverWitness] = []
    for start in range(0, len(hit), _COVER_ROWS):
        a, b = bitsets.covered(hit[start : start + _COVER_ROWS])
        if not (a.size or pending.size):
            continue
        (a, neg_a), (b, neg_b) = ((reps[i], negated[reps[i]]) for i in (a, b))
        a_rows = np.concatenate([a, a, neg_a, neg_a])  # +/-a covering +/-b
        b_rows = np.concatenate([b, neg_b, b, neg_b])
        pending = np.sort(np.concatenate([pending, a_rows * n_rows + b_rows]))
        end = reps[hit[start + _COVER_ROWS]] if start + _COVER_ROWS < len(hit) else n_rows
        ready = pending[: np.searchsorted(pending, end * n_rows)][: max_witnesses - len(witnesses)]
        witnesses += [CoverWitness(params(key // n_rows), params(key % n_rows)) for key in ready.tolist()]
        if len(witnesses) >= max_witnesses:
            return MinimalityVerdict(False, "cover-oracle", witnesses, int(ready[-1]) // n_rows * (n_rows - 3))
        pending = pending[len(ready) :]
    return MinimalityVerdict(not witnesses, "cover-oracle", witnesses, (n_rows - 1) * (n_rows - 3))


# ---------------------------------------------------------------------------
# Spectral criterion: comparisons, scan order and verdict
# ---------------------------------------------------------------------------


# |RD(F, w)| = |2 Re F_hat(w)| <= 2*3^m, because F_hat(w) is a sum of 3^m
# roots of unity.  Every operand and partial sum of the comparisons is then
# at most 10*3^m in absolute value (the widest is the mixed-pair left side
# RD + RD - 2*RD + RD), below 2^31 for m <= 17: the orbit and heavy-line
# sums run in int32, the dtype of the spectra.
assert 10 * 3**gf3.MAX_M < 2**31, "int32 comparison sums overflow at MAX_M"

_BLOCK_DIGITS = 3  # a v1 block of the scan order is one coset of 3^3 rows (same high digits)

# The unordered mixed pairs, as (F1, F2, sum operand, difference operand)
# with each operand a (member, operand kind) of _comparisons.  One sum
# X = RD(F1+F2, v1+v2) + RD(F1-F2, v1-v2) serves both orders: (F2, F1) at
# (v2, v1) has the sum RD(F1+F2, v1+v2) + RD(-(F1-F2), -(v1-v2)) = X,
# because RD(-F, -w) = RD(F, w).
_MIXED_PAIRS = tuple(
    (f1, f2, (s, "sum" if s_sign > 0 else "nsum"), (d, "diff" if d_sign > 0 else "ndiff"))
    for f1, f2, (s, s_sign), (d, d_sign) in PAIR_ALGEBRA
    if FAMILY_NAMES.index(f1) < FAMILY_NAMES.index(f2)
)


# The 20 comparisons in scan order: c = 2*i_F + (0 minus, 1 plus) for the
# triples of FAMILY_NAMES[i_F], then c = 8 + 2*pair + order for
# _MIXED_PAIRS, order 0 being (F1, F2) at (v1, v2) and 1 (F2, F1) at
# (v2, v1).
_COMPARISONS = 20
assert _COMPARISONS * 9**gf3.MAX_M < 2**63, "scan-order keys overflow int64 at MAX_M"
_CONDITION_OF = ("triple-minus", "triple-plus") * 4 + ("mixed-pair",) * 12


def _key_layout(m: int) -> tuple[int, int, int]:
    """(K, H, stride) of the scan-order key: K = 3^min(3, m) rows v1 per
    block, H = 3^m / K blocks, and stride = K*K*H = K*3^m per comparison.

    The key of a hit of comparison c at (v1, v2) is (v1 // K, c, v1 % K,
    v2 % K, v2 // K) in mixed radix (H, 20, K, K, H), and the scan order
    is the order of the keys: v1 blocks ascending, the 20 comparisons
    within a block, then row-major (lo1, lo2, hi2) within a comparison.
    """
    K = gf3.pow3(min(_BLOCK_DIGITS, m))
    H = gf3.pow3(m) // K
    return K, H, K * gf3.pow3(m)


def _comparisons(target: int, rd_at, distinct):
    """Yield the hit masks of the 20 comparisons, in the order of c.

    ``rd_at(name, kind)`` gives RD(name, w) over the evaluated pairs, with
    w = v1, v2, v1+v2, -(v1+v2) = v3, v1-v2 or v2-v1 for the kinds "v1",
    "v2", "sum", "nsum", "diff" and "ndiff"; ``distinct`` is False where
    v1 = v2 (= v3), which is degenerate for the triple conditions.
    """
    for name in FAMILY_NAMES:
        x = rd_at(name, "v1") + rd_at(name, "v2")
        a3 = rd_at(name, "nsum")
        yield distinct & (x - 2 * a3 == target)  # triple-minus
        yield distinct & (x + a3 == target)  # triple-plus
    for f1, f2, sum_op, diff_op in _MIXED_PAIRS:
        x = rd_at(*sum_op) + rd_at(*diff_op)
        a1, a2 = rd_at(f1, "v1"), rd_at(f2, "v2")
        yield x - 2 * a1 + a2 == target  # (F1, F2) at (v1, v2)
        yield x - 2 * a2 + a1 == target  # (F2, F1) at (v2, v1)


def _witness(m: int, key: int) -> SpectralWitness:
    """The violation a scan-order key encodes, with the covering codeword
    pair it certifies."""
    K, H, stride = _key_layout(m)
    hi1, rest = divmod(int(key), _COMPARISONS * stride)
    c, rest = divmod(rest, stride)
    lo1, rest = divmod(rest, K * H)
    lo2, hi2 = divmod(rest, H)
    v1, v2 = lo1 + K * hi1, lo2 + K * hi2
    if c < 8:
        name = FAMILY_NAMES[c // 2]
        u, r = FAMILY_TO_UR[name]
        v3 = gf3.sub_index(m, gf3.neg_index(m, v1), v2)
        if _CONDITION_OF[c] == "triple-minus":
            pair = ((u, r, gf3.neg_index(m, v3)), (u, r, gf3.neg_index(m, v1)))
        else:
            pair = ((0, 0, gf3.sub_index(m, v2, v3)), (u, r, gf3.neg_index(m, v3)))
        return SpectralWitness(_CONDITION_OF[c], (name,), (v1, v2, v3), pair)
    k, order = divmod(c - 8, 2)
    f1, f2 = _MIXED_PAIRS[k][:2]
    if order:
        f1, f2, v1, v2 = f2, f1, v2, v1
    (u1, r1), (u2, r2) = FAMILY_TO_UR[f1], FAMILY_TO_UR[f2]
    pair = ((u1, r1, gf3.neg_index(m, v1)), (u2, r2, gf3.neg_index(m, v2)))
    return SpectralWitness("mixed-pair", (f1, f2), (v1, v2), pair)


def _sweep_checks(m: int, condition: str | None, key: int | None) -> int:
    """Checks of the comparisons of ``condition`` (None: all three) in scan
    order, up to and including the (block, comparison) of ``key``, or over
    all pairs when ``key`` is None.

    A (block, comparison) counts K*3^m checks, less the K degenerate pairs
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


def _verdict(
    m: int, key_batches, exhaustive: bool, per_condition: bool, max_witnesses: int
) -> MinimalityVerdict:
    """The verdict for the violations with the scan-order keys in
    ``key_batches`` (int64 arrays, in any order, repeats allowed).  The
    keys must hold every violation, or at least every one the mode reports.

    Default mode reports the smallest key, ``per_condition`` the smallest
    key of each condition, and ``exhaustive`` the ``max_witnesses``
    smallest unique keys.  The checks are those of a scan that stops at
    the comparison of the last reported witness (with ``per_condition``,
    that drops each condition at the comparison of its witness), and of
    all pairs when nothing stops it: no violation, or fewer than
    ``max_witnesses`` in an exhaustive run.
    """
    _, _, stride = _key_layout(m)
    first: dict[str, int] = {}  # condition -> its smallest key
    kept = np.zeros(0, np.int64)  # exhaustive: the smallest unique keys
    for keys in key_batches:
        if exhaustive:  # sort, then drop repeats: numpy 2's hashing np.unique is ~50x slower on int64
            kept = np.sort(np.concatenate([kept, keys]))
            kept = kept[np.diff(kept, prepend=-1) != 0][:max_witnesses]
        else:
            cond_of_key = np.take(_CONDITION_OF, keys // stride % _COMPARISONS)
            for cond in ALL_CONDITIONS:
                hits = keys[cond_of_key == cond]
                if hits.size:
                    key = int(hits.min())
                    first[cond] = min(key, first.get(cond, key))
    if exhaustive:
        reported = kept.tolist()
        checks = _sweep_checks(m, None, reported[-1] if len(reported) == max_witnesses else None)
    elif per_condition:
        reported = sorted(first.values())
        checks = sum(_sweep_checks(m, cond, first.get(cond)) for cond in ALL_CONDITIONS)
    else:
        reported = sorted(first.values())[:1]
        checks = _sweep_checks(m, None, reported[0] if reported else None)
    witnesses = [_witness(m, key) for key in reported]
    return MinimalityVerdict(not witnesses, "spectral", witnesses, checks)


# default witness cap of an exhaustive run
MAX_WITNESSES = 1000


def _check_cap(exhaustive: bool, max_witnesses: int) -> None:
    # with no witness to report, a non-minimal code would read as minimal
    if exhaustive and max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, got {max_witnesses}")


# ---------------------------------------------------------------------------
# Orbit pre-check for weight-symmetric spectra
# ---------------------------------------------------------------------------


def orbit_violations(spec: CodeSpec) -> set[str] | None:
    """The conditions some (v1, v2) orbit violates, or None if the spectra
    are not all constant on Hamming-weight classes.

    Evaluates the 20 comparisons of :func:`_comparisons`, once
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
    w_sum, w_diff = na + nb + nc, na + nb + nd  # wt(v3) = wt(v1+v2)
    # RD(-F, w) = RD(F, -w) and wt(-w) = wt(w): the signs of the kinds drop out
    w_of = {"v1": na + nc + nd, "v2": nb + nc + nd, "sum": w_sum, "nsum": w_sum, "diff": w_diff, "ndiff": w_diff}
    distinct = (na + nb + nd) > 0  # v1 = v2 (= v3) exactly when na = nb = nd = 0
    # rd_w is int32 like the spectra; every sum is at most 10*3^m in
    # absolute value, which fits by the ``10 * 3**gf3.MAX_M < 2**31`` assert
    masks = _comparisons(2 * gf3.pow3(m), lambda name, kind: rd_w[name][w_of[kind]], distinct)
    return {_CONDITION_OF[c] for c, mask in enumerate(masks) if mask.any()}


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
# pairs (v1, v2) per line evaluation, one per line kind per (p, j): several
# points' lines at small m, a slice of one point's lines at large m.  A
# batch allocates about 36 bytes per pair (two int64 index gathers, 16
# int32 operands and one line's temporaries per (p, j)), so 2^18 pairs take
# about 9 MB.  Each line kind makes 20 comparisons per batch: at 2^14 the
# scan took twice as long at m = 12, and at 2^16 4-17% longer at m = 10-13.
_LINE_BATCH = 1 << 18


# The whole-space cover needs 3^m <= 4|P| and |P| <= 200 (25 heavy shifts
# per member and their negations), so m <= 6: its cached add and sub
# tables hold indices below 3^6 < 2^31, at most 2 * 3^12 int32 (4.3 MB).
_MAX_POINTS = 2 * len(FAMILY_NAMES) * _MAX_HEAVY


@lru_cache(maxsize=None)
def _space_index_rows(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``gf3.add_perm_rows`` and ``sub_perm_rows`` of every point of F_3^m,
    in int32: the rows the whole-space cover reads."""
    if gf3.pow3(m) > 4 * _MAX_POINTS:
        raise CapacityError(f"the whole-space cover needs 3^m <= {4 * _MAX_POINTS}, got m={m}")
    points = np.arange(gf3.pow3(m))
    tables = tuple(rows(m, points).astype(np.int32) for rows in (gf3.add_perm_rows, gf3.sub_perm_rows))
    for table in tables:
        table.setflags(write=False)
    return tables


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


# The argument of each operand kind of _comparisons on the four lines through
# p, with j running over F_3^m (2j = -j, so 2j-p = -(p+j)).
_LINES = (
    {"v1": "p", "v2": "j", "sum": "p+j", "diff": "p-j", "nsum": "-(p+j)", "ndiff": "-(p-j)"},  # v1 = p
    {"v1": "j", "v2": "p", "sum": "p+j", "diff": "-(p-j)", "nsum": "-(p+j)", "ndiff": "p-j"},  # v2 = p
    {"v1": "j", "v2": "p-j", "sum": "p", "diff": "-(p+j)", "nsum": "-p", "ndiff": "p+j"},  # v1+v2 = p
    {"v1": "j", "v2": "-(p-j)", "sum": "-(p+j)", "diff": "p", "nsum": "p+j", "ndiff": "-p"},  # v1-v2 = p
)


def _line_keys(spec: CodeSpec, lines, points: np.ndarray):
    """Evaluate the 20 block comparisons on the lines of the kinds ``lines``
    (entries of ``_LINES``) through ``points``.

    A violation has a heavy operand argument (see ``_MAX_HEAVY``), which is
    one of v1, v2, +/-(v1+v2) and +/-(v1-v2) (v3 = -(v1+v2)).  With P = -P,
    the pair (v1, v2) lies on one of the lines v1 = p, v2 = p, v1+v2 = p
    and v1-v2 = p for some p in P, each holding 3^m pairs; the lines v1 = p
    for every p in F_3^m hold each pair once.  On all four kinds, every
    operand of member F is RD(F, w) at one of the seven arguments of
    ``_LINES``: a slice at j, a gather at each of +/-(p+j) and +/-(p-j),
    and a scalar per point at +/-p.  So per batch each member's RD is read
    once per argument, and the line kinds share those reads.

    When ``points`` is all of F_3^m (the whole-space cover), the add and
    sub rows come from the cached :func:`_space_index_rows`.

    Yields (points done, keys) per batch, a hit of comparison c at (v1, v2)
    keyed by its place in the scan order (see :func:`_key_layout`).
    Keys are below 20*3^(2m) < 2^63 for m <= 16, and operand sums
    stay in int32 by the bound above ``_BLOCK_DIGITS``.  A pair on two
    lines yields its hits twice.
    """
    m = spec.m
    n, T = gf3.pow3(m), 2 * gf3.pow3(m)
    K, H, _ = _key_layout(m)
    neg = gf3.neg_perm(m)
    rd = {name: spec.spectra[name].rd for name in FAMILY_NAMES}
    j_all = np.arange(n)
    per_batch = max(1, _LINE_BATCH // (len(lines) * n))  # points per batch
    seg = min(n, _LINE_BATCH // len(lines))  # j per batch when one point's lines do not fit
    space = _space_index_rows(m) if len(points) == n else None
    for i0 in range(0, len(points), per_batch):
        pts = points[i0 : i0 + per_batch]
        if space is None:
            add, sub = gf3.add_perm_rows(m, pts), gf3.sub_perm_rows(m, pts)  # p+j, p-j
        else:
            add, sub = (rows[i0 : i0 + per_batch] for rows in space)
        for j0 in range(0, n, seg):
            js = slice(j0, j0 + seg)
            a, s = add[:, js], sub[:, js]
            arg = {"j": j_all[js], "p": pts[:, None], "-p": neg[pts][:, None],
                   "p+j": a, "p-j": s, "-(p+j)": neg[a], "-(p-j)": neg[s]}
            ops = {name: {w: r[js] if w == "j" else r[v] for w, v in arg.items()} for name, r in rd.items()}
            keys = [np.zeros(0, np.int64)]
            for line in lines:
                v1, v2 = np.broadcast_arrays(arg[line["v1"]], arg[line["v2"]])
                masks = _comparisons(T, lambda name, kind: ops[name][line[kind]], v1 != v2)
                for c, mask in enumerate(masks):
                    if mask.any():
                        w1, w2 = v1[mask], v2[mask]
                        keys.append((((w1 // K * _COMPARISONS + c) * K + w1 % K) * K + w2 % K) * H + w2 // K)
            yield i0 + len(pts) if j0 + seg >= n else i0, np.concatenate(keys)


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

    Default mode reports the first violation in scan order (see the module
    docstring), ``per_condition`` the first of each condition, and
    ``exhaustive`` the first ``max_witnesses``; the check count is that of
    a scan stopping at the comparison of the last one reported, and
    20*3^(2m) - 8*3^m in every mode when none is.  When the orbit
    pre-check finds weight-symmetric spectra and no violated orbit, the
    clean verdict is returned at once.  Otherwise line scans decide it in
    every mode, on one process: the four lines through each heavy point,
    or, when those hold at least the 3^(2m) pairs of the whole criterion
    (3^m <= 4|P|), the lines v1 = p through every point p, which hold each
    pair once.  ``processes`` is ignored; the perfbench workloads still
    pass it.  ``budget_seconds`` caps wall-clock time: a budget spent
    before the line scan raises :class:`CapacityError` with
    ``completed_fraction`` 0, one spent during it raises between batches
    with the share of the scanned points done.  A NaN or negative budget
    raises ValueError.
    """
    _check_cap(exhaustive, max_witnesses)
    if budget_seconds is not None and not budget_seconds >= 0:  # NaN fails every comparison
        raise ValueError(f"budget_seconds must be a non-negative number, got {budget_seconds}")
    m = spec.m
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds

    def spent() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    clean_orbits = orbit_violations(spec) == set()
    if spent():
        raise CapacityError("budget exceeded before the heavy-line scan", completed_fraction=0.0)
    if clean_orbits:
        return _verdict(m, [], exhaustive, per_condition, max_witnesses)
    lines, points, what = _LINES, heavy_points(spec), "heavy points"
    if gf3.pow3(m) <= 4 * len(points):
        lines, points, what = _LINES[:1], np.arange(gf3.pow3(m)), "lines v1 = p"

    def line_keys():
        """The line keys, with the budget checked between batches."""
        for done, keys in _line_keys(spec, lines, points):
            yield keys
            if done < len(points) and spent():
                message = f"budget exceeded after {done}/{len(points)} {what}"
                raise CapacityError(message, completed_fraction=done / len(points))

    return _verdict(m, line_keys(), exhaustive, per_condition, max_witnesses)


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
