import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from terncode import gf3, minimality
from terncode.code import FAMILY_NAMES, CodeSpec, codeword_rows, validate
from terncode.errors import CapacityError, ValidationError
from terncode.minimality import ALL_CONDITIONS, MAX_WITNESSES, PAIR_ALGEBRA, MinimalityVerdict
from terncode.spectrum import CountSpectrum, TernaryFunction


@lru_cache(maxsize=8)
def dot_matrix(m: int) -> np.ndarray:
    """(3^m, 3^m) int8 matrix of v_i . v_j mod 3.  Small-m oracle helper only."""
    gf3.check_dimension(m)
    if m > 8:
        raise CapacityError(f"dot_matrix is a small-m helper (m <= 8), got m={m}")
    digits = gf3.digits_table(m)
    out = digits.T @ digits  # int8: at most m*4 = 32
    out %= 3
    out.setflags(write=False)
    return out


def naive_count_spectrum(F: TernaryFunction) -> CountSpectrum:
    """Direct per-shift counting of F(x) - w.x values.  The small-m oracle."""
    m = F.m
    if m > 8:
        raise CapacityError(f"naive transform is the small-m oracle (m <= 8), got m={m}")
    dots = dot_matrix(m)  # dots[w, x] = w.x mod 3
    vals = (F.table[None, :].astype(np.int16) - dots) % 3
    return CountSpectrum(m, np.count_nonzero(vals == 1, axis=1), np.count_nonzero(vals == 2, axis=1))


def parseval_sum(sp: CountSpectrum) -> int:
    """sum_w |F_hat(w)|^2 from the counts: |F_hat(w)|^2 = N0^2 + N1^2 + N2^2 -
    N0*N1 - N1*N2 - N2*N0.  Equals 3^(2m) for every function."""
    n0, n1, n2 = sp.n0, sp.n1.astype(np.int64), sp.n2.astype(np.int64)
    return int((n0 * n0 + n1 * n1 + n2 * n2 - n0 * n1 - n1 * n2 - n2 * n0).sum())


def all_codewords(spec: CodeSpec) -> np.ndarray:
    """All 3^(m+2) codewords, row (3u + r)*3^m + v holding c(u, r, v) (m <= 5)."""
    return codeword_rows(spec, np.arange(9 * gf3.pow3(spec.m)))


# Rejection samplers give up after this many draws.  At m = 1 every pair
# fails validate; at m >= 2 more than half the draws pass.
MAX_DRAWS = 1000


def _first_valid(m: int, draw) -> CodeSpec:
    """The first ``draw()`` that does not raise ValidationError."""
    for _ in range(MAX_DRAWS):
        try:
            return draw()
        except ValidationError:
            continue
    raise RuntimeError(f"no valid pair at m={m} in {MAX_DRAWS} draws")


def random_valid_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a pair (f, g) satisfying the construction hypotheses."""
    return _first_valid(m, lambda: validate(m, TernaryFunction.random(m, rng), TernaryFunction.random(m, rng)))


def sparse_random_spec(m: int, rng: np.random.Generator, support: int = 3) -> CodeSpec:
    """Rejection-sample a valid pair whose f is nonzero at ``support`` random
    points and whose g is uniform.  The word of f has low weight and lies
    inside many linear words, so such codes are in practice not minimal."""

    def draw() -> CodeSpec:
        f = np.zeros(gf3.pow3(m), dtype=np.int8)
        f[rng.choice(np.arange(1, gf3.pow3(m)), size=support, replace=False)] = rng.integers(1, 3, size=support)
        return validate(m, TernaryFunction(m, f), TernaryFunction.random(m, rng))

    return _first_valid(m, draw)


def junta_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a valid pair f(x) = h1(x_0, x_1), g(x) = h2(x_2, x_3)
    (m >= 4) for random h1, h2 on F_3^2 vanishing at 0.  Each spectrum lives
    on a few shifts, so such pairs have many heavy points."""
    digits = gf3.digits_table(m).astype(np.int64)

    def draw() -> CodeSpec:
        h = rng.integers(0, 3, size=(2, 3, 3), dtype=np.int8)
        h[:, 0, 0] = 0
        f = TernaryFunction(m, h[0][digits[0], digits[1]])
        return validate(m, f, TernaryFunction(m, h[1][digits[2], digits[3]]))

    return _first_valid(m, draw)


def weight_symmetric_spec(m: int, f_by_weight, g_by_weight) -> CodeSpec:
    """The code of f(x) = f_by_weight[wt(x)], g(x) = g_by_weight[wt(x)]."""
    weights = gf3.weights_table(m)
    f = TernaryFunction(m, np.asarray(f_by_weight)[weights])
    g = TernaryFunction(m, np.asarray(g_by_weight)[weights])
    return validate(m, f, g)


def random_weight_symmetric_spec(m: int, rng: np.random.Generator) -> CodeSpec:
    """Rejection-sample a valid pair whose f and g are functions of wt(x)."""

    def draw() -> CodeSpec:
        by_weight = rng.integers(0, 3, size=(2, m + 1))
        by_weight[:, 0] = 0
        return weight_symmetric_spec(m, *by_weight)

    return _first_valid(m, draw)


def shell_spec(m: int, k1: int, k2: int) -> CodeSpec:
    """The Hamming-weight-shell pair of ``hwconstruct.build_fg``, at any m."""
    f = [int(1 <= i <= k2 and i != k1) for i in range(m + 1)]
    g = [1 if k1 <= i < k2 else 2 if i == k2 else 0 for i in range(m + 1)]
    return weight_symmetric_spec(m, f, g)


def scrambled_spec(spec: CodeSpec, a: np.ndarray) -> CodeSpec:
    """The code of (f o A, g o A) for an invertible m x m matrix A over F_3.

    It is permutation-equivalent to ``spec`` (same weights, CWE and
    minimality), but for a non-monomial A its spectra are no longer
    constant on Hamming-weight classes.
    """
    m = spec.m
    digits = gf3.digits_table(m).astype(np.int64)
    perm = ((a @ digits) % 3 * 3 ** np.arange(m)[:, None]).sum(axis=0)
    return validate(m, TernaryFunction(m, spec.f.table[perm]), TernaryFunction(m, spec.g.table[perm]))


def dict_cwe_terms(spec: CodeSpec) -> dict[tuple[int, int, int], int]:
    """The CWE terms merged one term at a time into a dict, from the same
    per-member run counts as ``code.cwe``.  The reference for its array merge."""
    m = spec.m
    total = gf3.pow3(m)
    terms: dict[tuple[int, int, int], int] = {(total - 1, 0, 0): 1}
    simplex = (3 ** (m - 1) - 1, 3 ** (m - 1), 3 ** (m - 1))
    terms[simplex] = terms.get(simplex, 0) + total - 1
    # key = -rd*(3^m + 1) + N1 is one-to-one in (N1, N2), since 0 <= N1 <= 3^m
    # and N1 + N2 = (2*3^m - rd)/3; it decodes as rd = -(key // (3^m + 1)),
    # N1 = key % (3^m + 1).  t0 is implied: N0 = 3^m - N1 - N2 (the
    # CountSpectrum checks N1 + N2 <= 3^m), less the x = 0 coordinate, always
    # of value 0.
    base = total + 1
    # one int64 key buffer and one run-start mask serve all four members;
    # the keys are built and sorted in place
    keys = np.empty(total, np.int64)
    run_start = np.empty(total, bool)
    run_start[0] = True
    for name in FAMILY_NAMES:
        sp = spec.spectra[name]
        np.multiply(sp.rd, -base, out=keys, dtype=np.int64)
        keys += sp.n1
        keys.sort()
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        counts = np.diff(starts, append=total)
        neg_rd, n1 = np.divmod(keys[starts], base)
        n2 = (2 * total + neg_rd) // 3 - n1
        for t1, t2, c in zip(n1.tolist(), n2.tolist(), counts.tolist()):
            t0 = total - 1 - t1 - t2
            for key in ((t0, t1, t2), (t0, t2, t1)):
                terms[key] = terms.get(key, 0) + c
    return terms


def dict_weight_marginal(terms: dict[tuple[int, int, int], int]) -> dict[int, int]:
    """Weight -> multiplicity of CWE ``terms``, summed one term at a time."""
    entries: dict[int, int] = {}
    for (t0, t1, t2), mult in terms.items():
        w = t1 + t2
        entries[w] = entries.get(w, 0) + mult
    return entries


# pairs (v1, v2) per block of the naive spectral oracle
NAIVE_BLOCK_PAIRS = 2**18


@lru_cache(maxsize=8)  # a CodeSpec hashes by identity, and the cache keeps it alive
def naive_violations(spec) -> frozenset[tuple]:
    """Every violation of the three spectral conditions, written out from
    their definition over all 3^(2m) pairs (v1, v2), in blocks of v1 rows.

    A violation is (condition, functions, vectors): ("triple-minus" or
    "triple-plus", (F,), (v1, v2, v3)) with v3 = -(v1+v2) and v1 != v2, or
    ("mixed-pair", (F1, F2), (v1, v2)) for each ordered pair of members.
    """
    m = spec.m
    n, target = gf3.pow3(m), 2 * gf3.pow3(m)
    neg = gf3.neg_perm(m)
    rd = {name: spec.spectra[name].rd for name in FAMILY_NAMES}
    rows_per_block = max(1, NAIVE_BLOCK_PAIRS // n)
    out = set()
    for start in range(0, n, rows_per_block):
        rows = np.arange(start, min(start + rows_per_block, n))
        # index tables of +/-(v1+v2) and +/-(v1-v2) by sign, row v1 - start, column v2
        args = {1: (gf3.add_perm_rows(m, rows), gf3.sub_perm_rows(m, rows)),
                -1: (gf3.sub_perm_rows(m, neg[rows]), gf3.add_perm_rows(m, neg[rows]))}
        # RD(F, sign*(v1+v2)) and RD(F, sign*(v1-v2)), each gathered once
        at = {(name, sign): (r[s], r[d]) for name, r in rd.items() for sign, (s, d) in args.items()}

        def hits(mask):
            """(v1, v2) where ``mask`` holds."""
            if not mask.any():
                return []
            i, j = np.nonzero(mask)
            return zip((i + start).tolist(), j.tolist())

        i_v3 = args[-1][0]
        for name, r in rd.items():
            x, a3 = r[rows, None] + r[None, :], at[name, -1][0]
            for cond, lhs in (("triple-minus", x - 2 * a3), ("triple-plus", x + a3)):
                out |= {(cond, (name,), (i, j, int(i_v3[i - start, j])))
                        for i, j in hits(lhs == target) if i != j}
        for f1, f2, (s, s_sign), (d, d_sign) in PAIR_ALGEBRA:
            # RD(F1+F2, v1+v2) + RD(F1-F2, v1-v2) - 2*RD(F1, v1) + RD(F2, v2) = T,
            # with RD(F1, v1) moved right so that one side is over v1 alone
            lhs = at[s, s_sign][0] + at[d, d_sign][1]
            lhs += rd[f2]
            out |= {("mixed-pair", (f1, f2), (i, j)) for i, j in hits(lhs == target + 2 * rd[f1][rows, None])}
    return frozenset(out)


def scan_position(m: int, violation: tuple) -> tuple[int, ...]:
    """Where the scan order meets a violation: (v1 // K, c, v1 % K, v2 % K,
    v2 // K) with K = 3^min(3, m), c its comparison and (v1, v2) the pair
    the comparison runs over (the swapped vectors for the (F2, F1) order)."""
    K = 3 ** min(3, m)
    condition, functions, vectors = violation
    if condition != "mixed-pair":
        c = 2 * FAMILY_NAMES.index(functions[0]) + (condition == "triple-plus")
        v1, v2 = vectors[:2]
    else:
        pairs = [pair[:2] for pair in minimality._MIXED_PAIRS]
        if functions in pairs:
            c, (v1, v2) = 8 + 2 * pairs.index(functions), vectors
        else:
            c, (v2, v1) = 9 + 2 * pairs.index(functions[::-1]), vectors
    return (v1 // K, c, v1 % K, v2 % K, v2 // K)


def checks_up_to(m: int, stop: tuple | None, conditions) -> int:
    """Checks of the comparisons of ``conditions`` that a scan stopping at
    the comparison of violation ``stop`` (None: not stopping) makes: K*3^m
    per comparison, less the K pairs v1 = v2 for a triple comparison."""
    K = 3 ** min(3, m)
    last = None if stop is None else scan_position(m, stop)[:2]
    total = 0
    for block in range(3**m // K):
        for c in range(20):
            if last is not None and (block, c) > last:
                return total
            condition = ("triple-minus", "triple-plus")[c % 2] if c < 8 else "mixed-pair"
            if condition in conditions:
                total += K * 3**m - (K if c < 8 else 0)
    return total


def reference_verdict(
    spec, *, exhaustive: bool = False, per_condition: bool = False, max_witnesses: int = MAX_WITNESSES
) -> MinimalityVerdict:
    """The verdict ``spectral_check`` must return, from ``naive_violations``.

    The violations in scan order; default mode reports the first,
    ``per_condition`` the first of each condition and ``exhaustive`` the
    first ``max_witnesses``, and the checks are those of a scan stopping
    at the last one reported (all checks when nothing stops it).  Each
    witness is ``minimality._witness`` of its scan-order key, which must
    decode back to the violation.
    """
    m = spec.m
    order = sorted(naive_violations(spec), key=lambda v: scan_position(m, v))
    if exhaustive:
        reported = order[:max_witnesses]
        checks = checks_up_to(m, reported[-1] if len(reported) == max_witnesses else None, ALL_CONDITIONS)
    elif per_condition:
        firsts = {}
        for v in order:
            firsts.setdefault(v[0], v)
        reported = list(firsts.values())  # first seen first: in scan order
        checks = sum(checks_up_to(m, firsts.get(cond), {cond}) for cond in ALL_CONDITIONS)
    else:
        reported = order[:1]
        checks = checks_up_to(m, order[0] if order else None, ALL_CONDITIONS)
    K = 3 ** min(3, m)
    H = 3**m // K
    witnesses = []
    for v in reported:
        block, c, lo1, lo2, hi2 = scan_position(m, v)
        w = minimality._witness(m, (((block * 20 + c) * K + lo1) * K + lo2) * H + hi2)
        assert (w.condition, w.functions, w.vectors) == v
        witnesses.append(w)
    return MinimalityVerdict(not witnesses, "spectral", witnesses, checks)
