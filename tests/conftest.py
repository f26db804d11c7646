import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from terncode import gf3, minimality
from terncode.code import FAMILY_NAMES, CodeSpec, validate
from terncode.errors import ValidationError
from terncode.minimality import ALL_CONDITIONS, MAX_WITNESSES, PAIR_ALGEBRA, MinimalityVerdict
from terncode.spectrum import TernaryFunction


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


# pairs (v1, v2) per block of the naive spectral oracle
NAIVE_BLOCK_PAIRS = 2**18


def naive_violations(spec) -> set[tuple]:
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
    return out


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
