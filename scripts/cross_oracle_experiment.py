#!/usr/bin/env python3
"""Random cross-validation of the spectral paths against brute force.

Samples valid (f, g) pairs at small m, compares the two minimality
verdicts, and for a non-minimal pair confirms the first spectral witness
and the brute-force oracle's first 20 by materializing each covering
codeword pair.  It also compares the spectral complete weight enumerator
with the one counted from all 9*3^m materialized codewords.  Any
disagreement counts as a mismatch.

Two families per m: uniformly random pairs, and from m = 4 on as many
few-coordinate pairs f(x) = h1(x_0, x_1), g(x) = h2(x_2, x_3).  Random
pairs at m = 4-5 are minimal, so only the few-coordinate pairs, which are
not, give the oracle witnesses to confirm there.

    python scripts/cross_oracle_experiment.py --per-m 500 --m 2 3 4 --seed 1
"""

import argparse
import time

import numpy as np

from terncode import gf3
from terncode.code import CompleteWeightEnumerator, codeword_rows, cwe, validate
from terncode.errors import ValidationError
from terncode.minimality import BRUTEFORCE_MAX_M, confirm_witness, is_minimal_bruteforce, spectral_check
from terncode.spectrum import TernaryFunction


def random_valid_spec(m, rng):
    while True:
        f = TernaryFunction.random(m, rng)
        g = TernaryFunction.random(m, rng)
        try:
            return validate(m, f, g)
        except ValidationError:
            continue


def junta_spec(m, rng):
    """A valid pair f(x) = h1(x_0, x_1), g(x) = h2(x_2, x_3) (m >= 4), for
    random h1, h2 on F_3^2 vanishing at 0."""
    digits = gf3.digits_table(m).astype(np.int64)
    while True:
        h = rng.integers(0, 3, size=(2, 3, 3), dtype=np.int8)
        h[:, 0, 0] = 0
        f = TernaryFunction(m, h[0][digits[0], digits[1]])
        try:
            return validate(m, f, TernaryFunction(m, h[1][digits[2], digits[3]]))
        except ValidationError:
            continue


def materialized_cwe(spec) -> CompleteWeightEnumerator:
    """The CWE counted from every codeword, each row's (N0, N1, N2) one term."""
    words = codeword_rows(spec, np.arange(9 * gf3.pow3(spec.m)))
    counts = np.stack([np.count_nonzero(words == value, axis=1) for value in range(3)], axis=1)
    exponents, mult = np.unique(counts, axis=0, return_counts=True)
    return CompleteWeightEnumerator(dict(zip(map(tuple, exponents.tolist()), mult.tolist())))


def dimension(text: str) -> int:
    m = int(text)
    # validate rejects every pair at m = 1, so the sampler would never stop
    if not 2 <= m <= BRUTEFORCE_MAX_M:
        raise argparse.ArgumentTypeError(f"m must be between 2 and {BRUTEFORCE_MAX_M}, got {m}")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--m", type=dimension, nargs="+", default=[2, 3, 4])
    ap.add_argument("--per-m", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    t0 = time.time()
    mismatches = 0
    for m in args.m:
        families = [("random", random_valid_spec)] + [("few-coordinate", junta_spec)] * (m >= 4)
        tallies = []
        for family, sample in families:
            n_min = n_non = 0
            for _ in range(args.per_m):
                spec = sample(m, rng)
                if cwe(spec) != materialized_cwe(spec):
                    mismatches += 1
                    print(f"MISMATCH at m={m} ({family}): spectral CWE differs from the materialized codewords")
                bf = is_minimal_bruteforce(spec, max_witnesses=20)
                t2 = spectral_check(spec)
                if bf.minimal != t2.minimal:
                    mismatches += 1
                    print(f"MISMATCH at m={m} ({family}): oracle={bf.minimal} spectral={t2.minimal}")
                    continue
                if t2.minimal:
                    n_min += 1
                else:
                    n_non += 1
                    for w in [t2.witnesses[0], *bf.witnesses]:
                        if not confirm_witness(spec, w):
                            mismatches += 1
                            print(f"MISMATCH at m={m} ({family}): witness {w} does not cover")
            tallies.append(f"{family} {n_min} minimal, {n_non} non-minimal")
        print(f"m={m}: {'; '.join(tallies)}; verdicts and CWEs checked")
    print(f"{mismatches} mismatches in {time.time() - t0:.1f}s")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
