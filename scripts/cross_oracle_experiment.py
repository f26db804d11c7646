#!/usr/bin/env python3
"""Random cross-validation of the spectral paths against brute force.

Samples valid (f, g) pairs at small m, compares the two minimality
verdicts, confirms every spectral violation witness by materializing its
covering codeword pair, and compares the spectral complete weight
enumerator with the one counted from all 9*3^m materialized codewords.
Any disagreement counts as a mismatch.

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
        n_min = n_non = 0
        for _ in range(args.per_m):
            spec = random_valid_spec(m, rng)
            if cwe(spec) != materialized_cwe(spec):
                mismatches += 1
                print(f"MISMATCH at m={m}: spectral CWE differs from the materialized codewords")
            bf = is_minimal_bruteforce(spec)
            t2 = spectral_check(spec)
            if bf.minimal != t2.minimal:
                mismatches += 1
                print(f"MISMATCH at m={m}: oracle={bf.minimal} spectral={t2.minimal}")
                continue
            if t2.minimal:
                n_min += 1
            else:
                n_non += 1
                assert confirm_witness(spec, t2.witnesses[0]), "witness failed to cover"
        print(f"m={m}: {n_min} minimal, {n_non} non-minimal, verdicts and CWEs checked")
    print(f"{mismatches} mismatches in {time.time() - t0:.1f}s")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
