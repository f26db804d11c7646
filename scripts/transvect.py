#!/usr/bin/env python3
"""Apply one transvection x_a <- x_a + c*x_b to a stored function table.

Reads a table in the two-line text format of ``terncode construct --emit
fg`` and writes the table of F o T, T(x) = x with digit a replaced by
x_a + c*x_b mod 3 (a != b, c in {1, 2}).  T is linear and invertible, so
transvecting f and g alike gives an equivalent code: the same weights, CWE
and minimality.  A non-monomial T moves a weight-symmetric pair off the
weight classes, so its spectra take the count butterfly and the heavy-line
minimality path.

The image index of x is x + ((x_a + c*x_b) mod 3 - x_a)*3^a, from two digit
extractions of the index; no digit table is built.  The indices are taken
in chunks, so the memory beyond the two tables stays small at m = 16.

    python scripts/transvect.py --a 0 --b 1 f16.txt > f16t.txt
"""

import argparse
import sys

import numpy as np

from terncode import gf3
from terncode.spectrum import TernaryFunction

CHUNK = 1 << 20  # indices per chunk


def transvect(F: TernaryFunction, a: int, b: int, c: int) -> TernaryFunction:
    """The function x -> F(x with x_a replaced by x_a + c*x_b)."""
    n = gf3.pow3(F.m)
    out = np.empty(n, np.int8)
    for start in range(0, n, CHUNK):
        x = np.arange(start, min(start + CHUNK, n), dtype=np.int64)
        x_a = x // gf3.pow3(a) % 3
        image = x + ((x_a + c * (x // gf3.pow3(b) % 3)) % 3 - x_a) * gf3.pow3(a)
        out[start : start + x.size] = F.table[image]
    return TernaryFunction(F.m, out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("table", help="function table file (two-line text format)")
    ap.add_argument("--a", type=int, required=True, help="the digit that changes")
    ap.add_argument("--b", type=int, required=True, help="the digit added to it")
    ap.add_argument("--c", type=int, choices=(1, 2), default=1, help="the multiple of x_b added (default 1)")
    args = ap.parse_args()
    with open(args.table) as fh:
        F = TernaryFunction.from_text(fh.read())
    if not (0 <= args.a < F.m and 0 <= args.b < F.m and args.a != args.b):
        ap.error(f"--a and --b must be distinct digits in [0, {F.m})")
    sys.stdout.write(transvect(F, args.a, args.b, args.c).to_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
