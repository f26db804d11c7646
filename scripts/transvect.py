#!/usr/bin/env python3
"""Apply one transvection x_a <- x_a + c*x_b to a stored function table.

Reads a table in the two-line text format of ``terncode construct --emit
fg`` and writes the table of F o T, T(x) = x with digit a replaced by
x_a + c*x_b mod 3 (a != b, c in {1, 2}).  T is linear and invertible, so
transvecting f and g alike gives an equivalent code: the same weights, CWE
and minimality.  A non-monomial T moves a weight-symmetric pair off the
weight classes, so its spectra take the count butterfly and the heavy-line
minimality path.  The table is ``terncode.samples.transvect``, which builds
no digit table.

    python scripts/transvect.py --a 0 --b 1 f16.txt > f16t.txt
"""

import argparse
import sys

from terncode.samples import transvect
from terncode.spectrum import TernaryFunction


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
