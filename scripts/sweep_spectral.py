#!/usr/bin/env python3
"""Certify minimality over admissible (k1, k2) windows of the shell construction.

Runs the spectral criterion per window and prints a per-condition report.
The shell codes are weight-symmetric, so a window whose orbits are all
clean certifies in milliseconds (see terncode.minimality).  A window with
a violated condition is decided on the lines through its heavy shifts,
which hold every violation: O(3^m) pairs per heavy shift, one process,
never all 3^(2m) shift pairs.  Use --budget to bound a run.

    python scripts/sweep_spectral.py --m 9
    python scripts/sweep_spectral.py --m 10 11
    python scripts/sweep_spectral.py --m 12 --budget 60
"""

import argparse
import time

from terncode.errors import CapacityError
from terncode.hwconstruct import admissible_params, build_spec
from terncode.minimality import ALL_CONDITIONS, spectral_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--m", type=int, nargs="+", default=[9], help="dimensions to sweep")
    ap.add_argument("--budget", type=float, default=None, help="wall-clock cap per window, seconds")
    args = ap.parse_args()

    all_ok = True
    for m in args.m:
        windows = admissible_params(m)
        if not windows:
            print(f"m={m}: no admissible (k1, k2) window")
            continue
        for p in windows:
            t0 = time.time()
            spec = build_spec(p)
            try:
                verdict = spectral_check(spec, per_condition=True, budget_seconds=args.budget)
            except CapacityError as exc:
                print(f"(m={p.m}, k1={p.k1}, k2={p.k2}): BUDGET EXCEEDED "
                      f"({exc.completed_fraction:.1%} scanned)")
                all_ok = False
                continue
            violated = {w.condition for w in verdict.witnesses}
            conditions = ", ".join(f"{c} {'VIOLATED' if c in violated else 'ok'}" for c in ALL_CONDITIONS)
            print(
                f"(m={p.m}, k1={p.k1}, k2={p.k2}): {'minimal' if verdict.minimal else 'NOT MINIMAL'} "
                f"[{conditions}] {verdict.checks:,} checks in {time.time() - t0:.0f}s"
            )
            all_ok = all_ok and verdict.minimal
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
