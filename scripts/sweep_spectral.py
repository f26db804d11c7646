#!/usr/bin/env python3
"""Certify minimality over admissible (k1, k2) windows of the shell construction.

Runs the spectral criterion per window and prints a per-condition report.
The shell codes are weight-symmetric, so a window whose orbits are all
clean certifies in milliseconds (see terncode.minimality).  A window with
a violated condition falls back to the full sweep, whose cost grows as
3^(2m): with two processes on a 2-core machine a clean sweep takes about
9 s at m = 9 and 84 s at m = 10, and each further m multiplies that by
about nine.  Use --budget to bound a run.

    python scripts/sweep_spectral.py --m 9
    python scripts/sweep_spectral.py --m 10 --threads 8
    python scripts/sweep_spectral.py --m 11 --budget 36000
"""

import argparse
import time

from terncode.errors import CapacityError
from terncode.hwconstruct import admissible_params, build_spec, condition_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--m", type=int, nargs="+", default=[9], help="dimensions to sweep")
    ap.add_argument("--threads", type=int, default=0, help="worker processes (0 = auto)")
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
                report = condition_report(
                    p,
                    spec=spec,
                    processes=None if args.threads == 0 else args.threads,
                    budget_seconds=args.budget,
                )
            except CapacityError as exc:
                print(f"(m={p.m}, k1={p.k1}, k2={p.k2}): BUDGET EXCEEDED "
                      f"({exc.completed_fraction:.1%} scanned)")
                all_ok = False
                continue
            status = "minimal" if report["minimal"] else "NOT MINIMAL"
            print(
                f"(m={p.m}, k1={p.k1}, k2={p.k2}): {status} "
                f"[triple-minus {'ok' if report['triple_minus'] else 'VIOLATED'}, "
                f"triple-plus {'ok' if report['triple_plus'] else 'VIOLATED'}, "
                f"mixed-pair {'ok' if report['mixed_pair'] else 'VIOLATED'}] "
                f"{report['checks']:,} checks in {time.time() - t0:.0f}s"
            )
            all_ok = all_ok and report["minimal"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
