#!/usr/bin/env python3
"""Run a command and fail when its peak resident memory exceeds a limit.

The command inherits stdin, stdout and stderr, so its output can be
redirected as usual.  After it exits, one line on stderr gives its wall time
and peak RSS (the largest ``ru_maxrss`` of the command and the processes it
waited for).  The exit code is the command's own when that is nonzero, 1
when the peak exceeds ``--limit-gib``, and 0 otherwise.

    python scripts/max_rss.py --limit-gib 3.3 -- terncode cwe --f f16.txt --g g16.txt > cwe16.txt
"""

import argparse
import resource
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--limit-gib", type=float, required=True, help="fail above this peak RSS, GiB")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="the command to run, after --")
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command given")

    t0 = time.perf_counter()
    rc = subprocess.call(command)
    wall = time.perf_counter() - t0
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    limit_mib = args.limit_gib * 1024
    print(f"max_rss: {peak_mib:.0f} MiB peak (limit {limit_mib:.0f} MiB), {wall:.1f} s: {' '.join(command)}",
          file=sys.stderr)
    if rc:
        return rc
    return 1 if peak_mib > limit_mib else 0


if __name__ == "__main__":
    sys.exit(main())
