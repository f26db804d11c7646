"""terncode benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-shell --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the same checkout and treated as a
black box.  A run sets up its inputs from the seed, passes the
``verify-example`` golden gate, then repeats the workload's unit of work for
``--seconds`` seconds, checking every answer.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The line before it records the environment, the sample
count and quartiles of ``run_s``, and where each per-layer value came from.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("certify-shell", "certify-scrambled", "enumerate-shell", "screen-random")
THREADS_ENV_VAR = "TERNCODE_THREADS"
SETUP_SAMPLES = 5  # set-up runs per result: this process plus fresh interpreters

SPAN_METRICS = (
    "gf3.tables", "gf3.gather", "spectrum.transform", "spectrum.table_io",
    "code.validate", "code.weight_distribution", "code.cwe",
    "minimality.spectral_check", "minimality.bruteforce", "minimality.confirm_witness",
    "hwconstruct.build_fg", "hwconstruct.closed_form",
    "cli.construct", "cli.weights", "cli.cwe",
)
COUNT_METRICS = {
    "gf3.gather_bytes": "B",
    "spectrum.transform_bytes": "B",
    "code.cwe.terms": "count",
    "minimality.checks": "count",
    "minimality.bruteforce.checks": "count",
    "cli.stdout_bytes": "B",
}


def import_library():
    """Import terncode from this checkout's ``src/``; exit 2 when it is not there."""
    if not (SRC / "terncode" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library source at {SRC / 'terncode'}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import terncode

    if Path(terncode.__file__).resolve().parent != SRC / "terncode":
        sys.stderr.write(f"perfbench: imported terncode from {terncode.__file__}, not {SRC}\n")
        raise SystemExit(2)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest reaped child, MiB.

    Pool workers are forked and share the parent's pages, so summing the
    two would count those pages twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def cache_sizes() -> dict:
    """Data and unified cache sizes in bytes, as ``getconf`` reports them."""
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("_CACHE_SIZE") and "ICACHE" not in key and value.strip():
            out[key] = int(value)
    return out


def environment(args, numpy_version: str, inherited: bool, processes: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        THREADS_ENV_VAR: {
            "inherited": inherited,
            "removed_before_import": True,
            "solver_processes_passed": processes,
        },
        "tables": "warm: set-up builds the gf3 tables before any timed iteration",
    }


def setup_in_child(args) -> float:
    """One cold set-up in a fresh interpreter; returns its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(wl, tr, checks, seconds: float, traced_too: bool) -> tuple[list, list, list]:
    """Repeat the workload's unit for ``seconds``.

    Untraced, every iteration is timed as is.  With ``traced_too`` the
    iterations alternate untraced and traced (at least one of each), so the
    tracing overhead is measured in the same run.
    """
    plain: list[float] = []
    traced: list[float] = []
    counts: list[tuple[bool, dict]] = []
    stop = time.perf_counter() + seconds
    i = 0
    while True:
        tr.enabled = traced_too and i % 2 == 1
        t0 = time.perf_counter()
        with tr.span("iteration"):
            c = wl.iterate(i, tr, checks)
        dt = time.perf_counter() - t0
        (traced if tr.enabled else plain).append(dt)
        counts.append((tr.enabled, c))
        i += 1
        if time.perf_counter() >= stop and (traced or not traced_too):
            break
    tr.enabled = traced_too
    return plain, traced, counts


def layer_metrics(tr, plain, traced, counts, probe_out) -> tuple[dict, dict]:
    """Per-layer values: from the traced iterations where the workload makes
    the call, else from the probe pass, else from set-up."""
    iters = [tr.self_times(r) for r in tr.roots("iteration")]
    probe_root = tr.roots("probe")[0]
    probe = tr.self_times(probe_root)
    setup = tr.self_times(tr.roots("setup")[0])
    values: dict[str, tuple[float, str]] = {}
    sources: dict[str, str] = {}
    for name in SPAN_METRICS:
        if any(name in it for it in iters):
            values[f"{name}_s"] = (statistics.median(it.get(name, 0.0) for it in iters), "s")
            sources[name] = "iterations"
        elif name in probe:
            values[f"{name}_s"] = (probe[name], "s")
            sources[name] = "probe"
        else:
            values[f"{name}_s"] = (setup.get(name, 0.0), "s")
            sources[name] = "setup"
    first = counts[0][1]
    for name, unit in COUNT_METRICS.items():
        if name in first:
            values[name] = (first[name], unit)
            sources[name] = "iterations"
        else:
            values[name] = (probe_out.get(name, 0), unit)
            sources[name] = "probe"
    values["code.validate.peak_alloc_mb"] = (probe_out["code.validate.peak_alloc_mb"], "MiB")

    spectral = "minimality.spectral_check"
    if sources[spectral] == "iterations":
        roots = tr.roots("iteration")
        sweep_s = sum(it.get(spectral, 0.0) for it in iters)
        sweep_checks = sum(c["minimality.checks"] for on, c in counts if on)
        cpu = statistics.median(tr.cpu_time(r, spectral) for r in roots)
    else:
        sweep_s = probe[spectral]
        sweep_checks = probe_out["minimality.checks"]
        cpu = tr.cpu_time(probe_root, spectral)
    values["minimality.mchecks_per_s"] = (sweep_checks / sweep_s / 1e6, "Mchecks/s")
    values["minimality.cpu_s"] = (cpu, "s")
    values["minimality.scaling_2p"] = (probe[spectral + "_1p"] / probe[spectral], "ratio")
    ab = first if "ab_pass" in first else probe_out
    values["minimality.ab_decides_ratio"] = (ab["ab_pass"] / ab["pairs"], "ratio")
    sources["minimality.ab_decides_ratio"] = "iterations" if ab is first else "probe"

    traced_median = statistics.median(traced)
    values["trace.run_s"] = (traced_median, "s")
    values["trace.overhead_s"] = (traced_median - statistics.median(plain), "s")
    values["trace.bench_self_s"] = (statistics.median(it.get("iteration", 0.0) for it in iters), "s")
    return values, sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Solver calls pass processes explicitly; the variable must not reach
    # the library or the pool workers either way.
    inherited = os.environ.pop(THREADS_ENV_VAR, None) is not None

    t0 = time.perf_counter()
    import_library()
    import numpy as np

    import workloads
    from spans import Tracer

    tr = Tracer()
    tr.enabled = args.trace == 1
    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, workdir)
    with tr.span("setup"):
        wl.setup(args.seed, tr)
    setup_here = time.perf_counter() - t0
    if args.setup_only:
        print(setup_here)
        return 0

    try:  # the CLI pipelines write their tables under workdir
        checks = workloads.Checks()
        with tr.span("gate"):
            workloads.golden_gate(tr, checks)
        setups = [setup_here]
        if args.trace == 0:
            setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        plain, traced, counts = measure(wl, tr, checks, args.seconds, args.trace == 1)
        if args.trace == 1:
            have = {n for r in tr.roots("iteration") for n in tr.self_times(r)}
            with tr.span("probe"):
                probe_out = workloads.probe_layers(wl, tr, checks, args.seed, workdir, have)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    q1, med, q3 = quartiles(plain)
    details = {
        "workload": args.workload,
        "env": environment(args, np.__version__, inherited, workloads.PROCESSES),
        "run_s": {"median": med, "q1": q1, "q3": q3, "n": len(plain)},
        "setup_s_samples": setups,
        "failed_frac": checks.failed / checks.attempted,
        "failures": checks.failures,
    }
    if args.trace == 1:
        values, details["layer_sources"] = layer_metrics(tr, plain, traced, counts, probe_out)
        details["computed_counts"] = list(COUNT_METRICS)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tr.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = {
            "run_s": (med, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
