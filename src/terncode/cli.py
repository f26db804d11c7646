"""Command-line front end.

Subcommands: kraw, spectrum, construct, weights, cwe, minimality,
verify-example.  Exit codes: 0 success; 1 domain verdict (not minimal, or
hypotheses violated, with JSON detail on stdout); 2 usage error; 3
capacity or budget error.

Function tables travel in a two-line text format: ``m=<int>`` then 3^m
digits from {0,1,2} in enumeration order.  All emitted listings are
sorted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import code as code_mod
from . import gf3, hwconstruct, kraw, minimality, spectrum
from .errors import CapacityError, ValidationError
from .golden_example import GOLDEN_PARAMS, golden_cwe

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load_function(path: str) -> spectrum.TernaryFunction:
    return spectrum.TernaryFunction.from_text(Path(path).read_text())


def _load_pair(args) -> code_mod.CodeSpec:
    f = _load_function(args.f)
    g = _load_function(args.g)
    m = getattr(args, "m", None)
    if m is not None and (f.m != m or g.m != m):
        raise ValidationError(
            f"--m {m} does not match table dimensions ({f.m}, {g.m})", hypothesis="dimension"
        )
    return code_mod.validate(f.m, f, g)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_kraw(args) -> int:
    if args.lloyd:
        if args.k is None:
            raise ValueError("kraw: --lloyd requires --k")
        print(kraw.lloyd(args.k, args.x, args.m, args.h))
    else:
        if args.t is None:
            raise ValueError("kraw: --t is required (or use --lloyd --k)")
        print(kraw.krawtchouk(args.t, args.x, args.m, args.h))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    F = _load_function(args.f)
    sp = spectrum.fast_count_spectrum(F)
    classes = spectrum.spectrum_by_weight_class(sp)
    if args.format == "json":
        _print_json({"m": F.m, "classes": classes})
    elif args.format == "csv":
        print("weight,real_doubled,count")
        for cls in classes:
            for value, count in cls["real_doubled"]:
                print(f"{cls['weight']},{value},{count}")
    else:
        for cls in classes:
            pairs = " ".join(f"{v}x{c}" for v, c in cls["real_doubled"])
            print(f"weight {cls['weight']} (size {cls['class_size']}): {pairs}")
    return EXIT_OK


def _emit_distribution(args, m: int, wd=None, enum=None) -> None:
    if args.format == "json":
        _print_json(code_mod.result_json_obj(m, weights=wd, cwe_terms=enum))
    elif args.format == "csv":
        if wd is not None:
            sys.stdout.write(code_mod.weights_csv(wd))
        if enum is not None:
            sys.stdout.write(code_mod.cwe_csv(enum))
    else:
        print(f"[{gf3.pow3(m) - 1}, {m + 2}] ternary code")
        if wd is not None:
            for w, c in wd.sorted_items():
                print(f"  weight {w}: {c}")
        if enum is not None:
            sys.stdout.writelines(f"  w0^{t0} w1^{t1} w2^{t2}: {c}\n" for t0, t1, t2, c in zip(*enum.columns()))


def _cmd_construct(args) -> int:
    p = hwconstruct.HWParams(args.m, args.k1, args.k2)
    if args.emit == "fg":
        f, g = hwconstruct.build_fg(p)
        if args.out_f or args.out_g:
            if not (args.out_f and args.out_g):
                raise ValueError("construct: --out-f and --out-g go together")
            Path(args.out_f).write_text(f.to_text())
            Path(args.out_g).write_text(g.to_text())
        else:
            sys.stdout.write(f.to_text())
            sys.stdout.write(g.to_text())
        return EXIT_OK
    if args.emit == "weights":
        _emit_distribution(args, p.m, wd=hwconstruct.closed_form_weight_distribution(p))
        return EXIT_OK
    if args.emit == "cwe":
        _emit_distribution(args, p.m, enum=hwconstruct.closed_form_cwe(p))
        return EXIT_OK
    report = hwconstruct.extremes_report(p)
    obj = {
        "m": p.m,
        "k1": p.k1,
        "k2": p.k2,
        "length": gf3.pow3(p.m) - 1,
        "dimension": p.m + 2,
        "shells": {"a": p.a, "b": p.b, "c": p.c, "d": p.d, "e": p.e},
        **report.to_json_obj(),
    }
    if args.format == "json":
        _print_json(obj)
    elif args.format == "csv":
        print("key,value")
        for k, v in obj.items():
            if k == "shells":
                for sk, sv in v.items():
                    print(f"shell_{sk},{sv}")
            else:
                print(f"{k},{v}")
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")
    return EXIT_OK


def _cmd_weights(args) -> int:
    spec = _load_pair(args)
    _emit_distribution(args, spec.m, wd=code_mod.weight_distribution(spec))
    return EXIT_OK


def _cmd_cwe(args) -> int:
    spec = _load_pair(args)
    _emit_distribution(args, spec.m, enum=code_mod.cwe(spec))
    return EXIT_OK


def _cmd_minimality(args) -> int:
    spec = _load_pair(args)
    verdicts = {}
    # the oracle first: it refuses m > 5 before any spectral work is spent
    oracle = minimality.is_minimal_bruteforce(spec) if args.method in ("oracle", "both") else None
    if args.method in ("spectral", "both"):
        verdicts["spectral"] = minimality.spectral_check(
            spec,
            exhaustive=args.exhaustive,
            budget_seconds=args.budget,
        )
        if args.exhaustive and len(verdicts["spectral"].witnesses) == minimality.MAX_WITNESSES:
            print(f"terncode: stopped at {minimality.MAX_WITNESSES} violations; more may exist", file=sys.stderr)
    if oracle is not None:
        verdicts["cover-oracle"] = oracle
    obj = {name: v.to_json_obj() for name, v in verdicts.items()}
    if len(verdicts) == 2:
        obj["agree"] = verdicts["spectral"].minimal == verdicts["cover-oracle"].minimal
    _print_json(obj)
    if len(verdicts) == 2 and not obj["agree"]:
        return EXIT_DOMAIN
    return EXIT_OK if all(v.minimal for v in verdicts.values()) else EXIT_DOMAIN


def _cmd_verify_example(args) -> int:
    p = hwconstruct.HWParams(GOLDEN_PARAMS["m"], GOLDEN_PARAMS["k1"], GOLDEN_PARAMS["k2"])
    spec = hwconstruct.build_spec(p)
    report = hwconstruct.extremes_report(p)
    wd = code_mod.weight_distribution(spec)
    enum = code_mod.cwe(spec)
    golden = golden_cwe()
    checks = {
        "length": spec.length == GOLDEN_PARAMS["length"],
        "dimension": spec.dimension == GOLDEN_PARAMS["dimension"],
        "wmin": wd.min_nonzero() == GOLDEN_PARAMS["wmin"] == report.wmin,
        "wmax": wd.max_weight() == GOLDEN_PARAMS["wmax"] == report.wmax,
        "ashikhmin_barg_violated": not report.ab_satisfied,
        "cwe_transform_equals_golden": enum == golden,
        "cwe_closed_form_equals_golden": hwconstruct.closed_form_cwe(p) == golden,
        "weights_closed_form_equals_transform": hwconstruct.closed_form_weight_distribution(p) == wd,
    }
    ok = all(checks.values())
    _print_json({"example": GOLDEN_PARAMS, "checks": checks, "ok": ok})
    return EXIT_OK if ok else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terncode",
        description="Exact weight enumeration and minimality certification for ternary codes "
        "built from pairs of functions on GF(3)^m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")

    p = sub.add_parser("kraw", help="evaluate a Krawtchouk (or Lloyd) polynomial")
    p.add_argument("--t", type=int, default=None, help="Krawtchouk degree")
    p.add_argument("--k", type=int, default=None, help="Lloyd degree (with --lloyd)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h", type=int, default=3)
    p.add_argument("--lloyd", action="store_true")
    p.set_defaults(handler=_cmd_kraw)

    p = sub.add_parser("spectrum", help="per-weight-class doubled real parts of a function's transform")
    p.add_argument("--f", required=True, help="function table path")
    add_format(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("construct", help="build the weight-shell code and emit its closed forms")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--emit", choices=["report", "fg", "weights", "cwe"], default="report")
    p.add_argument("--out-f", default=None, help="write f's table here instead of stdout")
    p.add_argument("--out-g", default=None, help="write g's table here instead of stdout")
    add_format(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("weights", help="transform-path weight distribution of the code of (f, g)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("cwe", help="transform-path complete weight enumerator of the code of (f, g)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_cwe)

    p = sub.add_parser("minimality", help="certify minimality of the code of (f, g)")
    p.add_argument("--method", choices=["oracle", "spectral", "both"], default="spectral")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--exhaustive", action="store_true", help=f"collect up to {minimality.MAX_WITNESSES} violations")
    p.add_argument("--budget", type=float, default=None, help="wall-clock cap in seconds")
    p.set_defaults(handler=_cmd_minimality)

    p = sub.add_parser("verify-example", help="recompute the (9, 2, 4) example against golden data")
    p.set_defaults(handler=_cmd_verify_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        _print_json(exc.to_json_obj())
        return EXIT_DOMAIN
    except CapacityError as exc:
        _print_json(
            {
                "error": "capacity",
                "message": str(exc),
                "completed_fraction": exc.completed_fraction,
            }
        )
        return EXIT_CAPACITY
    except (OSError, ValueError) as exc:
        print(f"terncode: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
