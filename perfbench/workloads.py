"""The four benchmark workloads, their answer checks and the layer probes.

A workload builds its inputs from the seed in ``setup`` and then repeats one
unit of work, ``iterate``, for as long as the run lasts.  Every call into
the library sits inside a span named ``<module>.<function>``; spans are
no-ops unless the run is traced.  Every solver call passes
``processes=PROCESSES`` explicitly.

``iterate`` returns the computed counts of its unit (check counts, CWE
terms, ...) and records each answer check in a :class:`Checks`.
"""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np

from terncode import cli, code, gf3, hwconstruct, minimality, spectrum
from terncode.golden_example import GOLDEN_PARAMS

from inputs import random_valid_spec, scrambled_pair, shell_pair
from spans import Tracer

PROCESSES = 2

CERTIFY = (8, 2, 4)  # (m, k1, k2) of the certified shell code
ENUMERATE = (12, 2, 4)  # construction run through the CLI pipeline
SCREEN_PLAN = ((3, 8), (4, 4), (5, 2), (6, 2), (7, 1))  # (m, pairs) per batch
SCREEN_BATCHES = 6  # distinct seeded batches; iterations cycle through them
GATHER_M = 8  # the gather probe walks the certify sweep's block grid
GATHER_BLOCK = 64  # the sweep's v1 block height
FALLBACK_SWEEP = (7, 2, 4)  # sweep probe for a workload that runs no sweep
GOLDEN = hwconstruct.HWParams(GOLDEN_PARAMS["m"], GOLDEN_PARAMS["k1"], GOLDEN_PARAMS["k2"])


class Checks:
    """Answer checks: how many were attempted and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def warm_tables(tr: Tracer, ms) -> None:
    """Build the cached gf3 tables a workload uses, so iterations find them warm."""
    with tr.span("gf3.tables"):
        for m in ms:
            gf3.digits_table(m)
            gf3.weights_table(m)
            gf3.neg_perm(m)
            gf3.add_perm_rows(m, np.zeros(1, dtype=np.int64))
            gf3.sub_perm_rows(m, np.zeros(1, dtype=np.int64))


def enumerate_pair(tr: Tracer, f, g):
    """validate, weight_distribution and cwe, each in its own span."""
    with tr.span("code.validate"):
        spec = code.validate(f.m, f, g)
    with tr.span("code.weight_distribution"):
        wd = code.weight_distribution(spec)
    with tr.span("code.cwe"):
        enum = code.cwe(spec)
    return spec, wd, enum


def run_cli(tr: Tracer, name: str, argv: list[str]) -> tuple[int, str]:
    """``terncode.cli.main`` in process, stdout captured."""
    buf = io.StringIO()
    with tr.span(name), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_pipeline(tr: Tracer, checks: Checks, p: hwconstruct.HWParams, workdir: Path,
                 expected_weights: dict, expected_cwe: dict) -> dict:
    """construct --emit fg, then weights, then cwe; outputs checked against closed forms."""
    workdir.mkdir(parents=True, exist_ok=True)
    f_path, g_path = str(workdir / "f.txt"), str(workdir / "g.txt")
    rc_c, out_c = run_cli(tr, "cli.construct", [
        "construct", "--m", str(p.m), "--k1", str(p.k1), "--k2", str(p.k2),
        "--emit", "fg", "--out-f", f_path, "--out-g", g_path])
    rc_w, out_w = run_cli(tr, "cli.weights", ["weights", "--f", f_path, "--g", g_path])
    rc_e, out_e = run_cli(tr, "cli.cwe", ["cwe", "--f", f_path, "--g", g_path])
    checks.expect(rc_c == rc_w == rc_e == 0, f"cli pipeline at {p}: nonzero exit code")
    weights = json.loads(out_w) if rc_w == 0 else None
    enum = json.loads(out_e) if rc_e == 0 else None
    checks.expect(weights == expected_weights, f"cli weights at {p} differ from the closed form")
    checks.expect(enum == expected_cwe, f"cli cwe at {p} differ from the closed form")
    return {
        "cli.stdout_bytes": len((out_c + out_w + out_e).encode()),
        "code.cwe.terms": len(enum["cwe"]) if enum else 0,
    }


def closed_form_answers(tr: Tracer, p: hwconstruct.HWParams) -> tuple[dict, dict]:
    """The closed-form weights and CWE of a construction, as the CLI prints them."""
    with tr.span("hwconstruct.closed_form"):
        wd = hwconstruct.closed_form_weight_distribution(p)
        enum = hwconstruct.closed_form_cwe(p)
    return (code.result_json_obj(p.m, weights=wd), code.result_json_obj(p.m, cwe_terms=enum))


def golden_gate(tr: Tracer, checks: Checks) -> None:
    """``terncode verify-example``: the (9, 2, 4) example against its golden data."""
    rc, out = run_cli(tr, "cli.verify_example", ["verify-example"])
    checks.expect(rc == 0 and json.loads(out).get("ok") is True, "verify-example golden gate")


class Workload:
    name = ""
    hw = GOLDEN  # construction used by the hwconstruct and cli probes
    per_condition = False  # spectral_check mode of the workload's sweeps

    def setup(self, seed: int, tr: Tracer) -> None:
        raise NotImplementedError

    def iterate(self, i: int, tr: Tracer, checks: Checks) -> dict:
        raise NotImplementedError

    def subjects(self) -> list[tuple]:
        """The (f, g) pairs the probes of spectrum and code layers run on."""
        raise NotImplementedError


class Certify(Workload):
    """Full per-condition spectral certification of one minimal m = 8 code."""

    per_condition = True

    def __init__(self, scrambled: bool):
        self.scrambled = scrambled
        self.name = "certify-scrambled" if scrambled else "certify-shell"

    def setup(self, seed, tr):
        m, k1, k2 = CERTIFY
        warm_tables(tr, [m])
        f, g = shell_pair(m, k1, k2)
        self.reference = None
        if self.scrambled:
            _, wd, enum = enumerate_pair(tr, f, g)
            self.reference = (wd, enum)
            f, g, _ = scrambled_pair(f, g, np.random.default_rng(seed))
        self.f, self.g = f, g

    def iterate(self, i, tr, checks):
        spec, wd, enum = enumerate_pair(tr, self.f, self.g)
        ab = minimality.ashikhmin_barg(wd.min_nonzero(), wd.max_weight())
        with tr.span("minimality.spectral_check"):
            verdict = minimality.spectral_check(spec, per_condition=self.per_condition,
                                                processes=PROCESSES)
        checks.expect(verdict.minimal and not verdict.witnesses,
                      f"{self.name}: a spectral condition is violated")
        checks.expect(not ab, f"{self.name}: Ashikhmin-Barg verdict differs from the reference")
        checks.expect(enum.weight_marginal() == wd, f"{self.name}: CWE marginal != weights")
        if self.reference is not None:
            checks.expect(wd == self.reference[0], f"{self.name}: weights differ from the shell pair")
            checks.expect(enum == self.reference[1], f"{self.name}: CWE differs from the shell pair")
        return {"minimality.checks": verdict.checks, "code.cwe.terms": len(enum.terms),
                "ab_pass": int(ab), "pairs": 1}

    def subjects(self):
        return [(self.f, self.g)]


class Enumerate(Workload):
    """The CLI enumeration pipeline on the shell construction."""

    name = "enumerate-shell"
    hw = hwconstruct.HWParams(*ENUMERATE)

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed, tr):
        warm_tables(tr, [self.hw.m])
        self.expected = closed_form_answers(tr, self.hw)

    def iterate(self, i, tr, checks):
        return cli_pipeline(tr, checks, self.hw, self.workdir, *self.expected)

    def subjects(self):
        return [hwconstruct.build_fg(self.hw)]


class Screen(Workload):
    """Every certifier and both enumerators on a stream of random valid pairs."""

    name = "screen-random"

    def setup(self, seed, tr):
        warm_tables(tr, [m for m, _ in SCREEN_PLAN])
        rng = np.random.default_rng(seed)
        self.batches = []
        with tr.span("inputs.random_pairs"):
            for _ in range(SCREEN_BATCHES):
                specs = [random_valid_spec(m, rng) for m, n in SCREEN_PLAN for _ in range(n)]
                self.batches.append([(s.f, s.g) for s in specs])

    def iterate(self, i, tr, checks):
        counts = dict.fromkeys(("minimality.checks", "minimality.bruteforce.checks",
                                "code.cwe.terms", "ab_pass", "pairs"), 0)
        for f, g in self.batches[i % len(self.batches)]:
            spec, wd, enum = enumerate_pair(tr, f, g)
            ab = minimality.ashikhmin_barg(wd.min_nonzero(), wd.max_weight())
            with tr.span("minimality.spectral_check"):
                verdict = minimality.spectral_check(spec, per_condition=self.per_condition,
                                                    processes=PROCESSES)
            witnesses = list(verdict.witnesses)
            checks.expect(enum.weight_marginal() == wd, f"m={f.m}: CWE marginal != weights")
            checks.expect(verdict.minimal or not ab,
                          f"m={f.m}: passes Ashikhmin-Barg but reported non-minimal")
            if f.m <= minimality.BRUTEFORCE_MAX_M:
                with tr.span("minimality.bruteforce"):
                    oracle = minimality.is_minimal_bruteforce(spec)
                checks.expect(oracle.minimal == verdict.minimal,
                              f"m={f.m}: spectral and brute-force verdicts disagree")
                witnesses += oracle.witnesses
                counts["minimality.bruteforce.checks"] += oracle.checks
            for w in witnesses:
                with tr.span("minimality.confirm_witness"):
                    ok = minimality.confirm_witness(spec, w)
                checks.expect(ok, f"m={f.m}: witness not confirmed by materialization")
            counts["minimality.checks"] += verdict.checks
            counts["code.cwe.terms"] += len(enum.terms)
            counts["ab_pass"] += int(ab)
            counts["pairs"] += 1
        return counts

    def subjects(self):
        return self.batches[0]


def make(name: str, workdir: Path) -> Workload:
    if name == "certify-shell":
        return Certify(scrambled=False)
    if name == "certify-scrambled":
        return Certify(scrambled=True)
    if name == "enumerate-shell":
        return Enumerate(workdir)
    if name == "screen-random":
        return Screen()
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Layer probes (traced run only)
# ---------------------------------------------------------------------------


def probe_layers(wl: Workload, tr: Tracer, checks: Checks, seed: int, workdir: Path,
                 have: set[str]) -> dict:
    """Time each layer once, on the workload's own pairs where they fit.

    ``have`` names the spans the workload's iterations already produce; a
    layer they cover is not probed again except where the probe measures
    something else (scaling, bytes, allocation peak).  Returns computed
    counts and the probe-only measurements.
    """
    out: dict = {}
    # gf3: the sweep's add/sub gather grid, one process
    warm_tables(Tracer(), [GATHER_M])
    nbytes = 0
    with tr.span("gf3.gather"):
        for b0 in range(0, gf3.pow3(GATHER_M), GATHER_BLOCK):
            rows = np.arange(b0, min(b0 + GATHER_BLOCK, gf3.pow3(GATHER_M)))
            nbytes += gf3.add_perm_rows(GATHER_M, rows).nbytes
            nbytes += gf3.sub_perm_rows(GATHER_M, rows).nbytes
    out["gf3.gather_bytes"] = nbytes

    # spectrum and code on the workload's own pairs
    subjects = wl.subjects()
    transform_bytes = 0
    peak = 0
    ab_pass = 0
    for f, g in subjects:
        spec = code.validate(f.m, f, g)
        with tr.span("spectrum.transform"):
            spectra = [spectrum.fast_count_spectrum(F) for F in spec.family.values()]
        transform_bytes += sum(a.nbytes for sp in spectra for a in (sp.n0, sp.n1, sp.n2, sp.rd))
        with tr.span("spectrum.table_io"):
            back = [spectrum.TernaryFunction.from_text(F.to_text()) for F in (f, g)]
        checks.expect(back == [f, g], "table text round trip changed a table")
        tracemalloc.start()
        code.validate(f.m, f, g)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        if "code.validate" not in have:
            _, wd, enum = enumerate_pair(tr, f, g)
            checks.expect(enum.weight_marginal() == wd, "probe: CWE marginal != weights")
            ab_pass += int(minimality.ashikhmin_barg(wd.min_nonzero(), wd.max_weight()))
            out["code.cwe.terms"] = out.get("code.cwe.terms", 0) + len(enum.terms)
    out["spectrum.transform_bytes"] = transform_bytes
    out["code.validate.peak_alloc_mb"] = peak / 2**20
    if "code.validate" not in have:
        out["ab_pass"], out["pairs"] = ab_pass, len(subjects)

    # minimality: the same sweeps at 2 and at 1 process
    if "minimality.spectral_check" in have:
        sweep_pairs, per_condition = subjects, wl.per_condition
    else:
        sweep_pairs, per_condition = [shell_pair(*FALLBACK_SWEEP)], True
    specs = [code.validate(f.m, f, g) for f, g in sweep_pairs]
    for procs, name in ((PROCESSES, "minimality.spectral_check"), (1, "minimality.spectral_check_1p")):
        checks_total = 0
        for spec in specs:
            with tr.span(name):
                verdict = minimality.spectral_check(spec, per_condition=per_condition, processes=procs)
            checks_total += verdict.checks
        if procs == PROCESSES and "minimality.spectral_check" not in have:
            out["minimality.checks"] = checks_total
    if "minimality.bruteforce" not in have:
        spec = nonminimal_small_spec(seed)
        with tr.span("minimality.bruteforce"):
            oracle = minimality.is_minimal_bruteforce(spec)
        out["minimality.bruteforce.checks"] = oracle.checks
        for w in oracle.witnesses:
            with tr.span("minimality.confirm_witness"):
                ok = minimality.confirm_witness(spec, w)
            checks.expect(ok, "probe: witness not confirmed by materialization")

    # hwconstruct and cli on the workload's construction (golden (9, 2, 4) by default)
    with tr.span("hwconstruct.build_fg"):
        hwconstruct.build_fg(wl.hw)
    expected = closed_form_answers(tr, wl.hw)
    if "cli.cwe" not in have:
        counts = cli_pipeline(tr, checks, wl.hw, workdir, *expected)
        out["cli.stdout_bytes"] = counts["cli.stdout_bytes"]
    return out


def nonminimal_small_spec(seed: int):
    """A seeded random valid pair at m = 3 whose code the oracle finds non-minimal."""
    rng = np.random.default_rng(seed)
    while True:
        spec = random_valid_spec(3, rng)
        if not minimality.is_minimal_bruteforce(spec).minimal:
            return spec
