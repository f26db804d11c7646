"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 4 is the
full-scale spectral certification, every one of the 3^18 shift pairs
checked by the naive oracle (about 30 s on one process of a 2-core
machine, comfortably inside its 15-minute budget), and is marked slow
but runs by default.
"""

import time

import numpy as np
import pytest

from terncode import gf3
from terncode.code import cwe, materialize, weight_distribution, weight_of
from terncode.golden_example import GOLDEN_PARAMS, golden_cwe
from terncode.hwconstruct import (
    HWParams,
    admissible_params,
    build_spec,
    closed_form_cwe,
    closed_form_weight_distribution,
    extremes_report,
)
from terncode.kraw import binomial, krawtchouk, lloyd
from terncode.minimality import (
    ashikhmin_barg,
    confirm_witness,
    is_minimal_bruteforce,
    spectral_check,
)
from terncode.samples import random_valid_spec
from terncode.spectrum import TernaryFunction, fast_count_spectrum

from conftest import dot_matrix, naive_count_spectrum, parseval_sum, reference_verdict


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


def test_criterion_1_example_golden_reproduction():
    t0 = time.time()
    p = HWParams(9, 2, 4)
    spec = build_spec(p)  # validation = the no-collision spectra test per family member
    assert spec.length == GOLDEN_PARAMS["length"] == 19682
    assert spec.dimension == GOLDEN_PARAMS["dimension"] == 11
    # injectivity certificate: no family transform hits 2*3^m, so the only
    # weight-0 codeword is the zero parameter triple
    for sp in spec.spectra.values():
        assert int((sp.rd == 2 * gf3.pow3(9)).sum()) == 0
    wd = weight_distribution(spec)
    assert wd.total() == 3**11
    assert wd.entries[0] == 1
    assert wd.min_nonzero() == 834
    assert wd.max_weight() == 14226
    assert not ashikhmin_barg(834, 14226)
    golden = golden_cwe()
    assert cwe(spec) == golden
    assert closed_form_cwe(p) == golden
    rep = extremes_report(p)
    assert (rep.wmin, rep.wmax, rep.ab_satisfied) == (834, 14226, False)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(
        1, True,
        f"[19682, 11, 834] reproduced; wmax 14226; AB violated; CWE equals golden "
        f"on both paths ({elapsed:.1f}s)",
    )


def test_criterion_2_closed_form_oracle_equivalence():
    t0 = time.time()
    cases = []
    for m in (9, 10, 11):
        for p in admissible_params(m):
            spec = build_spec(p)
            assert closed_form_weight_distribution(p) == weight_distribution(spec)
            assert closed_form_cwe(p) == cwe(spec)
            cases.append((p.m, p.k1, p.k2))
    elapsed = time.time() - t0
    assert cases == [(9, 2, 4), (10, 2, 4), (11, 2, 4), (11, 2, 5), (11, 3, 5)]
    assert elapsed < 120.0
    _report(
        2, True,
        f"closed-form WD and CWE equal transform path on {len(cases)} admissible "
        f"(m, k1, k2), 9 <= m <= 11 ({elapsed:.1f}s)",
    )


def test_criterion_3_minimality_cross_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20240811)
    per_m = 200
    nonminimal_confirmed = 0
    minimal_seen = 0
    for m in (2, 3, 4):
        for _ in range(per_m):
            spec = random_valid_spec(m, rng)
            bf = is_minimal_bruteforce(spec)
            t2 = spectral_check(spec)
            assert bf.minimal == t2.minimal, f"verdict mismatch at m={m}"
            if t2.minimal:
                minimal_seen += 1
            else:
                assert confirm_witness(spec, t2.witnesses[0])
                assert confirm_witness(spec, bf.witnesses[0])
                nonminimal_confirmed += 1
    elapsed = time.time() - t0
    assert nonminimal_confirmed > 0 and minimal_seen > 0
    _report(
        3, True,
        f"{3 * per_m} random specs at m in {{2,3,4}}: verdicts identical; "
        f"{nonminimal_confirmed} non-minimal verdicts each confirmed by a "
        f"materialized covering pair ({elapsed:.1f}s)",
    )


@pytest.mark.slow
def test_criterion_4_spectral_certification_at_full_scale():
    # the naive oracle on all pairs, not the orbit pre-check that spectral_check takes
    t0 = time.time()
    p = HWParams(9, 2, 4)
    spec = build_spec(p)
    verdict = reference_verdict(spec, per_condition=True)
    elapsed = time.time() - t0
    violated = {w.condition for w in verdict.witnesses}
    report = {
        "triple_minus": "triple-minus" not in violated,
        "triple_plus": "triple-plus" not in violated,
        "mixed_pair": "mixed-pair" not in violated,
        "minimal": verdict.minimal,
        "checks": verdict.checks,
    }
    assert report["minimal"] is True
    assert report["triple_minus"] is True
    assert report["triple_plus"] is True
    assert report["mixed_pair"] is True
    triple_checks = 8 * gf3.pow3(9) * (gf3.pow3(9) - 1)  # 4 functions x 2 inequalities
    mixed_checks = 12 * gf3.pow3(9) ** 2  # 12 ordered pairs x 3^18 vector pairs
    assert report["checks"] == triple_checks + mixed_checks == 7748252316
    assert elapsed < 900.0
    assert spectral_check(spec, per_condition=True).to_json_obj() == verdict.to_json_obj()
    _report(
        4, True,
        f"zero violations over {report['checks']:,} checks at (9, 2, 4); "
        f"certified minimal in {elapsed:.0f}s (budget 900s)",
    )


def test_criterion_5_krawtchouk_identity_suite():
    t0 = time.time()
    # Lloyd shift identity and tight bound, m <= 20
    for m in range(2, 21):
        for x in range(1, m + 1):
            for k in range(1, m):
                assert lloyd(k, x, m) == krawtchouk(k, x - 1, m - 1)
        for k in range(1, m):
            bound = 2**k * binomial(m - 1, k)
            assert lloyd(k, 1, m) == bound
            assert all(abs(lloyd(k, x, m)) <= bound for x in range(1, m + 1))
    # Krawtchouk at x = 0, m <= 20
    for m in range(1, 21):
        for t in range(m + 1):
            assert krawtchouk(t, 0, m) == 2**t * binomial(m, t)
    # character sums over Hamming spheres, exhaustive in Z[zeta_3], m <= 7
    for m in range(1, 8):
        weights = gf3.weights_table(m).astype(np.int64)
        dots = dot_matrix(m)
        for w in range(gf3.pow3(m)):
            counts = np.bincount(weights * 3 + dots[w], minlength=3 * (m + 1))
            for t in range(m + 1):
                n0, n1, n2 = (int(counts[3 * t + lam]) for lam in range(3))
                a, b = n0 - n2, n1 - n2
                assert b == 0
                assert a == krawtchouk(t, int(weights[w]), m)
    # shell dominance, m <= 24
    for m in range(9, 25):
        shells = [2**j * binomial(m, j) for j in range(m + 1)]
        for k in range(2, (m - 1) // 2 + 1):
            assert shells[k] > sum(shells[1:k])
    # partial sums avoid the Lloyd offset, m <= 20
    for m in range(5, 21):
        for k in range(2, (m - 1) // 2 + 1):
            lhs = sum(2**j * binomial(m, j) for j in range(1, k + 1))
            assert all(lhs != -2 * (lloyd(k, i, m) - 1) for i in range(1, m + 1))
    elapsed = time.time() - t0
    _report(5, True, f"identity suite exact over all stated ranges ({elapsed:.1f}s)")


def test_criterion_6_transform_correctness():
    t0 = time.time()
    rng = np.random.default_rng(987654321)
    per_m = 200
    for m in range(1, 8):
        for _ in range(per_m):
            F = TernaryFunction.random(m, rng, zero_at_origin=False)
            s_fast = fast_count_spectrum(F)
            s_naive = naive_count_spectrum(F)
            assert np.array_equal(s_fast.n0, s_naive.n0)
            assert np.array_equal(s_fast.n1, s_naive.n1)
            assert np.array_equal(s_fast.n2, s_naive.n2)
            assert parseval_sum(s_fast) == 3 ** (2 * m)
    elapsed = time.time() - t0
    _report(
        6, True,
        f"fast butterfly equals direct counting on {per_m} random functions per "
        f"m in 1..7, Parseval exact throughout ({elapsed:.1f}s)",
    )


def test_criterion_7_weight_formula_vs_materialization():
    t0 = time.time()
    rng = np.random.default_rng(13579)
    n_specs = 50
    per_spec = 100
    for k in range(n_specs):
        m = 2 + k % 5  # cycle m through 2..6
        spec = random_valid_spec(m, rng)
        for _ in range(per_spec):
            u = int(rng.integers(3))
            r = int(rng.integers(3))
            v = int(rng.integers(gf3.pow3(m)))
            cw = materialize(spec, u, r, v)  # raises on any internal mismatch
            assert cw.hamming_weight() == weight_of(spec, u, r, v)
    elapsed = time.time() - t0
    _report(
        7, True,
        f"spectrum weights equal materialized Hamming weights on {per_spec} "
        f"triples x {n_specs} random specs, m <= 6 ({elapsed:.1f}s)",
    )
