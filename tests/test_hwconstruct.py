import numpy as np
import pytest

from terncode import gf3
from terncode.code import cwe, weight_distribution, weight_of
from terncode.hwconstruct import (
    HWParams,
    admissible_params,
    build_fg,
    build_spec,
    closed_form_cwe,
    closed_form_weight_distribution,
    extremes_report,
)
from terncode.kraw import binomial, lloyd
from terncode.spectrum import fast_count_spectrum

P924 = HWParams(9, 2, 4)


def test_parameter_window():
    with pytest.raises(ValueError):
        HWParams(7, 2, 3)  # m < 9, and k1 + 1 = k2 anyway
    with pytest.raises(ValueError):
        HWParams(9, 2, 3)  # adjacent shells
    with pytest.raises(ValueError):
        HWParams(9, 1, 4)
    with pytest.raises(ValueError):
        HWParams(9, 2, 5)  # k2 > floor((m-1)/2)
    HWParams(11, 3, 5)


def test_admissible_windows():
    assert [(p.k1, p.k2) for p in admissible_params(9)] == [(2, 4)]
    assert [(p.k1, p.k2) for p in admissible_params(11)] == [(2, 4), (2, 5), (3, 5)]


def test_shell_sizes_at_924():
    assert (P924.a, P924.b, P924.c, P924.d) == (18, 144, 672, 2016)
    assert P924.e == 3**9 - 1 - 2850
    assert P924.a + P924.b + P924.c + P924.d + P924.e == 3**9 - 1


def test_built_functions_respect_shells():
    f, g = build_fg(P924)
    for F in (f, g):  # no linear coincidence: doubled real part never 2*3^m
        assert np.all(fast_count_spectrum(F).rd != 2 * 3**9)
    assert f.value(0) == 0 and g.value(0) == 0
    w = gf3.weights_table(9)
    k1_idx = int(np.flatnonzero(w == 2)[0])
    assert f.value(k1_idx) == 0 and g.value(k1_idx) == 1  # weight k1 is in B only
    k2_idx = int(np.flatnonzero(w == 4)[0])
    assert f.value(k2_idx) == 1 and g.value(k2_idx) == 2  # weight k2 is in D
    deep_idx = int(np.flatnonzero(w == 7)[0])
    assert f.value(deep_idx) == 0 and g.value(deep_idx) == 0  # outside all shells
    assert int((f.table == 1).sum()) == P924.a + P924.c + P924.d
    assert int((g.table == 1).sum()) == P924.b + P924.c
    assert int((g.table == 2).sum()) == P924.d


def test_greek_telescoping():
    for i in range(1, 10):
        alpha, beta, gamma, delta = P924.greek(i)
        assert alpha + beta + gamma + delta == lloyd(P924.k2, i, 9) - 1


def test_closed_form_distribution_headline_values():
    wd = closed_form_weight_distribution(P924)
    assert wd.min_nonzero() == 834
    assert wd.max_weight() == 14226
    assert wd.entries[2 * 3**8] >= 3**9 - 1
    assert wd.total() == 3**11
    assert wd.entries[0] == 1


def test_spectra_match_closed_rd_formulas_at_924():
    """Transform values agree with their closed forms per shift weight."""
    spec = build_spec(P924)
    m, k1, k2 = 9, 2, 4
    total = gf3.pow3(m)
    weights = gf3.weights_table(m)
    a, b, c, d = P924.a, P924.b, P924.c, P924.d

    def psi(k, i):
        return lloyd(k, i, m)

    expected_at_zero = {
        "f": 2 * total - 3 * (a + c + d),
        "g": 2 * total - 3 * (b + c + d),
        "f+g": 2 * total - 3 * (a + b + c),
        "f-g": 2 * total - 3 * (a + b + d),
    }
    for name, sp in spec.spectra.items():
        assert sp.real_doubled(0) == expected_at_zero[name]
    for i in range(1, m + 1):
        w = int(np.flatnonzero(weights == i)[0])
        assert spec.spectra["f"].real_doubled(w) == -3 * (psi(k2, i) + psi(k1 - 1, i) - psi(k1, i) - 1)
        assert spec.spectra["g"].real_doubled(w) == -3 * (psi(k2, i) - psi(k1 - 1, i))
        assert spec.spectra["f+g"].real_doubled(w) == -3 * psi(k2 - 1, i) + 3
        assert spec.spectra["f-g"].real_doubled(w) == -3 * (psi(k2, i) + psi(k1, i) - psi(k2 - 1, i)) + 3
    # the doubled real part at 0 of f+g pins the minimum distance
    assert spec.spectra["f+g"].real_doubled(0) == 36864
    assert weight_of(spec, 1, 1, 0) == 834


def test_rd_depends_only_on_shift_weight():
    spec = build_spec(P924)
    weights = gf3.weights_table(9)
    for name, sp in spec.spectra.items():
        for i in (1, 4, 9):
            cls = sp.rd[weights == i]
            assert (cls == cls[0]).all()


def test_fixed_and_shifted_cwe_row_sums():
    p = P924
    total = gf3.pow3(p.m) - 1
    a, b, c, d, e = p.a, p.b, p.c, p.d, p.e
    rows_v0 = [
        (b + e, a + c + d, 0),
        (a + e, b + c, d),
        (d + e, a + b, c),
        (c + e, a, b + d),
    ]
    for row in rows_v0:
        assert sum(row) == total
    half = 3 ** (p.m - 1)
    for i in range(1, p.m + 1):
        alpha, beta, gamma, delta = p.greek(i)
        rows_vi = [
            (half - 1 - (beta + gamma + delta), half + beta + gamma, half + delta),
            (half - 1 - (alpha + gamma + delta), half + alpha + gamma + delta, half),
            (half - 1 - (alpha + beta + gamma), half + alpha + beta, half + gamma),
            (half - 1 - (alpha + beta + delta), half + alpha, half + beta + delta),
        ]
        for row in rows_vi:
            assert sum(row) == total
            assert all(x >= 0 for x in row)


def test_closed_forms_match_transform_path_at_924():
    spec = build_spec(P924)
    assert closed_form_weight_distribution(P924) == weight_distribution(spec)
    assert closed_form_cwe(P924) == cwe(spec)


@pytest.mark.slow
def test_closed_forms_match_transform_path_spot_checks_m12_m13():
    for p in (HWParams(12, 3, 5), HWParams(13, 4, 6)):
        spec = build_spec(p)
        assert closed_form_weight_distribution(p) == weight_distribution(spec)
        assert closed_form_cwe(p) == cwe(spec)


def test_cwe_headline_terms_at_924():
    enum = closed_form_cwe(P924)
    assert enum.terms[(16976, 2706, 0)] == 1
    assert enum.terms[(6560, 6561, 6561)] == 19682
    assert enum.total() == 3**11


def test_extremes_report():
    rep = extremes_report(P924)
    assert rep.wmin == 834
    assert rep.wmax == 14226
    assert rep.ab_satisfied is False
    assert rep.ratio_le_two_thirds is True
    wd = closed_form_weight_distribution(P924)
    assert rep.wmin == wd.min_nonzero()
    assert rep.wmax == wd.max_weight()
    assert rep.ab_satisfied == (3 * rep.wmin > 2 * rep.wmax)


def test_wmax_attained_by_g_at_weight_one():
    m, k1, k2 = P924.m, P924.k1, P924.k2
    wmax = 2 * 3 ** (m - 1) + lloyd(k2, 1, m) - lloyd(k1 - 1, 1, m)
    assert wmax == 3**m - 3 ** (m - 1) + 2**k2 * binomial(m - 1, k2) - 2 ** (k1 - 1) * binomial(m - 1, k1 - 1)
    assert wmax == extremes_report(P924).wmax
