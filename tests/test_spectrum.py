import numpy as np
import pytest

from terncode import gf3
from terncode.errors import CapacityError, ConsistencyError
from terncode.spectrum import (
    CountSpectrum,
    TernaryFunction,
    combine,
    fast_count_spectrum,
    naive_count_spectrum,
    parseval_sum,
    transform,
)

# ---------------------------------------------------------------------------
# Function tables
# ---------------------------------------------------------------------------


def test_table_validation():
    with pytest.raises(ValueError):
        TernaryFunction(2, [0] * 8)
    with pytest.raises(ValueError):
        TernaryFunction(1, [0, 1, 3])


def test_text_round_trip():
    rng = np.random.default_rng(3)
    F = TernaryFunction.random(3, rng)
    again = TernaryFunction.from_text(F.to_text())
    assert again == F
    with pytest.raises(ValueError):
        TernaryFunction.from_text("m=2\n0120\n")


@pytest.mark.parametrize("m", range(1, 7))
def test_to_text_matches_per_trit_loop(m):
    F = TernaryFunction.random(m, np.random.default_rng(m), zero_at_origin=False)
    expected = f"m={m}\n" + "".join(chr(ord("0") + int(t)) for t in F.table) + "\n"
    assert F.to_text() == expected


def test_linear_function_values():
    m = 3
    for w in range(gf3.pow3(m)):
        F = TernaryFunction.linear(m, w)
        for x in (0, 1, 5, 13, 26):
            assert F.value(x) == sum((w // 3**k % 3) * (x // 3**k % 3) for k in range(m)) % 3


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def test_zero_function_spectrum():
    sp = fast_count_spectrum(TernaryFunction.zeros(2))
    assert (sp.n0[0], sp.n1[0], sp.n2[0]) == (9, 0, 0)
    for w in range(1, 9):
        assert (sp.n0[w], sp.n1[w], sp.n2[w]) == (3, 3, 3)
        assert sp.rd[w] == 0
    assert sp.rd[0] == 18


def test_linear_function_spectrum():
    for m in (1, 2, 3):
        for c in range(gf3.pow3(m)):
            sp = fast_count_spectrum(TernaryFunction.linear(m, c))
            assert (sp.n0[c], sp.n1[c], sp.n2[c]) == (gf3.pow3(m), 0, 0)


def test_fast_equals_naive_random():
    rng = np.random.default_rng(11)
    for m in range(1, 6):
        for _ in range(20):
            F = TernaryFunction.random(m, rng, zero_at_origin=False)
            s_fast = fast_count_spectrum(F)
            s_naive = naive_count_spectrum(F)
            for arr_f, arr_n in ((s_fast.n1, s_naive.n1), (s_fast.n2, s_naive.n2), (s_fast.rd, s_naive.rd)):
                assert np.array_equal(arr_f, arr_n)


def test_transform_method_switch():
    F = TernaryFunction.zeros(2)
    assert np.array_equal(transform(F, "fast").rd, transform(F, "naive").rd)
    with pytest.raises(ValueError):
        transform(F, "bogus")


def test_naive_capacity():
    with pytest.raises(CapacityError):
        naive_count_spectrum(TernaryFunction.zeros(9))


def test_parseval_random():
    rng = np.random.default_rng(5)
    for m in (1, 3, 5):
        for _ in range(10):
            F = TernaryFunction.random(m, rng, zero_at_origin=False)
            assert parseval_sum(fast_count_spectrum(F)) == 3 ** (2 * m)


def test_negation_shift_symmetry_exhaustive():
    # 2Re of the transform of -F at w equals 2Re of F's transform at -w
    rng = np.random.default_rng(8)
    for m in range(1, 7):
        F = TernaryFunction.random(m, rng)
        neg_F = TernaryFunction(m, (3 - F.table) % 3)
        rd_f = fast_count_spectrum(F).rd
        rd_neg = fast_count_spectrum(neg_F).rd
        assert np.array_equal(rd_neg, rd_f[gf3.neg_perm(m)])


def test_count_reconstruction_and_divisibility():
    rng = np.random.default_rng(21)
    F = TernaryFunction.random(4, rng)
    sp = fast_count_spectrum(F)
    assert np.array_equal(sp.n0 + sp.n1 + sp.n2, np.full(81, 81))
    # transform value reconstructs the counts
    assert np.array_equal(sp.a, sp.n0 - sp.n2)
    assert np.array_equal(sp.b, sp.n1 - sp.n2)
    assert np.all((gf3.pow3(4) - sp.a - sp.b) % 3 == 0)
    with pytest.raises(ConsistencyError):
        CountSpectrum.from_transform_pair(2, np.full(9, 1), np.zeros(9, dtype=np.int64))
    # N1, N2 >= 0 and N1 + N2 <= 3^m, so the derived N0 is a count too
    assert not CountSpectrum(2, np.full(9, 4), np.full(9, 5)).n0.any()
    for n1, n2 in ((-1, 0), (0, -1), (5, 5)):
        bad1, bad2 = np.full(9, 4), np.full(9, 5)
        bad1[3], bad2[3] = n1, n2
        with pytest.raises(ConsistencyError):
            CountSpectrum(2, bad1, bad2)


def test_is_linear_coset_free():
    # F equals the functional w . x exactly where its doubled real part is 2*3^m
    def linear_coset_free(F):
        return bool(np.all(fast_count_spectrum(F).rd != 2 * gf3.pow3(F.m)))

    assert not linear_coset_free(TernaryFunction.linear(3, 1))  # a coordinate projection
    assert not linear_coset_free(TernaryFunction.zeros(3))  # the zero functional
    table = np.zeros(27, dtype=np.int8)
    table[13] = 1  # a single bump cannot be linear
    assert linear_coset_free(TernaryFunction(3, table))


def test_combine_matches_pointwise():
    rng = np.random.default_rng(000)
    f = TernaryFunction.random(3, rng)
    g = TernaryFunction.random(3, rng)
    fg = combine(1, 2, f, g)
    for x in range(27):
        assert fg.value(x) == (f.value(x) + 2 * g.value(x)) % 3
