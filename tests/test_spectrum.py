import numpy as np
import pytest

from terncode import gf3, spectrum
from terncode.errors import CapacityError, ConsistencyError
from terncode.spectrum import CountSpectrum, TernaryFunction, combine, count_spectra, fast_count_spectrum

from conftest import dot_matrix, naive_count_spectrum, parseval_sum


def _zeros(m):
    return TernaryFunction(m, np.zeros(3**m, dtype=np.int8))


def _linear(m, w):
    """F(x) = w . x for the vector w with index w."""
    return TernaryFunction(m, dot_matrix(m)[w])

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


@pytest.mark.parametrize("bad", ["3", "a", "é", "/"])
def test_from_text_rejects_non_digits(bad):
    # the right character count, one character outside {0,1,2}; "é" is two
    # UTF-8 bytes and "/" sits just below "0"
    with pytest.raises(ValueError, match=r"^digits must be drawn from \{0,1,2\}$"):
        TernaryFunction.from_text(f"m=2\n0120{bad}1020\n")


@pytest.mark.parametrize("m", range(1, 7))
def test_to_text_matches_per_trit_loop(m):
    F = TernaryFunction.random(m, np.random.default_rng(m), zero_at_origin=False)
    expected = f"m={m}\n" + "".join(chr(ord("0") + int(t)) for t in F.table) + "\n"
    assert F.to_text() == expected


def test_linear_function_values():
    m = 3
    for w in range(gf3.pow3(m)):
        F = _linear(m, w)
        for x in (0, 1, 5, 13, 26):
            assert F.value(x) == sum((w // 3**k % 3) * (x // 3**k % 3) for k in range(m)) % 3


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def test_zero_function_spectrum():
    sp = fast_count_spectrum(_zeros(2))
    assert (sp.n0[0], sp.n1[0], sp.n2[0]) == (9, 0, 0)
    for w in range(1, 9):
        assert (sp.n0[w], sp.n1[w], sp.n2[w]) == (3, 3, 3)
        assert sp.rd[w] == 0
    assert sp.rd[0] == 18


def test_linear_function_spectrum():
    for m in (1, 2, 3):
        for c in range(gf3.pow3(m)):
            sp = fast_count_spectrum(_linear(m, c))
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


def test_fast_equals_naive_m8():
    # the largest oracle dimension, and the first with L = H = 4 digits per half
    F = TernaryFunction.random(8, np.random.default_rng(12), zero_at_origin=False)
    s_fast, s_naive = fast_count_spectrum(F), naive_count_spectrum(F)
    for arr_f, arr_n in ((s_fast.n1, s_naive.n1), (s_fast.n2, s_naive.n2), (s_fast.rd, s_naive.rd)):
        assert np.array_equal(arr_f, arr_n)


def test_spectrum_arrays_are_read_only_int32():
    F = TernaryFunction.random(5, np.random.default_rng(4), zero_at_origin=False)
    for sp in (fast_count_spectrum(F), naive_count_spectrum(F)):
        for arr in (sp.n1, sp.n2, sp.rd):
            assert arr.dtype == np.int32
            assert not arr.flags.writeable
        assert sp.n0.dtype == np.int64


def _assert_same_spectrum(got, want):
    for arr_g, arr_w in ((got.n1, want.n1), (got.n2, want.n2), (got.rd, want.rd)):
        assert np.array_equal(arr_g, arr_w)


def _constant(m, c):
    return TernaryFunction(m, np.full(3**m, c))


@pytest.mark.parametrize("m", [5, 6, 8])
def test_count_spectra_equal_naive_at_dtype_boundaries(m):
    # m = 5: every stage in uint8; m = 6: the last stage widens from uint8
    # straight to uint32; m = 8: uint8, uint16 and uint32 stages.  The
    # constant c reaches N_c = 3^s after every stage s.
    rng = np.random.default_rng(40 + m)
    members = [_constant(m, c) for c in range(3)]
    members += [TernaryFunction.random(m, rng, zero_at_origin=False) for _ in range(2 if m == 8 else 4)]
    for F, sp in zip(members, count_spectra(members)):
        _assert_same_spectrum(sp, naive_count_spectrum(F))


@pytest.mark.parametrize("m", [10, 11])
def test_count_spectra_past_uint16(m):
    # m = 10 transposes in uint8 and widens to uint16 after it; m = 11 runs a
    # uint16 stage before the transpose and ends its uint16 stages at 3^10
    for c, sp in enumerate(count_spectra([_constant(m, c) for c in range(3)])):
        counts = np.stack([sp.n0, sp.n1, sp.n2])
        assert counts[:, 0].tolist() == [3**m if lam == c else 0 for lam in range(3)]
        assert (counts[:, 1:] == 3 ** (m - 1)).all()
    rng = np.random.default_rng(50 + m)
    for sp in count_spectra([TernaryFunction.random(m, rng, zero_at_origin=False) for _ in range(2)]):
        assert parseval_sum(sp) == 3 ** (2 * m)


@pytest.mark.parametrize("per", [1, 2, 4])
def test_count_spectra_batch_split(monkeypatch, per):
    # five members: the last batch is partial for every split
    m = 6
    rng = np.random.default_rng(60)
    members = [TernaryFunction.random(m, rng, zero_at_origin=False) for _ in range(5)]
    monkeypatch.setattr(spectrum, "_BATCH_ENTRIES", per * 3**m)
    for F, sp in zip(members, count_spectra(members), strict=True):
        _assert_same_spectrum(sp, naive_count_spectrum(F))
        for arr in (sp.n1, sp.n2, sp.rd):
            assert arr.dtype == np.int32
            assert not arr.flags.writeable


def test_count_sum_guard_catches_one_wrong_count(monkeypatch):
    m = 4
    stage = spectrum._stage

    def corrupt(x, y, p, total):
        stage(x, y, p, total)
        if total == 3 ** (m - 1):  # the last stage: one N1 count one too high
            y[0, 0, 5] += 1

    monkeypatch.setattr(spectrum, "_stage", corrupt)
    F = TernaryFunction.random(m, np.random.default_rng(21))
    with pytest.raises(ConsistencyError, match=r"breaks sum_w N_lambda\(w\)"):
        fast_count_spectrum(F)


def test_zero_function_m12_hits_every_stage_bound():
    # every stage of the zero function's butterfly reaches |a| = 3^k at w = 0
    m = 12
    sp = fast_count_spectrum(_zeros(m))
    assert sp.n0[0] == 3**m and sp.rd[0] == 2 * 3**m
    assert sp.n1[0] == sp.n2[0] == 0
    assert (sp.n1[1:] == 3 ** (m - 1)).all() and (sp.n2[1:] == 3 ** (m - 1)).all()
    assert parseval_sum(sp) == 3 ** (2 * m)  # N0(0)^2 = 3^24 wraps in int32


def test_naive_capacity():
    with pytest.raises(CapacityError):
        naive_count_spectrum(_zeros(9))
    with pytest.raises(CapacityError):
        dot_matrix(9)


def test_parseval_random():
    rng = np.random.default_rng(5)
    for m in (1, 3, 5, 10, 12):
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
    # the doubled real part is 2a - b for F_hat = a + b*zeta, a = N0 - N2, b = N1 - N2
    assert np.array_equal(sp.rd, 2 * (sp.n0 - sp.n2) - (sp.n1 - sp.n2))
    assert np.all(sp.rd % 3 == 0)
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

    assert not linear_coset_free(_linear(3, 1))  # a coordinate projection
    assert not linear_coset_free(_zeros(3))  # the zero functional
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
