import threading

import numpy as np
import pytest

from terncode import gf3, hwconstruct, kraw, spectrum
from terncode.errors import CapacityError, ConsistencyError
from terncode.samples import random_weight_symmetric_spec, shell_spec
from terncode.spectrum import CountSpectrum, TernaryFunction, combine, count_spectra, fast_count_spectrum

from conftest import dot_matrix, naive_count_spectrum, parseval_sum


def _butterfly(F):
    """The spectrum of F by the count butterfly, also for a weight-symmetric F."""
    return spectrum._butterfly_spectra([F])[0]


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
    for dtype in (bool, np.uint8, np.int64, np.uint64):  # any integer table becomes a read-only int8 copy
        F = TernaryFunction(1, np.array([0, 1, 0], dtype=dtype))
        assert F.table.dtype == np.int8 and F.table.tolist() == [0, 1, 0] and not F.table.flags.writeable


@pytest.mark.parametrize(
    "table",
    [[0, 257, 1], [0, -255, 1], np.uint8([0, 255, 1]), [0.0, 1.7, 2.2], [0.0, 1.0, 2.0], [0j, 1, 2], [0, 1, None]],
)
def test_table_checks_its_entries_before_the_int8_cast(table):
    # the cast would read 257 and -255 as 1, 255 as -1 and 1.7 as 1; [0, 1, None] has dtype object
    with pytest.raises(ValueError, match="must lie in|must be integers"):
        TernaryFunction(1, np.array(table))


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
    sp = _butterfly(_zeros(2))
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
    for c, sp in enumerate(spectrum._butterfly_spectra([_constant(m, c) for c in range(3)])):
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


def _threads(monkeypatch, count):
    monkeypatch.setattr(spectrum, "_thread_count", lambda batches: min(count, batches))


def _record_threads(monkeypatch):
    """Wrap ``_butterfly`` to record the thread that runs each batch."""
    butterfly, seen = spectrum._butterfly, []

    def record(batch, out, work, steps):
        seen.append(threading.get_ident())
        return butterfly(batch, out, work, steps)

    monkeypatch.setattr(spectrum, "_butterfly", record)
    return seen


@pytest.mark.parametrize("m", [10, 11])
@pytest.mark.parametrize("count", [4, 5])
def test_two_threads_match_one(monkeypatch, m, count):
    # m = 10 holds two members per batch, m = 11 one; five members leave
    # the last batch partial at m = 10
    rng = np.random.default_rng(70 + m)
    members = [TernaryFunction.random(m, rng, zero_at_origin=False) for _ in range(count)]
    _threads(monkeypatch, 1)
    one = count_spectra(members)
    _threads(monkeypatch, 2)
    seen = _record_threads(monkeypatch)
    two = count_spectra(members)
    assert len(set(seen)) == 2
    assert len(one) == len(two) == count
    for a, b in zip(one, two):
        for arr_a, arr_b in ((a.n1, b.n1), (a.n2, b.n2), (a.rd, b.rd)):
            assert arr_a.dtype == arr_b.dtype == np.int32
            assert not arr_a.flags.writeable and not arr_b.flags.writeable
            assert np.array_equal(arr_a, arr_b)


def test_helper_thread_failure_raises_in_caller(monkeypatch):
    # m = 10: the caller runs the batch of members 0 and 1, the helper that
    # of members 2 and 3, whose member 2 gets one N1 count too many
    m = 10
    stage = spectrum._stage

    def corrupt(x, y, p, total):
        stage(x, y, p, total)
        if total == 3 ** (m - 1) and threading.current_thread() is not threading.main_thread():
            y[0, 0, 5] += 1

    _threads(monkeypatch, 2)
    monkeypatch.setattr(spectrum, "_stage", corrupt)
    rng = np.random.default_rng(22)
    members = [TernaryFunction.random(m, rng) for _ in range(4)]
    before = threading.active_count()
    with pytest.raises(ConsistencyError, match=r"breaks sum_w N_lambda\(w\)"):
        count_spectra(members)
    assert threading.active_count() == before


def test_first_failing_member_wins(monkeypatch):
    # m = 11, one member per batch: the caller runs 0 and 2, the helper 1
    # and 3; 1 fails first in member order (the helper then skips 3), so
    # its error is raised, not that of 2
    m = 11
    rng = np.random.default_rng(23)
    members = [TernaryFunction.random(m, rng) for _ in range(4)]
    butterfly = spectrum._butterfly

    def fail(batch, out, work, steps):
        i = next(i for i, F in enumerate(members) if F is batch[0])
        if i > 0:
            raise ConsistencyError(f"member {i}")
        return butterfly(batch, out, work, steps)

    _threads(monkeypatch, 2)
    monkeypatch.setattr(spectrum, "_butterfly", fail)
    with pytest.raises(ConsistencyError, match="^member 1$"):
        count_spectra(members)


def test_one_cpu_starts_no_thread(monkeypatch):
    m = 11
    rng = np.random.default_rng(24)
    members = [TernaryFunction.random(m, rng) for _ in range(4)]
    monkeypatch.setattr(spectrum.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = _record_threads(monkeypatch)
    assert spectrum._thread_count(4) == 1
    assert len(count_spectra(members)) == 4
    assert set(seen) == {threading.get_ident()}


def test_zero_function_m12_hits_every_stage_bound():
    # every stage of the zero function's butterfly reaches |a| = 3^k at w = 0
    m = 12
    sp = _butterfly(_zeros(m))
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


def test_count_spectrum_rejects_counts_whose_int32_sum_wraps():
    # N1 + N2 = 2^31 wraps to a negative int32, which passes the sum bound
    big = np.full(9, 2**30)
    with pytest.raises(ConsistencyError, match=r"N1 or N2 > 3\^m"):
        CountSpectrum(2, big, big)


def test_count_spectrum_range_checks_precede_the_int32_cast():
    # 2^32 + 1 wraps to 1 in int32, and would pass the range checks after the cast
    with pytest.raises(ConsistencyError, match=r"N1 or N2 > 3\^m"):
        CountSpectrum(1, np.array([2**32 + 1, 1, 1]), np.array([1, 1, 1]))
    with pytest.raises(ConsistencyError, match=r"N1 or N2 negative"):
        CountSpectrum(1, np.array([1, 1, 1]), np.array([-(2**32) + 1, 1, 1]))
    # a cast would truncate 1.7 to 1
    for counts in ([1.7, 1, 1], np.array([1.0, 1.0, 1.0]), [True, False, True]):
        with pytest.raises(ValueError, match="counts must be integer arrays"):
            CountSpectrum(1, counts, [1, 1, 1])
    # other integer dtypes are accepted, unsigned and narrow ones too
    sp = CountSpectrum(1, np.array([0, 1, 2], np.uint64), np.array([0, 1, 0], np.int8))
    assert sp.n1.tolist() == [0, 1, 2] and sp.n2.tolist() == [0, 1, 0]
    assert sp.n1.dtype == sp.rd.dtype == np.int32


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


# ---------------------------------------------------------------------------
# Weight-symmetric transforms
# ---------------------------------------------------------------------------


def _butterfly_calls(monkeypatch):
    """Wrap ``_butterfly_spectra`` to record each call's member count."""
    butterfly, calls = spectrum._butterfly_spectra, []

    def record(members):
        calls.append(len(members))
        return butterfly(members)

    monkeypatch.setattr(spectrum, "_butterfly_spectra", record)
    return calls


def _assert_class_path_is_exact(monkeypatch, members):
    """count_spectra takes the class path and equals the butterfly bit for bit."""
    want = spectrum._butterfly_spectra(members)
    calls = _butterfly_calls(monkeypatch)
    got = count_spectra(members)
    assert calls == []
    assert len(got) == len(want) == len(members)
    for a, b in zip(got, want):
        for arr_a, arr_b in ((a.n1, b.n1), (a.n2, b.n2), (a.rd, b.rd)):
            assert arr_a.dtype == arr_b.dtype == np.int32
            assert not arr_a.flags.writeable and not arr_b.flags.writeable
            assert np.array_equal(arr_a, arr_b)
    monkeypatch.undo()


@pytest.mark.parametrize("m", range(1, 10))
def test_class_path_equals_butterfly_on_random_weight_symmetric(monkeypatch, m):
    rng = np.random.default_rng(80 + m)
    # any class values, F(0) != 0 included, then ten valid pairs (none exists at m = 1)
    members = [TernaryFunction(m, rng.integers(0, 3, m + 1)[gf3.weights_table(m)]) for _ in range(5)]
    _assert_class_path_is_exact(monkeypatch, members)
    for _ in range(10 if m > 1 else 0):
        spec = random_weight_symmetric_spec(m, rng)
        _assert_class_path_is_exact(monkeypatch, list(spec.family.values()))


@pytest.mark.parametrize("m", range(3, 13))
def test_class_path_equals_butterfly_on_shells(monkeypatch, m):
    # m = 10 and 11 run the butterfly on two threads, m = 12 in uint32 stages
    _assert_class_path_is_exact(monkeypatch, list(shell_spec(m, 2, 4).family.values()))


@pytest.mark.parametrize("m", [9, 10])
def test_class_path_equals_butterfly_on_admissible_windows(monkeypatch, m):
    for p in hwconstruct.admissible_params(m):
        _assert_class_path_is_exact(monkeypatch, list(hwconstruct.build_spec(p).family.values()))


@pytest.mark.parametrize("index", [1, 40, 80, 3**7 - 1])
def test_one_entry_off_the_classes_takes_the_butterfly(monkeypatch, index):
    # inside the 3^4 prefix, and past it; the other members stay weight-symmetric
    m = 7
    f, *others = shell_spec(m, 2, 4).family.values()
    table = f.table.copy()
    table[index] = (table[index] + 1) % 3
    members = [TernaryFunction(m, table), *others]
    assert spectrum._class_values(members) is None
    calls = _butterfly_calls(monkeypatch)
    for F, sp in zip(members, count_spectra(members), strict=True):
        _assert_same_spectrum(sp, naive_count_spectrum(F))
    assert calls == [len(members)]


@pytest.mark.parametrize("m", range(1, 6))
def test_dot_counts_equal_brute_force(m):
    table = spectrum._dot_counts(m)
    assert table.dtype == np.int64 and table.shape == (m + 1, m + 1, 3)
    weights, dots = gf3.weights_table(m), dot_matrix(m)
    for w in range(3**m):  # every w, not only the class representatives
        for j in range(m + 1):
            counts = np.bincount(dots[w][weights == j], minlength=3)
            assert table[weights[w], j].tolist() == counts.tolist()


@pytest.mark.parametrize("m", [1, 2, 5, 9, 16])
def test_dot_counts_real_part_is_krawtchouk(m):
    # 2*Re(zeta^v * sum_{wt(x) = j} zeta^(-w.x)) = c(v)*K_j(wt(w); m), c(0) = 2, c(1) = c(2) = -1
    table = spectrum._dot_counts(m)
    for v, c in ((0, 2), (1, -1), (2, -1)):
        rd = 2 * table[:, :, v] - table[:, :, (v + 1) % 3] - table[:, :, (v + 2) % 3]
        assert rd.tolist() == [[c * kraw.krawtchouk(j, i, m) for j in range(m + 1)] for i in range(m + 1)]
    # so the rd of a weight-symmetric F per class i is sum_j c(F_j)*K_j(i; m)
    rng = np.random.default_rng(m)
    values = rng.integers(0, 3, m + 1)
    counts = spectrum._class_counts(values[None].astype(np.int8))[0]
    rd = 2 * 3**m - 3 * (counts[0] + counts[1])
    c = [2, -1, -1]
    assert rd.tolist() == [sum(c[v] * kraw.krawtchouk(j, i, m) for j, v in enumerate(values)) for i in range(m + 1)]


@pytest.mark.parametrize(
    "edits, message",
    [
        # (member, row N1 or N2, class, change); members: the zero function and
        # the constant 1 at m = 4, so class sizes are 1, 8, 24, 32, 16
        ([(0, 0, 2, 1)], r"breaks sum_w N_lambda\(w\)"),
        # the rest keep the sums weighted by class size: 8 at class 0 against 1 at class 1
        ([(0, 0, 0, -8), (0, 0, 1, 1)], r"N1 or N2 negative"),
        ([(1, 0, 0, 8), (1, 0, 1, -1)], r"N1 or N2 > 3\^m"),  # the constant's N1(0) = 3^m
        ([(1, 1, 0, 8), (1, 1, 1, -1)], r"N1 \+ N2 > 3\^m"),  # its N2(0) = 0 gets 8
    ],
)
def test_corrupted_class_count_raises(monkeypatch, edits, message):
    class_counts = spectrum._class_counts

    def corrupted(values):
        counts = class_counts(values)
        for member, row, i, change in edits:
            counts[member, row, i] += change
        return counts

    monkeypatch.setattr(spectrum, "_class_counts", corrupted)
    with pytest.raises(ConsistencyError, match=message):
        count_spectra([_zeros(4), _constant(4, 1)])
