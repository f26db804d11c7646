import json

import numpy as np
import pytest

from terncode import gf3
from terncode.code import (
    UR_TO_FAMILY,
    CodeSpec,
    CompleteWeightEnumerator,
    codeword_rows,
    cwe,
    cwe_csv,
    materialize,
    neg_dot_table,
    pair_rows,
    result_json_obj,
    validate,
    weight_distribution,
    weight_of,
    weights_csv,
)
from terncode.errors import CapacityError, ConsistencyError, ValidationError
from terncode.spectrum import CountSpectrum, TernaryFunction, combine, fast_count_spectrum

from conftest import (
    all_codewords,
    dict_cwe_terms,
    dict_weight_marginal,
    dot_matrix,
    random_valid_spec,
    random_weight_symmetric_spec,
    scrambled_spec,
    shell_spec,
    sparse_random_spec,
)


def test_ur_family_table_is_the_function_algebra():
    rng = np.random.default_rng(42)
    f = TernaryFunction.random(3, rng)
    g = TernaryFunction.random(3, rng)
    family = {"f": f, "g": g, "f+g": combine(1, 1, f, g), "f-g": combine(1, 2, f, g)}
    for (u, r), (name, sign) in UR_TO_FAMILY.items():
        lhs = combine(u, r, f, g)
        rhs = family[name] if sign > 0 else TernaryFunction(3, (3 - family[name].table) % 3)
        assert lhs == rhs


def test_validate_rejects_equal_functions():
    rng = np.random.default_rng(0)
    f = TernaryFunction.random(3, rng)
    with pytest.raises(ValidationError) as exc:
        validate(3, f, f)
    assert exc.value.function_name == "f-g"
    assert exc.value.hypothesis == "non-zero"


def test_validate_reports_the_first_member_in_family_order():
    # every member is transformed before any check: f's linear coincidence
    # still comes before f - g = 0
    f = TernaryFunction(3, dot_matrix(3)[5])  # the functional with index 5
    with pytest.raises(ValidationError) as exc:
        validate(3, f, f)
    assert (exc.value.function_name, exc.value.hypothesis, exc.value.witness) == ("f", "linear-coset-free", 5)


def test_validate_rejects_nonvanishing_origin():
    table = np.zeros(27, dtype=np.int8)
    table[0] = 1
    table[5] = 2
    f = TernaryFunction(3, table)
    g = TernaryFunction(3, np.roll(table, 1))
    with pytest.raises(ValidationError) as exc:
        validate(3, f, g)
    assert exc.value.function_name == "f"
    assert exc.value.hypothesis == "vanishes-at-zero"


def test_validate_rejects_linear_coincidence():
    m = 2
    f = TernaryFunction(m, dot_matrix(m)[4])
    g_table = np.zeros(9, dtype=np.int8)
    g_table[1] = 1
    g_table[5] = 2
    with pytest.raises(ValidationError) as exc:
        validate(m, f, TernaryFunction(m, g_table))
    assert exc.value.hypothesis == "linear-coset-free"
    assert exc.value.witness == 4


def test_weight_of_trivial_cases():
    spec = random_valid_spec(3, np.random.default_rng(1))
    assert weight_of(spec, 0, 0, 0) == 0
    for v in (1, 5, 26):
        assert weight_of(spec, 0, 0, v) == 2 * 3**2


def test_weight_of_matches_materialized_words():
    rng = np.random.default_rng(2)
    for m in (2, 3, 4):
        spec = random_valid_spec(m, rng)
        for _ in range(40):
            u, r = int(rng.integers(3)), int(rng.integers(3))
            v = int(rng.integers(gf3.pow3(m)))
            cw = materialize(spec, u, r, v)  # internally cross-checks the weight
            assert cw.hamming_weight() == weight_of(spec, u, r, v)


def test_materialize_examples():
    spec = random_valid_spec(2, np.random.default_rng(3))
    e1 = materialize(spec, 0, 0, 1)  # the word of x -> x_1
    assert np.array_equal(e1.word, gf3.digits_table(2)[0][1:])
    f_word = materialize(spec, 1, 0, 0)
    assert np.array_equal(f_word.word, spec.f.table[1:])


@pytest.mark.parametrize("build", [
    lambda index: weight_of(random_valid_spec(2, np.random.default_rng(3)), 1, 0, index),
    lambda index: materialize(random_valid_spec(2, np.random.default_rng(3)), 1, 0, index),
])
@pytest.mark.parametrize("index", [-1, -9, 9, 10**6])
def test_out_of_range_index_raises(build, index):
    with pytest.raises(ValueError, match="out of range"):
        build(index)


def test_codeword_matrix_rows_are_materialized_words():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4, 5):
        spec = random_valid_spec(m, rng)
        words = all_codewords(spec)
        assert words.dtype == np.int8
        labels = [(u, r, v) for u in range(3) for r in range(3) for v in range(gf3.pow3(m))]
        assert len(words) == len(labels)
        for row, (u, r, v) in zip(words, labels):
            assert np.array_equal(row, materialize(spec, u, r, v).word)
        picked = rng.permutation(len(labels))[:50]
        assert np.array_equal(codeword_rows(spec, picked), words[picked])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_neg_dot_table_is_the_negated_dot_matrix(m):
    table = neg_dot_table(m)
    assert table.dtype == np.int8 and table.shape == (3**m, 3**m - 1)
    assert np.array_equal(table, (-dot_matrix(m)[:, 1:].astype(np.int16)) % 3)
    assert neg_dot_table(m) is table and not table.flags.writeable  # built once per m


def test_pair_rows_are_the_top_message_words():
    spec = random_valid_spec(3, np.random.default_rng(8))
    for ur, row in enumerate(pair_rows(spec)):
        assert np.array_equal(row, materialize(spec, *divmod(ur, 3), 0).word)


def test_codeword_matrix_capacity():
    spec = random_valid_spec(6, np.random.default_rng(4))
    with pytest.raises(CapacityError):
        codeword_rows(spec, [0])
    with pytest.raises(CapacityError):
        neg_dot_table(6)


def test_linearity_of_codewords_exhaustive():
    # word(p1) + word(p2) = word(p1 + p2) over all parameter pairs, m <= 4
    rng = np.random.default_rng(6)
    for m in (2, 3, 4):
        spec = random_valid_spec(m, rng)
        words = all_codewords(spec)
        total = gf3.pow3(m)
        labels = [(u, r, v) for u in range(3) for r in range(3) for v in range(total)]

        def row_of(u, r, v):
            return (u * 3 + r) * total + v

        add_idx = gf3.add_perm_rows(m, np.arange(total))
        for i1, (u1, r1, v1) in enumerate(labels):
            sum_rows = np.empty(len(labels), dtype=np.int64)
            for i2, (u2, r2, v2) in enumerate(labels):
                sum_rows[i2] = row_of((u1 + u2) % 3, (r1 + r2) % 3, add_idx[v1, v2])
            lhs = (words[i1][None, :] + words) % 3
            assert np.array_equal(lhs, words[sum_rows])


def test_distribution_matches_materialization():
    # >= 50 random pairs across m <= 5 via the full matrix, plus one m = 6
    # spec materialized word by word (the matrix helper caps at m = 5)
    rng = np.random.default_rng(7)
    for m, reps in ((2, 15), (3, 15), (4, 12), (5, 10)):
        for _ in range(reps):
            spec = random_valid_spec(m, rng)
            words = all_codewords(spec)
            direct: dict[int, int] = {}
            for w in np.count_nonzero(words, axis=1):
                direct[int(w)] = direct.get(int(w), 0) + 1
            assert direct == weight_distribution(spec).entries
    spec = random_valid_spec(6, rng)
    direct = {}
    for u in range(3):
        for r in range(3):
            for v in range(gf3.pow3(6)):
                w = materialize(spec, u, r, v).hamming_weight()
                direct[w] = direct.get(w, 0) + 1
    assert direct == weight_distribution(spec).entries


def test_no_codeword_collisions():
    rng = np.random.default_rng(8)
    for m in (2, 3, 4, 5):
        spec = random_valid_spec(m, rng)
        words = all_codewords(spec)
        distinct = {w.tobytes() for w in words}
        assert len(distinct) == spec.codeword_count == 3 ** (m + 2)
    # m = 6 exhaustively via the spectra: weight 0 occurs once among all
    # 3^(m+2) parameter triples, so the parameter map is injective
    spec = random_valid_spec(6, rng)
    wd = weight_distribution(spec)
    assert wd.total() == 3**8
    assert wd.entries[0] == 1


def test_cwe_invariants_and_marginal():
    rng = np.random.default_rng(9)
    for m in (2, 3):
        spec = random_valid_spec(m, rng)
        enum = cwe(spec)
        assert enum.total() == 3 ** (m + 2)
        assert all(sum(t) == gf3.pow3(m) - 1 for t in enum.terms)
        assert enum.weight_marginal() == weight_distribution(spec)
        assert enum.terms[(gf3.pow3(m) - 1, 0, 0)] == 1
        simplex = (3 ** (m - 1) - 1, 3 ** (m - 1), 3 ** (m - 1))
        assert enum.terms[simplex] >= gf3.pow3(m) - 1


def _materialized_cwe(spec) -> dict[tuple[int, int, int], int]:
    words = all_codewords(spec)
    direct: dict[tuple[int, int, int], int] = {}
    for row in words:
        key = tuple(int(np.count_nonzero(row == lam)) for lam in range(3))
        direct[key] = direct.get(key, 0) + 1
    return direct


def test_cwe_matches_materialization():
    rng = np.random.default_rng(10)
    for m in (2, 3, 4, 5):
        spec = random_valid_spec(m, rng)
        assert _materialized_cwe(spec) == cwe(spec).terms


@pytest.mark.parametrize("m", [4, 5])
def test_enumerators_match_materialization_on_scrambled_shell(m):
    a = np.eye(m, dtype=np.int64)
    a[0, 1] = a[1, 2] = 1
    spec = scrambled_spec(shell_spec(m, 2, 4), a)
    # no member's (N1, N2) multiset is swap-symmetric, so an enumerator that
    # mishandled the N1/N2 swap of the sign -1 terms would disagree
    for sp in spec.spectra.values():
        assert sorted(zip(sp.n1.tolist(), sp.n2.tolist())) != sorted(zip(sp.n2.tolist(), sp.n1.tolist()))
    direct = _materialized_cwe(spec)
    assert cwe(spec).terms == direct
    weights: dict[int, int] = {}
    for (_t0, t1, t2), c in direct.items():
        weights[t1 + t2] = weights.get(t1 + t2, 0) + c
    assert weight_distribution(spec).entries == weights


def _unitriangular(m):
    """An invertible m x m matrix over F_3 that is not monomial (m >= 2)."""
    a = np.eye(m, dtype=np.int64)
    a[np.arange(m - 1), np.arange(1, m)] = 1
    return a


CWE_PAIRS = {
    "random": lambda m, rng: random_valid_spec(m, rng),
    "sparse": lambda m, rng: sparse_random_spec(m, rng),
    "weight-symmetric": lambda m, rng: random_weight_symmetric_spec(m, rng),
    "shell": lambda m, rng: shell_spec(m, 2, 4),
    "scrambled": lambda m, rng: scrambled_spec(shell_spec(m, 2, 4), _unitriangular(m)),
}


def _assert_cwe_matches_dict_merge(spec):
    enum = cwe(spec)
    ref = dict_cwe_terms(spec)
    assert enum.terms == ref
    assert len(enum.terms) == len(ref)
    assert enum.sorted_items() == sorted(ref.items())
    assert enum.weight_marginal().entries == dict_weight_marginal(ref)
    assert enum.weight_marginal() == weight_distribution(spec)


@pytest.mark.parametrize("kind", CWE_PAIRS)
@pytest.mark.parametrize("m", range(2, 10))
def test_cwe_matches_the_dict_merge(m, kind):
    _assert_cwe_matches_dict_merge(CWE_PAIRS[kind](m, np.random.default_rng(100 + m)))


def test_cwe_matches_the_dict_merge_at_m10():
    _assert_cwe_matches_dict_merge(random_valid_spec(10, np.random.default_rng(110)))


def test_terms_view_reads_like_a_dict():
    spec = random_valid_spec(4, np.random.default_rng(12))
    enum, ref = cwe(spec), dict_cwe_terms(spec)
    terms = enum.terms
    assert list(terms) == sorted(ref)
    assert list(terms.items()) == sorted(ref.items())
    assert list(terms.values()) == [c for _, c in sorted(ref.items())]
    for key, count in ref.items():
        assert key in terms and terms[key] == count
    for missing in ((80, 1, 0), (0, 0, 0), (81, 0, 0), (-1, 0, 0)):
        assert missing not in terms
        with pytest.raises(KeyError):
            terms[missing]
    assert enum.exponents.dtype == enum.counts.dtype == np.int64
    assert not enum.exponents.flags.writeable and not enum.counts.flags.writeable
    # the dict constructor sorts its terms: the same arrays as the merge
    assert CompleteWeightEnumerator(ref) == enum
    assert CompleteWeightEnumerator(dict(reversed(ref.items()))) == enum
    assert CompleteWeightEnumerator({}).total() == 0
    assert CompleteWeightEnumerator({}).weight_marginal().entries == {}


def _spec_with_spectrum(spec, name, sp):
    """``spec`` with the stored spectrum of member ``name`` replaced by ``sp``, unvalidated."""
    return CodeSpec(spec.m, spec.f, spec.g, spec.family, {**spec.spectra, name: sp})


def test_cwe_rejects_a_negative_exponent():
    # F = 1 has N0 = 0 at w = 0, so its term there would have t0 = N0 - 1 = -1
    spec = random_valid_spec(3, np.random.default_rng(13))
    one = fast_count_spectrum(TernaryFunction(3, np.ones(27)))
    with pytest.raises(ConsistencyError, match="negative"):
        cwe(_spec_with_spectrum(spec, "f", one))


def test_cwe_rejects_a_row_that_does_not_sum_to_the_length():
    # a doubled real part off by one is not a multiple of 3, so its floored
    # t0 = (3^m + rd)//3 - 1 and t2 = (2*3^m - rd)//3 - N1 sum one short
    spec = random_valid_spec(3, np.random.default_rng(14))
    sp = spec.spectra["g"]
    w = int(np.flatnonzero(sp.n2 > 0)[0])  # keeps t2 = N2 - 1 >= 0
    bad = CountSpectrum.__new__(CountSpectrum)
    bad.m, bad.n1, bad.rd = sp.m, sp.n1, sp.rd.copy()
    bad.rd[w] += 1
    with pytest.raises(ConsistencyError, match="does not sum"):
        cwe(_spec_with_spectrum(spec, "g", bad))


def test_cwe_rejects_multiplicities_that_miss_codewords():
    # a member spectrum of dimension 2 in an m = 3 spec counts 9 shifts, not
    # 27; its rows still sum to 3^3 - 1 and are nonnegative
    spec = random_valid_spec(3, np.random.default_rng(15))
    small = random_valid_spec(2, np.random.default_rng(15)).spectra["f+g"]
    with pytest.raises(ConsistencyError, match="cover"):
        cwe(_spec_with_spectrum(spec, "f+g", small))


def test_serialization_round_trip():
    spec = random_valid_spec(3, np.random.default_rng(11))
    wd = weight_distribution(spec)
    enum = cwe(spec)
    obj = result_json_obj(spec.m, weights=wd, cwe_terms=enum)
    parsed = json.loads(json.dumps(obj))
    assert parsed["m"] == 3
    assert parsed["length"] == 26
    assert parsed["dimension"] == 5
    assert parsed["weights"] == sorted(parsed["weights"])
    assert parsed["cwe"] == sorted(parsed["cwe"])
    assert sum(c for *_, c in parsed["cwe"]) == 3**5
    lines = weights_csv(wd).strip().splitlines()
    assert lines[0] == "weight,count"
    assert len(lines) == 1 + len(wd.entries)
    lines = cwe_csv(enum).strip().splitlines()
    assert lines[0] == "t0,t1,t2,count"
    assert all(len(ln.split(",")) == 4 for ln in lines[1:])
