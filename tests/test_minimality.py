import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terncode import gf3
from terncode.code import all_codewords_matrix, validate
from terncode.errors import CapacityError
from terncode.minimality import (
    PAIR_ALGEBRA,
    ashikhmin_barg,
    confirm_witness,
    covers,
    is_minimal_bruteforce,
    orbit_violations,
    spectral_check,
    spectral_sweep,
)
from terncode.spectrum import TernaryFunction, combine

from conftest import random_valid_spec, random_weight_symmetric_spec, shell_spec, weight_symmetric_spec

MODES = ({}, {"per_condition": True}, {"exhaustive": True, "max_witnesses": 50})

words3 = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12)


def test_covers_trivial_cases():
    assert covers([1, 0, 2], [0, 0, 0])
    assert covers([1, 0, 2], [1, 0, 2])
    assert not covers([1, 0, 2], [0, 1, 0])
    with pytest.raises(ValueError):
        covers([1, 0], [1, 0, 2])


@given(words3, st.data())
def test_covers_reflexive_and_transitive(a, data):
    n = len(a)
    b = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    c = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    assert covers(a, a)
    if covers(a, b) and covers(b, c):
        assert covers(a, c)
    if covers(a, b) and covers(b, a) and any(a) and any(b):
        assert [x != 0 for x in a] == [x != 0 for x in b]


def test_weight_identity_agreement_exhaustive_f3_4():
    # covers() itself asserts the weight identity; sweep all pairs of length-4 words
    for ai in range(81):
        a = [(ai // 3**k) % 3 for k in range(4)]
        for bi in range(81):
            b = [(bi // 3**k) % 3 for k in range(4)]
            covers(a, b)


def test_ashikhmin_barg():
    assert ashikhmin_barg(834, 14226) is False
    assert ashikhmin_barg(7, 7) is True
    assert ashikhmin_barg(2, 3) is False  # the boundary ratio 2/3 is not strict
    with pytest.raises(ValueError):
        ashikhmin_barg(0, 5)
    with pytest.raises(ValueError):
        ashikhmin_barg(6, 5)


def test_pair_algebra_is_the_function_algebra():
    rng = np.random.default_rng(77)
    f = TernaryFunction.random(3, rng)
    g = TernaryFunction.random(3, rng)
    family = {"f": f, "g": g, "f+g": combine(1, 1, f, g), "f-g": combine(1, 2, f, g)}

    def resolve(key):
        name, sign = key
        t = family[name].table
        return t if sign > 0 else (3 - t) % 3

    for f1, f2, sum_key, diff_key in PAIR_ALGEBRA:
        t1, t2 = family[f1].table.astype(np.int16), family[f2].table.astype(np.int16)
        assert np.array_equal((t1 + t2) % 3, resolve(sum_key))
        assert np.array_equal((t1 - t2) % 3, resolve(diff_key))


def test_bruteforce_capacity():
    spec = random_valid_spec(6, np.random.default_rng(2))
    with pytest.raises(CapacityError):
        is_minimal_bruteforce(spec)


def test_simplex_subcode_alone_is_minimal():
    # the purely linear words: no covering among independent ones
    m = 3
    spec = random_valid_spec(m, np.random.default_rng(3))
    words, labels = all_codewords_matrix(spec)
    linear_rows = [i for i, (u, r, v) in enumerate(labels) if (u, r) == (0, 0) and v != 0]
    for i in linear_rows:
        for j in linear_rows:
            vi = labels[i][2]
            vj = labels[j][2]
            if vj in (vi, gf3.neg_index(m, vi)):
                continue
            assert not covers(words[i], words[j])


def test_cross_oracle_agreement_with_witness_confirmation():
    rng = np.random.default_rng(2024)
    seen_nonminimal = 0
    for m in (2, 3):
        for _ in range(25):
            spec = random_valid_spec(m, rng)
            bf = is_minimal_bruteforce(spec)
            t2 = spectral_check(spec, processes=1)
            assert bf.minimal == t2.minimal
            if not t2.minimal:
                seen_nonminimal += 1
                assert confirm_witness(spec, t2.witnesses[0])
                assert confirm_witness(spec, bf.witnesses[0])
    assert seen_nonminimal > 0


def test_spectral_exhaustive_and_per_condition_modes():
    rng = np.random.default_rng(31)
    spec = None
    while spec is None:
        candidate = random_valid_spec(2, rng)
        if not spectral_check(candidate, processes=1).minimal:
            spec = candidate
    exhaustive = spectral_check(spec, exhaustive=True, max_witnesses=50, processes=1)
    assert not exhaustive.minimal
    assert len(exhaustive.witnesses) >= 1
    for w in exhaustive.witnesses[:10]:
        assert confirm_witness(spec, w)
    per_cond = spectral_check(spec, per_condition=True, processes=1)
    labels = {w.condition for w in per_cond.witnesses}
    assert labels <= {"triple-minus", "triple-plus", "mixed-pair"}
    assert len(per_cond.witnesses) == len(labels)


def test_spectral_determinism_across_process_counts():
    # m = 6 spans two scheduling chunks, so processes=2 drives the pool
    specs = (
        random_valid_spec(6, np.random.default_rng(55)),
        # functions of wt(x) with only mixed-pair violated: later chunks rescan it
        weight_symmetric_spec(6, [0, 2, 0, 2, 1, 1, 1], [0, 2, 0, 0, 1, 1, 1]),
    )
    for spec in specs:
        for mode in MODES:
            v1 = spectral_check(spec, processes=1, **mode)
            v2 = spectral_check(spec, processes=2, **mode)
            assert v1.to_json_obj() == v2.to_json_obj()


def test_spectral_budget():
    for spec in (random_valid_spec(4, np.random.default_rng(9)), shell_spec(5, 2, 4)):
        with pytest.raises(CapacityError) as exc:
            spectral_check(spec, budget_seconds=0.0, processes=1)
        assert exc.value.completed_fraction == 0.0


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verdict_flag_matches_witnesses(seed):
    spec = random_valid_spec(2, np.random.default_rng(seed))
    v = spectral_check(spec, processes=1)
    assert v.minimal == (len(v.witnesses) == 0)


def test_thread_count_env_var(monkeypatch):
    from terncode.minimality import THREADS_ENV_VAR, _resolve_processes

    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert _resolve_processes(None) == 3
    assert _resolve_processes(0) == 3
    assert _resolve_processes(5) == 5
    monkeypatch.delenv(THREADS_ENV_VAR)
    assert _resolve_processes(None) >= 1


def test_spectral_parallel_path_determinism_with_witness():
    # m = 6 spans multiple scheduling chunks, so this drives the real
    # multi-process path; a single-bump f guarantees a covering violation
    # (its weight-1 word sits inside most linear words)
    import terncode.code as code_mod
    from terncode.errors import ValidationError

    m = 6
    rng = np.random.default_rng(606)
    f_tab = np.zeros(3**m, dtype=np.int8)
    f_tab[5] = 1
    f = TernaryFunction(m, f_tab)
    while True:
        g = TernaryFunction.random(m, rng)
        try:
            spec = code_mod.validate(m, f, g)
            break
        except ValidationError:
            continue
    serial = spectral_check(spec, processes=1)
    parallel = spectral_check(spec, processes=2)
    assert serial.minimal is False and parallel.minimal is False
    assert serial.witnesses == parallel.witnesses
    assert confirm_witness(spec, serial.witnesses[0])


def test_orbit_precheck_agrees_with_sweep():
    rng = np.random.default_rng(12)
    specs = [random_weight_symmetric_spec(m, rng) for m in range(2, 8) for _ in range(6 if m < 7 else 2)]
    # minimal pairs that an orbit check taking wt(v1-v2) as wt(v1+v2) would reject
    specs += [
        weight_symmetric_spec(6, [0, 1, 2, 2, 0, 0, 0], [0, 1, 1, 0, 0, 0, 2]),
        weight_symmetric_spec(7, [0, 0, 2, 0, 2, 0, 0, 1], [0, 1, 0, 1, 1, 0, 0, 1]),
    ]
    minimal = 0
    for spec in specs:
        swept = spectral_sweep(spec, per_condition=True, processes=1)
        assert orbit_violations(spec) == {w.condition for w in swept.witnesses}
        minimal += swept.minimal
        for mode in MODES:
            # a clean sweep scans every pair, so it is the same in every mode
            expected = swept if swept.minimal else spectral_sweep(spec, processes=1, **mode)
            assert spectral_check(spec, processes=1, **mode).to_json_obj() == expected.to_json_obj()
    assert 2 < minimal < len(specs)


@pytest.mark.parametrize("m", [7, 8])
def test_orbit_precheck_certifies_shell_codes(m):
    spec = shell_spec(m, 2, 4)
    assert orbit_violations(spec) == set()
    swept = spectral_sweep(spec, per_condition=True).to_json_obj()
    assert swept["minimal"] is True
    for mode in MODES:
        assert spectral_check(spec, **mode).to_json_obj() == swept


def test_scrambled_shell_is_not_weight_symmetric():
    # (f o A, g o A) for an invertible non-monomial A: an equivalent code
    # whose spectra are no longer constant on weight classes
    m = 5
    shell = shell_spec(m, 2, 4)
    a = np.array([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    digits = gf3.digits_table(m).astype(np.int64)
    perm = ((a @ digits) % 3 * 3 ** np.arange(m)[:, None]).sum(axis=0)
    scrambled = validate(m, TernaryFunction(m, shell.f.table[perm]), TernaryFunction(m, shell.g.table[perm]))
    assert orbit_violations(scrambled) is None
    assert spectral_check(scrambled).to_json_obj() == spectral_check(shell).to_json_obj()
