from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terncode import gf3, minimality
from terncode.errors import CapacityError, ConsistencyError
from terncode.minimality import (
    ALL_CONDITIONS,
    PAIR_ALGEBRA,
    ashikhmin_barg,
    confirm_witness,
    covers,
    is_minimal_bruteforce,
    orbit_violations,
    spectral_check,
)
from terncode.spectrum import TernaryFunction, combine

from conftest import (
    all_codewords,
    junta_spec,
    naive_violations,
    random_valid_spec,
    random_weight_symmetric_spec,
    reference_verdict,
    scrambled_spec,
    shell_spec,
    sparse_random_spec,
    weight_symmetric_spec,
)

MODES = ({}, {"per_condition": True}, {"exhaustive": True, "max_witnesses": 50})


def nonmonomial(m: int) -> np.ndarray:
    """An invertible m x m matrix that is not monomial: ``scrambled_spec``
    with it breaks the weight symmetry of the spectra."""
    a = np.eye(m, dtype=np.int64)
    a[0, 1] = 1
    return a


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


@pytest.mark.parametrize("sampler", [random_valid_spec, random_weight_symmetric_spec])
def test_samplers_give_up_at_m1(sampler):
    # validate rejects every pair at m = 1
    with pytest.raises(RuntimeError, match="no valid pair"):
        sampler(1, np.random.default_rng(0))


def test_bruteforce_capacity():
    spec = random_valid_spec(6, np.random.default_rng(2))
    with pytest.raises(CapacityError):
        is_minimal_bruteforce(spec)


def _label_scan(spec):
    """Every covering pair of the code, as (a label, b label, nonzero a labels scanned).

    A plain double loop over the labels (u, r, v) in the order of the index
    (3u + r)*3^m + v, with words written out from their definition and
    their supports held as Python int bit masks: a covers b exactly when
    no bit of b's mask lies outside a's.
    """
    m, n = spec.m, 3**spec.m
    digits = lambda i: np.array([(i // 3**k) % 3 for k in range(m)])
    x_digits = np.array([digits(x) for x in range(1, n)])
    f, g = spec.f.table[1:].astype(int), spec.g.table[1:].astype(int)
    labels = [(u, r, v) for u in range(3) for r in range(3) for v in range(n)]
    words = {(u, r, v): (u * f + r * g + x_digits @ digits(v)) % 3 for u, r, v in labels}
    mask = {label: int("".join("1" if t else "0" for t in word.tolist()), 2) for label, word in words.items()}
    negate = lambda u, r, v: (-u % 3, -r % 3, int((-digits(v) % 3) @ 3 ** np.arange(m)))
    found, scanned = [], 0
    for a in labels:
        if a == (0, 0, 0):
            continue
        scanned += 1
        skip, outside = ((0, 0, 0), a, negate(*a)), ~mask[a]
        for b in labels:
            if b not in skip and mask[b] & outside == 0:
                found.append((a, b, scanned))
    return found


def _shared_supports(spec) -> int:
    """The supports held by more than one pair {c, -c} of nonzero words."""
    words = all_codewords(spec)
    holders = Counter(tuple(np.flatnonzero(word)) for word in words[1:])
    return sum(count > 2 for count in holders.values())


@pytest.mark.parametrize("m", [2, 3])
def test_bruteforce_follows_the_label_double_loop(m):
    rng = np.random.default_rng(m)
    specs = (sparse_random_spec(m, rng), random_valid_spec(m, rng))
    # two non-proportional words with one support cover each other: the
    # oracle scans one row per {c, -c} and must still report both
    assert _shared_supports(specs[0]) == {2: 1, 3: 4}[m]
    for spec in specs:
        found = _label_scan(spec)
        assert len(found) > 7
        pairs_per_row = 9 * 3**m - 3
        for cap in (1, 7, 10**6):
            verdict = is_minimal_bruteforce(spec, max_witnesses=cap)
            assert not verdict.minimal
            assert [(w.a_params, w.b_params) for w in verdict.witnesses] == [(a, b) for a, b, _ in found[:cap]]
            scanned = found[cap - 1][2] if cap <= len(found) else 9 * 3**m - 1
            assert verdict.checks == scanned * pairs_per_row


def _byte_major_scan(spec, max_witnesses: int):
    """The covering pairs and check count of a plain per-row scan: row a
    against every row b at once, on byte-packed supports."""
    words = all_codewords(spec)
    supports = np.ascontiguousarray(np.packbits(words != 0, axis=1).T)  # byte-major: reduce over rows
    n_rows = len(words)
    labels = [(u, r, v) for u in range(3) for r in range(3) for v in range(3**spec.m)]
    negated = gf3.neg_perm(spec.m + 2)
    found, checks = [], 0
    for a_row in range(1, n_rows):
        covered = ~(supports & ~supports[:, a_row, None]).any(axis=0)
        covered[[0, a_row, negated[a_row]]] = False
        checks += n_rows - 3
        for b_row in np.flatnonzero(covered):
            found.append((labels[a_row], labels[int(b_row)]))
            if len(found) >= max_witnesses:
                return found, checks
    return found, checks


def _assert_bruteforce_matches_the_byte_major_scan(specs):
    for spec in specs:
        for cap in (1, 7, 10**6):
            found, checks = _byte_major_scan(spec, cap)
            verdict = is_minimal_bruteforce(spec, max_witnesses=cap)
            assert [(w.a_params, w.b_params) for w in verdict.witnesses] == found
            assert verdict.checks == checks
            assert verdict.minimal == (not found)


def test_bruteforce_matches_the_byte_major_scan():
    rng = np.random.default_rng(44)
    # m = 2: 8 coordinates, fewer than the anchors, so every AND is exact
    specs = [random_valid_spec(2, rng), sparse_random_spec(2, rng, support=1)]
    specs += [sparse_random_spec(4, rng), sparse_random_spec(4, rng, support=1)]
    specs += [random_valid_spec(4, rng), sparse_random_spec(5, rng), sparse_random_spec(5, rng, support=1)]
    # minimal pairs at m = 5: every row's AND is over its zeros among the
    # anchors, so every candidate must be verified away
    minimal = [random_valid_spec(5, rng) for _ in range(2)]
    specs += [*minimal, random_weight_symmetric_spec(4, rng), random_weight_symmetric_spec(5, rng)]
    # few-coordinate pairs: words that vanish on whole cosets of coordinates
    specs += [junta_spec(4, rng), junta_spec(5, rng)]
    specs.append(shell_spec(5, 2, 4))
    _assert_bruteforce_matches_the_byte_major_scan(specs)
    assert not any(is_minimal_bruteforce(spec).minimal for spec in specs[:2])
    assert not is_minimal_bruteforce(specs[2]).minimal
    assert not any(is_minimal_bruteforce(spec).minimal for spec in specs[-3:-1])
    assert all(is_minimal_bruteforce(spec).minimal for spec in minimal)


def test_bruteforce_verifies_every_sampled_candidate(monkeypatch):
    # two anchors: a row's AND runs over its zeros among them, and keeps
    # every word vanishing there; only the verification on all of zero(a)
    # removes the false candidates
    monkeypatch.setattr(minimality, "_COVER_ANCHORS", 2)
    rng = np.random.default_rng(45)
    specs = [random_valid_spec(3, rng), sparse_random_spec(4, rng), random_valid_spec(4, rng)]
    specs += [random_weight_symmetric_spec(4, rng), sparse_random_spec(5, rng)]
    bitsets = minimality._ZeroBitsets(specs[0])
    n_zero = (all_codewords(specs[0])[bitsets.reps] == 0).sum(axis=1)
    assert not bitsets.exact and (n_zero > 2).all()  # every row's AND is over a sample
    candidates = np.unpackbits(bitsets.cover.view(np.uint8)).sum()  # own bits cleared
    covering = len(bitsets.covered(np.arange(len(bitsets.reps)))[0])
    assert candidates > 10 * covering
    _assert_bruteforce_matches_the_byte_major_scan(specs)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_representatives_are_the_rows_below_their_negation(m):
    _, reps, own, not_own = minimality._representatives(m)
    negated = gf3.neg_perm(m + 2)
    assert np.array_equal(reps, np.flatnonzero(np.arange(len(negated)) < negated))
    # the own bit of representative i: bit i % 64 of word i // 64 of its row
    bits = np.zeros((len(reps), -(-len(reps) // 64)), np.uint64)
    bits.reshape(-1)[own] = ~not_own
    assert np.array_equal(np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")[:, : len(reps)],
                          np.eye(len(reps), dtype=np.uint8))


@pytest.mark.parametrize("m", [4, 5])
def test_minimal_code_counts_every_ordered_pair(m):
    n = 3 ** (m + 2)
    verdict = is_minimal_bruteforce(random_valid_spec(m, np.random.default_rng(m)), max_witnesses=10**6)
    assert verdict.minimal
    assert verdict.checks == (n - 1) * (n - 3)


def test_simplex_subcode_alone_is_minimal():
    # the purely linear words: no covering among independent ones
    m = 3
    spec = random_valid_spec(m, np.random.default_rng(3))
    words = all_codewords(spec)
    labels = [(u, r, v) for u in range(3) for r in range(3) for v in range(3**m)]
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
            t2 = spectral_check(spec)
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
        if not spectral_check(candidate).minimal:
            spec = candidate
    exhaustive = spectral_check(spec, exhaustive=True, max_witnesses=50)
    assert not exhaustive.minimal
    assert len(exhaustive.witnesses) >= 1
    for w in exhaustive.witnesses[:10]:
        assert confirm_witness(spec, w)
    per_cond = spectral_check(spec, per_condition=True)
    labels = {w.condition for w in per_cond.witnesses}
    assert labels <= {"triple-minus", "triple-plus", "mixed-pair"}
    assert len(per_cond.witnesses) == len(labels)


def test_spectral_budget():
    specs = (
        random_valid_spec(4, np.random.default_rng(9)),
        shell_spec(5, 2, 4),
        random_valid_spec(6, np.random.default_rng(55)),
        # not weight-symmetric: the heavy-line path must not start
        scrambled_spec(shell_spec(5, 2, 4), nonmonomial(5)),
    )
    for spec in specs:
        with pytest.raises(CapacityError) as exc:
            spectral_check(spec, budget_seconds=0.0)
        assert exc.value.completed_fraction == 0.0


@pytest.mark.parametrize("budget", [float("nan"), -1.0, float("-inf")])
def test_spectral_budget_must_be_a_nonnegative_number(monkeypatch, budget):
    spec = random_valid_spec(3, np.random.default_rng(9))
    expected = spectral_check(spec).to_json_obj()
    assert spectral_check(spec, budget_seconds=float("inf")).to_json_obj() == expected

    def no_work(*args, **kwargs):
        raise AssertionError("spectral_check started on a bad budget")

    monkeypatch.setattr(minimality, "orbit_violations", no_work)
    with pytest.raises(ValueError, match="budget"):
        spectral_check(spec, budget_seconds=budget)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verdict_flag_matches_witnesses(seed):
    spec = random_valid_spec(2, np.random.default_rng(seed))
    v = spectral_check(spec)
    assert v.minimal == (len(v.witnesses) == 0)


def test_single_bump_witness_matches_naive_reference():
    # a single-bump f guarantees a covering violation (its weight-1 word
    # sits inside most linear words)
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
    verdict = spectral_check(spec)
    assert verdict.minimal is False
    assert reference_verdict(spec).witnesses == verdict.witnesses
    assert confirm_witness(spec, verdict.witnesses[0])


def test_spectral_modes_follow_naive_scan_order():
    # every mode of spectral_check against the naive violations in scan
    # order, with exhaustive caps on both sides of the violation count
    rng = np.random.default_rng(71)
    specs = []
    for m in (2, 2, 3, 3):
        spec = random_valid_spec(m, rng)
        while not naive_violations(spec):
            spec = random_valid_spec(m, rng)
        specs.append(spec)
    specs += [sparse_random_spec(m, rng) for m in (4, 5)]
    spec = random_weight_symmetric_spec(4, rng)
    while not orbit_violations(spec):
        spec = random_weight_symmetric_spec(4, rng)
    specs += [spec, scrambled_spec(spec, nonmonomial(4))]
    seen = set()
    for spec in specs:
        violations = naive_violations(spec)
        seen |= {v[0] for v in violations if spec.m >= 4}
        caps = (1, 7, len(violations), 10**9)
        for mode in [{}, {"per_condition": True}, *({"exhaustive": True, "max_witnesses": cap} for cap in caps)]:
            expected = reference_verdict(spec, **mode)
            assert not expected.minimal
            assert spectral_check(spec, **mode).to_json_obj() == expected.to_json_obj()
    assert seen == set(ALL_CONDITIONS)


def test_orbit_precheck_agrees_with_naive_reference():
    rng = np.random.default_rng(12)
    specs = [random_weight_symmetric_spec(m, rng) for m in range(2, 8) for _ in range(6 if m < 7 else 2)]
    # minimal pairs that an orbit check taking wt(v1-v2) as wt(v1+v2) would reject
    specs += [
        weight_symmetric_spec(6, [0, 1, 2, 2, 0, 0, 0], [0, 1, 1, 0, 0, 0, 2]),
        weight_symmetric_spec(7, [0, 0, 2, 0, 2, 0, 0, 1], [0, 1, 0, 1, 1, 0, 0, 1]),
        # violates mixed-pair only
        weight_symmetric_spec(6, [0, 2, 0, 2, 1, 1, 1], [0, 2, 0, 0, 1, 1, 1]),
    ]
    minimal = 0
    for spec in specs:
        reference = reference_verdict(spec, per_condition=True)
        assert orbit_violations(spec) == {w.condition for w in reference.witnesses}
        minimal += reference.minimal
        for mode in MODES:
            # a clean verdict counts every pair, so it is the same in every mode
            expected = reference if reference.minimal else reference_verdict(spec, **mode)
            assert spectral_check(spec, **mode).to_json_obj() == expected.to_json_obj()
    assert 2 < minimal < len(specs)


@pytest.mark.parametrize("m", [7, 8])
def test_orbit_precheck_certifies_shell_codes(m):
    spec = shell_spec(m, 2, 4)
    assert orbit_violations(spec) == set()
    expected = reference_verdict(spec, per_condition=True).to_json_obj()
    assert expected["minimal"] is True
    for mode in MODES:
        assert spectral_check(spec, **mode).to_json_obj() == expected


@pytest.mark.parametrize("m", [5, 11])  # at m = 11 each line spans three segments of j
def test_scrambled_shell_is_not_weight_symmetric(m):
    # (f o A, g o A) for an invertible non-monomial A: an equivalent code
    # whose spectra are no longer constant on weight classes
    shell = shell_spec(m, 2, 4)
    scrambled = scrambled_spec(shell, nonmonomial(m))
    assert orbit_violations(scrambled) is None
    assert spectral_check(scrambled).to_json_obj() == spectral_check(shell).to_json_obj()


def heavy_line_witnesses(spec) -> list:
    """Every violation on the lines through the heavy points, as witnesses
    in scan order."""
    batches = [keys for _, keys in minimality._line_keys(spec, minimality._LINES, minimality.heavy_points(spec))]
    keys = np.unique(np.concatenate([np.zeros(0, np.int64), *batches]))
    return [minimality._witness(spec.m, key) for key in keys]


# 4 * 7 pairs: one point per batch, and its lines in segments of 7 values of j
@pytest.mark.parametrize("line_batch", [minimality._LINE_BATCH, 4 * 7], ids=["default", "7j"])
def test_heavy_lines_match_naive_oracle(monkeypatch, line_batch):
    monkeypatch.setattr(minimality, "_LINE_BATCH", line_batch)
    rng = np.random.default_rng(66)
    # uniform random pairs are minimal from m = 4 on; a sparse f gives
    # violations there
    specs = [random_valid_spec(m, rng) for m in range(2, 7) for _ in range(6 if m < 4 else 2)]
    specs += [sparse_random_spec(m, rng) for m in range(4, 7)]
    for m in (4, 5):
        for _ in range(3):
            spec = random_weight_symmetric_spec(m, rng)
            specs += [spec, scrambled_spec(spec, nonmonomial(m))]
    specs += [scrambled_spec(shell_spec(m, 2, 4), nonmonomial(m)) for m in (5, 6)]
    # triple-plus holds at (v1, v2, v3) = (27, 0, 54): v2 has the low digits
    # of v1 but lies outside v1's block of the scan order
    specs.append(weight_symmetric_spec(4, [0, 0, 2, 0, 2], [0, 0, 2, 0, 1]))
    seen = set()
    for spec in specs:
        points = minimality.heavy_points(spec)
        assert np.array_equal(np.sort(gf3.neg_perm(spec.m)[points]), points)
        witnesses = heavy_line_witnesses(spec)
        found = [(w.condition, w.functions, w.vectors) for w in witnesses]
        assert len(set(found)) == len(found)
        assert set(found) == naive_violations(spec)
        if spec.m <= 5:
            assert all(confirm_witness(spec, w) for w in witnesses)
        seen |= {cond for cond, _, _ in found if spec.m >= 4}
    assert seen == {"triple-minus", "triple-plus", "mixed-pair"}


def test_heavy_path_json_matches_naive_reference():
    rng = np.random.default_rng(67)
    specs = [random_valid_spec(3, rng) for _ in range(2)]
    specs += [sparse_random_spec(m, rng) for m in (4, 5, 6)]
    for m in (5, 6):
        spec = random_weight_symmetric_spec(m, rng)
        while orbit_violations(spec) == set():
            spec = random_weight_symmetric_spec(m, rng)
        specs.append(scrambled_spec(spec, nonmonomial(m)))
    minimal = [
        scrambled_spec(shell_spec(6, 2, 4), nonmonomial(6)),
        random_valid_spec(6, np.random.default_rng(55)),  # no heavy point at all
    ]
    for spec in [*specs, *minimal]:
        assert orbit_violations(spec) is None  # so spectral_check takes the heavy lines
        for mode in MODES:
            expected = reference_verdict(spec, **mode).to_json_obj()
            assert expected["minimal"] is any(spec is s for s in minimal)
            assert spectral_check(spec, **mode).to_json_obj() == expected


def test_exhaustive_run_uses_the_line_keys():
    # 3,022 violations; the count stops at the comparison in scan order that
    # holds the last reported witness, so it must not depend on how the
    # rows are split (the 2,375th violation lies past v1 = 485)
    spec = sparse_random_spec(6, np.random.default_rng(5))
    caps = (1, 7, 2374, 2375, 10**9)
    expected = {cap: reference_verdict(spec, exhaustive=True, max_witnesses=cap).to_json_obj() for cap in caps}
    assert expected[2375]["checks"] == 7_101_648
    assert len(expected[10**9]["witnesses"]) == 3022
    assert expected[10**9]["checks"] == 20 * 3**12 - 8 * 3**6
    for cap in caps:
        assert spectral_check(spec, exhaustive=True, max_witnesses=cap).to_json_obj() == expected[cap]
    for mode in MODES:
        assert not spectral_check(spec, **mode).minimal
    with pytest.raises(ValueError):  # no witness list would read as minimal
        spectral_check(spec, exhaustive=True, max_witnesses=0)


def test_heavy_points_respect_parseval():
    spec = random_valid_spec(4, np.random.default_rng(68))
    # every shift heavy: sum |F_hat|^2 would be far above 3^(2m)
    spec.spectra["f"].rd = np.full(gf3.pow3(4), 2 * gf3.pow3(4), dtype=np.int64)
    with pytest.raises(ConsistencyError):
        spectral_check(spec)


def _tick_clock(monkeypatch) -> None:
    """Make ``minimality``'s clock advance one second per reading."""

    class Clock:
        now = 0.0

        @classmethod
        def monotonic(cls):
            cls.now += 1.0
            return cls.now

    monkeypatch.setattr(minimality, "time", Clock)


def test_heavy_path_budget_counts_points(monkeypatch):
    spec = sparse_random_spec(4, np.random.default_rng(69))
    n_points = len(minimality.heavy_points(spec))
    assert 2 < n_points and 4 * n_points < 3**4  # the heavy lines are the smaller cover
    monkeypatch.setattr(minimality, "_LINE_BATCH", 4 * gf3.pow3(4))  # one point per batch
    _tick_clock(monkeypatch)
    # readings: the deadline (1 + 2.5), after the orbit check (2), after the
    # first point (3) and after the second (4 >= 3.5)
    with pytest.raises(CapacityError) as exc:
        spectral_check(spec, budget_seconds=2.5)
    assert exc.value.completed_fraction == 2 / n_points


def test_whole_space_budget_counts_points(monkeypatch):
    spec = random_valid_spec(3, np.random.default_rng(73))
    assert 3**3 <= 4 * len(minimality.heavy_points(spec))  # so the scan takes the lines v1 = p
    monkeypatch.setattr(minimality, "_LINE_BATCH", gf3.pow3(3))  # one point per batch
    _tick_clock(monkeypatch)
    with pytest.raises(CapacityError, match="after 2/27 lines v1 = p") as exc:
        spectral_check(spec, budget_seconds=2.5)
    assert exc.value.completed_fraction == 2 / 27


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_whole_space_rows_are_the_full_add_and_sub_tables(m):
    add, sub = minimality._space_index_rows(m)
    points = np.arange(3**m)
    assert add.dtype == sub.dtype == np.int32
    assert np.array_equal(add, gf3.add_perm_rows(m, points))
    assert np.array_equal(sub, gf3.sub_perm_rows(m, points))
    assert minimality._space_index_rows(m)[0] is add  # built once per m


def test_whole_space_rows_stop_where_the_cover_cannot_start():
    # the cover needs 3^m <= 4|P| and |P| <= 200: never at m = 7
    with pytest.raises(CapacityError):
        minimality._space_index_rows(7)


def test_whole_space_scan_matches_naive_reference():
    # where 3^m <= 4|P|, the four lines through each heavy point hold at
    # least as many pairs as the criterion itself, and spectral_check scans
    # the lines v1 = p through every point instead: each pair once
    rng = np.random.default_rng(72)
    specs = [sampler(m, rng) for m in (2, 3) for sampler in (random_valid_spec, sparse_random_spec) for _ in range(2)]
    spec = junta_spec(4, rng)
    while 4 * len(minimality.heavy_points(spec)) < 3**4:
        spec = junta_spec(4, rng)
    specs.append(spec)
    for spec in specs:
        assert orbit_violations(spec) is None
        assert 3**spec.m <= 4 * len(minimality.heavy_points(spec))
        n_violations = len(naive_violations(spec))
        assert n_violations > 7
        caps = (1, 7, n_violations, 10**9)
        for mode in [{}, {"per_condition": True}, *({"exhaustive": True, "max_witnesses": cap} for cap in caps)]:
            assert spectral_check(spec, **mode).to_json_obj() == reference_verdict(spec, **mode).to_json_obj()
