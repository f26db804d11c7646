import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terncode import gf3
from terncode.code import cwe, weight_distribution
from terncode.errors import CapacityError
from terncode.hwconstruct import HWParams, build_spec
from terncode.minimality import spectral_check

from conftest import dot_matrix, shell_spec, sparse_random_spec


def test_dimension_cap():
    with pytest.raises(CapacityError):
        gf3.check_dimension(gf3.MAX_M + 1)
    with pytest.raises(ValueError):
        gf3.check_dimension(0)


def test_dot_symmetric_and_bilinear_exhaustive_m4():
    m = 4
    D = dot_matrix(m).astype(np.int16)
    assert np.array_equal(D, D.T)
    # dot(a + b, c) = dot(a, c) + dot(b, c) for all a, b, c
    rows = np.arange(gf3.pow3(m))
    add_idx = gf3.add_perm_rows(m, rows)  # add_idx[a, b] = idx(a + b)
    for c in range(gf3.pow3(m)):
        lhs = D[add_idx, c]
        rhs = (D[:, c][:, None] + D[:, c][None, :]) % 3
        assert np.array_equal(lhs, rhs)


def test_weight_class_sizes_exhaustive():
    for m in range(1, 9):
        w = gf3.weights_table(m)
        for i in range(m + 1):
            assert int((w == i).sum()) == gf3.count_vectors_of_weight(m, i)


def test_perm_tables_consistency():
    for m in range(1, 7):
        n = gf3.pow3(m)
        # inline reference: digit k of index i is (i // 3**k) % 3
        digits = np.array([[(i // 3**k) % 3 for i in range(n)] for k in range(m)])
        index = lambda ds: (ds % 3 * 3 ** np.arange(m)[:, None, None]).sum(axis=0)
        rows = np.arange(n)
        add_ref = index(digits[:, :, None] + digits[:, None, :])  # add_ref[r, j] = idx(v_r + v_j)
        sub_ref = index(digits[:, :, None] - digits[:, None, :])
        assert np.array_equal(gf3.add_perm_rows(m, rows), add_ref)
        assert np.array_equal(gf3.sub_perm_rows(m, rows), sub_ref)
        assert np.array_equal(gf3.add_perm_rows(m, rows[::-7]), add_ref[::-7])
        assert np.array_equal(gf3.neg_perm(m), index(-digits[:, None, :])[0])
        assert np.array_equal(gf3.weights_table(m), (digits != 0).sum(axis=0))
        assert np.array_equal(gf3.digits_table(m), digits)
        assert all(gf3.sub_index(m, i, j) == sub_ref[i, j] for i, j in [(0, 0), (1, n - 1), (n - 1, n // 2)])
        tables = (gf3.add_perm_rows(m, rows[:1]), gf3.neg_perm(m), gf3.weights_table(m), gf3.digits_table(m))
        assert [t.dtype for t in tables] == [np.int64, np.int64, np.int8, np.int8]
    # m = 0 (the high digits of a sweep block at m <= 3): one zero entry per row
    for table in (gf3.add_perm_rows(0, [0, 0, 0]), gf3.sub_perm_rows(0, [0, 0, 0])):
        assert table.shape == (3, 1) and not table.any()


def test_pipeline_builds_no_digits_table():
    """No path that grows with m builds the (m, 3^m) digits table, even from cold caches."""
    for table in (gf3.digits_table, gf3.weights_table, gf3.neg_perm):
        table.cache_clear()
    spec = build_spec(HWParams(9, 2, 4))
    spectral_check(spec, per_condition=True)
    weight_distribution(spec)
    cwe(spec)
    for s in (shell_spec(8, 2, 4), sparse_random_spec(6, np.random.default_rng(5))):
        for mode in ({}, {"per_condition": True}, {"exhaustive": True}):
            spectral_check(s, **mode)
    assert gf3.digits_table.cache_info().currsize == 0


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
def test_scalar_index_ops_match_vector_ops(m, i_raw, j_raw):
    i = i_raw % gf3.pow3(m)
    j = j_raw % gf3.pow3(m)
    # reference: plain digit lists, digit k of index i is (i // 3**k) % 3
    a = [(i // 3**k) % 3 for k in range(m)]
    b = [(j // 3**k) % 3 for k in range(m)]
    index = lambda digits: sum(d * 3**k for k, d in enumerate(digits))
    assert gf3.sub_index(m, i, j) == index([(x - y) % 3 for x, y in zip(a, b)])
    assert gf3.neg_index(m, i) == index([-x % 3 for x in a])
    assert gf3.weights_table(m)[i] == sum(x != 0 for x in a)
