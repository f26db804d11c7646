import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terncode import gf3
from terncode.errors import CapacityError


def test_dimension_cap():
    with pytest.raises(CapacityError):
        gf3.check_dimension(gf3.MAX_M + 1)
    with pytest.raises(ValueError):
        gf3.check_dimension(0)


def test_dot_symmetric_and_bilinear_exhaustive_m4():
    m = 4
    D = gf3.dot_matrix(m).astype(np.int16)
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
    m = 5
    neg = gf3.neg_perm(m)
    assert np.array_equal(neg[neg], np.arange(gf3.pow3(m)))
    rows = np.array([0, 7, 100])
    add = gf3.add_perm_rows(m, rows)
    sub = gf3.sub_perm_rows(m, rows)
    for k, r in enumerate(rows):
        for j in (0, 1, 50, 242):
            assert add[k, j] == gf3.add_index(m, int(r), j)
            assert sub[k, j] == gf3.sub_index(m, int(r), j)
    # v + 0 = v and v - v = 0
    assert np.array_equal(add[:, 0], rows)
    assert all(sub[k, int(r)] == 0 for k, r in enumerate(rows))


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
    assert gf3.add_index(m, i, j) == index([(x + y) % 3 for x, y in zip(a, b)])
    assert gf3.neg_index(m, i) == index([-x % 3 for x in a])
    assert gf3.dot_index(m, i, j) == sum(x * y for x, y in zip(a, b)) % 3
    assert gf3.weights_table(m)[i] == sum(x != 0 for x in a)
