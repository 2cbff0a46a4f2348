import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from msignn import numerics
from msignn.errors import ShapeError


def test_spmm_identity():
    z = np.arange(6.0).reshape(2, 3)
    s = numerics.as_csr(sp.eye_array(3, format="csr"))
    npt.assert_array_equal(numerics.spmm_right(z, s), z)


def test_spmm_empty_column():
    # column 1 of s is empty: output column 1 must be zero
    s = numerics.as_csr(np.array([[1.0, 0.0, 2.0],
                                  [0.0, 0.0, 1.0],
                                  [3.0, 0.0, 0.0]]))
    z = np.ones((2, 3))
    out = numerics.spmm_right(z, s)
    npt.assert_array_equal(out[:, 1], np.zeros(2))
    npt.assert_array_equal(out, z @ s.toarray())


def test_spmm_matches_dense_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = int(rng.integers(1, 51))
        inner = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        z = rng.standard_normal((rows, inner))
        mask = rng.random((inner, cols)) < 0.2
        s = numerics.as_csr(sp.csr_array(rng.standard_normal((inner, cols)) * mask))
        expected = z @ s.toarray()
        got = numerics.spmm_right(z, s)
        scale = np.abs(expected).max() + 1.0
        npt.assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


def test_spmm_shape_error():
    s = numerics.as_csr(sp.eye_array(3, format="csr"))
    with pytest.raises(ShapeError):
        numerics.spmm_right(np.zeros((2, 4)), s)


def test_softmax_rows_uniform():
    npt.assert_allclose(numerics.softmax_rows(np.zeros((1, 3))),
                        np.full((1, 3), 1.0 / 3.0), rtol=1e-15)


def test_softmax_rows_exact_exponentials():
    out = numerics.softmax_rows(np.array([[np.log(2.0), 0.0]]))
    npt.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-14)


def test_softmax_rows_overflow_safe():
    out = numerics.softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out[0, 0], 1.0, atol=1e-12)
    npt.assert_allclose(out[0, 1], 0.0, atol=1e-12)


def test_softmax_rows_sum_and_shift_invariance():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((10, 7)) * 5
    out = numerics.softmax_rows(m)
    npt.assert_allclose(out.sum(axis=1), np.ones(10), atol=1e-12)
    shifted = numerics.softmax_rows(m + 3.7)
    npt.assert_allclose(out, shifted, atol=1e-12)
    assert np.all(out > 0) and np.all(out < 1)


def test_as_dense_rejects_nonfinite():
    with pytest.raises(ValueError):
        numerics.as_dense(np.array([[np.nan, 0.0]]))


def test_check_csr_rejects_bad_indptr():
    s = sp.csr_array(np.eye(3))
    s.indptr = np.array([0, 2, 1, 3], dtype=s.indptr.dtype)
    with pytest.raises(ShapeError):
        numerics.check_csr(s)


def _raw_csr(indptr, indices, shape):
    """A CSR array over the given structure, bypassing scipy's own canonicalization."""
    s = sp.csr_array(np.eye(*shape))
    s.indptr = np.asarray(indptr, dtype=np.int32)
    s.indices = np.asarray(indices, dtype=np.int32)
    s.data = np.ones(len(indices))
    return s


@pytest.mark.parametrize("indptr, indices", [
    ([0, 2, 3, 3], [2, 0, 1]),   # unsorted within row 0
    ([0, 1, 3, 3], [0, 1, 1]),   # duplicate within row 1
    ([0, 1, 2, 3], [0, 3, 2]),   # column 3 outside a 3-column matrix
    ([0, 0, 1, 3], [0, 2, 1]),   # unsorted last row after an empty first row
])
def test_check_csr_rejects_bad_indices(indptr, indices):
    with pytest.raises(ShapeError):
        numerics.check_csr(_raw_csr(indptr, indices, (3, 3)))


def test_check_csr_accepts_row_boundaries():
    # Empty leading and trailing rows, and a column index that falls from one
    # row to the next: each is valid and must not read as a sorting violation.
    numerics.check_csr(_raw_csr([0, 0, 2, 3, 3], [1, 2, 0], (4, 3)))
    numerics.check_csr(_raw_csr([0, 0, 0, 0], [], (3, 3)))


def test_as_csr_leaves_input_unchanged():
    a = sp.csr_array((np.array([1.0, 2.0]), np.array([2, 0]), np.array([0, 2, 2, 2])),
                     shape=(3, 3))
    indices, data = a.indices.copy(), a.data.copy()
    out = numerics.as_csr(a)
    npt.assert_array_equal(a.indices, indices)
    npt.assert_array_equal(a.data, data)
    npt.assert_array_equal(out.indices, [0, 2])
    npt.assert_array_equal(out.toarray(), a.toarray())
