import os
import subprocess
import sys
from pathlib import Path

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


def _raw_csr(indptr, indices, shape, data=None):
    """A CSR array over the given structure, bypassing scipy's own canonicalization."""
    s = sp.csr_array(np.eye(*shape))
    s.indptr = np.asarray(indptr, dtype=np.int32)
    s.indices = np.asarray(indices, dtype=np.int32)
    s.data = np.ones(len(indices)) if data is None else np.asarray(data, dtype=float)
    return s


NON_MONOTONE_INDPTR = [
    ([0, 5, 2, 3], [2, 1, 0]),
    ([0, 2, 1, 3], [0, 1, 2]),
    ([0, 2, 1, 3], [1, 2, 0]),
]

# scipy's compiled canonicalization trusts indptr: run on these inputs
# unchecked, it raises RuntimeError or corrupts the heap and aborts the
# interpreter, so they run in a process of their own.
NON_MONOTONE_SCRIPT = """
import numpy as np
import scipy.sparse as sp
from msignn import build_graph
for indptr, indices in {cases!r}:
    a = sp.csr_array((np.ones(3), np.array(indices, dtype=np.int32),
                      np.array(indptr, dtype=np.int32)), shape=(3, 3))
    try:
        build_graph(a, np.ones((1, 3)), directed=True)
        print("accepted")
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def test_build_graph_rejects_non_monotone_indptr():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", NON_MONOTONE_SCRIPT.format(cases=NON_MONOTONE_INDPTR)],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == len(NON_MONOTONE_INDPTR)
    assert all(line.startswith("ShapeError corrupt CSR") for line in lines), lines


@pytest.mark.parametrize("indices", [[0, 3, 2], [0, -1, 2]], ids=["too-large", "negative"])
def test_as_csr_rejects_column_out_of_range(indices):
    a = _raw_csr([0, 1, 2, 3], indices, (3, 3))
    with pytest.raises(ShapeError, match="corrupt CSR"):
        numerics.as_csr(a)


@pytest.mark.parametrize("indptr, indices, data", [
    ([0, 2, 3, 3], [2, 0, 1], [1.0, 2.0, 3.0]),
    ([0, 1, 3, 3], [0, 1, 1], [1.0, 2.0, 3.0]),
    ([0, 2, 3, 3], [0, 2, 1], [1.0, 0.0, 3.0]),
    ([0, 0, 1, 3], [0, 2, 1], [1.0, 2.0, 3.0]),
], ids=["unsorted", "duplicate", "stored-zero", "unsorted-after-empty-row"])
def test_as_csr_canonicalizes(indptr, indices, data):
    a = _raw_csr(indptr, indices, (3, 3), data)
    expected = np.zeros((3, 3))
    rows = np.repeat(np.arange(3), np.diff(indptr))
    np.add.at(expected, (rows, indices), data)
    out, canonical = numerics.as_csr(a), sp.csr_array(expected)  # no zero stored
    for attr in ("indptr", "indices", "data"):
        npt.assert_array_equal(getattr(out, attr), getattr(canonical, attr))
    npt.assert_array_equal(a.indices, indices)  # canonicalized in a private copy
    npt.assert_array_equal(a.data, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_csr_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="NaN or Inf"):
        numerics.as_csr(_raw_csr([0, 1, 2, 3], [0, 1, 2], (3, 3), [1.0, bad, 1.0]))


def test_as_csr_accepts_row_boundaries():
    # Empty leading and trailing rows, and a column index that falls from one
    # row to the next: each is valid and canonical, and passes unchanged.
    out = numerics.as_csr(_raw_csr([0, 0, 2, 3, 3], [1, 2, 0], (4, 3)))
    npt.assert_array_equal(out.indptr, [0, 0, 2, 3, 3])
    npt.assert_array_equal(out.indices, [1, 2, 0])
    assert numerics.as_csr(_raw_csr([0, 0, 0, 0], [], (3, 3))).nnz == 0


def test_as_csr_leaves_input_unchanged():
    a = sp.csr_array((np.array([1.0, 2.0]), np.array([2, 0]), np.array([0, 2, 2, 2])),
                     shape=(3, 3))
    indices, data = a.indices.copy(), a.data.copy()
    out = numerics.as_csr(a)
    npt.assert_array_equal(a.indices, indices)
    npt.assert_array_equal(a.data, data)
    npt.assert_array_equal(out.indices, [0, 2])
    npt.assert_array_equal(out.toarray(), a.toarray())
