import copy

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msignn import build_graph, numerics

from conftest import apart, recording


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


def test_softmax_scales_uniform():
    npt.assert_allclose(numerics.softmax_scales(np.zeros((3, 1))),
                        np.full((3, 1), 1.0 / 3.0), rtol=1e-15)


def test_softmax_scales_exact_exponentials():
    out = numerics.softmax_scales(np.array([[np.log(2.0)], [0.0]]))
    npt.assert_allclose(out, [[2.0 / 3.0], [1.0 / 3.0]], rtol=1e-14)


def test_softmax_scales_overflow_safe():
    out = numerics.softmax_scales(np.array([[1000.0], [0.0]]))
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out[0, 0], 1.0, atol=1e-12)
    npt.assert_allclose(out[1, 0], 0.0, atol=1e-12)


def test_softmax_scales_sum_and_shift_invariance():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((10, 7)).T * 5
    out = numerics.softmax_scales(m)
    npt.assert_allclose(out.sum(axis=0), np.ones(10), atol=1e-12)
    shifted = numerics.softmax_scales(m + 3.7)
    npt.assert_allclose(out, shifted, atol=1e-12)
    assert np.all(out > 0) and np.all(out < 1)


def _raw_csr(indptr, indices, shape, data=None, dtype=np.int32):
    """A CSR array over the given structure, bypassing scipy's own canonicalization."""
    s = sp.csr_array(np.eye(*shape))
    s.indptr = np.asarray(indptr, dtype=dtype)
    s.indices = np.asarray(indices, dtype=dtype)
    s.data = np.ones(len(indices)) if data is None else np.asarray(data, dtype=float)
    return s


NON_MONOTONE_INDPTR = [
    ([0, 5, 2, 3], [2, 1, 0]),
    ([0, 2, 1, 3], [0, 1, 2]),
    ([0, 2, 1, 3], [1, 2, 0]),
]

# scipy's compiled conversions and canonicalization trust indptr and index
# bounds: run on corrupt input unchecked, they raise RuntimeError, segfault,
# corrupt the heap and abort the interpreter, or silently build a different
# graph. So build_graph meets such input in a process of its own.
def _build_graph_apart(cases) -> list[str]:
    """What ``build_graph`` raised on each adjacency in ``cases``, or "accepted"."""
    lines = []
    for a in cases:
        try:
            apart(build_graph)(adjacency=a, features=np.ones((1, a.shape[0])), directed=True)
            lines.append("accepted")
        except Exception as exc:
            lines.append(f"{type(exc).__name__} {exc}")
    return lines


def test_build_graph_rejects_non_monotone_indptr():
    lines = _build_graph_apart(_raw_csr(indptr, indices, (3, 3))
                               for indptr, indices in NON_MONOTONE_INDPTR)
    assert len(lines) == len(NON_MONOTONE_INDPTR)
    assert all(line.startswith("ShapeError corrupt CSR") for line in lines), lines


def test_build_graph_rejects_a_decreasing_indptr_that_ends_at_zero():
    # scipy's full check scans indptr only when indptr[-1] > 0; unchecked,
    # these raised RuntimeError or a bare ValueError, or built an empty graph.
    lines = _build_graph_apart([_raw_csr([0, 2, 0], [0, 1], (2, 2)),
                                _raw_csr([0, 3, 0], [], (2, 2)), _raw_csr([0, -1, 0], [], (2, 2))])
    assert lines == ["ShapeError corrupt CSR: index pointer must be a non-decreasing "
                     "sequence"] * 3, lines


def test_build_graph_rejects_corrupt_csc_bsr_and_coo():
    csc = sp.csc_array(np.eye(3))
    csc.indices[1] = 7
    bsr = sp.bsr_array(np.eye(4), blocksize=(2, 2))
    bsr.indptr = np.array([0, 2, 1], dtype=bsr.indptr.dtype)
    coo = sp.coo_array(np.eye(3))
    coo.row[0] = 9
    lines = _build_graph_apart(
        [csc, bsr, sp.csc_array((np.ones(3), [0, 1, 2], [0, 2, 1, 3]), shape=(3, 3)), coo])
    assert [line.split(":")[0] for line in lines] == [
        "ShapeError corrupt CSC", "ShapeError corrupt BSR", "ShapeError corrupt CSC",
        "ShapeError corrupt COO"], lines


INDEX_DTYPES = [np.int8, np.int16, np.uint8, np.uint16, np.int32, np.int64, np.uint32, np.uint64]
WIDE = 40000  # nodes, above int16's range
PATH_18 = sp.csr_array((np.ones(18), (np.arange(18), np.arange(1, 19))), shape=(WIDE, WIDE))
INDEX_DTYPE_CASES = {
    # 18 edges among the first 19 nodes: every index fits int8, but the 40036
    # entries of S, which holds every node's self-loop, do not fit int16.
    "undirected-wide": (PATH_18 + PATH_18.T, False),
    "directed-wide": (PATH_18, True),
    # 39999 edges into node 0: the indices fit int8, the entries of indptr int32.
    "directed-star": (sp.csr_array((np.ones(WIDE - 1), (np.arange(1, WIDE),
                                                         np.zeros(WIDE - 1, dtype=int))),
                                   shape=(WIDE, WIDE)), True),
}


def _in_dtype(a, dtype):
    """A copy of CSR ``a`` whose ``indices`` are of ``dtype``, as is its
    ``indptr`` where its entries fit, set unchecked."""
    out = sp.csr_array(a, copy=True)
    out.indices = a.indices.astype(dtype)
    if a.indptr[-1] <= np.iinfo(dtype).max:
        out.indptr = a.indptr.astype(dtype)
    return out


def _builds_as_its_int32_copy(adjacency, directed):
    """``build_graph`` gives ``adjacency``, in each index dtype, the S of its
    int32 copy: ``data`` byte for byte, and index arrays of one dtype, int32
    or int64, value for value."""
    def s_of(dtype):
        a = _in_dtype(adjacency, dtype)
        return build_graph(a, np.ones((1, a.shape[0])), directed=directed).s

    expected = s_of(np.int32)
    for dtype in INDEX_DTYPES:
        s = s_of(dtype)
        assert s.indices.dtype == s.indptr.dtype in (np.int32, np.int64), dtype
        assert s.data.tobytes() == expected.data.tobytes(), dtype
        assert np.array_equal(s.indices, expected.indices), dtype
        assert np.array_equal(s.indptr, expected.indptr), dtype


@pytest.mark.parametrize("case", INDEX_DTYPE_CASES)
def test_build_graph_gives_every_index_dtype_the_s_of_its_int32_copy(case):
    # S's indptr counts an undirected S's self-loops too: counted in a narrow
    # index dtype it would wrap around, and scipy can crash on such an S. So
    # the graphs are built apart.
    adjacency, directed = INDEX_DTYPE_CASES[case]
    apart(_builds_as_its_int32_copy)(adjacency=adjacency, directed=directed)


def test_as_csr_agrees_across_formats_and_leaves_input_unchanged():
    dense = np.array([[0.0, 2.0, 0.0, 1.0], [3.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0], [4.0, 0.0, 5.0, 0.0]])
    expected = numerics.as_csr(dense)
    for fmt in ("csr", "csc", "bsr", "coo"):
        a = sp.csr_array(dense).asformat(fmt)
        attrs = dict(vars(a))
        copies = {k: v.copy() for k, v in attrs.items() if isinstance(v, np.ndarray)}
        out = numerics.as_csr(a)
        for attr in ("indptr", "indices", "data"):
            npt.assert_array_equal(getattr(out, attr), getattr(expected, attr))
        assert all(vars(a)[k] is v for k, v in attrs.items()), fmt  # nothing rebound
        for key, value in copies.items():
            npt.assert_array_equal(attrs[key], value)


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


@st.composite
def raw_compressed(draw):
    """A CSR, CSC or BSR array over drawn index arrays, sound or damaged once.

    ``indptr`` is drawn as cumulative counts and ``indices`` within range;
    then one kind of damage, or none, is applied.
    """
    fmt = draw(st.sampled_from(["csr", "csc", "bsr"]))
    major, minor = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    block = (draw(st.integers(1, 2)), draw(st.integers(1, 2))) if fmt == "bsr" else (1, 1)
    damage = draw(st.sampled_from(["none", "shift", "swap", "indptr-length", "index-range",
                                   "indices-length", "data-length", "data-rank"]))
    indptr = np.cumsum([0] + draw(st.lists(st.integers(0, 3), min_size=major,
                                           max_size=major)))
    if damage == "shift":
        indptr[draw(st.integers(0, major))] += draw(st.sampled_from([-3, -2, -1, 1, 2]))
    elif damage == "swap" and major >= 2:
        i = draw(st.integers(1, major - 1))
        indptr[[i, i + 1]] = indptr[[i + 1, i]]
    elif damage == "indptr-length":
        indptr = indptr[:-1] if draw(st.booleans()) else np.append(indptr, indptr[-1])
    size = max(int(indptr[-1]), 0) if len(indptr) else 0
    if damage == "indices-length":
        size = max(size + draw(st.sampled_from([-1, 1])), 0)
    low, high = (-1, minor) if damage == "index-range" else (0, max(minor - 1, 0))
    indices = np.array(draw(st.lists(st.integers(low, high), min_size=size,
                                     max_size=size)), dtype=np.int64)
    stored = len(indices)
    if damage == "data-length":
        stored = max(stored + draw(st.sampled_from([-1, 1])), 0)
    data = np.ones((stored,) + (block if fmt == "bsr" else ()))
    if damage == "data-rank":
        data = data.reshape(-1) if fmt == "bsr" else data[:, None]
    shape = (major * block[0], minor * block[1]) if fmt != "csc" else (minor, major)
    if fmt == "bsr":
        a = sp.bsr_array((np.zeros((0,) + block), np.zeros(0, dtype=np.int32),
                          np.zeros(major + 1, dtype=np.int32)), shape=shape)
    else:
        a = sp.csr_array(shape) if fmt == "csr" else sp.csc_array(shape)
    dtype = draw(st.sampled_from(INDEX_DTYPES))
    a.indptr, a.indices, a.data = indptr.astype(dtype), indices.astype(dtype), data
    return a


def _raises(check, a) -> bool:
    try:
        check(a)
    except ValueError:
        return True
    return False


@settings(max_examples=600)
@given(raw_compressed())
@example(_raw_csr([0, 2, 0], [0, 1], (2, 2)))
@example(_raw_csr([0, 5, 2, 3], [2, 1, 0], (3, 3)))
@example(_raw_csr([0, 1, 2, 3], [0, -1, 2], (3, 3)))
# Read unsigned, -30000 is 35536, below the 40000 columns.
@example(_raw_csr([0, 1], [-30000], (1, 40000), dtype=np.int16))
# scipy's check warns of an unsigned index array, and raises where it would on a signed one.
@pytest.mark.filterwarnings("ignore:.* array has non-integer dtype:UserWarning")
def test_compressed_check_raises_where_scipys_full_check_does(a):
    """``_check_compressed`` raises exactly where ``check_format(full_check=True)``
    does on a copy, and also on a decreasing ``indptr`` that scipy's check
    leaves unscanned because it ends at or below 0, or misses because
    ``np.diff`` of an unsigned ``indptr`` wraps around."""
    scipy_raises = _raises(lambda x: copy.copy(x).check_format(full_check=True), a)
    decreasing = a.indptr.ndim == 1 and bool(np.any(a.indptr[1:] < a.indptr[:-1]))
    assert _raises(numerics._check_compressed, a) == (scipy_raises or decreasing)


@pytest.mark.parametrize("fmt", ["csr", "csc", "bsr"])
def test_as_csr_never_runs_scipys_full_check(monkeypatch, fmt):
    checks = []
    for cls in (sp._compressed._cs_matrix, sp._bsr._bsr_base):
        recording(monkeypatch, cls, "check_format", lambda self, full_check=True: full_check,
                  checks)
    a = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])).asformat(fmt)
    checks.clear()
    build_graph(a, np.ones((1, 2)))
    assert checks and not any(checks)  # scipy's constructors run the cheap check


def test_reused_arrays_follow_slot_shape_and_count():
    first = numerics.reused("test", (2, 2))
    assert numerics.reused("test", (2, 2)) is first
    three = numerics.reused("test", (2, 2), 3)
    assert len(three) == 3 and numerics.reused("test", (2, 2), 3) is three
    assert numerics.reused("test", (3, 2), 3)[0].shape == (3, 2)
    numerics.release("test")
