import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from msignn import GraphBatch, batch, build_graph, hop_distance
from msignn.errors import ShapeError

from conftest import power_iteration_norm, random_undirected_graph

PROPERTY = settings(max_examples=150)


def _s(dense, directed=False):
    """The normalized S ``build_graph`` makes for a dense 0/1 adjacency."""
    a = np.asarray(dense, dtype=float)
    return build_graph(sp.csr_array(a), np.zeros((1, a.shape[1])), directed=directed).s


def test_normalize_two_node_edge():
    s = _s([[0, 1], [1, 0]])
    npt.assert_allclose(s.toarray(), np.full((2, 2), 0.5), rtol=1e-15)


def test_normalize_three_node_path():
    s = _s([[0, 1, 0], [1, 0, 1], [0, 1, 0]]).toarray()
    npt.assert_allclose(np.diag(s), [0.5, 1.0 / 3.0, 0.5], rtol=1e-15)
    off = 1.0 / np.sqrt(6.0)
    npt.assert_allclose(s[0, 1], off, rtol=1e-15)
    npt.assert_allclose(s[1, 2], off, rtol=1e-15)
    assert s[0, 2] == 0.0


def test_normalize_empty_adjacency():
    # undirected: only the self-loops, each of degree 1; directed: nothing
    npt.assert_array_equal(_s(np.zeros((4, 4))).toarray(), np.eye(4))
    assert _s(np.zeros((4, 4)), directed=True).nnz == 0


def test_normalize_symmetric_and_contractive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 51))
        g = random_undirected_graph(rng, n)
        dense = g.s.toarray()
        npt.assert_allclose(dense, dense.T, atol=1e-15)
        assert power_iteration_norm(dense) <= 1.0 + 1e-10


def _directed_path(n):
    """The directed path 0 -> 1 -> ... -> n - 1."""
    rows = np.arange(n - 1)
    a = sp.csr_array((np.ones(n - 1), (rows, rows + 1)), shape=(n, n))
    return build_graph(a, np.zeros((1, n)), directed=True)


def test_normalize_directed_chain_columns():
    s = _directed_path(6).s.toarray()
    for j in range(6):
        col = s[:, j]
        assert np.count_nonzero(col) <= 1
        assert col.max() <= 1.0 + 1e-15


def _inv_sqrt(deg):
    out = np.zeros_like(deg)
    out[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return out


def _dense_normalized(a, directed):
    """D_out^{-1/2} A D_in^{-1/2}, with A + I if undirected, in dense arithmetic.

    Zero degree gives 0.
    """
    if not directed:
        a = a + np.eye(len(a))
    left = _inv_sqrt(a.sum(axis=1))
    right = _inv_sqrt(a.sum(axis=0)) if directed else left
    return left[:, None] * a * right[None, :]


@pytest.mark.parametrize("directed, self_loops", [(False, True), (True, False)])
def test_normalize_matches_dense_formula_exactly(directed, self_loops):
    # node 5 is isolated; directed, node 0 is a source and node 4 a sink
    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 2), (3, 4), (1, 4)]:
        a[i, j] = 1.0
        if not directed:
            a[j, i] = 1.0
    expected = _dense_normalized(a, directed)
    # an explicitly stored zero (5, 0) must not survive into S
    rows, cols = np.nonzero(a)
    stored = sp.csr_array((np.r_[a[rows, cols], 0.0], (np.r_[rows, 5], np.r_[cols, 0])),
                          shape=a.shape)
    assert stored.nnz == len(rows) + 1
    s = build_graph(stored, np.zeros((1, 6)), directed=directed).s
    assert s.has_sorted_indices
    assert s.nnz == np.count_nonzero(expected)
    npt.assert_array_equal(s.toarray(), expected)
    # self-loops follow `directed`: the isolated node 5 couples to itself or to nothing
    assert (s.toarray()[5, 5] == 1.0) == self_loops


def test_hop_distance_chain():
    npt.assert_array_equal(hop_distance(_directed_path(4), 0), [0, 1, 2, 3])


def test_hop_distance_unreachable():
    a = sp.csr_array((np.ones(2), ([0, 1], [1, 2])), shape=(4, 4))
    g = build_graph(a, np.zeros((1, 4)), directed=True)
    d = hop_distance(g, 0)
    assert d[3] == np.inf


def test_hop_distance_cycle():
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = 1.0
        a[(i + 1) % 4, i] = 1.0
    g = build_graph(sp.csr_array(a), np.zeros((1, 4)))
    npt.assert_array_equal(hop_distance(g, 0), [0, 1, 2, 1])


def test_hop_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    g = random_undirected_graph(rng, 20, density=0.2)
    dists = np.stack([hop_distance(g, p) for p in range(g.n)])
    for _ in range(50):
        i, j, k = rng.integers(0, g.n, 3)
        assert dists[i, j] <= dists[i, k] + dists[k, j]


def test_batch_single_graph_identity():
    g = random_undirected_graph(np.random.default_rng(3), 7)
    b = batch([g])
    assert b.num_graphs == 1
    npt.assert_array_equal(b.graph_of_node, np.zeros(7, dtype=int))
    npt.assert_array_equal(b.s.toarray(), g.s.toarray())
    npt.assert_array_equal(b.features, g.features)


def test_a_built_graph_is_a_batch_of_one():
    g = random_undirected_graph(np.random.default_rng(3), 7)
    assert isinstance(g, GraphBatch)
    assert g.num_graphs == 1
    assert g.graph_of_node.dtype == np.int64
    npt.assert_array_equal(g.graph_of_node, np.zeros(7))


def test_batch_membership_skips_empty_members():
    rng = np.random.default_rng(8)
    empty = build_graph(sp.csr_array((0, 0)), np.zeros((3, 0)))
    assert empty.n == 0
    graphs = [random_undirected_graph(rng, 3), empty, random_undirected_graph(rng, 2),
              empty, empty, random_undirected_graph(rng, 4), empty]
    b = batch(graphs)
    assert b.num_graphs == 7 and b.graph_of_node.dtype == np.int64
    npt.assert_array_equal(b.graph_of_node, np.concatenate(
        [np.full(g.n, i, dtype=np.int64) for i, g in enumerate(graphs)]))
    npt.assert_array_equal(b.graph_of_node, [0, 0, 0, 2, 2, 5, 5, 5, 5])


def test_batch_two_graphs_block_structure():
    rng = np.random.default_rng(4)
    g1 = random_undirected_graph(rng, 2)
    g2 = random_undirected_graph(rng, 2)
    b = batch([g1, g2])
    merged = b.s.toarray()
    assert merged.shape == (4, 4)
    npt.assert_array_equal(merged[:2, 2:], np.zeros((2, 2)))
    npt.assert_array_equal(merged[2:, :2], np.zeros((2, 2)))
    npt.assert_array_equal(b.graph_of_node, [0, 0, 1, 1])


def test_batch_no_cross_graph_edges():
    rng = np.random.default_rng(5)
    graphs = [random_undirected_graph(rng, int(rng.integers(2, 8))) for _ in range(4)]
    b = batch(graphs)
    coo = b.s.tocoo()
    assert np.all(b.graph_of_node[coo.row] == b.graph_of_node[coo.col])


def test_batch_round_trip_exact():
    rng = np.random.default_rng(6)
    graphs = [random_undirected_graph(rng, int(rng.integers(2, 9))) for _ in range(3)]
    b = batch(graphs)
    start = 0
    for g in graphs:
        stop = start + g.n
        npt.assert_array_equal(b.s.toarray()[start:stop, start:stop], g.s.toarray())
        npt.assert_array_equal(b.features[:, start:stop], g.features)
        npt.assert_array_equal(b.labels[start:stop], g.labels)
        start = stop


def test_build_graph_rejects_a_class_label_that_is_not_an_integer():
    # Labels that are not integers are rows of test_rejections.GRAPHS.
    a = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = build_graph(a, np.ones((1, 2)), labels=[0.0, 1.0])
    assert g.labels.dtype == np.int64 and g.labels.tolist() == [0, 1]


def test_build_graph_rejects_a_multi_hot_label_other_than_0_or_1():
    # Other values are rows of test_rejections.GRAPHS.
    a = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = build_graph(a, np.ones((1, 2)), labels=[[0, 1], [True, False]])
    assert g.multilabel and g.labels.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def _path_with_stored_zeros():
    """The undirected path 0 - 1 on three nodes, with zeros stored at (1, 2) and (2, 1)."""
    a = sp.csr_array((np.array([1.0, 1.0, 0.0, 0.0]), ([0, 1, 1, 2], [1, 0, 2, 1])),
                     shape=(3, 3))
    assert a.nnz == 4
    return build_graph(a, np.zeros((1, 3)))


def test_stored_zeros_are_dropped_from_the_adjacency():
    g = _path_with_stored_zeros()
    assert g.adjacency.nnz == 2
    npt.assert_array_equal(g.adjacency.toarray(), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    npt.assert_array_equal(g.s.toarray()[2], [0, 0, 1])


def test_hop_distance_does_not_follow_stored_zeros():
    npt.assert_array_equal(hop_distance(_path_with_stored_zeros(), 0), [0, 1, np.inf])


def _reference_s(a, directed):
    """S of a canonical CSR adjacency, made with scipy's sparse operations.

    This is how ``build_graph`` made S before it assembled S from arrays;
    the assembled S must equal it bit for bit.
    """
    if directed:
        left = _inv_sqrt(np.asarray(a.sum(axis=1)).ravel())
        right = _inv_sqrt(np.asarray(a.sum(axis=0)).ravel())
    else:
        a = a + sp.eye_array(a.shape[0], format="csr")
        left = right = _inv_sqrt(np.asarray(a.sum(axis=1)).ravel())
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    out = a.copy()
    out.data = a.data * left[rows] * right[a.indices]
    out.eliminate_zeros()
    return out


# Zeros, small integers and floats down to subnormals (whose S entries can
# underflow to zero and must then be dropped).
weights = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 1e3))


@st.composite
def adjacencies(draw, directed, max_cells=60):
    """A COO adjacency with self-loops, isolated nodes, duplicates and stored zeros.

    Each drawn cell is stored once or twice (a duplicate pair sums to the
    same value in either order, so an undirected input stays exactly
    symmetric); an undirected cell is mirrored.
    """
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    cells = draw(st.lists(st.tuples(node, node), max_size=max_cells,
                          unique_by=(lambda c: c) if directed else (lambda c: tuple(sorted(c)))))
    rows, cols, vals = [], [], []
    for i, j in cells:
        for w in draw(st.lists(weights, min_size=1, max_size=2)):
            pairs = [(i, j)] if directed or i == j else [(i, j), (j, i)]
            for r, c in pairs:
                rows.append(r)
                cols.append(c)
                vals.append(w)
    index = draw(st.sampled_from([np.int32, np.int64]))
    return sp.coo_array((np.array(vals, dtype=float),
                         (np.array(rows, dtype=index), np.array(cols, dtype=index))),
                        shape=(n, n))


def _unsorted_csr(coo):
    """A COO input as a non-canonical CSR array: each row's entries, duplicates
    and stored zeros included, in descending column order."""
    order = np.lexsort((-coo.col, coo.row))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(coo.row, minlength=coo.shape[0]))))
    return sp.csr_array((coo.data[order], coo.col[order], indptr.astype(coo.col.dtype)),
                        shape=coo.shape)


@PROPERTY
@given(st.booleans().flatmap(lambda d: st.tuples(adjacencies(d), st.just(d))))
def test_s_is_bit_identical_to_the_scipy_formula(drawn):
    a, directed = drawn
    canonical = sp.csr_array(a)
    canonical.eliminate_zeros()
    # The COO input, its canonical CSR array (which as_csr keeps as it is),
    # and an unsorted CSR array with duplicates (which it canonicalizes).
    for given_ in (a, canonical, _unsorted_csr(a)):
        s = build_graph(given_, np.zeros((1, a.shape[0])), directed=directed).s
        # S is a function of the matrix, not of its storage: the reference
        # gets the input with duplicates summed and stored zeros dropped.
        summed = sp.csr_array(given_, copy=True)
        summed.sum_duplicates()
        summed.eliminate_zeros()
        expected = _reference_s(summed, directed)
        assert s.shape == expected.shape
        assert (s.indptr.dtype, s.indices.dtype) == (expected.indptr.dtype,
                                                      expected.indices.dtype)
        npt.assert_array_equal(s.indptr, expected.indptr)
        npt.assert_array_equal(s.indices, expected.indices)
        assert s.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_a_canonical_float_csr_input_is_the_adjacency_and_s_owns_its_arrays(directed):
    a = sp.csr_array(np.eye(4, k=1) + np.eye(4, k=-1))
    g = build_graph(a, np.zeros((1, 4)), directed=directed)
    assert g.adjacency is a
    for own in (g.s.data, g.s.indices, g.s.indptr):
        assert not any(np.shares_memory(own, given_) for given_ in (a.data, a.indices, a.indptr))
    assert a.data.flags.writeable and a.indices.flags.writeable and a.indptr.flags.writeable


@pytest.mark.parametrize("tiny", [1.0, 5e-324], ids=["kept", "underflows"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_s_drops_an_entry_that_underflows_and_owns_its_arrays(directed, tiny):
    # Edge 0-1 weighs tiny and nodes 0 and 1 each have a 1e300 edge to node 2,
    # so with tiny = 5e-324 the S entry of 0-1 underflows to 0.
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = tiny
    a[0, 2] = a[2, 0] = a[1, 2] = a[2, 1] = 1e300
    adjacency = sp.csr_array(a)
    s = build_graph(adjacency, np.zeros((1, 3)), directed=directed).s
    expected = _reference_s(adjacency, directed)
    assert (s.indptr.dtype, s.indices.dtype) == (expected.indptr.dtype, expected.indices.dtype)
    npt.assert_array_equal(s.indptr, expected.indptr)
    npt.assert_array_equal(s.indices, expected.indices)
    assert s.data.tobytes() == expected.data.tobytes()
    assert (s[0, 1] == 0) == (tiny < 1)
    for own, given_ in [(s.indices, adjacency.indices), (s.indptr, adjacency.indptr)]:
        assert not np.shares_memory(own, given_)
    assert adjacency.indices.flags.writeable and adjacency.indptr.flags.writeable


@PROPERTY
@given(adjacencies(directed=False), st.sampled_from(["none", "ulp", "drop"]),
       st.integers(0, 2**16))
def test_symmetry_check_agrees_with_scipy(drawn, change, pick):
    a = sp.csr_array(drawn)
    if change != "none" and a.nnz:
        k = pick % a.nnz
        if change == "ulp":
            a.data[k] = np.nextafter(a.data[k], np.inf)
        else:
            coo, keep = a.tocoo(), np.arange(a.nnz) != k
            a = sp.csr_array((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=a.shape)
    features = np.zeros((1, a.shape[0]))
    if (a != a.T).nnz == 0:
        build_graph(a, features)
    else:
        with pytest.raises(ShapeError, match="symmetric"):
            build_graph(a, features)


@PROPERTY
@given(st.booleans().flatmap(lambda d: st.tuples(
    st.lists(adjacencies(d, max_cells=12), min_size=1, max_size=40), st.just(d))))
def test_batch_merges_like_block_diag(drawn):
    members, directed = drawn
    graphs = [build_graph(a, np.zeros((1, a.shape[0])), directed=directed) for a in members]
    s = batch(graphs).s
    expected = sp.block_diag([g.s for g in graphs], format="csr")
    assert s.shape == expected.shape
    npt.assert_array_equal(s.indptr, expected.indptr)
    npt.assert_array_equal(s.indices, expected.indices)
    npt.assert_array_equal(s.data, expected.data)
