"""The spectrum of undirected S and what only the closed form has.

``build_graph`` gives the S of an undirected graph a spectrum, one
eigendecomposition per connected component, so ``forward_solve`` and
``adjoint_solve`` on it take the closed form. The first tests cover that
kernel's own properties: batches solve like their members, component
labels, the spectrum's reassembly, caching, the cap on component size, a
wrong spectrum and the residual bound. The rest check how the spectrum is
laid out. Each spectrum-layout row (``LAYOUTS``, and the batches ``_merged``
makes) builds an S laid out one way, and a layout test calls shared checks
on rows: blocks equal ``_decompose`` of the same S, each component its own
``eigh``, the stacks that reach ``eigh`` and no thread, read-only arrays,
a block stored once exactly when every component repeats one, and solves
bit-identical to a copy laid out anew. A new layout adds its row and calls
the checks. Agreement with Picard and the oracle, of this and every other
solve path, is checked in ``test_solve_matrix``.
"""

import threading

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from msignn import (ColorCountingSpec, Graph, ScaleModule, SolverConfig, adjoint_solve, batch,
                    build_graph, forward_solve, gen_color_counting, normalized_gram, oracle_solve,
                    weight_gradient)
from msignn import graph as graph_mod
from msignn.graph import component_labels, spectrum

from conftest import (contiguous_graph, counting_hops, f_scales, interleaving, recording,
                      rel_error, seeds, traced_peak, undirected_graph, undirected_graphs)

PROPERTY = settings(max_examples=40)
# Picard stops on the step size; its error is up to tol / (1 - contraction).
PICARD = SolverConfig(tol=1e-12, max_iters=20000)


def _module(seed, h, f_scale, gamma, m):
    rng = np.random.default_rng(seed)
    return ScaleModule(f_weight=f_scale * rng.standard_normal((h, h)), gamma=gamma,
                       scale_m=m)


modules = st.builds(_module, seeds, st.integers(1, 5), f_scales, st.floats(0.01, 0.99),
                    st.integers(1, 8))


def _per_row(b):
    """Block b's values, vectors and norms with a row per component, a row
    stored once for all c components broadcast. Each holds 1 or c rows: a
    ``zip`` over other rows would stop short of the components unnoticed."""
    c = len(b.nodes)
    assert all(len(a) in (1, c) for a in b.arrays)
    return [np.broadcast_to(a, (c, *a.shape[1:])) for a in b.arrays]


def _assert_blocks_equal(blocks, expected):
    assert len(blocks) == len(expected)
    for b, e in zip(blocks, expected):
        assert type(b.rows) is type(e.rows)
        assert all(map(np.array_equal, _per_row(b), _per_row(e)))
        for name in ("nodes", "error", "drift", "radius", "rows"):
            assert np.array_equal(getattr(b, name), getattr(e, name)), name


@PROPERTY
@given(st.lists(undirected_graphs, min_size=1, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4), st.booleans(), modules, seeds)
def test_batch_solves_like_its_members_alone(members, decomposed, repeat, module, seed):
    # Members have several components of mixed sizes. Some are decomposed
    # before the batch is made and the rest are pending; one may appear twice.
    for g, early in zip(members, decomposed):
        if early:
            spectrum(g.s)
    if repeat:
        members = members[:1] + members
    merged = batch(members)
    sizes = np.unique(np.unique(component_labels(merged.s), return_counts=True)[1])
    assert [b.nodes.shape[1] for b in spectrum(merged.s)] == list(sizes)
    for g in members:
        _assert_blocks_equal(spectrum(g.s), graph_mod._decompose(g.s))
    rng = np.random.default_rng(seed)
    injected = rng.standard_normal((module.hidden_dim, merged.n))
    grad = rng.standard_normal((module.hidden_dim, merged.n))
    with counting_hops() as hops:
        z = forward_solve(module, injected, merged.s)
        u = adjoint_solve(module, merged.s, grad)
    assert z.iterations == 0 and z.path == "closed form" and hops.calls == 0
    start = 0
    for g in members:
        cols = slice(start, start + g.n)
        npt.assert_allclose(z.z_star[:, cols],
                            forward_solve(module, injected[:, cols], g.s).z_star,
                            rtol=1e-12, atol=1e-12)
        npt.assert_allclose(u[:, cols], adjoint_solve(module, g.s, grad[:, cols]),
                            rtol=1e-12, atol=1e-12)
        start += g.n


@PROPERTY
@given(undirected_graphs)
def test_component_labels_match_scipy(g):
    # On S (self-loops on every row) and on the raw adjacency, whose rows
    # are empty at isolated nodes.
    count, reference = csgraph.connected_components(g.adjacency, directed=False)
    for matrix in (g.s, g.adjacency):
        labels = component_labels(matrix)
        assert len(set(zip(labels, reference))) == count == len(np.unique(labels))
        for c in range(count):
            members = np.flatnonzero(reference == c)
            assert np.all(labels[members] == members.min())


@PROPERTY
@given(undirected_graphs)
def test_spectrum_reassembles_s(g):
    dense = np.zeros((g.n, g.n))
    covered = []
    for b in spectrum(g.s):
        for nodes, values, vectors, _ in zip(b.nodes, *_per_row(b)):
            dense[np.ix_(nodes, nodes)] = (vectors * values) @ vectors.T
            covered.extend(nodes)
    assert sorted(covered) == list(range(g.n))
    npt.assert_allclose(dense, g.s.toarray(), atol=1e-13)


def test_plain_copies_and_directed_graphs_have_no_spectrum():
    a = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    undirected = build_graph(a, np.ones((1, 2)))
    assert spectrum(undirected.s) is not None
    assert spectrum(sp.csr_array(undirected.s)) is None
    assert spectrum(build_graph(a, np.ones((1, 2)), directed=True).s) is None
    directed_batch = batch([build_graph(a, np.ones((1, 2)), directed=True)] * 2)
    assert spectrum(directed_batch.s) is None
    # A Graph made by hand around a plain S is never pending, and has no
    # blocks to stack: its batch with a decomposed member has no spectrum.
    by_hand = Graph(s=sp.csr_array(undirected.s), features=np.ones((1, 2)), labels=None,
                    graph_of_node=np.zeros(2, dtype=np.int64), num_graphs=1,
                    adjacency=a, directed=False)
    mixed = batch([by_hand, undirected])
    assert spectrum(mixed.s) is None
    module = ScaleModule(f_weight=np.eye(2), gamma=0.8, scale_m=2)
    injected = np.random.default_rng(1).standard_normal((2, mixed.n))
    res = forward_solve(module, injected, mixed.s, PICARD)
    assert res.iterations > 1 and res.converged
    assert res.path == "picard"
    assert rel_error(res.z_star, oracle_solve(module, injected, mixed.s)) <= 1e-9


def test_spectrum_is_lazy_cached_and_never_decomposed_per_batch(monkeypatch):
    calls = recording(monkeypatch, graph_mod, "_decompose", lambda s: s.shape[0])
    rng = np.random.default_rng(0)
    members = [undirected_graph(int(seed), [3, 4, 1], 0.6) for seed in rng.integers(0, 99, 4)]
    assert calls == []
    spectrum(members[0].s)
    spectrum(members[0].s)
    assert calls == [8]
    # Two batches on overlapping members, each holding a pending member: a
    # batch with a pending member decomposes its whole S in one call, and
    # each member pending then keeps its rows of the result.
    merged = [batch(members[:3]), batch(members[1:])]
    assert calls == [8, 24, 24]
    for m in merged:
        blocks = spectrum(m.s)
        assert spectrum(m.s) is blocks
        covered = np.concatenate([b.nodes.ravel() for b in blocks])
        assert sorted(covered) == list(range(m.n))
    # A batch of decomposed members decomposes nothing.
    assert spectrum(batch(members[::-1]).s) is not None
    assert calls == [8, 24, 24]


def test_component_above_the_cap_falls_back_to_picard(monkeypatch):
    monkeypatch.setattr(graph_mod, "SPECTRUM_MAX_COMPONENT", 4)
    module = ScaleModule(f_weight=np.eye(3), gamma=0.9, scale_m=2)
    # Pending members under the cap batched with one above it: the batch's
    # decomposition fails, so the small members stay pending, and on first
    # use each gets the spectrum it would have had alone.
    pending = [undirected_graph(seed, [4, 2, 3], 1.0) for seed in (5, 6)]
    merged = batch(pending + [undirected_graph(7, [5], 1.0)])
    assert spectrum(merged.s) is None
    for g in pending:
        assert getattr(g.s, graph_mod._SPECTRUM) is graph_mod._PENDING
        _assert_as_decomposed(g.s)
    injected = np.random.default_rng(3).standard_normal((3, merged.n))
    res = forward_solve(module, injected, merged.s, SolverConfig(tol=1e-12, max_iters=5000))
    assert res.iterations > 1 and res.converged
    assert res.path == "picard"
    assert rel_error(res.z_star, oracle_solve(module, injected, merged.s)) <= 1e-9


@pytest.mark.parametrize("wrong", ["halved values", "doubled vectors"])
def test_a_wrong_closed_form_continues_as_picard(monkeypatch, wrong):
    # Decompose S with an eigh that halves the eigenvalues, so the block
    # measures a decomposition error, or one that doubles the eigenvectors,
    # so it measures a drift above 1 while its error stays tiny: either way
    # the residual bound exceeds tol, and the solve iterates on from the
    # wrong closed form to the oracle. The closed form's W was written over
    # the right-hand side, so the forward and the adjoint solve reach the
    # oracle only if Picard made it again, on slabs and on gathered rows.
    eigh = np.linalg.eigh

    def wrong_eigh(a):
        values, vectors = eigh(a)
        return (values / 2, vectors) if wrong == "halved values" else (values, 2 * vectors)

    module = ScaleModule(f_weight=np.eye(2), gamma=0.8)
    cfg = SolverConfig(tol=1e-10, max_iters=2000)
    for interleave in (False, True):
        g = contiguous_graph(3, [5, 3], 0.7, interleave=interleave)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", wrong_eigh)
            blocks = spectrum(g.s)
        assert all(isinstance(b.rows, slice) for b in blocks) != interleave
        if wrong == "halved values":
            assert max(b.error for b in blocks) > 0.1
        else:
            assert max(b.drift for b in blocks) > 1.0
        injected = np.random.default_rng(4).standard_normal((2, g.n))
        res = forward_solve(module, injected, g.s, cfg)
        assert res.path == "picard" and res.converged and res.iterations > 0
        assert res.coefficients is None
        assert rel_error(res.z_star, oracle_solve(module, injected, g.s)) <= 1e-8
        with counting_hops() as counter:
            u = adjoint_solve(module, g.s, injected, cfg)
        assert counter.calls > 0  # a closed form alone would not hop
        assert rel_error(u, oracle_solve(module, injected, sp.csr_array(g.s.T))) <= 1e-8
    stalled = forward_solve(module, injected, g.s, SolverConfig(tol=1e-10, max_iters=2))
    assert not stalled.converged and stalled.iterations == 2


def _true_residual(module, z, injected, s):
    """||gamma g(F) Z S^m + H - Z||_F / ||Z||_F, from a dense S^m."""
    s_m = np.linalg.matrix_power(s.toarray(), module.scale_m)
    g = normalized_gram(module.f_weight, module.eps_f)
    return rel_error(module.gamma * (g @ z @ s_m) + injected, z)


@settings(max_examples=100)
@given(undirected_graphs, st.builds(_module, seeds, st.integers(1, 5), f_scales,
                                   st.floats(0.01, 0.99), st.sampled_from([1, 2, 4, 8])),
       seeds)
def test_the_closed_form_reports_a_bound_on_its_true_residual(g, module, seed):
    # The reported residual bounds the true one, recomputed here from Z*
    # alone, and certifies the default tol.
    injected = np.random.default_rng(seed).standard_normal((module.hidden_dim, g.n))
    res = forward_solve(module, injected, g.s)
    assert res.path == "closed form"
    assert _true_residual(module, res.z_star, injected, g.s) <= res.residual
    assert res.residual <= SolverConfig().tol


def _graph_of(blocks):
    """An undirected graph whose components are the given adjacency blocks, in order."""
    a = sp.block_diag(blocks, format="csr")
    return build_graph(a, np.zeros((1, a.shape[0])))


def _path(*weights):
    k = len(weights) + 1
    return sp.diags([weights, weights], [1, -1], shape=(k, k))


# Paths on 4 nodes. B is A reversed, so its S holds A's entries in other places.
A, B, C = _path(1.0, 2.0, 3.0), _path(3.0, 2.0, 1.0), _path(1.0, 1.0, 1.0)


def _one_ulp_apart(s):
    """A copy of S with both entries of the edge (4, 5), in the second
    component, one ulp larger."""
    data = s.data.copy()
    rows = np.repeat(np.arange(s.shape[0]), np.diff(s.indptr))
    edge = ((rows == 4) & (s.indices == 5)) | ((rows == 5) & (s.indices == 4))
    data[edge] = np.nextafter(data[edge], np.inf)
    return sp.csr_array((data, s.indices, s.indptr), shape=s.shape)


# The spectrum-layout rows. In "pending" sizes 2, 3 and 4 have several
# components each, size 6 a single one, and no two are alike, so no two share
# an eigh; "interleaved" deals them out in turn. "all-repeat" is eight alike
# 30-node chains; in "some-repeat" the 2-node paths, A and B repeat.
UNLIKE = [2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 6]
CHAINS = ColorCountingSpec(num_chains=8, length=30, seed=0)
LAYOUTS = {
    "pending": lambda: contiguous_graph(8, UNLIKE, 0.6, weighted=True).s,
    "interleaved": lambda: contiguous_graph(8, UNLIKE, 0.6, interleave=True, weighted=True).s,
    "all-repeat": lambda: gen_color_counting(CHAINS).graph.s,
    "some-repeat": lambda: _graph_of([_path(1.0), _path(1.0), A, B, A, C, B, A]).s,
    "one-ulp": lambda: _one_ulp_apart(_graph_of([A, A]).s),
}


def _merged(members, pending=False):
    """A batch of members all pending, which decomposes its S and gives each
    member its rows of the result, or all decomposed, whose blocks it stacks."""
    assert all((getattr(g.s, graph_mod._SPECTRUM) is graph_mod._PENDING) == pending
               for g in members)
    return batch(members)


def _merged_rows_of_one(members):
    """A batch of members that hold their rows of one decomposition, their first batch's."""
    _merged(members, pending=True)
    return _merged(members)


def _assert_as_decomposed(s):
    _assert_blocks_equal(spectrum(s), graph_mod._decompose(s))


def _assert_each_component_decomposes_alone(s, blocks):
    """Each component of S's ``blocks`` has the bits of an eigh of its own block, and norms."""
    dense = s.toarray()
    for b in blocks:
        for nodes, values, vectors, norms in zip(b.nodes, *_per_row(b)):
            alone = dense[np.ix_(nodes, nodes)]
            assert all(map(np.array_equal, (values, vectors), np.linalg.eigh(alone)))
            assert np.array_equal(norms, graph_mod._measured_eigh(alone[None])[2][0])


def _assert_eighs(monkeypatch, s, shapes):
    """S decomposes as if no component were alike, from eigh stacks ``shapes``, in this thread."""
    with monkeypatch.context() as patch:
        patch.setattr(graph_mod, "_distinct", lambda dense: (np.arange(len(dense)),) * 2)
        expected = graph_mod._decompose(s)
    started = recording(monkeypatch, threading.Thread, "start")
    counted = recording(monkeypatch, np.linalg, "eigh", lambda a: a.shape)
    _assert_blocks_equal(graph_mod._decompose(s), expected)
    assert counted == shapes and started == []


def _assert_read_only(s):
    for array in (s.data, s.indices, s.indptr,
                  *(a for b in spectrum(s) for a in (b.nodes, *b.arrays))):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def _stored_once(b):
    """Whether block b holds one row of each of its arrays for its several
    components, never of only some."""
    [once] = {len(a) == 1 < len(b.nodes) for a in b.arrays}
    return once


def _relaid(s, gather=False, copy=False):
    """A plain copy of S holding S's blocks anew, the one place a test sets
    them: with ``gather`` their ``rows`` made index arrays, so that its closed
    form gathers and scatters every block; with ``copy`` their arrays copied,
    a row per component."""
    relaid = sp.csr_array(s)
    blocks = [graph_mod.SpectrumBlock(b.nodes, *(map(np.ascontiguousarray, _per_row(b))
                                                 if copy else b.arrays)) for b in spectrum(s)]
    if gather:
        for b in blocks:
            object.__setattr__(b, "rows", b.nodes.reshape(-1))
    assert not copy or all(len(a) == len(b.nodes) for b in blocks for a in b.arrays)
    setattr(relaid, graph_mod._SPECTRUM, blocks)
    return relaid


def _gathering(s):
    return _relaid(s, gather=True)


def _assert_solves_as_relaid(s, m, **layout):
    """Z*, U and the weight gradient of a scale-m module of 3 or 1 hidden
    units on S equal bit for bit those on ``_relaid(s, **layout)``."""
    rng = np.random.default_rng(m)
    for h in (3, 1):
        injected, grad = rng.standard_normal((2, h, s.shape[0]))
        f = rng.standard_normal((h, h))
        results = []
        for on in (s, _relaid(s, **layout)):
            module = ScaleModule(f_weight=f.copy(), scale_m=m)
            z = forward_solve(module, injected, on)
            u = adjoint_solve(module, on, grad)
            assert z.path == "closed form"
            results.append((z.z_star, u, weight_gradient(module, u, z)))
        assert all(map(np.array_equal, *results)), h


@PROPERTY
@given(st.lists(st.integers(2, 7), min_size=2, max_size=5), st.floats(0.0, 1.0), modules,
       seeds)
def test_interleaved_components_solve_bit_identically_to_contiguous_ones(sizes, density,
                                                                        module, seed):
    # One graph twice: its components on runs of consecutive ids, whose blocks
    # read and write slabs, and dealt out in turn, each component's nodes kept
    # in order, whose blocks gather and scatter. Each row is the same
    # arithmetic on the same numbers, so Z* and U agree exactly, un-permuted.
    contiguous = contiguous_graph(seed, sizes, density)
    interleaved = contiguous_graph(seed, sizes, density, interleave=True)
    assert all(isinstance(b.rows, slice) for b in spectrum(contiguous.s))
    assert all(isinstance(b.rows, np.ndarray) for b in spectrum(interleaved.s))
    position = interleaving(sizes)
    rng = np.random.default_rng(seed)
    injected, grad = rng.standard_normal((2, module.hidden_dim, contiguous.n))
    z = forward_solve(module, injected, contiguous.s)
    u = adjoint_solve(module, contiguous.s, grad)
    z_mixed = forward_solve(module, injected[:, np.argsort(position)], interleaved.s)
    u_mixed = adjoint_solve(module, interleaved.s, grad[:, np.argsort(position)])
    assert z.path == z_mixed.path == "closed form"
    assert np.array_equal(z_mixed.z_star[:, position], z.z_star)
    assert np.array_equal(u_mixed[:, position], u)
    # The weight gradient sums over the nodes in node order, which a
    # permutation changes, so its slabs are checked against gathering on one
    # layout: the same blocks, made to gather.
    gathering = _gathering(contiguous.s)
    z_gathered = forward_solve(module, injected, gathering)
    assert np.array_equal(z_gathered.z_star, z.z_star)
    assert np.array_equal(weight_gradient(module, u, z_gathered),
                          weight_gradient(module, u, z))


def test_block_rows_are_a_slice_where_components_are_consecutive():
    # A batch of connected graphs in ascending size order, an empty one among
    # them, has one run of ids per size, whether the batch decomposes its S
    # (members pending) or stacks its members' blocks; so have the members.
    # Either way its blocks, norms included, are those of decomposing its S.
    # Components of one size that are not adjacent gather, as interleaved ones do.
    empty = build_graph(sp.csr_array((0, 0)), np.zeros((2, 0)))
    members = [contiguous_graph(seed, [k], 0.5) for seed, k in enumerate([2, 3, 3, 5])]
    members.insert(2, empty)
    for merged in (_merged(members, pending=True), _merged(members)):
        assert [b.rows for b in spectrum(merged.s)] == [slice(0, 2), slice(2, 8), slice(8, 13)]
        _assert_as_decomposed(merged.s)
    assert all(isinstance(b.rows, slice) for g in members for b in spectrum(g.s))
    unsorted = spectrum(_merged([members[1], members[0], members[3]]).s)
    assert [type(b.rows) for b in unsorted] == [slice, np.ndarray]
    npt.assert_array_equal(unsorted[1].rows, [0, 1, 2, 5, 6, 7])
    mixed = spectrum(contiguous_graph(0, [2, 2, 3], 0.5, interleave=True).s)
    npt.assert_array_equal(mixed[0].rows, [0, 3, 1, 4])
    for b in unsorted + mixed:  # the largest |eigenvalue|, computed on first read
        assert b.radius == np.abs(b.values).max()


def test_s_and_its_spectrum_are_read_only():
    # What the spectrum was measured on, and the spectrum itself, cannot be
    # changed in place: a graph's S, a batch's S, a graph's blocks and the
    # blocks a batch stacks from its decomposed members, whether they hold a
    # row per component or one row repeated.
    members = [undirected_graph(seed, [3, 2], 0.8) for seed in (1, 2)]
    merged = _merged(members, pending=True)
    stacked = _merged(members[::-1])
    repeated = [_graph_of([C, C]) for _ in range(2)]
    one = _merged_rows_of_one(repeated)
    assert _stored_once(spectrum(one.s)[0])
    for g in [*members, merged, stacked, *repeated, one]:
        _assert_read_only(g.s)


@pytest.mark.parametrize("interleave", [False, True])
def test_each_component_decomposes_as_it_would_alone(interleave):
    # Consecutive or dealt out, one eigh per size.
    s = LAYOUTS["interleaved" if interleave else "pending"]()
    blocks = graph_mod._decompose(s)
    assert [b.nodes.shape for b in blocks] == [(2, 2), (4, 3), (5, 4), (1, 6)]
    _assert_each_component_decomposes_alone(s, blocks)


def test_identical_components_share_one_eigh_and_start_no_thread(monkeypatch):
    # Eight chains of 30 nodes are alike, so one matrix reaches eigh, in this thread.
    _assert_eighs(monkeypatch, LAYOUTS["all-repeat"](), [(1, 30, 30)])


@pytest.mark.parametrize("case, shapes", [
    ("repeats", [(1, 2, 2), (3, 4, 4)]),
    ("one ulp", [(2, 4, 4)])], ids=["repeats", "one-ulp"])
def test_only_bit_identical_components_share_an_eigh(monkeypatch, case, shapes):
    # The blocks equal those of decomposing every component on its own. The
    # copies of A share an eigh, as do those of B, and C stands alone; two
    # copies of A, one edge of the second one ulp heavier in S, do not share one.
    _assert_eighs(monkeypatch, LAYOUTS["one-ulp" if case == "one ulp" else "some-repeat"](),
                  shapes)


def test_a_repeated_component_is_stored_once():
    # A size whose components all repeat one is one row of each array, which
    # numpy broadcasts over its c components. A size that mixes
    # decompositions, and distinct chains, keep a row per component.
    [chains] = graph_mod._decompose(LAYOUTS["all-repeat"]())
    assert chains.nodes.shape == (8, 30) and chains.vectors.shape == (1, 30, 30)
    assert _stored_once(chains)
    pairs, mixed = graph_mod._decompose(LAYOUTS["some-repeat"]())
    assert _stored_once(pairs) and not _stored_once(mixed)
    weights = np.random.default_rng(0).uniform(0.5, 1.5, (224, 29))
    [distinct] = graph_mod._decompose(_graph_of([_path(*w) for w in weights]).s)
    assert distinct.vectors.shape == (224, 30, 30) and not _stored_once(distinct)


def test_a_batch_of_one_decompositions_rows_stacks_them_as_one_row():
    # Members that kept their rows of one decomposition stack to one row of
    # it; members from two decompositions, or decomposed alone, concatenate,
    # as does a graph of two unlike 3-node paths batched with itself: its one
    # decomposition holds a row per component. Either way the blocks are
    # those of decomposing the merged S, and solve as the oracle does.
    one = [_graph_of([C, C]) for _ in range(4)]
    two = [_graph_of([C, C]) for _ in range(4)]
    _merged(two[:2], pending=True), _merged(two[2:], pending=True)
    alone = _graph_of([C])
    unlike = _graph_of([_path(1.0, 2.0), _path(1.0, 0.5)])
    spectrum(alone.s), spectrum(unlike.s)
    module = ScaleModule(f_weight=np.eye(2), gamma=0.8, scale_m=2)
    for merged, stacked in ((_merged_rows_of_one(one), True), (_merged(two), False),
                            (_merged(one + [alone]), False), (_merged([unlike] * 2), False)):
        [block] = spectrum(merged.s)
        assert _stored_once(block) == stacked
        assert len(block.vectors) == (1 if stacked else len(block.nodes))
        _assert_as_decomposed(merged.s)
        injected = np.random.default_rng(5).standard_normal((2, merged.n))
        res = forward_solve(module, injected, merged.s)
        assert res.path == "closed form"
        assert rel_error(res.z_star, oracle_solve(module, injected, merged.s)) <= 1e-12


def test_a_repeated_blocks_denominators_are_stored_once():
    # Per scale, one k x h row for a block that repeats one component, and
    # c x k x h for a block that mixes decompositions.
    s = LAYOUTS["some-repeat"]()
    module = ScaleModule(f_weight=np.random.default_rng(0).standard_normal((3, 3)), scale_m=2)
    forward_solve(module, np.ones((3, s.shape[0])), s)
    pairs, mixed = module._basis.denominators
    assert pairs.shape == (1, 2, 3) and mixed.shape == (6, 4, 3)


@pytest.mark.parametrize("interleave", [False, True])
@pytest.mark.parametrize("m", [1, 3])
def test_repeated_blocks_solve_bit_identically_to_copied_ones(interleave, m):
    # The closed form broadcasts a repeated block's one row, and the
    # constants computed on it, as it reads a copy per component.
    g = contiguous_graph(0, [2] * 5 + [3] * 4, 0.0, interleave=interleave)
    assert all(_stored_once(b) for b in spectrum(g.s))
    _assert_solves_as_relaid(g.s, m, copy=True)


def test_a_merge_of_repeated_chains_holds_one_decomposition():
    # 224 alike 30-node chains, merged while pending (the batch decomposes
    # them) and again once decomposed (it stacks them): either merge holds
    # less than one chain's eigenvectors per chain would take alone.
    path = sp.csr_array(_path(*np.ones(29)))
    features = np.random.default_rng(0).standard_normal((3, 30))
    chains = [build_graph(path, features) for _ in range(224)]
    for pending in (True, False):
        assert traced_peak(lambda: _merged(chains, pending)).held < 224 * 30 * 30 * 8
