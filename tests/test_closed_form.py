"""The closed-form solves on undirected S against Picard and the oracle.

``build_graph`` gives the S of an undirected graph a spectrum, so
``forward_solve`` and ``adjoint_solve`` on it take the closed form. A plain
``sp.csr_array`` copy of the same S has none, so the same call on the copy
runs Picard iteration: the solve properties below compare the two paths
on one matrix, and both against the dense Kronecker oracle.
"""

import numpy as np
import numpy.testing as npt
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from msignn import (Graph, ScaleModule, SolverConfig, adjoint_solve, batch, build_graph,
                    forward_solve, oracle_solve, weight_gradient)
from msignn import graph as graph_mod
from msignn.graph import component_labels, spectrum

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# Picard stops on the step size; its error is up to tol / (1 - contraction).
PICARD = SolverConfig(tol=1e-12, max_iters=20000)


def _random_graph(seed, sizes, density):
    """An undirected graph whose nodes fall into components of the given sizes.

    Each component is a random graph on its nodes (so it may split further;
    a size-1 component is an isolated node), and node ids are shuffled, so
    components are not contiguous ranges.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for k in sizes:
        block = (rng.random((k, k)) < density).astype(float)
        block = np.triu(block, 1)
        a[start:start + k, start:start + k] = block + block.T
        start += k
    perm = rng.permutation(n)
    a = a[np.ix_(perm, perm)]
    return build_graph(sp.csr_array(a), rng.standard_normal((2, n)))


graphs = st.builds(_random_graph, st.integers(0, 2**32 - 1),
                   st.lists(st.integers(1, 7), min_size=1, max_size=5),
                   st.floats(0.0, 1.0))
# F -> 0 covers g(F) = 0 and the eps-dominated regime of g.
f_scales = st.sampled_from([0.0, 1e-9, 1e-3, 0.3, 1.0, 3.0])


def _module(seed, h, f_scale, gamma, m):
    rng = np.random.default_rng(seed)
    return ScaleModule(f_weight=f_scale * rng.standard_normal((h, h)), gamma=gamma,
                       scale_m=m)


modules = st.builds(_module, st.integers(0, 2**32 - 1), st.integers(1, 5), f_scales,
                    st.floats(0.01, 0.99), st.integers(1, 8))


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@PROPERTY
@given(graphs, modules, st.integers(0, 2**32 - 1))
def test_forward_closed_form_matches_picard_and_oracle(g, module, seed):
    injected = np.random.default_rng(seed).standard_normal((module.hidden_dim, g.n))
    closed = forward_solve(module, injected, g.s)
    assert closed.iterations == 1 and closed.converged
    assert closed.path == "closed form"
    assert closed.residual <= 1e-13
    picard = forward_solve(module, injected, sp.csr_array(g.s), PICARD)
    assert picard.converged and picard.iterations >= 1
    exact = oracle_solve(module, injected, g.s)
    assert _rel(closed.z_star, exact) <= 1e-11
    assert _rel(closed.z_star, picard.z_star) <= 10 * PICARD.tol / (1 - module.gamma)


@PROPERTY
@given(graphs, modules, st.integers(0, 2**32 - 1))
def test_adjoint_closed_form_matches_picard_and_oracle(g, module, seed):
    grad = np.random.default_rng(seed).standard_normal((module.hidden_dim, g.n))
    closed = adjoint_solve(module, g.s, grad)
    picard = adjoint_solve(module, sp.csr_array(g.s), grad, PICARD)
    # U = gamma g U (S^m)^T + grad is the forward equation on S^T.
    exact = oracle_solve(module, grad, sp.csr_array(g.s.T))
    assert _rel(closed, exact) <= 1e-11
    assert _rel(closed, picard) <= 10 * PICARD.tol / (1 - module.gamma)


def _assert_blocks_equal(blocks, expected):
    assert len(blocks) == len(expected)
    for b, e in zip(blocks, expected):
        for got, want in zip((b.nodes, b.values, b.vectors), (e.nodes, e.values, e.vectors)):
            assert np.array_equal(got, want)


@PROPERTY
@given(st.lists(graphs, min_size=1, max_size=4), st.lists(st.booleans(), min_size=4,
                                                          max_size=4),
       st.booleans(), modules, st.integers(0, 2**32 - 1))
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
    z = forward_solve(module, injected, merged.s)
    u = adjoint_solve(module, merged.s, grad)
    assert z.iterations == 1 and z.path == "closed form"
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
@given(graphs)
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
@given(graphs)
def test_spectrum_reassembles_s(g):
    dense = np.zeros((g.n, g.n))
    covered = []
    for b in spectrum(g.s):
        for nodes, values, vectors in zip(b.nodes, b.values, b.vectors):
            dense[np.ix_(nodes, nodes)] = (vectors * values) @ vectors.T
            covered.extend(nodes)
    assert sorted(covered) == list(range(g.n))
    npt.assert_allclose(dense, g.s.toarray(), atol=1e-13)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(graphs, st.integers(0, 2**32 - 1), st.integers(1, 3), f_scales,
       st.floats(0.05, 0.9), st.integers(1, 8), st.booleans())
def test_weight_gradient_matches_finite_differences_on_both_paths(g, seed, h, f_scale,
                                                                  gamma, m, picard):
    # loss(F) = <R, Z*(F)>, checked against central differences
    rng = np.random.default_rng(seed)
    s = sp.csr_array(g.s) if picard else g.s
    injected = rng.standard_normal((h, g.n))
    r = rng.standard_normal((h, g.n))
    f = f_scale * rng.standard_normal((h, h))
    cfg = SolverConfig(tol=1e-14, max_iters=20000)

    def solve(f_mat):
        return forward_solve(ScaleModule(f_weight=f_mat, gamma=gamma, scale_m=m),
                             injected, s, cfg)

    module = ScaleModule(f_weight=f, gamma=gamma, scale_m=m)
    z = solve(f)
    assert (z.iterations == 1) != picard
    assert z.path == ("picard" if picard else "closed form")
    analytic = weight_gradient(module, adjoint_solve(module, s, r, cfg), z.z_star, s)
    # g(F) bends on the scale of F, so the step shrinks with F to keep the
    # differences' truncation error below rtol; its floor bounds rounding.
    step = 1e-5 * min(1.0, max(f_scale, 1e-2))
    numeric = np.zeros_like(f)
    for i in range(h):
        for j in range(h):
            fp = f.copy(); fp[i, j] += step
            fm = f.copy(); fm[i, j] -= step
            numeric[i, j] = (np.sum(r * solve(fp).z_star)
                             - np.sum(r * solve(fm).z_star)) / (2 * step)
    npt.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


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
                    adjacency=a, directed=False)
    mixed = batch([by_hand, undirected])
    assert spectrum(mixed.s) is None
    module = ScaleModule(f_weight=np.eye(2), gamma=0.8, scale_m=2)
    injected = np.random.default_rng(1).standard_normal((2, mixed.n))
    res = forward_solve(module, injected, mixed.s, PICARD)
    assert res.iterations > 1 and res.converged
    assert res.path == "picard"
    assert _rel(res.z_star, oracle_solve(module, injected, mixed.s)) <= 1e-9


def test_spectrum_is_lazy_cached_and_never_decomposed_per_batch(monkeypatch):
    calls = []
    decompose = graph_mod._decompose
    monkeypatch.setattr(graph_mod, "_decompose",
                        lambda s: calls.append(s.shape[0]) or decompose(s))
    rng = np.random.default_rng(0)
    members = [_random_graph(int(seed), [3, 4, 1], 0.6) for seed in rng.integers(0, 99, 4)]
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
    # complete components, one per size; a batch with a member above the cap
    # has no spectrum either
    small, large = _random_graph(1, [4, 4, 2], 1.0), _random_graph(1, [5, 1], 1.0)
    for g, closed in ((small, True), (large, False), (batch([small, large]), False)):
        injected = np.random.default_rng(2).standard_normal((3, g.n))
        assert (spectrum(g.s) is not None) == closed
        res = forward_solve(module, injected, g.s, SolverConfig(tol=1e-12, max_iters=5000))
        assert (res.iterations == 1) == closed and res.converged
        assert res.path == ("closed form" if closed else "picard")
        assert _rel(res.z_star, oracle_solve(module, injected, g.s)) <= 1e-9
    # Pending members under the cap batched with one above it: the batch's
    # decomposition fails, so the small members stay pending, and on first
    # use each gets the spectrum it would have had alone.
    pending = [_random_graph(seed, [4, 2, 3], 1.0) for seed in (5, 6)]
    merged = batch(pending + [_random_graph(7, [5], 1.0)])
    assert spectrum(merged.s) is None
    for g in pending:
        assert getattr(g.s, graph_mod._SPECTRUM) is graph_mod._PENDING
        _assert_blocks_equal(spectrum(g.s), graph_mod._decompose(g.s))
    injected = np.random.default_rng(3).standard_normal((3, merged.n))
    res = forward_solve(module, injected, merged.s, SolverConfig(tol=1e-12, max_iters=5000))
    assert res.iterations > 1 and res.converged
    assert res.path == "picard"
    assert _rel(res.z_star, oracle_solve(module, injected, merged.s)) <= 1e-9


def test_a_wrong_closed_form_continues_as_picard():
    # Corrupt the cached eigenvalues: the true residual of the closed-form
    # answer exceeds tol, and the solve iterates on from it to the oracle.
    g = _random_graph(3, [5, 3], 0.7)
    for block in spectrum(g.s):
        block.values[...] *= 0.5
    module = ScaleModule(f_weight=np.eye(2), gamma=0.8)
    injected = np.random.default_rng(4).standard_normal((2, g.n))
    res = forward_solve(module, injected, g.s, SolverConfig(tol=1e-10, max_iters=2000))
    assert res.converged and res.iterations > 0
    assert _rel(res.z_star, oracle_solve(module, injected, g.s)) <= 1e-8
    stalled = forward_solve(module, injected, g.s, SolverConfig(tol=1e-10, max_iters=2))
    assert not stalled.converged and stalled.iterations == 2
