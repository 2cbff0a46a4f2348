from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from msignn import SolverConfig, build_graph, equilibrium, forward_solve


def random_undirected_graph(rng, n, density=0.3, feat_dim=3, num_classes=2):
    """Random symmetric 0/1 graph with features and int labels."""
    a = (rng.random((n, n)) < density).astype(float)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    features = rng.standard_normal((feat_dim, n))
    labels = rng.integers(0, num_classes, n)
    return build_graph(sp.csr_array(a), features, labels, directed=False)


def random_normalized_csr(rng, n, density=0.3):
    """Symmetric-normalized random adjacency (spectral norm <= 1)."""
    a = (rng.random((n, n)) < density).astype(float)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    return build_graph(sp.csr_array(a), np.zeros((1, n)), directed=False).s


def random_directed_csr(rng, n, density=0.4):
    """Degree-normalized random directed adjacency with the edge 0 -> 1 but not 1 -> 0."""
    a = (rng.random((n, n)) < density).astype(float)
    np.fill_diagonal(a, 0.0)
    a[0, 1], a[1, 0] = 1.0, 0.0
    s = build_graph(sp.csr_array(a), np.zeros((1, n)), directed=True).s
    assert (s != s.T).nnz > 0
    return s


def picard_steps(module, injected, s, count):
    """||z_k - z_(k-1)||_F for k = 1..count, z_0 = 0.

    z_k is the forward solve stopped after k Picard iterations on a plain
    copy of S, which has no spectrum, so it iterates.
    """
    plain = sp.csr_array(s)
    prev = np.zeros_like(injected)
    steps = []
    for k in range(1, count + 1):
        z = forward_solve(module, injected, plain,
                          SolverConfig(tol=1e-300, max_iters=k)).z_star
        steps.append(np.linalg.norm(z - prev))
        prev = z
    return np.array(steps)


def power_iteration_norm(dense, iters=200):
    """Spectral norm via power iteration on A^T A."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dense.shape[1])
    v /= np.linalg.norm(v)
    ata = dense.T @ dense
    for _ in range(iters):
        w = ata @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(v @ ata @ v))


@contextmanager
def counting_hops():
    """Counts ``equilibrium._propagate`` calls, the solves' only sparse hops.

    Yields a counter whose ``calls`` is the number of calls so far; a
    closed-form solve and a hop-free weight gradient make none.
    """
    propagate = equilibrium._propagate
    counter = SimpleNamespace(calls=0)

    def counted(y, op, m):
        counter.calls += 1
        return propagate(y, op, m)

    equilibrium._propagate = counted
    try:
        yield counter
    finally:
        equilibrium._propagate = propagate


@pytest.fixture
def hops():
    with counting_hops() as counter:
        yield counter
