"""Graph containers, adjacency normalization, hop distances, batching.

Node features are stored column-per-node (feature_dim x n), the layout of
the propagation equations; the solves in ``equilibrium`` transpose
internally. Labels are either an int class per node, shape (n,), or a
multi-hot 0/1 matrix, shape (num_classes, n).

Adjacency matrices from outside the library are validated once, where
they enter: ``build_graph`` (which the generators and loaders go through)
and ``normalize_adjacency`` check their input with ``numerics.as_csr``.
``build_graph`` then normalizes the matrix it has already checked without
checking it again. What the library derives from a validated matrix, the
normalized S and the block-diagonal merges of ``batch``, is canonical by
construction and not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import ShapeError


@dataclass(frozen=True)
class Graph:
    """Immutable graph: raw 0/1 adjacency, normalized adjacency, features, labels."""

    n: int
    adjacency: sp.csr_array
    s: sp.csr_array
    features: np.ndarray
    labels: np.ndarray | None
    directed: bool

    @property
    def feature_dim(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        if self.labels.ndim == 2:
            return self.labels.shape[0]
        return int(self.labels.max()) + 1

    @property
    def multilabel(self) -> bool:
        return self.labels is not None and self.labels.ndim == 2


@dataclass(frozen=True)
class GraphBatch:
    """Several graphs merged block-diagonally, with per-node graph membership."""

    merged: Graph
    graph_of_node: np.ndarray
    num_graphs: int


def normalize_adjacency(a: sp.csr_array, directed: bool = False,
                        self_loops: bool = True) -> sp.csr_array:
    """Degree-normalize an adjacency matrix.

    Undirected: S = D^{-1/2} (A + I?) D^{-1/2} with D the degree diagonal of
    the possibly self-looped matrix. Directed: S = D_out^{-1/2} A D_in^{-1/2}.
    Zero-degree rows/columns get a normalization factor of 0, so isolated
    nodes simply stay decoupled instead of raising a division error.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    return _normalize(numerics.as_csr(a), directed, self_loops)


def _normalize(a: sp.csr_array, directed: bool, self_loops: bool) -> sp.csr_array:
    """``normalize_adjacency`` of an already validated square CSR matrix."""
    if self_loops:
        a = a + sp.eye_array(a.shape[0], format="csr")
    if directed:
        left = _inv_sqrt(np.asarray(a.sum(axis=1)).ravel())
        right = _inv_sqrt(np.asarray(a.sum(axis=0)).ravel())
    else:
        left = right = _inv_sqrt(np.asarray(a.sum(axis=1)).ravel())
    # Scale each stored entry a_ij by left_i * right_j in place of the
    # products with two diagonal matrices; same arithmetic, same sparsity.
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    out = a.copy()
    out.data = a.data * left[rows] * right[a.indices]
    out.eliminate_zeros()
    return out


def _inv_sqrt(deg: np.ndarray) -> np.ndarray:
    out = np.zeros_like(deg)
    nz = deg > 0
    out[nz] = 1.0 / np.sqrt(deg[nz])
    return out


def build_graph(adjacency, features, labels=None, directed: bool = False,
                self_loops: bool | None = None) -> Graph:
    """Assemble a Graph, normalizing the adjacency.

    ``self_loops`` defaults to on for undirected graphs and off for directed
    ones (directed synthetic chains must not short-circuit their own
    information-passing test).
    """
    adjacency = numerics.as_csr(adjacency)
    n = adjacency.shape[0]
    if adjacency.shape[1] != n:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    features = numerics.as_dense(features)
    if features.shape[1] != n:
        raise ShapeError(
            f"features must have one column per node: {features.shape[1]} != {n}")
    if not directed and (adjacency != adjacency.T).nnz != 0:
        raise ShapeError("undirected graph requires a symmetric adjacency")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.ndim == 1:
            if labels.shape[0] != n:
                raise ShapeError("label vector length must equal node count")
            labels = labels.astype(np.int64)
        elif labels.ndim == 2:
            if labels.shape[1] != n:
                raise ShapeError("multi-hot labels must have one column per node")
            labels = labels.astype(np.float64)
        else:
            raise ShapeError("labels must be a vector or a multi-hot matrix")
    if self_loops is None:
        self_loops = not directed
    s = _normalize(adjacency, directed, self_loops)
    return Graph(n=n, adjacency=adjacency, s=s, features=features,
                 labels=labels, directed=directed)


def hop_distance(g: Graph, p: int) -> np.ndarray:
    """Shortest-path hop count from node p; inf where unreachable.

    Follows edge direction on directed graphs.
    """
    if not 0 <= p < g.n:
        raise IndexError(f"node {p} out of range for {g.n} nodes")
    # Imported on first use: loading csgraph adds ~10 MB of resident memory,
    # which training and inference never need.
    from scipy.sparse import csgraph
    return csgraph.shortest_path(g.adjacency, unweighted=True, indices=p)


def batch(graphs: list[Graph]) -> GraphBatch:
    """Merge graphs block-diagonally; normalization happens per graph before merging."""
    if not graphs:
        raise ValueError("cannot batch an empty graph list")
    feat_dim = graphs[0].feature_dim
    directed = graphs[0].directed
    multilabel = graphs[0].multilabel
    for g in graphs:
        if g.feature_dim != feat_dim:
            raise ShapeError(
                f"feature dims differ across graphs: {g.feature_dim} != {feat_dim}")
        if g.directed != directed or g.multilabel != multilabel:
            raise ShapeError("all graphs in a batch must share directedness and label kind")
    adjacency = sp.block_diag([g.adjacency for g in graphs], format="csr")
    s = sp.block_diag([g.s for g in graphs], format="csr")
    features = np.hstack([g.features for g in graphs])
    if any(g.labels is None for g in graphs):
        labels = None
    elif multilabel:
        labels = np.hstack([g.labels for g in graphs])
    else:
        labels = np.concatenate([g.labels for g in graphs])
    graph_of_node = np.concatenate(
        [np.full(g.n, i, dtype=np.int64) for i, g in enumerate(graphs)])
    merged = Graph(n=int(adjacency.shape[0]), adjacency=adjacency, s=s,
                   features=features, labels=labels, directed=directed)
    return GraphBatch(merged=merged, graph_of_node=graph_of_node,
                      num_graphs=len(graphs))
