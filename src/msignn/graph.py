"""Graph containers, adjacency normalization, hop distances, batching.

Node features are stored column-per-node (feature_dim x n), the layout of
the propagation equations; the solves in ``equilibrium`` transpose
internally. Labels are either an int class per node, shape (n,), or a
multi-hot 0/1 matrix, shape (num_classes, n).

A ``Graph`` and a ``GraphBatch`` hold what the model reads: S, features,
labels and each node's graph; a graph is a batch of one. ``batch`` merges
S, features and labels. Only a ``Graph`` keeps its raw adjacency.

``build_graph`` is the only place a normalized adjacency S is made, and
self-loops follow ``directed``: an undirected graph gets
S = D^{-1/2} (A + I) D^{-1/2}, a directed graph no self-loops and
S = D_out^{-1/2} A D_in^{-1/2} (directed chains must not short-circuit
their own information-passing test). ``build_graph``, which the
generators and loaders go through, validates its adjacency once with
``numerics.as_csr``. What the library derives from a validated matrix,
the normalized S and the block-diagonal merges of ``batch``, is
canonical by construction and not checked again.

The S of an undirected graph is symmetric, and ``spectrum(s)`` gives its
eigendecomposition, one dense ``eigh`` per connected component, which
lets ``equilibrium`` solve in closed form. ``build_graph`` marks such an
S, and the eigendecomposition is computed on the first call and cached
on S itself, so it is paid once per graph and only by graphs that are
solved. ``batch`` marks the merged S with its members' S and node
offsets: a batch assembles its spectrum from theirs and decomposes
nothing. Directed graphs, and undirected ones with a component above
``SPECTRUM_MAX_COMPONENT`` nodes, have no spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import ShapeError

# A component's eigenvectors are a dense k x k block: above this many nodes
# S gets no spectrum and its solves iterate instead.
SPECTRUM_MAX_COMPONENT = 512
_SPECTRUM = "_msignn_spectrum"  # the attribute of S that holds its _LazySpectrum
_PENDING = object()


@dataclass(frozen=True)
class _Nodes:
    """What the model reads: normalized adjacency S, features, labels."""

    s: sp.csr_array
    features: np.ndarray
    labels: np.ndarray | None

    @property
    def n(self) -> int:
        return self.s.shape[0]

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
class Graph(_Nodes):
    """Immutable graph, a batch of one: its nodes, raw 0/1 adjacency, directedness."""

    adjacency: sp.csr_array
    directed: bool

    @property
    def graph_of_node(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.int64)

    @property
    def num_graphs(self) -> int:
        return 1


@dataclass(frozen=True)
class GraphBatch(_Nodes):
    """Several graphs merged block-diagonally, with per-node graph membership."""

    graph_of_node: np.ndarray
    num_graphs: int


@dataclass(frozen=True)
class SpectrumBlock:
    """Eigendecomposition of the c connected components of S with k nodes each.

    S restricted to the nodes ``nodes[i]`` equals
    ``vectors[i] @ diag(values[i]) @ vectors[i].T``.
    """

    nodes: np.ndarray    # (c, k) node indices
    values: np.ndarray   # (c, k) eigenvalues, ascending per component
    vectors: np.ndarray  # (c, k, k) orthonormal eigenvectors, one per column


class _LazySpectrum:
    """What a symmetric S carries until, and after, ``spectrum`` first reads it."""

    __slots__ = ("members", "blocks")

    def __init__(self, members=()):
        self.members = members  # ((member S, node offset), ...) when S merges a batch
        self.blocks = _PENDING  # a graph's own blocks once computed, None over the cap


def spectrum(s) -> list[SpectrumBlock] | None:
    """The per-component eigendecomposition of S, or None if S has none.

    Only an S marked by ``build_graph`` or ``batch`` has one; any other,
    a plain ``sp.csr_array`` copy of a marked S included, has none. A
    graph's S computes its blocks on the first call and keeps them. A
    merged S lists its members' blocks, node indices offset, on every
    call: it shares their eigenvectors and keeps nothing.
    """
    lazy = getattr(s, _SPECTRUM, None)
    if lazy is None:
        return None
    if lazy.members:
        parts = [(spectrum(member), offset) for member, offset in lazy.members]
        if any(blocks is None for blocks, _ in parts):
            return None
        return [SpectrumBlock(b.nodes + offset, b.values, b.vectors)
                for blocks, offset in parts for b in blocks]
    if lazy.blocks is _PENDING:
        lazy.blocks = _decompose(s)
    return lazy.blocks


def component_labels(s) -> np.ndarray:
    """Label every node of a symmetric S with the smallest node of its component.

    Min-label propagation with pointer jumping: each pass gives every node
    the smallest label among itself and its neighbours, then replaces each
    label by the label of that node until labels stop changing.
    """
    n = s.shape[0]
    label = np.arange(n)
    nonempty = np.flatnonzero(np.diff(s.indptr))
    while True:
        hooked = label.copy()
        if nonempty.size:
            # A segment of reduceat ends where the next non-empty row starts.
            hooked[nonempty] = np.minimum(
                label[nonempty],
                np.minimum.reduceat(label[s.indices], s.indptr[nonempty]))
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def _decompose(s) -> list[SpectrumBlock] | None:
    """Dense ``eigh`` of every component, stacked by component size."""
    n = s.shape[0]
    _, comp, sizes = np.unique(component_labels(s), return_inverse=True,
                               return_counts=True)
    if sizes.size and sizes.max() > SPECTRUM_MAX_COMPONENT:
        return None
    order = np.argsort(comp, kind="stable")  # nodes grouped by component
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(n, dtype=np.int64)  # each node's place within its component
    pos[order] = np.arange(n) - np.repeat(starts, sizes)
    rows = np.repeat(np.arange(n), np.diff(s.indptr))
    entry_comp = comp[rows]
    blocks = []
    for k in np.unique(sizes):
        members = np.flatnonzero(sizes == k)
        slot = np.full(sizes.size, -1)
        slot[members] = np.arange(members.size)
        sel = slot[entry_comp] >= 0
        dense = np.zeros((members.size, k, k))
        dense[slot[entry_comp[sel]], pos[rows[sel]], pos[s.indices[sel]]] = s.data[sel]
        values, vectors = np.linalg.eigh(dense)
        nodes = order[starts[members][:, None] + np.arange(k)]
        blocks.append(SpectrumBlock(nodes, values, vectors))
    return blocks


def _normalize(a: sp.csr_array, directed: bool) -> sp.csr_array:
    """Degree-normalize an already validated square CSR matrix.

    Zero-degree rows/columns (sources, sinks and isolated nodes of a
    directed graph) get a normalization factor of 0, so those nodes stay
    decoupled instead of raising a division error.
    """
    if directed:
        left = _inv_sqrt(np.asarray(a.sum(axis=1)).ravel())
        right = _inv_sqrt(np.asarray(a.sum(axis=0)).ravel())
    else:
        a = a + sp.eye_array(a.shape[0], format="csr")
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


def build_graph(adjacency, features, labels=None, directed: bool = False) -> Graph:
    """Assemble a Graph, normalizing the adjacency (self-loops only if undirected).

    The S of an undirected graph is marked to carry its ``spectrum``.
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
    s = _normalize(adjacency, directed)
    if not directed:
        setattr(s, _SPECTRUM, _LazySpectrum())
    return Graph(s=s, features=features, labels=labels, adjacency=adjacency,
                 directed=directed)


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
    s = sp.block_diag([g.s for g in graphs], format="csr")
    if not directed:
        offsets = np.cumsum([0] + [g.n for g in graphs[:-1]])
        setattr(s, _SPECTRUM, _LazySpectrum(tuple(zip((g.s for g in graphs), offsets))))
    labels = (None if any(g.labels is None for g in graphs)
              else np.concatenate([g.labels for g in graphs], axis=-1))
    graph_of_node = np.concatenate(
        [np.full(g.n, i, dtype=np.int64) for i, g in enumerate(graphs)])
    return GraphBatch(s=s, features=np.hstack([g.features for g in graphs]),
                      labels=labels, graph_of_node=graph_of_node, num_graphs=len(graphs))
