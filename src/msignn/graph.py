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
``numerics.as_csr``. Weights must be non-negative, which the contraction
bound of ``equilibrium`` rests on, and explicitly stored zeros are
dropped, so a Graph's adjacency, its hop distances and its saved edge
list agree with S. What the library derives from a validated matrix,
the normalized S and the block-diagonal merges of ``batch``, is
canonical by construction and not checked again.

Every S, merged ones included, is assembled from numpy arrays by one
``sp.csr_array((data, indices, indptr))`` call: on small graphs scipy's
sparse operations cost more in bookkeeping than in arithmetic. Degrees
are summed in the order scipy's sparse sums use, so S is bit-identical
to the formula evaluated with scipy's sparse operations.

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


def _row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Sum each row's stored entries, as ``sum(axis=1)`` does for a scipy CSR array."""
    out = np.zeros(indptr.size - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        out[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return out


def _inv_sqrt(deg: np.ndarray) -> np.ndarray:
    out = np.zeros_like(deg)
    nz = deg > 0
    out[nz] = 1.0 / np.sqrt(deg[nz])
    return out


def _kept(indptr, indices, data, keep):
    """Fresh CSR arrays of the entries where ``keep`` holds, indexed in ``indices.dtype``."""
    indptr = np.concatenate(([0], np.cumsum(keep)))[indptr].astype(indices.dtype)
    return indptr, indices[keep], data[keep]


def _is_symmetric(rows, indices, data) -> bool:
    """Whether canonical CSR entries equal those of the transpose, whose
    canonical order is theirs sorted by (column, row)."""
    o = np.lexsort((rows, indices))
    return (np.array_equal(indices[o], rows) and np.array_equal(rows[o], indices)
            and np.array_equal(data[o], data))


def _normalize(indptr, indices, data, rows, directed: bool) -> sp.csr_array:
    """S from the canonical CSR arrays of a validated, zero-free, non-negative A.

    Zero-degree rows/columns (sources, sinks and isolated nodes of a
    directed graph) get a normalization factor of 0, so those nodes stay
    decoupled instead of raising a division error. Row sums are reduced
    with ``np.add.reduceat``, as scipy's ``sum(axis=1)`` does, and column
    sums accumulated entry by entry, as ``ones @ A`` does.
    """
    n = indptr.size - 1
    if directed:
        left = _inv_sqrt(_row_sums(indptr, data))
        right = _inv_sqrt(np.bincount(indices, weights=data, minlength=n))
    else:
        # A + I: a stored diagonal entry becomes a_ii + 1, and a missing one
        # is appended, then put in place by restoring the (row, column) order.
        diag = rows == indices
        data = np.where(diag, data + 1.0, data)
        missing = np.ones(n, dtype=bool)
        missing[rows[diag]] = False
        nodes = np.flatnonzero(missing)
        order = np.lexsort((np.concatenate((indices, nodes)),
                            np.concatenate((rows, nodes))))
        indices = np.concatenate((indices, nodes.astype(indices.dtype)))[order]
        rows = np.concatenate((rows, nodes))[order]
        data = np.concatenate((data, np.ones(nodes.size)))[order]
        indptr = indptr + np.concatenate(([0], np.cumsum(missing)))
        left = right = _inv_sqrt(_row_sums(indptr, data))
    # Each stored entry a_ij is scaled by left_i * right_j, the arithmetic of
    # the products with two diagonal matrices; an entry that underflows goes.
    data = data * left[rows] * right[indices]
    indptr, indices, data = _kept(indptr, indices, data, data != 0)
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def build_graph(adjacency, features, labels=None, directed: bool = False) -> Graph:
    """Assemble a Graph, normalizing the adjacency (self-loops only if undirected).

    Adjacency weights must be non-negative; explicitly stored zeros are
    dropped, from S and from the Graph's own adjacency alike. The S of an
    undirected graph is marked to carry its ``spectrum``.
    """
    adjacency = numerics.as_csr(adjacency)
    n = adjacency.shape[0]
    if adjacency.shape[1] != n:
        raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
    features = numerics.as_dense(features)
    if features.shape[1] != n:
        raise ShapeError(
            f"features must have one column per node: {features.shape[1]} != {n}")
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    rows = np.repeat(np.arange(n), np.diff(indptr))
    negative = np.flatnonzero(data < 0)
    if negative.size:
        k = negative[0]
        raise ValueError(f"adjacency weights must be non-negative, got "
                         f"{float(data[k])!r} at ({rows[k]}, {indices[k]})")
    stored_zero = data == 0
    if stored_zero.any():
        rows = rows[~stored_zero]
        indptr, indices, data = _kept(indptr, indices, data, ~stored_zero)
        adjacency = sp.csr_array((data, indices, indptr), shape=adjacency.shape)
    if not directed and not _is_symmetric(rows, indices, data):
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
    s = _normalize(indptr, indices, data, rows, directed)
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
    sizes = [g.n for g in graphs]
    nnz = [g.s.nnz for g in graphs]
    n, offsets = sum(sizes), np.cumsum([0] + sizes[:-1])
    idx = sp.get_index_dtype(maxval=max(n, sum(nnz)))
    # Member i's column indices shift by its node offset, its row pointers
    # by the entries of the members before it.
    indices = np.concatenate([g.s.indices for g in graphs]) + np.repeat(offsets, nnz)
    indptr = np.concatenate([g.s.indptr[1:] for g in graphs]) + np.repeat(
        np.cumsum([0] + nnz[:-1]), sizes)
    s = sp.csr_array((np.concatenate([g.s.data for g in graphs]), indices.astype(idx),
                      np.concatenate(([0], indptr)).astype(idx)), shape=(n, n))
    if not directed:
        setattr(s, _SPECTRUM, _LazySpectrum(tuple(zip((g.s for g in graphs), offsets))))
    labels = (None if any(g.labels is None for g in graphs)
              else np.concatenate([g.labels for g in graphs], axis=-1))
    graph_of_node = np.concatenate(
        [np.full(g.n, i, dtype=np.int64) for i, g in enumerate(graphs)])
    return GraphBatch(s=s, features=np.hstack([g.features for g in graphs]),
                      labels=labels, graph_of_node=graph_of_node, num_graphs=len(graphs))
