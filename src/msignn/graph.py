"""Graph containers, adjacency normalization, hop distances, batching.

Node features are stored column-per-node (feature_dim x n), the layout of
the propagation equations; the solves in ``equilibrium`` transpose
internally. Labels are either an int class per node, shape (n,), or a
multi-hot 0/1 matrix, shape (num_classes, n).

A ``GraphBatch`` holds what the model reads: S, features, labels and
each node's graph. A ``Graph`` is a ``GraphBatch`` of one, every node in
graph 0, that also keeps its raw adjacency and directedness. ``batch``
merges the S, features and labels of graphs into one ``GraphBatch``.

``build_graph`` is the only place a normalized adjacency S is made, and
self-loops follow ``directed``: an undirected graph gets
S = D^{-1/2} (A + I) D^{-1/2}, a directed graph no self-loops and
S = D_out^{-1/2} A D_in^{-1/2} (directed chains must not short-circuit
their own information-passing test). ``build_graph``, which the
generators and loaders go through, validates and canonicalizes its
adjacency once with ``numerics.as_csr``, which drops explicitly stored
zeros, so a Graph's adjacency, its hop distances and its saved edge list
agree with S. Weights must be non-negative, which the contraction bound
of ``equilibrium`` rests on. What the library derives from a validated
matrix, the normalized S and the block-diagonal merges of ``batch``, is
canonical by construction and not checked again.

Every S, merged ones included, is assembled from numpy arrays by one
``sp.csr_array((data, indices, indptr))`` call: on small graphs scipy's
sparse operations cost more in bookkeeping than in arithmetic. S is
bit-identical to the formula evaluated with scipy's sparse operations
(``_normalize`` says how), and owns its arrays: none is the adjacency's.

The S of an undirected graph is symmetric, and ``spectrum(s)`` gives its
eigendecomposition, one dense ``eigh`` per distinct connected component,
which gives ``equilibrium`` its closed form. Each block also keeps the
measured errors of its components' decompositions, its ``norms``, from
which the solves bound a closed form's residual without touching S again.

``build_graph`` marks such an S pending, and the eigendecomposition is
computed on the first call and cached on S itself, so it is paid once per
graph and only by graphs that are solved or batched. ``batch`` gives the
merged S its spectrum when it makes S, one block per component size, so a
solve on a batch loops over sizes, not members: while any member is
pending, by decomposing its own S, whose rows each pending member keeps;
otherwise by stacking its members' blocks (``_batch_spectrum``). Directed
graphs, and undirected ones with a component above
``SPECTRUM_MAX_COMPONENT`` nodes, have no spectrum, nor has a batch with
such a member. A block's components are ordered by their smallest node,
so where the components of each size are adjacent runs of consecutive
ids, as in a generated dataset or a batch of connected graphs of one
size, each block's ``rows`` are a slice, which the solves read and write
as a slab of an n x h array.

Components that are bit for bit the same, as the 0/1 chains of one length
that the generators make are, are decomposed once, with a result
bit-identical to decomposing each (``_decompose``). Where all of a size's
components repeat one, each array of its block is that one result, one
row that numpy broadcasts over the c components, and members holding that
row stack to it again. Nothing is kept between decompositions, so
separate graphs share no work.

What a spectrum was measured on must not change under it, so the arrays
of every S that ``build_graph`` or ``batch`` makes (``data``, ``indices``,
``indptr``) and of every spectrum block are read-only
(``numerics.read_only``): writing to one raises ``ValueError``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import ShapeError

# A component's eigenvectors are a dense k x k block: above this many nodes
# S gets no spectrum and its solves start from zero instead.
SPECTRUM_MAX_COMPONENT = 512
_SPECTRUM = "_msignn_spectrum"  # the attribute of S that holds its spectrum
_PENDING = object()  # a graph's S before its first ``spectrum`` call


@dataclass(frozen=True, kw_only=True)
class GraphBatch:
    """What the model reads: normalized adjacency S, features, labels, and
    each node's graph, ``graph_of_node[i]`` in ``range(num_graphs)``."""

    s: sp.csr_array
    features: np.ndarray
    labels: np.ndarray | None
    graph_of_node: np.ndarray
    num_graphs: int

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


@dataclass(frozen=True, kw_only=True)
class Graph(GraphBatch):
    """A batch of one graph that keeps its raw 0/1 adjacency and directedness."""

    adjacency: sp.csr_array
    directed: bool


@dataclass(frozen=True)
class SpectrumBlock:
    """Eigendecomposition of the c connected components of S with k nodes each.

    S restricted to the nodes ``nodes[i]``, S_i, equals
    ``vectors[i] @ diag(values[i]) @ vectors[i].T`` up to two errors
    measured per distinct component when the block is decomposed, each a
    Frobenius norm (an upper bound on the spectral norm), kept per
    component in ``norms``; ``error`` and ``drift`` are their largest over
    the block's components. The arrays are made read-only.

    ``rows``, where its nodes sit in an (n, ...) array, is computed on first
    read: a ``slice`` when ``nodes`` is one run of consecutive node ids, as
    in a generated dataset or a batch of connected graphs of one size, else
    ``nodes`` flattened. ``slab`` reads through it, and ``put`` writes.
    ``radius``, its largest |eigenvalue|, ``error`` and ``drift`` are
    computed on first read too, so a block that is never solved on, such as
    a batch member's rows of the batch's decomposition, costs only the
    slicing that made it.

    A decomposition runs ``eigh`` on the distinct ones of a block's
    components only, and a component that repeats another bit for bit
    takes its rows of the arrays. ``values``, ``vectors`` and ``norms``
    each have one row per component, or, when all of them repeat one, one
    row for all of them, which numpy broadcasts over the c components; a
    reader that takes rows one by one broadcasts first.
    """

    nodes: np.ndarray    # (c, k) node indices
    values: np.ndarray   # (c or 1, k) eigenvalues, ascending per component
    vectors: np.ndarray  # (c or 1, k, k) orthonormal eigenvectors, one per column
    # (c or 1, 2): each component's ||S_i V_i - V_i diag(values[i])|| and
    # ||V_i^T V_i - I||, how far V_i is from orthonormal
    norms: np.ndarray

    def __post_init__(self):
        numerics.read_only(self.nodes, *self.arrays)

    @cached_property
    def error(self) -> float:
        """max_i ||S_i V_i - V_i diag(values[i])||."""
        return float(self.norms[:, 0].max())

    @cached_property
    def drift(self) -> float:
        """max_i ||V_i^T V_i - I||."""
        return float(self.norms[:, 1].max())

    @cached_property
    def radius(self) -> float:
        """max |values|, the components' spectral radius."""
        return float(np.abs(self.values).max())

    @cached_property
    def rows(self) -> slice | np.ndarray:
        flat = self.nodes.reshape(-1)
        first = int(flat[0])
        run = np.array_equal(flat, np.arange(first, first + flat.size))
        return slice(first, first + flat.size) if run else flat

    def slab(self, a: np.ndarray) -> np.ndarray:
        """The block's rows of an (n, h) array as (c, k, h): a view of ``a``
        when ``rows`` is a slice (splitting the leading axis of a row range
        never copies), else a gathered copy."""
        if isinstance(self.rows, slice):
            return a[self.rows].reshape(*self.nodes.shape, a.shape[1])
        return a[self.nodes]

    def put(self, out: np.ndarray, coeffs: np.ndarray) -> None:
        """Write V C, (c, k, h), to the block's rows of an (n, h) array: the
        write half of ``slab``, in place through its view when ``rows`` is a
        slice, as ``out=`` on a gathered copy would be lost."""
        if isinstance(self.rows, slice):
            np.matmul(self.vectors, coeffs, out=self.slab(out))
        else:
            out[self.nodes] = np.matmul(self.vectors, coeffs)

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``values``, ``vectors`` and ``norms``, the arrays of one decomposition."""
        return self.values, self.vectors, self.norms


def spectrum(s) -> list[SpectrumBlock] | None:
    """The per-component eigendecomposition of S, or None if S has none.

    Only an S marked by ``build_graph`` or ``batch`` has one; any other,
    a plain ``sp.csr_array`` copy of a marked S included, has none. A
    graph's S computes its blocks on the first call and keeps them, unless
    a ``batch`` holding it decomposed the batch's S first, in which case it
    keeps its rows of that result; a merged S holds the blocks ``batch``
    decomposed or stacked for it.
    """
    blocks = getattr(s, _SPECTRUM, None)
    if blocks is _PENDING:
        blocks = _decompose(s)
        setattr(s, _SPECTRUM, blocks)
    return blocks


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


def _measured_eigh(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eigh`` of a (u, k, k) stack: its values, its vectors, and each
    block's error and drift as a (u, 2) array."""
    values, vectors = np.linalg.eigh(dense)
    # In place, one array for both, as each fresh array of this size costs page faults.
    residual = np.matmul(dense, vectors)
    residual -= vectors * values[:, None, :]
    error = np.linalg.norm(residual, axis=(1, 2))
    gram = np.matmul(vectors.transpose(0, 2, 1), vectors, out=residual)
    gram -= np.eye(vectors.shape[1])
    return values, vectors, np.stack([error, np.linalg.norm(gram, axis=(1, 2))], axis=1)


def _distinct(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of a (c, k, k) stack that differ bit for bit: the index of
    each one's first occurrence, ascending, and each block's place among them.

    Blocks are grouped by a dict keyed by their bytes, which compares keys
    byte for byte once their hashes match, so sharing never rests on a hash.
    """
    first: dict[bytes, int] = {}
    rep = np.array([first.setdefault(block.tobytes(), i) for i, block in enumerate(dense)])
    distinct = np.array(list(first.values()))  # in insertion order, so ascending
    return distinct, np.searchsorted(distinct, rep)


def _decompose(s) -> list[SpectrumBlock] | None:
    """Dense ``eigh`` of every distinct component, one call per component
    size. ``_distinct`` finds the repeats exactly, by a dict of the blocks'
    bytes; a repeated component takes a copy of its first copy's rows, or,
    when that is the size's only distinct component, the block keeps its
    one row for all."""
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
        c = members.size
        slot = np.full(sizes.size, -1)
        slot[members] = np.arange(c)
        sel = slot[entry_comp] >= 0
        dense = np.zeros((c, k, k))
        dense[slot[entry_comp[sel]], pos[rows[sel]], pos[s.indices[sel]]] = s.data[sel]
        distinct, copy_of = _distinct(dense)
        if distinct.size < c:
            dense = dense[distinct]
        values, vectors, norms = _measured_eigh(dense)
        # One distinct block stays one row, which numpy broadcasts over the c
        # components. Of several, each component keeps a gathered copy, as a
        # shared one would need an index that every reader of a block follows.
        if 1 < distinct.size < c:
            values, vectors, norms = values[copy_of], vectors[copy_of], norms[copy_of]
        nodes = order[starts[members][:, None] + np.arange(k)]
        blocks.append(SpectrumBlock(nodes, values, vectors, norms))
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
    return bool((indices[o] == rows).all() and (rows[o] == indices).all()
                and (data[o] == data).all())


def _normalize(indptr, indices, data, rows, directed: bool) -> sp.csr_array:
    """S from the canonical CSR arrays of a validated, zero-free, non-negative A.

    Zero-degree rows/columns (sources, sinks and isolated nodes of a
    directed graph) get a normalization factor of 0, so those nodes stay
    decoupled instead of raising a division error. Row sums are reduced
    with ``np.add.reduceat``, as scipy's ``sum(axis=1)`` does, and column
    sums accumulated entry by entry, as ``ones @ A`` does, so S is
    bit-identical to the formula evaluated with scipy's sparse operations.
    The diagonal of A + I is put in place by one stable sort, and the
    entries are filtered only when one underflowed to 0. S's arrays are
    its own, never the adjacency's; for an adjacency that ``as_csr`` kept
    as it was given, the one ``sp.csr_array`` call here is the only scipy
    construction of its ``build_graph`` call.
    """
    n = indptr.size - 1
    if directed:
        left = _inv_sqrt(_row_sums(indptr, data))
        right = _inv_sqrt(np.bincount(indices, weights=data, minlength=n))
    else:
        # A + I: a stored diagonal entry becomes a_ii + 1 (an off-diagonal
        # weight w > 0 stays w + 0.0 = w), and a missing one is appended, then
        # put in place by a stable sort of (row, column) keys, which merges
        # two runs sorted already.
        diag = rows == indices
        data = data + diag
        missing = np.ones(n, dtype=bool)
        missing[indices[diag]] = False
        nodes = np.flatnonzero(missing)
        order = np.argsort(np.concatenate((rows * n + indices, nodes * (n + 1))),
                           kind="stable")
        indices = np.concatenate((indices, nodes.astype(indices.dtype)))[order]
        rows = np.concatenate((rows, nodes))[order]
        data = np.concatenate((data, np.ones(nodes.size)))[order]
        # Every row of A + I holds its diagonal: no row is empty, no degree 0.
        indptr = np.searchsorted(rows, np.arange(n + 1))
        left = right = 1.0 / np.sqrt(np.add.reduceat(data, indptr[:-1]))
    # Each stored entry a_ij is scaled by left_i * right_j, the arithmetic of
    # the products with two diagonal matrices; an entry that underflows goes.
    data = data * left[rows] * right[indices]
    if data.all():
        indptr = indptr.astype(indices.dtype)
        if directed:  # the adjacency's own array
            indices = indices.copy()
    else:
        indptr, indices, data = _kept(indptr, indices, data, data != 0)
    s = sp.csr_array((data, indices, indptr), shape=(n, n))
    numerics.read_only(s.data, s.indices, s.indptr)  # S owns them
    return s


def class_labels(labels: np.ndarray, unit: str) -> np.ndarray:
    """A vector of class labels as int64, each a non-negative integer below 2**63.

    Every check reads the labels as given, before the cast, so an error
    names the first bad label as the caller gave it, and its position, as
    ``unit`` (node or graph) and index.
    """
    if labels.dtype.kind not in "biuf":
        labels = np.array(labels.tolist())  # an object array of plain numbers gets their dtype
    if labels.dtype.kind not in "biuf":
        # A string, None, or an integer that no 64-bit dtype holds.
        for k, x in enumerate(labels.tolist()):
            if not (isinstance(x, numbers.Integral) and 0 <= x < 2**63):
                raise ValueError(f"class labels must be integers in [0, 2**63), got {x!r} "
                                 f"at {unit} {k}")
    if labels.dtype.kind == "f":
        k = np.flatnonzero(~np.isfinite(labels) | (labels != np.trunc(labels)))
        if k.size:
            raise ValueError(f"class labels must be integers, got "
                             f"{float(labels[k[0]])!r} at {unit} {k[0]}")
    k = np.flatnonzero(labels < 0)
    if k.size:
        raise ValueError(f"class labels must be non-negative, got {labels[k[0]]} at {unit} {k[0]}")
    if labels.dtype.kind in "uf":
        k = np.flatnonzero(labels >= 2**63)
        if k.size:
            raise ValueError(f"class labels must be below 2**63, got {labels[k[0]]} "
                             f"at {unit} {k[0]}")
    return labels.astype(np.int64)


def build_graph(adjacency, features, labels=None, directed: bool = False) -> Graph:
    """Assemble a Graph, normalizing the adjacency (self-loops only if undirected).

    Adjacency weights must be non-negative; ``numerics.as_csr`` drops
    explicitly stored zeros, from S and the Graph's adjacency alike.
    ``directed`` must be a Python or numpy bool. The S of an undirected
    graph is marked to carry its ``spectrum``.
    """
    if not isinstance(directed, (bool, np.bool_)):
        raise ValueError(f"directed must be a bool, got {directed!r}")
    directed = bool(directed)
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
    if data.size and data.min() < 0:
        k = np.flatnonzero(data < 0)[0]
        raise ValueError(f"adjacency weights must be non-negative, got "
                         f"{float(data[k])!r} at ({rows[k]}, {indices[k]})")
    if not directed and not _is_symmetric(rows, indices, data):
        raise ShapeError("undirected graph requires a symmetric adjacency")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.ndim == 1:
            if labels.shape[0] != n:
                raise ShapeError("label vector length must equal node count")
            labels = class_labels(labels, "node")
        elif labels.ndim == 2:
            if labels.shape[1] != n:
                raise ShapeError("multi-hot labels must have one column per node")
            if labels.dtype.kind not in "biuf":
                labels = np.array(labels.tolist())  # as in ``class_labels``
            if labels.dtype.kind not in "biuf":
                # A string, a complex number or None; the cast would drop or misread it.
                for c, row in enumerate(labels.tolist()):
                    for k, x in enumerate(row):
                        if not isinstance(x, numbers.Real):
                            raise ValueError(f"multi-hot labels must be real numbers, got "
                                             f"{x!r} for class {c} at node {k}")
            labels = labels.astype(np.float64)
            bad = np.argwhere((labels != 0) & (labels != 1))  # nan included
            if bad.size:
                c, k = bad[0]
                raise ValueError(f"multi-hot labels must be 0 or 1, got "
                                 f"{float(labels[c, k])!r} for class {c} at node {k}")
        else:
            raise ShapeError("labels must be a vector or a multi-hot matrix")
    s = _normalize(indptr, indices, data, rows, directed)
    if not directed:
        setattr(s, _SPECTRUM, _PENDING)
    return Graph(s=s, features=features, labels=labels,
                 graph_of_node=np.zeros(n, dtype=np.int64), num_graphs=1,
                 adjacency=adjacency, directed=directed)


def hop_distance(g: Graph, p: int) -> np.ndarray:
    """Shortest-path hop count from node p; inf where unreachable.

    Follows edge direction on directed graphs.
    """
    if not 0 <= p < g.n:
        raise IndexError(f"source node {p} out of range for {g.n} nodes")
    # Imported on first use: loading csgraph adds ~10 MB of resident memory,
    # which training and inference never need.
    from scipy.sparse import csgraph
    return csgraph.shortest_path(g.adjacency, unweighted=True, indices=p)


def _block_diagonal(matrices) -> tuple[sp.csr_array, np.ndarray]:
    """The block-diagonal CSR merge of square CSR arrays, and each one's node offset."""
    sizes = [a.shape[0] for a in matrices]
    nnz = [a.nnz for a in matrices]
    n, offsets = sum(sizes), np.cumsum([0] + sizes[:-1])
    idx = sp.get_index_dtype(maxval=max(n, sum(nnz)))
    # Matrix i's column indices shift by its node offset, its row pointers
    # by the entries of the matrices before it.
    indices = np.concatenate([a.indices for a in matrices]) + np.repeat(offsets, nnz)
    indptr = np.concatenate([a.indptr[1:] for a in matrices]) + np.repeat(
        np.cumsum([0] + nnz[:-1]), sizes)
    s = sp.csr_array((np.concatenate([a.data for a in matrices]), indices.astype(idx),
                      np.concatenate(([0], indptr)).astype(idx)), shape=(n, n))
    numerics.read_only(s.data, s.indices, s.indptr)
    return s, offsets


def _batch_spectrum(graphs: list[Graph], s, offsets) -> list[SpectrumBlock] | None:
    """The spectrum of the merged S of undirected ``graphs``, one block per component size.

    While any member is pending, the batch decomposes its own S with one
    ``_decompose`` call, and each pending member caches its rows of the
    result: views of the same arrays, node indices shifted back. A member
    repeated in the batch is no longer pending at its second occurrence.
    If S has a component above the cap, the batch has no spectrum and its
    pending members stay pending; a block's one row for all its components
    is every pending member's row, as it is. When no member is pending, the
    members' blocks are concatenated per size, node indices offset, a
    member's one row expanded to one per component; but members that all
    hold the same one row, of one decomposition, stack to that row.
    """
    if any(getattr(g.s, _SPECTRUM, None) is _PENDING for g in graphs):
        blocks = _decompose(s)
        if blocks is not None:
            # A block's rows ascend by their component's smallest node,
            # nodes[:, 0], so each member's components are one run of rows.
            ends = np.append(offsets, s.shape[0])
            cuts = [np.searchsorted(b.nodes[:, 0], ends) for b in blocks]
            for i, g in enumerate(graphs):
                if getattr(g.s, _SPECTRUM, None) is _PENDING:
                    rows = [slice(cut[i], cut[i + 1]) for cut in cuts]
                    setattr(g.s, _SPECTRUM, [
                        SpectrumBlock(b.nodes[r] - offsets[i],
                                      *(a if len(a) == 1 else a[r] for a in b.arrays))
                        for b, r in zip(blocks, rows) if r.start < r.stop])
        return blocks
    parts = [spectrum(g.s) for g in graphs]
    if any(own is None for own in parts):
        return None
    by_size: dict[int, tuple[list[SpectrumBlock], list[int]]] = {}
    for own, offset in zip(parts, offsets):
        for b in own:
            group, shifts = by_size.setdefault(b.nodes.shape[1], ([], []))
            group.append(b)
            shifts.append(offset)
    blocks = []
    for _, (group, shifts) in sorted(by_size.items()):
        # One shift of all node indices, not one per member.
        nodes = np.concatenate([b.nodes for b in group])
        nodes += np.repeat(shifts, [len(b.nodes) for b in group])[:, None]
        first = group[0]
        if len(first.vectors) == 1 and all(b.vectors is first.vectors for b in group):
            arrays = first.arrays
        else:
            # A member's one row for all its components is expanded to one each.
            arrays = [np.concatenate([a if len(a) == len(b.nodes)
                                      else np.broadcast_to(a, (len(b.nodes), *a.shape[1:]))
                                      for a, b in zip(column, group)])
                      for column in zip(*(b.arrays for b in group))]
        blocks.append(SpectrumBlock(nodes, *arrays))
    return blocks


def batch(graphs: list[Graph]) -> GraphBatch:
    """Merge graphs block-diagonally; normalization happens per graph before merging.

    The merged S of undirected members gets one spectrum block per
    component size: if any member is still pending, from decomposing the
    merged S, whose rows each pending member keeps; otherwise stacked from
    the members' blocks. Each member must be a ``Graph``: a ``GraphBatch``
    keeps no directedness to check, so an already merged batch is refused.
    """
    if not graphs:
        raise ValueError("cannot batch an empty graph list")
    for i, g in enumerate(graphs):
        if not isinstance(g, Graph):
            raise TypeError(f"batch merges Graphs, got {type(g).__name__} at index {i}")
    feat_dim = graphs[0].feature_dim
    directed = graphs[0].directed
    multilabel = graphs[0].multilabel
    for g in graphs:
        if g.feature_dim != feat_dim:
            raise ShapeError(
                f"feature dims differ across graphs: {g.feature_dim} != {feat_dim}")
        if g.directed != directed or g.multilabel != multilabel:
            raise ShapeError("all graphs in a batch must share directedness and label kind")
        if multilabel and g.num_classes != graphs[0].num_classes:
            raise ShapeError("multi-hot class counts differ across graphs: "
                             f"{g.num_classes} != {graphs[0].num_classes}")
    s, offsets = _block_diagonal([g.s for g in graphs])
    if not directed:
        setattr(s, _SPECTRUM, _batch_spectrum(graphs, s, offsets))
    labels = (None if any(g.labels is None for g in graphs)
              else np.concatenate([g.labels for g in graphs], axis=-1))
    return GraphBatch(s=s, features=np.hstack([g.features for g in graphs]), labels=labels,
                      graph_of_node=np.repeat(np.arange(len(graphs), dtype=np.int64),
                                              [g.n for g in graphs]),
                      num_graphs=len(graphs))
