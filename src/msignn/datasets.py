"""Synthetic benchmark generators and file-based graph loaders.

Two generator families:

* chains — directed paths whose class is encoded only in the starting
  node's features, so classifying the far end requires passing information
  the full length of the chain.
* color counting — undirected chains where a fraction of nodes carry a
  one-hot color; every node is labeled with the chain's (strict) majority
  color, which requires aggregating colors from the whole chain.

Both are pure functions of (spec, seed). Datasets persist as an edge list
(``src<TAB>dst``), a features CSV (row per node, transposed to
column-per-node on load), a labels CSV (``node_id,label``, or one
multi-hot row per node), and a JSON sidecar with the split masks, the
label kind and a spec echo.

The three text files are read by one row reader: it skips blank lines,
requires a fixed field count (``src<TAB>dst``, ``node_id,label``) or the
first row's (features, multi-hot labels), and reports a field that does
not parse or is not finite, or a row of the wrong width, as a
``DataFormatError`` naming ``path:line``. A node id out of range names
its line too. The sidecar is read by ``jsonio.read_json`` against
``SIDECAR_SCHEMA``, so a key it does not list (a misspelled
``multilabel``) is rejected, and overlapping split masks name the
sidecar and the two splits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import DataFormatError, GenerationError, ShapeError
from .graph import Graph, build_graph, class_labels
from .jsonio import read_json, write_json

EDGE_FILE = "edges.tsv"
FEATURE_FILE = "features.csv"
LABEL_FILE = "labels.csv"
SIDECAR_FILE = "masks.json"
MAX_COLOR_RESAMPLES = 1000  # color draws per chain before a tie-free majority is given up
SPLIT_MIN_NODES = 3  # the fewest nodes whose split gives train, val and test a node each


@dataclass(frozen=True)
class Dataset:
    """A node-task dataset: a labelled graph plus disjoint train/val/test node masks.

    Each mask must hold one entry per node, and no node may be in two.
    """

    graph: Graph
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    spec_echo: dict

    def __post_init__(self):
        if self.graph.labels is None:
            raise ValueError("a node-task dataset needs a graph with labels, got one "
                             "without")
        _check_masks(self, self.graph.n, "node")


@dataclass(frozen=True)
class GraphDataset:
    """A graph-task dataset: individual graphs, one label each, split by graph.

    The labels must be a vector of non-negative integers, one per graph
    (stored as int64), and each mask must hold one entry per graph, no
    graph in two masks.
    """

    graphs: list[Graph]
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        labels, count = np.asarray(self.labels), len(self.graphs)
        if labels.shape != (count,):
            raise ShapeError(f"graph labels must be a vector with one entry per graph, "
                             f"got shape {labels.shape} for {count} graphs")
        object.__setattr__(self, "labels", class_labels(labels, "graph"))
        _check_masks(self, count, "graph")


def _check_masks(ds, count: int, unit: str) -> None:
    """Require ``ds``'s train, val and test masks to hold ``count`` entries each,
    and no ``unit`` (node or graph) to be in two of them."""
    masks = {}
    for name in ("train", "val", "test"):
        masks[name] = np.asarray(getattr(ds, f"{name}_mask"))
        if masks[name].shape != (count,):
            raise ShapeError(f"{name} mask must hold one entry per {unit}, got shape "
                             f"{masks[name].shape} for {count} {unit}s")
    for a, b in combinations(masks, 2):
        both = np.flatnonzero(masks[a].astype(bool) & masks[b].astype(bool))
        if both.size:
            raise ValueError(f"{a} and {b} masks overlap ({unit} {both[0]} is in both)")


@dataclass(frozen=True)
class ChainsSpec:
    num_classes: int = 2
    chains_per_class: int = 20
    length: int = 10
    seed: int = 0

    def __post_init__(self):
        numerics.set_integers(self, "num_classes", "chains_per_class", "length", "seed")
        if min(self.num_classes, self.chains_per_class, self.length) < 1:
            raise ValueError("chain spec counts must all be >= 1")
        if self.seed < 0:
            raise ValueError(f"chains seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ColorCountingSpec:
    num_colors: int = 3
    num_chains: int = 30
    length: int = 30
    colored_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        numerics.set_integers(self, "num_colors", "num_chains", "length", "seed")
        if self.num_colors < 2:
            raise ValueError("need at least two colors")
        if self.num_chains < 1 or self.length < 1:
            raise ValueError("chain counts must be >= 1")
        if not 0.0 < self.colored_fraction <= 1.0:
            raise ValueError("colored_fraction must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"color-counting seed must be >= 0, got {self.seed}")


def _split_masks(n: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random 5% / 10% / 85% node split; from SPLIT_MIN_NODES on, no split is empty."""
    order = rng.permutation(n)
    least = 1 if n >= SPLIT_MIN_NODES else 0  # rounding alone empties train below n = 11
    n_train = max(least, int(round(0.05 * n)))
    n_val = max(least, int(round(0.10 * n)))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[order[:n_train]] = True
    val[order[n_train:n_train + n_val]] = True
    test[order[n_train + n_val:]] = True
    return train, val, test


def _chain_edges(num_chains: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The (src, dst) edges of ``num_chains`` directed paths of ``length`` nodes each."""
    starts = np.arange(num_chains, dtype=np.int64) * length
    src = (starts[:, None] + np.arange(length - 1)).ravel()
    return src, src + 1


def gen_chains(spec: ChainsSpec) -> Dataset:
    """Directed chains; the class one-hot sits only on each chain's start node."""
    rng = np.random.default_rng(spec.seed)
    num_chains = spec.num_classes * spec.chains_per_class
    n = num_chains * spec.length
    src, dst = _chain_edges(num_chains, spec.length)
    adjacency = sp.csr_array((np.ones(len(src)), (src, dst)), shape=(n, n))
    chain_class = np.repeat(np.arange(spec.num_classes), spec.chains_per_class)
    features = np.zeros((spec.num_classes, n))
    starts = np.arange(num_chains) * spec.length
    features[chain_class, starts] = 1.0
    labels = np.repeat(chain_class, spec.length)
    graph = build_graph(adjacency, features, labels, directed=True)
    train, val, test = _split_masks(n, rng)
    return Dataset(graph=graph, train_mask=train, val_mask=val, test_mask=test,
                   spec_echo={"kind": "chains", **asdict(spec)})


def gen_color_counting(spec: ColorCountingSpec) -> Dataset:
    """Undirected chains labeled with each chain's strict-majority color."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_chains * spec.length
    src, dst = _chain_edges(spec.num_chains, spec.length)
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    adjacency = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    num_colored = max(1, int(round(spec.colored_fraction * spec.length)))
    positions, colors, majority = [], [], []
    for c in range(spec.num_chains):
        positions.append(rng.choice(spec.length, size=num_colored, replace=False))
        for _ in range(MAX_COLOR_RESAMPLES):
            drawn = rng.integers(spec.num_colors, size=num_colored)
            counts = np.bincount(drawn, minlength=spec.num_colors).tolist()
            top = max(counts)
            if counts.count(top) == 1:
                break
        else:
            raise GenerationError(
                f"no strict majority color for chain {c} after {MAX_COLOR_RESAMPLES} resamples")
        colors.append(drawn)
        majority.append(counts.index(top))
    # A chain's colored positions are distinct, so each node is written once.
    starts = np.arange(spec.num_chains) * spec.length
    features = np.zeros((spec.num_colors, n))
    features[np.concatenate(colors), (starts[:, None] + np.array(positions)).ravel()] = 1.0
    labels = np.repeat(np.array(majority, dtype=np.int64), spec.length)
    graph = build_graph(adjacency, features, labels, directed=False)
    train, val, test = _split_masks(n, rng)
    return Dataset(graph=graph, train_mask=train, val_mask=val, test_mask=test,
                   spec_echo={"kind": "colors", **asdict(spec)})


# -- persistence -----------------------------------------------------------


# What ``save_dataset`` writes to ``masks.json``, as a ``jsonio`` schema.
SIDECAR_SCHEMA = {"directed": "boolean", "multilabel?": "boolean", "spec?": "object",
                  "train": ["integer"], "val": ["integer"], "test": ["integer"]}


def save_dataset(ds: Dataset, out_dir) -> None:
    """Write ``ds`` as files; raises before writing any if an edge has a weight."""
    g = ds.graph
    coo = g.adjacency.tocoo()
    order = np.lexsort((coo.col, coo.row))
    weighted = order[coo.data[order] != 1]
    if weighted.size:
        k = weighted[0]
        raise ValueError(f"{EDGE_FILE} cannot store edge weights: edge ({coo.row[k]}, "
                         f"{coo.col[k]}) has weight {float(coo.data[k])!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_rows(out / EDGE_FILE, zip(coo.row[order], coo.col[order]), sep="\t")
    write_rows(out / FEATURE_FILE, g.features.T)
    write_rows(out / LABEL_FILE, g.labels.T if g.multilabel else enumerate(g.labels))
    sidecar = {
        "directed": g.directed,
        "multilabel": g.multilabel,
        "spec": ds.spec_echo,
        "train": np.flatnonzero(ds.train_mask).tolist(),
        "val": np.flatnonzero(ds.val_mask).tolist(),
        "test": np.flatnonzero(ds.test_mask).tolist(),
    }
    write_json(out / SIDECAR_FILE, sidecar)


def load_dataset(in_dir) -> Dataset:
    src = Path(in_dir)
    sidecar_path = src / SIDECAR_FILE
    sidecar = read_json(sidecar_path, SIDECAR_SCHEMA)
    graph = load_graph(src / EDGE_FILE, src / FEATURE_FILE, src / LABEL_FILE,
                       directed=sidecar["directed"],
                       multilabel=sidecar.get("multilabel", False))
    masks = {}
    for key in ("train", "val", "test"):
        if any(not 0 <= i < graph.n for i in sidecar[key]):
            raise DataFormatError(f"{sidecar_path}: {key} mask index out of range")
        masks[key] = np.zeros(graph.n, dtype=bool)
        masks[key][sidecar[key]] = True
    try:
        return Dataset(graph=graph, train_mask=masks["train"], val_mask=masks["val"],
                       test_mask=masks["test"], spec_echo=sidecar.get("spec", {}))
    except ValueError as exc:  # overlapping masks
        raise DataFormatError(f"{sidecar_path}: {exc}") from exc


def load_graph(edge_path, feature_path, label_path=None, directed: bool = False,
               multilabel: bool = False) -> Graph:
    """Load a graph from an edge list, a features CSV, and an optional labels CSV.

    Duplicate edge lines are deduplicated; node ids must stay inside the
    feature-file row count. Parse failures carry the offending line number.
    """
    features = _read_rows(feature_path, ",", np.float64)[0].T  # column per node
    n = features.shape[1]
    if n == 0:
        raise DataFormatError(f"{feature_path}: no feature rows")
    edges, linenos = _read_rows(edge_path, "\t", np.int64, width=2)
    _check_node_ids(edges, linenos, n, edge_path)
    adjacency = sp.csr_array((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                             shape=(n, n))
    adjacency.data[:] = 1.0  # duplicate lines collapse to a single 0/1 edge
    if not directed:
        adjacency = adjacency.maximum(adjacency.T)

    labels = None
    if label_path is not None:
        labels = _load_labels(label_path, n, multilabel)
    return build_graph(adjacency, features, labels, directed=directed)


def _load_labels(label_path, n, multilabel):
    if multilabel:
        rows = _read_rows(label_path, ",", np.float64)[0]
        if len(rows) != n:
            raise DataFormatError(f"{label_path}: expected {n} multi-hot rows, got {len(rows)}")
        return rows.T
    rows, linenos = _read_rows(label_path, ",", np.int64, width=2)
    _check_node_ids(rows[:, :1], linenos, n, label_path)
    negative = np.flatnonzero(rows[:, 1] < 0)
    if negative.size:
        k = negative[0]
        raise DataFormatError(f"{label_path}:{linenos[k]}: negative label {rows[k, 1]}")
    _, first = np.unique(rows[:, 0], return_index=True)
    repeated = np.setdiff1d(np.arange(len(rows)), first)
    if repeated.size:
        k = repeated[0]
        raise DataFormatError(f"{label_path}:{linenos[k]}: node {rows[k, 0]} labelled twice")
    labels = np.full(n, -1, dtype=np.int64)
    labels[rows[:, 0]] = rows[:, 1]
    if np.any(labels < 0):
        missing = int(np.flatnonzero(labels < 0)[0])
        raise DataFormatError(f"{label_path}: node {missing} has no label")
    return labels


def _read_rows(path, sep, dtype, width=None):
    """Read a delimited text file as a (rows, fields) array of ``dtype``.

    Blank lines are skipped. Every row must have ``width`` fields or, when
    ``width`` is None, as many as the first row. A field ``dtype`` cannot
    parse, a float field that is nan or infinite, or a row of another
    width raises ``DataFormatError`` naming ``path:line``. Also returns
    each row's line number, so a caller can name the line of a value that
    parses but is out of range.
    """
    rows, linenos = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(sep)
            if width is None:
                width = len(fields)
            if len(fields) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
            try:
                rows.append([dtype(field) for field in fields])
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad field: {exc}") from exc
            linenos.append(lineno)
    rows = np.array(rows, dtype=dtype).reshape(len(rows), width or 0)
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        r, c = bad[0]
        raise DataFormatError(f"{path}:{linenos[r]}: field {c + 1} is "
                              f"{float(rows[r, c])!r}, not a finite number")
    return rows, linenos


def write_rows(path, rows, sep=",") -> None:
    """Write each row as one LF-terminated line of fields joined by ``sep``, the
    mirror of ``_read_rows``: a float (numpy's too) as the ``repr`` of its
    Python float, which reads back exactly, any other field as its ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(sep.join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _check_node_ids(ids, linenos, n, path):
    """Name the first line whose row of ``ids`` (rows x fields) leaves [0, n)."""
    bad = np.flatnonzero(((ids < 0) | (ids >= n)).any(axis=1))
    if bad.size:
        raise DataFormatError(f"{path}:{linenos[bad[0]]}: node id out of range for {n} nodes")
