"""Every rule an input boundary enforces, one table per boundary.

Seven tables: dataset files and ``masks.json`` (``FILES``), dataset objects
(``DATASETS``), graphs and batches (``GRAPHS``), checkpoints and JSON files
(``CHECKPOINTS``), settings objects (``SETTINGS``), call-time arguments
(``CALLS``) and the command line (``CLI``). A row (``Row``) is a valid
builder, one edit, the error type or exit code, and a fragment of the
message that names the rule; its key is the row's id. ``rows`` gives a
group of rows one builder and a default error, and
``test_builders_are_accepted`` checks that every builder, left unedited, is
accepted. No two raises share a message, so a row's fragment names the
check that fired. A row runs under the name of each older one-rule test
that checked it (``FORMER``, put into that test's module), or else in its
table's test, ``test_files`` ... ``test_cli``.
"""

import inspect
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from typing import Any, Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from msignn import (Adam, ChainsSpec, ColorCountingSpec, Dataset, GraphDataset, ScaleModule,
                    SolverConfig, TrainConfig, accuracy, adjoint_solve, batch,
                    bce_with_logits, build_graph, cross_entropy, empirical_range,
                    forward_solve, gen_chains, gen_color_counting, hop_distance, init_model,
                    load_checkpoint, load_dataset, measure_decay, micro_f1, numerics,
                    oracle_solve, range_bound, range_bound_exact, save_checkpoint,
                    save_dataset, sum_pool, train_loop, weight_gradient)
from msignn.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_IO, EXIT_USAGE, OUT_DIR_ENV, main
from msignn.errors import (CapacityError, DataFormatError, DivergenceError, DomainError,
                           EmptySelectionError, GenerationError, ShapeError)
from msignn.graph import GraphBatch
from msignn.jsonio import read_json
from msignn.model import AttentionParams, MlpEncoder, MultiscaleImplicitGNN
from msignn.probe import DecayCurve
from msignn.train import evaluate

from conftest import SCHEMA, apart, directed_graph, undirected_graph


class Row(NamedTuple):
    """One rejected input, a row of a table.

    ``build()`` returns a boundary (a callable) and keyword arguments it
    accepts; a builder that writes files takes the row's directory,
    ``build(directory)``. ``edit`` is the one change: a dict of replaced arguments, or
    a function that edits the arguments or the files they name. The edited
    call then raises exactly ``error``, no subclass of it, with ``fragment``
    in its message (``{tmp}`` in it stands for the directory); or, when
    ``error`` is an exit code, the boundary is ``cli.main``, returns that code
    and writes ``fragment`` to stderr.
    """

    build: Callable
    edit: Any
    error: Any
    fragment: str


def takes_directory(build: Callable) -> bool:
    return bool(inspect.signature(build).parameters)


def directory(parent, name: str):
    """A new directory ``name`` under ``parent``."""
    (parent / name).mkdir()
    return parent / name


def rejects(row: Row, request, name: str | None = None) -> None:
    """Run ``row`` in the test ``request`` asks for; a builder that takes a
    directory gets the test's ``tmp_path``, or its subdirectory ``name``."""
    tmp_path = None
    if takes_directory(row.build):
        tmp_path = request.getfixturevalue("tmp_path")
        tmp_path = directory(tmp_path, name) if name else tmp_path
    call, kwargs = row.build(tmp_path) if tmp_path else row.build()
    if callable(row.edit):
        row.edit(kwargs)
    else:
        kwargs.update(row.edit)
    fragment = row.fragment.replace("{tmp}", str(tmp_path))
    if isinstance(row.error, int):
        with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
            code = call(**kwargs)
        assert (code, fragment in err.getvalue()) == (row.error, True), err.getvalue()
        return
    with pytest.raises(row.error, match=re.escape(fragment)) as info:
        call(**kwargs)
    assert type(info.value) is row.error


def edited_json(edit: Callable, name: str | None = None) -> Callable:
    """A row's edit that rewrites a JSON file after ``edit(value)`` changes its
    parsed value in place: the file the arguments name (``path``), or the
    file ``name`` in the directory they name (``in_dir``)."""
    def apply(kwargs):
        path = kwargs["in_dir"] / name if name else kwargs["path"]
        value = json.loads(path.read_text())
        edit(value)
        path.write_text(json.dumps(value))
    return apply


def edited_sidecar(edit: Callable) -> Callable:
    """A row's edit of a saved dataset's ``masks.json``; see ``edited_json``."""
    return edited_json(edit, "masks.json")


def rows(build, error, table):
    """The rows of one builder, from ``{id: (edit, fragment)}``, whose error is
    ``error``, or ``{id: (edit, error, fragment)}``."""
    return {rule: Row(build, row[0], *(row[1:] if len(row) == 3 else (error, row[1])))
            for rule, row in table.items()}


def given(call, **kwargs):
    """A builder of ``call`` on the keyword arguments ``kwargs``."""
    return lambda: (call, dict(kwargs))


def _path(n=3):
    """The 0/1 adjacency of the undirected path on n nodes."""
    return sp.csr_array(np.eye(n, k=1) + np.eye(n, k=-1))


def _raw(**arrays):
    """The path's adjacency, ``indptr`` [0, 1, 3, 4] and ``indices`` [1, 0, 2, 1],
    with some of its CSR arrays replaced, unchecked."""
    a = _path()
    for name, value in arrays.items():
        setattr(a, name, np.asarray(value, dtype=float if name == "data" else np.int32))
    return a


def _labelled(labels=(0, 1, 0)):
    return build_graph(_path(), np.ones((1, 3)), labels)


# -- dataset files and masks.json --------------------------------------------


CHAINS = gen_chains(ChainsSpec(length=3))  # 120 nodes, directed


def saved_chains(tmp_path, multi_hot=False):
    """``CHAINS`` saved, with two-class multi-hot labels if asked."""
    save_dataset(CHAINS, tmp_path / "data")
    if multi_hot:
        _set("multilabel", True)({"in_dir": tmp_path / "data"})
        (tmp_path / "data" / "labels.csv").write_text("1,0\n" * 120)
    return load_dataset, {"in_dir": tmp_path / "data"}


def _write(name, text):
    """An edit that replaces the file ``name`` of a saved dataset."""
    return lambda kwargs: (kwargs["in_dir"] / name).write_text(text)


def _set(key, value):
    return edited_sidecar(lambda sidecar: sidecar.update({key: value}))


def _weighted(kwargs):
    a = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    kwargs["ds"] = replace(kwargs["ds"], graph=build_graph(a, np.ones((1, 3)), [0, 1, 0]))


SPLIT = {f"{name}_mask": np.arange(3) == k for k, name in enumerate(("train", "val", "test"))}
FILES = {
    **rows(saved_chains, DataFormatError, {
        "edge-field-count": (_write("edges.tsv", "0\t1\nbroken\n"),
                             "edges.tsv:2: expected 2 fields, got 1"),
        "edge-unparsable": (_write("edges.tsv", "0\tx\n"),
                            "edges.tsv:1: bad field: invalid literal for int()"),
        "edge-id-out-of-range": (_write("edges.tsv", "0\t1\n0\t120\n"),
                                 "edges.tsv:2: node id out of range for 120 nodes"),
        "features-empty": (_write("features.csv", "\n"), "features.csv: no feature rows"),
        "features-nan": (_write("features.csv", "1.0,0.5\n\n2.0,nan\n"),
                         "features.csv:3: field 2 is nan, not a finite number"),
        "features-inf": (_write("features.csv", "1.0\n-inf\n"),
                         "features.csv:2: field 1 is -inf, not a finite number"),
        "label-negative": (_write("labels.csv", "0,1\n1,-1\n"), "labels.csv:2: negative label -1"),
        "label-twice": (_write("labels.csv", "0,1\n1,0\n0,2\n"),
                        "labels.csv:3: node 0 labelled twice"),
        "label-missing": (_write("labels.csv", "0,1\n2,0\n"), "labels.csv: node 1 has no label"),
        "label-id-out-of-range": (_write("labels.csv", "0,1\n120,0\n"),
                                  "labels.csv:2: node id out of range for 120 nodes"),
        "sidecar-invalid-json": (_write("masks.json", "{"),
                                 "masks.json: invalid JSON: Expecting property name"),
        **{f"sidecar-top-level-{name}": (_write("masks.json", text),
                                         f"{{tmp}}/data/masks.json: top level must be a JSON "
                                         f"object, got {text}")
           for name, text in (("number", "5"), ("string", '"abc"'), ("array", "[]"))},
        **{f"sidecar-missing-{key}": (edited_sidecar(lambda s, key=key: s.pop(key)),
                                      f"masks.json: missing key '{key}'")
           for key in ("directed", "train", "val", "test")},
        "sidecar-unknown-key": (edited_sidecar(lambda s: s.update(multilable=s.pop("multilabel"))),
                                "masks.json: unknown key 'multilable'"),
        **{f"sidecar-{key}-{name}": (_set(key, value),
                                     f"masks.json: {key} must be a JSON boolean, got {shown}")
           for key, name, value, shown in (
               ("directed", "string", "false", '"false"'), ("directed", "zero", 0, "0"),
               ("multilabel", "string", "true", '"true"'), ("multilabel", "null", None, "null"))},
        "mask-not-an-array": (_set("val", 0), "masks.json: val must be a JSON array, got 0"),
        "mask-entry-float": (_set("val", [0.7]),
                             "masks.json: val[0] must be a JSON integer, got 0.7"),
        "mask-entry-boolean": (_set("val", [True]),
                               "masks.json: val[0] must be a JSON integer, got true"),
        "mask-entry-nan": (_set("train", [float("nan")]),
                           "masks.json: train[0] must be a JSON integer, got NaN"),
        **{f"mask-index-{name}": (_set("test", [index]), "masks.json: test mask index out of range")
           for name, index in (("negative", -1), ("past-the-end", 120), ("huge", 2 ** 70))},
        "masks-overlap": (edited_sidecar(lambda s: s["test"].append(s["train"][0])),
                          "masks.json: train and test masks overlap"),
    }),
    **rows(lambda tmp_path: saved_chains(tmp_path, multi_hot=True), DataFormatError, {
        "multi-hot-nan": (_write("labels.csv", "1,0,NaN\n0,1,1\n"),
                          "labels.csv:1: field 3 is nan, not a finite number"),
        "multi-hot-overflow": (_write("labels.csv", "1,0,1\n0,1e999,1\n"),
                               "labels.csv:2: field 2 is inf, not a finite number"),
        "multi-hot-ragged": (_write("labels.csv", "1,0,1\n0,1\n"),
                             "labels.csv:2: expected 3 fields, got 2"),
        "multi-hot-row-count": (_write("labels.csv", "1,0\n"),
                                "labels.csv: expected 120 multi-hot rows, got 1"),
    }),
    "edge-weight": Row(lambda tmp_path: (save_dataset, dict(
        ds=Dataset(graph=_labelled(), spec_echo={}, **SPLIT), out_dir=tmp_path / "out")),
        _weighted, ValueError, "edges.tsv cannot store edge weights: edge (0, 1) has weight 2.0"),
}


# -- Dataset and GraphDataset -------------------------------------------------


NODE_DATA = given(Dataset, graph=_labelled(), spec_echo={}, **SPLIT)
GRAPH_DATA = given(GraphDataset, graphs=[_labelled()] * 6, labels=np.arange(6) % 3,
                   train_mask=np.arange(6) < 2, val_mask=np.arange(6) // 2 == 1,
                   test_mask=np.arange(6) >= 4)
DATASETS = {
    **rows(NODE_DATA, ValueError, {
        "node-without-labels": ({"graph": build_graph(_path(), np.ones((1, 3)))},
                                "a node-task dataset needs a graph with labels, got one without"),
        "node-mask-short": ({"train_mask": np.ones(2, dtype=bool)}, ShapeError,
                            "train mask must hold one entry per node, got shape (2,) for 3 nodes"),
        "node-masks-overlap": ({"val_mask": np.arange(3) < 2},
                               "train and val masks overlap (node 0 is in both)"),
    }),
    **rows(GRAPH_DATA, ShapeError, {
        "graph-label-negative": ({"labels": np.array([0, 1, 2, -1, 1, 2])}, ValueError,
                                 "class labels must be non-negative, got -1 at graph 3"),
        "graph-label-float": ({"labels": np.array([0, 1, 2, 0, 0.5, 2])}, ValueError,
                              "class labels must be integers, got 0.5 at graph 4"),
        "graph-label-past-int64": ({"labels": np.array([0, 1, 2, 1e30, 1, 2])}, ValueError,
                                   "class labels must be below 2**63, got 1e+30 at graph 3"),
        "graph-label-none": ({"labels": np.array([0, 1, None, 0, 1, 2], dtype=object)},
                             ValueError, "class labels must be integers in [0, 2**63), "
                                         "got None at graph 2"),
        "graph-label-string": ({"labels": np.array(list("abcdef"))}, ValueError,
                               "class labels must be integers in [0, 2**63), got 'a' at graph 0"),
        "graph-labels-short": ({"labels": np.zeros(5, dtype=int)}, "graph labels must be a vector "
                               "with one entry per graph, got shape (5,) for 6 graphs"),
        "graph-labels-matrix": ({"labels": np.zeros((1, 6), dtype=int)},
                                "one entry per graph, got shape (1, 6) for 6 graphs"),
        "graph-masks-overlap": ({"val_mask": np.isin(np.arange(6), [1, 2, 3])}, ValueError,
                                "train and val masks overlap (graph 1 is in both)"),
        "graph-mask-short": ({"test_mask": np.arange(5) >= 4}, "test mask must hold one entry "
                             "per graph, got shape (5,) for 6 graphs"),
    }),
}


# -- build_graph, as_csr, as_dense and batch ------------------------------------


def _bsr_with_2d_data():
    a = sp.bsr_array(np.eye(4), blocksize=(2, 2))
    a.data = np.ones((2, 2))
    return a


def _coo_with_row_9():
    a = sp.coo_array(np.eye(3))
    a.row[0] = 9
    return a


def _member(**kwargs):
    """``batch``'s arguments: a labelled path with two features, and another graph."""
    return {"graphs": [build_graph(_path(), np.ones((2, 3)), [0, 1, 0]),
                       build_graph(_path(), **{"features": np.ones((2, 3)), **kwargs})]}


KINDS_DIFFER = "all graphs in a batch must share directedness and label kind"
NEGATIVE = np.array([[0, 1, 0], [1, 0, -0.5], [0, -0.5, 0]])
GRAPHS = {
    **rows(given(build_graph, adjacency=_path(), features=np.ones((1, 3)), labels=[0, 1, 0]),
           ShapeError, {
        "adjacency-not-square": ({"adjacency": sp.csr_array(np.zeros((2, 3)))},
                                 "adjacency must be square, got (2, 3)"),
        "adjacency-not-2d": ({"adjacency": sp.csr_array(np.ones(3))},
                             "expected a 2-D sparse matrix, got ndim=1"),
        **{f"negative-weight-{kind}": ({"adjacency": NEGATIVE, "directed": kind == "directed"},
                                       ValueError, "adjacency weights must be non-negative, "
                                                   "got -0.5 at (1, 2)")
           for kind in ("undirected", "directed")},
        "asymmetric": ({"adjacency": sp.csr_array(np.eye(3, k=1))},
                       "undirected graph requires a symmetric adjacency"),
        **{f"directed-{name}": ({"directed": value}, ValueError,
                                f"directed must be a bool, got {value!r}")
           for name, value in (("string", "no"), ("integer", 1))},
        "adjacency-complex": ({"adjacency": sp.csr_array(np.eye(3) * (1 + 1j))}, ValueError,
                              "sparse matrix values must be real, got dtype complex128"),
        "features-complex": ({"features": np.ones((1, 3)) * (1 + 2j)}, ValueError,
                             "dense matrix entries must be real, got dtype complex128"),
        **{f"csr-value-{bad}": ({"adjacency": _raw(data=[1, 1, bad, 1])}, ValueError,
                                "CSR values contain NaN or Inf")
           for bad in (np.nan, np.inf, -np.inf)},
        "features-columns": ({"features": np.ones((1, 2))},
                             "features must have one column per node: 2 != 3"),
        "features-not-2d": ({"features": np.ones(3)}, "expected a 2-D dense matrix, got ndim=1"),
        "features-nan": ({"features": np.array([[1.0, np.nan, 1.0]])}, ValueError,
                         "matrix contains NaN or Inf entries"),
        "label-vector-length": ({"labels": [0, 1]}, "label vector length must equal node count"),
        "label-negative": ({"labels": [-1, 0, 0]}, ValueError,
                           "class labels must be non-negative, got -1 at node 0"),
        "label-fraction": ({"labels": [0.5, 1.7, 0]}, ValueError,
                           "class labels must be integers, got 0.5 at node 0"),
        "label-nan": ({"labels": [1.0, np.nan, 0]}, ValueError,
                      "class labels must be integers, got nan at node 1"),
        # Cast to int64 before they were checked, these read as -2**63.
        "label-past-int64-float": ({"labels": [1.0, 1e30, 2.0]}, ValueError,
                                   "class labels must be below 2**63, got 1e+30 at node 1"),
        "label-past-int64-uint": ({"labels": np.array([1, 2**63 + 5, 2], dtype=np.uint64)},
                                  ValueError, "class labels must be below 2**63, "
                                              "got 9223372036854775813 at node 1"),
        "label-string": ({"labels": ["a", "b", "c"]}, ValueError,
                         "class labels must be integers in [0, 2**63), got 'a' at node 0"),
        "label-none": ({"labels": [1, None, 2]}, ValueError,
                       "class labels must be integers in [0, 2**63), got None at node 1"),
        "multi-hot-columns": ({"labels": np.zeros((2, 2))},
                              "multi-hot labels must have one column per node"),
        **{f"multi-hot-{name}": ({"labels": labels}, ValueError,
                                 f"multi-hot labels must be 0 or 1, got {shown}")
           for name, labels, shown in (
               ("fraction", [[0.5, 2, 0], [np.nan, 1, 0]], "0.5 for class 0 at node 0"),
               ("nan", [[0, 1, 0], [np.nan, 1, 0]], "nan for class 1 at node 0"),
               ("negative", [[1, 0, 0], [1, -1, 0]], "-1.0 for class 1 at node 1"))},
        # The cast to float kept a complex label's real part and read a string's number.
        **{f"multi-hot-{name}": ({"labels": labels}, ValueError,
                                 f"multi-hot labels must be real numbers, got {shown}")
           for name, labels, shown in (
               ("complex", np.eye(2)[:, [0, 1, 0]] * (1 + 1j), "(1+1j) for class 0 at node 0"),
               ("string", [["1", "0", "1"], ["0", "1", "0"]], "'1' for class 0 at node 0"),
               ("none", [[1, 0, 0], [0, None, 1]], "None for class 1 at node 1"))},
        "labels-3d": ({"labels": np.zeros((1, 1, 3))},
                      "labels must be a vector or a multi-hot matrix"),
    }),
    # scipy converts a corrupt structure unchecked, and that can crash the
    # interpreter, so these rows build their graph in a process of their own.
    **rows(given(apart(build_graph), adjacency=_path(), features=np.ones((1, 3))), ShapeError, {
        **{f"csr-column-{name}": ({"adjacency": _raw(indices=[1, 0, column, 1])},
                                  "corrupt CSR: indices must lie in [0, 3)")
           for name, column in (("too-large", 3), ("negative", -1))},
        **{f"csr-{name}": ({"adjacency": _raw(**{array: value})}, f"corrupt CSR: {message}")
           for name, array, value, message in (
               ("data-not-1d", "data", np.ones((4, 1)), "data, indices, and indptr should be 1-D"),
               ("indices-not-1d", "indices", [[1, 0, 2, 1]], "indices and indptr should be 1-D"),
               ("indptr-size", "indptr", [0, 1, 3], "index pointer size 3 should be 4"),
               ("indptr-start", "indptr", [1, 1, 3, 4], "index pointer should start with 0"),
               ("data-size", "data", [1.0] * 3, "indices and data should have the same size"),
               ("indptr-past-the-end", "indptr", [0, 1, 3, 5],
                "last value of index pointer should be at most the size of index and data"),
               ("indptr-decreasing", "indptr", [0, 3, 1, 4],
                "index pointer must be a non-decreasing sequence"))},
        "bsr-data-not-3d": ({"adjacency": _bsr_with_2d_data()}, "corrupt BSR: data should be 3-D"),
        "coo-index-out-of-range": ({"adjacency": _coo_with_row_9()},
                                   "corrupt COO: axis 0 index outside [0, 3)"),
    }),
    **rows(given(batch, **_member(labels=[0, 1, 0])), ShapeError, {
        "batch-empty": ({"graphs": []}, ValueError, "cannot batch an empty graph list"),
        "batch-feature-dims": (_member(features=np.ones((5, 3)), labels=[0, 1, 0]),
                               "feature dims differ across graphs: 5 != 2"),
        "batch-directedness": (_member(labels=[0, 1, 0], directed=True), KINDS_DIFFER),
        "batch-label-kind": (_member(labels=np.eye(3)), KINDS_DIFFER),
        "batch-class-count": ({"graphs": [build_graph(_path(), np.ones((2, 3)), np.eye(k, 3))
                                          for k in (2, 3)]},
                              "multi-hot class counts differ across graphs: 3 != 2"),
        "batch-not-a-graph": (lambda kwargs: kwargs.update(graphs=[
                                  *kwargs["graphs"], batch(kwargs["graphs"])]),
                              TypeError, "batch merges Graphs, got GraphBatch at index 2"),
    }),
}


# -- checkpoints and jsonio ---------------------------------------------------


def saved_model(tmp_path):
    """A two-scale model (hidden 4, two classes) saved as a checkpoint."""
    save_checkpoint(init_model(np.random.default_rng(0), 3, 4, 2, scale_exponents=(1, 2)),
                    tmp_path / "ckpt.json")
    return load_checkpoint, {"path": tmp_path / "ckpt.json"}


def json_file(tmp_path):
    """``read_json`` of a file that fits ``SCHEMA``."""
    (tmp_path / "f.json").write_text('{"name": "a", "size": 1, "items": []}')
    return read_json, {"path": tmp_path / "f.json", "schema": SCHEMA}


def _at(*keys, value=None):
    """An edit that sets the entry at ``keys`` of a JSON file, or deletes it without ``value``."""
    def edit(payload):
        *parents, last = keys
        for key in parents:
            payload = payload[key]
        if value is None:
            del payload[last]
        else:
            payload[last] = value
    return edited_json(edit)


def _text(text):
    return lambda kwargs: kwargs["path"].write_text(text)


NOT_AN_ARRAY = "{tmp}/ckpt.json: parameter 'decoder.w' must be a rectangular array of JSON numbers"
CHECKPOINTS = {
    **rows(saved_model, ValueError, {
        "foreign-format": (_text('{"format": "something-else", "version": 1}'),
                           "not a model checkpoint: {tmp}/ckpt.json"),
        "unsupported-version": (_at("version", value=999),
                                "{tmp}/ckpt.json: unsupported checkpoint version 999"),
        **{name: (_at("params", "decoder.w", value=value), NOT_AN_ARRAY)
           for name, value in (("ragged", [[1.0, 2.0], [3.0]]), ("string", "abc"),
                               ("booleans", [[True] * 4] * 2),
                               ("nan-param", [[1.0, 2.0, float("nan"), 4.0]] * 2))},
        "huge-hidden": (_at("config", "hidden_dim", value=10 ** 7), "{tmp}/ckpt.json: parameter "
                        "'attention.b_a' has shape (4,), expected (10000000,)"),
        "param-shape": (_at("params", "decoder.w", value=[[0.0] * 4]),
                        "{tmp}/ckpt.json: parameter 'decoder.w' has shape (1, 4), expected (2, 4)"),
        "param-missing": (_at("params", "scales.0.f"),
                          "{tmp}/ckpt.json: missing parameter 'scales.0.f'"),
        "param-unknown": (_at("params", "scales.2.f", value=[[0.0] * 4] * 4),
                          "{tmp}/ckpt.json: unknown parameter 'scales.2.f'"),
        "gamma": (_at("config", "scales", 0, "gamma", value=1.5),
                  "{tmp}/ckpt.json: gamma must lie in [0, 1), got 1.5"),
        "repeated-scales": (_at("config", "scales", 1, "m", value=1), "{tmp}/ckpt.json: scale "
                            "exponents must be pairwise distinct, got [1, 1]"),
        "multilabel-graph-task": (
            edited_json(lambda p: p["config"].update(task="graph", multilabel=True)),
            "{tmp}/ckpt.json: a graph task has one class per graph; it cannot be multilabel"),
    }),
    **rows(saved_model, DataFormatError, {
        "not-json": (_text("not json"), "{tmp}/ckpt.json: invalid JSON: Expecting value"),
        "array": (_text("[]"), "{tmp}/ckpt.json: top level must be a JSON object, got []"),
        **{name: (_at(*keys, value=value), f"{{tmp}}/ckpt.json: {message}")
           for name, keys, value, message in (
               ("missing-hidden", ["config", "hidden_dim"], None,
                "missing key 'config.hidden_dim'"),
               ("missing-tol", ["config", "solver", "tol"], None,
                "missing key 'config.solver.tol'"),
               ("missing-gamma", ["config", "scales", 1, "gamma"], None,
                "missing key 'config.scales[1].gamma'"),
               ("missing-params", ["params"], None, "missing key 'params'"),
               ("dims", ["config", "encoder_dims"], 5,
                "config.encoder_dims must be a JSON array, got 5"),
               ("hidden", ["config", "hidden_dim"], "16",
                'config.hidden_dim must be a JSON integer >= 1, got "16"'),
               ("m", ["config", "scales", 0, "m"], 1.5,
                "config.scales[0].m must be a JSON integer, got 1.5"),
               ("bias", ["config", "encoder_bias"], "false",
                'config.encoder_bias must be a JSON boolean, got "false"'),
               ("solver", ["config", "solver"], [], "config.solver must be a JSON object, got []"),
               ("negative-hidden", ["config", "hidden_dim"], -2,
                "config.hidden_dim must be a JSON integer >= 1, got -2"),
               ("negative-dim", ["config", "encoder_dims"], [8, -4],
                "config.encoder_dims[1] must be a JSON integer >= 1, got -4"),
               ("zero-classes", ["config", "num_classes"], 0,
                "config.num_classes must be a JSON integer >= 1, got 0"),
               ("nan-tol", ["config", "solver", "tol"], float("nan"),
                "config.solver.tol must be a finite JSON number, got NaN"),
               ("inf-eps", ["config", "scales", 1, "eps_f"], float("inf"),
                "config.scales[1].eps_f must be a finite JSON number, got Infinity"),
               ("unknown", ["config", "hidden_size"], 4, "unknown key 'config.hidden_size'"))},
    }),
    **rows(json_file, DataFormatError, {
        **{f"json-{name}": (edited_json(lambda value, change=change: value.update(change)),
                            f"{{tmp}}/f.json: {message}")
           for name, change, message in (
               ("zero-count", {"size": 0}, "size must be a JSON integer >= 1, got 0"),
               ("float-count", {"size": 2.0}, "size must be a JSON integer >= 1, got 2.0"),
               ("bool-count", {"size": True}, "size must be a JSON integer >= 1, got true"),
               ("bool-number", {"rate": True}, "rate must be a finite JSON number, got true"),
               ("string-number", {"rate": "1"}, 'rate must be a finite JSON number, got "1"'),
               ("null", {"name": None}, "name must be a JSON string, got null"),
               ("object-for-array", {"items": {}}, "items must be a JSON array, got {}"),
               ("nested-integer", {"items": [{"m": 1}, {"m": 1.5}]},
                "items[1].m must be a JSON integer, got 1.5"),
               ("nested-boolean", {"items": [{"m": 1, "on": 1}]},
                "items[0].on must be a JSON boolean, got 1"),
               ("nested-unknown", {"items": [{"m": 1, "of": True}]}, "unknown key 'items[0].of'"),
               ("nested-missing", {"items": [{}]}, "missing key 'items[0].m'"),
               ("unknown", {"sise": 1}, "unknown key 'sise'"))},
        "json-missing": (_at("size"), "{tmp}/f.json: missing key 'size'"),
        **{f"json-{literal}": (_text(f'{{"name": "a", "size": 1, "items": [], "rate": {literal}}}'),
                               "{tmp}/f.json: rate must be a finite JSON number, got "
                               + literal.replace("1e999", "Infinity"))
           for literal in ("NaN", "Infinity", "-Infinity", "1e999")},
        **{f"json-top-level-{name}": (_text(text), f"{{tmp}}/f.json: top level must be a JSON "
                                                   f"object, got {text}")
           for name, text in (("number", "5"), ("string", '"abc"'), ("array", "[]"))},
        "json-invalid": (_text("{"), "{tmp}/f.json: invalid JSON: "),
        "json-not-utf8": (lambda kwargs: kwargs["path"].write_bytes(b'{"name": "\xff"}'),
                          "{tmp}/f.json: invalid JSON: 'utf-8' codec can't decode"),
        "json-absent": (lambda kwargs: kwargs["path"].unlink(), FileNotFoundError,
                        "No such file or directory"),
    }),
}


# -- settings objects ----------------------------------------------------------


def model_parts():
    """``MultiscaleImplicitGNN`` of a two-scale model's parts (hidden 4)."""
    model = init_model(np.random.default_rng(0), 3, 4, 2, scale_exponents=(1, 2))
    return MultiscaleImplicitGNN, dict(encoder=model.encoder, scales=model.scales,
                                       attention=model.attention,
                                       decoder_weight=model.decoder_weight)


def _out_of_range(name, values=(0.0, np.nan, np.inf, -np.inf), shown="positive and finite"):
    return {f"{name.replace('_', '-')}-{value}": ({name: value},
                                                  f"{name} must be {shown}, got {value}")
            for value in values}


INTEGER_FIELDS = {"scale-module": (ScaleModule, ["scale_m"], {"f_weight": np.eye(2)}),
                  "solver": (SolverConfig, ["max_iters"], {}),
                  "train": (TrainConfig, ["epochs", "patience", "batch_size", "seed"], {}),
                  "chains": (ChainsSpec, ["num_classes", "chains_per_class", "length", "seed"], {}),
                  "colors": (ColorCountingSpec, ["num_colors", "num_chains", "length", "seed"], {})}
NOT_INTEGERS = {"fraction": 2.5, "integral-float": 2.0, "bool": True, "numpy-bool": np.True_,
                "string": "2"}
ONE_CLASS_PER_GRAPH = "a graph task has one class per graph; it cannot be multilabel"
SETTINGS = {
    **{f"{name}-{field}-{kind}": Row(given(cls, **valid), {field: value}, ValueError,
                                     f"{field} must be an integer, got {value!r}")
       for name, (cls, fields, valid) in INTEGER_FIELDS.items() for field in fields
       for kind, value in NOT_INTEGERS.items()},
    **rows(given(ScaleModule, f_weight=np.eye(2)), ValueError, {
        "f-not-square": ({"f_weight": np.ones((2, 3))}, ShapeError, "F must be square, got (2, 3)"),
        "f-not-2d": ({"f_weight": np.ones(2)}, ShapeError,
                     "expected a 2-D dense matrix, got ndim=1"),
        "f-nan": ({"f_weight": np.diag([1.0, np.nan])}, "matrix contains NaN or Inf entries"),
        "f-complex": ({"f_weight": np.eye(2) * (1 + 1j)},
                      "dense matrix entries must be real, got dtype complex128"),
        "gamma-one": ({"gamma": 1.0}, "gamma must lie in [0, 1), got 1.0"),
        "gamma-negative": ({"gamma": -0.1}, "gamma must lie in [0, 1), got -0.1"),
        "scale-m-zero": ({"scale_m": 0}, "scale exponent must be >= 1, got 0"),
        **_out_of_range("eps_f"),
    }),
    **rows(given(SolverConfig), ValueError, {
        **_out_of_range("tol"),
        "max-iters-zero": ({"max_iters": 0}, "max_iters must be >= 1"),
    }),
    **rows(given(TrainConfig), ValueError, {
        "epochs-negative": ({"epochs": -1}, "epochs must be >= 0"),
        "train-seed-negative": ({"seed": -1}, "training seed must be >= 0, got -1"),
        **_out_of_range("lr"),
        **_out_of_range("weight_decay", (-1.0, np.nan, np.inf, -np.inf), ">= 0 and finite"),
        "patience-negative": ({"patience": -3}, "patience must be >= 0, got -3"),
        "batch-size-zero": ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    }),
    **rows(given(ChainsSpec), ValueError, {
        "chain-count-zero": ({"length": 0}, "chain spec counts must all be >= 1"),
        "chains-seed-negative": ({"seed": -1}, "chains seed must be >= 0, got -1"),
    }),
    **rows(given(ColorCountingSpec), ValueError, {
        "one-color": ({"num_colors": 1}, "need at least two colors"),
        "color-chains-zero": ({"num_chains": 0}, "chain counts must be >= 1"),
        "colored-fraction-zero": ({"colored_fraction": 0.0}, "colored_fraction must lie in (0, 1]"),
        "colors-seed-negative": ({"seed": -1}, "color-counting seed must be >= 0, got -1"),
    }),
    # Two colored nodes of 1000 colors: a tie-free draw has odds 1 in 1000.
    "no-strict-majority": Row(
        given(gen_color_counting, spec=ColorCountingSpec(num_chains=1, length=3)),
        {"spec": ColorCountingSpec(num_colors=1000, num_chains=1, length=2, colored_fraction=1)},
        GenerationError, "no strict majority color for chain 0 after 1000 resamples"),
    **rows(given(MlpEncoder, weights=[np.zeros((4, 3)), np.zeros((4, 4))],
                 biases=[np.zeros(4), np.zeros(4)]), ShapeError, {
        "encoder-no-layers": ({"weights": [], "biases": None}, ValueError,
                              "encoder needs at least one weight matrix, got 0"),
        "encoder-bias-count": ({"biases": [np.zeros(4)]},
                               "encoder needs one bias per weight matrix"),
        "encoder-layers-chain": ({"weights": [np.zeros((4, 3)), np.zeros((4, 5))]},
                                 "encoder layer 1 input dim 5 does not chain with previous "
                                 "output dim 4"),
        "encoder-bias-shape": ({"biases": [np.zeros(5), np.zeros(4)]}, "bias shape (5,) != (4,)"),
        "encoder-dropout-one": ({"dropout_rate": 1.0}, ValueError,
                                "dropout rate must lie in [0, 1)"),
    }),
    **rows(given(AttentionParams, w_a=np.zeros((4, 4)), b_a=np.zeros(4), q=np.zeros(4)),
           ShapeError, {
        "attention-w-not-a-matrix": ({"w_a": np.zeros(4)}, "W_a must be a matrix"),
        **{f"attention-{name}-short": ({name: np.zeros(3)},
                                       "attention dims do not chain: q and b_a must match W_a rows")
           for name in ("b_a", "q")},
    }),
    **rows(model_parts, ShapeError, {
        "task-unknown": ({"task": "edge"}, ValueError,
                         "task must be 'node' or 'graph', got 'edge'"),
        "multilabel-graph-task": ({"task": "graph", "multilabel": True}, ValueError,
                                  ONE_CLASS_PER_GRAPH),
        "no-scales": ({"scales": []}, ValueError, "need at least one scale module"),
        "scales-hidden-differ": ({"scales": [ScaleModule(np.eye(4)), ScaleModule(np.eye(3), 0, 2)]},
                                 "all scale modules must share the hidden dim"),
        "scales-repeated": ({"scales": [ScaleModule(np.eye(4))] * 2}, ValueError,
                            "scale exponents must be pairwise distinct, got [1, 1]"),
        "encoder-out-dim": ({"encoder": MlpEncoder([np.zeros((3, 3))])},
                            "encoder output dim 3 != hidden dim 4"),
        "attention-width": ({"attention": AttentionParams(np.zeros((8, 4)), np.zeros(8),
                                                          np.zeros(8))},
                            "attention W_a must be hidden x hidden"),
        "decoder-columns": ({"decoder_weight": np.zeros((2, 3))},
                            "decoder columns must equal the hidden dim"),
    }),
    **rows(given(init_model, rng=np.random.default_rng(0), feature_dim=3, hidden_dim=4,
                 num_classes=2), ValueError, {
        **{f"init-encoder-layers-{layers}": ({"encoder_layers": layers},
                                             f"encoder_layers must be >= 1, got {layers}")
           for layers in (0, -1)},
        "init-hidden-zero": ({"hidden_dim": 0}, "weight sizes must be positive, got 0 x 3"),
        **{f"init-scale-{value}": ({"scale_exponents": (value,)},
                                   f"scale_m must be an integer, got {value!r}")
           for value in (1.5, 2.0, True)},
        "init-scales-repeated": ({"scale_exponents": (1, 1)},
                                 "scale exponents must be pairwise distinct, got [1, 1]"),
        "init-graph-multilabel": ({"task": "graph", "multilabel": True}, ONE_CLASS_PER_GRAPH),
    }),
}


# -- call-time arguments -------------------------------------------------------


def solve(adjoint=False, directed=False):
    """A builder of a forward (or adjoint) solve on a 6-node undirected graph,
    whose S has a spectrum, or a 6-node directed cyclic one, whose S has none."""
    def build():
        rng = np.random.default_rng(4)
        s = (directed_graph(rng, [5], cyclic=True) if directed else undirected_graph(rng, [6])).s
        module, rhs = ScaleModule(rng.standard_normal((3, 3))), rng.standard_normal((3, 6))
        if adjoint:
            return adjoint_solve, dict(module=module, s=s, grad_z=rhs)
        return forward_solve, dict(module=module, injected=rhs, s=s)
    return build


def iterating(adjoint=False):
    """A Picard solve (S = I has no spectrum) whose iterates near the float range."""
    module = ScaleModule(f_weight=np.eye(2) * 10, gamma=0.9, eps_f=1e-13)
    s, rhs = numerics.as_csr(sp.eye_array(4, format="csr")), np.ones((2, 4)) * 1e300
    cfg = SolverConfig(tol=1e-30, max_iters=300)
    if adjoint:
        return given(adjoint_solve, module=module, s=s, grad_z=rhs, cfg=cfg)
    return given(forward_solve, module=module, injected=rhs, s=s, cfg=cfg)


def gradient():
    """``weight_gradient`` of a forward solve and an adjoint U of its shape."""
    call, kwargs = solve()()
    return weight_gradient, dict(module=kwargs["module"], u=np.ones((3, 6)),
                                 forward=call(**kwargs))


def _entry(bad):
    """An edit that puts ``bad`` into an entry of a copy of the right-hand side."""
    def edit(kwargs):
        key = "grad_z" if "grad_z" in kwargs else "injected"
        kwargs[key] = kwargs[key].copy()
        kwargs[key][1, 2] = bad
    return edit


def model_call(method, task="node", **extra):
    """A builder of ``method`` of a two-scale model, with its valid arguments, on a
    labelled 6-node graph (a node task) or a batch of it and a 4-node path."""
    def build():
        rng = np.random.default_rng(14)
        g = undirected_graph(rng, [6])
        g = build_graph(g.adjacency, g.features, np.arange(6) % 2)
        data = g if task == "node" else batch([g, build_graph(_path(4), np.ones((2, 4)))])
        model = init_model(rng, 2, 4, 2, scale_exponents=(1, 2), task=task, **extra)
        trace = model.forward(data)
        kwargs = {"forward": dict(data=data), "predict": dict(data=data, trace=trace),
                  "backward": dict(data=data, trace=trace, grad_logits=np.ones_like(trace.logits)),
                  "encoder": dict(x=data.features)}[method]
        return (model.encoder.forward if method == "encoder" else getattr(model, method)), kwargs
    return build


def _trace_of_a_path(task):
    """An edit that hands ``predict`` a trace of a 4-node path, one graph."""
    model = init_model(np.random.default_rng(0), 2, 4, 2, task=task)
    return {"trace": model.forward(build_graph(_path(4), np.ones((2, 4))))}


def training(task="node", classes=3, labels=(0, 1, 0)):
    """A builder of ``train_loop`` (no epochs) on a labelled path, or on six paths
    for a graph task; multi-hot ``labels`` make the model a multilabel one."""
    def build():
        make, fields = (NODE_DATA if task == "node" else GRAPH_DATA)()
        data = make(**fields)
        if task == "node":
            data = replace(data, graph=_labelled(labels))
        model = init_model(np.random.default_rng(0), 1, 2, classes, task=task,
                           multilabel=np.ndim(labels) == 2)
        return train_loop, dict(model=model, data=data, cfg=TrainConfig(epochs=0))
    return build


def _data(**changes):
    """An edit that replaces fields of the dataset (``labels`` of a node task's graph)."""
    def edit(kwargs):
        fields = dict(changes)
        if "labels" in fields and hasattr(kwargs["data"], "graph"):
            fields["graph"] = _labelled(fields.pop("labels"))
        kwargs["data"] = replace(kwargs["data"], **fields)
    return edit


def scoring():
    """``evaluate`` of a class-label model on a labelled path."""
    _, kwargs = training()()
    graph = kwargs["data"].graph
    return evaluate, dict(model=kwargs["model"], data=graph, labels=graph.labels,
                          masks=[kwargs["data"].train_mask])


def adam_step():
    params = {"w": np.zeros(3)}
    return Adam(params).step, dict(params=params, grads={"w": np.zeros(3)})


POOLED = GraphBatch(s=None, features=None, labels=None, graph_of_node=np.array([0, 0, 1, 1]),
                    num_graphs=5)
EMPTY, ALL = np.zeros(3, dtype=bool), np.ones(3, dtype=bool)
MULTI_HOT = np.eye(2)[:, [0, 1, 0]]
CALLS = {
    **rows(solve(), ShapeError, {
        "forward-injected-rows": ({"injected": np.ones((2, 6))},
                                  "forward solve: injected rows 2 != hidden dim 3"),
        "forward-injected-cols": ({"injected": np.ones((3, 5))},
                                  "forward solve: injected cols 5 != node count 6"),
        "forward-z0-shape": ({"z0": np.ones((3, 5))}, "forward solve: z0 shape (3, 5) != (3, 6)"),
        # A trailing axis of one was solved as if absent, and read no error.
        **{f"forward-injected-{len(shape)}d": (
            {"injected": np.ones(shape)},
            f"forward solve: right-hand side must be 2-D (hidden dim x nodes), got shape {shape}")
           for shape in ((3,), (3, 6, 1))},
    }),
    "adjoint-grad-z-1d": Row(solve(adjoint=True), {"grad_z": np.ones(3)}, ShapeError,
                             "adjoint solve: right-hand side must be 2-D (hidden dim x nodes), "
                             "got shape (3,)"),
    **{f"{what}-{kind}-rhs-{bad}": Row(solve(what == "adjoint", kind == "directed"), _entry(bad),
                                       DivergenceError,
                                       f"{what} solve: its right-hand side {name} is not finite")
       for what, name in (("forward", "H"), ("adjoint", "dL/dZ*"))
       for kind in ("undirected", "directed") for bad in (np.nan, np.inf, -np.inf)},
    # Training updates F in place; a finite 1e200 makes F^T F overflow.
    **{f"{what}-f-{bad}": Row(solve(what == "adjoint"),
                              lambda kwargs, bad=bad: np.put(kwargs["module"].f_weight, 1, bad),
                              DivergenceError, f"{what} solve: g(F) is not finite; check F for "
                                               "NaN, Inf or entries whose Gram matrix F^T F "
                                               "overflows")
       for what in ("forward", "adjoint") for bad in (np.nan, np.inf, -np.inf, 1e200)},
    # S = 3 I has spectral norm 3, so gamma g(F) S does not contract.
    **{f"{what}-diverges": Row(iterating(what == "adjoint"),
                               {"s": numerics.as_csr(sp.eye_array(4, format="csr") * 3.0)},
                               DivergenceError, f"{what} solve produced non-finite values at ")
       for what in ("forward", "adjoint")},
    "gradient-adjoint-shape": Row(gradient, {"u": np.ones((3, 5))}, ShapeError,
                                  "adjoint shape (3, 5) != equilibrium shape (3, 6)"),
    # The builder's forward solve made the module's shared state at the finite F.
    **{f"gradient-f-{bad}": Row(gradient,
                                lambda kwargs, bad=bad: np.put(kwargs["module"].f_weight, 1, bad),
                                DivergenceError, "weight gradient: g(F) is not finite")
       for bad in (np.nan, 1e200)},
    **rows(lambda: (oracle_solve, solve()()[1]), ShapeError, {
        "oracle-injected-shape": ({"injected": np.ones((3, 5))}, "injected shape (3, 5) != (3, 6)"),
        "oracle-capacity": ({"module": ScaleModule(np.eye(64), 0.5), "injected": np.zeros((64, 65)),
                             "s": numerics.as_csr(sp.eye_array(65, format="csr"))},
                            CapacityError, "oracle system has 4160 unknowns, above the 4096 guard"),
    }),
    **rows(given(cross_entropy, logits=np.zeros((2, 3)), labels=np.zeros(3, int), mask=ALL),
           ShapeError, {
        "cross-entropy-empty-mask": ({"mask": EMPTY}, EmptySelectionError,
                                     "cross-entropy mask selects no nodes"),
        "cross-entropy-node-count": ({"labels": np.zeros(2, int)},
                                     "logits, labels and mask disagree on node count"),
    }),
    **rows(given(bce_with_logits, logits=np.zeros((2, 3)), labels=np.zeros((2, 3)), mask=ALL),
           ShapeError, {
        "bce-empty-mask": ({"mask": EMPTY}, EmptySelectionError, "BCE mask selects no nodes"),
        "bce-shapes": ({"labels": np.zeros((2, 2))},
                       "logits/labels must be (classes, nodes) matching the mask"),
    }),
    "accuracy-empty-mask": Row(given(accuracy, preds=np.arange(3), labels=np.arange(3), mask=ALL),
                               {"mask": EMPTY}, EmptySelectionError,
                               "accuracy mask selects no nodes"),
    "micro-f1-empty-mask": Row(given(micro_f1, preds=np.eye(3), labels=np.eye(3), mask=ALL),
                               {"mask": EMPTY}, EmptySelectionError,
                               "micro-F1 mask selects no nodes"),
    "adam-grad-shape": Row(adam_step, {"grads": {"w": np.zeros(2)}}, ShapeError,
                           "grad shape (2,) != param shape (3,) for w"),
    **rows(given(sum_pool, z=np.zeros((2, 4)), batch=POOLED), IndexError, {
        "sum-pool-columns": ({"z": np.zeros((2, 3))}, ShapeError,
                             "z has 3 columns but the batch has 4 nodes"),
        "sum-pool-1d": ({"z": np.zeros(4)}, ShapeError,
                        "z must be 2-D (hidden dim x nodes), got shape (4,)"),
        **{f"sum-pool-graph-{graph}": (
            {"batch": replace(POOLED, graph_of_node=np.array([0, 0, graph, 0]))},
            f"node 2 is in graph {graph}, outside the batch's 5 graphs") for graph in (5, -1)},
    }),
    "encoder-features": Row(model_call("encoder"), {"x": np.ones((3, 6))}, ShapeError,
                            "encoder expects 2 features, got 3"),
    "dropout-without-rng": Row(model_call("forward", dropout=0.5), {"train_mode": True},
                               ValueError, "dropout in train mode needs an rng"),
    "backward-grad-shape": Row(model_call("backward"), {"grad_logits": np.ones((2, 5))},
                               ShapeError, "grad_logits shape (2, 5) != logits (2, 6)"),
    "predict-another-inputs-trace": Row(model_call("predict"), _trace_of_a_path("node"),
                                        ShapeError, "trace has logits for 4 columns, data has 6"),
    "predict-another-batchs-trace": Row(model_call("predict", "graph"), _trace_of_a_path("graph"),
                                        ShapeError, "trace has logits for 1 columns, data has 2"),
    **{f"{task}-{split}-split-empty": Row(
        training(task), _data(**{f"{split}_mask": np.zeros(3 if task == "node" else 6, bool)}),
        EmptySelectionError, f"{split} split selects no {task}s")
       for task in ("node", "graph") for split in ("train", "val")},
    **rows(training(), ShapeError, {
        "train-class-labels": ({"model": init_model(np.random.default_rng(0), 1, 2, 3,
                                                    multilabel=True)},
                               "the data has class labels, but the model predicts multi-hot "
                               "labels"),
        "train-multi-hot-labels": (_data(labels=MULTI_HOT), "the data has multi-hot labels, "
                                                            "but the model predicts class labels"),
    }),
    "label-beyond-classes": Row(training(classes=2), _data(labels=[0, 1, 2]), ShapeError,
                                "largest label 2 names a class the model lacks: it has 2 classes"),
    "graph-label-beyond-classes": Row(training("graph"), _data(labels=np.arange(6) % 3 * 2),
                                      ShapeError, "largest label 4 names a class the model lacks: "
                                                  "it has 3 classes"),
    "multi-hot-rows": Row(training(classes=2, labels=MULTI_HOT), _data(labels=np.eye(3)),
                          ShapeError, "labels have 3 multi-hot rows, but the model has 2 classes"),
    "evaluate-multi-hot-labels": Row(scoring, {"labels": MULTI_HOT}, ShapeError,
                                     "the data has multi-hot labels, but the model predicts "
                                     "class labels"),
    # Unequal lengths raised numpy's IndexError from the boolean index.
    "evaluate-mask-length": Row(scoring, {"masks": [np.ones(4, dtype=bool)]}, ShapeError,
                                "accuracy: predictions, labels and mask have 3, 3 and 4 columns"),
    "accuracy-labels-length": Row(given(accuracy, preds=np.arange(3), labels=np.arange(3),
                                        mask=ALL), {"labels": np.arange(2)}, ShapeError,
                                  "accuracy: predictions, labels and mask have 3, 2 and 3 "
                                  "columns"),
    "micro-f1-mask-length": Row(given(micro_f1, preds=np.eye(3), labels=np.eye(3), mask=ALL),
                                {"mask": np.ones(2, dtype=bool)}, ShapeError,
                                "micro-F1: predictions, labels and mask have 3, 3 and 2 columns"),
    "decay-node-out-of-range": Row(
        given(measure_decay, module=ScaleModule(np.eye(1), 0.5), encode=lambda x: x, p=0,
              graph=gen_chains(ChainsSpec(num_classes=1, chains_per_class=1, length=5)).graph),
        {"p": 99}, IndexError, "perturbed node 99 out of range for 5 nodes"),
    "hop-node-out-of-range": Row(given(hop_distance, g=_labelled(), p=0), {"p": 3}, IndexError,
                                 "source node 3 out of range for 3 nodes"),
    **rows(given(range_bound, gamma=0.5, theta=1e-6, scale_m=1), DomainError, {
        "bound-gamma-zero": ({"gamma": 0.0}, "gamma must lie in (0, 1), got 0.0"),
        "bound-theta-zero": ({"theta": 0.0}, "theta must lie in (0, 1), got 0.0"),
        "bound-theta-above-one": ({"theta": 1.5}, "theta must lie in (0, 1), got 1.5"),
        "bound-scale-zero": ({"scale_m": 0}, "scale m must be >= 1"),
    }),
    "exact-bound-scale-negative": Row(given(range_bound_exact, gamma=0.5, theta=1e-6),
                                      {"scale_m": -2}, DomainError, "scale m must be >= 1"),
    "empirical-range-theta-zero": Row(
        given(empirical_range, theta=1e-6, curve=DecayCurve(
            hops=np.arange(3), measured=np.ones(3), bound=np.ones(3), gamma=0.5, scale_m=1)),
        {"theta": 0.0}, DomainError, "theta must be positive"),
    "spmm-inner-dimensions": Row(given(numerics.spmm_right, z=np.zeros((2, 3)), s=_path()),
                                 {"z": np.zeros((2, 4))}, ShapeError,
                                 "spmm_right: inner dimensions differ, (2, 4) x (3, 3)"),
    "num-classes-without-labels": Row(given(lambda graph: graph.num_classes, graph=_labelled()),
                                      {"graph": build_graph(_path(), np.ones((1, 3)))},
                                      ValueError, "graph has no labels"),
}


# -- CLI flags, config files and exit codes -------------------------------------


def cli(argv, setup=None, call=main):
    """A builder of ``main`` on ``argv``, which may name ``{data}``, a saved
    chains dataset, ``{ckpt}``, a checkpoint of an untrained model for it,
    ``{out}``, an output directory, and ``{tmp}``, the row's directory, which
    ``setup(tmp_path)`` fills further first."""
    def build(tmp_path):
        if "{data}" in argv:
            save_dataset(CHAINS, tmp_path / "data")
        if "{ckpt}" in argv:
            save_checkpoint(init_model(np.random.default_rng(0), 2, 4, 2), tmp_path / "ckpt.json")
        if setup is not None:
            setup(tmp_path)
        return call, {"argv": argv.format(data=tmp_path / "data", ckpt=tmp_path / "ckpt.json",
                                          out=tmp_path / "out", tmp=tmp_path).split()}
    return build


def without_out_dir(argv):
    """``main(argv)`` with ``$MSIGNN_OUT_DIR`` unset."""
    with mock.patch.dict(os.environ):
        os.environ.pop(OUT_DIR_ENV, None)
        return main(argv)


def _in(name, edit):
    """A CLI row's setup that edits the JSON file ``name`` in the row's directory."""
    return lambda tmp_path: edited_json(edit)({"path": tmp_path / name})


def _multi_hot(tmp_path):
    """Multi-hot labels, and a checkpoint from before the ``multilabel`` field."""
    saved_chains(tmp_path, multi_hot=True)
    _in("ckpt.json", lambda payload: payload["config"].pop("multilabel"))(tmp_path)


def _config(text):
    return lambda tmp_path: (tmp_path / "cfg.json").write_text(text)


CLI = {rule: Row(cli(*argv) if isinstance(argv, tuple) else cli(argv), {}, code, fragment)
       for rule, (argv, code, fragment) in {
    "usage-unknown-command": ("no-such-command", EXIT_USAGE, "invalid choice: 'no-such-command'"),
    "usage-no-command": ("", EXIT_USAGE, "the following arguments are required: command"),
    "io-error": (("gen-chains --length 3 --out {tmp}/blocked/sub",
                  lambda tmp_path: (tmp_path / "blocked").write_text("a file")),
                 EXIT_IO, "error: io: "),
    "divergence": (("eval --checkpoint {ckpt} --data {data}", _in(
        "ckpt.json", lambda payload: payload["params"]["scales.0.f"][0].__setitem__(0, 1e200))),
                   EXIT_DIVERGED, "error: divergence: forward solve: g(F) is not finite; check "
                                  "F for NaN, Inf or entries whose Gram matrix F^T F overflows\n"),
    "bound-gamma-above-one": ("bound --gamma 1.5 --theta 1e-6", EXIT_DATA,
                              "error: gamma must lie in (0, 1), got 1.5"),
    "no-out-dir": (("gen-chains --length 3", None, without_out_dir), EXIT_DATA,
                   f"error: no output directory: pass --out or set ${OUT_DIR_ENV}"),
    "bad-scale-list": ("train --data {data} --scales 1,x --out {out}", EXIT_DATA,
                       "error: bad scale list: '1,x'"),
    "empty-gamma-list": ("probe-range --gammas , --out {out}", EXIT_DATA,
                         "error: empty gamma list"),
    "probe-gamma-twice": ("probe-range --gammas 0.5,0.7,0.5 --length 10 --out {out}", EXIT_DATA,
                          "error: gamma 0.5 is listed twice"),
    "probe-scale-twice": ("probe-range --scales 2,1,2 --length 10 --out {out}", EXIT_DATA,
                          "error: scale 2 is listed twice"),
    "gen-chains-too-small": ("gen-chains --classes 1 --chains-per-class 1 --length 2 --out {out}",
                             EXIT_DATA, "error: a generated dataset needs at least 3 nodes to "
                                        "split into train, val and test, got n=2"),
    "gen-colors-too-small": ("gen-colors --chains 1 --length 1 --out {out}", EXIT_DATA,
                             "needs at least 3 nodes to split into train, val and test, got n=1"),
    "train-without-data": ("train --epochs 0 --out {out}", EXIT_DATA,
                           "error: train needs --data DIR"),
    "eval-without-checkpoint": ("eval --data {data}", EXIT_DATA,
                                "error: eval needs --checkpoint FILE and --data DIR"),
    "eval-graph-task-checkpoint": (("eval --checkpoint {tmp}/graph.json --data {data}",
                                    lambda tmp_path: save_checkpoint(init_model(
                                        np.random.default_rng(0), 2, 4, 2, task="graph"),
                                        tmp_path / "graph.json")),
                                   EXIT_DATA, "{tmp}/graph.json: checkpoint of a graph-task model; "
                                              "eval scores node-task models"),
    "eval-checkpoint-predates-multilabel": (("eval --checkpoint {ckpt} --data {data}", _multi_hot),
                                            EXIT_DATA, "ckpt.json: the data has multi-hot "
                                                       "labels, but the checkpoint predates its "
                                                       '"multilabel"'),
    "bound-without-theta": ("bound --gamma 0.5", EXIT_DATA,
                            "error: bound needs --gamma and --theta"),
    # Each flag reaches its setting, whose own rule names the flag's value.
    **{f"train-{flag}-{value}": (f"train --data {{data}} --{flag} {value} --out {{out}}",
                                 EXIT_DATA, f"error: {message}\n")
       for flag, value, message in (
           ("patience", "-3", "patience must be >= 0, got -3"),
           ("wd", "-1", "weight_decay must be >= 0 and finite, got -1.0"),
           ("wd", "inf", "weight_decay must be >= 0 and finite, got inf"),
           ("tol", "nan", "tol must be positive and finite, got nan"),
           ("lr", "nan", "lr must be positive and finite, got nan"),
           ("eps-f", "inf", "eps_f must be positive and finite, got inf"),
           ("hidden", "0", "weight sizes must be positive, got 0 x 2"),
           ("encoder-layers", "0", "encoder_layers must be >= 1, got 0"),
           ("encoder-layers", "-1", "encoder_layers must be >= 1, got -1"),
           ("scales", "1,1", "scale exponents must be pairwise distinct, got [1, 1]"))},
    "probe-range-hidden-0": ("probe-range --hidden 0 --out {out}", EXIT_DATA,
                             "error: weight sizes must be positive, got 0 x 1\n"),
    # train reads its split from the sidecar; eval hands the data to the checkpoint's model.
    "train-split-empty": (("train --data {data} --out {out}",
                           _in("data/masks.json", lambda sidecar: sidecar.update(train=[]))),
                          EXIT_DATA, "error: train split selects no nodes\n"),
    "eval-features-mismatch": (("eval --checkpoint {tmp}/wide.json --data {data}",
                                lambda tmp_path: save_checkpoint(init_model(
                                    np.random.default_rng(0), 3, 4, 2), tmp_path / "wide.json")),
                               EXIT_DATA, "error: encoder expects 3 features, got 2\n"),
    **{f"config-{name}": ((f"{command} --config {{tmp}}/cfg.json --out {{out}}", _config(text)),
                          EXIT_DATA, f"{{tmp}}/cfg.json: {message}")
       for name, command, text, message in (
           ("unknown-key", "gen-chains", '{"lenght": 6}', "unknown key 'lenght'"),
           ("invalid-json", "train", "{", "invalid JSON: "),
           ("not-an-object", "train", "[1, 2]", "top level must be a JSON object, got [1, 2]"),
           ("nan", "train", '{"tol": NaN}', "tol must be a finite JSON number, got NaN"))},
    **{f"config-{command}-{key}-{value}": ((f"{command} --config {{tmp}}/cfg.json",
                                            _config(json.dumps({key: value}))), EXIT_DATA,
                                           f"{{tmp}}/cfg.json: {key} must be a {kind}, "
                                           f"got {json.dumps(value)}")
       for command, key, value, kind in (
           ("train", "hidden", 2.5, "JSON integer"), ("train", "epochs", 1.5, "JSON integer"),
           ("train", "hidden", "4", "JSON integer"), ("train", "gamma", True, "finite JSON number"),
           ("train", "encoder_bias", "false", "JSON boolean"),
           ("train", "scales", 1, "JSON string"),
           ("gen-colors", "fraction", "0.5", "finite JSON number"),
           ("bound", "gamma", None, "finite JSON number"))},
}.items()}
TABLES = {"FILES": FILES, "DATASETS": DATASETS, "GRAPHS": GRAPHS, "CHECKPOINTS": CHECKPOINTS,
          "SETTINGS": SETTINGS, "CALLS": CALLS, "CLI": CLI}


@pytest.mark.parametrize("table", TABLES)
def test_builders_are_accepted(table, tmp_path):
    for k, build in enumerate({row.build: None for row in TABLES[table].values()}):
        call, kwargs = build(directory(tmp_path, str(k))) if takes_directory(build) else build()
        if table != "CLI":  # a CLI builder's argv is the rejected input itself
            call(**kwargs)


# -- former one-rule tests ------------------------------------------------------


# The tests of one rule each that became rows keep their names in their
# modules: module -> test -> its row, its rows (a list), or {parameter id:
# row or rows} for a parametrized one. A row runs under each former test
# that names it; the table tests below run the others.
FORMER = {
    "test_datasets": {
        "test_load_graph_reports_line_numbers": FILES["edge-field-count"],
        "test_load_graph_rejects_dangling_ids": FILES["edge-id-out-of-range"],
        "test_load_multihot_labels_rejects_ragged_rows": FILES["multi-hot-ragged"],
        "test_load_graph_names_the_line_of_a_non_finite_field": {name: FILES[name] for name in (
            "features-nan", "features-inf", "multi-hot-nan", "multi-hot-overflow")},
        "test_load_labels_names_the_line_of_a_bad_label": {
            "0,1\n1,-1\n-labels\\.csv:2: negative label -1": FILES["label-negative"],
            "0,1\n1,0\n0,2\n-labels\\.csv:3: node 0 labelled twice": FILES["label-twice"]},
        "test_load_dataset_rejects_a_mask_entry_that_is_not_an_integer": {
            "ids0": FILES["mask-entry-float"], "ids1": FILES["mask-entry-boolean"],
            "0": FILES["mask-not-an-array"]},
        "test_load_dataset_rejects_overlapping_masks": FILES["masks-overlap"],
        "test_load_dataset_names_missing_sidecar_key": {
            key: FILES[f"sidecar-missing-{key}"] for key in ("directed", "train", "val", "test")},
        "test_load_dataset_rejects_a_misspelled_sidecar_key": FILES["sidecar-unknown-key"],
        "test_load_dataset_rejects_a_mask_index_out_of_range": {
            "ids0": FILES["mask-index-negative"], "ids1": FILES["mask-index-past-the-end"],
            "ids2": FILES["mask-index-huge"]},
        "test_load_dataset_requires_boolean_sidecar_flags": {
            "directed-false": FILES["sidecar-directed-string"],
            "directed-0": FILES["sidecar-directed-zero"],
            "multilabel-true": FILES["sidecar-multilabel-string"],
            "multilabel-None": FILES["sidecar-multilabel-null"]},
        "test_graph_dataset_rejects_a_negative_label": DATASETS["graph-label-negative"],
        "test_graph_dataset_rejects_a_float_label": DATASETS["graph-label-float"],
        "test_graph_dataset_needs_one_label_per_graph": {
            "short": DATASETS["graph-labels-short"], "matrix": DATASETS["graph-labels-matrix"]},
        "test_graph_dataset_rejects_overlapping_masks": DATASETS["graph-masks-overlap"],
        "test_graph_dataset_rejects_a_mask_shorter_than_the_graph_list":
            DATASETS["graph-mask-short"],
        "test_node_dataset_rejects_overlapping_masks": DATASETS["node-masks-overlap"],
        "test_node_dataset_rejects_a_mask_shorter_than_the_graph": DATASETS["node-mask-short"],
        "test_node_dataset_rejects_a_graph_without_labels": DATASETS["node-without-labels"],
    },
    "test_graph": {
        "test_normalize_rejects_non_square": GRAPHS["adjacency-not-square"],
        "test_hop_distance_out_of_range": CALLS["hop-node-out-of-range"],
        "test_batch_rejects_mixed_feature_dims": GRAPHS["batch-feature-dims"],
        "test_build_graph_rejects_asymmetric_undirected": GRAPHS["asymmetric"],
        "test_build_graph_rejects_negative_weights_naming_the_first": {
            "False": GRAPHS["negative-weight-undirected"],
            "True": GRAPHS["negative-weight-directed"]},
        "test_build_graph_rejects_a_negative_class_label": GRAPHS["label-negative"],
    },
    "test_numerics": {
        "test_spmm_shape_error": CALLS["spmm-inner-dimensions"],
        "test_as_dense_rejects_nonfinite": GRAPHS["features-nan"],
        "test_as_csr_rejects_column_out_of_range": {
            name: GRAPHS[f"csr-column-{name}"] for name in ("too-large", "negative")},
        "test_as_csr_rejects_nonfinite": {
            bad: GRAPHS[f"csr-value-{bad}"] for bad in ("nan", "inf", "-inf")},
        "test_as_csr_rejects_a_matrix_that_is_not_2d": GRAPHS["adjacency-not-2d"],
    },
    "test_jsonio": {
        "test_read_json_names_the_file_and_key_of_a_misfit": {name: CHECKPOINTS[f"json-{name}"]
                                                              for name in (
            "zero-count", "float-count", "bool-count", "bool-number", "string-number", "null",
            "object-for-array", "nested-integer", "nested-boolean", "nested-unknown",
            "nested-missing", "unknown")},
        "test_read_json_names_a_missing_required_key": CHECKPOINTS["json-missing"],
        "test_read_json_rejects_a_number_that_is_not_finite": {
            literal: CHECKPOINTS[f"json-{literal}"]
            for literal in ("NaN", "Infinity", "-Infinity", "1e999")},
        "test_read_json_rejects_a_file_that_is_no_object": {
            "{-invalid JSON": CHECKPOINTS["json-invalid"],
            "5-top level must be a JSON object, got 5": CHECKPOINTS["json-top-level-number"],
            '"abc"-top level must be a JSON object, got "abc"':
                CHECKPOINTS["json-top-level-string"],
            r"[]-top level must be a JSON object, got \[\]": CHECKPOINTS["json-top-level-array"]},
        "test_read_json_rejects_bytes_that_are_not_utf8": CHECKPOINTS["json-not-utf8"],
        "test_read_json_reports_a_missing_file_as_os_error": CHECKPOINTS["json-absent"],
    },
    "test_equilibrium": {
        "test_nonfinite_right_hand_side_is_named": {
            f"{kind}-{bad}": [CALLS[f"{what}-{kind}-rhs-{bad}"] for what in ("forward", "adjoint")]
            for kind in ("undirected", "directed") for bad in ("nan", "inf", "-inf")},
        "test_nonfinite_f_is_named": {
            name: [CALLS[f"{what}-f-{bad}"] for what in ("forward", "adjoint")]
            for name, bad in (("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                              ("gram-overflow", "1e+200"))},
        "test_oracle_capacity_guard": CALLS["oracle-capacity"],
    },
    "test_model": {
        "test_duplicate_scales_rejected_by_default": SETTINGS["init-scales-repeated"],
        "test_a_scale_exponent_that_is_not_an_integer_is_rejected": {
            bad: SETTINGS[f"init-scale-{bad}"] for bad in ("1.5", "2.0", "True")},
        "test_a_graph_task_cannot_be_multilabel": SETTINGS["init-graph-multilabel"],
        "test_encoder_shape_validation": [SETTINGS[rule] for rule in (
            "encoder-layers-chain", "encoder-bias-shape", "attention-b_a-short")],
        "test_attention_width_is_the_hidden_dim": SETTINGS["attention-width"],
        "test_checkpoint_rejects_foreign_payloads": [CHECKPOINTS["foreign-format"],
                                                     CHECKPOINTS["unsupported-version"]],
        "test_checkpoint_that_is_no_json_object_names_the_file": {
            name: CHECKPOINTS[name] for name in ("not-json", "array")},
        "test_checkpoint_rejects_repeated_scales": CHECKPOINTS["repeated-scales"],
        "test_checkpoint_rejects_params_its_config_does_not_imply": [CHECKPOINTS[rule] for rule in (
            "param-shape", "param-missing", "param-unknown")],
        "test_checkpoint_names_a_missing_config_key": [CHECKPOINTS[rule] for rule in (
            "missing-hidden", "missing-tol", "missing-gamma", "missing-params")],
        "test_checkpoint_names_a_malformed_value": {name: CHECKPOINTS[name] for name in (
            "dims", "hidden", "m", "bias", "solver", "gamma", "negative-hidden", "negative-dim",
            "zero-classes", "nan-tol", "inf-eps", "unknown", "ragged", "string", "booleans",
            "nan-param", "huge-hidden")},
    },
    "test_probe": {
        "test_measure_decay_rejects_bad_node": CALLS["decay-node-out-of-range"],
        "test_range_bound_domain_errors": [CALLS[rule] for rule in (
            "bound-gamma-zero", "bound-theta-zero", "bound-theta-above-one", "bound-scale-zero",
            "exact-bound-scale-negative")],
    },
    "test_train": {
        "test_cross_entropy_empty_mask": CALLS["cross-entropy-empty-mask"],
        "test_graph_labels_naming_a_class_the_model_lacks_are_named_before_any_epoch":
            CALLS["graph-label-beyond-classes"],
        "test_train_config_rejects_out_of_range_fields": {
            "epochs--1": SETTINGS["epochs-negative"], "lr-0.0": SETTINGS["lr-0.0"],
            "weight_decay--1.0": SETTINGS["weight-decay--1.0"],
            "patience--3": SETTINGS["patience-negative"],
            "batch_size-0": SETTINGS["batch-size-zero"]},
        "test_train_config_rejects_a_negative_seed": SETTINGS["train-seed-negative"],
        "test_settings_that_are_not_finite_are_rejected": {
            f"{name}-{value}": SETTINGS[f"{name.replace('_', '-')}-{value}"]
            for name in ("tol", "lr", "weight_decay", "eps_f") for value in ("nan", "inf", "-inf")},
    },
    "test_cli": {
        "test_usage_error_exit_code": [CLI["usage-unknown-command"], CLI["usage-no-command"]],
        "test_io_error_exit_code": CLI["io-error"],
        "test_bound_domain_error_exit_code": CLI["bound-gamma-above-one"],
        "test_missing_out_dir_is_data_error": CLI["no-out-dir"],
        "test_train_without_data_is_data_error": CLI["train-without-data"],
        "test_eval_rejects_a_graph_task_checkpoint": CLI["eval-graph-task-checkpoint"],
        "test_config_file_unknown_key_rejected": CLI["config-unknown-key"],
        "test_config_value_of_the_wrong_json_type_is_data_error": {name: CLI[f"config-{name}"]
                                                                   for name in (
            "train-hidden-2.5", "train-epochs-1.5", "train-hidden-4", "train-encoder_bias-false",
            "train-gamma-True", "train-scales-1", "gen-colors-fraction-0.5", "bound-gamma-None")},
        # The files eval and --config read; the rows of eval's two run load_checkpoint
        # and load_dataset, whose errors the CLI maps as it maps those of --config.
        "test_every_json_file_rejects_the_same_malformed_input": {
            f"{which}-{malformed}": table[rule] for which, table, rules in (
                ("checkpoint", CHECKPOINTS, ["not-json", "array", "nan-tol", "unknown"]),
                ("sidecar", FILES, ["sidecar-invalid-json", "sidecar-top-level-array",
                                    "mask-entry-nan", "sidecar-unknown-key"]),
                ("config", CLI, ["config-invalid-json", "config-not-an-object", "config-nan",
                                 "config-unknown-key"]))
            for malformed, rule in zip(("invalid-json", "not-an-object", "nan", "unknown-key"),
                                       rules)},
        "test_eval_on_an_edited_checkpoint": {"oversized": CHECKPOINTS["huge-hidden"],
                                              "diverging": CLI["divergence"]},
        "test_eval_on_malformed_dataset_is_data_error": [FILES["masks-overlap"],
                                                         FILES["multi-hot-ragged"]],
        "test_eval_on_a_malformed_checkpoint_value_is_data_error": {
            "encoder_dims-5": CHECKPOINTS["dims"], "hidden_dim-16": CHECKPOINTS["hidden"]},
        "test_eval_on_a_sidecar_that_is_not_an_object_is_data_error": {
            "5": FILES["sidecar-top-level-number"], '"abc"': FILES["sidecar-top-level-string"],
            "[]": FILES["sidecar-top-level-array"]},
        "test_eval_on_mismatched_features_is_data_error": CLI["eval-features-mismatch"],
        "test_train_names_an_empty_train_split": CLI["train-split-empty"],
        "test_train_rejects_duplicate_scales": CLI["train-scales-1,1"],
        "test_zero_model_size_is_data_error": {
            "train---encoder-layers-at least one layer, got 0": CLI["train-encoder-layers-0"],
            "train---hidden-got 0 x": CLI["train-hidden-0"],
            "probe-range---hidden-got 0 x": CLI["probe-range-hidden-0"]},
        "test_train_names_a_negative_encoder_layer_count": CLI["train-encoder-layers--1"],
        "test_train_rejects_negative_settings": {
            "--patience--3-patience must be >= 0": CLI["train-patience--3"],
            "--wd--1-weight_decay must be >= 0": CLI["train-wd--1"],
            "--wd-inf-weight_decay must be >= 0 and finite, got inf": CLI["train-wd-inf"],
            "--tol-nan-tol must be positive and finite, got nan": CLI["train-tol-nan"],
            "--lr-nan-lr must be positive and finite, got nan": CLI["train-lr-nan"],
            "--eps-f-inf-eps_f must be positive and finite, got inf": CLI["train-eps-f-inf"]},
    },
}


def _cases(rows):
    """The rows of each case of a former test: one list, or one per parameter id."""
    cases = rows.values() if isinstance(rows, dict) else [rows]
    return [case if isinstance(case, list) else [case] for case in cases]


def former_tests(module):
    """The former tests of ``module``, by name, to put in its namespace."""
    def former(rows):
        def test(case, request):
            for k, row in enumerate(case):
                rejects(row, request, str(k))
        if isinstance(rows, dict):
            return pytest.mark.parametrize("case", _cases(rows), ids=list(rows))(test)
        return lambda request: test(_cases(rows)[0], request)

    return {name: former(rows) for name, rows in FORMER[module].items()}


RUN_BY_FORMER = {id(row) for tests in FORMER.values() for rows in tests.values()
                 for case in _cases(rows) for row in case}


def _table(table):
    @pytest.mark.parametrize("rule", [rule for rule, row in table.items()
                                      if id(row) not in RUN_BY_FORMER])
    def test(rule, request):
        rejects(table[rule], request)
    return test


# test_files, test_graphs, ...: one test per table with rows that no former test runs.
globals().update({f"test_{name.lower()}": _table(table) for name, table in TABLES.items()
                  if not {id(row) for row in table.values()} <= RUN_BY_FORMER})
