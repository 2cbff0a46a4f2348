import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from msignn import (ChainsSpec, ColorCountingSpec, Dataset, build_graph, gen_chains,
                    gen_color_counting, load_dataset, load_graph, save_dataset)
from msignn.errors import DataFormatError


def test_chains_default_counts():
    ds = gen_chains(ChainsSpec(length=10))
    g = ds.graph
    assert g.n == 400
    # 40 directed chains (20 per class, 2 classes) of 10 nodes: 9 edges each
    assert g.adjacency.nnz == 40 * 9
    assert int(ds.train_mask.sum()) == 20
    assert int(ds.val_mask.sum()) == 40
    assert int(ds.test_mask.sum()) == 340


def test_chains_length_one_degenerate():
    ds = gen_chains(ChainsSpec(length=1))
    assert ds.graph.n == 40
    assert ds.graph.adjacency.nnz == 0
    # every node is its own chain start and carries a feature
    assert np.count_nonzero(ds.graph.features.sum(axis=0)) == 40


def test_chains_feature_columns_only_on_starts():
    spec = ChainsSpec(num_classes=3, chains_per_class=4, length=6, seed=1)
    ds = gen_chains(spec)
    nonzero_cols = np.flatnonzero(ds.graph.features.sum(axis=0))
    expected_starts = np.arange(12) * 6
    npt.assert_array_equal(nonzero_cols, expected_starts)
    assert len(nonzero_cols) == spec.num_classes * spec.chains_per_class
    # each start column is a one-hot of the chain's class
    for c, col in enumerate(nonzero_cols):
        chain_class = c // spec.chains_per_class
        assert ds.graph.features[chain_class, col] == 1.0
        assert ds.graph.features[:, col].sum() == 1.0
        assert ds.graph.labels[col] == chain_class


def test_chains_are_simple_directed_paths():
    ds = gen_chains(ChainsSpec(length=7, seed=2))
    a = ds.graph.adjacency
    out_deg = np.asarray(a.sum(axis=1)).ravel()
    in_deg = np.asarray(a.sum(axis=0)).ravel()
    assert out_deg.max() <= 1 and in_deg.max() <= 1
    # no cross-chain edges: src and dst always lie in the same chain
    coo = a.tocoo()
    assert np.all(coo.row // 7 == coo.col // 7)


def test_chains_split_partitions_nodes():
    ds = gen_chains(ChainsSpec(length=13, seed=3))
    total = (ds.train_mask.astype(int) + ds.val_mask.astype(int)
             + ds.test_mask.astype(int))
    npt.assert_array_equal(total, np.ones(ds.graph.n, dtype=int))
    n = ds.graph.n
    assert abs(ds.train_mask.sum() - 0.05 * n) <= 1
    assert abs(ds.val_mask.sum() - 0.10 * n) <= 1


def test_chains_deterministic_per_seed():
    a = gen_chains(ChainsSpec(length=9, seed=5))
    b = gen_chains(ChainsSpec(length=9, seed=5))
    npt.assert_array_equal(a.graph.features, b.graph.features)
    npt.assert_array_equal(a.train_mask, b.train_mask)
    npt.assert_array_equal(a.graph.s.toarray(), b.graph.s.toarray())
    c = gen_chains(ChainsSpec(length=9, seed=6))
    assert not np.array_equal(a.train_mask, c.train_mask)


def test_color_counting_single_full_chain():
    # 1 chain, fraction 1.0: every node colored; strict majority enforced
    ds = gen_color_counting(ColorCountingSpec(num_colors=2, num_chains=1,
                                              length=5, colored_fraction=1.0,
                                              seed=0))
    g = ds.graph
    counts = g.features.sum(axis=1)
    majority = int(np.argmax(counts))
    assert counts[majority] > counts.sum() - counts[majority]
    npt.assert_array_equal(g.labels, np.full(5, majority))


def test_color_counting_majority_recount_oracle():
    spec = ColorCountingSpec(seed=4)
    ds = gen_color_counting(spec)
    g = ds.graph
    for c in range(spec.num_chains):
        cols = slice(c * spec.length, (c + 1) * spec.length)
        counts = g.features[:, cols].sum(axis=1)
        top = counts.max()
        assert np.sum(counts == top) == 1  # strict majority
        assert np.all(g.labels[cols] == np.argmax(counts))
        # colored node count matches the fraction
        assert int(g.features[:, cols].sum()) == round(spec.colored_fraction * spec.length)


def test_color_counting_undirected_chain_structure():
    spec = ColorCountingSpec(num_chains=3, length=4, seed=1)
    ds = gen_color_counting(spec)
    a = ds.graph.adjacency.toarray()
    npt.assert_array_equal(a, a.T)
    deg = a.sum(axis=1)
    assert deg.max() <= 2  # path graph


def test_color_counting_deterministic():
    a = gen_color_counting(ColorCountingSpec(seed=9))
    b = gen_color_counting(ColorCountingSpec(seed=9))
    npt.assert_array_equal(a.graph.features, b.graph.features)
    npt.assert_array_equal(a.graph.labels, b.graph.labels)


def _assert_round_trip(ds, tmp_path):
    """What ``load_dataset`` reads back equals, field for field, what was saved."""
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    npt.assert_array_equal(back.graph.adjacency.toarray(), ds.graph.adjacency.toarray())
    for attr in ("indptr", "indices", "data"):
        npt.assert_array_equal(getattr(back.graph.s, attr), getattr(ds.graph.s, attr))
    npt.assert_array_equal(back.graph.features, ds.graph.features)
    npt.assert_array_equal(back.graph.labels, ds.graph.labels)
    npt.assert_array_equal(back.train_mask, ds.train_mask)
    npt.assert_array_equal(back.val_mask, ds.val_mask)
    npt.assert_array_equal(back.test_mask, ds.test_mask)
    assert back.graph.directed == ds.graph.directed


def test_save_load_round_trip(tmp_path):
    _assert_round_trip(gen_chains(ChainsSpec(length=6, seed=7)), tmp_path)


def test_save_load_round_trip_undirected(tmp_path):
    _assert_round_trip(gen_color_counting(ColorCountingSpec(num_chains=4, length=5, seed=2)),
                       tmp_path)


def test_save_load_round_trip_empty_edge_list(tmp_path):
    ds = gen_chains(ChainsSpec(length=1))
    _assert_round_trip(ds, tmp_path)
    assert (tmp_path / "edges.tsv").read_text() == ""


def test_save_load_round_trip_multihot(tmp_path):
    ds = gen_color_counting(ColorCountingSpec(num_chains=4, length=5, seed=2))
    g = ds.graph
    multi_hot = np.random.default_rng(3).integers(0, 2, size=(3, g.n)).astype(float)
    ds = replace(ds, graph=build_graph(g.adjacency, g.features, multi_hot, directed=False))
    assert ds.graph.multilabel
    _assert_round_trip(ds, tmp_path)


def test_save_load_round_trip_drops_stored_zeros(tmp_path):
    # the path 0 - 1 on three nodes, with zeros stored at (1, 2) and (2, 1)
    a = sp.csr_array((np.array([1.0, 1.0, 0.0, 0.0]), ([0, 1, 1, 2], [1, 0, 2, 1])),
                     shape=(3, 3))
    graph = build_graph(a, np.eye(3), np.array([0, 1, 0]))
    mask = np.array([True, False, False])
    ds = Dataset(graph=graph, train_mask=mask, val_mask=np.roll(mask, 1),
                 test_mask=np.roll(mask, 2), spec_echo={})
    _assert_round_trip(ds, tmp_path)
    assert (tmp_path / "edges.tsv").read_text() == "0\t1\n1\t0\n"


def test_load_graph_two_nodes(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\n")
    (tmp_path / "features.csv").write_text("1.0,0.0\n0.0,1.0\n")
    g = load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv", directed=True)
    assert g.n == 2
    assert g.adjacency.nnz == 1
    npt.assert_array_equal(g.features, np.eye(2))


def test_load_graph_deduplicates_edges(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\n0\t1\n1\t0\n")
    (tmp_path / "features.csv").write_text("1.0\n2.0\n")
    g = load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv", directed=False)
    assert g.adjacency.nnz == 2  # one symmetric edge
    assert g.adjacency.data.max() == 1.0


def test_load_graph_reports_line_numbers(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\nbroken\n")
    (tmp_path / "features.csv").write_text("1.0\n2.0\n")
    with pytest.raises(DataFormatError, match="edges.tsv:2"):
        load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv")


def test_load_graph_rejects_dangling_ids(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t5\n")
    (tmp_path / "features.csv").write_text("1.0\n2.0\n")
    with pytest.raises(DataFormatError, match="out of range"):
        load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv")


def test_load_multihot_labels(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t0\n")
    (tmp_path / "features.csv").write_text("1.0\n2.0\n")
    (tmp_path / "labels.csv").write_text("1,0,1\n0,1,1\n")
    g = load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv",
                   tmp_path / "labels.csv", multilabel=True)
    assert g.multilabel
    npt.assert_array_equal(g.labels, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def test_load_multihot_labels_rejects_ragged_rows(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t0\n")
    (tmp_path / "features.csv").write_text("1.0\n2.0\n")
    (tmp_path / "labels.csv").write_text("1,0,1\n0,1\n")
    with pytest.raises(DataFormatError, match="labels.csv:2"):
        load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv",
                   tmp_path / "labels.csv", multilabel=True)


def test_load_dataset_rejects_overlapping_masks(tmp_path):
    save_dataset(gen_chains(ChainsSpec(length=3)), tmp_path)
    sidecar = json.loads((tmp_path / "masks.json").read_text())
    sidecar["test"].append(sidecar["train"][0])
    (tmp_path / "masks.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataFormatError, match=r"masks\.json: train and test masks overlap"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("key", ["directed", "train", "val", "test"])
def test_load_dataset_names_missing_sidecar_key(tmp_path, key):
    save_dataset(gen_chains(ChainsSpec(length=3)), tmp_path)
    sidecar = json.loads((tmp_path / "masks.json").read_text())
    del sidecar[key]
    (tmp_path / "masks.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataFormatError, match=rf"masks\.json: missing key '{key}'"):
        load_dataset(tmp_path)
