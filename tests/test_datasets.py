import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from msignn import (ChainsSpec, ColorCountingSpec, Dataset, GraphDataset, build_graph,
                    gen_chains, gen_color_counting, load_dataset, load_graph, save_dataset)

from conftest import consecutive_splits, random_undirected_graph, relabelled


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


def test_small_splits_are_never_empty_and_large_ones_keep_their_sizes():
    for n in range(3, 11):
        ds = gen_color_counting(ColorCountingSpec(num_chains=1, length=n, seed=n))
        sizes = [int(m.sum()) for m in (ds.train_mask, ds.val_mask, ds.test_mask)]
        assert min(sizes) >= 1 and sum(sizes) == n
    for n in (11, 13, 20, 30, 100):
        ds = gen_color_counting(ColorCountingSpec(num_chains=1, length=n, seed=n))
        assert int(ds.train_mask.sum()) == round(0.05 * n)
        assert int(ds.val_mask.sum()) == round(0.10 * n)


def test_chains_deterministic_per_seed():
    a = gen_chains(ChainsSpec(length=9, seed=5))
    b = gen_chains(ChainsSpec(length=9, seed=5))
    npt.assert_array_equal(a.graph.features, b.graph.features)
    npt.assert_array_equal(a.train_mask, b.train_mask)
    npt.assert_array_equal(a.graph.s.toarray(), b.graph.s.toarray())
    c = gen_chains(ChainsSpec(length=9, seed=6))
    assert not np.array_equal(a.train_mask, c.train_mask)


@pytest.mark.parametrize("spec, field", [
    (ChainsSpec, "num_classes"), (ChainsSpec, "chains_per_class"), (ChainsSpec, "length"),
    (ChainsSpec, "seed"), (ColorCountingSpec, "num_colors"), (ColorCountingSpec, "num_chains"),
    (ColorCountingSpec, "length"), (ColorCountingSpec, "seed"),
])
def test_generator_spec_counts_and_seed_take_integers_only(spec, field):
    # Other values are rows of test_rejections.SETTINGS.
    value = getattr(spec(**{field: np.int64(4)}), field)
    assert value == 4 and type(value) is int


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
    multi_hot = np.random.default_rng(3).integers(0, 2, size=(3, ds.graph.n)).astype(float)
    ds = relabelled(ds, multi_hot)
    assert ds.graph.multilabel
    _assert_round_trip(ds, tmp_path)


def test_save_load_round_trip_drops_stored_zeros(tmp_path):
    # the path 0 - 1 on three nodes, with zeros stored at (1, 2) and (2, 1)
    a = sp.csr_array((np.array([1.0, 1.0, 0.0, 0.0]), ([0, 1, 1, 2], [1, 0, 2, 1])),
                     shape=(3, 3))
    graph = build_graph(a, np.eye(3), np.array([0, 1, 0]))
    ds = Dataset(graph=graph, spec_echo={}, **consecutive_splits(1, 1, 1))
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


def test_load_multihot_labels(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t0\n")
    (tmp_path / "features.csv").write_text("1.0\n2.0\n")
    (tmp_path / "labels.csv").write_text("1,0,1\n0,1,1\n")
    g = load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv",
                   tmp_path / "labels.csv", multilabel=True)
    assert g.multilabel
    npt.assert_array_equal(g.labels, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def test_save_dataset_refuses_edge_weights(tmp_path):
    # edges.tsv holds src<TAB>dst only: reloading would give every edge weight 1.
    a = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    ds = Dataset(graph=build_graph(a, np.ones((1, 3)), np.zeros(3, dtype=int)), spec_echo={},
                 **consecutive_splits(1, 1, 1))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has weight 2\.0"):
        save_dataset(ds, out)
    assert not out.exists()


def _graph_dataset(**changes):
    """Six graphs, two per split, with valid labels; ``changes`` replace fields."""
    rng = np.random.default_rng(0)
    fields = dict(graphs=[random_undirected_graph(rng, 3) for _ in range(6)],
                  labels=np.array([0, 1, 2, 0, 1, 2]), **consecutive_splits(2, 2, 2))
    return GraphDataset(**{**fields, **changes})


def test_graph_dataset_stores_integral_labels_as_int64():
    data = _graph_dataset(labels=[0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
    assert data.labels.dtype == np.int64
    npt.assert_array_equal(data.labels, [0, 1, 2, 0, 1, 2])


def test_load_dataset_needs_no_optional_sidecar_key(tmp_path):
    save_dataset(gen_chains(ChainsSpec(length=3)), tmp_path)
    sidecar = json.loads((tmp_path / "masks.json").read_text())
    del sidecar["multilabel"], sidecar["spec"]
    (tmp_path / "masks.json").write_text(json.dumps(sidecar))
    ds = load_dataset(tmp_path)
    assert not ds.graph.multilabel and ds.spec_echo == {}
    assert ds.train_mask.sum() == len(sidecar["train"])


# SHA-256 of each generated array, dtype and shape included, recorded from
# the generators before their loops were vectorized: any change to seeded
# data, or to the RNG calls that make it, shows here.
GOLDEN_DIGESTS = {
    "colors-default": (gen_color_counting, ColorCountingSpec(), {
        "features": "66190a06ffa3e020b3ed080f07ccc5c9c952e7abc61d2870ccae531fbc87c00d",
        "labels": "59952d5953d72c3fee31bbef6cdf87c1c2b8aed9b06d37f9b97629f82eacf6f9",
        "s.data": "bf942e87569341744e12cc59fa1aaa29a701e5dae71b69e1130e496841c9491f",
        "s.indices": "05ecbcede675d7aa78465aca9cfe3b529a0489711d83266841fe94fb7a700372",
        "s.indptr": "06da30977328e7ab4ab18cfe182895ca41ec7548574d1c7119ff8d8a5bff4df2",
        "train_mask": "078bea3577fe110cd64c6989cff7207f3be45f68f7c1ce6ebe343b92549a1333",
        "val_mask": "419ceb34fc2fdcb17b4c4d7de50f992078ca31458002cf1552e925cc82725c39",
        "test_mask": "9207fd1aa34d8b04879583de25ab822f5a886443b1c227d3164d55b70615199e",
    }),
    "colors-320x30-seed3": (gen_color_counting,
                            ColorCountingSpec(num_chains=320, length=30, seed=3), {
        "features": "b89276300de9dfe232280109f306bc07e1272db9f6a1c3c524339b2af733b20f",
        "labels": "32cd36cd697bf3045f6d6ffe474dd674d3281b98feda041e6134acc2fed527bc",
        "s.data": "07e88160316f7e88dbac02fcdad5113082c69a83bf2c4a4fd4534269f75b17d9",
        "s.indices": "96848ff25a3af73b1a98c0cb32f3542bbd7d1df5e837e396c04391197384d24b",
        "s.indptr": "3cdc3bc3719bb247a541ce6b6d36f537ebbe8bdecfad6be74de4f25da665f833",
        "train_mask": "2d42e9b60fca77ca0c24069c8e2cac0e037685985a3f48af8875048d4a6da9f2",
        "val_mask": "91ebeb369fe3fa0dbab15fe368977e95b16012dab3b44d5b344f59a8c2beb24d",
        "test_mask": "d02abec9c6d1771fda585c81bcf99785c54e231eba8d0e7c805b0301886a9ad7",
    }),
    "chains-default": (gen_chains, ChainsSpec(), {
        "features": "8ef9b92f73f8b811b398b0b269e32c2b08f5609de28b24b57f5c6e13817b3487",
        "labels": "b955188f0b98a6fe1d3e1915b19ca6ee30d39fb2639e6bc6546c695cf2c09ad4",
        "s.data": "128e2c581ac0e1f9c0fed9397153c9d23694aaa3fd968608a185ec8045eba6b5",
        "s.indices": "6c8be8a183bc1916d1725c2752fe7b0b23148c5b5a3e037ea78b237a1f232195",
        "s.indptr": "f4b56a4f9fbbc4c191961aeacf2c270b8181d0eef41afc5541e5a5309f02f1aa",
        "train_mask": "e681a2644e0a9ede400071dbbf21227887dc6e61f8ed85ea70355fcfb7b11db0",
        "val_mask": "f350055f032941e84c61dbe386f493f1824ee29fd0fc5fdbfa1812c8e021d169",
        "test_mask": "6dfae8ff18400a3e12b8dd5055e056a2017b170924e877dbf6af8694fbddc6bc",
    }),
}


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_generated_data_matches_its_golden_digests(name):
    generate, spec, expected = GOLDEN_DIGESTS[name]
    ds = generate(spec)
    g = ds.graph
    arrays = {"features": g.features, "labels": g.labels, "s.data": g.s.data,
              "s.indices": g.s.indices, "s.indptr": g.s.indptr,
              "train_mask": ds.train_mask, "val_mask": ds.val_mask, "test_mask": ds.test_mask}
    assert {key: _digest(a) for key, a in arrays.items()} == expected
