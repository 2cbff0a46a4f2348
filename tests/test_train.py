from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import msignn.graph
import msignn.train
from msignn import (Adam, ChainsSpec, ColorCountingSpec, SolverConfig, TrainConfig, accuracy,
                    batch, bce_with_logits, build_graph, cross_entropy, gen_chains,
                    gen_color_counting, history_to_csv, init_model, micro_f1, train_loop)
from msignn.errors import EmptySelectionError, ShapeError
from msignn.model import MultiscaleImplicitGNN
from msignn.train import HISTORY_COLUMNS, evaluate

from conftest import random_undirected_graph
from test_rejections import former_tests


def test_cross_entropy_uniform_logits():
    logits = np.zeros((2, 1))
    loss, grad = cross_entropy(logits, np.array([0]), np.array([True]))
    assert loss == pytest.approx(np.log(2.0))
    npt.assert_allclose(grad, [[-0.5], [0.5]], atol=1e-15)


def test_cross_entropy_confident_correct():
    logits = np.array([[50.0], [-50.0]])
    loss, _ = cross_entropy(logits, np.array([0]), np.array([True]))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_hand_case():
    # 3 nodes, 2 classes: logits chosen for easy hand evaluation
    logits = np.array([[np.log(3.0), 0.0, 0.0],
                       [0.0, 0.0, np.log(1.0)]])
    labels = np.array([0, 1, 0])
    mask = np.ones(3, dtype=bool)
    loss, grad = cross_entropy(logits, labels, mask)
    expected = -(np.log(3.0 / 4.0) + np.log(1.0 / 2.0) + np.log(1.0 / 2.0)) / 3.0
    assert loss == pytest.approx(expected, rel=1e-12)
    # gradient columns sum to zero for softmax CE
    npt.assert_allclose(grad.sum(axis=0), np.zeros(3), atol=1e-15)


def test_cross_entropy_masked_nodes_do_not_leak():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((3, 6))
    labels = rng.integers(0, 3, 6)
    mask = np.array([True, False, True, False, True, False])
    loss_a, grad_a = cross_entropy(logits, labels, mask)
    flipped = labels.copy()
    flipped[1] = (flipped[1] + 1) % 3  # perturb a non-masked label
    loss_b, grad_b = cross_entropy(logits, flipped, mask)
    assert loss_a == loss_b
    npt.assert_array_equal(grad_a, grad_b)
    npt.assert_array_equal(grad_a[:, ~mask], np.zeros((3, 3)))


def test_bce_logit_zero_label_one():
    loss, _ = bce_with_logits(np.zeros((1, 1)), np.ones((1, 1)), np.array([True]))
    assert loss == pytest.approx(np.log(2.0))


def test_bce_hand_cases():
    logits = np.array([[1.0, -2.0]])
    labels = np.array([[1.0, 0.0]])
    mask = np.ones(2, dtype=bool)
    loss, grad = bce_with_logits(logits, labels, mask)
    expected = (np.log1p(np.exp(-1.0)) + np.log1p(np.exp(-2.0))) / 2.0
    assert loss == pytest.approx(expected, rel=1e-12)
    sig = 1.0 / (1.0 + np.exp(-logits))
    npt.assert_allclose(grad, (sig - labels) / 2.0, atol=1e-15)


def test_bce_is_exact_at_saturated_logits():
    # e^800 overflows; the loss and the sigmoid in the gradient saturate instead.
    logits, labels = np.array([[-800.0, 800.0, 3.0]]), np.array([[0.0, 1.0, 1.0]])
    loss, grad = bce_with_logits(logits, labels, np.ones(3, dtype=bool))
    assert loss == np.log1p(np.exp(-3.0)) / 3
    npt.assert_array_equal(grad, [[0.0, 0.0, (1.0 / (1.0 + np.exp(-3.0)) - 1.0) / 3]])


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((4, 5))
    labels = (rng.random((4, 5)) < 0.5).astype(float)
    mask = rng.random(5) < 0.7
    mask[0] = True
    _, grad = bce_with_logits(logits, labels, mask)
    step = 1e-6
    for i in range(4):
        for j in range(5):
            lp = logits.copy(); lp[i, j] += step
            lm = logits.copy(); lm[i, j] -= step
            num = (bce_with_logits(lp, labels, mask)[0]
                   - bce_with_logits(lm, labels, mask)[0]) / (2 * step)
            assert grad[i, j] == pytest.approx(num, abs=1e-8)


def test_adam_single_step_hand_value():
    params = {"w": np.zeros(1)}
    grads = {"w": np.ones(1)}
    opt = Adam(params, lr=0.1)
    opt.step(params, grads)
    # m_hat = v_hat = 1 after bias correction: update = -0.1 / (1 + 1e-8)
    assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_zero_grad_no_motion():
    params = {"w": np.array([1.0, -2.0])}
    opt = Adam(params, lr=0.5, weight_decay=0.0)
    opt.step(params, {"w": np.zeros(2)})
    npt.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_weight_decay_skips_biases():
    params = {"layer.w": np.array([1.0]), "layer.b0": np.array([1.0])}
    opt = Adam(params, lr=0.1, weight_decay=0.1)
    opt.step(params, {"layer.w": np.zeros(1), "layer.b0": np.zeros(1)})
    assert params["layer.b0"][0] == 1.0     # no decay on biases
    assert params["layer.w"][0] < 1.0       # decayed


def test_adam_descent_direction():
    # one Adam step on a fixed quadratic batch should rarely increase the loss
    rng = np.random.default_rng(2)
    wins = 0
    for _ in range(100):
        target = rng.standard_normal(4)
        w = rng.standard_normal(4)
        params = {"w": w}
        opt = Adam(params, lr=1e-3)
        loss_before = float(np.sum((w - target) ** 2))
        opt.step(params, {"w": 2.0 * (w - target)})
        loss_after = float(np.sum((params["w"] - target) ** 2))
        wins += loss_after <= loss_before
    assert wins >= 95


def test_metrics_values():
    preds = np.array([0, 1, 1, 0])
    labels = np.array([0, 1, 0, 0])
    mask = np.ones(4, dtype=bool)
    assert accuracy(preds, labels, mask) == 0.75
    assert accuracy(labels, labels, mask) == 1.0
    assert accuracy(1 - labels, labels, mask) == 0.0


def test_micro_f1_hand_counts():
    # TP=2, FP=1, FN=1 -> micro-F1 = 2*2 / (2*2 + 1 + 1) = 2/3
    preds = np.array([[1, 1, 1, 0]])
    labels = np.array([[1, 1, 0, 1]])
    mask = np.ones(4, dtype=bool)
    assert micro_f1(preds, labels, mask) == pytest.approx(2.0 / 3.0)
    assert micro_f1(labels, labels, mask) == 1.0


@pytest.mark.parametrize("field", ["epochs", "patience", "batch_size", "seed"])
def test_train_config_integer_fields_take_integers_only(field):
    # Other values are rows of test_rejections.SETTINGS.
    value = getattr(TrainConfig(**{field: np.int64(3)}), field)
    assert value == 3 and type(value) is int


def test_train_loop_zero_epochs_is_noop():
    rng = np.random.default_rng(3)
    ds = gen_chains(ChainsSpec(length=3, seed=0))
    model = init_model(rng, ds.graph.feature_dim, 4, 2)
    before = {k: v.copy() for k, v in model.parameters().items()}
    history = train_loop(model, ds, TrainConfig(epochs=0))
    assert history == []
    for k, v in model.parameters().items():
        npt.assert_array_equal(v, before[k])


def test_train_loop_chains_reaches_full_train_accuracy():
    ds = gen_chains(ChainsSpec(length=10, seed=0))
    rng = np.random.default_rng(0)
    model = init_model(rng, ds.graph.feature_dim, 16, 2, scale_exponents=(1,),
                       solver_cfg=SolverConfig(tol=1e-6, max_iters=300))
    history = train_loop(model, ds, TrainConfig(epochs=200, lr=0.05, seed=0, patience=200))
    assert history[-1]["train_acc"] == 1.0 or \
        max(h["train_acc"] for h in history) == 1.0


def test_train_loop_loss_decreases_on_toy():
    # near-convex toy: single linear encoder layer, gamma=0, tiny lr
    rng = np.random.default_rng(4)
    g = random_undirected_graph(rng, 12, num_classes=2)
    from msignn.datasets import Dataset
    masks = [np.arange(12) // 4 == k for k in range(3)]
    ds = Dataset(graph=g, train_mask=masks[0], val_mask=masks[1], test_mask=masks[2],
                 spec_echo={})
    model = init_model(rng, g.feature_dim, 4, 2, scale_exponents=(1,),
                       gamma=0.0, encoder_layers=1)
    history = train_loop(model, ds, TrainConfig(epochs=3, lr=1e-3, seed=0))
    assert history[1]["train_loss"] <= history[0]["train_loss"]


def test_train_loop_deterministic():
    ds = gen_chains(ChainsSpec(length=5, seed=1))

    def run():
        rng = np.random.default_rng(7)
        model = init_model(rng, ds.graph.feature_dim, 8, 2, dropout=0.3)
        hist = train_loop(model, ds, TrainConfig(epochs=5, lr=0.05, seed=7))
        return hist, {k: v.copy() for k, v in model.parameters().items()}

    hist_a, params_a = run()
    hist_b, params_b = run()
    for ra, rb in zip(hist_a, hist_b):
        assert ra["train_loss"] == rb["train_loss"]
        assert ra["val_acc"] == rb["val_acc"]
    for k in params_a:
        npt.assert_array_equal(params_a[k], params_b[k])


def test_train_loop_graph_task():
    rng = np.random.default_rng(5)
    graphs = [random_undirected_graph(rng, int(rng.integers(3, 6)), num_classes=2)
              for _ in range(8)]
    labels = np.array([0, 1] * 4)
    from msignn.datasets import GraphDataset
    data = GraphDataset(graphs=graphs, labels=labels,
                        train_mask=np.array([True] * 6 + [False] * 2),
                        val_mask=np.array([False] * 6 + [True, False]),
                        test_mask=np.array([False] * 7 + [True]))

    def run():
        model = init_model(np.random.default_rng(1), graphs[0].feature_dim, 4, 2,
                           scale_exponents=(1,), task="graph")
        hist = train_loop(model, data, TrainConfig(epochs=4, lr=0.01, seed=1,
                                                   batch_size=3))
        return hist

    hist_a, hist_b = run(), run()
    assert len(hist_a) == 4
    assert all("iters_per_scale" in row for row in hist_a)
    for ra, rb in zip(hist_a, hist_b):
        assert ra["train_loss"] == rb["train_loss"]  # deterministic


def test_history_csv_layout(tmp_path):
    history = [{"epoch": 1, "train_loss": 0.5, "train_acc": 0.75, "val_acc": 0.5,
                "iters_per_scale": "12;13", "seconds": 0.01}]
    path = tmp_path / "history.csv"
    history_to_csv(history, path)
    assert b"\r" not in path.read_bytes()  # LF line ends, as every file written
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == 0.5
    assert fields[4] == "12;13"


def _node_problem():
    ds = gen_chains(ChainsSpec(length=4, seed=0))
    cfg = dict(lr=0.2, seed=0)
    return ds, (lambda: init_model(np.random.default_rng(0), ds.graph.feature_dim, 4, 2,
                                   scale_exponents=(1,))), cfg


def _graph_problem():
    rng = np.random.default_rng(5)
    graphs = [random_undirected_graph(rng, int(rng.integers(3, 6)), num_classes=2)
              for _ in range(10)]
    from msignn.datasets import GraphDataset
    data = GraphDataset(graphs=graphs, labels=np.array([0, 1] * 5),
                        train_mask=np.array([True] * 6 + [False] * 4),
                        val_mask=np.array([False] * 6 + [True] * 3 + [False]),
                        test_mask=np.array([False] * 9 + [True]))
    cfg = dict(lr=0.1, seed=3, batch_size=3)
    return data, (lambda: init_model(np.random.default_rng(1), graphs[0].feature_dim, 4, 2,
                                     scale_exponents=(1,), task="graph")), cfg


PROBLEMS = {"node": _node_problem, "graph": _graph_problem}
EPOCHS = 30


@pytest.mark.parametrize("task", sorted(PROBLEMS))
def test_train_loop_stops_after_patience_stale_epochs(task):
    data, make_model, cfg = PROBLEMS[task]()
    full = train_loop(make_model(), data, TrainConfig(epochs=EPOCHS, patience=EPOCHS, **cfg))
    patience = 3
    best_val, stale, stop = -np.inf, 0, None
    for row in full:
        if row["val_acc"] > best_val:
            best_val, stale = row["val_acc"], 0
        else:
            stale += 1
            if stale > patience:
                stop = row["epoch"]
                break
    assert stop is not None and stop < EPOCHS
    short = train_loop(make_model(), data, TrainConfig(epochs=EPOCHS, patience=patience,
                                                       **cfg))
    assert len(short) == stop
    assert [r["train_loss"] for r in short] == [r["train_loss"] for r in full[:stop]]


@pytest.mark.parametrize("task", sorted(PROBLEMS))
def test_train_loop_restores_best_epoch_weights(task):
    data, make_model, cfg = PROBLEMS[task]()
    model = make_model()
    history = train_loop(model, data, TrainConfig(epochs=EPOCHS, patience=EPOCHS, **cfg))
    keys = [(row["val_acc"], -row["train_loss"]) for row in history]
    best_epoch = keys.index(max(keys)) + 1
    # the best validation metric is reached before best_epoch, which wins the
    # tie on train loss, and training goes on past it
    assert keys.index(max(keys)) > [v for v, _ in keys].index(max(keys)[0])
    assert best_epoch < len(history)

    def weights_after(epochs):
        reference = make_model()
        train_loop(reference, data, TrainConfig(epochs=epochs, patience=EPOCHS, **cfg))
        return reference.parameters()

    restored = model.parameters()
    at_best = weights_after(best_epoch)
    for name, value in restored.items():
        npt.assert_array_equal(value, at_best[name])
    before_best = weights_after(best_epoch - 1)
    assert any(not np.array_equal(value, before_best[name])
               for name, value in restored.items())


@pytest.mark.parametrize("task", sorted(PROBLEMS))
@pytest.mark.parametrize("split", ["train", "val"])
def test_an_empty_split_is_named_before_any_epoch(monkeypatch, task, split):
    data, make_model, cfg = PROBLEMS[task]()
    data = replace(data, **{f"{split}_mask": np.zeros_like(data.train_mask)})
    forwards = []
    monkeypatch.setattr(MultiscaleImplicitGNN, "forward",
                        lambda *args, **kwargs: forwards.append(args))
    unit = "graphs" if task == "graph" else "nodes"
    with pytest.raises(EmptySelectionError, match=f"^{split} split selects no {unit}$"):
        train_loop(make_model(), data, TrainConfig(epochs=3, **cfg))
    assert forwards == []


def _three_colors(kind):
    """A 3-color node dataset, its labels int classes or a 3-row multi-hot matrix."""
    ds = gen_color_counting(ColorCountingSpec(num_colors=3, num_chains=6, length=5, seed=0))
    if kind == "multi-hot":
        g = ds.graph
        multi_hot = (np.arange(3)[:, None] == g.labels).astype(float)
        ds = replace(ds, graph=build_graph(g.adjacency, g.features, multi_hot))
    return ds


@pytest.mark.parametrize("kind, shown", [
    ("class", "largest label 2 names a class the model lacks: it has 2 classes"),
    ("multi-hot", "labels have 3 multi-hot rows, but the model has 2 classes")],
    ids=["class", "multi-hot"])
def test_labels_naming_a_class_the_model_lacks_are_named_before_any_epoch(
        monkeypatch, kind, shown):
    ds = _three_colors(kind)
    model = init_model(np.random.default_rng(0), ds.graph.feature_dim, 4, 2,
                       multilabel=kind == "multi-hot")
    forwards = []
    monkeypatch.setattr(MultiscaleImplicitGNN, "forward",
                        lambda *args, **kwargs: forwards.append(args))
    with pytest.raises(ShapeError, match=f"^{shown}$"):
        train_loop(model, ds, TrainConfig(epochs=3))
    assert forwards == []


@pytest.mark.parametrize("kind, shown", [
    ("class", "the data has class labels, but the model predicts multi-hot labels"),
    ("multi-hot", "the data has multi-hot labels, but the model predicts class labels")],
    ids=["class", "multi-hot"])
def test_labels_of_the_other_kind_are_named_before_any_epoch(monkeypatch, kind, shown):
    ds = _three_colors(kind)
    model = init_model(np.random.default_rng(0), ds.graph.feature_dim, 4, 3,
                       multilabel=kind == "class")
    forwards = []
    monkeypatch.setattr(MultiscaleImplicitGNN, "forward",
                        lambda *args, **kwargs: forwards.append(args))
    with pytest.raises(ShapeError, match=f"^{shown}$"):
        train_loop(model, ds, TrainConfig(epochs=3))
    assert forwards == []
    g = ds.graph
    with pytest.raises(ShapeError, match=f"^{shown}$"):
        evaluate(model, g, g.labels, [ds.train_mask])


def test_graph_task_merges_each_evaluation_split_once(monkeypatch):
    data, make_model, cfg = _graph_problem()
    train_ids = {id(data.graphs[i]) for i in np.flatnonzero(data.train_mask)}
    merges, predicts = [], []
    merge, predict = msignn.train.batch_graphs, MultiscaleImplicitGNN.predict

    def counting_merge(graphs):
        merges.append({id(g) for g in graphs})
        return merge(graphs)

    def counting_predict(model, data, trace=None):
        predicts.append(data.num_graphs)
        return predict(model, data, trace)

    monkeypatch.setattr(msignn.train, "batch_graphs", counting_merge)
    monkeypatch.setattr(MultiscaleImplicitGNN, "predict", counting_predict)
    epochs = 5
    history = train_loop(make_model(), data, TrainConfig(epochs=epochs, patience=epochs, **cfg))
    assert len(history) == epochs
    # training minibatches are proper subsets of the training split
    minibatches = [ids for ids in merges if ids < train_ids]
    assert len(minibatches) == 2 * epochs
    assert len(merges) - len(minibatches) == 2
    # still one evaluation forward per split per epoch
    assert predicts == [6, 3] * epochs


def test_graph_task_decomposes_each_evaluation_split_and_test_batch_once(monkeypatch):
    data, make_model, cfg = _graph_problem()
    sizes = []
    decompose = msignn.graph._decompose
    monkeypatch.setattr(msignn.graph, "_decompose",
                        lambda s: sizes.append(s.shape[0]) or decompose(s))
    model = make_model()
    assert cfg["batch_size"] < data.train_mask.sum()
    train_loop(model, data, TrainConfig(epochs=3, patience=3, **cfg))
    test = batch([data.graphs[i] for i in np.flatnonzero(data.test_mask)])
    npt.assert_array_equal(model.predict(test), model.predict(test))

    def nodes(mask):
        return sum(data.graphs[i].n for i in np.flatnonzero(mask))

    # The evaluation batches and the test batch hold only pending members, so
    # each decomposes its own S; minibatches and the repeat predict stack or
    # reuse blocks already made.
    assert sizes == [nodes(data.train_mask), nodes(data.val_mask), nodes(data.test_mask)]


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_node_task_without_dropout_runs_one_forward_per_epoch(monkeypatch, dropout):
    ds = gen_chains(ChainsSpec(length=4, seed=0))
    forwards, predicts = [], []
    forward, predict = MultiscaleImplicitGNN._forward, MultiscaleImplicitGNN.predict

    def counting_forward(model, data, train_mode, rng, keep):
        forwards.append((train_mode, keep))
        return forward(model, data, train_mode, rng, keep)

    def counting_predict(model, data, trace=None):
        predicts.append(trace is None)
        return predict(model, data, trace)

    # Both the public forward and predict's inference forward run _forward.
    monkeypatch.setattr(MultiscaleImplicitGNN, "_forward", counting_forward)
    monkeypatch.setattr(MultiscaleImplicitGNN, "predict", counting_predict)
    model = init_model(np.random.default_rng(0), ds.graph.feature_dim, 4, 2,
                       scale_exponents=(1, 2), dropout=dropout)
    epochs = 5
    history = train_loop(model, ds, TrainConfig(epochs=epochs, lr=0.1, patience=epochs))
    assert len(history) == epochs and len(predicts) == epochs
    step, evaluation, inference = (True, True), (False, True), (False, False)
    if dropout:
        # each step draws its own dropout masks, and each predict runs an inference forward
        assert forwards == [step, inference] * epochs and all(predicts)
    else:
        # only the first step runs a forward; each later one starts from the evaluation's
        assert forwards == [step] + [evaluation] * epochs and not any(predicts)


def _reference_loop(model, data, cfg):
    """A fresh train-mode forward per step, then ``evaluate``; no early stop.

    Returns the history rows without wall times, and the parameters of the
    epoch ``train_loop`` keeps: the first with the highest (val, -loss).
    """
    graph, masks = data.graph, (data.train_mask, data.val_mask)
    loss_fn = bce_with_logits if graph.multilabel else cross_entropy
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rows, snapshots = [], []
    for epoch in range(1, cfg.epochs + 1):
        trace = model.forward(graph, train_mode=True, rng=rng)
        loss, grad_logits = loss_fn(trace.logits, graph.labels, data.train_mask)
        opt.step(params, model.backward(graph, trace, grad_logits))
        train_metric, val_metric = evaluate(model, graph, graph.labels, masks)
        rows.append({"epoch": epoch, "train_loss": loss, "train_acc": train_metric,
                     "val_acc": val_metric, "iters_per_scale": ";".join(
                         str(r.iterations) for r in trace.scale_results)})
        snapshots.append({k: v.copy() for k, v in params.items()})
    keys = [(row["val_acc"], -row["train_loss"]) for row in rows]
    return rows, snapshots[keys.index(max(keys))]


def _colors(multi_hot):
    ds = gen_color_counting(ColorCountingSpec(num_chains=6, length=8, seed=2))
    if multi_hot:
        g = ds.graph
        labels = np.random.default_rng(3).integers(0, 2, size=(3, g.n)).astype(float)
        ds = replace(ds, graph=build_graph(g.adjacency, g.features, labels))
    return ds


@pytest.mark.parametrize("multi_hot", [False, True], ids=["cross_entropy", "bce"])
def test_reused_evaluation_forward_trains_bit_identically(multi_hot):
    ds = _colors(multi_hot)
    epochs = 8
    cfg = TrainConfig(epochs=epochs, lr=0.05, weight_decay=1e-3, seed=4, patience=epochs)

    def make_model():
        return init_model(np.random.default_rng(5), ds.graph.feature_dim, 6,
                          ds.graph.num_classes, scale_exponents=(1, 3), gamma=0.9,
                          multilabel=multi_hot)

    model = make_model()
    history = train_loop(model, ds, cfg)
    rows, kept = _reference_loop(make_model(), ds, cfg)
    assert len(history) == epochs
    for row, expected in zip(history, rows):
        assert {k: v for k, v in row.items() if k != "seconds"} == expected
    assert len({row["train_loss"] for row in rows}) == epochs  # the model does train
    for name, value in model.parameters().items():
        npt.assert_array_equal(value, kept[name], err_msg=name)


# Its tests of one rule each are rows now; test_rejections.FORMER names them.
globals().update(former_tests(__name__))
