import copy
import json
import sys
import threading
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from msignn import (ColorCountingSpec, Dataset, SolverConfig, TrainConfig, batch, build_graph,
                    gen_color_counting, init_model, load_checkpoint, numerics, save_checkpoint,
                    sum_pool, train_loop)
from msignn import graph as graph_mod
from msignn import model as model_mod
from msignn.errors import DivergenceError
from msignn.graph import GraphBatch
from msignn.model import MultiscaleImplicitGNN
from msignn.train import cross_entropy

from conftest import (check_gradients, contiguous_graph, directed_graph,
                      random_undirected_graph, undirected_graph)
from test_rejections import former_tests

TIGHT = SolverConfig(tol=1e-12, max_iters=5000)


def small_model(rng, graph, scales=(1, 2), hidden=4, **kwargs):
    kwargs.setdefault("solver_cfg", TIGHT)
    return init_model(rng, graph.feature_dim, hidden, graph.num_classes,
                      scale_exponents=scales, **kwargs)


def test_single_scale_attention_is_one():
    rng = np.random.default_rng(0)
    g = random_undirected_graph(rng, 6)
    model = small_model(rng, g, scales=(1,))
    trace = model.forward(g)
    npt.assert_allclose(trace.alphas, np.ones((g.n, 1)), atol=1e-15)
    npt.assert_allclose(trace.z_prime, trace.scale_results[0].z_star, atol=1e-15)


def test_duplicate_scales_split_attention_evenly():
    # Without edges the self-loops make S = I, so scales m=1 and m=2 sharing
    # one F reach the same equilibrium and attention cannot prefer either.
    rng = np.random.default_rng(1)
    g = build_graph(sp.csr_array((5, 5)), rng.standard_normal((3, 5)),
                    rng.integers(0, 2, 5), directed=False)
    model = small_model(rng, g, scales=(1,))
    first = model.scales[0]
    twins = MultiscaleImplicitGNN(model.encoder, [first, replace(first, scale_m=2)],
                                  model.attention, model.decoder_weight, solver_cfg=TIGHT)
    trace = twins.forward(g)
    npt.assert_array_equal(trace.scale_results[0].z_star, trace.scale_results[1].z_star)
    npt.assert_array_equal(trace.alphas, np.full((g.n, 2), 0.5))
    npt.assert_array_equal(trace.z_prime, trace.scale_results[0].z_star)


def test_gamma_zero_reduces_to_mlp():
    rng = np.random.default_rng(3)
    g = random_undirected_graph(rng, 6)
    model = small_model(rng, g, scales=(1, 2), gamma=0.0)
    trace = model.forward(g)
    for res in trace.scale_results:
        npt.assert_allclose(res.z_star, trace.injected, atol=1e-15)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(4)
    g = random_undirected_graph(rng, 8)
    model = small_model(rng, g, scales=(1, 2, 3))
    trace = model.forward(g)
    npt.assert_allclose(trace.alphas.sum(axis=1), np.ones(g.n), atol=1e-12)
    assert np.all(trace.alphas > 0) and np.all(trace.alphas < 1)


def test_scale_order_permutation_invariance():
    rng = np.random.default_rng(5)
    g = random_undirected_graph(rng, 7)
    model = small_model(rng, g, scales=(1, 2, 3))
    trace = model.forward(g)
    permuted = MultiscaleImplicitGNN(model.encoder,
                                     [model.scales[2], model.scales[0], model.scales[1]],
                                     model.attention, model.decoder_weight,
                                     solver_cfg=TIGHT)
    trace_p = permuted.forward(g)
    npt.assert_allclose(trace_p.alphas, trace.alphas[:, [2, 0, 1]], atol=1e-10)
    npt.assert_allclose(trace_p.z_prime, trace.z_prime, atol=1e-10)
    npt.assert_allclose(trace_p.logits, trace.logits, atol=1e-10)


def test_node_permutation_equivariance():
    rng = np.random.default_rng(6)
    g = random_undirected_graph(rng, 8)
    model = small_model(rng, g, scales=(1, 2))
    logits = model.forward(g).logits
    perm = rng.permutation(g.n)
    p = np.zeros((g.n, g.n))
    p[np.arange(g.n), perm] = 1.0
    adj_p = sp.csr_array(p.T @ g.adjacency.todense() @ p)
    g_p = build_graph(adj_p, g.features @ p, g.labels @ p.astype(int), directed=False)
    logits_p = model.forward(g_p).logits
    npt.assert_allclose(logits_p, logits @ p, atol=1e-9)


def test_batch_forward_matches_concatenation():
    rng = np.random.default_rng(7)
    graphs = [random_undirected_graph(rng, int(rng.integers(3, 7))) for _ in range(3)]
    model = small_model(rng, graphs[0], scales=(1, 2))
    merged = batch(graphs)
    batched = model.forward(merged).logits
    separate = np.hstack([model.forward(g).logits for g in graphs])
    npt.assert_allclose(batched, separate, atol=1e-9)


def test_backward_zero_grad_logits():
    rng = np.random.default_rng(8)
    g = random_undirected_graph(rng, 5)
    model = small_model(rng, g)
    trace = model.forward(g)
    grads = model.backward(g, trace, np.zeros_like(trace.logits))
    for name, grad in grads.items():
        npt.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)


def test_sum_pool_cases():
    z = np.array([[1.0, 2.0, 3.0, 4.0],
                  [5.0, 6.0, 7.0, 8.0]])
    single = GraphBatch(s=None, features=None, labels=None,
                        graph_of_node=np.zeros(4, dtype=int), num_graphs=1)
    npt.assert_array_equal(sum_pool(z, single), [[10.0], [26.0]])
    two = GraphBatch(s=None, features=None, labels=None,
                     graph_of_node=np.array([0, 0, 1, 1]), num_graphs=2)
    npt.assert_array_equal(sum_pool(z, two), [[3.0, 7.0], [11.0, 15.0]])
    npt.assert_array_equal(sum_pool(np.zeros_like(z), two), np.zeros((2, 2)))
    # Against np.add.at, bit for bit: nodes out of graph order, and graphs 1
    # and 4 with no nodes.
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 9)) * 10.0 ** rng.integers(-8, 8, (3, 9))
    graph_of_node = np.array([3, 0, 2, 0, 3, 2, 0, 3, 2])
    reference = np.zeros((3, 5))
    np.add.at(reference.T, graph_of_node, z.T)
    unsorted = GraphBatch(s=None, features=None, labels=None,
                          graph_of_node=graph_of_node, num_graphs=5)
    assert np.array_equal(sum_pool(z, unsorted), reference)
    # h = 16 and 10 nodes per graph, where a pairwise or unrolled sum would
    # add in another order; magnitudes e^-30 to e^30 make any reordering show.
    z = rng.standard_normal((16, 40)) * np.exp(rng.uniform(-30.0, 30.0, (16, 40)))
    graph_of_node = rng.permutation(np.repeat(np.arange(4), 10))
    reference = np.zeros((16, 4))
    np.add.at(reference.T, graph_of_node, z.T)
    wide = GraphBatch(s=None, features=None, labels=None, graph_of_node=graph_of_node,
                      num_graphs=4)
    assert np.array_equal(sum_pool(z, wide), reference)


@pytest.mark.parametrize("directed", [False, True])  # closed-form and Picard solves
def test_graph_task_on_a_plain_graph_is_a_batch_of_one(directed):
    rng = np.random.default_rng(11)
    g = random_undirected_graph(rng, 6, num_classes=2)
    g = build_graph(g.adjacency, g.features, g.labels, directed=directed)
    model = init_model(rng, g.feature_dim, 4, 2, scale_exponents=(1, 2), task="graph",
                       solver_cfg=TIGHT)
    grad_logits = rng.standard_normal((2, 1))
    plain, one = model.forward(g), model.forward(batch([g]))
    npt.assert_array_equal(plain.logits, one.logits)
    grads_plain = model.backward(g, plain, grad_logits)
    grads_one = model.backward(batch([g]), one, grad_logits)
    assert grads_plain.keys() == model.parameters().keys()
    for name, grad in grads_plain.items():
        npt.assert_array_equal(grad, grads_one[name], err_msg=name)


def test_predict_argmax_and_threshold():
    rng = np.random.default_rng(12)
    g = random_undirected_graph(rng, 5, num_classes=3)
    model = small_model(rng, g, scales=(1,), gamma=0.0)
    preds = model.predict(g)
    npt.assert_array_equal(preds, np.argmax(model.forward(g).logits, axis=0))
    # ties break toward the lower class index
    assert np.argmax(np.zeros(3)) == 0

    multi = build_graph(g.adjacency, g.features,
                        (rng.random((3, g.n)) < 0.5).astype(float))
    model_ml = small_model(rng, multi, scales=(1,), multilabel=True)
    logits = model_ml.forward(multi).logits
    npt.assert_array_equal(model_ml.predict(multi), (logits > 0).astype(int))


@pytest.mark.parametrize("multilabel", [False, True], ids=["class", "multi-hot"])
def test_predict_output_kind_follows_the_model_not_the_data(multilabel):
    rng = np.random.default_rng(12)
    g = random_undirected_graph(rng, 5)
    unlabeled = build_graph(g.adjacency, g.features)
    multi_hot = build_graph(g.adjacency, g.features, np.eye(2)[:, [0, 1, 1, 0, 1]])
    model = small_model(rng, g, scales=(1,), multilabel=multilabel)
    logits = model.forward(g).logits
    expected = (logits > 0).astype(int) if multilabel else np.argmax(logits, axis=0)
    for data in (g, unlabeled, multi_hot):  # the same S and features, other labels
        npt.assert_array_equal(model.predict(data), expected)


def test_predict_from_a_trace_matches_and_rejects_another_inputs_trace():
    rng = np.random.default_rng(14)
    g, other = random_undirected_graph(rng, 6), random_undirected_graph(rng, 4)
    model = small_model(rng, g, scales=(1, 2))
    npt.assert_array_equal(model.predict(g, model.forward(g)), model.predict(g))

    graph_model = small_model(rng, g, scales=(1,), task="graph")
    merged = batch([g, other])
    npt.assert_array_equal(graph_model.predict(merged, graph_model.forward(merged)),
                           graph_model.predict(merged))


# The model cross-check matrix: each model variant on each solve path a
# forward takes, the closed form on gathered rows and on slabs, and Picard on
# an undirected S over the spectrum cap and on a directed cyclic S. A new
# model variant adds its column to MODELS, a new solve path its row.
SOLVE_PATHS = {
    "closed form, gathered": (undirected_graph, "closed form"),
    "closed form, slabs": (contiguous_graph, "closed form"),
    "over the cap": (undirected_graph, "picard"),
    "directed cyclic": (partial(directed_graph, cyclic=True), "picard"),
}
MODELS = {
    "node": {}, "multilabel": {"multilabel": True}, "graph": {"task": "graph"},
    "dropout": {"dropout": 0.5}, "no encoder bias": {"encoder_bias": False},
}


@pytest.mark.parametrize("variant", MODELS.values(), ids=MODELS)
@pytest.mark.parametrize("build, path", SOLVE_PATHS.values(), ids=SOLVE_PATHS)
def test_model_cross_check(monkeypatch, build, path, variant):
    closed = path == "closed form"
    if not closed:  # components of 4 nodes are then over the cap
        monkeypatch.setattr(graph_mod, "SPECTRUM_MAX_COMPONENT", 2)
    graphs = [build(seed, [4, 3, 1]) for seed in (1, 2)]
    rng = np.random.default_rng(5)
    if variant.get("task") == "graph":
        data, labels = batch(graphs), np.array([2, 0])
    elif variant.get("multilabel"):
        data, labels = graphs[0], (rng.random((3, graphs[0].n)) < 0.5).astype(float)
    else:
        data, labels = graphs[0], rng.integers(0, 3, graphs[0].n)
    # At tol 1e-14 the merged batch's closed-form residual bound is above
    # tol, and its solves would go on as Picard.
    cfg = SolverConfig(tol=1e-12 if closed else 1e-14, max_iters=5000)
    model = init_model(rng, data.feature_dim, 2, 3, scale_exponents=(1, 4),
                       solver_cfg=cfg, **variant)
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    with monkeypatch.context() as patch:
        for name in ("forward_solve", "adjoint_solve", "weight_gradient"):
            patch.setattr(model_mod, name, counting(name, getattr(model_mod, name)))
        preds = model.predict(data)
    assert calls == ["forward_solve"] * 2  # one per scale, and nothing for a backward
    full = model.forward(data)
    assert np.array_equal(model._forward(data, False, None, keep=False), full.logits)
    assert np.array_equal(preds, model.predict(data, full))

    trace, counter = check_gradients(model, data, labels)
    assert {res.path for res in trace.scale_results} == {path}
    # The closed form's solves and weight gradient neither hop nor build S^T.
    assert (counter.calls > 0, counter.transposes > 0) == (not closed, not closed)
    if trace.pooled is not None:
        for gi in range(data.num_graphs):
            npt.assert_allclose(trace.pooled[:, gi],
                                trace.z_prime[:, data.graph_of_node == gi].sum(axis=1),
                                atol=1e-12)


def test_predict_keeps_at_most_two_thirds_of_a_forwards_working_set():
    # The peak during each call. A predict keeps no ForwardTrace, but only a
    # lower peak shows that the encoder cache, each solve's basis and
    # coefficients and all but one scale's tanh activations go early.
    g = gen_color_counting(ColorCountingSpec(num_chains=30, length=30, seed=0)).graph
    model = init_model(np.random.default_rng(0), g.feature_dim, 16, g.num_classes,
                       scale_exponents=(1, 4, 8))
    model.forward(g)  # S's spectrum is decomposed and cached on first use

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: model.predict(g)) <= 2 / 3 * peak(lambda: model.forward(g))


def test_a_training_step_reuses_its_scratch_arrays():
    # The backward's three temporaries and the solves' right-hand side array
    # are made by a thread's first step and reused by its next, so tracemalloc
    # sees them only in the first step's peak. A new thread starts with none.
    g = gen_color_counting(ColorCountingSpec(num_chains=30, length=30, seed=0)).graph
    model = init_model(np.random.default_rng(0), g.feature_dim, 16, g.num_classes,
                       scale_exponents=(1, 4, 8))
    graph_mod.spectrum(g.s)  # decomposed and cached outside the measured steps
    mask = np.ones(g.n, dtype=bool)

    def step_peak():
        tracemalloc.start()
        try:
            trace = model.forward(g, train_mode=True)
            model.backward(g, trace, cross_entropy(trace.logits, g.labels, mask)[1])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = []
    worker = threading.Thread(target=lambda: peaks.extend([step_peak(), step_peak()]))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and peaks[0] - peaks[1] >= 3 * g.n * model.hidden_dim * 8


def test_training_hands_back_the_backward_arrays():
    # Kept past the run, they sat under the next run's set-up and raised its peak.
    g = gen_color_counting(ColorCountingSpec(num_chains=4, length=5, seed=0)).graph
    model = init_model(np.random.default_rng(0), g.feature_dim, 4, g.num_classes)
    split = np.arange(g.n) % 3
    data = Dataset(graph=g, train_mask=split == 0, val_mask=split == 1, test_mask=split == 2,
                   spec_echo={})
    trace = model.forward(g)
    model.backward(g, trace, np.ones_like(trace.logits))
    assert "backward" in vars(numerics._thread)["pool"]
    train_loop(model, data, TrainConfig(epochs=1))
    assert "backward" not in vars(numerics._thread)["pool"]
    model.backward(g, trace, np.ones_like(trace.logits))
    model.scales[0].f_weight[0, 0] = np.inf  # a run that fails hands them back too
    with pytest.raises(DivergenceError, match=r"forward solve: g\(F\) is not finite"):
        train_loop(model, data, TrainConfig(epochs=1))
    assert "backward" not in vars(numerics._thread)["pool"]


def test_backwards_in_two_threads_give_the_serial_gradients():
    # Each thread has its own reused arrays, so one model's backward can run
    # in several threads at once; four threads and a short switch interval
    # make their steps interleave.
    g = gen_color_counting(ColorCountingSpec(num_chains=10, length=30, seed=0)).graph
    model = init_model(np.random.default_rng(0), g.feature_dim, 16, g.num_classes,
                       scale_exponents=(1, 4))
    trace = model.forward(g)
    grad_logits = cross_entropy(trace.logits, g.labels, np.ones(g.n, dtype=bool))[1]
    serial = model.backward(g, trace, grad_logits)
    results = [[] for _ in range(4)]

    def run(out):
        for _ in range(10):
            out.append(model.backward(g, trace, grad_logits))

    workers = [threading.Thread(target=run, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert [len(out) for out in results] == [10] * 4
    for grads in sum(results, []):
        assert all(np.array_equal(grads[name], serial[name]) for name in serial)


def _arrays(obj):
    """Every ndarray in a trace, a solve result, a gradient dict, or lists of them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))
    elif is_dataclass(obj):
        yield from _arrays([getattr(obj, f.name) for f in fields(obj)])


@pytest.mark.parametrize("row", SOLVE_PATHS)
def test_no_reused_array_is_handed_out(monkeypatch, row):
    # Two training steps, with an SGD step between them: nothing the first
    # returned (its trace, each scale's Z*, basis and coefficients, its
    # gradients) shares memory with what the second returned, and the first
    # trace is unchanged by the second step.
    build, path = SOLVE_PATHS[row]
    if path == "picard":  # components of 4 nodes are then over the cap
        monkeypatch.setattr(graph_mod, "SPECTRUM_MAX_COMPONENT", 2)
    g = build(1, [4, 3, 1])
    if path == "closed form":
        slabs = [isinstance(b.rows, slice) for b in graph_mod.spectrum(g.s)]
        assert all(slabs) == row.endswith("slabs")
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, g.n)
    model = init_model(rng, g.feature_dim, 2, 3, scale_exponents=(1, 4))
    mask = np.ones(g.n, dtype=bool)

    def step():
        trace = model.forward(g, train_mode=True)
        grads = model.backward(g, trace, cross_entropy(trace.logits, labels, mask)[1])
        assert {res.path for res in trace.scale_results} == {path}
        return trace, grads

    first = step()
    kept = copy.deepcopy(first)
    for name, p in model.parameters().items():
        p -= 0.1 * first[1][name]
    second = step()
    # The encoder's input is the data's own feature array in both traces.
    made = [[a for a in _arrays(out) if not np.shares_memory(a, g.features)]
            for out in (first, second)]
    assert not [(a.shape, b.shape) for a in made[0] for b in made[1] if np.shares_memory(a, b)]
    assert not np.array_equal(first[0].logits, second[0].logits)
    for now, then in zip(_arrays(first), _arrays(kept), strict=True):
        assert np.array_equal(now, then)


def test_dropout_only_in_train_mode():
    rng = np.random.default_rng(13)
    g = random_undirected_graph(rng, 6)
    model = small_model(rng, g, dropout=0.5)
    eval_a = model.forward(g).logits
    eval_b = model.forward(g).logits
    npt.assert_array_equal(eval_a, eval_b)  # eval is deterministic
    train_a = model.forward(g, train_mode=True, rng=np.random.default_rng(0)).logits
    assert not np.allclose(train_a, eval_a)


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(14)
    g = random_undirected_graph(rng, 6)
    model = small_model(rng, g, scales=(1, 3), dropout=0.25)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    orig, back = model.parameters(), restored.parameters()
    assert orig.keys() == back.keys()
    for name in orig:
        npt.assert_array_equal(orig[name], back[name], err_msg=name)
    assert restored.task == model.task and not restored.multilabel
    assert [m.scale_m for m in restored.scales] == [1, 3]
    assert restored.solver_cfg == model.solver_cfg
    npt.assert_array_equal(restored.forward(g).logits, model.forward(g).logits)


def _saved_payload(tmp_path):
    rng = np.random.default_rng(15)
    g = random_undirected_graph(rng, 5)
    model = small_model(rng, g, scales=(1, 2))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    return model, path, json.loads(path.read_text())


def test_checkpoint_round_trips_the_label_kind(tmp_path):
    rng = np.random.default_rng(16)
    g = random_undirected_graph(rng, 5)
    model = small_model(rng, g, scales=(1,), multilabel=True)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    assert payload["config"]["multilabel"] is True
    restored = load_checkpoint(path)
    assert restored.multilabel
    npt.assert_array_equal(restored.predict(g), model.predict(g))
    assert restored.predict(g).shape == (g.num_classes, g.n)

    del payload["config"]["multilabel"]  # a file from before the field
    path.write_text(json.dumps(payload))
    assert not load_checkpoint(path).multilabel


def test_checkpoint_with_strict_solver_key_loads(tmp_path):
    # files from before the solver's strict setting and the checkpoint's
    # attention_dim key were removed carry those keys
    model, path, payload = _saved_payload(tmp_path)
    assert "strict" not in payload["config"]["solver"]
    assert "attention_dim" not in payload["config"]
    strict = copy.deepcopy(payload)
    strict["config"]["solver"]["strict"] = False
    attention_dim = copy.deepcopy(payload)
    attention_dim["config"]["attention_dim"] = model.hidden_dim
    for old in (strict, attention_dim):
        path.write_text(json.dumps(old))
        restored = load_checkpoint(path)
        assert restored.solver_cfg == model.solver_cfg
        for name, value in model.parameters().items():
            npt.assert_array_equal(restored.parameters()[name], value)


# Its tests of one rule each are rows now; test_rejections.FORMER names them.
globals().update(former_tests(__name__))
