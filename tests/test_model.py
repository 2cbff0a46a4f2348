import copy
import json
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from msignn import (SolverConfig, batch, build_graph, init_model,
                    load_checkpoint, save_checkpoint, sum_pool)
from msignn.errors import ShapeError
from msignn.graph import GraphBatch
from msignn.model import AttentionParams, MlpEncoder, MultiscaleImplicitGNN
from msignn.train import cross_entropy

from conftest import random_undirected_graph

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


def test_duplicate_scales_rejected_by_default():
    rng = np.random.default_rng(2)
    g = random_undirected_graph(rng, 4)
    with pytest.raises(ValueError):
        small_model(rng, g, scales=(1, 1))


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


def _fd_check(seed, task="node", encoder_bias=True, dropout=0.0):
    rng = np.random.default_rng(seed)
    g = random_undirected_graph(rng, 6, feat_dim=3, num_classes=2)
    model = small_model(rng, g, scales=(1, 2), encoder_bias=encoder_bias,
                        dropout=dropout)
    mask = np.ones(g.n, dtype=bool)

    def loss_only():
        trace = model.forward(g)
        return cross_entropy(trace.logits, g.labels, mask)[0]

    trace = model.forward(g)
    loss, grad_logits = cross_entropy(trace.logits, g.labels, mask)
    grads = model.backward(g, trace, grad_logits)
    params = model.parameters()
    step = 1e-5
    failures = []
    for name, p in params.items():
        numeric = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            lp = loss_only()
            p[idx] = orig - step
            lm = loss_only()
            p[idx] = orig
            numeric[idx] = (lp - lm) / (2 * step)
            it.iternext()
        if not np.allclose(grads[name], numeric, rtol=1e-3, atol=1e-6):
            failures.append(name)
    return failures


def test_full_model_gradients_match_finite_differences():
    for seed in range(3):
        assert _fd_check(seed) == []


def test_gradients_without_encoder_bias():
    assert _fd_check(11, encoder_bias=False) == []


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


def test_graph_task_forward_and_gradcheck():
    rng = np.random.default_rng(10)
    graphs = [random_undirected_graph(rng, 4, num_classes=2) for _ in range(3)]
    mb = batch(graphs)
    model = init_model(rng, graphs[0].feature_dim, 4, 2, scale_exponents=(1, 2),
                       task="graph", solver_cfg=TIGHT)
    labels = np.array([0, 1, 0])
    mask = np.ones(3, dtype=bool)

    trace = model.forward(mb)
    assert trace.logits.shape == (2, 3)
    # pooled columns match brute-force per-graph sums
    for gi in range(3):
        npt.assert_allclose(trace.pooled[:, gi],
                            trace.z_prime[:, mb.graph_of_node == gi].sum(axis=1),
                            atol=1e-12)

    loss, grad_logits = cross_entropy(trace.logits, labels, mask)
    grads = model.backward(mb, trace, grad_logits)
    params = model.parameters()
    step = 1e-5
    for name in ("decoder.w", "scales.0.f", "encoder.w0", "attention.q"):
        p = params[name]
        numeric = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            lp = cross_entropy(model.forward(mb).logits, labels, mask)[0]
            p[idx] = orig - step
            lm = cross_entropy(model.forward(mb).logits, labels, mask)[0]
            p[idx] = orig
            numeric[idx] = (lp - lm) / (2 * step)
            it.iternext()
        npt.assert_allclose(grads[name], numeric, rtol=1e-3, atol=1e-6, err_msg=name)


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
    model_ml = small_model(rng, multi, scales=(1,))
    logits = model_ml.forward(multi).logits
    npt.assert_array_equal(model_ml.predict(multi), (logits > 0).astype(int))


def test_dropout_only_in_train_mode():
    rng = np.random.default_rng(13)
    g = random_undirected_graph(rng, 6)
    model = small_model(rng, g, dropout=0.5)
    eval_a = model.forward(g).logits
    eval_b = model.forward(g).logits
    npt.assert_array_equal(eval_a, eval_b)  # eval is deterministic
    train_a = model.forward(g, train_mode=True, rng=np.random.default_rng(0)).logits
    assert not np.allclose(train_a, eval_a)
    with pytest.raises(ValueError):
        model.forward(g, train_mode=True)  # dropout needs an rng


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
    assert restored.task == model.task
    assert [m.scale_m for m in restored.scales] == [1, 3]
    assert restored.solver_cfg == model.solver_cfg
    npt.assert_array_equal(restored.forward(g).logits, model.forward(g).logits)


def test_checkpoint_rejects_foreign_payloads(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(bad)
    wrong_version = tmp_path / "v999.json"
    wrong_version.write_text('{"format": "msignn-checkpoint", "version": 999}')
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(wrong_version)


def _saved_payload(tmp_path):
    rng = np.random.default_rng(15)
    g = random_undirected_graph(rng, 5)
    model = small_model(rng, g, scales=(1, 2))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    return model, path, json.loads(path.read_text())


def test_checkpoint_rejects_repeated_scales(tmp_path):
    _, path, payload = _saved_payload(tmp_path)
    payload["config"]["scales"][1]["m"] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="pairwise distinct"):
        load_checkpoint(path)


def test_checkpoint_rejects_params_its_config_does_not_imply(tmp_path):
    _, path, payload = _saved_payload(tmp_path)
    cut = copy.deepcopy(payload)
    cut["params"]["decoder.w"] = cut["params"]["decoder.w"][:1]   # num_classes is 2
    missing = copy.deepcopy(payload)
    del missing["params"]["scales.0.f"]
    unknown = copy.deepcopy(payload)
    unknown["params"]["scales.2.f"] = unknown["params"]["scales.0.f"]
    for bad, message in ((cut, r"'decoder\.w' has shape \(1, 4\), expected \(2, 4\)"),
                         (missing, r"missing parameter 'scales\.0\.f'"),
                         (unknown, r"unknown parameter 'scales\.2\.f'")):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=message) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)


def test_checkpoint_names_a_missing_config_key(tmp_path):
    _, path, payload = _saved_payload(tmp_path)
    for keys, shown in ((("config", "hidden_dim"), "config.hidden_dim"),
                        (("config", "solver", "tol"), "config.solver.tol"),
                        (("config", "scales", 1, "gamma"), "config.scales[1].gamma"),
                        (("params",), "params")):
        bad = copy.deepcopy(payload)
        *parents, last = keys
        node = bad
        for key in parents:
            node = node[key]
        del node[last]
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(f"missing key '{shown}'")) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)


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


def test_encoder_shape_validation():
    with pytest.raises(ShapeError):
        MlpEncoder([np.zeros((4, 3)), np.zeros((4, 5))])
    with pytest.raises(ShapeError):
        MlpEncoder([np.zeros((4, 3))], [np.zeros(5)])
    with pytest.raises(ShapeError):
        AttentionParams(w_a=np.zeros((4, 4)), b_a=np.zeros(3), q=np.zeros(4))


def test_attention_width_is_the_hidden_dim():
    # checkpoints record no attention width, so a model with another one could not reload
    model = init_model(np.random.default_rng(0), 3, 4, 2)
    wide = AttentionParams(w_a=np.zeros((8, 4)), b_a=np.zeros(8), q=np.zeros(8))
    with pytest.raises(ShapeError, match="hidden x hidden"):
        MultiscaleImplicitGNN(model.encoder, model.scales, wide, model.decoder_weight)
