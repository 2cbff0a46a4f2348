"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line when its criterion holds, so running

    pytest tests/test_acceptance.py -v -s

doubles as the release report. These runs are heavier than the unit tests
(several end-to-end trainings); the whole module finishes in under a
minute on a 2-vCPU VM.
"""

import time

import numpy as np
import pytest

from msignn import (ChainsSpec, ColorCountingSpec, ScaleModule, SolverConfig,
                    TrainConfig, accuracy, batch, empirical_range, forward_solve,
                    gen_chains, gen_color_counting, init_model, measure_decay,
                    oracle_solve, range_bound, range_bound_exact, sum_pool,
                    train_loop)
from msignn.cli import main
from msignn.graph import build_graph
from msignn.model import MlpEncoder, MultiscaleImplicitGNN, glorot_uniform
from msignn.train import cross_entropy

from conftest import picard_steps, random_normalized_csr, random_undirected_graph

import scipy.sparse as sp


def report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


# -- 1. chains reach 100% test accuracy -------------------------------------

def test_criterion_1_chains_full_accuracy():
    # tol must let the iteration reach the far end of the chain: from Z0 = 0,
    # hop k is first touched at iteration k and the loop runs ~ln(tol)/ln(gamma)
    # iterations, so 1e-12 at gamma=0.8 covers ~124 hops.
    runs = []
    for length in (10, 50, 100):
        for scales in ((1,), (1, 2)):
            start = time.perf_counter()
            ds = gen_chains(ChainsSpec(length=length, seed=0))
            graph = ds.graph
            rng = np.random.default_rng(0)
            model = init_model(rng, graph.feature_dim, hidden_dim=2, num_classes=2,
                               scale_exponents=scales, gamma=0.8,
                               encoder_layers=1, encoder_bias=False,
                               solver_cfg=SolverConfig(tol=1e-12, max_iters=400))
            train_loop(model, ds, TrainConfig(epochs=300, lr=0.05, seed=0,
                                              patience=150))
            test_acc = accuracy(model.predict(graph), graph.labels, ds.test_mask)
            elapsed = time.perf_counter() - start
            runs.append((length, scales, test_acc, elapsed))
            assert test_acc == 1.0, \
                f"l={length} M={set(scales)}: test accuracy {test_acc} != 100%"
            assert elapsed < 300.0, f"l={length} M={set(scales)} took {elapsed:.0f}s"
    detail = ", ".join(f"l={l} M={set(m)}: 100% in {t:.0f}s" for l, m, _, t in runs)
    report(1, detail)


# -- 2. decay reproduction ---------------------------------------------------

def probe_setup(length, hidden=10, seed=0):
    rng = np.random.default_rng(seed)
    chain = gen_chains(ChainsSpec(num_classes=1, chains_per_class=1,
                                  length=length, seed=seed))
    graph = chain.graph
    encoder = MlpEncoder([glorot_uniform(rng, hidden, graph.feature_dim),
                          glorot_uniform(rng, hidden, hidden)])
    f_weight = glorot_uniform(rng, hidden, hidden, gain=0.5)
    cfg = SolverConfig(tol=1e-15, max_iters=length + 50)
    return graph, (lambda x: encoder.forward(x)[0]), f_weight, cfg


def test_criterion_2_decay_reproduction():
    graph, encode, f_weight, cfg = probe_setup(length=60)
    curve = measure_decay(ScaleModule(f_weight=f_weight, gamma=0.5, scale_m=1),
                          graph, encode, p=0, cfg=cfg)
    below = curve.hops[curve.measured < 1e-12]
    first_below = int(below.min())
    assert 20 <= first_below <= 30, \
        f"||dZ*|| first falls below 1e-12 at hop {first_below}, expected 25 +- 5"

    theta = 1e-8
    ranges = []
    for gamma in (0.3, 0.5, 0.7, 0.9):
        c = measure_decay(ScaleModule(f_weight=f_weight, gamma=gamma, scale_m=1),
                          graph, encode, p=0, cfg=cfg)
        ranges.append(empirical_range(c, theta))
    assert ranges == sorted(ranges) and len(set(ranges)) == 4, \
        f"ranges not strictly ordered in gamma: {ranges}"
    report(2, f"decay hits 1e-12 at hop {first_below}; "
              f"ranges at theta=1e-8 strictly ordered {ranges} for gamma 0.3..0.9")


# -- 3. bound soundness ------------------------------------------------------

def random_directed_tree(rng, n):
    """Random directed tree rooted at 0; parent of node i is a random j < i."""
    rows, cols = [], []
    for i in range(1, n):
        rows.append(int(rng.integers(0, i)))
        cols.append(i)
    a = sp.csr_array((np.ones(n - 1), (rows, cols)), shape=(n, n))
    feats = np.zeros((2, n))
    feats[:, 0] = rng.standard_normal(2)
    return build_graph(a, feats, directed=True)


def test_criterion_3_bound_soundness():
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(20):
        n = int(rng.integers(20, 60))
        if trial % 2 == 0:
            chain = gen_chains(ChainsSpec(num_classes=1, chains_per_class=1,
                                          length=n, seed=trial))
            graph = chain.graph
        else:
            graph = random_directed_tree(rng, n)
        hidden = int(rng.integers(3, 12))
        encoder = MlpEncoder([glorot_uniform(rng, hidden, graph.feature_dim),
                              glorot_uniform(rng, hidden, hidden)])
        module = ScaleModule(f_weight=glorot_uniform(rng, hidden, hidden, gain=0.5),
                             gamma=float(rng.uniform(0.3, 0.95)),
                             scale_m=int(rng.integers(1, 5)))
        cfg = SolverConfig(tol=1e-15, max_iters=n + 50)
        curve = measure_decay(module, graph, lambda x: encoder.forward(x)[0],
                              p=0, cfg=cfg)
        violations = np.sum(curve.measured > curve.bound + 1e-12)
        assert violations == 0, \
            f"trial {trial}: {violations} hops violate the decay bound"
        checked += len(curve.hops)
    report(3, f"measured <= bound + 1e-12 on all {checked} hops "
              f"across 20 random (graph, F, gamma, m) configurations")


# -- 4. range expansion with the scale exponent ------------------------------

def test_criterion_4_range_expansion():
    graph, encode, f_weight, cfg = probe_setup(length=200)
    theta = 1e-8
    ranges = {}
    for m in (1, 4):
        curve = measure_decay(ScaleModule(f_weight=f_weight, gamma=0.5, scale_m=m),
                              graph, encode, p=0, cfg=cfg)
        ranges[m] = empirical_range(curve, theta)
    assert ranges[4] >= 3 * ranges[1], f"m=4 range {ranges[4]} < 3x m=1 range {ranges[1]}"
    # the closed-form bound scales exactly linearly in m before flooring
    ratio = range_bound_exact(0.5, theta, 4) / range_bound_exact(0.5, theta, 1)
    assert ratio == 4.0
    assert range_bound(0.5, theta, 4) == int(4 * range_bound_exact(0.5, theta, 1))
    report(4, f"empirical ranges m=1: {ranges[1]}, m=4: {ranges[4]} "
              f"(>= 3x); closed-form bound ratio exactly 4.0")


# -- 5. oracle equivalence and geometric contraction --------------------------

def test_criterion_5_oracle_equivalence():
    # Each instance is solved twice: in closed form on the S build_graph makes,
    # and by Picard iteration on a plain CSR copy of it, which has no spectrum.
    rng = np.random.default_rng(7)
    cfg = SolverConfig(tol=1e-6, max_iters=2000)
    worst_picard = worst_closed = 0.0
    worst_excess = -np.inf
    for trial in range(20):
        n = int(rng.integers(4, 13))
        h = int(rng.integers(4, 9))
        gamma = (0.5, 0.8, 0.95)[trial % 3]
        s = random_normalized_csr(rng, n)
        module = ScaleModule(f_weight=rng.standard_normal((h, h)) * 0.5,
                             gamma=gamma, scale_m=int(rng.integers(1, 4)))
        injected = rng.standard_normal((h, n))
        exact = oracle_solve(module, injected, s)
        closed = forward_solve(module, injected, s, cfg)
        assert closed.iterations == 1 and closed.converged
        assert closed.path == "closed form"
        rel = np.linalg.norm(closed.z_star - exact) / np.linalg.norm(exact)
        assert rel <= 1e-12, f"trial {trial}: |closed form - oracle| = {rel:.2e}"
        worst_closed = max(worst_closed, rel)
        res = forward_solve(module, injected, sp.csr_array(s), cfg)
        rel = np.linalg.norm(res.z_star - exact) / np.linalg.norm(exact)
        assert rel <= 10 * cfg.tol, f"trial {trial}: |iter - oracle| = {rel:.2e}"
        worst_picard = max(worst_picard, rel)
        steps = picard_steps(module, injected, s, 20)
        excess = float(np.max(steps[1:] - gamma * steps[:-1]))
        assert excess <= 1e-9, \
            f"trial {trial}: a Picard step exceeds gamma times the last by {excess:.2e}"
        worst_excess = max(worst_excess, excess)
    report(5, f"20 instances agree with the Kronecker oracle: closed form worst "
              f"{worst_closed:.2e} <= 1e-12, Picard worst {worst_picard:.2e} <= "
              f"10*tol={10 * cfg.tol:.0e}; each of 20 Picard steps is <= gamma times "
              f"the last (worst excess {worst_excess:.1e})")


# -- 6. implicit gradients match finite differences ---------------------------

def test_criterion_6_implicit_gradients():
    step = 1e-5
    groups_checked = set()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        graph = random_undirected_graph(rng, 6, feat_dim=3, num_classes=2)
        model = init_model(rng, 3, 4, 2, scale_exponents=(1, 2),
                           solver_cfg=SolverConfig(tol=1e-12, max_iters=5000))
        mask = np.ones(6, dtype=bool)
        trace = model.forward(graph)
        _, grad_logits = cross_entropy(trace.logits, graph.labels, mask)
        grads = model.backward(graph, trace, grad_logits)
        for name, p in model.parameters().items():
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                lp = cross_entropy(model.forward(graph).logits, graph.labels, mask)[0]
                p[idx] = orig - step
                lm = cross_entropy(model.forward(graph).logits, graph.labels, mask)[0]
                p[idx] = orig
                numeric[idx] = (lp - lm) / (2 * step)
                it.iternext()
            np.testing.assert_allclose(grads[name], numeric, rtol=1e-3, atol=1e-6,
                                       err_msg=f"seed {seed}, parameter {name}")
            groups_checked.add(name)
    report(6, f"all parameter groups ({sorted(groups_checked)}) match central "
              f"differences at rtol 1e-3 / atol 1e-6 on 5 seeds")


# -- 7. multiscale benefit on color counting ---------------------------------

def test_criterion_7_color_counting_multiscale():
    def mean_accuracy(scales):
        accs = []
        for length in (20, 30, 40):
            for seed in range(5):
                ds = gen_color_counting(ColorCountingSpec(length=length, seed=seed))
                graph = ds.graph
                rng = np.random.default_rng(seed)
                model = init_model(rng, graph.feature_dim, 16, graph.num_classes,
                                   scale_exponents=scales,
                                   solver_cfg=SolverConfig(tol=1e-6, max_iters=300))
                train_loop(model, ds, TrainConfig(epochs=150, lr=0.05, seed=seed,
                                                  patience=50))
                accs.append(accuracy(model.predict(graph), graph.labels,
                                     ds.test_mask))
        return float(np.mean(accs))

    multi = mean_accuracy((1, 4, 8))
    single = mean_accuracy((1,))
    assert multi >= single, \
        f"M={{1,4,8}} mean {multi:.4f} < M={{1}} mean {single:.4f}"
    report(7, f"mean test accuracy over 15 runs: M={{1,4,8}} {multi:.4f} >= "
              f"M={{1}} {single:.4f}")


# -- 8. attention invariants ---------------------------------------------------

def test_criterion_8_attention_invariants():
    rng = np.random.default_rng(3)
    graph = random_undirected_graph(rng, 8)
    tight = SolverConfig(tol=1e-12, max_iters=5000)
    model = init_model(rng, graph.feature_dim, 4, 2, scale_exponents=(1, 2, 3),
                       solver_cfg=tight)
    trace = model.forward(graph)
    np.testing.assert_allclose(trace.alphas.sum(axis=1), np.ones(graph.n),
                               atol=1e-12)
    assert np.all(trace.alphas > 0) and np.all(trace.alphas < 1)

    reordered = MultiscaleImplicitGNN(model.encoder,
                                      [model.scales[1], model.scales[2], model.scales[0]],
                                      model.attention, model.decoder_weight,
                                      solver_cfg=tight)
    trace_r = reordered.forward(graph)
    assert np.abs(trace_r.z_prime - trace.z_prime).max() <= 1e-10

    single = init_model(np.random.default_rng(0), graph.feature_dim, 4, 2,
                        scale_exponents=(1,), solver_cfg=tight)
    np.testing.assert_array_equal(single.forward(graph).alphas, np.ones((graph.n, 1)))
    report(8, "alpha rows sum to 1 +- 1e-12; scale reordering shifts Z' by <= 1e-10; "
              "single-scale alpha is identically 1")


# -- 9. batching ---------------------------------------------------------------

def test_criterion_9_batching():
    rng = np.random.default_rng(4)
    graphs = [random_undirected_graph(rng, int(rng.integers(3, 8))) for _ in range(4)]
    model = init_model(rng, graphs[0].feature_dim, 4, 2, scale_exponents=(1, 2),
                       solver_cfg=SolverConfig(tol=1e-12, max_iters=5000))
    merged = batch(graphs)
    batched = model.forward(merged).logits
    separate = np.hstack([model.forward(g).logits for g in graphs])
    gap = np.abs(batched - separate).max()
    assert gap <= 1e-9, f"batched vs per-graph forward gap {gap:.2e}"

    z = rng.standard_normal((4, merged.n))
    pooled = sum_pool(z, merged)
    brute = np.zeros((4, merged.num_graphs))
    for i, g in enumerate(merged.graph_of_node):
        brute[:, g] += z[:, i]
    np.testing.assert_array_equal(pooled, brute)
    report(9, f"batched forward matches concatenation within {gap:.1e} <= 1e-9; "
              f"sum-pool equals brute-force accumulation exactly")


# -- 10. determinism of the CLI -------------------------------------------------

def test_criterion_10_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-chains", "--length", "6", "--out", str(data)]) == 0
    train_args = ["train", "--data", str(data), "--epochs", "4",
                  "--hidden", "4", "--seed", "5"]
    out_a, out_b = tmp_path / "ta", tmp_path / "tb"
    assert main(train_args + ["--out", str(out_a)]) == 0
    assert main(train_args + ["--out", str(out_b)]) == 0
    assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()
    assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()

    def without_seconds(path):
        rows = path.read_text().strip().split("\n")
        return [",".join(r.split(",")[:-1]) for r in rows]

    # the seconds column is measured wall time; everything else is exact
    assert without_seconds(out_a / "history.csv") == without_seconds(out_b / "history.csv")

    probe_args = ["probe-range", "--gammas", "0.5,0.7", "--scales", "1,2",
                  "--length", "25", "--seed", "9"]
    out_c, out_d = tmp_path / "pa", tmp_path / "pb"
    assert main(probe_args + ["--out", str(out_c)]) == 0
    assert main(probe_args + ["--out", str(out_d)]) == 0
    files = sorted(p.name for p in out_c.glob("*.csv"))
    assert len(files) == 5  # 4 curves + summary
    for name in files:
        assert (out_c / name).read_bytes() == (out_d / name).read_bytes()
    capsys.readouterr()
    report(10, "train and probe-range reruns are byte-identical "
               "(checkpoints, metrics, curve CSVs; history modulo the wall-time column)")
