"""The benchmark's workloads: seeded inputs, model and training settings.

Every workload builds its inputs from one integer seed through the public
msignn API (``gen_*`` / ``build_graph`` -> ``init_model``) and hands back a
fresh, untrained model next to them. Why each workload exists, and which
layer it loads, is written down in README.md next to this file.

Library functions are looked up on their modules at call time
(``datasets.gen_chains``, ``graph.build_graph``), so the traced run's
wrappers see the calls made here exactly as they see the library's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from msignn import datasets, graph, model as model_mod
from msignn.equilibrium import SolverConfig

# Initial weights are part of each workload's definition, not of its inputs:
# --seed draws the data (graphs, features, labels, splits, shuffles), while
# every replicate starts from the same weights. Seeded inits made final losses
# and solver iteration counts vary several times more across seeds.
INIT_SEED = 0
COLOR_CHAINS = 30
COLOR_LENGTH = 30
BATCH_CHAINS = 320


@dataclass
class Problem:
    """One replicate's inputs: training data, a fresh model and its predict input."""

    data: object                   # msignn Dataset or GraphDataset
    model: model_mod.MultiscaleImplicitGNN
    predict_input: Callable        # returns the Graph / GraphBatch that predict_s times


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Problem]
    epochs: int             # epochs per replicate; patience never stops a run early
    lr: float
    replicate_s: float      # seconds per replicate on a busy 2-core x86 VM; sizes the run
    setups: int             # timed set-ups per replicate
    predict_calls: int      # timed predict calls per replicate
    config: dict = field(default_factory=dict)


def _chains(seed: int) -> Problem:
    ds = datasets.gen_chains(datasets.ChainsSpec(num_classes=2, chains_per_class=20,
                                                 length=100, seed=seed))
    g = ds.graph
    model = model_mod.init_model(
        np.random.default_rng(INIT_SEED), g.feature_dim, hidden_dim=2, num_classes=2,
        scale_exponents=(1, 2), gamma=0.8, encoder_layers=1, encoder_bias=False,
        solver_cfg=SolverConfig(tol=1e-12, max_iters=400))
    return Problem(ds, model, lambda: g)


def _colors(seed: int, gamma: float, max_iters: int) -> Problem:
    ds = datasets.gen_color_counting(datasets.ColorCountingSpec(
        num_chains=COLOR_CHAINS, length=COLOR_LENGTH, seed=seed))
    g = ds.graph
    model = model_mod.init_model(
        np.random.default_rng(INIT_SEED), g.feature_dim, 16, g.num_classes,
        scale_exponents=(1, 4, 8), gamma=gamma,
        solver_cfg=SolverConfig(tol=1e-6, max_iters=max_iters))
    return Problem(ds, model, lambda: g)


def _colors_m148(seed: int) -> Problem:
    return _colors(seed, gamma=0.8, max_iters=300)


def _colors_stiff(seed: int) -> Problem:
    """Colors with gamma = 0.97 and every F set to a near-rank-1 matrix.

    F = u u^T / ||u|| + 1e-3 E with u and E standard normal, so g(F) is close
    to the rank-1 projector u u^T / ||u||^2 and its top eigenvalue is close
    to 1. Picard then contracts by about gamma = 0.97 per step on the
    components S leaves alone (S has eigenvalue 1 on every chain).
    """
    prob = _colors(seed, gamma=0.97, max_iters=3000)
    rng = np.random.default_rng([INIT_SEED, 1])
    for name, f in prob.model.parameters().items():
        if name.startswith("scales."):
            u = rng.standard_normal(f.shape[0])
            f[...] = np.outer(u, u) / np.linalg.norm(u) + 1e-3 * rng.standard_normal(f.shape)
    return prob


def _graphs_batched(seed: int) -> Problem:
    """320 color chains, each its own graph, labelled with its majority color."""
    ds = datasets.gen_color_counting(datasets.ColorCountingSpec(
        num_chains=BATCH_CHAINS, length=COLOR_LENGTH, seed=seed))
    adjacency, features = ds.graph.adjacency, ds.graph.features
    graphs = []
    for c in range(BATCH_CHAINS):
        nodes = slice(c * COLOR_LENGTH, (c + 1) * COLOR_LENGTH)
        graphs.append(graph.build_graph(adjacency[nodes, nodes], features[:, nodes]))
    labels = ds.graph.labels[::COLOR_LENGTH].copy()
    order = np.random.default_rng(seed).permutation(BATCH_CHAINS)
    n_train, n_val = int(0.70 * BATCH_CHAINS), int(0.15 * BATCH_CHAINS)
    masks = [np.zeros(BATCH_CHAINS, dtype=bool) for _ in range(3)]
    masks[0][order[:n_train]] = True
    masks[1][order[n_train:n_train + n_val]] = True
    masks[2][order[n_train + n_val:]] = True
    data = datasets.GraphDataset(graphs=graphs, labels=labels, train_mask=masks[0],
                                 val_mask=masks[1], test_mask=masks[2])
    model = model_mod.init_model(
        np.random.default_rng(INIT_SEED), features.shape[0], 16, int(labels.max()) + 1, scale_exponents=(1, 4),
        gamma=0.8, task="graph", solver_cfg=SolverConfig(tol=1e-6, max_iters=300))
    test_graphs = [graphs[i] for i in np.flatnonzero(masks[2])]
    return Problem(data, model, lambda: graph.batch(test_graphs))


WORKLOADS = {w.name: w for w in [
    Workload("chains-l100", _chains, epochs=20, lr=0.05, replicate_s=5.7,
             setups=3, predict_calls=5,
             config={"generator": "gen_chains", "length": 100, "chains": 40,
                     "directed": True, "self_loops": False, "hidden": 2,
                     "encoder_layers": 1, "encoder_bias": False, "scales": [1, 2],
                     "gamma": 0.8, "tol": 1e-12, "max_iters": 400}),
    Workload("colors-m148", _colors_m148, epochs=12, lr=0.05, replicate_s=3.5,
             setups=5, predict_calls=5,
             config={"generator": "gen_color_counting", "length": COLOR_LENGTH,
                     "chains": COLOR_CHAINS, "directed": False, "self_loops": True,
                     "hidden": 16, "scales": [1, 4, 8], "gamma": 0.8, "tol": 1e-6,
                     "max_iters": 300}),
    Workload("colors-stiff", _colors_stiff, epochs=4, lr=0.01, replicate_s=8.0,
             setups=5, predict_calls=2,
             config={"generator": "gen_color_counting", "length": COLOR_LENGTH,
                     "chains": COLOR_CHAINS, "directed": False, "self_loops": True,
                     "hidden": 16, "scales": [1, 4, 8], "gamma": 0.97, "tol": 1e-6,
                     "max_iters": 3000, "f_init": "u u^T/||u|| + 1e-3 E"}),
    Workload("graphs-batched", _graphs_batched, epochs=4, lr=0.005, replicate_s=7.7,
             setups=2, predict_calls=5,
             config={"generator": "gen_color_counting + build_graph per chain",
                     "graphs": BATCH_CHAINS, "length": COLOR_LENGTH,
                     "split": [0.70, 0.15, 0.15], "task": "graph", "batch_size": 32,
                     "hidden": 16, "scales": [1, 4], "gamma": 0.8, "tol": 1e-6,
                     "max_iters": 300}),
]}
