"""Training and prediction load none of scipy's heavier submodules, and
leave no thread behind.

Each of these modules raises a process's peak RSS by several MB on import,
and the benchmark bounds peak RSS, so a refactor that reaches for one of
them (say ``csgraph.connected_components`` for ``graph.component_labels``)
should be a deliberate, measured choice. The library starts no thread of
its own, so none but the main thread runs after training and prediction;
one left running would make a later fork unsafe.
"""

from conftest import run_python

HEAVY_MODULES = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg",
                 "scipy.special")

SCRIPT = """
import sys
import threading
import numpy as np
from msignn import (ChainsSpec, ColorCountingSpec, GraphDataset, SolverConfig,
                    TrainConfig, batch, build_graph, gen_chains, gen_color_counting,
                    init_model, train_loop)

cfg = TrainConfig(epochs=2)
solver = SolverConfig(tol=1e-6, max_iters=300)
for ds in (gen_color_counting(ColorCountingSpec(num_chains=6, length=12, seed=1)),
           gen_chains(ChainsSpec(chains_per_class=3, length=8, seed=1))):
    g = ds.graph
    model = init_model(np.random.default_rng(0), g.feature_dim, 4, g.num_classes,
                       scale_exponents=(1, 2), solver_cfg=solver)
    train_loop(model, ds, cfg)
    model.predict(g)

ds = gen_color_counting(ColorCountingSpec(num_chains=12, length=10, seed=2))
a, x = ds.graph.adjacency, ds.graph.features
graphs = [build_graph(a[i * 10:(i + 1) * 10, i * 10:(i + 1) * 10], x[:, i * 10:(i + 1) * 10])
          for i in range(12)]
masks = [np.arange(12) % 3 == k for k in range(3)]
data = GraphDataset(graphs=graphs, labels=ds.graph.labels[::10].copy(),
                    train_mask=masks[0], val_mask=masks[1], test_mask=masks[2])
model = init_model(np.random.default_rng(0), x.shape[0], 4, 3, scale_exponents=(1, 2),
                   task="graph", solver_cfg=solver)
train_loop(model, data, TrainConfig(epochs=2, batch_size=2))
model.predict(batch([graphs[i] for i in np.flatnonzero(masks[2])]))

assert threading.active_count() == 1, threading.enumerate()
print(",".join(sorted(m for m in sys.argv[1:] if m in sys.modules)))
"""


def test_training_and_predict_load_no_heavy_scipy_module(tmp_path):
    result = run_python("-c", SCRIPT, *HEAVY_MODULES, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
