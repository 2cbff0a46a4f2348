"""Graph-level tasks: block-diagonal batching and sum-pooling readout.

Merging graphs block-diagonally lets one equilibrium solve handle a whole
mini-batch; because the merged S has no cross-graph edges, the
result is exactly the concatenation of the per-graph solutions. Sum
pooling then collapses each graph's node columns into one embedding for
the linear decoder.

Run: python3 demos/05_graph_batching.py
"""

import numpy as np
import scipy.sparse as sp

from msignn import (SolverConfig, TrainConfig, batch, build_graph, init_model,
                    sum_pool, train_loop)
from msignn.datasets import GraphDataset


def ring_graph(rng, n, noise):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    feats = rng.standard_normal((4, n)) * 0.1 + noise
    return build_graph(sp.csr_array(a), feats)


def star_graph(rng, n, noise):
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0
    feats = rng.standard_normal((4, n)) * 0.1 + noise
    return build_graph(sp.csr_array(a), feats)


rng = np.random.default_rng(0)
graphs = [ring_graph(rng, int(rng.integers(5, 9)), -0.5) for _ in range(10)] \
    + [star_graph(rng, int(rng.integers(5, 9)), 0.5) for _ in range(10)]
labels = np.array([0] * 10 + [1] * 10)

model = init_model(rng, 4, 8, 2, scale_exponents=(1, 2), task="graph",
                   solver_cfg=SolverConfig(tol=1e-10, max_iters=500))

# batched forward equals concatenated per-graph forwards
mb = batch(graphs[:4])
batched = model.forward(mb).z_prime
separate = np.hstack([model.forward(g).z_prime for g in graphs[:4]])
print(f"batched vs per-graph equilibria: max gap "
      f"{np.abs(batched - separate).max():.2e} (no cross-graph leakage)")

pooled = sum_pool(batched, mb)
brute = np.zeros_like(pooled)
for i, g in enumerate(mb.graph_of_node):
    brute[:, g] += batched[:, i]
print(f"sum-pool vs explicit accumulation: exact match {np.array_equal(pooled, brute)}")

order = rng.permutation(20)
n_train = 14
data = GraphDataset(graphs=graphs, labels=labels,
                    train_mask=np.isin(np.arange(20), order[:n_train]),
                    val_mask=np.isin(np.arange(20), order[n_train:17]),
                    test_mask=np.isin(np.arange(20), order[17:]))

history = train_loop(model, data, TrainConfig(epochs=40, lr=0.05, seed=0, patience=40))
print(f"\ngraph classification (rings vs stars), {len(history)} epochs:")
print(f"  final train acc {history[-1]['train_acc']:.3f}, "
      f"val acc {history[-1]['val_acc']:.3f}")
test_idx = np.flatnonzero(data.test_mask)
preds = model.predict(batch([graphs[i] for i in test_idx]))
print(f"  test acc {np.mean(preds == labels[test_idx]):.3f} on {len(test_idx)} held-out graphs")
