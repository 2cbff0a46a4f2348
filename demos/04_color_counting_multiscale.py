"""Multiscale propagation on the color-counting task.

Every node of an (undirected) chain is labeled with the chain's majority
color, but only a fraction of nodes carry a color in their features, so a
correct prediction needs color counts aggregated across the whole chain.
Mixing propagation scales {1, 4, 8} through per-node attention lets each
node pull from several neighborhood radii at once; this script compares
that against the single-scale variant.

Run: python3 demos/04_color_counting_multiscale.py
"""

import numpy as np

from msignn import (ColorCountingSpec, SolverConfig, TrainConfig, accuracy,
                    gen_color_counting, init_model, train_loop)

LENGTH = 30
SEEDS = (0, 1, 2)


def run(scales, seed):
    ds = gen_color_counting(ColorCountingSpec(length=LENGTH, seed=seed))
    graph = ds.graph
    rng = np.random.default_rng(seed)
    model = init_model(rng, graph.feature_dim, hidden_dim=16,
                       num_classes=graph.num_classes, scale_exponents=scales,
                       solver_cfg=SolverConfig(tol=1e-6, max_iters=300))
    train_loop(model, ds, TrainConfig(epochs=150, lr=0.05, seed=seed, patience=50))
    return accuracy(model.predict(graph), graph.labels, ds.test_mask)


print(f"color counting: {ColorCountingSpec().num_chains} chains of length {LENGTH}, "
      f"{ColorCountingSpec().num_colors} colors, "
      f"{ColorCountingSpec().colored_fraction:.0%} of nodes colored\n")

for scales in ((1,), (1, 4, 8)):
    accs = [run(scales, seed) for seed in SEEDS]
    print(f"M = {set(scales)}: test accuracy per seed "
          f"{[f'{a:.3f}' for a in accs]}, mean {np.mean(accs):.4f}")

print("\neach application of S^m spans m hops, so information decays like gamma^(h/m)")
print("with hop distance h: the multiscale set reaches farther along each chain and")
print("mixes neighborhood radii per node through the attention weights.")
