"""Fixed-point propagation on a small graph, both ways.

Builds a 6-node undirected graph and solves the contracted propagation map
for its equilibrium twice by Picard iteration: from the closed form that
the eigendecomposition of S, made available by ``build_graph``, gives, and
from zero on a plain CSR copy of S, which carries no eigendecomposition.
Both are checked against the dense Kronecker-system oracle. Solves
stopped after k = 1, 2, ... Picard iterations show the geometric
contraction of the steps that Banach's theorem promises. Each solve
prints its path: "closed form" or "picard".

Run: python3 demos/01_equilibrium_basics.py
"""

import numpy as np
import scipy.sparse as sp

from msignn import (ScaleModule, SolverConfig, build_graph, forward_solve,
                    normalized_gram, oracle_solve)

rng = np.random.default_rng(0)

# a 6-node undirected graph
edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
a = np.zeros((6, 6))
for i, j in edges:
    a[i, j] = a[j, i] = 1.0
graph = build_graph(sp.csr_array(a), rng.standard_normal((3, 6)))

hidden = 4
module = ScaleModule(f_weight=rng.standard_normal((hidden, hidden)) * 0.5,
                     gamma=0.8, scale_m=2)
injected = rng.standard_normal((hidden, 6))

g_norm = np.linalg.norm(normalized_gram(module.f_weight, module.eps_f))
print(f"||g(F)||_F = {g_norm:.6f}  (< 1 by construction, so the map contracts)")

cfg = SolverConfig(tol=1e-10, max_iters=500)
exact = oracle_solve(module, injected, graph.s)

closed = forward_solve(module, injected, graph.s, cfg)
err = np.linalg.norm(closed.z_star - exact) / np.linalg.norm(exact)
print(f"\npath {closed.path!r}, checked by Picard steps from it: {closed.iterations} "
      f"step(s), relative residual {closed.residual:.2e}, {err:.2e} from the dense "
      "Kronecker oracle")

plain_s = sp.csr_array(graph.s)  # a plain copy has no eigendecomposition: Picard
result = forward_solve(module, injected, plain_s, cfg)
err = np.linalg.norm(result.z_star - exact) / np.linalg.norm(exact)
print(f"path {result.path!r} from zero: converged {result.converged} after "
      f"{result.iterations} iterations, final relative residual {result.residual:.2e}, "
      f"{err:.2e} from the oracle")

print("\nPicard steps contract by at most gamma; z_k stops after k iterations:")
z_prev, steps = np.zeros_like(injected), []
for k in range(1, 7):
    z_k = forward_solve(module, injected, plain_s,
                        SolverConfig(tol=1e-300, max_iters=k)).z_star
    steps.append(np.linalg.norm(z_k - z_prev))
    z_prev = z_k
for k in range(1, 6):
    print(f"  step {k + 1}: ||z_{k + 1} - z_{k}|| = {steps[k]:.3e}   ratio "
          f"{steps[k] / steps[k - 1]:.4f} (gamma = {module.gamma})")

two_inits = forward_solve(module, injected, plain_s, cfg,
                          z0=rng.standard_normal((hidden, 6)) * 10)
gap = np.linalg.norm(two_inits.z_star - result.z_star)
print(f"uniqueness: path {two_inits.path!r} started far away lands on the same point "
      f"(gap {gap:.2e})")
