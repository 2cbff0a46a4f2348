"""Effective-range probes: measured perturbation decay vs theoretical bounds.

Protocol: encode the graph features, zero out node p's feature column,
re-encode, solve both equilibria, and record how the per-node change
||dZ*_{:,q}|| falls off with hop distance from p. The decay bound

    ||dZ*_{:,q}||  <=  gamma^(h/m) / (1 - gamma) * ||g^ceil(h/m)(F) dH_p|| * |S^h_{p,q}|

is evaluated from the actual matrices, not just the scalar gamma envelope,
so measured <= bound is checkable hop by hop. The theta-effective range is
the largest hop whose measured change still exceeds theta; its closed-form
upper bound scales linearly in the propagation scale m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, log

import numpy as np

from .datasets import write_rows
from .equilibrium import ScaleModule, SolverConfig, forward_solve, normalized_gram
from .errors import DomainError
from .graph import Graph, hop_distance

CLAMP_FLOOR = 1e-300  # below this, values are denormal noise; clamp to an exact 0


@dataclass(frozen=True)
class DecayCurve:
    """Per-hop measured equilibrium change alongside its theoretical bound."""

    hops: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    gamma: float
    scale_m: int


def measure_decay(module: ScaleModule, graph: Graph, encode, p: int,
                  cfg: SolverConfig = SolverConfig()) -> DecayCurve:
    """Measure max_q ||dZ*_{:,q}|| per hop after zeroing node p's features.

    ``encode`` maps a feature matrix to the injected states (the encoder is
    held fixed so the probe isolates the propagation dynamics). Per-hop
    aggregation takes the max over the nodes at that hop; on a chain there
    is exactly one node per hop.
    """
    if not 0 <= p < graph.n:
        raise IndexError(f"perturbed node {p} out of range for {graph.n} nodes")
    injected = encode(graph.features)
    perturbed_x = graph.features.copy()
    perturbed_x[:, p] = 0.0
    injected_pert = encode(perturbed_x)

    base = forward_solve(module, injected, graph.s, cfg)
    pert = forward_solve(module, injected_pert, graph.s, cfg)
    delta = np.linalg.norm(pert.z_star - base.z_star, axis=0)

    dist = hop_distance(graph, p)
    finite = np.isfinite(dist)
    hops = np.unique(dist[finite]).astype(np.int64)

    measured = np.empty(len(hops))
    for i, h in enumerate(hops):
        measured[i] = delta[dist == h].max()
    measured[measured < CLAMP_FLOOR] = 0.0

    bound = _matrix_bounds(module, graph, p, hops, dist,
                           injected_pert[:, p] - injected[:, p])
    return DecayCurve(hops=hops, measured=measured, bound=bound,
                      gamma=module.gamma, scale_m=module.scale_m)


def _matrix_bounds(module, graph, p, hops, dist, delta_h):
    """Evaluate the decay bound with the actual g(F), S powers, and dH."""
    g = normalized_gram(module.f_weight, module.eps_f)
    max_power = int(ceil(hops.max() / module.scale_m)) if len(hops) else 0
    g_term = np.empty(max_power + 1)
    vec = delta_h.copy()
    g_term[0] = np.linalg.norm(vec)
    for i in range(1, max_power + 1):
        vec = g @ vec
        g_term[i] = np.linalg.norm(vec)

    # |S^h_{p, q}| rows, maximized over the nodes at each hop. Hop distances
    # from p leave no gap, so hops[h] == h.
    row = np.zeros((1, graph.n))
    row[0, p] = 1.0
    s_entry = np.empty(len(hops))
    for h in hops:
        s_entry[h] = np.abs(row[0, dist == h]).max()
        row = row @ graph.s

    prefactor = module.gamma ** (hops / module.scale_m) / (1.0 - module.gamma)
    powers = np.ceil(hops / module.scale_m).astype(np.int64)
    return prefactor * g_term[powers] * s_entry


def range_bound_exact(gamma: float, theta: float, scale_m: int = 1) -> float:
    """The closed-form range bound m * ln(theta(1-gamma)) / ln(gamma), un-floored."""
    if scale_m < 1:
        raise DomainError("scale m must be >= 1")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0, 1), got {theta}")
    return scale_m * log(theta * (1.0 - gamma)) / log(gamma)


def range_bound(gamma: float, theta: float, scale_m: int = 1) -> int:
    """Integer upper bound on the theta-effective range."""
    return int(floor(range_bound_exact(gamma, theta, scale_m)))


def empirical_range(curve: DecayCurve, theta: float) -> int:
    """Largest hop whose measured change exceeds theta; 0 if none does."""
    if theta <= 0.0:
        raise DomainError("theta must be positive")
    above = curve.hops[curve.measured > theta]
    return int(above.max()) if len(above) else 0


def write_curve_csv(curve: DecayCurve, path) -> None:
    write_rows(path, [["hop", "measured", "bound", "gamma", "m"]] + [
        [int(h), float(meas), float(bnd), curve.gamma, curve.scale_m]
        for h, meas, bnd in zip(curve.hops, curve.measured, curve.bound)])
