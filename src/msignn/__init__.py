"""Multiscale implicit graph neural networks.

A library for gamma-contracted fixed-point propagation at multiple
adjacency scales, attention fusion of the per-scale equilibria, training
by implicit differentiation, synthetic long-range benchmarks, and
effective-range probes that compare measured perturbation decay with its
closed-form bounds.
"""

from .datasets import (ChainsSpec, ColorCountingSpec, Dataset, GraphDataset,
                       gen_chains, gen_color_counting, load_dataset, load_graph,
                       save_dataset)
from .equilibrium import (EquilibriumResult, ScaleModule, SolverConfig,
                          adjoint_solve, forward_solve, normalized_gram,
                          oracle_solve, weight_gradient)
from .graph import Graph, GraphBatch, batch, build_graph, hop_distance
from .model import (AttentionParams, ForwardTrace, MlpEncoder,
                    MultiscaleImplicitGNN, init_model, load_checkpoint,
                    save_checkpoint, sum_pool)
from .probe import (DecayCurve, empirical_range, measure_decay, range_bound,
                    range_bound_exact, write_curve_csv)
from .train import (Adam, TrainConfig, accuracy, bce_with_logits, cross_entropy,
                    history_to_csv, micro_f1, train_loop)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AttentionParams", "ChainsSpec", "ColorCountingSpec", "Dataset",
    "DecayCurve", "EquilibriumResult", "ForwardTrace", "Graph", "GraphBatch",
    "GraphDataset", "MlpEncoder", "MultiscaleImplicitGNN", "ScaleModule",
    "SolverConfig", "TrainConfig", "accuracy", "adjoint_solve", "batch",
    "bce_with_logits", "build_graph", "cross_entropy", "empirical_range",
    "forward_solve", "gen_chains", "gen_color_counting", "history_to_csv",
    "hop_distance", "init_model", "load_checkpoint",
    "load_dataset", "load_graph", "measure_decay", "micro_f1",
    "normalized_gram", "oracle_solve", "range_bound", "range_bound_exact",
    "save_checkpoint", "save_dataset", "sum_pool",
    "train_loop", "weight_gradient", "write_curve_csv",
]
