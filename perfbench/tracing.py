"""Spans around msignn's public functions, recorded from outside the library.

``Tracer`` replaces each traced function under the name its caller looks
up (``msignn.model.forward_solve``, ``msignn.train.batch_graphs``, ...)
and the traced methods on their classes, and puts everything back when
its ``with`` block ends. Every call records a span: name, start, end and
the index of the enclosing span. Spans stay in memory; the caller writes
them out when the run ends.

The solve wrappers also audit each solve. Outside the solve's own span,
inside a ``bench.audit`` span, they recompute the true fixed-point
residual from ``normalized_gram``, S and the returned Z*/U:

    forward:  ||gamma g Z* S^m + H - Z*||_F / ||Z*||_F
    adjoint:  ||gamma g U (S^m)^T + dL/dZ* - U||_F / ||U||_F

These do not depend on how a solver reaches its answer. A forward solve
counts as converged from ``EquilibriumResult.converged``; an adjoint
solve, whose result flag the library does not return, when its residual
is within ``RESIDUAL_SLACK * tol``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

import msignn.datasets
import msignn.graph
import msignn.model
import msignn.numerics
import msignn.train
from msignn.equilibrium import normalized_gram

RESIDUAL_SLACK = 2.0
AUDIT = "bench.audit"
SETUP = "bench.setup"
TRAIN_LOOP = "train.train_loop"
EPOCH = "train.epoch"

# (module, attribute, span name): the names callers look up at call time.
FUNCTIONS = [
    (msignn.datasets, "gen_chains", "datasets.generate"),
    (msignn.datasets, "gen_color_counting", "datasets.generate"),
    (msignn.datasets, "build_graph", "graph.build_graph"),
    (msignn.graph, "build_graph", "graph.build_graph"),
    (msignn.train, "batch_graphs", "graph.batch"),
    (msignn.numerics, "as_csr", "numerics.as_csr"),
    (msignn.numerics, "spmm_right", "numerics.spmm_right"),
    (msignn.model, "weight_gradient", "equilibrium.weight_gradient"),
    (msignn.model, "sum_pool", "model.sum_pool"),
    (msignn.train, "cross_entropy", "train.loss"),
]
METHODS = [
    (msignn.model.MlpEncoder, "forward", "model.encoder.forward"),
    (msignn.model.MlpEncoder, "backward", "model.encoder.backward"),
    (msignn.model.MultiscaleImplicitGNN, "forward", "model.forward"),
    (msignn.model.MultiscaleImplicitGNN, "backward", "model.backward"),
    (msignn.model.MultiscaleImplicitGNN, "predict", "model.predict"),
    (msignn.train.Adam, "step", "train.adam_step"),
]


def propagate(z: np.ndarray, s, m: int) -> np.ndarray:
    """Z S^m with plain scipy products, so no traced kernel is involved."""
    for _ in range(m):
        z = np.asarray(z @ s)
    return z


def forward_residual(module, z_star: np.ndarray, injected: np.ndarray, s) -> float:
    g = normalized_gram(module.f_weight, module.eps_f)
    mapped = module.gamma * (g @ propagate(z_star, s, module.scale_m)) + injected
    return float(np.linalg.norm(mapped - z_star) / np.linalg.norm(z_star))


def adjoint_residual(module, u: np.ndarray, grad_z: np.ndarray, s) -> float:
    g = normalized_gram(module.f_weight, module.eps_f)
    pulled = u
    for _ in range(module.scale_m):
        pulled = np.asarray(s @ pulled.T).T     # U (S^m)^T, one hop at a time
    mapped = module.gamma * (g.T @ pulled) + grad_z
    return float(np.linalg.norm(mapped - u) / np.linalg.norm(u))


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    epoch: int = -1
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans while its ``with`` block is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- solve audits ------------------------------------------------------

    def _forward_solve(self, fn):
        @functools.wraps(fn)
        def traced(module, injected, s, cfg=msignn.model.SolverConfig(), z0=None):
            idx = self.open("equilibrium.forward_solve")
            try:
                result = fn(module, injected, s, cfg, z0)
            finally:
                self.close(idx)
            audit = self.open(AUDIT)
            residual = forward_residual(module, result.z_star, injected, s)
            self.close(audit)
            self.spans[idx].info = {"m": module.scale_m, "iters": result.iterations,
                                    "residual": residual,
                                    "converged": bool(result.converged)}
            return result
        return traced

    def _adjoint_solve(self, fn):
        @functools.wraps(fn)
        def traced(module, s, grad_z, cfg=msignn.model.SolverConfig()):
            idx = self.open("equilibrium.adjoint_solve")
            try:
                u = fn(module, s, grad_z, cfg)
            finally:
                self.close(idx)
            audit = self.open(AUDIT)
            residual = adjoint_residual(module, u, grad_z, s)
            self.close(audit)
            self.spans[idx].info = {"m": module.scale_m, "residual": residual,
                                    "converged": residual <= RESIDUAL_SLACK * cfg.tol}
            return u
        return traced

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        targets = [(mod, attr, self._wrap(name, getattr(mod, attr)))
                   for mod, attr, name in FUNCTIONS]
        targets += [(cls, attr, self._wrap(name, getattr(cls, attr)))
                    for cls, attr, name in METHODS]
        targets.append((msignn.model, "forward_solve",
                        self._forward_solve(msignn.model.forward_solve)))
        targets.append((msignn.model, "adjoint_solve",
                        self._adjoint_solve(msignn.model.adjoint_solve)))
        for owner, attr, replacement in targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def assign_epochs(spans: list[Span], loop_idx: int, epoch_seconds: list[float]) -> list[int]:
    """Split the train_loop span into one ``train.epoch`` span per epoch.

    train_loop ends every epoch with its evaluation, ``model.predict``, and
    starts the next with training calls that reach ``Adam.step`` before any
    further predict. So an epoch ends at the last predict before the next
    optimizer step. The new epoch spans take over the loop's direct
    children, and every span below inherits its epoch id. Returns the
    epoch spans' indices; their count must equal the history's length.
    """
    top = [i for i, s in enumerate(spans) if s.parent == loop_idx]
    bounds, start = [], 0
    for pos, i in enumerate(top):
        if spans[i].name != "model.predict":
            continue
        upcoming = next((spans[j].name for j in top[pos + 1:]
                         if spans[j].name in ("model.predict", "train.adam_step")), None)
        if upcoming != "model.predict":
            bounds.append(top[start:pos + 1])
            start = pos + 1
    if len(bounds) != len(epoch_seconds):
        raise ValueError(f"trace found {len(bounds)} epochs, history has {len(epoch_seconds)}")
    epoch_ids = []
    for e, members in enumerate(bounds):
        first, last = spans[members[0]], spans[members[-1]]
        spans.append(Span(EPOCH, first.start, last.end, parent=loop_idx, epoch=e,
                          info={"seconds": epoch_seconds[e]}))
        epoch_ids.append(len(spans) - 1)
        for i in members:
            spans[i].parent = epoch_ids[-1]
    # A child opens after its parent, so one pass in index order resolves
    # every span; top-level spans point at the epoch spans appended above.
    for s in spans:
        if s.parent >= 0 and s.name != EPOCH:
            s.epoch = spans[s.parent].epoch
    return epoch_ids


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time direct children cover (children never overlap)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own
