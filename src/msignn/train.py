"""Losses, Adam, the training loop, and evaluation metrics.

``train_loop`` is one epoch loop for both tasks. Only the training pass
differs: node tasks take one full-batch step on the masked nodes, graph
tasks one step per shuffled minibatch of ``batch_size`` training graphs.
Each epoch ends with one evaluation forward per split; graph tasks merge
each split's graphs into one batch once per call.
Both tasks select weights the same way: the loop keeps the parameters of
the epoch with the highest validation metric, ties broken by the lower
train loss, and restores them when it finishes. ``patience`` counts
epochs without a strict improvement of the validation metric. Each
history row records the epoch's solver iteration counts and wall time, so
equilibrium cost stays visible.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .errors import EmptySelectionError, ShapeError
from .graph import batch as batch_graphs
from .model import MultiscaleImplicitGNN

HISTORY_COLUMNS = ["epoch", "train_loss", "train_acc", "val_acc",
                   "iters_per_scale", "seconds"]
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# -- losses ----------------------------------------------------------------


def cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """Mean softmax cross-entropy over masked columns; returns (loss, grad_logits).

    Gradient is zero outside the mask.
    """
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise EmptySelectionError("loss mask selects no nodes")
    if logits.shape[1] != mask.shape[0] or labels.shape[0] != mask.shape[0]:
        raise ShapeError("logits, labels and mask disagree on node count")
    shifted = logits - logits.max(axis=0, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=0))
    idx = np.arange(logits.shape[1])
    log_probs = shifted[labels, idx] - log_z
    loss = -float(log_probs[mask].sum()) / count
    probs = np.exp(shifted - log_z)
    grad = probs
    grad[labels, idx] -= 1.0
    grad[:, ~mask] = 0.0
    grad /= count
    return loss, grad


def bce_with_logits(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """Per-class sigmoid cross-entropy averaged over masked (node, class) pairs."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise EmptySelectionError("loss mask selects no nodes")
    if logits.shape != labels.shape or logits.shape[1] != mask.shape[0]:
        raise ShapeError("logits/labels must be (classes, nodes) matching the mask")
    # log(1 + e^{-|x|}) + max(x, 0) - x*y is the overflow-safe form.
    per = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0) - logits * labels
    denom = count * logits.shape[0]
    loss = float(per[:, mask].sum()) / denom
    sig = 1.0 / (1.0 + np.exp(-logits))
    grad = (sig - labels) / denom
    grad[:, ~mask] = 0.0
    return loss, grad


# -- optimizer -------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a flat name -> array parameter dict.

    The moment decay rates and the denominator's epsilon are the usual
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. Weight decay is added
    to the gradient before the moment updates and is skipped for bias
    vectors (names whose leaf starts with 'b').
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 0.01,
                 weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}

    @staticmethod
    def _decays(name: str) -> bool:
        return not name.rsplit(".", 1)[-1].startswith("b")

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """One in-place update; shapes must match the state exactly."""
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} for {name}")
            if self.weight_decay and self._decays(name):
                g = g + self.weight_decay * p
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- metrics ---------------------------------------------------------------


def accuracy(preds: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise EmptySelectionError("accuracy mask selects no nodes")
    return float(np.mean(preds[mask] == labels[mask]))


def micro_f1(preds: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """2*TP / (2*TP + FP + FN) aggregated over all (node, class) pairs."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise EmptySelectionError("micro-F1 mask selects no nodes")
    p = preds[:, mask].astype(bool)
    y = labels[:, mask].astype(bool)
    tp = int(np.sum(p & y))
    fp = int(np.sum(p & ~y))
    fn = int(np.sum(~p & y))
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2.0 * tp / denom


# -- training loop ---------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Settings of ``train_loop``; ``batch_size`` applies to graph tasks only.

    Training stops early once ``patience`` consecutive epochs bring no
    strict improvement of the validation metric.
    """

    epochs: int = 500
    lr: float = 0.01
    weight_decay: float = 0.0
    seed: int = 0
    patience: int = 100
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


def train_loop(model: MultiscaleImplicitGNN, data, cfg: TrainConfig) -> list[dict]:
    """Train and return the per-epoch history; leaves the best-val weights in place.

    ``data`` is a node-task Dataset (graph + train/val/test masks) or a
    graph-task GraphDataset (graphs + per-graph labels + split masks).
    """
    masks = (data.train_mask, data.val_mask)
    if model.task == "graph":
        # The splits never change, so each is merged into one batch once.
        train_pass, evaluate = _graph_pass, _graph_eval
        eval_sets = _graph_splits(data, masks)
    else:
        train_pass, evaluate = _node_pass, _node_eval
        eval_sets = masks
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = []
    # Among epochs tied on the validation metric, keep the lowest train loss;
    # a tiny validation split saturates long before the model stops improving.
    best_key = (-np.inf, -np.inf)
    best_params = None
    stale = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        loss, iter_counts = train_pass(model, data, cfg, rng, opt, params)
        train_metric, val_metric = evaluate(model, data, eval_sets)
        seconds = time.perf_counter() - t0
        history.append({
            "epoch": epoch,
            "train_loss": loss,
            "train_acc": train_metric,
            "val_acc": val_metric,
            "iters_per_scale": ";".join(str(c) for c in iter_counts),
            "seconds": seconds,
        })
        improved_val = val_metric > best_key[0]
        if (val_metric, -loss) > best_key:
            best_key = (val_metric, -loss)
            best_params = {k: v.copy() for k, v in params.items()}
        if improved_val:
            stale = 0
        else:
            stale += 1
            if stale > cfg.patience:
                break
    if best_params is not None:
        for k, v in params.items():
            v[...] = best_params[k]
    return history


def _node_pass(model, data, cfg, rng, opt, params):
    """One full-batch step on the masked training nodes; returns (loss, iterations)."""
    graph = data.graph
    loss_fn = bce_with_logits if graph.multilabel else cross_entropy
    trace = model.forward(graph, train_mode=True, rng=rng)
    loss, grad_logits = loss_fn(trace.logits, graph.labels, data.train_mask)
    opt.step(params, model.backward(graph, trace, grad_logits))
    return loss, [r.iterations for r in trace.scale_results]


def _graph_pass(model, data, cfg, rng, opt, params):
    """One step per shuffled minibatch of training graphs.

    Returns the mean minibatch loss and the last forward's iterations.
    """
    order = rng.permutation(np.flatnonzero(data.train_mask))
    losses, iter_counts = [], []
    for start in range(0, len(order), cfg.batch_size):
        chunk = order[start:start + cfg.batch_size]
        minibatch = batch_graphs([data.graphs[i] for i in chunk])
        trace = model.forward(minibatch, train_mode=True, rng=rng)
        loss, grad_logits = cross_entropy(trace.logits, data.labels[chunk],
                                          np.ones(len(chunk), dtype=bool))
        opt.step(params, model.backward(minibatch, trace, grad_logits))
        losses.append(loss)
        iter_counts = [r.iterations for r in trace.scale_results]
    return float(np.mean(losses)), iter_counts


def _node_eval(model, data, masks) -> list[float]:
    """Metric on several node masks from one forward pass."""
    graph = data.graph
    preds = model.predict(graph)
    metric = micro_f1 if graph.multilabel else accuracy
    return [metric(preds, graph.labels, m) for m in masks]


def _graph_splits(data, masks) -> list[tuple]:
    """(merged batch, labels) of the graphs each mask selects."""
    splits = []
    for mask in masks:
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            raise EmptySelectionError("graph split selects no graphs")
        splits.append((batch_graphs([data.graphs[i] for i in idx]), data.labels[idx]))
    return splits


def _graph_eval(model, data, splits) -> list[float]:
    """Accuracy on several merged graph splits, one batched forward pass per split."""
    return [float(np.mean(model.predict(merged) == labels)) for merged, labels in splits]


# -- history serialization ---------------------------------------------------


def history_to_csv(history: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow([row[c] if c in ("epoch", "iters_per_scale")
                             else repr(float(row[c])) for c in HISTORY_COLUMNS])
