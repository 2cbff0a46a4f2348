"""Losses, Adam, the training loop, and evaluation metrics.

``train_loop`` is one epoch loop for both tasks. A batch, an (input,
labels, mask) triple, is the unit of one optimizer step: a node task has
one, the whole graph under its train mask; a graph task one per shuffled
minibatch of ``batch_size`` training graphs, merged under an all-true
mask. ``evaluate`` makes one ``model.predict`` per input and scores each
of its masks. A graph task merges each evaluation split once per call, in
consecutive chunks of ``batch_size`` graphs, and scores it by one predict
per chunk, so no forward spans more than a minibatch of graphs. Such a
predict is an inference forward, which keeps nothing for a backward: every
graph-task evaluation is one, and so is every node-task evaluation with
dropout. A node task without dropout runs one full forward per epoch and no
inference forward: each step after the first starts from the previous
epoch's evaluation ``ForwardTrace``, since nothing changes the parameters
in between and without dropout the train-mode forward equals the
evaluation's. Both tasks select weights the
same way: the loop keeps the parameters of the epoch with the highest
validation metric, ties broken by the lower train loss, and restores them
when it finishes. ``patience`` counts epochs without a strict improvement
of the validation metric. Each history row records the epoch's wall time
and the forward iteration counts of its step (its last one, for a graph
task), so equilibrium cost stays visible. When the loop ends, by return or
by error, it hands back the thread's backward working arrays, which its
steps reused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import numerics
from .datasets import write_rows
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
        raise EmptySelectionError("cross-entropy mask selects no nodes")
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
        raise EmptySelectionError("BCE mask selects no nodes")
    if logits.shape != labels.shape or logits.shape[1] != mask.shape[0]:
        raise ShapeError("logits/labels must be (classes, nodes) matching the mask")
    # log(1 + e^{-|x|}) + max(x, 0) - x*y is the overflow-safe form.
    per = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0) - logits * labels
    denom = count * logits.shape[0]
    loss = float(per[:, mask].sum()) / denom
    with np.errstate(over="ignore"):  # e^-x overflows below x ~ -709, and 1/(1+inf) is 0
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
    _check_lengths("accuracy", preds, labels, mask)
    return float(np.mean(preds[mask] == labels[mask]))


def micro_f1(preds: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """2*TP / (2*TP + FP + FN) aggregated over all (node, class) pairs."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise EmptySelectionError("micro-F1 mask selects no nodes")
    _check_lengths("micro-F1", preds, labels, mask)
    p = preds[:, mask].astype(bool)
    y = labels[:, mask].astype(bool)
    tp = int(np.sum(p & y))
    fp = int(np.sum(p & ~y))
    fn = int(np.sum(~p & y))
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2.0 * tp / denom


def _check_lengths(metric: str, preds: np.ndarray, labels: np.ndarray,
                   mask: np.ndarray) -> None:
    """Raise ``ShapeError`` unless predictions, labels and mask cover as many columns."""
    p, y, m = preds.shape[-1], labels.shape[-1], mask.shape[0]
    if not p == y == m:
        raise ShapeError(f"{metric}: predictions, labels and mask have {p}, {y} and {m} columns")


# -- training loop ---------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Settings of ``train_loop``; ``batch_size`` applies to graph tasks only.

    ``batch_size`` graphs make one training minibatch, and also one chunk
    of an evaluation split, so it bounds what every forward of a graph task
    holds. Training stops early once ``patience`` consecutive epochs bring
    no strict improvement of the validation metric.
    """

    epochs: int = 500
    lr: float = 0.01
    weight_decay: float = 0.0
    seed: int = 0
    patience: int = 100
    batch_size: int = 32

    def __post_init__(self):
        numerics.set_integers(self, "epochs", "seed", "patience", "batch_size")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"training seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def train_loop(model: MultiscaleImplicitGNN, data, cfg: TrainConfig) -> list[dict]:
    """Train and return the per-epoch history; leaves the best-val weights in place.

    ``data`` is a node-task Dataset (graph + train/val/test masks) or a
    graph-task GraphDataset (graphs + per-graph labels + split masks). A
    node task without dropout runs ``epochs + 1`` forwards in all, with
    losses and gradients bit-identical to a fresh forward per step. A
    row's ``iters_per_scale`` holds the forward iteration counts of the
    epoch's (last) step. An empty train or val split, labels of the other
    kind than the model's (multi-hot or class) and labels naming a class
    the model lacks are named before the first epoch.
    """
    for split in ("train", "val"):
        if not np.any(getattr(data, f"{split}_mask")):
            raise EmptySelectionError(f"{split} split selects no "
                                      f"{'graphs' if model.task == 'graph' else 'nodes'}")
    labels = data.labels if model.task == "graph" else data.graph.labels
    _check_label_kind(model, labels)
    if labels.ndim == 2 and labels.shape[0] != model.num_classes:
        raise ShapeError(f"labels have {labels.shape[0]} multi-hot rows, but the model "
                         f"has {model.num_classes} classes")
    if labels.ndim == 1 and labels.size and labels.max() >= model.num_classes:
        raise ShapeError(f"largest label {labels.max()} names a class the model lacks: "
                         f"it has {model.num_classes} classes")
    if model.task == "graph":
        train_idx, val_idx = np.flatnonzero(data.train_mask), np.flatnonzero(data.val_mask)
        # The splits never change, so each is merged once, in chunks of a
        # minibatch's size: an evaluation forward holds no more than a step's.
        eval_sets = [([batch_graphs([data.graphs[i] for i in chunk])
                       for chunk in _chunks(idx, cfg.batch_size)],
                      data.labels[idx], [np.ones(len(idx), dtype=bool)])
                     for idx in (train_idx, val_idx)]

        def batches(rng):
            for chunk in _chunks(rng.permutation(train_idx), cfg.batch_size):
                yield _graph_batch(data, chunk)
    else:
        graph = data.graph
        eval_sets = [(graph, graph.labels, (data.train_mask, data.val_mask))]

        def batches(rng):
            yield graph, graph.labels, data.train_mask
    # Without dropout a node task's train-mode forward repeats the evaluation's.
    reuse_evaluation = model.task == "node" and model.encoder.dropout_rate == 0.0
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = []
    # Among epochs tied on the validation metric, keep the lowest train loss;
    # a tiny validation split saturates long before the model stops improving.
    best_key = (-np.inf, -np.inf)
    best_params = None
    stale = 0
    trace = None  # the last evaluation's forward, at the current parameters
    try:
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            loss, iter_counts = _train_pass(model, batches(rng), rng, opt, params, trace)
            trace = None  # spent; at most one trace is alive at a time
            if reuse_evaluation:
                trace = model.forward(data.graph)
            train_metric, val_metric = [score for eval_set in eval_sets
                                        for score in evaluate(model, *eval_set, trace)]
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
    finally:  # the steps' working arrays (see model) go with the run, or its error
        numerics.release("backward")
    return history


def _train_pass(model, batches, rng, opt, params, trace):
    """One optimizer step per batch; multi-hot labels take ``bce_with_logits``.

    ``trace``, unless None, is the first batch's forward at the current
    parameters, and that step runs none of its own. Returns the mean batch
    loss and the last step's forward iteration counts.
    """
    losses, iter_counts = [], []
    for data, labels, mask in batches:
        loss_fn = bce_with_logits if labels.ndim == 2 else cross_entropy
        if trace is None:
            trace = model.forward(data, train_mode=True, rng=rng)
        loss, grad_logits = loss_fn(trace.logits, labels, mask)
        opt.step(params, model.backward(data, trace, grad_logits))
        losses.append(loss)
        iter_counts = [r.iterations for r in trace.scale_results]
        trace = None
    return float(np.mean(losses)), iter_counts


def _chunks(idx: np.ndarray, size: int) -> list[np.ndarray]:
    """``idx`` cut into consecutive pieces of ``size``, the last one shorter."""
    return [idx[start:start + size] for start in range(0, len(idx), size)]


def _graph_batch(data, idx) -> tuple:
    """(merged batch, labels, all-true mask) of the graphs ``idx`` selects."""
    return (batch_graphs([data.graphs[i] for i in idx]), data.labels[idx],
            np.ones(len(idx), dtype=bool))


def evaluate(model: MultiscaleImplicitGNN, data, labels: np.ndarray, masks,
             trace=None) -> list[float]:
    """``model.predict`` on ``data``; micro-F1 (multi-hot labels) or accuracy per mask.

    ``data`` is a graph or batch, or a list of batches whose predictions
    concatenate in order, one predict each: a split scored in chunks. A
    merge is block-diagonal, so in exact arithmetic a graph's logits depend
    only on its own rows, but for two tests that read the whole chunk: a
    Picard solve's stopping test and the closed form's residual bound. In
    floating point they also depend on the chunk in the last bits: the
    dense products over the n nodes run different BLAS kernels at
    different n. On 32 random weighted trees of 10 to 60 nodes (scales 1
    and 4, one BLAS thread), the logits of 26 graphs at hidden width 4 and
    of 30 at width 16 differ between being scored alone and in one batch,
    by up to 1.4e-14. ``trace``, a forward of a single ``data`` at the
    current parameters, spares the predict its own. The labels must be of
    the model's kind.
    """
    _check_label_kind(model, labels)
    if isinstance(data, list):
        preds = np.concatenate([model.predict(chunk) for chunk in data], axis=-1)
    else:
        preds = model.predict(data, trace)
    metric = micro_f1 if labels.ndim == 2 else accuracy
    return [metric(preds, labels, mask) for mask in masks]


def _check_label_kind(model: MultiscaleImplicitGNN, labels: np.ndarray) -> None:
    """Raise ``ShapeError`` unless ``labels`` are multi-hot exactly when the model is."""
    if (labels.ndim == 2) != model.multilabel:
        kinds = ("class labels", "multi-hot labels")
        raise ShapeError(f"the data has {kinds[labels.ndim == 2]}, but the model "
                         f"predicts {kinds[model.multilabel]}")


# -- history serialization ---------------------------------------------------


def history_to_csv(history: list[dict], path) -> None:
    write_rows(path, [HISTORY_COLUMNS] + [
        [row[c] if c in ("epoch", "iters_per_scale") else float(row[c])
         for c in HISTORY_COLUMNS] for row in history])
