"""Full multiscale implicit model: encoder, scale bank, attention fusion, decoder.

Forward pass (node task):

    H      = MLP(X)                          encoder, dropout in train mode
    Z*_t   = fixpoint of gamma g(F_t) Z S^{m_t} + H   one solve per scale
    beta_it = q . tanh(W_a z*_it + b_a)      per-node, per-scale attention logit
    alpha_i = softmax_t(beta_i)              mixture over scales per node
    Z'_i   = sum_t alpha_it z*_it
    Yhat   = W_dec Z'                        linear decoder, no bias

Graph tasks sum-pool Z' per graph (a Graph is a batch of one) before the
decoder. The backward pass is hand-written: the loss gradient on each Z*_t
(through both the attention weights and the weighted sum) enters the
adjoint solve of ``equilibrium``, whose output backpropagates into F_t
and, summed across scales, through the encoder. No autodiff framework is
involved, so every formula here is covered by finite-difference checks in
the test suite.

Parameters are exposed as a flat name -> ndarray dict of live references;
the optimizer updates them in place between forward/backward passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import numerics
from .equilibrium import (EquilibriumResult, ScaleModule, SolverConfig,
                          adjoint_solve, forward_solve, weight_gradient)
from .errors import ShapeError
from .graph import Graph, GraphBatch

CHECKPOINT_FORMAT = "msignn-checkpoint"
CHECKPOINT_VERSION = 1
CHECKPOINT_CONFIG_KEYS = ("task", "hidden_dim", "num_classes", "encoder_dims",
                          "encoder_bias", "dropout", "scales", "solver")


class MlpEncoder:
    """Column-wise MLP mapping features (d x n) to injected states (h x n).

    ReLU between layers; dropout (inverted scaling) on hidden activations in
    train mode only. With ``biases=None`` the encoder is purely linear per
    layer, so all-zero feature columns map to exactly zero forever; that
    keeps long synthetic-chain signals free of a baseline that would
    otherwise absorb them in floating point.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray] | None = None,
                 dropout_rate: float = 0.0):
        if not weights:
            raise ValueError("encoder needs at least one layer, got 0")
        if biases is not None and len(weights) != len(biases):
            raise ShapeError("encoder needs one bias per weight matrix")
        for i in range(1, len(weights)):
            if weights[i].shape[1] != weights[i - 1].shape[0]:
                raise ShapeError(
                    f"encoder layer {i} input dim {weights[i].shape[1]} does not "
                    f"chain with previous output dim {weights[i - 1].shape[0]}")
        if biases is not None:
            for w, b in zip(weights, biases):
                if b.shape != (w.shape[0],):
                    raise ShapeError(f"bias shape {b.shape} != ({w.shape[0]},)")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.weights = weights
        self.biases = biases
        self.dropout_rate = dropout_rate

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def forward(self, x: np.ndarray, train_mode: bool = False, rng=None):
        """Returns (output, cache); the cache feeds backward()."""
        if x.shape[0] != self.in_dim:
            raise ShapeError(f"encoder expects {self.in_dim} features, got {x.shape[0]}")
        use_dropout = train_mode and self.dropout_rate > 0.0
        if use_dropout and rng is None:
            raise ValueError("dropout in train mode needs an rng")
        a = x
        inputs, gates, masks = [], [], []
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            inputs.append(a)
            z = w @ a
            if self.biases is not None:
                z = z + self.biases[i][:, None]
            if i < last:
                gate = z > 0.0
                a = np.where(gate, z, 0.0)
                if use_dropout:
                    mask = (rng.random(a.shape) >= self.dropout_rate) / (1.0 - self.dropout_rate)
                    a = a * mask
                else:
                    mask = None
                gates.append(gate)
                masks.append(mask)
            else:
                a = z
        return a, (inputs, gates, masks)

    def backward(self, cache, grad_out: np.ndarray):
        """Gradient of a scalar loss wrt weights/biases given d(loss)/d(output)."""
        inputs, gates, masks = cache
        grad_ws = [None] * len(self.weights)
        grad_bs = [None] * len(self.weights) if self.biases is not None else None
        grad = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            if i < len(self.weights) - 1:
                if masks[i] is not None:
                    grad = grad * masks[i]
                grad = grad * gates[i]
            grad_ws[i] = grad @ inputs[i].T
            if grad_bs is not None:
                grad_bs[i] = grad.sum(axis=1)
            grad = self.weights[i].T @ grad
        return grad_ws, grad_bs


@dataclass
class AttentionParams:
    """Scale-attention parameters: score_it = q . tanh(W_a z_it + b_a)."""

    w_a: np.ndarray
    b_a: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if self.w_a.ndim != 2:
            raise ShapeError("W_a must be a matrix")
        if self.b_a.shape != (self.w_a.shape[0],) or self.q.shape != (self.w_a.shape[0],):
            raise ShapeError("attention dims do not chain: q and b_a must match W_a rows")


@dataclass
class ForwardTrace:
    """Everything the backward pass and the diagnostics need from one forward."""

    injected: np.ndarray
    encoder_cache: tuple
    scale_results: list[EquilibriumResult]
    tanh_acts: list[np.ndarray]
    alphas: np.ndarray         # (n, k) softmax weights, rows sum to 1
    z_prime: np.ndarray        # (h, n) fused equilibrium
    pooled: np.ndarray | None  # (h, num_graphs) for graph tasks
    logits: np.ndarray


class MultiscaleImplicitGNN:
    """Encoder + parallel implicit scale modules + attention fusion + decoder.

    The scale exponents must be pairwise distinct.
    """

    def __init__(self, encoder: MlpEncoder, scales: list[ScaleModule],
                 attention: AttentionParams, decoder_weight: np.ndarray,
                 task: str = "node", solver_cfg: SolverConfig = SolverConfig()):
        if task not in ("node", "graph"):
            raise ValueError(f"task must be 'node' or 'graph', got {task!r}")
        if not scales:
            raise ValueError("need at least one scale module")
        hidden = scales[0].hidden_dim
        for mod in scales:
            if mod.hidden_dim != hidden:
                raise ShapeError("all scale modules must share the hidden dim")
        exponents = [mod.scale_m for mod in scales]
        if len(set(exponents)) != len(exponents):
            raise ValueError(f"scale exponents must be pairwise distinct, got {exponents}")
        if encoder.out_dim != hidden:
            raise ShapeError(f"encoder output dim {encoder.out_dim} != hidden dim {hidden}")
        if attention.w_a.shape != (hidden, hidden):
            raise ShapeError("attention W_a must be hidden x hidden")
        if decoder_weight.shape[1] != hidden:
            raise ShapeError("decoder columns must equal the hidden dim")
        self.encoder = encoder
        self.scales = scales
        self.attention = attention
        self.decoder_weight = decoder_weight
        self.task = task
        self.solver_cfg = solver_cfg

    # -- plumbing ---------------------------------------------------------

    @property
    def hidden_dim(self) -> int:
        return self.scales[0].hidden_dim

    @property
    def num_classes(self) -> int:
        return self.decoder_weight.shape[0]

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every trainable tensor (live references)."""
        params = {}
        for i, w in enumerate(self.encoder.weights):
            params[f"encoder.w{i}"] = w
            if self.encoder.biases is not None:
                params[f"encoder.b{i}"] = self.encoder.biases[i]
        for t, mod in enumerate(self.scales):
            params[f"scales.{t}.f"] = mod.f_weight
        params["attention.w_a"] = self.attention.w_a
        params["attention.b_a"] = self.attention.b_a
        params["attention.q"] = self.attention.q
        params["decoder.w"] = self.decoder_weight
        return params

    # -- forward ----------------------------------------------------------

    def forward(self, data: Graph | GraphBatch, train_mode: bool = False,
                rng=None) -> ForwardTrace:
        injected, enc_cache = self.encoder.forward(data.features, train_mode, rng)
        results = [forward_solve(mod, injected, data.s, self.solver_cfg)
                   for mod in self.scales]
        k = len(self.scales)
        betas = np.empty((data.n, k))
        tanh_acts = []
        att = self.attention
        for t, res in enumerate(results):
            acts = np.tanh(att.w_a @ res.z_star + att.b_a[:, None])
            tanh_acts.append(acts)
            betas[:, t] = acts.T @ att.q
        alphas = numerics.softmax_rows(betas)
        z_prime = np.zeros_like(results[0].z_star)
        for t, res in enumerate(results):
            z_prime += res.z_star * alphas[:, t][None, :]
        pooled = sum_pool(z_prime, data) if self.task == "graph" else None
        logits = self.decoder_weight @ (z_prime if pooled is None else pooled)
        return ForwardTrace(injected=injected, encoder_cache=enc_cache,
                            scale_results=results, tanh_acts=tanh_acts,
                            alphas=alphas, z_prime=z_prime,
                            pooled=pooled, logits=logits)

    # -- backward ---------------------------------------------------------

    def backward(self, data: Graph | GraphBatch, trace: ForwardTrace,
                 grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss for every parameter, given d(loss)/d(logits)."""
        if grad_logits.shape != trace.logits.shape:
            raise ShapeError(
                f"grad_logits shape {grad_logits.shape} != logits {trace.logits.shape}")
        att = self.attention
        grads: dict[str, np.ndarray] = {}
        readout = trace.z_prime if trace.pooled is None else trace.pooled
        grads["decoder.w"] = grad_logits @ readout.T
        d_zp = self.decoder_weight.T @ grad_logits
        if self.task == "graph":
            d_zp = d_zp[:, data.graph_of_node]  # each node takes its graph's gradient

        k = len(self.scales)
        # Value path: Z' = sum_t alpha_t * Z_t, so each scale sees alpha-scaled d_zp
        # and each alpha sees the inner product of d_zp with its equilibrium.
        d_alpha = np.empty((data.n, k))
        for t in range(k):
            d_alpha[:, t] = np.sum(d_zp * trace.scale_results[t].z_star, axis=0)
        # Softmax backward per node (rows of alpha sum to 1).
        inner = np.sum(d_alpha * trace.alphas, axis=1, keepdims=True)
        d_beta = trace.alphas * (d_alpha - inner)

        d_q = np.zeros_like(att.q)
        d_wa = np.zeros_like(att.w_a)
        d_ba = np.zeros_like(att.b_a)
        d_injected = np.zeros_like(trace.injected)
        for t, mod in enumerate(self.scales):
            z_t = trace.scale_results[t].z_star
            acts = trace.tanh_acts[t]
            db = d_beta[:, t]
            d_q += acts @ db
            d_pre = (att.q[:, None] * db[None, :]) * (1.0 - acts * acts)
            d_wa += d_pre @ z_t.T
            d_ba += d_pre.sum(axis=1)
            d_zt = d_zp * trace.alphas[:, t][None, :] + att.w_a.T @ d_pre
            u = adjoint_solve(mod, data.s, d_zt, self.solver_cfg)
            grads[f"scales.{t}.f"] = weight_gradient(mod, u, z_t, data.s)
            d_injected += u  # the map is the identity in H
        grads["attention.q"] = d_q
        grads["attention.w_a"] = d_wa
        grads["attention.b_a"] = d_ba

        grad_ws, grad_bs = self.encoder.backward(trace.encoder_cache, d_injected)
        for i, gw in enumerate(grad_ws):
            grads[f"encoder.w{i}"] = gw
            if grad_bs is not None:
                grads[f"encoder.b{i}"] = grad_bs[i]
        return grads

    # -- inference --------------------------------------------------------

    def predict(self, data: Graph | GraphBatch) -> np.ndarray:
        """Class per column (argmax, ties to the lower index) or multi-hot at logit > 0."""
        logits = self.forward(data).logits
        if data.multilabel and self.task == "node":
            return (logits > 0.0).astype(np.int64)
        return np.argmax(logits, axis=0)


def sum_pool(z: np.ndarray, batch: Graph | GraphBatch) -> np.ndarray:
    """Sum node columns within each graph: output column g = sum of z[:, i] with i in g."""
    if z.shape[1] != batch.graph_of_node.shape[0]:
        raise ShapeError(
            f"z has {z.shape[1]} columns but the batch has {batch.graph_of_node.shape[0]} nodes")
    out = np.zeros((z.shape[0], batch.num_graphs))
    np.add.at(out.T, batch.graph_of_node, z.T)
    return out


# -- initialization -------------------------------------------------------


def glorot_uniform(rng, fan_out: int, fan_in: int, gain: float = 1.0) -> np.ndarray:
    if min(fan_out, fan_in) < 1:
        raise ValueError(f"weight sizes must be positive, got {fan_out} x {fan_in}")
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def init_model(rng, feature_dim: int, hidden_dim: int, num_classes: int,
               scale_exponents=(1,), gamma: float = 0.8, eps_f: float = 1e-5,
               encoder_layers: int = 2, dropout: float = 0.0,
               encoder_bias: bool = True, task: str = "node",
               solver_cfg: SolverConfig = SolverConfig()) -> MultiscaleImplicitGNN:
    """Build a model with Glorot-uniform weights and zero biases.

    F matrices use the same init scaled by 0.5, keeping the initial ||g(F)||
    comfortably away from the eps-dominated regime. The attention width is
    the hidden dim. ``encoder_bias=False`` drops the encoder bias terms
    entirely (useful when zero feature columns must stay exactly zero).
    """
    if encoder_layers < 1:
        raise ValueError(f"encoder needs at least one layer, got {encoder_layers}")
    dims = [feature_dim] + [hidden_dim] * encoder_layers
    weights = [glorot_uniform(rng, dims[i + 1], dims[i]) for i in range(encoder_layers)]
    biases = [np.zeros(dims[i + 1]) for i in range(encoder_layers)] if encoder_bias else None
    encoder = MlpEncoder(weights, biases, dropout_rate=dropout)
    scales = [ScaleModule(f_weight=glorot_uniform(rng, hidden_dim, hidden_dim, gain=0.5),
                          gamma=gamma, scale_m=int(m), eps_f=eps_f)
              for m in scale_exponents]
    q_limit = np.sqrt(6.0 / (hidden_dim + 1))
    attention = AttentionParams(
        w_a=glorot_uniform(rng, hidden_dim, hidden_dim),
        b_a=np.zeros(hidden_dim),
        q=rng.uniform(-q_limit, q_limit, size=hidden_dim))
    decoder = glorot_uniform(rng, num_classes, hidden_dim)
    return MultiscaleImplicitGNN(encoder, scales, attention, decoder, task=task,
                                 solver_cfg=solver_cfg)


# -- checkpointing --------------------------------------------------------


def save_checkpoint(model: MultiscaleImplicitGNN, path) -> None:
    """Versioned JSON dump; floats round-trip exactly via repr serialization."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {
            "task": model.task,
            "hidden_dim": model.hidden_dim,
            "num_classes": model.num_classes,
            "encoder_dims": [model.encoder.in_dim]
                            + [w.shape[0] for w in model.encoder.weights],
            "encoder_bias": model.encoder.biases is not None,
            "dropout": model.encoder.dropout_rate,
            "scales": [{"m": mod.scale_m, "gamma": mod.gamma, "eps_f": mod.eps_f}
                       for mod in model.scales],
            "solver": {"tol": model.solver_cfg.tol,
                       "max_iters": model.solver_cfg.max_iters},
        },
        "params": {name: arr.tolist() for name, arr in model.parameters().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _require_keys(mapping: dict, keys, prefix: str, path) -> None:
    for key in keys:
        if key not in mapping:
            raise ValueError(f"{path}: missing key {prefix + key!r}")


def load_checkpoint(path) -> MultiscaleImplicitGNN:
    """Rebuild a saved model; rejects a file whose scales repeat an exponent.

    Its config must hold every key ``save_checkpoint`` writes, and its
    parameters must be exactly those its config implies, each with the
    implied shape; a ``ValueError`` names the file and the key or parameter.
    Older files may carry keys no longer written, ``attention_dim`` (always
    the hidden dim) and ``solver.strict``; they are ignored.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    _require_keys(payload, ("config", "params"), "", path)
    cfg = payload["config"]
    _require_keys(cfg, CHECKPOINT_CONFIG_KEYS, "config.", path)
    _require_keys(cfg["solver"], ("tol", "max_iters"), "config.solver.", path)
    for t, sc in enumerate(cfg["scales"]):
        _require_keys(sc, ("m", "gamma", "eps_f"), f"config.scales[{t}].", path)
    params = {name: np.asarray(value, dtype=np.float64)
              for name, value in payload["params"].items()}
    dims, hidden = cfg["encoder_dims"], cfg["hidden_dim"]
    n_layers = len(dims) - 1
    expected = {f"scales.{t}.f": (hidden, hidden) for t in range(len(cfg["scales"]))}
    for i in range(n_layers):
        expected[f"encoder.w{i}"] = (dims[i + 1], dims[i])
        if cfg["encoder_bias"]:
            expected[f"encoder.b{i}"] = (dims[i + 1],)
    expected.update({"attention.w_a": (hidden, hidden), "attention.b_a": (hidden,),
                     "attention.q": (hidden,), "decoder.w": (cfg["num_classes"], hidden)})
    for name in sorted(expected.keys() | params.keys()):
        if name not in params or name not in expected:
            kind = "missing" if name in expected else "unknown"
            raise ValueError(f"{path}: {kind} parameter {name!r}")
        if params[name].shape != expected[name]:
            raise ValueError(f"{path}: parameter {name!r} has shape {params[name].shape}, "
                             f"expected {expected[name]}")
    biases = ([params[f"encoder.b{i}"] for i in range(n_layers)]
              if cfg["encoder_bias"] else None)
    encoder = MlpEncoder([params[f"encoder.w{i}"] for i in range(n_layers)],
                         biases, dropout_rate=cfg["dropout"])
    scales = [ScaleModule(f_weight=params[f"scales.{t}.f"], gamma=sc["gamma"],
                          scale_m=sc["m"], eps_f=sc["eps_f"])
              for t, sc in enumerate(cfg["scales"])]
    attention = AttentionParams(w_a=params["attention.w_a"],
                                b_a=params["attention.b_a"],
                                q=params["attention.q"])
    solver = SolverConfig(tol=cfg["solver"]["tol"], max_iters=cfg["solver"]["max_iters"])
    return MultiscaleImplicitGNN(encoder, scales, attention, params["decoder.w"],
                                 task=cfg["task"], solver_cfg=solver)
