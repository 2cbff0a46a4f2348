"""Full multiscale implicit model: encoder, scale bank, attention fusion, decoder.

Forward pass (node task):

    H      = MLP(X)                          encoder, dropout in train mode
    Z*_t   = fixpoint of gamma g(F_t) Z S^{m_t} + H   one solve per scale
    beta_it = q . tanh(W_a z*_it + b_a)      per-node, per-scale attention logit
    alpha_i = softmax_t(beta_i)              mixture over scales per node
    Z'_i   = sum_t alpha_it z*_it
    Yhat   = W_dec Z'                        linear decoder, no bias

Graph tasks sum-pool Z' per graph (a Graph is a batch of one) before the
decoder. Per-node, per-scale values (beta, alpha and their gradients) are
(k, n) arrays, one row per scale, so each step over them runs along the n
nodes, not along the few scales of one node; ``ForwardTrace.alphas`` is
the (n, k) transpose of that array, a view. The fusion writes each
scale's alpha-weighted Z* into one buffer, and every product keeps the
association of the formulas above.

``predict`` without a trace runs the same forward loop in inference mode,
which keeps only what the logits need: the encoder cache goes once H is
made, each solve's basis and eigen-coefficients once it returns (so the
next solve reuses their memory), every scale's tanh activations share one
buffer, since only beta is read, and H goes after the last solve. The k Z*
stay until the fusion, because the softmax needs every beta first. The
operations and their order are those of ``forward``, so the logits are
bit-identical; on a 900-node graph with h = 16 and three scales the peak
falls from ~14 to ~6 n x h arrays once the solves' reused right-hand side
array (see ``equilibrium``) is made.

The backward pass is hand-written: the loss gradient on each Z*_t
(through both the attention weights and the weighted sum) enters the
adjoint solve of ``equilibrium``, whose output backpropagates into F_t
and, summed across scales, through the encoder. No autodiff framework is
involved, so every formula here is covered by finite-difference checks in
the test suite. The backward writes its three per-scale n x h temporaries
into three arrays the calling thread reuses from step to step while n does
not change (the "backward" slot of ``numerics.reused``, as each solve
reuses its right-hand side array), so a training step does not hand
their pages back to the system and fault them in again; ``train_loop``
releases them when it ends, by return or by error. A reused array never
outlives the call that filled it: nothing in a ``ForwardTrace`` or a gradient dict is
one.

Parameters are exposed as a flat name -> ndarray dict of live references;
the optimizer updates them in place between forward/backward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .equilibrium import (EquilibriumResult, ScaleModule, SolverConfig,
                          adjoint_solve, forward_solve, weight_gradient)
from .errors import ShapeError
from .graph import GraphBatch
from .jsonio import check_json, read_json, write_json

CHECKPOINT_FORMAT = "msignn-checkpoint"
CHECKPOINT_VERSION = 1
# What ``save_checkpoint`` writes, as a ``jsonio`` schema. Older files may
# carry ``attention_dim`` (always the hidden dim) and ``solver.strict``, keys
# no longer written; they are ignored. Files written before ``multilabel``
# was recorded load as class-label models.
CHECKPOINT_SCHEMA = {"format": "string", "version": "integer", "params": "object", "config": {
    "task": "string", "multilabel?": "boolean", "hidden_dim": "count", "num_classes": "count",
    "encoder_dims": ["count"], "encoder_bias": "boolean", "dropout": "number",
    "scales": [{"m": "integer", "gamma": "number", "eps_f": "number"}],
    "solver": {"tol": "number", "max_iters": "integer", "strict?": "boolean"},
    "attention_dim?": "integer"}}


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
    """Everything the backward pass and the diagnostics need from one forward.

    An inference forward (``predict`` without a trace) builds none of it.
    """

    injected: np.ndarray
    encoder_cache: tuple
    scale_results: list[EquilibriumResult]
    tanh_acts: list[np.ndarray]
    alphas: np.ndarray         # (n, k) softmax weights, rows sum to 1; a view of (k, n)
    z_prime: np.ndarray        # (h, n) fused equilibrium
    pooled: np.ndarray | None  # (h, num_graphs) for graph tasks
    logits: np.ndarray


class MultiscaleImplicitGNN:
    """Encoder + parallel implicit scale modules + attention fusion + decoder.

    The scale exponents must be pairwise distinct. ``multilabel`` fixes the
    kind of labels the model predicts and trains on: multi-hot, one 0/1
    per class, or one class per column. Only a node task can be multilabel.
    """

    def __init__(self, encoder: MlpEncoder, scales: list[ScaleModule],
                 attention: AttentionParams, decoder_weight: np.ndarray,
                 task: str = "node", solver_cfg: SolverConfig = SolverConfig(),
                 multilabel: bool = False):
        if task not in ("node", "graph"):
            raise ValueError(f"task must be 'node' or 'graph', got {task!r}")
        if multilabel and task == "graph":
            raise ValueError("a graph task has one class per graph; it cannot be multilabel")
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
        self.multilabel = multilabel
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

    def forward(self, data: GraphBatch, train_mode: bool = False,
                rng=None) -> ForwardTrace:
        """The full forward: its trace holds all that ``backward`` reads."""
        return self._forward(data, train_mode, rng, keep=True)

    def _forward(self, data: GraphBatch, train_mode: bool, rng,
                 keep: bool) -> ForwardTrace | np.ndarray:
        """The one forward loop: a ``ForwardTrace`` when ``keep``, else the logits.

        Without ``keep`` it is an inference forward. Nothing a backward reads
        outlives its use, and the operations and their order are the same, so
        the logits are bit-identical.
        """
        injected, enc_cache = self.encoder.forward(data.features, train_mode, rng)
        if not keep:
            enc_cache = None
        results, z_stars = [], []
        for mod in self.scales:
            res = forward_solve(mod, injected, data.s, self.solver_cfg)
            z_stars.append(res.z_star)
            if keep:
                results.append(res)
            del res  # without keep, Q and C go before the next solve makes its own
        if not keep:
            injected = None
        betas = np.empty((len(self.scales), data.n))
        tanh_acts = []
        acts = None
        att = self.attention
        for t, z_t in enumerate(z_stars):
            # Only beta outlives an inference forward, so its scales share one buffer.
            acts = np.matmul(att.w_a, z_t, out=None if keep else acts)
            acts += att.b_a[:, None]
            np.tanh(acts, out=acts)
            if keep:
                tanh_acts.append(acts)
            betas[t] = acts.T @ att.q
        del acts  # without keep, the shared buffer goes before the fusion allocates
        alphas = numerics.softmax_scales(betas)
        z_prime = np.zeros_like(z_stars[0])
        weighted = np.empty_like(z_prime)
        for t, z_t in enumerate(z_stars):
            z_prime += np.multiply(z_t, alphas[t], out=weighted)
        del weighted  # freed before sum_pool allocates its own n x h arrays
        pooled = sum_pool(z_prime, data) if self.task == "graph" else None
        logits = self.decoder_weight @ (z_prime if pooled is None else pooled)
        if not keep:
            return logits
        return ForwardTrace(injected=injected, encoder_cache=enc_cache,
                            scale_results=results, tanh_acts=tanh_acts,
                            alphas=alphas.T, z_prime=z_prime,
                            pooled=pooled, logits=logits)

    # -- backward ---------------------------------------------------------

    def backward(self, data: GraphBatch, trace: ForwardTrace,
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
            # Each node takes its graph's gradient. take() returns it in C order,
            # so the column sums below add in row order, as on a node task;
            # d_zp[:, index] would be in F order, and so would products with it.
            d_zp = np.take(d_zp, data.graph_of_node, axis=1)

        alphas = trace.alphas.T  # (k, n), scale-major as the forward made it
        scratch, d_pre, d_zt = numerics.reused("backward", d_zp.shape, 3)
        # Value path: Z' = sum_t alpha_t * Z_t, so each scale sees alpha-scaled d_zp
        # and each alpha sees the inner product of d_zp with its equilibrium.
        d_alpha = np.empty_like(alphas)
        for t, res in enumerate(trace.scale_results):
            d_alpha[t] = np.multiply(d_zp, res.z_star, out=scratch).sum(axis=0)
        # Softmax backward per node (each column of alphas sums to 1).
        inner = np.sum(d_alpha * alphas, axis=0, keepdims=True)
        d_beta = alphas * (d_alpha - inner)

        d_q = np.zeros_like(att.q)
        d_wa = np.zeros_like(att.w_a)
        d_ba = np.zeros_like(att.b_a)
        d_injected = np.zeros_like(trace.injected)
        for t, mod in enumerate(self.scales):
            res = trace.scale_results[t]
            z_t = res.z_star
            acts = trace.tanh_acts[t]
            db = d_beta[t]
            d_q += acts @ db
            np.multiply(acts, acts, out=d_pre)
            np.subtract(1.0, d_pre, out=d_pre)
            # (q (x) db) * (1 - a^2); ((1 - a^2) * q) * db would round differently
            d_pre *= np.multiply(att.q[:, None], db[None, :], out=scratch)
            d_wa += d_pre @ z_t.T
            d_ba += d_pre.sum(axis=1)
            np.multiply(d_zp, alphas[t], out=d_zt)
            d_zt += np.matmul(att.w_a.T, d_pre, out=scratch)
            u = adjoint_solve(mod, data.s, d_zt, self.solver_cfg)
            grads[f"scales.{t}.f"] = weight_gradient(mod, u, res, data.s)
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

    def predict(self, data: GraphBatch, trace: ForwardTrace | None = None) -> np.ndarray:
        """Multi-hot at logit > 0 (a multilabel model) or class per column
        (argmax, ties to the lower index), whatever labels ``data`` carries.

        ``trace``, a forward of ``data`` at the current parameters, stands in
        for running one; its logits must have one column per node (node
        task) or per graph (graph task) of ``data``. Without it, predict runs
        an inference forward: it keeps no ``ForwardTrace``, only the arrays
        the logits still need (see the module docstring), and its logits
        equal ``forward(data).logits`` bit for bit.
        """
        if trace is None:
            logits = self._forward(data, False, None, keep=False)
        else:
            logits = trace.logits
        width = data.n if self.task == "node" else data.num_graphs
        if logits.shape[1] != width:
            raise ShapeError(f"trace has logits for {logits.shape[1]} columns, data has {width}")
        if self.multilabel:
            return (logits > 0.0).astype(np.int64)
        return np.argmax(logits, axis=0)


def sum_pool(z: np.ndarray, batch: GraphBatch) -> np.ndarray:
    """Sum node columns within each graph: output column g = sum of z[:, i] with i in g."""
    if z.shape[1] != batch.graph_of_node.shape[0]:
        raise ShapeError(
            f"z has {z.shape[1]} columns but the batch has {batch.graph_of_node.shape[0]} nodes")
    h, num_graphs, graph_of_node = z.shape[0], batch.num_graphs, batch.graph_of_node
    outside = (graph_of_node < 0) | (graph_of_node >= num_graphs)
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise IndexError(f"node {i} is in graph {graph_of_node[i]}, outside the "
                         f"batch's {num_graphs} graphs")
    # Cell (r, g) adds its nodes in node order, from 0.0, as np.add.at does.
    cells = (np.arange(h)[:, None] * num_graphs + graph_of_node).ravel()
    return np.bincount(cells, weights=z.ravel(),
                       minlength=h * num_graphs).reshape(h, num_graphs)


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
               solver_cfg: SolverConfig = SolverConfig(),
               multilabel: bool = False) -> MultiscaleImplicitGNN:
    """Build a model with Glorot-uniform weights and zero biases.

    F matrices use the same init scaled by 0.5, keeping the initial ||g(F)||
    comfortably away from the eps-dominated regime. The attention width is
    the hidden dim. ``encoder_bias=False`` drops the encoder bias terms
    entirely (useful when zero feature columns must stay exactly zero).
    ``multilabel=True`` makes a node-task model predict multi-hot labels.
    """
    if encoder_layers < 1:
        raise ValueError(f"encoder needs at least one layer, got {encoder_layers}")
    dims = [feature_dim] + [hidden_dim] * encoder_layers
    weights = [glorot_uniform(rng, dims[i + 1], dims[i]) for i in range(encoder_layers)]
    biases = [np.zeros(dims[i + 1]) for i in range(encoder_layers)] if encoder_bias else None
    encoder = MlpEncoder(weights, biases, dropout_rate=dropout)
    scales = [ScaleModule(f_weight=glorot_uniform(rng, hidden_dim, hidden_dim, gain=0.5),
                          gamma=gamma, scale_m=m, eps_f=eps_f)
              for m in scale_exponents]
    q_limit = np.sqrt(6.0 / (hidden_dim + 1))
    attention = AttentionParams(
        w_a=glorot_uniform(rng, hidden_dim, hidden_dim),
        b_a=np.zeros(hidden_dim),
        q=rng.uniform(-q_limit, q_limit, size=hidden_dim))
    decoder = glorot_uniform(rng, num_classes, hidden_dim)
    return MultiscaleImplicitGNN(encoder, scales, attention, decoder, task=task,
                                 solver_cfg=solver_cfg, multilabel=multilabel)


# -- checkpointing --------------------------------------------------------


def save_checkpoint(model: MultiscaleImplicitGNN, path) -> None:
    """Versioned JSON dump; floats round-trip exactly via repr serialization."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {
            "task": model.task,
            "multilabel": model.multilabel,
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
    write_json(path, payload)


def load_checkpoint(path) -> MultiscaleImplicitGNN:
    """Rebuild a saved model; rejects a file whose scales repeat an exponent.

    Once its format and version match, the file is checked against
    ``CHECKPOINT_SCHEMA``: its config holds every key ``save_checkpoint``
    writes, each of the kind it writes, every size a count and every number
    finite. Its parameters are exactly those its config implies, each an
    array of finite numbers of the implied shape; they are checked before
    anything is allocated, so a size in the config can only be as large
    as the arrays the file holds. Every error is a ``ValueError`` naming
    the file and any key or parameter.
    """
    payload = read_json(path, "object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    check_json(payload, CHECKPOINT_SCHEMA, path)
    cfg, params = payload["config"], payload["params"]
    shapes, values = _parameter_shapes(cfg), {}
    for name in sorted(shapes.keys() | params.keys()):
        if name not in params or name not in shapes:
            kind = "missing" if name in shapes else "unknown"
            raise ValueError(f"{path}: {kind} parameter {name!r}")
        try:
            value = np.asarray(params[name])
        except ValueError:  # ragged
            value = np.asarray(None)
        if value.dtype.kind not in "iuf" or not np.all(np.isfinite(value)):
            raise ValueError(f"{path}: parameter {name!r} must be a rectangular "
                             f"array of JSON numbers, all finite")
        if value.shape != shapes[name]:
            raise ValueError(f"{path}: parameter {name!r} has shape {value.shape}, "
                             f"expected {shapes[name]}")
        values[name] = value.astype(np.float64)
    layers = range(len(cfg["encoder_dims"]) - 1)
    try:  # a well-typed value can still be out of its domain
        encoder = MlpEncoder([values[f"encoder.w{i}"] for i in layers],
                             [values[f"encoder.b{i}"] for i in layers]
                             if cfg["encoder_bias"] else None, dropout_rate=cfg["dropout"])
        scales = [ScaleModule(f_weight=values[f"scales.{t}.f"], gamma=sc["gamma"],
                              scale_m=sc["m"], eps_f=sc["eps_f"])
                  for t, sc in enumerate(cfg["scales"])]
        attention = AttentionParams(w_a=values["attention.w_a"], b_a=values["attention.b_a"],
                                    q=values["attention.q"])
        solver = SolverConfig(tol=cfg["solver"]["tol"], max_iters=cfg["solver"]["max_iters"])
        return MultiscaleImplicitGNN(encoder, scales, attention, values["decoder.w"],
                                     task=cfg["task"], solver_cfg=solver,
                                     multilabel=cfg.get("multilabel", False))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parameter_shapes(cfg) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter a checkpoint's config implies, named
    as ``MultiscaleImplicitGNN.parameters`` names them."""
    dims, hidden = cfg["encoder_dims"], cfg["hidden_dim"]
    shapes = {}
    for i in range(len(dims) - 1):
        shapes[f"encoder.w{i}"] = (dims[i + 1], dims[i])
        if cfg["encoder_bias"]:
            shapes[f"encoder.b{i}"] = (dims[i + 1],)
    for t in range(len(cfg["scales"])):
        shapes[f"scales.{t}.f"] = (hidden, hidden)
    shapes.update({"attention.w_a": (hidden, hidden), "attention.b_a": (hidden,),
                   "attention.q": (hidden,), "decoder.w": (cfg["num_classes"], hidden)})
    return shapes
