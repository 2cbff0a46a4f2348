"""The implicit propagation layer and its gradients.

One scale module solves the linear map

    Z  <-  gamma * g(F) * Z * S^m  +  H

for its unique fixed point Z*, where g(F) = F^T F / (||F^T F||_F + eps)
has Frobenius norm strictly below 1 by construction. With gamma < 1 and a
degree-normalized S (spectral norm <= 1) the map contracts in Frobenius
norm, so the fixed point exists, is unique and does not depend on the
start.

Training never differentiates through a solve. The loss gradient at Z*
is pulled back through the fixed point by solving the adjoint equation

    U  =  gamma * g(F)^T * U * (S^m)^T  +  dL/dZ*

after which parameter gradients are closed-form functions of U and Z*.

Both solves keep their iterate transposed (node-per-row, n x h), because
g(F) is symmetric:

    forward:  Z^T  <-  gamma * (S^T)^m Z^T g(F)  +  H^T
    adjoint:  U^T  <-  gamma *  S^m    U^T g(F)  +  (dL/dZ*)^T

Each hop is one sparse-times-dense product with an operator made once
per solve: the forward solve and ``weight_gradient`` use ``s.T``, a CSC
view sharing S's arrays, and the adjoint uses S itself. Powers of S are
never materialized. Callers pass and receive the column-per-node (h x n)
layout; S is trusted to be a validated CSR (see ``graph``).

A solve changes basis once: with g(F) = Q diag(lambda) Q^T, c = gamma
lambda and R the transposed right-hand side times Q, the columns of
W = Z^T Q are h independent problems w_j = c_j op^m w_j + r_j (op is the
solve's operator), and Z = (W Q^T)^T at the end. One loop solves them,
Picard iteration W <- (op^m W) diag(c) + R until
||W_next - W||_F / (||W||_F + 1e-12) <= tol, the same ratio in Z as Q is
orthogonal. It starts from the best guess the input gives:

- the closed form W = V [(V^T R) / (1 - sigma^m c^T)] when S has a
  ``graph.spectrum``, S = V Sigma V^T per connected component (undirected
  graphs and their batches); every denominator is >= 1 - gamma. The first
  step measures its true residual and polishes it, so such a solve
  reports 1 iteration, and goes on while the residual is above tol;
- ``z0`` (forward solves) or zeros for every other S: directed graphs,
  components above ``graph.SPECTRUM_MAX_COMPONENT`` nodes, any S made
  outside ``graph``. From zeros the iterates are partial sums of the
  geometric series.

gamma = 0 needs no path of its own: a closed-form solve reports 1
iteration and a solve from zeros 2. ``oracle_solve`` solves the vectorized
system (I - gamma*(S^m)^T (x) g(F)) densely by LU, a capacity-guarded
cross-check for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import graph, numerics
from .errors import CapacityError, DivergenceError, ShapeError

RESIDUAL_FLOOR = 1e-12  # guards the relative residual against a zero iterate
ORACLE_MAX_UNKNOWNS = 4096


@dataclass(frozen=True)
class ScaleModule:
    """One implicit layer: trainable weight F, contraction factor, scale exponent."""

    f_weight: np.ndarray
    gamma: float = 0.8
    scale_m: int = 1
    eps_f: float = 1e-5

    def __post_init__(self):
        f = numerics.as_dense(self.f_weight)
        if f.shape[0] != f.shape[1]:
            raise ShapeError(f"F must be square, got {f.shape}")
        object.__setattr__(self, "f_weight", f)
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.scale_m < 1:
            raise ValueError(f"scale exponent must be >= 1, got {self.scale_m}")
        if not 0.0 < self.eps_f < np.inf:
            raise ValueError(f"eps_f must be positive and finite, got {self.eps_f}")

    @property
    def hidden_dim(self) -> int:
        return self.f_weight.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iters: int = 300

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class EquilibriumResult:
    z_star: np.ndarray
    iterations: int
    residual: float
    converged: bool


def normalized_gram(f_weight: np.ndarray, eps_f: float) -> np.ndarray:
    """g(F) = F^T F / (||F^T F||_F + eps_f).

    Symmetric PSD with ||g(F)||_F = r/(r + eps_f) < 1 for every F, which is
    what makes the propagation a contraction regardless of training.
    """
    gram = f_weight.T @ f_weight
    return gram / (np.linalg.norm(gram) + eps_f)


def _propagate(y: np.ndarray, op, m: int) -> np.ndarray:
    """op^m y: m sparse hops on a node-per-row (n x h) matrix."""
    for _ in range(m):
        y = op @ y
    return y


def _solve(module: ScaleModule, s, op, injected: np.ndarray, cfg: SolverConfig,
           z0: np.ndarray | None, what: str) -> EquilibriumResult:
    """Solve Y = gamma op^m Y g(F) + injected^T for W = Y Q; returns Z = Y^T.

    ``op`` is S or S^T, the operator of the map; ``s`` is S itself, which
    carries the spectrum when there is one.
    """
    g = normalized_gram(module.f_weight, module.eps_f)
    if not np.all(np.isfinite(g)):
        # Training updates F in place, so an exploded step can leave it non-finite.
        raise DivergenceError(f"{what}: g(F) is not finite; check F for NaN or Inf")
    if injected.shape[0] != g.shape[0]:
        raise ShapeError(
            f"{what}: injected rows {injected.shape[0]} != hidden dim {g.shape[0]}")
    if injected.shape[1] != op.shape[1]:
        raise ShapeError(
            f"{what}: injected cols {injected.shape[1]} != node count {op.shape[1]}")
    z = None if z0 is None else numerics.as_dense(z0)
    if z is not None and z.shape != injected.shape:
        raise ShapeError(f"{what}: z0 shape {z.shape} != {injected.shape}")
    lam, q = np.linalg.eigh(g)
    c = module.gamma * lam
    rhs = np.ascontiguousarray(injected.T) @ q
    blocks = graph.spectrum(s)
    if blocks is None:
        w = np.zeros_like(rhs) if z is None else z.T @ q
    else:
        w = _closed_form(c, blocks, module.scale_m, rhs)
    w, iterations, residual = _picard(c, op, module.scale_m, rhs, w, cfg, what)
    del rhs  # one n x h array fewer while the back-transform makes two
    return EquilibriumResult(z_star=np.ascontiguousarray((w @ q.T).T), iterations=iterations,
                             residual=residual, converged=residual <= cfg.tol)


def _closed_form(c: np.ndarray, blocks, m: int, rhs: np.ndarray) -> np.ndarray:
    """W = V [(V^T R) / (1 - sigma^m c^T)], block by block."""
    w = np.empty_like(rhs)
    for b in blocks:  # blocks partition the nodes, so together they write every row
        coeffs = np.matmul(b.vectors.transpose(0, 2, 1), rhs[b.nodes])
        denominators = (b.values ** m)[:, :, None] * -c
        denominators += 1.0
        coeffs /= denominators
        w[b.nodes] = np.matmul(b.vectors, coeffs)
    return w


def _picard(c: np.ndarray, op, m: int, rhs: np.ndarray, w: np.ndarray,
            cfg: SolverConfig, what: str) -> tuple[np.ndarray, int, float]:
    """Iterate W <- (op^m W) diag(c) + R from W = w (overwritten); returns W, steps, residual."""
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, cfg.max_iters + 1):
            w_next = _propagate(w, op, m)
            w_next *= c
            w_next += rhs
            scale = np.linalg.norm(w) + RESIDUAL_FLOOR
            w -= w_next
            residual = float(np.linalg.norm(w) / scale)
            # A non-finite entry of W_next makes the residual nan or inf, so only
            # then is W_next scanned.
            if not np.isfinite(residual) and not np.all(np.isfinite(w_next)):
                if not np.all(np.isfinite(rhs)):
                    name = "H" if what == "forward solve" else "dL/dZ*"
                    raise DivergenceError(f"{what}: its right-hand side {name} is not "
                                          "finite")
                raise DivergenceError(
                    f"{what} produced non-finite values at iteration {iterations}; "
                    "check that S is normalized and gamma < 1")
            w = w_next
            if residual <= cfg.tol:
                break
    return w, iterations, residual


def forward_solve(module: ScaleModule, injected: np.ndarray, s: sp.csr_array,
                  cfg: SolverConfig = SolverConfig(),
                  z0: np.ndarray | None = None) -> EquilibriumResult:
    """Solve for the fixed point by Picard iteration from the closed form.

    The iteration stops when ||Z_next - Z||_F / (||Z||_F + 1e-12) <= cfg.tol
    or at cfg.max_iters, whichever comes first. ``z0`` is its start only
    when S has no spectrum; otherwise the closed form is.
    """
    return _solve(module, s, s.T, injected, cfg, z0, "forward solve")


def adjoint_solve(module: ScaleModule, s: sp.csr_array, grad_z: np.ndarray,
                  cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Solve U = gamma g(F)^T U (S^m)^T + grad_z for the loss adjoint U.

    U equals dL/dZ* (I - J)^{-1} in the vectorized sense, i.e. the loss
    gradient pulled back through the fixed point. Same solvers and stop
    as ``forward_solve``.
    """
    return _solve(module, s, s, grad_z, cfg, None, "adjoint solve").z_star  # g^T = g


def weight_gradient(module: ScaleModule, u: np.ndarray, z_star: np.ndarray,
                    s: sp.csr_array) -> np.ndarray:
    """Gradient of the loss with respect to F, given the adjoint U and Z*.

    The upstream gradient at g(F) is M = gamma * U (Z* S^m)^T; pulling M
    back through the Frobenius normalization and the Gram map F^T F gives

        dG = M/r_eps - (<M, G> / (r * r_eps^2)) G,   dF = F (dG + dG^T)

    with G = F^T F, r = ||G||_F, r_eps = r + eps_f. The second term is the
    normalization's own derivative and is dropped in the r -> 0 limit.
    Validated against central finite differences before any training run
    is trusted.
    """
    if u.shape != z_star.shape:
        raise ShapeError(f"adjoint shape {u.shape} != equilibrium shape {z_star.shape}")
    propagated_t = _propagate(z_star.T, s.T, module.scale_m)
    m_up = module.gamma * (u @ propagated_t)
    gram = module.f_weight.T @ module.f_weight
    r = np.linalg.norm(gram)
    r_eps = r + module.eps_f
    d_gram = m_up / r_eps
    if r >= 1e-30:
        d_gram = d_gram - (float(np.sum(m_up * gram)) / (r * r_eps ** 2)) * gram
    return module.f_weight @ (d_gram + d_gram.T)


def oracle_solve(module: ScaleModule, injected: np.ndarray,
                 s: sp.csr_array) -> np.ndarray:
    """Closed-form fixed point via the dense vectorized (Kronecker) system.

    Solves (I - gamma (S^m)^T (x) g(F)) vec(Z) = vec(H) by LU. Test oracle
    only: cost is (h*n)^3, hence the hard capacity guard.
    """
    g = normalized_gram(module.f_weight, module.eps_f)
    h = g.shape[0]
    n = s.shape[0]
    if injected.shape != (h, n):
        raise ShapeError(f"injected shape {injected.shape} != ({h}, {n})")
    unknowns = h * n
    if unknowns > ORACLE_MAX_UNKNOWNS:
        raise CapacityError(
            f"oracle system has {unknowns} unknowns, above the {ORACLE_MAX_UNKNOWNS} guard")
    s_m = sp.eye_array(n, format="csr")
    for _ in range(module.scale_m):
        s_m = s_m @ s
    system = np.eye(unknowns) - module.gamma * np.kron(s_m.toarray().T, g)
    rhs = injected.flatten(order="F")
    solution = np.linalg.solve(system, rhs)
    return solution.reshape((h, n), order="F")
