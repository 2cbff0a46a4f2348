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

Two solvers serve both equations, and the input decides which runs:

- **Closed form**, when S has a ``graph.spectrum`` (undirected graphs
  and their batches). With S = V Sigma V^T per connected component and
  g(F) = Q Lambda Q^T, the fixed point is
  Z* = Q [(Q^T H V) / (1 - gamma lambda (sigma^m)^T)] V^T, elementwise
  division, whose denominators are >= 1 - gamma. g and S are symmetric,
  so the adjoint is the same formula applied to dL/dZ*. The solve then
  applies the map once to its answer and reports that true relative
  residual, with ``iterations = 0``; a residual above ``tol`` continues
  as Picard iteration from the closed-form answer.
- **Picard iteration** for every other S (directed graphs, components
  above ``graph.SPECTRUM_MAX_COMPONENT`` nodes, any S made outside
  ``graph``). It iterates from Z = 0, unless given a start, so the
  iterates are the partial sums of the underlying geometric series, and
  stops when ||Z_next - Z||_F / (||Z||_F + 1e-12) <= tol.

Both solves keep their iterate transposed (node-per-row, n x h), because
g(F) is symmetric:

    forward:  Z^T  <-  gamma * (S^T)^m Z^T g(F)  +  H^T
    adjoint:  U^T  <-  gamma *  S^m    U^T g(F)  +  (dL/dZ*)^T

Each hop is then one sparse-times-dense product with an operator made
once per solve: the forward solve and ``weight_gradient`` use ``s.T``, a
CSC view sharing S's arrays, and the adjoint uses S itself. Powers of S
are never materialized. Callers pass and receive the column-per-node
(h x n) layout; S is trusted to be a validated CSR (see ``graph``).
``oracle_solve`` solves the vectorized system (I - gamma*(S^m)^T (x) g(F))
densely by LU; it exists purely as an independent cross-check for tests
and is capacity-guarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.eps_f <= 0.0:
            raise ValueError(f"eps_f must be positive, got {self.eps_f}")

    @property
    def hidden_dim(self) -> int:
        return self.f_weight.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iters: int = 300

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class EquilibriumResult:
    z_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    # ||Z^(k+1) - Z^(k)||_F per step; contracts by at most gamma per step.
    update_norms: np.ndarray = field(default=None, repr=False)


def normalized_gram(f_weight: np.ndarray, eps_f: float) -> np.ndarray:
    """g(F) = F^T F / (||F^T F||_F + eps_f).

    Symmetric PSD with ||g(F)||_F = r/(r + eps_f) < 1 for every F, which is
    what makes the propagation a contraction regardless of training.
    """
    gram = f_weight.T @ f_weight
    return gram / (numerics.frobenius_norm(gram) + eps_f)


def _propagate(y: np.ndarray, op, m: int) -> np.ndarray:
    """op^m y: m sparse hops on a node-per-row (n x h) matrix."""
    for _ in range(m):
        y = op @ y
    return y


def _solve(g: np.ndarray, s, op, m: int, gamma: float, injected: np.ndarray,
           cfg: SolverConfig, z0: np.ndarray | None, what: str) -> EquilibriumResult:
    """Solve Y = gamma op^m Y g + injected^T with Y = Z^T; returns Z = Y^T.

    ``op`` is S or S^T, the operator of the map; ``s`` is S itself, which
    carries the spectrum when there is one.
    """
    if injected.shape[0] != g.shape[0]:
        raise ShapeError(
            f"{what}: injected rows {injected.shape[0]} != hidden dim {g.shape[0]}")
    if injected.shape[1] != op.shape[1]:
        raise ShapeError(
            f"{what}: injected cols {injected.shape[1]} != node count {op.shape[1]}")
    z = None if z0 is None else numerics.as_dense(z0)
    if z is not None and z.shape != injected.shape:
        raise ShapeError(f"{what}: z0 shape {z.shape} != {injected.shape}")
    if gamma == 0.0:
        # The map is constant: one application lands exactly on the fixed point.
        step = injected if z is None else injected - z
        return EquilibriumResult(
            z_star=injected.copy(), iterations=1, residual=0.0, converged=True,
            update_norms=np.array([numerics.frobenius_norm(step)]))
    injected_t = np.ascontiguousarray(injected.T)
    blocks = graph.spectrum(s)
    if blocks is None:
        y = np.zeros_like(injected_t) if z is None else np.ascontiguousarray(z.T)
        return _picard(g, op, m, gamma, injected_t, y, cfg, what)
    y = _closed_form(g, blocks, m, gamma, injected_t)
    # One more application of the map measures the true residual (in place,
    # since an evaluation solve on a large batch sets the peak memory).
    step = _propagate(y, op, m) @ g
    step *= gamma
    step += injected_t
    step -= y
    residual = numerics.frobenius_norm(step) / (numerics.frobenius_norm(y) + RESIDUAL_FLOOR)
    if residual <= cfg.tol:
        return EquilibriumResult(z_star=np.ascontiguousarray(y.T), iterations=0,
                                 residual=residual, converged=True,
                                 update_norms=np.zeros(0))
    return _picard(g, op, m, gamma, injected_t, y, cfg, what)


def _closed_form(g: np.ndarray, blocks, m: int, gamma: float,
                 rhs_t: np.ndarray) -> np.ndarray:
    """Y = V [(V^T rhs_t Q) / (1 - gamma sigma^m lambda^T)] Q^T, block by block."""
    lam, q = np.linalg.eigh(g)
    y = rhs_t @ q
    for b in blocks:  # blocks partition the nodes, so each overwrites only its own rows
        coeffs = np.matmul(b.vectors.transpose(0, 2, 1), y[b.nodes])
        denominators = (b.values ** m)[:, :, None] * (-gamma * lam)
        denominators += 1.0
        coeffs /= denominators
        y[b.nodes] = np.matmul(b.vectors, coeffs)
    return y @ q.T


def _picard(g: np.ndarray, op, m: int, gamma: float, injected_t: np.ndarray,
            y: np.ndarray, cfg: SolverConfig, what: str) -> EquilibriumResult:
    """Iterate Y <- gamma op^m Y g + injected_t from Y = y; returns Z = Y^T."""
    update_norms = []
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            y_next = gamma * (_propagate(y, op, m) @ g) + injected_t
            diff = numerics.frobenius_norm(y_next - y)
            residual = diff / (numerics.frobenius_norm(y) + RESIDUAL_FLOOR)
        if not np.all(np.isfinite(y_next)):
            raise DivergenceError(
                f"{what} produced non-finite values at iteration {iterations}; "
                "check that S is normalized and gamma < 1")
        update_norms.append(diff)
        y = y_next
        if residual <= cfg.tol:
            converged = True
            break
    return EquilibriumResult(z_star=np.ascontiguousarray(y.T), iterations=iterations,
                             residual=residual, converged=converged,
                             update_norms=np.asarray(update_norms))


def forward_solve(module: ScaleModule, injected: np.ndarray, s: sp.csr_array,
                  cfg: SolverConfig = SolverConfig(),
                  z0: np.ndarray | None = None) -> EquilibriumResult:
    """Solve for the fixed point, in closed form when S has a spectrum.

    Picard iteration, from ``z0`` if given, stops when
    ||Z_next - Z||_F / (||Z||_F + 1e-12) <= cfg.tol or at cfg.max_iters,
    whichever comes first. A closed-form solve ignores ``z0``.
    """
    g = normalized_gram(module.f_weight, module.eps_f)
    return _solve(g, s, s.T, module.scale_m, module.gamma, injected, cfg, z0,
                  "forward solve")


def adjoint_solve(module: ScaleModule, s: sp.csr_array, grad_z: np.ndarray,
                  cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Solve U = gamma g(F)^T U (S^m)^T + grad_z for the loss adjoint U.

    U equals dL/dZ* (I - J)^{-1} in the vectorized sense, i.e. the loss
    gradient pulled back through the fixed point. Same solvers and stop
    as ``forward_solve``.
    """
    g = normalized_gram(module.f_weight, module.eps_f)  # symmetric: g^T = g
    result = _solve(g, s, s, module.scale_m, module.gamma, grad_z, cfg, None,
                    "adjoint solve")
    return result.z_star


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
    r = numerics.frobenius_norm(gram)
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
