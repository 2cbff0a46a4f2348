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

Callers pass and receive the column-per-node (h x n) layout; S is trusted
to be a validated CSR (see ``graph``).

A solve changes basis once: with g(F) = Q diag(lambda) Q^T, c = gamma
lambda and R the transposed right-hand side times Q, the columns of
W = Z^T Q are h independent problems w_j = c_j op^m w_j + r_j (op is S^T
for the forward solve, S for the adjoint), and Z = (W Q^T)^T at the end.
The input decides how they are solved, and the result's ``path`` names it:

- "closed form" when S has a ``graph.spectrum``, S = V Sigma V^T per
  connected component (undirected graphs and their batches): W = V C with
  eigen-coefficients C = (V^T R) / (1 - sigma^m c^T), whose denominators
  are all >= 1 - gamma. Such a solve reports 0 iterations and makes no
  sparse product. A block whose nodes are one run of consecutive ids (its
  ``rows`` a slice, as in a generated dataset or a batch of connected
  graphs of one size) reads R and writes W as a (c, k, h) view of their
  rows, with no gather or scatter; a block of interleaved components
  gathers and scatters its rows. The arithmetic is the same either way, so
  the results are bit-identical. The residual is a bound
  (``_residual_bound``) on the true relative residual, derived from the
  decomposition errors and the largest |sigma| that each spectrum block
  measured once, and from the rounding of the closed form's own
  arithmetic; S and its spectrum are read-only, so the blocks describe the
  S being solved. The result keeps Q and C, from which
  ``weight_gradient`` forms Z* S^m without a hop;
- "picard" for every other S (directed graphs, components above
  ``graph.SPECTRUM_MAX_COMPONENT`` nodes, any S made outside ``graph``),
  and when a closed form's bound is above tol (a wrong spectrum, or a tol
  below what its rounding can certify): Picard iteration
  W <- (op^m W) diag(c) + R until
  ||W_next - W||_F / (||W||_F + 1e-12) <= tol, the same ratio in Z as Q
  is orthogonal, from that closed form, from ``z0`` (forward solves) or
  from zeros. From zeros the iterates are partial sums of the geometric
  series. Each hop is one sparse-times-dense product with an operator
  made once per solve: ``s.T``, a CSC view sharing S's arrays, or S
  itself. Powers of S are never materialized.

Working memory: a solve makes R in an n x h array that the calling thread
reuses on its next solve of the same shape (``numerics.reused``, whose
"solve" slot keeps only the last shape's array), and a closed form writes
W over R, since the blocks partition the rows and each reads its rows of R
before it writes them; a closed form that goes on as Picard makes R again.
Each block's denominators are written into the array that then receives
Z. So the pages of R are not handed back to the system and faulted in
again between the solves of a training step. A reused array never
outlives the call that filled it: nothing returned (Z*, Q, C, U) or kept
in a trace is one.

gamma = 0 needs no special case: a closed form reports 0 iterations and a
solve from zeros 2. ``oracle_solve`` solves the vectorized system
(I - gamma*(S^m)^T (x) g(F)) densely by LU, a capacity-guarded
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
        numerics.set_integers(self, "scale_m")
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
        numerics.set_integers(self, "max_iters")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class EquilibriumResult:
    z_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    path: str  # "closed form" when the closed form alone is the answer, else "picard"
    # After a closed form: the basis Q of g(F) and, per spectrum block, the
    # eigen-coefficients C, (c, k, h) each, so that Z*^T = [V C] Q^T. Only
    # ``weight_gradient`` reads them; an inference forward drops them as soon
    # as the solve returns.
    basis: np.ndarray | None = None
    coefficients: list[np.ndarray] | None = None


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


def _solve(module: ScaleModule, s, injected: np.ndarray, cfg: SolverConfig,
           z0: np.ndarray | None, adjoint: bool) -> EquilibriumResult:
    """Solve Y = gamma op^m Y g(F) + injected^T for W = Y Q; returns Z = Y^T.

    ``op`` is S for the adjoint and S^T for the forward solve. S carries
    the spectrum when there is one. R = injected^T Q is the thread's
    reused array (``numerics.reused``); the closed form writes W over it.
    """
    what = "adjoint solve" if adjoint else "forward solve"
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are named below
        g = normalized_gram(module.f_weight, module.eps_f)
        if not np.all(np.isfinite(g)):
            # Training updates F in place, so an exploded step can leave it non-finite.
            raise DivergenceError(f"{what}: g(F) is not finite; check F for NaN, Inf "
                                  "or entries whose Gram matrix F^T F overflows")
        if injected.shape[0] != g.shape[0]:
            raise ShapeError(
                f"{what}: injected rows {injected.shape[0]} != hidden dim {g.shape[0]}")
        if injected.shape[1] != s.shape[0]:
            raise ShapeError(
                f"{what}: injected cols {injected.shape[1]} != node count {s.shape[0]}")
        z = None if z0 is None else numerics.as_dense(z0)
        if z is not None and z.shape != injected.shape:
            raise ShapeError(f"{what}: z0 shape {z.shape} != {injected.shape}")
        lam, q = np.linalg.eigh(g)
        c = module.gamma * lam
        rhs = np.matmul(injected.T, q, out=numerics.reused("solve", (s.shape[0], g.shape[0]))[0])
        blocks = graph.spectrum(s)
        coefficients = z_star = None
        if blocks is None:
            w = np.zeros_like(rhs) if z is None else z.T @ q
        else:
            z_star = np.empty(injected.shape)  # first the denominators, then Z
            w, coefficients = _closed_form(c, blocks, module.scale_m, rhs, z_star)
            iterations, residual = 0, _residual_bound(c, blocks, module.scale_m)
            # A non-finite W, from H or an overflow, is for Picard to name.
            if not (residual <= cfg.tol and np.isfinite(np.sum(w))):
                coefficients = None
                w = w.copy()  # W was written over R, which Picard reads: make R again
                np.matmul(injected.T, q, out=rhs)
        if coefficients is None:
            w, iterations, residual = _picard(c, s if adjoint else s.T, module.scale_m,
                                              rhs, w, cfg, what)
        z_star = np.matmul(q, w.T, out=z_star)
    return EquilibriumResult(z_star=z_star, iterations=iterations, residual=residual,
                             converged=residual <= cfg.tol,
                             path="picard" if coefficients is None else "closed form",
                             basis=None if coefficients is None else q,
                             coefficients=coefficients)


def _closed_form(c: np.ndarray, blocks, m: int, rhs: np.ndarray,
                 spare: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """W = V C, C = (V^T R) / (1 - sigma^m c^T), block by block; returns W and each C.

    W is written over R: the blocks partition the rows, and each reads its
    rows of R before it writes them. Each block's denominators go into the
    front of ``spare``, a C-ordered array of R's size.
    """
    coefficients = []
    for b in blocks:
        coeffs = np.matmul(b.vectors.transpose(0, 2, 1), b.slab(rhs))
        denominators = spare.reshape(-1)[:coeffs.size].reshape(coeffs.shape)
        np.multiply(_power(b.values, m)[:, :, None], -c, out=denominators)
        denominators += 1.0
        coeffs /= denominators
        _write_rows(rhs, b, coeffs)
        coefficients.append(coeffs)
    return rhs, coefficients


def _write_rows(out: np.ndarray, b, coeffs: np.ndarray) -> None:
    """out[b's nodes] = V C, written in place through the block's slab when its
    rows are a slice: ``out=`` on a gathered copy would be lost."""
    if isinstance(b.rows, slice):
        np.matmul(b.vectors, coeffs, out=b.slab(out))
    else:
        out[b.nodes] = np.matmul(b.vectors, coeffs)


def _power(values: np.ndarray, m: int) -> np.ndarray:
    """values^m by m - 1 products; numpy's ``**`` calls pow() per entry, ~30x slower."""
    out = values
    for _ in range(m - 1):
        out = out * values
    return out


def _residual_bound(c: np.ndarray, blocks, m: int) -> float:
    """A bound on the closed form's relative residual ||c S^m W + R - W||_F / ||W||_F.

    Per component, with E = S V - V Sigma and F = V^T V - I (their norms
    are at most the block's ``error`` delta and ``drift`` eps), ||S|| <= 1,
    s = max(1, max |sigma|) (the block's ``radius``), gamma_bar = max |c| and
    omega = 1 + gamma_bar s^m >= |1 - sigma^m c|, the exact coefficients
    C = (V^T R) / (1 - sigma^m c^T) leave the residual

        c (S^m V - V Sigma^m) C + (I - V V^T) R,

    where S^m V - V Sigma^m = sum_i S^i E Sigma^(m-1-i) has norm at most
    m s^(m-1) delta, ||I - V V^T|| = ||F|| and ||R|| <= omega ||C|| /
    sqrt(1 - eps); and ||W|| = ||V C|| >= sqrt(1 - eps) ||C||. Components
    hold disjoint rows, so the largest per-component ratio bounds the
    whole; to first order it is gamma_bar m delta. Rounding adds, to first
    order in the unit roundoff u, where a length-n dot product errs by at
    most n u times its factors' norms: k^(3/2) (omega + 1 + gamma_bar) u
    for V^T R and V C (k nodes per component), (m + 3) omega u for the
    denominators and the division, and 2 (1 + gamma_bar) h^(3/2) u for
    H^T Q and the back-transform W Q^T, which take Q orthogonal, as a
    Picard residual does.
    """
    u = np.finfo(np.float64).eps / 2
    gamma_bar = float(np.abs(c).max())
    worst = 0.0
    for b in blocks:
        if not b.drift < 1.0:
            return np.inf
        k = b.nodes.shape[1]
        s = max(1.0, b.radius)
        omega = 1.0 + gamma_bar * s ** m
        exact = (gamma_bar * m * s ** (m - 1) * b.error
                 + omega * b.drift / np.sqrt(1.0 - b.drift)) / np.sqrt(1.0 - b.drift)
        rounding = (k ** 1.5 * (omega + 1.0 + gamma_bar) + (m + 3) * omega) * u
        worst = max(worst, exact + rounding)
    return worst + 2.0 * (1.0 + gamma_bar) * c.size ** 1.5 * u


def _picard(c: np.ndarray, op, m: int, rhs: np.ndarray, w: np.ndarray,
            cfg: SolverConfig, what: str) -> tuple[np.ndarray, int, float]:
    """Iterate W <- (op^m W) diag(c) + R from W = w (overwritten); returns W, steps, residual."""
    # diag(c) is one flat multiply by c tiled per row: broadcasting c over the
    # rows would run an inner loop of length h once per row.
    tiled = np.tile(c, rhs.shape[0])
    for iterations in range(1, cfg.max_iters + 1):
        # reshape(-1) is a view only of a C-contiguous array; of any other it
        # is a copy, and the product would be lost.
        w_next = np.ascontiguousarray(_propagate(w, op, m))
        flat = w_next.reshape(-1)
        flat *= tiled
        w_next += rhs
        scale = np.linalg.norm(w) + RESIDUAL_FLOOR
        w -= w_next
        residual = float(np.linalg.norm(w) / scale)
        # A non-finite entry of W_next makes the residual nan or inf, so only
        # then is W_next scanned.
        if not np.isfinite(residual) and not np.all(np.isfinite(w_next)):
            if not np.all(np.isfinite(rhs)):
                name = "H" if what == "forward solve" else "dL/dZ*"
                raise DivergenceError(f"{what}: its right-hand side {name} is not finite")
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
    """Solve for the fixed point: in closed form when S has a spectrum, else by Picard.

    Picard iteration stops when ||Z_next - Z||_F / (||Z||_F + 1e-12) <= cfg.tol
    or at cfg.max_iters, whichever comes first. ``z0`` is its start only
    when S has no spectrum; otherwise the closed form is.
    """
    return _solve(module, s, injected, cfg, z0, adjoint=False)


def adjoint_solve(module: ScaleModule, s: sp.csr_array, grad_z: np.ndarray,
                  cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Solve U = gamma g(F)^T U (S^m)^T + grad_z for the loss adjoint U.

    U equals dL/dZ* (I - J)^{-1} in the vectorized sense, i.e. the loss
    gradient pulled back through the fixed point. Same paths and stop as
    ``forward_solve``: on an S with a spectrum, the closed form alone when
    its residual bound is within cfg.tol. Only U is returned.
    """
    return _solve(module, s, grad_z, cfg, None, adjoint=True).z_star  # g^T = g


def weight_gradient(module: ScaleModule, u: np.ndarray, forward: EquilibriumResult,
                    s: sp.csr_array) -> np.ndarray:
    """Gradient of the loss with respect to F, given the adjoint U and the forward solve.

    ``forward`` is the ``forward_solve`` result on the same S whose Z* the
    adjoint was taken at. The upstream gradient at g(F) is
    M = gamma * U (Z* S^m)^T. After a closed-form solve
    (Z* S^m)^T = [V (sigma^m * C)] Q^T per spectrum block, from the
    result's coefficients and basis, with no sparse hop; after a Picard
    solve, or on an S without the spectrum, Z* is hopped m times with
    ``s.T``. Pulling M back through the Frobenius normalization and the
    Gram map F^T F gives

        dG = (M - a G_hat)/r_eps + a G_hat eps_f/r_eps^2,   dF = F (dG + dG^T)

    with G = F^T F, r = ||G||_F, r_eps = r + eps_f, G_hat = G/r and
    a = <M, G_hat>. That is M/r_eps - (<M, G>/(r r_eps^2)) G, split so that
    the part of M along G keeps its eps_f/r_eps^2 factor instead of being
    the remainder of two cancelling terms (all of M when h = 1). The
    normalization's own derivative is dropped in the r -> 0 limit.
    Validated against central finite differences before any training run
    is trusted.
    """
    if u.shape != forward.z_star.shape:
        raise ShapeError(
            f"adjoint shape {u.shape} != equilibrium shape {forward.z_star.shape}")
    m = module.scale_m
    blocks = None if forward.coefficients is None else graph.spectrum(s)
    if blocks is None:  # a Picard solve, or an S (a plain copy) without the spectrum
        m_up = module.gamma * (u @ _propagate(forward.z_star.T, s.T, m))
    else:
        propagated = np.empty((u.shape[1], u.shape[0]))
        for b, coeffs in zip(blocks, forward.coefficients):
            _write_rows(propagated, b, _power(b.values, m)[:, :, None] * coeffs)
        m_up = module.gamma * ((u @ propagated) @ forward.basis.T)
    gram = module.f_weight.T @ module.f_weight
    r = np.linalg.norm(gram)
    r_eps = r + module.eps_f
    if r < 1e-30:
        d_gram = m_up / r_eps
    else:
        g_hat = gram / r
        along = float(np.sum(m_up * g_hat))
        d_gram = (m_up - along * g_hat) / r_eps + (along * module.eps_f / r_eps ** 2) * g_hat
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
