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
  sparse product. A block reads and writes its rows as one slab where they
  are consecutive ids and gathers them where components interleave, with
  bit-identical results (``_closed_form``). The residual is a bound
  (``_residual_bound``) on the true relative residual, from the errors
  each spectrum block measured once and from the closed form's own
  rounding; S and its spectrum are read-only, so the blocks describe the
  S being solved. The result keeps Q and C, from which
  ``weight_gradient`` forms Z* S^m without a hop;
- "picard" for every other S (directed graphs, components above
  ``graph.SPECTRUM_MAX_COMPONENT`` nodes, any S made outside ``graph``),
  and when a closed form's bound is above tol (a wrong spectrum, or a tol
  below what its rounding can certify): Picard iteration (``_picard``)
  from that closed form, from ``z0`` (forward solves) or from zeros, whose
  iterates are then partial sums of the geometric series. Each hop is one
  sparse-times-dense product; powers of S are never materialized.

Every result records the S it was solved on, and ``weight_gradient``
reads S from it: the spectrum whose blocks a closed form's C belongs to,
or the S that a Picard result's Z* is hopped on.

Shared state: what the solves of one scale share depends on F and S,
never on H or dL/dZ*, so each ``ScaleModule`` keeps it (``_Basis``).
Every solve and ``weight_gradient`` compares F's bytes with the state's
copy and makes the state again only when they differ or S's spectrum is
another; F is edited in place (by the optimizer, by ``train_loop``'s
restore of the best epoch, by finite-difference checks), so neither
identity nor a counter would do. A non-finite g(F) raises before
anything is kept. The state is built whole, its arrays read-only, and
published by one assignment, so solves of one module may run in several
threads. It keeps K sets of denominators alive for a K-scale model, those
of the last graph each scale solved on: n x h floats each, but k x h for
a block that holds one row for all its components, as they are computed
on the block's arrays as they are. Within a training step at one F, a
scale's forward solve, adjoint solve and weight gradient so run one
``eigh`` between them, and a predict of a graph already solved at that F
runs none.

Working memory: a solve makes R in an n x h array that the calling thread
reuses on its next solve of the same shape (``numerics.reused``), and a
closed form writes W over R, so the pages of R are not handed back to the
system and faulted in again between the solves of a training step. A
reused array never outlives the call that filled it: nothing returned
(Z*, Q, C, U) or kept in a trace is one.

gamma = 0 needs no special case: a closed form reports 0 iterations and a
solve from zeros 2. ``oracle_solve`` solves the vectorized system
(I - gamma*(S^m)^T (x) g(F)) densely by LU, a capacity-guarded
cross-check for tests.
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
    # What the solves share at the current F (see the module docstring).
    _basis: _Basis | None = field(default=None, init=False, repr=False, compare=False)

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
    s: sp.csr_array  # the S solved on
    # After a closed form: the basis Q of g(F) (the module's, read-only) and,
    # per spectrum block of S, the eigen-coefficients C, (c, k, h) each, so
    # that Z*^T = [V C] Q^T. Only ``weight_gradient`` reads them and ``s``;
    # an inference forward drops C as soon as the solve returns.
    basis: np.ndarray | None = None
    coefficients: list[np.ndarray] | None = None


@dataclass(frozen=True)
class _Basis:
    """What a scale's solves share at one content of F: a copy of F's bytes,
    F^T F and its norm, c and Q, and, for the last spectrum solved on, that
    spectrum (held by reference, so a freed one's id cannot name a new
    one), each block's sigma^m and denominators 1 - sigma^m c^T, and the
    closed form's residual bound.

    Never changed once made: a new F or spectrum makes a new one. Its
    arrays are read-only.
    """

    key: bytes          # F's bytes, the content all else was computed from
    gram: np.ndarray    # F^T F
    norm: np.float64    # ||F^T F||_F
    c: np.ndarray       # gamma * the eigenvalues of g(F), ascending
    q: np.ndarray       # the eigenvectors of g(F), one per column
    blocks: list[graph.SpectrumBlock] | None = None  # the spectrum of the fields below
    # Per block, sigma^m, (c, k), and 1 - sigma^m c^T, (c, k, h); of a block
    # that holds one row for all its components, one row, (1, k) and (1, k, h).
    powers: tuple[np.ndarray, ...] = ()
    denominators: tuple[np.ndarray, ...] = ()
    bound: float = np.inf  # ``_residual_bound`` of the closed form on ``blocks``


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


def _shared(module: ScaleModule, what: str, blocks) -> _Basis:
    """The module's ``_Basis`` at its current F, with the closed form's
    constants on ``blocks`` unless they are None; made and published again
    if F's content or the spectrum changed since the last call."""
    basis = module._basis
    f = module.f_weight
    key = f.tobytes()
    if basis is not None and basis.key == key:
        if blocks is None or basis.blocks is blocks:
            return basis
        gram, norm, c, q = basis.gram, basis.norm, basis.c, basis.q
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite g is named below
            gram = f.T @ f
            norm = np.linalg.norm(gram)
            g = gram / (norm + module.eps_f)  # ``normalized_gram``, keeping its parts
        if not np.all(np.isfinite(g)):
            # Training updates F in place, so an exploded step can leave it non-finite.
            raise DivergenceError(f"{what}: g(F) is not finite; check F for NaN, Inf "
                                  "or entries whose Gram matrix F^T F overflows")
        lam, q = np.linalg.eigh(g)
        c = module.gamma * lam
        numerics.read_only(gram, c, q)
    powers = denominators = ()
    bound = np.inf
    if blocks is not None:
        powers = tuple(_power(b.values, module.scale_m) for b in blocks)
        denominators = tuple(_denominators(p, c) for p in powers)
        numerics.read_only(*powers, *denominators)
        bound = _residual_bound(c, blocks, module.scale_m)
    basis = _Basis(key=key, gram=gram, norm=norm, c=c, q=q, blocks=blocks, powers=powers,
                   denominators=denominators, bound=bound)
    object.__setattr__(module, "_basis", basis)  # whole, so other threads see all or none
    return basis


def _denominators(powers: np.ndarray, c: np.ndarray) -> np.ndarray:
    """1 - sigma^m c^T per component, (c, k, h) from sigma^m, (c, k)."""
    # einsum's outer product runs one long loop; broadcasting sigma^m
    # against -c would run an inner loop of length h per node, ~1.6x slower.
    out = np.einsum("ij,k->ijk", powers, -c)
    out += 1.0
    return out


def _solve(module: ScaleModule, s, injected: np.ndarray, cfg: SolverConfig,
           z0: np.ndarray | None, adjoint: bool) -> EquilibriumResult:
    """Solve Y = gamma op^m Y g(F) + injected^T for W = Y Q; returns Z = Y^T.

    ``op`` is S for the adjoint and S^T for the forward solve, made once per
    solve: ``s.T``, a CSC view sharing S's arrays, or S itself. S carries
    the spectrum when there is one. R = injected^T Q is the thread's
    reused array (the "solve" slot of ``numerics.reused``, which keeps only
    the last shape's array); the closed form writes W over it, and one
    that goes on as Picard makes R again.
    """
    what = "adjoint solve" if adjoint else "forward solve"
    if injected.ndim != 2:
        raise ShapeError(f"{what}: right-hand side must be 2-D (hidden dim x nodes), "
                         f"got shape {injected.shape}")
    if injected.shape[0] != module.hidden_dim:
        raise ShapeError(
            f"{what}: injected rows {injected.shape[0]} != hidden dim {module.hidden_dim}")
    if injected.shape[1] != s.shape[0]:
        raise ShapeError(
            f"{what}: injected cols {injected.shape[1]} != node count {s.shape[0]}")
    z = None if z0 is None else numerics.as_dense(z0)
    if z is not None and z.shape != injected.shape:
        raise ShapeError(f"{what}: z0 shape {z.shape} != {injected.shape}")
    blocks = graph.spectrum(s)
    basis = _shared(module, what, blocks)
    q = basis.q
    with np.errstate(over="ignore", invalid="ignore"):  # Picard names non-finite values
        rhs = np.matmul(injected.T, q, out=numerics.reused("solve", (s.shape[0], q.shape[0]))[0])
        coefficients = None
        if blocks is None:
            w = np.zeros_like(rhs) if z is None else z.T @ q
        else:
            w, coefficients = _closed_form(basis, rhs)
            iterations, residual = 0, basis.bound
            # A non-finite W, from H or an overflow, is for Picard to name.
            if not (residual <= cfg.tol and np.isfinite(np.sum(w))):
                coefficients = None
                w = w.copy()  # W was written over R, which Picard reads: make R again
                np.matmul(injected.T, q, out=rhs)
        if coefficients is None:
            w, iterations, residual = _picard(basis.c, s if adjoint else s.T, module.scale_m,
                                              rhs, w, cfg, what)
        z_star = q @ w.T
    closed = coefficients is not None
    return EquilibriumResult(z_star=z_star, iterations=iterations, residual=residual,
                             converged=residual <= cfg.tol,
                             path="closed form" if closed else "picard",
                             basis=q if closed else None, coefficients=coefficients, s=s)


def _closed_form(basis: _Basis, rhs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """W = V C, C = (V^T R) / (1 - sigma^m c^T), block by block; returns W and each C.

    W is written over R: the blocks partition the rows, and each reads its
    rows of R before it writes them. A block whose ``rows`` are a slice (its
    nodes one run of consecutive ids, as in a generated dataset or a batch
    of connected graphs of one size) reads R and writes W as a (c, k, h)
    view of those rows, with no gather or scatter; a block of interleaved
    components gathers and scatters them. The arithmetic is the same
    either way, so the results are bit-identical. A block's one row of V,
    and of the denominators, broadcasts over its c components.
    """
    coefficients = []
    for b, denominators in zip(basis.blocks, basis.denominators):
        coeffs = np.matmul(b.vectors.transpose(0, 2, 1), b.slab(rhs))
        coeffs /= denominators
        b.put(rhs, coeffs)
        coefficients.append(coeffs)
    return rhs, coefficients


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
    """Iterate W <- (op^m W) diag(c) + R from W = w (overwritten); returns W, steps, residual.

    It stops once ||W_next - W||_F / (||W||_F + 1e-12) <= tol, the same
    ratio in Z as Q is orthogonal.
    """
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


def weight_gradient(module: ScaleModule, u: np.ndarray,
                    forward: EquilibriumResult) -> np.ndarray:
    """Gradient of the loss with respect to F, given the adjoint U and the forward solve.

    ``forward`` is the ``forward_solve`` result whose Z* the adjoint was
    taken at, and S is the one it records. The upstream gradient at g(F) is
    M = gamma * U (Z* S^m)^T. After a closed-form solve
    (Z* S^m)^T = [V (sigma^m * C)] Q^T per block of S's spectrum, from the
    result's coefficients and basis, with no sparse hop; after a Picard
    solve Z* is hopped m times with ``s.T``. F^T F and sigma^m come from
    the state the module's solves share, which is made again, and F
    checked, if F has changed.
    Pulling M back through the Frobenius normalization and the Gram map
    F^T F gives

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
    blocks = None if forward.coefficients is None else graph.spectrum(forward.s)
    basis = _shared(module, "weight gradient", blocks)
    if blocks is None:
        m_up = module.gamma * (u @ _propagate(forward.z_star.T, forward.s.T, module.scale_m))
    else:
        propagated = np.empty((u.shape[1], u.shape[0]))
        for b, power, coeffs in zip(blocks, basis.powers, forward.coefficients):
            b.put(propagated, power[:, :, None] * coeffs)
        m_up = module.gamma * ((u @ propagated) @ forward.basis.T)
    gram, r = basis.gram, basis.norm
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
