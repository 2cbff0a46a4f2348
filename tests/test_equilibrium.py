import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from msignn import (ScaleModule, SolverConfig, adjoint_solve, forward_solve,
                    normalized_gram, oracle_solve, weight_gradient)
from msignn.errors import CapacityError, DivergenceError
from msignn.numerics import as_csr

from conftest import picard_steps, random_directed_csr, random_normalized_csr


def scalar_setup(gamma_times_g=0.4):
    # One node, S = [[1]]; choose F so that gamma * g(F) is the wanted scalar.
    # g([[f]]) = f^2 / (f^2 + eps); with f = 1 and eps tiny, g ~ 1.
    module = ScaleModule(f_weight=np.array([[1.0]]), gamma=gamma_times_g,
                         scale_m=1, eps_f=1e-13)
    s = as_csr(sp.csr_array(np.array([[1.0]])))
    return module, s


def test_normalized_gram_identity():
    out = normalized_gram(np.eye(2), 1e-5)
    expected = (1.0 / (np.sqrt(2.0) + 1e-5)) * np.eye(2)
    npt.assert_allclose(out, expected, rtol=1e-15)
    npt.assert_allclose(out[0, 0], 0.707102, atol=5e-7)


def test_normalized_gram_zero():
    npt.assert_array_equal(normalized_gram(np.zeros((3, 3)), 1e-5), np.zeros((3, 3)))


def test_normalized_gram_norm_below_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        size = int(rng.integers(1, 17))
        f = rng.standard_normal((size, size)) * rng.uniform(0.01, 10.0)
        g = normalized_gram(f, 1e-5)
        assert np.linalg.norm(g) < 1.0
        npt.assert_allclose(g, g.T, atol=1e-12)  # symmetric PSD
        assert np.all(np.linalg.eigvalsh(g) >= -1e-12)


def test_forward_scalar_geometric_series():
    module, s = scalar_setup()
    cfg = SolverConfig(tol=1e-6, max_iters=300)
    res = forward_solve(module, np.array([[1.0]]), s, cfg)
    assert res.converged
    # fixed point of z = 0.4 z + 1
    npt.assert_allclose(res.z_star[0, 0], 1.0 / 0.6, rtol=1e-5)
    assert res.iterations == 16
    npt.assert_allclose(res.z_star[0, 0], 1.666667, atol=1e-5)


def test_forward_gamma_zero_returns_injected_from_both_kernels():
    # The map is constant: the closed form is H and step 1 confirms it; Picard
    # lands on H at step 1 and confirms it at step 2. Both go through g's
    # eigenbasis and back, so Z* equals H up to rounding.
    rng = np.random.default_rng(12)
    s = random_normalized_csr(rng, 6)
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)), gamma=0.0, scale_m=2)
    injected = rng.uniform(-1.0, 1.0, (3, 6))
    closed = forward_solve(module, injected, s)
    picard = forward_solve(module, injected, sp.csr_array(s))
    assert closed.iterations == 1 and picard.iterations == 2
    assert (closed.path, picard.path) == ("closed form", "picard")
    for res in (closed, picard):
        assert res.converged
        npt.assert_allclose(res.z_star, injected, rtol=0, atol=1e-15)


def check_forward_against_oracle(rng, make_s):
    cfg = SolverConfig(tol=1e-8, max_iters=2000)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        s = make_s(rng, n)
        module = ScaleModule(f_weight=rng.standard_normal((4, 4)) * 0.7,
                             gamma=0.8, scale_m=int(rng.integers(1, 4)))
        injected = rng.standard_normal((4, n))
        res = forward_solve(module, injected, s, cfg)
        exact = oracle_solve(module, injected, s)
        assert np.linalg.norm(res.z_star - exact) <= 10 * cfg.tol * np.linalg.norm(exact)


def test_forward_matches_oracle_on_random_graphs():
    check_forward_against_oracle(np.random.default_rng(1), random_normalized_csr)


def test_forward_matches_oracle_on_directed_graphs():
    # A symmetric S cannot tell the forward operator S^T from S; this one can.
    check_forward_against_oracle(np.random.default_rng(13), random_directed_csr)


def test_forward_divergence_error_on_bad_s():
    # spectral norm of 3*I is 3 > 1, and gamma * g ~ 0.9 * 3 > 1: both solves
    # diverge, and the floating-point error state is restored on the raise.
    module = ScaleModule(f_weight=np.eye(2) * 10, gamma=0.9, eps_f=1e-13)
    s = as_csr(sp.eye_array(4, format="csr") * 3.0)
    cfg = SolverConfig(tol=1e-30, max_iters=300)
    rhs = np.ones((2, 4)) * 1e300
    solves = {"forward solve": lambda: forward_solve(module, rhs, s, cfg),
              "adjoint solve": lambda: adjoint_solve(module, s, rhs, cfg)}
    for what, solve in solves.items():
        before = np.geterr()
        with pytest.raises(DivergenceError, match=what):
            solve()
        assert np.geterr() == before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make_s", [random_normalized_csr, random_directed_csr],
                         ids=["undirected", "directed"])
def test_nonfinite_right_hand_side_is_named(make_s, bad):
    # Under the error::RuntimeWarning filter a warning from the first product
    # with an Inf would surface in place of the DivergenceError.
    rng = np.random.default_rng(4)
    s = make_s(rng, 6)
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)))
    rhs = rng.standard_normal((3, 6))
    rhs[1, 2] = bad
    with pytest.raises(DivergenceError, match=r"^forward solve: .* H is not finite"):
        forward_solve(module, rhs, s)
    with pytest.raises(DivergenceError, match=r"^adjoint solve: .* dL/dZ\* is not finite"):
        adjoint_solve(module, s, rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200],
                         ids=["nan", "inf", "-inf", "gram-overflow"])
def test_nonfinite_f_is_named(bad):
    # Training updates F in place, after ScaleModule validated it. A finite
    # 1e200 makes F^T F overflow.
    rng = np.random.default_rng(5)
    s = random_normalized_csr(rng, 6)
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)))
    module.f_weight[0, 1] = bad
    rhs = rng.standard_normal((3, 6))
    with pytest.raises(DivergenceError, match=r"^forward solve: g\(F\) is not finite"):
        forward_solve(module, rhs, s)
    with pytest.raises(DivergenceError, match=r"^adjoint solve: g\(F\) is not finite"):
        adjoint_solve(module, s, rhs)


def test_forward_residual_contracts_geometrically():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        s = random_normalized_csr(rng, n)
        gamma = float(rng.uniform(0.3, 0.95))
        module = ScaleModule(f_weight=rng.standard_normal((5, 5)), gamma=gamma)
        steps = picard_steps(module, rng.standard_normal((5, n)), s, 20)
        assert np.all(steps[1:] <= gamma * steps[:-1] + 1e-9)


def test_forward_unique_fixed_point_across_inits():
    rng = np.random.default_rng(3)
    n = 8
    s = sp.csr_array(random_normalized_csr(rng, n))  # a plain copy iterates from z0
    module = ScaleModule(f_weight=rng.standard_normal((4, 4)), gamma=0.8)
    injected = rng.standard_normal((4, n))
    cfg = SolverConfig(tol=1e-9, max_iters=2000)
    res0 = forward_solve(module, injected, s, cfg)
    res1 = forward_solve(module, injected, s, cfg, z0=rng.standard_normal((4, n)) * 5)
    diff = np.linalg.norm(res0.z_star - res1.z_star)
    assert diff <= 10 * cfg.tol * max(np.linalg.norm(res0.z_star), 1.0)


def test_solves_leave_their_inputs_unchanged():
    # Picard updates its iterate in place: the start must be its own array.
    rng = np.random.default_rng(5)
    s = random_normalized_csr(rng, 7)
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)), gamma=0.7)
    injected, z0 = rng.standard_normal((3, 7)), rng.standard_normal((3, 7))
    kept = injected.copy(), z0.copy()
    for matrix in (s, sp.csr_array(s)):  # from the closed form, and from z0
        forward_solve(module, injected, matrix, z0=z0)
        adjoint_solve(module, matrix, injected)
        npt.assert_array_equal(injected, kept[0])
        npt.assert_array_equal(z0, kept[1])


def test_forward_node_permutation_equivariance():
    rng = np.random.default_rng(4)
    n = 9
    s = random_normalized_csr(rng, n)
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)), gamma=0.7, scale_m=2)
    injected = rng.standard_normal((3, n))
    cfg = SolverConfig(tol=1e-12, max_iters=3000)
    base = forward_solve(module, injected, s, cfg).z_star
    perm = rng.permutation(n)
    p = np.zeros((n, n))
    p[np.arange(n), perm] = 1.0  # column j of (Z P) is column perm[j]... build S' = P^T S P
    s_perm = as_csr(sp.csr_array(p.T @ s.todense() @ p))
    inj_perm = injected @ p
    permuted = forward_solve(module, inj_perm, s_perm, cfg).z_star
    npt.assert_allclose(permuted, base @ p, atol=1e-9)


def test_adjoint_gamma_zero_is_identity():
    module = ScaleModule(f_weight=np.eye(3), gamma=0.0)
    s = as_csr(sp.eye_array(5, format="csr"))
    grad = np.random.default_rng(5).standard_normal((3, 5))
    npt.assert_array_equal(adjoint_solve(module, s, grad), grad)


def test_adjoint_scalar_geometric_series():
    module, s = scalar_setup()
    u = adjoint_solve(module, s, np.array([[1.0]]), SolverConfig(tol=1e-10, max_iters=500))
    npt.assert_allclose(u[0, 0], 1.0 / 0.6, rtol=1e-8)


def check_adjoint_against_kronecker(rng, make_s):
    for _ in range(5):
        n = int(rng.integers(3, 8))
        h = int(rng.integers(2, 6))
        s = make_s(rng, n)
        module = ScaleModule(f_weight=rng.standard_normal((h, h)), gamma=0.8,
                             scale_m=int(rng.integers(1, 3)))
        grad = rng.standard_normal((h, n))
        u = adjoint_solve(module, s, grad, SolverConfig(tol=1e-11, max_iters=3000))
        # vec(U) = (I - gamma K^T)^{-1} vec(grad), K = (S^m)^T kron g(F)
        g = normalized_gram(module.f_weight, module.eps_f)
        s_m = np.linalg.matrix_power(np.asarray(s.todense()), module.scale_m)
        k = np.kron(s_m.T, g)
        expected = np.linalg.solve(np.eye(h * n) - module.gamma * k.T,
                                   grad.flatten(order="F")).reshape((h, n), order="F")
        npt.assert_allclose(u, expected, atol=1e-8 * (1 + np.abs(expected).max()))


def test_adjoint_matches_kronecker_oracle():
    check_adjoint_against_kronecker(np.random.default_rng(6), random_normalized_csr)


def test_adjoint_matches_kronecker_oracle_on_directed_graphs():
    # A symmetric S cannot tell the adjoint operator S from S^T; this one can.
    check_adjoint_against_kronecker(np.random.default_rng(14), random_directed_csr)


def test_weight_gradient_zero_adjoint():
    rng = np.random.default_rng(7)
    s = random_normalized_csr(rng, 5)
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)), gamma=0.6)
    z = rng.standard_normal((3, 5))
    npt.assert_array_equal(weight_gradient(module, np.zeros((3, 5)), z, s),
                           np.zeros((3, 3)))


def check_weight_gradient(rng, s):
    # loss(F) = <R, Z*(F)> checked against central differences
    n, h = s.shape[0], 3
    injected = rng.standard_normal((h, n))
    r = rng.standard_normal((h, n))
    f = rng.standard_normal((h, h))
    gamma, m = 0.7, 2
    cfg = SolverConfig(tol=1e-13, max_iters=5000)

    def loss(f_mat):
        module = ScaleModule(f_weight=f_mat, gamma=gamma, scale_m=m)
        return float(np.sum(r * forward_solve(module, injected, s, cfg).z_star))

    module = ScaleModule(f_weight=f, gamma=gamma, scale_m=m)
    z_star = forward_solve(module, injected, s, cfg).z_star
    u = adjoint_solve(module, s, r, cfg)
    analytic = weight_gradient(module, u, z_star, s)

    step = 1e-5
    numeric = np.zeros_like(f)
    for i in range(h):
        for j in range(h):
            fp = f.copy(); fp[i, j] += step
            fm = f.copy(); fm[i, j] -= step
            numeric[i, j] = (loss(fp) - loss(fm)) / (2 * step)
    npt.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)


def test_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    check_weight_gradient(rng, random_normalized_csr(rng, 6))


def test_weight_gradient_matches_finite_differences_on_directed_graph():
    rng = np.random.default_rng(15)
    check_weight_gradient(rng, random_directed_csr(rng, 6))


def test_weight_gradient_symmetry_preserved():
    # dF = F (dG + dG^T) stays symmetric when F is symmetric and the upstream
    # M commutes with F; arrange M = G^2 (a polynomial in G = F^T F) by feeding
    # the algebra u = G^2/gamma against z_star = I over an identity adjacency.
    rng = np.random.default_rng(9)
    h = 3
    f = rng.standard_normal((h, h))
    f = (f + f.T) / 2
    module = ScaleModule(f_weight=f, gamma=0.5)
    s = as_csr(sp.eye_array(h, format="csr"))
    gram = f.T @ f
    u = (gram @ gram) / module.gamma
    grad = weight_gradient(module, u, np.eye(h), s)
    npt.assert_allclose(grad, grad.T, atol=1e-10)


def test_oracle_gamma_zero():
    module = ScaleModule(f_weight=np.eye(2), gamma=0.0)
    s = as_csr(sp.eye_array(3, format="csr"))
    injected = np.arange(6.0).reshape(2, 3)
    npt.assert_allclose(oracle_solve(module, injected, s), injected, atol=1e-14)


def test_oracle_scalar_closed_form():
    module, s = scalar_setup()
    out = oracle_solve(module, np.array([[1.0]]), s)
    npt.assert_allclose(out[0, 0], 1.0 / 0.6, rtol=1e-12)


def test_oracle_capacity_guard():
    module = ScaleModule(f_weight=np.eye(64), gamma=0.5)
    s = as_csr(sp.eye_array(65, format="csr"))
    with pytest.raises(CapacityError):
        oracle_solve(module, np.zeros((64, 65)), s)
