"""The solves' own properties, on small fixed inputs.

The scalar geometric series, gamma = 0, divergence and non-finite inputs
named, geometric contraction, one fixed point from any start, inputs left
unchanged, permutation equivariance, the weight gradient's zero and
symmetric cases, integer settings, what the solves share at one F made
again after F is edited in place, and the oracle's own checks. The
agreement of every solve path with the oracle, with Picard and with
central differences is checked in ``test_solve_matrix``.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from msignn import (Adam, ScaleModule, SolverConfig, adjoint_solve, forward_solve,
                    normalized_gram, oracle_solve, weight_gradient)
from msignn.errors import DivergenceError
from msignn.graph import spectrum
from msignn.numerics import as_csr

from conftest import (assert_solves_as_if_new, contiguous_graph, directed_graph, hopping_result,
                      picard_steps, undirected_graph)


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


def test_forward_gamma_zero_returns_injected_from_both_kernels(hops):
    # The map is constant: the closed form is H, with no hop; Picard lands on H
    # at step 1 and confirms it at step 2. Both go through g's eigenbasis and
    # back, so Z* equals H up to the rounding that equilibrium._residual_bound
    # counts: a length-n dot product errs by n u times its factors' norms, so
    # the rotations H^T Q and W Q^T err by h^(3/2) u ||H|| each, and the closed
    # form's V^T R and V C by k^(3/2) u ||H|| each, k the largest component.
    rng = np.random.default_rng(12)
    s = undirected_graph(rng, [6]).s
    h = 3
    module = ScaleModule(f_weight=rng.standard_normal((h, h)), gamma=0.0, scale_m=2)
    injected = rng.uniform(-1.0, 1.0, (h, 6))
    closed = forward_solve(module, injected, s)
    assert (closed.path, closed.iterations, hops.calls) == ("closed form", 0, 0)
    picard = forward_solve(module, injected, sp.csr_array(s))
    assert (picard.path, picard.iterations) == ("picard", 2)
    k = max(b.nodes.shape[1] for b in spectrum(s))
    u = np.finfo(np.float64).eps / 2
    bound = 2 * (h ** 1.5 + k ** 1.5) * u
    for res in (closed, picard):
        assert res.converged
        assert np.linalg.norm(res.z_star - injected) <= bound * np.linalg.norm(injected)


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


def test_forward_residual_contracts_geometrically():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        s = undirected_graph(rng, [n]).s
        gamma = float(rng.uniform(0.3, 0.95))
        module = ScaleModule(f_weight=rng.standard_normal((5, 5)), gamma=gamma)
        steps = picard_steps(module, rng.standard_normal((5, n)), s, 20)
        assert np.all(steps[1:] <= gamma * steps[:-1] + 1e-9)


def test_forward_unique_fixed_point_across_inits():
    rng = np.random.default_rng(3)
    n = 8
    s = sp.csr_array(undirected_graph(rng, [n]).s)  # a plain copy iterates from z0
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
    s = undirected_graph(rng, [7]).s
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
    s = undirected_graph(rng, [n]).s
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


def test_weight_gradient_zero_adjoint():
    rng = np.random.default_rng(7)
    s = undirected_graph(rng, [5]).s
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)), gamma=0.6)
    z = rng.standard_normal((3, 5))
    closed = forward_solve(module, z, s)
    for forward in (hopping_result(z, s), closed):  # both gradient paths
        npt.assert_array_equal(weight_gradient(module, np.zeros((3, 5)), forward),
                               np.zeros((3, 3)))


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
    grad = weight_gradient(module, u, hopping_result(np.eye(h), s))
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


@pytest.mark.parametrize("make, field", [
    (lambda v: ScaleModule(f_weight=np.eye(2), scale_m=v), "scale_m"),
    (lambda v: SolverConfig(max_iters=v), "max_iters"),
], ids=["scale_m", "max_iters"])
def test_integer_settings_take_integers_only(make, field):
    # Other values are rows of test_rejections.SETTINGS.
    value = getattr(make(np.int64(3)), field)  # stored as the int a checkpoint writes
    assert value == 3 and type(value) is int


@pytest.mark.parametrize("kind", ["closed form", "picard"])
def test_every_solve_sees_an_in_place_edit_of_f(kind):
    # The solves share g(F)'s eigenbasis and the closed form's denominators
    # while F's content stays; the optimizer, train_loop's restore of the
    # best epoch and a central difference's step each change it in place.
    s = contiguous_graph(0, [3, 5]).s if kind == "closed form" else directed_graph(0, [5]).s
    rng = np.random.default_rng(1)
    module = ScaleModule(f_weight=rng.standard_normal((3, 3)), gamma=0.7, scale_m=2)
    saved = module.f_weight.copy()
    params = {"f": module.f_weight}
    assert_solves_as_if_new(module, s)
    Adam(params, lr=0.1).step(params, {"f": rng.standard_normal((3, 3))})
    assert_solves_as_if_new(module, s)
    module.f_weight[1, 2] += 1e-5
    assert_solves_as_if_new(module, s)
    module.f_weight[...] = saved
    assert_solves_as_if_new(module, s)
    z = forward_solve(module, np.ones((3, s.shape[0])), s)
    module.f_weight[0, 0] = np.nan  # nothing made from a non-finite F is kept
    for what, call in (("forward solve", lambda: forward_solve(module, z.z_star, s)),
                       ("adjoint solve", lambda: adjoint_solve(module, s, z.z_star)),
                       ("weight gradient", lambda: weight_gradient(module, z.z_star, z))):
        for _ in range(2):
            with pytest.raises(DivergenceError, match=rf"^{what}: g\(F\) is not finite"):
                call()
