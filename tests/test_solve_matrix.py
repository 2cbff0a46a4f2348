"""Every solve kernel against the oracle and against Picard, on every kind of graph.

A matrix of cells: five kinds of graph, each with the path its solves
are expected to take, by three solves (forward, adjoint and the weight
gradient). Each cell asserts the path taken, agreement with the dense
Kronecker ``oracle_solve``, agreement with forced Picard (the same solve
on a plain ``sp.csr_array`` copy of S, which has no spectrum) and, for
the gradient, central differences. A new solve kernel adds its row to
``KINDS``, or changes the expected path of the rows it takes over.

Picard stops on its step size, so its error is up to tol / (1 - gamma)
relative; the closed form's answer does not depend on tol, which must
only lie above its residual bound (up to ~3e-14 on these graphs), or
the solve goes on as Picard.
"""

from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msignn import (ScaleModule, SolverConfig, adjoint_solve, forward_solve, oracle_solve,
                    weight_gradient)
from msignn import graph as graph_mod
from msignn.graph import component_labels, spectrum

from conftest import (contiguous_graph, counting_hops, directed_graph, f_scales, graph_specs,
                      hopping_result, rel_error, seeds, undirected_graph)

CFG = SolverConfig(tol=1e-12, max_iters=20000)


def _over_the_cap(*spec):
    """``undirected_graph(*spec)`` with the spectrum cap below its largest component.

    The spectrum is decided, and cached on S, on its first use.
    """
    g = undirected_graph(*spec)
    largest = np.unique(component_labels(g.s), return_counts=True)[1].max()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_mod, "SPECTRUM_MAX_COMPONENT", int(largest) - 1)
        assert spectrum(g.s) is None
    return g


class Kind(NamedTuple):
    build: Callable  # a graph from a ``graph_specs`` draw
    path: str  # the path every solve on these graphs takes


# The closed form reads and writes a spectrum block's rows as one slab when
# they are a run of consecutive ids ("contiguous", the layout of ``batch`` and
# of the generators), and gathers them when components interleave (some
# "undirected" graphs, whose ids are shuffled).
KINDS = {
    "undirected": Kind(undirected_graph, "closed form"),
    "contiguous": Kind(contiguous_graph, "closed form"),
    "over-the-cap": Kind(_over_the_cap, "picard"),
    "directed-acyclic": Kind(directed_graph, "picard"),
    "directed-cyclic": Kind(partial(directed_graph, cyclic=True), "picard"),
}


def cell(max_examples: int, hidden: st.SearchStrategy, gammas: st.SearchStrategy):
    """Run a test once per graph kind, on ``max_examples`` drawn graphs and
    modules and, always, at the judged workloads' scales m = 1, 4 and 8."""
    def decorate(test):
        test = given(spec=graph_specs, seed=seeds, h=hidden, f_scale=f_scales,
                     gamma=gammas, m=st.integers(1, 8))(test)
        for m in (1, 4, 8):
            test = example(spec=(m, [4, 3, 1], 0.6), seed=m, h=3, f_scale=1.0,
                           gamma=0.7, m=m)(test)
        return pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS)(
            settings(max_examples=max_examples)(test))
    return decorate


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@cell(40, st.integers(1, 5), st.floats(0.01, 0.99))
def test_solve(kind, adjoint, spec, seed, h, f_scale, gamma, m):
    g = kind.build(*spec)
    rng = np.random.default_rng(seed)
    module = ScaleModule(f_weight=f_scale * rng.standard_normal((h, h)), gamma=gamma,
                         scale_m=m)
    rhs = rng.standard_normal((h, g.n))

    def solve(s):
        if adjoint:
            return adjoint_solve(module, s, rhs, CFG)
        return forward_solve(module, rhs, s, CFG)

    closed = kind.path == "closed form"
    with counting_hops() as hops:
        out = solve(g.s)
    assert (hops.calls == 0) == closed
    picard = solve(sp.csr_array(g.s))
    if not adjoint:  # adjoint_solve returns only U: its path shows in its hops
        assert (out.path, picard.path) == (kind.path, "picard")
        assert out.converged and picard.converged
        if closed:
            assert out.iterations == 0 and out.residual <= 1e-13
        out, picard = out.z_star, picard.z_star
    # U = gamma g U (S^m)^T + grad is the forward equation on S^T.
    exact = oracle_solve(module, rhs, sp.csr_array(g.s.T) if adjoint else g.s)
    bound = 10 * CFG.tol / (1 - gamma)
    assert rel_error(out, exact) <= (1e-11 if closed else bound)
    assert rel_error(out, picard) <= bound


@cell(12, st.integers(1, 3), st.floats(0.05, 0.9))
def test_weight_gradient(kind, spec, seed, h, f_scale, gamma, m):
    # loss(F) = <R, Z*(F)>, checked against central differences
    g = kind.build(*spec)
    rng = np.random.default_rng(seed)
    injected, r = rng.standard_normal((2, h, g.n))
    f = f_scale * rng.standard_normal((h, h))
    module = ScaleModule(f_weight=f, gamma=gamma, scale_m=m)
    closed = kind.path == "closed form"
    # Picard, asked for 1e-14, stops within tol / (1 - gamma) of Z* and U.
    picard = replace(CFG, tol=1e-14)
    cfg = CFG if closed else picard

    def gradient(s, cfg):
        z = forward_solve(module, injected, s, cfg)
        u = adjoint_solve(module, s, r, cfg)
        return weight_gradient(module, u, z), z, u

    def loss(f_mat):
        return np.sum(r * forward_solve(replace(module, f_weight=f_mat), injected, g.s,
                                        cfg).z_star)

    # g(F) bends on the scale of F, so the step shrinks with F to keep the
    # differences' truncation error below rtol; its floor bounds rounding,
    # which atol allows for: ~1e-13 / step, at most 1e-7.
    step = 1e-5 * min(1.0, max(f_scale, 1e-2))
    numeric = np.zeros((h, h))
    with counting_hops() as hops:
        analytic, z, u = gradient(g.s, cfg)
        for i, j in np.ndindex(h, h):
            df = np.zeros((h, h))
            df[i, j] = step
            numeric[i, j] = (loss(f + df) - loss(f - df)) / (2 * step)
    assert z.path == kind.path and (hops.calls == 0) == closed
    npt.assert_allclose(analytic, numeric, rtol=1e-4, atol=min(1e-7, 1e-13 / step))
    exact = weight_gradient(module, oracle_solve(module, r, sp.csr_array(g.s.T)),
                            hopping_result(oracle_solve(module, injected, g.s), g.s))
    assert rel_error(analytic, exact) <= 1e-12
    assert rel_error(analytic, gradient(sp.csr_array(g.s), picard)[0]) <= 1e-12
    if closed:  # from the same Z*, the two ways of forming Z* S^m agree to rounding,
        # which the gradient's cancellation lifted to 2.4e-13 relative in 3000 drawn cases
        hopped = replace(z, basis=None, coefficients=None)
        assert rel_error(weight_gradient(module, u, hopped), analytic) <= 1e-12
