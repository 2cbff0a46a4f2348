import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import settings
from hypothesis import strategies as st

from msignn import (ChainsSpec, EquilibriumResult, ScaleModule, SolverConfig, adjoint_solve,
                    build_graph, equilibrium, forward_solve, gen_chains, measure_decay,
                    weight_gradient)
from msignn.model import MlpEncoder, glorot_uniform
from msignn.train import bce_with_logits, cross_entropy

# Property tests draw the same examples on every run and keep no example
# database; a test's own ``settings`` sets only how many it draws. The draw
# is seeded from the test's source, so editing a property test's body draws
# new examples: before trusting a tight bound in an edited test, run it
# under a profile with ``derandomize=False`` and a few ``--hypothesis-seed``
# values.
settings.register_profile("msignn", deadline=None, derandomize=True, database=None)
settings.load_profile("msignn")

ROOT = Path(__file__).resolve().parents[1]


def random_undirected_graph(rng, n, density=0.3, feat_dim=3, num_classes=2):
    """Random symmetric 0/1 graph with features and int labels."""
    a = (rng.random((n, n)) < density).astype(float)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    features = rng.standard_normal((feat_dim, n))
    labels = rng.integers(0, num_classes, n)
    return build_graph(sp.csr_array(a), features, labels, directed=False)


def undirected_graph(seed, sizes, density=0.5):
    """An undirected graph whose nodes fall into components of the given sizes.

    Each component is a random graph on its nodes (so it may split further;
    a size-1 component is an isolated node), and node ids are shuffled, so
    components are not contiguous ranges. ``seed`` may be a Generator,
    whose draws it then advances.
    """
    rng = np.random.default_rng(seed)
    a = _upper_blocks(rng, sizes, density)
    return _shuffled(rng, a + a.T, directed=False)


def contiguous_graph(seed, sizes, density=0.5, interleave=False, weighted=False):
    """An undirected graph of connected components of the given sizes, each
    on a run of consecutive node ids, in ascending size order.

    That is how ``batch`` and the generators lay out their components, so
    every spectrum block's rows are one slice. Each component holds the path
    through its nodes in order, plus random edges. ``interleave=True``
    gives the same graph with its nodes dealt out to the components in turn
    (``interleaving``), each component's nodes kept in order.
    ``weighted=True`` draws each edge's weight from [0.5, 1.5), so no two
    components of one size are alike, as 0/1 ones of size 2 always are.
    """
    rng = np.random.default_rng(seed)
    sizes = sorted(sizes)
    a = _upper_blocks(rng, sizes, density)
    a[np.arange(sum(sizes) - 1), np.arange(1, sum(sizes))] = 1.0
    a[np.cumsum(sizes)[:-1] - 1, np.cumsum(sizes)[:-1]] = 0.0  # no path across components
    if weighted:
        a *= rng.uniform(0.5, 1.5, a.shape)
    a += a.T
    if interleave:
        position = interleaving(sizes)
        a[np.ix_(position, position)] = a.copy()
    return build_graph(sp.csr_array(a), rng.standard_normal((2, a.shape[0])))


def interleaving(sizes):
    """Where node j of ``contiguous_graph(..., sorted(sizes))`` sits when
    ``interleave`` deals the nodes out: the first node of every component,
    then the second of every component with one, and so on."""
    sizes = sorted(sizes)
    start = np.cumsum([0] + sizes[:-1])
    order = [start[c] + i for i in range(max(sizes)) for c, k in enumerate(sizes) if i < k]
    return np.argsort(order)


def directed_graph(seed, sizes, density=0.5, cyclic=False):
    """A directed graph on components of the given sizes and one isolated node.

    In each component, node i links to each later node with probability
    ``density``, so the graph is acyclic, with sources and sinks; a size-1
    component is an isolated node. The first component is widened to three
    nodes if smaller and holds the path 0 -> 1 -> 2, which ``cyclic``
    closes with 2 -> 0. No edge on it is reversed, so S is not symmetric.
    Node ids are shuffled.
    """
    rng = np.random.default_rng(seed)
    a = _upper_blocks(rng, [max(sizes[0], 3), *sizes[1:], 1], density)
    a[0, 1] = a[1, 2] = 1.0
    if cyclic:
        a[2, 0], a[0, 2] = 1.0, 0.0
    return _shuffled(rng, a, directed=True)


def _upper_blocks(rng, sizes, density):
    """A block-diagonal 0/1 matrix, each block strictly upper-triangular."""
    a = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for k in sizes:
        a[start:start + k, start:start + k] = np.triu(rng.random((k, k)) < density, 1)
        start += k
    return a


def _shuffled(rng, a, directed):
    perm = rng.permutation(a.shape[0])
    return build_graph(sp.csr_array(a[np.ix_(perm, perm)]),
                       rng.standard_normal((2, a.shape[0])), directed=directed)


seeds = st.integers(0, 2**32 - 1)
# The arguments of ``undirected_graph`` and ``directed_graph``: a seed,
# component sizes and an edge density.
graph_specs = st.tuples(seeds, st.lists(st.integers(1, 7), min_size=1, max_size=5),
                        st.floats(0.0, 1.0))
undirected_graphs = graph_specs.map(lambda spec: undirected_graph(*spec))
# F -> 0 covers g(F) = 0 and the eps-dominated regime of g.
f_scales = st.sampled_from([0.0, 1e-9, 1e-3, 0.3, 1.0, 3.0])


def consecutive_splits(train, val, test):
    """``Dataset`` keywords of split masks that are runs of consecutive ids, in order."""
    split = np.repeat([0, 1, 2], [train, val, test])
    return {f"{name}_mask": split == k for k, name in enumerate(("train", "val", "test"))}


def relabelled(ds, labels):
    """Node dataset ``ds`` with its graph's labels replaced by ``labels``."""
    g = ds.graph
    return replace(ds, graph=build_graph(g.adjacency, g.features, labels))


def probe_encoder(rng, feature_dim, hidden):
    """A two-layer MLP encoder's forward, and an F of gain 0.5, drawn in that order."""
    encoder = MlpEncoder([glorot_uniform(rng, hidden, feature_dim),
                          glorot_uniform(rng, hidden, hidden)])
    return (lambda x: encoder.forward(x)[0]), glorot_uniform(rng, hidden, hidden, gain=0.5)


def chain_probe_setup(length, hidden=6, seed=0):
    """One chain, a ``probe_encoder`` and F, and a solver config that resolves every hop."""
    rng = np.random.default_rng(seed)
    g = gen_chains(ChainsSpec(num_classes=1, chains_per_class=1, length=length,
                              seed=seed)).graph
    encode, f_weight = probe_encoder(rng, g.feature_dim, hidden)
    return g, encode, f_weight, SolverConfig(tol=1e-15, max_iters=length + 50)


def assert_trained_alike(out_a, out_b):
    """Two ``train`` runs wrote byte-identical checkpoints, metrics and history,
    but for the history's last column, the measured wall time."""
    for name in ("checkpoint.json", "metrics.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    history = [[",".join(r.split(",")[:-1])
                for r in (out / "history.csv").read_text().strip().split("\n")]
               for out in (out_a, out_b)]
    assert history[0] == history[1]


def chain_decay(length, hidden=6, **module):
    """``measure_decay`` from node 0 of ``chain_probe_setup(length, hidden)``'s
    chain, through a scale module of ``module`` on its F."""
    g, encode, f_weight, cfg = chain_probe_setup(length, hidden)
    return measure_decay(ScaleModule(f_weight=f_weight, **module), g, encode, p=0, cfg=cfg)


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def hopping_result(z_star, s):
    """A forward result holding only Z* and S, so ``weight_gradient`` hops from it."""
    return EquilibriumResult(z_star=z_star, iterations=0, residual=0.0, converged=True,
                             path="picard", s=s)


def assert_solves_as_if_new(module, s):
    """Assert that ``module``'s weight gradient, adjoint solve and forward
    solve on S, in that order, each equal bit for bit those of a module made
    anew from a copy of its F: nothing kept from an earlier F shows."""
    injected, grad = np.random.default_rng(0).standard_normal((2, module.hidden_dim, s.shape[0]))
    new = replace(module, f_weight=module.f_weight.copy())
    z = forward_solve(new, injected, s)
    u = adjoint_solve(new, s, grad)
    assert np.array_equal(weight_gradient(module, u, z), weight_gradient(new, u, z))
    assert np.array_equal(adjoint_solve(module, s, grad), u)
    assert np.array_equal(forward_solve(module, injected, s).z_star, z.z_star)


def picard_steps(module, injected, s, count):
    """||z_k - z_(k-1)||_F for k = 1..count, z_0 = 0.

    z_k is the forward solve stopped after k Picard iterations on a plain
    copy of S, which has no spectrum, so it iterates.
    """
    plain = sp.csr_array(s)
    prev = np.zeros_like(injected)
    steps = []
    for k in range(1, count + 1):
        z = forward_solve(module, injected, plain,
                          SolverConfig(tol=1e-300, max_iters=k)).z_star
        steps.append(np.linalg.norm(z - prev))
        prev = z
    return np.array(steps)


def power_iteration_norm(dense, iters=200):
    """Spectral norm via power iteration on A^T A."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dense.shape[1])
    v /= np.linalg.norm(v)
    ata = dense.T @ dense
    for _ in range(iters):
        w = ata @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(v @ ata @ v))


class Traced(NamedTuple):
    peak: int  # the most bytes allocated at once while the call ran
    held: int  # the bytes still allocated when it returned, its result included


def traced_peak(fn: Callable) -> Traced:
    """What ``fn()`` allocates, as tracemalloc counts it from the call's start."""
    tracemalloc.start()
    try:
        result = fn()  # kept alive while the memory it holds is read
        held, peak = tracemalloc.get_traced_memory()
        return Traced(peak, held)
    finally:
        tracemalloc.stop()


@contextmanager
def counting_hops():
    """Counts ``equilibrium._propagate`` calls, the solves' only sparse hops,
    and the CSR transposes, such as the ``S^T`` a forward solve hops with.

    Yields a counter whose ``calls`` and ``transposes`` are the numbers of
    each so far; a closed-form solve and a hop-free weight gradient make
    neither.
    """
    propagate, transpose = equilibrium._propagate, sp.csr_array.transpose
    counter = SimpleNamespace(calls=0, transposes=0)

    def counted(y, op, m):
        counter.calls += 1
        return propagate(y, op, m)

    def counted_transpose(s, *args, **kwargs):
        counter.transposes += 1
        return transpose(s, *args, **kwargs)

    equilibrium._propagate, sp.csr_array.transpose = counted, counted_transpose
    try:
        yield counter
    finally:
        equilibrium._propagate, sp.csr_array.transpose = propagate, transpose


def check_gradients(model, data, labels):
    """Assert that ``model.backward`` gives every parameter's gradient of the
    task's loss to central differences.

    The loss is the multi-hot BCE (a multilabel model) or the cross-entropy
    over every column of the logits. Every forward is a train-mode one with
    a fresh ``default_rng(0)``, so dropout draws the same mask each time.
    Each entry is stepped by 1e-5 either way, and the gradient must match
    within rtol 1e-3 / atol 1e-6. Returns the trace of the analytic forward
    and the ``counting_hops`` counter of that forward and its backward.
    """
    loss_fn = bce_with_logits if model.multilabel else cross_entropy
    mask = np.ones(labels.shape[-1], dtype=bool)

    def forward():
        return model.forward(data, train_mode=True, rng=np.random.default_rng(0))

    with counting_hops() as counter:
        trace = forward()
        grads = model.backward(data, trace, loss_fn(trace.logits, labels, mask)[1])
    step = 1e-5
    for name, p in model.parameters().items():
        numeric = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            lp = loss_fn(forward().logits, labels, mask)[0]
            p[idx] = orig - step
            lm = loss_fn(forward().logits, labels, mask)[0]
            p[idx] = orig
            numeric[idx] = (lp - lm) / (2 * step)
        npt.assert_allclose(grads[name], numeric, rtol=1e-3, atol=1e-6,
                            err_msg=f"parameter {name}")
    return trace, counter


def recording(patch, owner, name: str, note: Callable = lambda *args, **kwargs: args,
              calls: list | None = None) -> list:
    """Patch ``owner.name`` to run as before, after appending ``note`` of
    each call's arguments to ``calls`` (a new list if None), which it returns."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(note(*args, **kwargs))
        return original(*args, **kwargs)

    patch.setattr(owner, name, recorded)
    return calls


def pytest_collectstart(collector):
    """Put a module's former one-rule tests (``test_rejections.FORMER``) in its namespace."""
    if isinstance(collector, pytest.Module):
        try:
            from test_rejections import FORMER, former_tests
            module = collector.obj
        except Exception:  # the failed import is reported where the module is collected
            return
        if module.__name__ in FORMER:
            vars(module).update(former_tests(module.__name__))


@pytest.fixture
def hops():
    with counting_hops() as counter:
        yield counter


# The schema of ``read_json``'s own tests and of the JSON rows of ``test_rejections``.
SCHEMA = {"name": "string", "size": "count", "rate?": "number",
          "items": [{"m": "integer", "on?": "boolean"}]}


def sources(*folders: str) -> list[Path]:
    """The ``.py`` files of each folder under the repository root, sorted by name."""
    return [path for folder in folders for path in sorted((ROOT / folder).glob("*.py"))]


def matching_lines(pattern: re.Pattern, source: str) -> list[str]:
    """Each line of ``source`` that ``pattern`` matches, as ``line N: text``."""
    return [f"line {number}: {line.strip()}"
            for number, line in enumerate(source.splitlines(), start=1)
            if pattern.search(line)]


def run_python(*args: str, cwd) -> subprocess.CompletedProcess:
    """``python *args`` run in ``cwd``, importing the package from ``src``."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)


def apart(call: Callable) -> Callable:
    """``call`` run in a forked process, raising here what it raised there.

    scipy converts a corrupt sparse structure unchecked, and that can crash
    the interpreter: a check of one that regresses then fails its own test,
    not the whole run.
    """
    def run(**kwargs):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child ends here, whatever happens
            try:
                call(**kwargs)
                os.write(write, pickle.dumps(None))
            except Exception as exc:
                os.write(write, pickle.dumps(exc))
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            sent = pipe.read()
        status = os.waitpid(pid, 0)[1]
        assert (status, bool(sent)) == (0, True), f"the forked call ended with status {status}"
        if (error := pickle.loads(sent)) is not None:
            raise error
    return run
