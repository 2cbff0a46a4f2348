"""The benchmark's tracer patches library functions and methods by name.

These tests fail when a name it patches is deleted or renamed, when a
solve's signature no longer fits its wrapper, or when a patch outlives the
tracer.
"""

import numpy as np
import pytest

import msignn.model
from msignn import TrainConfig, batch, init_model, train_loop
from msignn.datasets import GraphDataset

from conftest import random_undirected_graph


@pytest.fixture
def tracing(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "perfbench"))
    import tracing
    return tracing


def _patched_names(tracing):
    names = [(owner, attr) for owner, attr, _ in tracing.FUNCTIONS + tracing.METHODS]
    return names + [(msignn.model, "forward_solve"), (msignn.model, "adjoint_solve")]


def test_tracer_restores_every_patched_name(tracing):
    names = _patched_names(tracing)
    originals = [getattr(owner, attr) for owner, attr in names]
    with tracing.Tracer():
        inside = [getattr(owner, attr) for owner, attr in names]
    assert all(now is not before for now, before in zip(inside, originals))
    assert [getattr(owner, attr) for owner, attr in names] == originals


def test_traced_graph_training_records_solves(tracing):
    rng = np.random.default_rng(0)
    graphs = [random_undirected_graph(rng, 4) for _ in range(4)]
    data = GraphDataset(graphs=graphs, labels=np.array([0, 1, 0, 1]),
                        train_mask=np.array([True, True, False, False]),
                        val_mask=np.array([False, False, True, False]),
                        test_mask=np.array([False, False, False, True]))
    model = init_model(rng, graphs[0].feature_dim, 4, 2, scale_exponents=(1, 2),
                       task="graph")
    with tracing.Tracer() as tracer:
        history = train_loop(model, data, TrainConfig(epochs=2, batch_size=2))
        model.predict(batch(graphs))
    names = {span.name for span in tracer.spans}
    assert {"equilibrium.forward_solve", "equilibrium.adjoint_solve", "graph.batch",
            "equilibrium.weight_gradient", "model.sum_pool", "train.loss",
            "train.adam_step", "model.predict"} <= names
    solves = [s for s in tracer.spans if s.name.startswith("equilibrium.")
              and s.name.endswith("_solve")]
    assert all(s.info["converged"] for s in solves)
    assert len(history) == 2
