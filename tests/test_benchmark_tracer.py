"""The benchmark's tracer patches library functions and methods by name.

These tests fail when a name it patches is deleted or renamed, when a
solve's signature no longer fits its wrapper, or when a patch outlives the
tracer.
"""

import numpy as np
import pytest

import msignn.model
from msignn import TrainConfig, batch, init_model, train_loop
from msignn.datasets import Dataset, GraphDataset

from conftest import consecutive_splits, random_undirected_graph


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


def _node_problem(rng):
    graph = random_undirected_graph(rng, 8)
    data = Dataset(graph=graph, spec_echo={}, **consecutive_splits(4, 2, 2))
    model = init_model(rng, graph.feature_dim, 4, 2, scale_exponents=(1, 2))
    return model, data, graph, set()


def _graph_problem(rng):
    graphs = [random_undirected_graph(rng, 4) for _ in range(4)]
    data = GraphDataset(graphs=graphs, labels=np.array([0, 1, 0, 1]),
                        **consecutive_splits(2, 1, 1))
    model = init_model(rng, graphs[0].feature_dim, 4, 2, scale_exponents=(1, 2),
                       task="graph")
    return model, data, batch(graphs), {"graph.batch", "model.sum_pool"}


@pytest.mark.parametrize("make_problem", [_node_problem, _graph_problem],
                         ids=["node", "graph"])
def test_traced_graph_training_records_solves(tracing, make_problem):
    model, data, predict_input, task_names = make_problem(np.random.default_rng(0))
    epochs = 3
    with tracing.Tracer() as tracer:
        history = tracer.call(tracing.TRAIN_LOOP, train_loop, model, data,
                              TrainConfig(epochs=epochs, batch_size=2))
        model.predict(predict_input)
    names = {span.name for span in tracer.spans}
    assert {"equilibrium.forward_solve", "equilibrium.adjoint_solve",
            "equilibrium.weight_gradient", "train.loss", "train.adam_step",
            "model.predict"} | task_names <= names
    solves = [s for s in tracer.spans if s.name.startswith("equilibrium.")
              and s.name.endswith("_solve")]
    assert all(s.info["converged"] for s in solves)
    assert len(history) == epochs
    # each epoch ends with its evaluation predicts, which the benchmark splits on
    loop_idx = next(i for i, s in enumerate(tracer.spans) if s.name == tracing.TRAIN_LOOP)
    epoch_ids = tracing.assign_epochs(tracer.spans, loop_idx,
                                      [row["seconds"] for row in history])
    assert len(epoch_ids) == len(history)
    # The tracer counts solves only where the model calls forward_solve by
    # name, once per scale. A node task without dropout runs one forward per
    # epoch plus the first step's; a graph task here one minibatch step and
    # one predict per split each epoch.
    forwards = epochs + 1 if model.task == "node" else 3 * epochs
    in_loop = [s for s in tracer.spans
               if s.name == "equilibrium.forward_solve" and s.epoch >= 0]
    assert len(in_loop) == forwards * len(model.scales)
