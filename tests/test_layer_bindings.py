"""The program bindings an outside tracer wraps to time each layer.

perfbench's per-layer metrics come from wrapping these bindings from
outside, the way this test does: the engine's module globals and builtin
table, the ACO problem constructors, the packed runtime and the walk
kernel, and ``run_iter``/``get``/``put`` on the instances.  A change that
renames or reshapes one of them makes its layer read zero without failing
anything else, so this test pins their shapes and call counts on a
six-graph comparison through the batched engine.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.aco import runtime
from repro.aco.params import ACOParams
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.datasets.corpus import att_like_corpus
from repro.experiments import engine as engine_module
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine, default_method_specs
from repro.experiments.runner import run_comparison

CORPUS = att_like_corpus(graphs_per_group=2, vertex_counts=(10, 15, 20))
FAST_ACO = ACOParams(n_ants=2, n_tours=2, seed=0)
N_GRAPHS = len(CORPUS)
N_CELLS = N_GRAPHS * 5


@pytest.fixture()
def calls(monkeypatch, tmp_path):
    """Run the comparison with every binding wrapped; return the calls."""
    seen: dict[str, list[tuple]] = defaultdict(list)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("promote_layering", "evaluate_layering"):
        monkeypatch.setattr(engine_module, name, counting(name, getattr(engine_module, name)))
    # One wrapper per base, reachable through the module global and the
    # builtin table alike, as the tracer installs it.
    lpl = counting("LPL", engine_module.longest_path_layering)
    minwidth = counting("MinWidth", engine_module.minwidth_layering_sweep)
    monkeypatch.setattr(engine_module, "longest_path_layering", lpl)
    monkeypatch.setattr(engine_module, "minwidth_layering_sweep", minwidth)
    monkeypatch.setattr(
        engine_module,
        "BUILTIN_METHODS",
        {**engine_module.BUILTIN_METHODS, "LPL": lpl, "MinWidth": minwidth},
    )
    for owner, name in ((LayeringProblem, "from_graph"), (PackedProblems, "pack")):
        function = owner.__dict__[name].__func__
        monkeypatch.setattr(owner, name, classmethod(counting(name, function)))
    for name in ("run_packed_colonies", "run_walks_packed"):
        monkeypatch.setattr(runtime, name, counting(name, getattr(runtime, name)))

    cache = ResultCache(tmp_path)
    engine = ExperimentEngine(executor="batched", cache=cache)
    engine.run_iter = counting("run_iter", engine.run_iter)
    cache.get = counting("cache.get", cache.get)
    cache.put = counting("cache.put", cache.put)
    comparison = run_comparison(
        CORPUS, default_method_specs(aco_params=FAST_ACO), engine=engine
    )
    assert comparison.cells_ok == N_CELLS and not comparison.failures
    return seen


def test_every_binding_is_called(calls):
    for name in (
        "LPL",
        "MinWidth",
        "promote_layering",
        "evaluate_layering",
        "from_graph",
        "pack",
        "run_packed_colonies",
        "run_walks_packed",
        "run_iter",
        "cache.get",
        "cache.put",
    ):
        assert calls[name], f"{name} was never called"


def test_each_base_runs_once_per_graph(calls):
    graphs = [entry.graph for entry in CORPUS]
    for name in ("LPL", "MinWidth"):
        assert [args[0] for args in calls[name]] == graphs
    # LPL+PL and MinWidth+PL promote the shared bases: two per graph.
    assert len(calls["promote_layering"]) == 2 * N_GRAPHS


def test_one_evaluation_and_one_cache_write_per_cell(calls):
    assert len(calls["evaluate_layering"]) == N_CELLS
    assert len(calls["cache.get"]) == N_CELLS
    assert len(calls["cache.put"]) == N_CELLS
    assert len(calls["run_iter"]) == 1


def test_layer_calls_take_the_graph_first(calls):
    graphs = {id(entry.graph) for entry in CORPUS}
    for name in ("LPL", "MinWidth", "promote_layering", "evaluate_layering"):
        assert all(id(args[0]) in graphs for args in calls[name])
    # A class method: the class comes first, then the graph.
    assert all(id(args[1]) in graphs for args in calls["from_graph"])


def test_walk_kernel_gets_walk_graph_fifth(calls):
    for args in calls["run_walks_packed"]:
        packed, walk_graph = args[0], args[4]
        assert isinstance(packed, PackedProblems)
        assert isinstance(walk_graph, np.ndarray) and walk_graph.ndim == 1
        assert 0 <= walk_graph.min() and walk_graph.max() < packed.n_graphs
