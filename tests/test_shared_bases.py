"""LPL+PL and MinWidth+PL share their graph's base layering within a run.

On the engine's in-process sequential paths the first cell of a graph that
needs a base (LPL, MinWidth) computes it, and the graph's later cells
reuse it.  The metrics must be exactly those of PL applied to a freshly
computed base; a derived cell's running time is the base's plus its own
promotion's; and faults, deadlines, cache hits and mutated graphs never
leave a stale or missing base behind.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.aco.params import ACOParams
from repro.datasets.corpus import att_like_corpus
from repro.experiments import engine as engine_module
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    PROMOTED_FROM,
    ExperimentEngine,
    MethodSpec,
    WorkUnit,
    default_method_specs,
)
from repro.experiments.runner import run_comparison
from repro.layering.longest_path import longest_path_layering
from repro.layering.metrics import evaluate_layering
from repro.layering.minwidth import minwidth_layering_sweep
from repro.layering.promote import promote_layering
from repro.utils import chaos

CORPUS = att_like_corpus(graphs_per_group=2, vertex_counts=(10, 20))
FAST_ACO = ACOParams(n_ants=2, n_tours=2, seed=0)
BASES = {"LPL": longest_path_layering, "MinWidth": minwidth_layering_sweep}


@pytest.fixture()
def base_calls(monkeypatch):
    """Count the base computations the engine makes, per base name."""
    counts: Counter[str] = Counter()

    def counting(name):
        def base(graph):
            counts[name] += 1
            return BASES[name](graph)

        return base

    patched = {**engine_module.BUILTIN_METHODS}
    patched.update({name: counting(name) for name in BASES})
    monkeypatch.setattr(engine_module, "BUILTIN_METHODS", patched)
    return counts


def _cells(graph, names, name="g"):
    return [
        WorkUnit(graph=graph, method=MethodSpec.builtin(n), graph_name=name) for n in names
    ]


@pytest.mark.parametrize("executor", ["serial", "batched"])
def test_each_base_runs_once_per_graph(base_calls, executor):
    comparison = run_comparison(
        CORPUS,
        default_method_specs(aco_params=FAST_ACO),
        engine=ExperimentEngine(executor=executor),
    )
    assert comparison.cells_ok == 5 * len(CORPUS)
    assert base_calls == {"LPL": len(CORPUS), "MinWidth": len(CORPUS)}


def test_thread_executor_computes_every_cell_on_its_own(base_calls):
    engine = ExperimentEngine(executor="thread", jobs=2)
    run_comparison(CORPUS, default_method_specs(include_aco=False), engine=engine)
    assert base_calls == {"LPL": 2 * len(CORPUS), "MinWidth": 2 * len(CORPUS)}


def test_metrics_are_pl_of_a_fresh_base():
    comparison = run_comparison(CORPUS, default_method_specs(include_aco=False))
    got = {(r.algorithm, r.graph_name): r.metrics for r in comparison.results}
    for entry in CORPUS:
        for derived, base in PROMOTED_FROM.items():
            layering = promote_layering(entry.graph, BASES[base](entry.graph))
            assert got[derived, entry.name] == evaluate_layering(entry.graph, layering)


def test_derived_time_is_base_time_plus_promotion():
    comparison = run_comparison(CORPUS, default_method_specs(include_aco=False))
    times = {(r.algorithm, r.graph_name): r.running_time for r in comparison.results}
    for entry in CORPUS:
        for derived, base in PROMOTED_FROM.items():
            assert times[derived, entry.name] > times[base, entry.name] > 0


def test_mutated_graph_gets_a_fresh_base(base_calls):
    graph = CORPUS[0].graph.copy()
    engine = ExperimentEngine()
    before = engine.run(_cells(graph, ["LPL", "LPL+PL"]))
    # A new source above every vertex: the longest path grows by one layer.
    for vertex in list(graph.vertices()):
        graph.add_edge("new-source", vertex)
    after = engine.run(_cells(graph, ["LPL", "LPL+PL"]))
    assert base_calls["LPL"] == 2
    assert after[0].metrics.height == before[0].metrics.height + 1
    expected = evaluate_layering(graph, promote_layering(graph, longest_path_layering(graph)))
    assert after[1].metrics == expected


def test_raising_base_is_not_memoised(base_calls, monkeypatch):
    counting = engine_module.BUILTIN_METHODS["LPL"]
    failed: list[bool] = []

    def flaky(graph):
        if not failed:
            failed.append(True)
            raise RuntimeError("transient base failure")
        return counting(graph)

    monkeypatch.setitem(engine_module.BUILTIN_METHODS, "LPL", flaky)
    lpl, promoted = ExperimentEngine().run(_cells(CORPUS[0].graph, ["LPL", "LPL+PL"]))
    assert not lpl.ok and "transient" in lpl.error.message
    assert promoted.ok  # computed the base again, successfully
    assert base_calls["LPL"] == 1


def test_chaos_fault_runs_before_any_base(base_calls, monkeypatch):
    monkeypatch.setenv(chaos.CHAOS_ENV, "raise:LPL:g")
    lpl, promoted = ExperimentEngine().run(_cells(CORPUS[0].graph, ["LPL", "LPL+PL"]))
    assert not lpl.ok and promoted.ok
    assert base_calls["LPL"] == 1  # the faulted cell computed nothing


def test_abandoned_attempt_does_not_publish_its_base(base_calls, monkeypatch):
    real_promote = engine_module.promote_layering
    slow: list[bool] = []

    def stalling_promote(graph, layering):
        if not slow:
            slow.append(True)
            time.sleep(5.0)  # cut by the cell deadline
        return real_promote(graph, layering)

    monkeypatch.setattr(engine_module, "promote_layering", stalling_promote)
    engine = ExperimentEngine(cell_timeout=0.2)
    promoted, lpl = engine.run(_cells(CORPUS[0].graph, ["LPL+PL", "LPL"]))
    assert promoted.error is not None and promoted.error.kind == "timeout"
    assert lpl.ok
    assert base_calls["LPL"] == 2  # the timed-out attempt's base was dropped


def test_retry_reuses_the_base_its_graph_already_has(base_calls, monkeypatch):
    monkeypatch.setenv(chaos.CHAOS_ENV, "raise:LPL+PL:g")
    cells = ExperimentEngine(retries=1, retry_backoff=0).run(
        _cells(CORPUS[0].graph, ["LPL", "LPL+PL"])
    )
    assert [c.ok for c in cells] == [True, True] and cells[1].attempts == 2
    assert base_calls["LPL"] == 1


def test_cache_hit_base_leaves_the_derived_miss_its_own(base_calls, tmp_path):
    cache = ResultCache(tmp_path)
    graph = CORPUS[0].graph
    ExperimentEngine(cache=cache).run(_cells(graph, ["LPL"]))
    hit, promoted = ExperimentEngine(cache=cache).run(_cells(graph, ["LPL", "LPL+PL"]))
    assert hit.cached and promoted.ok and not promoted.cached
    assert base_calls["LPL"] == 2  # the cold run's, then the derived miss's
