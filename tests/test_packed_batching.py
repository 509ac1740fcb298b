"""Tests for cross-graph megabatch execution (PackedProblems → batched executor).

The load-bearing contract is bit-identity: packing many graphs into one
lockstep kernel sweep must change *nothing* about any graph's result — for
every walk engine, with and without the native kernel, at any batch size,
with graphs of unequal size sharing a pack.  On top sit the engine-level
lifecycle guarantees: the batched executor composes with the result cache,
the run journal (``--resume``), ``--strict`` and per-cell fault isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aco.colony import AntColony
from repro.aco.layering_aco import aco_layering_detailed
from repro.aco.parallel import _derive_colony_seeds
from repro.aco.params import ACOParams
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.aco.runtime import run_packed_colonies
from repro.datasets.corpus import att_like_corpus
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ExperimentEngine,
    FAIL_CELLS_ENV,
    MAX_CELLS_ENV,
    MethodSpec,
    RunInterrupted,
    CellFailure,
    WorkUnit,
    default_method_specs,
)
from repro.experiments.journal import RunJournal
from repro.graph.generators import att_like_dag
from repro.layering.metrics import evaluate_layering
from repro.utils.exceptions import ValidationError
from repro.utils.rng import as_generator

FAST = ACOParams(n_ants=2, n_tours=2, seed=3)

#: Deliberately unequal graph sizes, with duplicates, for one pack.
SIZES_SEEDS = ((10, 1), (26, 2), (17, 3), (26, 4), (13, 5))


def _graphs():
    return [att_like_dag(n, seed=s) for n, s in SIZES_SEEDS]


def _units(graphs, spec, label="AntColony", nd_width=1.0):
    return [
        WorkUnit(
            graph=g,
            method=spec,
            nd_width=nd_width,
            graph_name=f"g{i}",
            vertex_count=g.n_vertices,
            label=label,
        )
        for i, g in enumerate(graphs)
    ]


def _metric_view(cells):
    return [(c.algorithm, c.graph_name, c.metrics) for c in cells]


class TestPackedBitIdentity:
    """Packed execution equals per-graph execution, bit for bit."""

    @pytest.mark.parametrize("engine", ["vectorized", "python"])
    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    @pytest.mark.parametrize("batch_size", [1, 7, None], ids=["b1", "b7", "ball"])
    def test_engine_matrix(self, engine, native, batch_size, monkeypatch):
        if not native:
            monkeypatch.setenv("REPRO_ACO_NATIVE", "0")
        # Packs always run the kernel, whatever the spec's engine says; the
        # reference side is the reference loop run cell by cell.
        graphs = _graphs()
        oracle = _units(graphs, MethodSpec.ant_colony(FAST.replace(engine="python")))
        serial = ExperimentEngine().run(oracle)
        batched = ExperimentEngine(executor="batched", batch_size=batch_size).run(
            _units(graphs, MethodSpec.ant_colony(FAST.replace(engine=engine)))
        )
        assert _metric_view(batched) == _metric_view(serial)

    @pytest.mark.parametrize(
        "params",
        [
            FAST.replace(selection="roulette"),
            FAST.replace(q0=0.4),
            FAST.replace(alpha=2.0, beta=2.0),
            FAST.replace(vertex_order="bfs"),
            FAST.replace(vertex_order="topological"),
        ],
        ids=["roulette", "q0", "exponents", "bfs", "topological"],
    )
    def test_configuration_matrix(self, params):
        graphs = _graphs()
        oracle = _units(graphs, MethodSpec.ant_colony(params.replace(engine="python")))
        serial = ExperimentEngine().run(oracle)
        batched = ExperimentEngine(executor="batched").run(
            _units(graphs, MethodSpec.ant_colony(params))
        )
        assert _metric_view(batched) == _metric_view(serial)

    def test_multi_colony_portfolio(self):
        # The reference is one reference-loop run per derived colony seed,
        # keeping the first colony with the best objective.
        graphs = _graphs()
        seeds = _derive_colony_seeds(FAST.seed, 3)
        expected = []
        for g in graphs:
            runs = [
                aco_layering_detailed(g, FAST.replace(seed=s, engine="python"))
                for s in seeds
            ]
            best = max(runs, key=lambda r: r.metrics.objective)
            expected.append(evaluate_layering(g, best.layering, nd_width=1.0))
        spec = MethodSpec.ant_colony(FAST, n_colonies=3)
        batched = ExperimentEngine(executor="batched").run(_units(graphs, spec))
        assert [c.metrics for c in batched] == expected

    def test_runtime_level_identity(self):
        problems = [LayeringProblem.from_graph(g) for g in _graphs()]
        packed = PackedProblems.pack(problems)
        seeds = [[FAST.seed], [11, 22], [FAST.seed], [33], [44, 55, 66]]
        oracle = FAST.replace(engine="python")
        outcomes = run_packed_colonies(packed, FAST, seeds)
        for problem, graph_seeds, got in zip(problems, seeds, outcomes):
            for seed, mine in zip(graph_seeds, got):
                ref = AntColony(problem, oracle, rng=as_generator(seed)).run()
                assert mine.score == ref.best.score
                assert np.array_equal(mine.assignment, ref.best.assignment)
                assert mine.ant_id == ref.best.ant_id
                assert mine.history == ref.history

    def test_full_five_algorithm_comparison(self):
        corpus = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20, 30))

        def units(aco_params):
            return [
                WorkUnit(
                    graph=e.graph,
                    method=spec,
                    graph_name=e.name,
                    vertex_count=e.vertex_count,
                    label=name,
                )
                for e in corpus
                for name, spec in default_method_specs(aco_params=aco_params).items()
            ]

        serial = ExperimentEngine().run(units(FAST.replace(engine="python")))
        batched = ExperimentEngine(executor="batched").run(units(FAST))
        assert _metric_view(batched) == _metric_view(serial)


class TestPackedProblems:
    def test_rejects_empty_pack(self):
        with pytest.raises(ValidationError):
            PackedProblems.pack([])

    def test_rejects_mixed_nd_width(self):
        a = LayeringProblem.from_graph(att_like_dag(10, seed=1), nd_width=1.0)
        b = LayeringProblem.from_graph(att_like_dag(10, seed=2), nd_width=0.5)
        with pytest.raises(ValidationError):
            PackedProblems.pack([a, b])


class TestBatchedLifecycle:
    """Cache, journal, strict mode and fault isolation through packs."""

    def test_cache_hits_compose(self, tmp_path):
        units = _units(_graphs(), MethodSpec.ant_colony(FAST))
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(executor="batched", cache=cache)
        cold = engine.run(units)
        assert all(not c.cached for c in cold)
        warm = ExperimentEngine(executor="batched", cache=cache).run(units)
        assert all(c.cached for c in warm)
        assert _metric_view(warm) == _metric_view(cold)

    def test_partial_cache_packs_only_misses(self, tmp_path):
        graphs = _graphs()
        spec = MethodSpec.ant_colony(FAST)
        cache = ResultCache(tmp_path)
        ExperimentEngine(executor="batched", cache=cache).run(
            _units(graphs[:2], spec)
        )
        cells = ExperimentEngine(executor="batched", cache=cache).run(
            _units(graphs, spec)
        )
        assert [c.cached for c in cells] == [True, True, False, False, False]
        serial = ExperimentEngine().run(_units(graphs, spec))
        assert _metric_view(cells) == _metric_view(serial)

    def test_journal_replay_composes(self, tmp_path):
        units = _units(_graphs(), MethodSpec.ant_colony(FAST))
        with RunJournal(tmp_path) as journal:
            first = ExperimentEngine(executor="batched", journal=journal).run(units)
        with RunJournal(tmp_path) as journal:
            resumed = ExperimentEngine(
                executor="batched", journal=journal, resume=True
            ).run(units)
        assert all(c.replayed for c in resumed)
        assert _metric_view(resumed) == _metric_view(first)

    def test_interrupt_mid_pack_then_resume(self, tmp_path, monkeypatch):
        units = _units(_graphs(), MethodSpec.ant_colony(FAST))
        monkeypatch.setenv(MAX_CELLS_ENV, "2")
        with RunJournal(tmp_path) as journal:
            engine = ExperimentEngine(executor="batched", journal=journal)
            with pytest.raises(RunInterrupted):
                list(engine.run_iter(units))
        monkeypatch.delenv(MAX_CELLS_ENV)
        with RunJournal(tmp_path) as journal:
            resumed = ExperimentEngine(
                executor="batched", journal=journal, resume=True
            ).run(units)
        assert sum(c.replayed for c in resumed) == 2
        serial = ExperimentEngine().run(units)
        assert _metric_view(resumed) == _metric_view(serial)

    def test_poisoned_graph_fails_only_its_cell(self, monkeypatch):
        graphs = _graphs()
        units = _units(graphs, MethodSpec.ant_colony(FAST))
        monkeypatch.setenv(FAIL_CELLS_ENV, "AntColony:g2")
        cells = ExperimentEngine(executor="batched").run(units)
        assert [c.ok for c in cells] == [True, True, False, True, True]
        assert cells[2].error is not None
        assert "injected failure" in cells[2].error.message
        monkeypatch.delenv(FAIL_CELLS_ENV)
        serial = ExperimentEngine().run(units)
        healthy = [v for i, v in enumerate(_metric_view(cells)) if i != 2]
        expected = [v for i, v in enumerate(_metric_view(serial)) if i != 2]
        assert healthy == expected

    def test_strict_mode_raises(self, monkeypatch):
        units = _units(_graphs(), MethodSpec.ant_colony(FAST))
        monkeypatch.setenv(FAIL_CELLS_ENV, "AntColony:g0")
        with pytest.raises(CellFailure):
            ExperimentEngine(executor="batched", strict=True).run(units)

    def test_seedless_spec_falls_back_to_serial_path(self):
        # seed=None means fresh entropy: nothing to replicate, so the cells
        # run unpacked — and still succeed.
        spec = MethodSpec.ant_colony(ACOParams(n_ants=2, n_tours=1, seed=None))
        cells = ExperimentEngine(executor="batched").run(_units(_graphs()[:2], spec))
        assert all(c.ok for c in cells)

    def test_batch_size_validation(self):
        with pytest.raises(ValidationError):
            ExperimentEngine(executor="batched", batch_size=0)


class TestExecutorDowngrade:
    def test_process_downgrades_to_serial_with_note(self, capsys):
        units = _units(_graphs()[:2], MethodSpec.ant_colony(FAST))
        serial = ExperimentEngine().run(units)
        cells = ExperimentEngine(executor="process", jobs=1).run(units)
        assert _metric_view(cells) == _metric_view(serial)
        note = capsys.readouterr().err
        assert "running cells serially" in note
        assert note.count("running cells serially") == 1

    def test_note_emitted_once_per_engine(self, capsys):
        units = _units(_graphs()[:2], MethodSpec.ant_colony(FAST, n_colonies=2))
        engine = ExperimentEngine(executor="colonies", jobs=1)
        engine.run(units)
        engine.run(units)
        assert capsys.readouterr().err.count("running cells serially") == 1

    def test_no_note_with_multiple_workers(self, capsys):
        units = _units(_graphs()[:2], MethodSpec.builtin("LPL"))
        ExperimentEngine(executor="process", jobs=2).run(units)
        assert "running cells serially" not in capsys.readouterr().err


class TestCacheMemoryLayer:
    def test_put_primes_memory(self, tmp_path):
        from repro.layering.longest_path import longest_path_layering
        from repro.layering.metrics import evaluate_layering

        g = att_like_dag(10, seed=1)
        metrics = evaluate_layering(g, longest_path_layering(g))
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, metrics, 0.5)
        hit = cache.get("ab" + "0" * 62)
        assert hit is not None and hit.metrics == metrics
        stats = cache.hit_stats()
        assert stats.memory_hits == 1
        assert stats.disk_hits == 0

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        from repro.layering.longest_path import longest_path_layering
        from repro.layering.metrics import evaluate_layering

        g = att_like_dag(10, seed=1)
        metrics = evaluate_layering(g, longest_path_layering(g))
        key = "cd" + "0" * 62
        ResultCache(tmp_path).put(key, metrics, 0.5)
        fresh = ResultCache(tmp_path)  # new process's view: empty memory
        assert fresh.get(key) is not None
        assert fresh.get(key) is not None
        stats = fresh.hit_stats()
        assert stats.disk_hits == 1
        assert stats.memory_hits == 1
        assert stats.memory_misses == 1

    def test_miss_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ef" + "0" * 62) is None
        stats = cache.hit_stats()
        assert stats.memory_misses == 1
        assert stats.disk_misses == 1

    def test_memory_disabled(self, tmp_path):
        from repro.layering.longest_path import longest_path_layering
        from repro.layering.metrics import evaluate_layering

        g = att_like_dag(10, seed=1)
        metrics = evaluate_layering(g, longest_path_layering(g))
        cache = ResultCache(tmp_path, memory_entries=0)
        key = "01" + "0" * 62
        cache.put(key, metrics, 0.5)
        assert cache.get(key) is not None
        assert cache.hit_stats().memory_hits == 0
        assert cache.hit_stats().disk_hits == 1

    def test_lru_eviction(self, tmp_path):
        from repro.layering.longest_path import longest_path_layering
        from repro.layering.metrics import evaluate_layering

        g = att_like_dag(10, seed=1)
        metrics = evaluate_layering(g, longest_path_layering(g))
        cache = ResultCache(tmp_path, memory_entries=2)
        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for key in keys:
            cache.put(key, metrics, 0.5)
        assert len(cache._memory) == 2
        assert keys[0] not in cache._memory  # oldest evicted
        # The evicted key still resolves through the disk layer.
        assert cache.get(keys[0]) is not None
        assert cache.hit_stats().disk_hits == 1

    def test_negative_capacity_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultCache(tmp_path, memory_entries=-1)


class TestCliOptions:
    def test_batched_executor_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["compare", "--executor", "batched", "--batch-size", "16"]
        )
        assert args.executor == "batched"
        assert args.batch_size == 16

    def test_compare_batched_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "compare",
                "--graphs-per-group", "1",
                "--vertex-counts", "10", "15",
                "--ants", "2",
                "--tours", "2",
                "--executor", "batched",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AntColony" in out
