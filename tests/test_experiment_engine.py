"""Tests for the shared parallel experiment engine and its result cache."""

from __future__ import annotations

import pytest

from repro.aco.params import ACOParams
from repro.datasets.corpus import att_like_corpus
from repro.experiments.cache import ResultCache, cache_key, canonical_json, content_digest
from repro.experiments.engine import (
    BUILTIN_METHODS,
    CellResult,
    ExperimentEngine,
    MethodSpec,
    WorkUnit,
    default_method_specs,
    unit_cache_key,
)
from repro.experiments.figures import figure4
from repro.experiments.runner import run_comparison
from repro.experiments.tuning import alpha_beta_sweep, nd_width_sweep
from repro.graph.generators import att_like_dag
from repro.layering.longest_path import longest_path_layering
from repro.utils.exceptions import ValidationError
from repro.utils.pool import imap_with_state

CORPUS = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20))
FAST_ACO = ACOParams(n_ants=2, n_tours=2, seed=0)


def _comparison_key(comparison):
    """The deterministic part of a comparison (everything but running_time)."""
    return [
        (r.algorithm, r.graph_name, r.vertex_count, r.metrics) for r in comparison.results
    ]


def _run(engine=None):
    return run_comparison(CORPUS, default_method_specs(aco_params=FAST_ACO), engine=engine)


def _kernel_threads(state, index):
    """Pool task: the walk-kernel thread count this worker resolves."""
    from repro.aco import _native

    return _native.effective_threads()


class TestMethodSpec:
    def test_builtin_resolves_registry_function(self):
        spec = MethodSpec.builtin("LPL")
        assert spec.resolve() is BUILTIN_METHODS["LPL"]
        assert spec.shippable and spec.cacheable

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValidationError):
            MethodSpec.builtin("NoSuchMethod")

    def test_ant_colony_carries_params(self):
        spec = MethodSpec.ant_colony(FAST_ACO)
        assert spec.aco_params["n_ants"] == 2
        assert spec.aco_params["seed"] == 0

    def test_dict_round_trip(self):
        for spec in (MethodSpec.builtin("MinWidth+PL"), MethodSpec.ant_colony(FAST_ACO)):
            back = MethodSpec.from_dict(spec.to_dict())
            assert back == spec

    def test_callable_spec_not_shippable(self):
        spec = MethodSpec.from_callable("Custom", longest_path_layering)
        assert not spec.shippable and not spec.cacheable
        with pytest.raises(ValidationError):
            spec.to_dict()
        with pytest.raises(ValidationError):
            spec.cache_token()

    def test_unseeded_ant_colony_is_not_cached(self, tmp_path):
        spec = MethodSpec.ant_colony(FAST_ACO.replace(seed=None))
        assert spec.shippable and not spec.cacheable
        with pytest.raises(ValidationError):
            spec.cache_token()
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        unit = WorkUnit(graph=att_like_dag(15, seed=2), method=spec)
        runs = [engine.run([unit])[0] for _ in range(3)]
        assert [cell.cached for cell in runs] == [False, False, False]
        assert ResultCache(tmp_path).stats().entries == 0

    def test_resolved_methods_produce_valid_layerings(self):
        g = att_like_dag(20, seed=1)
        for name, spec in default_method_specs(aco_params=FAST_ACO).items():
            spec.resolve()(g).validate(g)

    def test_default_specs_match_default_algorithm_names(self):
        assert set(default_method_specs()) == {
            "LPL",
            "LPL+PL",
            "MinWidth",
            "MinWidth+PL",
            "AntColony",
        }
        assert "AntColony" not in default_method_specs(include_aco=False)


class TestEngineValidation:
    def test_bad_executor_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentEngine(executor="gpu")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentEngine(jobs=0)

    def test_from_options_defaults(self, tmp_path):
        engine = ExperimentEngine.from_options()
        assert engine.executor == "batched" and engine.cache is None
        assert ExperimentEngine().executor == "batched"
        engine = ExperimentEngine.from_options(
            executor="process", jobs=2, cache_dir=str(tmp_path)
        )
        assert engine.executor == "process"
        assert engine.cache is not None


class TestEngineDeterminism:
    @pytest.mark.slow
    def test_process_matches_serial(self):
        serial = _run(ExperimentEngine(executor="serial"))
        procs = _run(ExperimentEngine(executor="process", jobs=2))
        assert _comparison_key(serial) == _comparison_key(procs)

    def test_process_workers_run_a_one_thread_kernel(self, monkeypatch):
        # The pool's workers already share the cores; each fanning the kernel
        # out over REPRO_ACO_THREADS more would oversubscribe them.
        from repro.aco import _native
        from repro.experiments import engine as engine_module

        monkeypatch.setenv(_native.REPRO_ACO_THREADS_ENV, "2")
        threads = imap_with_state(
            _kernel_threads,
            [(0,), (1,)],
            init_fn=engine_module._init_worker,
            payload={},
            max_workers=2,
        )
        assert list(threads) == [1, 1]
        assert _native.effective_threads() == 2  # the parent keeps its setting

    def test_result_order_is_submission_order(self):
        units = [
            WorkUnit(graph=entry.graph, method=spec, graph_name=entry.name, label=name)
            for entry in CORPUS
            for name, spec in default_method_specs(aco_params=FAST_ACO).items()
        ]
        for executor in ("batched", "process"):
            results = ExperimentEngine(executor=executor, jobs=2).run(units)
            assert [(r.graph_name, r.algorithm) for r in results] == [
                (u.graph_name, u.algorithm) for u in units
            ]

    def test_default_engine_matches_legacy_run_comparison(self):
        # The spec path must reproduce the historical callable path exactly.
        from repro.experiments.runner import default_algorithms

        legacy = run_comparison(CORPUS, default_algorithms(aco_params=FAST_ACO))
        specs = _run()
        assert _comparison_key(legacy) == _comparison_key(specs)

    def test_callable_methods_work_on_every_executor(self):
        algorithms = {"OnlyLPL": longest_path_layering}
        serial = run_comparison(CORPUS, algorithms, engine=ExperimentEngine(executor="serial"))
        for executor in ("batched", "process"):
            other = run_comparison(
                CORPUS, algorithms, engine=ExperimentEngine(executor=executor, jobs=2)
            )
            assert _comparison_key(serial) == _comparison_key(other)


class TestResultCache:
    def test_cache_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        units = [
            WorkUnit(graph=CORPUS[0].graph, method=MethodSpec.builtin("LPL")),
            WorkUnit(graph=CORPUS[0].graph, method=MethodSpec.ant_colony(FAST_ACO)),
        ]
        cold = engine.run(units)
        assert [r.cached for r in cold] == [False, False]
        assert len(cache) == 2
        warm = engine.run(units)
        assert [r.cached for r in warm] == [True, True]
        assert [r.metrics for r in warm] == [r.metrics for r in cold]
        assert [r.running_time for r in warm] == [r.running_time for r in cold]

    def test_warm_cache_skips_recomputation(self, tmp_path, monkeypatch):
        import repro.experiments.engine as engine_module

        cache = ResultCache(tmp_path)
        calls = []
        real_execute = engine_module._execute_unit
        monkeypatch.setattr(
            engine_module,
            "_execute_unit",
            lambda unit, *rest: calls.append(unit) or real_execute(unit, *rest),
        )
        # Serial: every executed cell goes through _execute_unit (packs do not).
        comparison = _run(ExperimentEngine(executor="serial", cache=cache))
        assert not comparison.failures
        assert len(calls) == len(comparison.results)
        calls.clear()
        warm = _run(ExperimentEngine(executor="serial", cache=cache))
        assert calls == []  # every cell served from the cache
        assert _comparison_key(comparison) == _comparison_key(warm)

    def test_key_depends_on_graph_method_and_nd_width(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        base = WorkUnit(graph=CORPUS[0].graph, method=MethodSpec.ant_colony(FAST_ACO))
        engine.run([base])
        variants = [
            WorkUnit(graph=CORPUS[1].graph, method=MethodSpec.ant_colony(FAST_ACO)),
            WorkUnit(
                graph=CORPUS[0].graph,
                method=MethodSpec.ant_colony(FAST_ACO.replace(seed=7)),
            ),
            WorkUnit(
                graph=CORPUS[0].graph, method=MethodSpec.ant_colony(FAST_ACO), nd_width=0.5
            ),
        ]
        results = engine.run(variants)
        assert [r.cached for r in results] == [False, False, False]
        assert engine.run([base])[0].cached is True

    def test_callable_methods_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        unit = WorkUnit(
            graph=CORPUS[0].graph,
            method=MethodSpec.from_callable("Custom", longest_path_layering),
        )
        assert engine.run([unit])[0].cached is False
        assert engine.run([unit])[0].cached is False
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        import hashlib
        import sqlite3

        cache = ResultCache(tmp_path)
        key = cache_key(content_digest({"x": 1}), {"name": "LPL", "aco_params": None}, 1.0)
        assert cache.get(key) is None  # opens (creates) the database
        # Rows whose checksum matches but whose record is not a cell record.
        for record in (b"not json", b'{"format": "something-else"}'):
            with sqlite3.connect(cache.path) as db:
                db.execute(
                    "INSERT INTO cells (key, record, sha256) VALUES (?, ?, ?)",
                    (key, record, hashlib.sha256(record).hexdigest()),
                )
            assert cache.get(key) is None
        stats = cache.stats()
        assert stats.entries == 0 and stats.quarantined == 1

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert content_digest({"b": 1, "a": 2}) == content_digest({"a": 2, "b": 1})

    def test_key_depends_on_package_version(self, monkeypatch):
        # A release that changes an algorithm's behaviour must orphan every
        # cached entry rather than serve stale metrics.
        import repro

        token = {"name": "LPL", "aco_params": None}
        before = cache_key(content_digest({"x": 1}), token, 1.0)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert cache_key(content_digest({"x": 1}), token, 1.0) != before


class TestCacheMaintenance:
    def _fill(self, tmp_path, *, ages=(0, 0, 0)):
        """A cache with one LPL entry per corpus graph, stored *ages* seconds ago."""
        import sqlite3

        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        corpus = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20, 30))
        units = [
            WorkUnit(graph=e.graph, method=MethodSpec.builtin("LPL"), graph_name=e.name)
            for e in corpus[: len(ages)]
        ]
        engine.run(units)
        with sqlite3.connect(cache.path) as db:
            for unit, age in zip(units, ages):
                db.execute(
                    "UPDATE cells SET stored_at = stored_at - ? WHERE key = ?",
                    (age, unit_cache_key(unit)),
                )
        return cache

    @staticmethod
    def _column(cache, sql):
        import sqlite3

        with sqlite3.connect(cache.path) as db:
            return [value for (value,) in db.execute(sql)]

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = self._fill(tmp_path)
        stats = cache.stats()
        assert stats.entries == len(cache) == 3
        assert stats.total_bytes == sum(self._column(cache, "SELECT length(record) FROM cells"))
        assert stats.oldest_stored_at is not None

    def test_stats_on_missing_directory(self, tmp_path):
        stats = ResultCache(tmp_path / "nope").stats()
        assert stats.entries == 0 and stats.total_bytes == 0
        assert stats.oldest_stored_at is None
        assert not (tmp_path / "nope").exists()  # reading never creates a store

    def test_prune_by_age(self, tmp_path):
        cache = self._fill(tmp_path, ages=(7200, 7200, 0))
        result = cache.prune(older_than_seconds=3600)
        assert result.removed == 2 and result.kept == 1
        assert len(cache) == 1

    def test_prune_by_size_evicts_oldest_first(self, tmp_path):
        cache = self._fill(tmp_path, ages=(300, 200, 100))
        # A budget of one (largest) record keeps exactly the newest row.
        largest = max(self._column(cache, "SELECT length(record) FROM cells"))
        result = cache.prune(max_size_bytes=largest)
        assert result.removed == 2
        # The newest entry (age 100 s) survives the size squeeze.
        import time as time_module

        survivors = self._column(cache, "SELECT stored_at FROM cells")
        assert len(survivors) == 1
        assert survivors[0] > time_module.time() - 150

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = self._fill(tmp_path)
        result = cache.prune(max_size_bytes=0)
        assert result.kept == 0 and len(cache) == 0
        # The write-ahead log was checkpointed into the shrunk file.
        assert (tmp_path / "cells.sqlite-wal").stat().st_size == 0

    def test_pruned_entries_are_cache_misses_not_errors(self, tmp_path):
        cache = self._fill(tmp_path)
        cache.prune(max_size_bytes=0)
        corpus = att_like_corpus(graphs_per_group=1, vertex_counts=(10,))
        unit = WorkUnit(graph=corpus[0].graph, method=MethodSpec.builtin("LPL"))
        (cell,) = ExperimentEngine(cache=cache).run([unit])
        assert cell.cached is False and cell.ok

    def test_prune_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultCache(tmp_path).prune()

    def test_prune_rejects_negative_values(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultCache(tmp_path).prune(max_size_bytes=-1)
        with pytest.raises(ValidationError):
            ResultCache(tmp_path).prune(older_than_seconds=-1)


class TestSweepAndFigureDispatch:
    def test_alpha_beta_sweep_engine_invariant(self):
        default = alpha_beta_sweep(CORPUS, alphas=(1, 2), betas=(1,), base_params=FAST_ACO)
        serial = alpha_beta_sweep(
            CORPUS,
            alphas=(1, 2),
            betas=(1,),
            base_params=FAST_ACO,
            engine=ExperimentEngine(executor="serial"),
        )
        assert [p.setting for p in serial.points] == [p.setting for p in default.points]
        assert [p.mean_objective for p in serial.points] == [
            p.mean_objective for p in default.points
        ]

    def test_nd_width_sweep_warm_cache(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path))
        cold = nd_width_sweep(CORPUS, nd_widths=(0.5, 1.0), base_params=FAST_ACO, engine=engine)
        warm = nd_width_sweep(CORPUS, nd_widths=(0.5, 1.0), base_params=FAST_ACO, engine=engine)
        assert [p.mean_objective for p in cold.points] == [
            p.mean_objective for p in warm.points
        ]
        # The cache returns the originally measured running times verbatim.
        assert [p.mean_running_time for p in cold.points] == [
            p.mean_running_time for p in warm.points
        ]

    def test_figure_engine_invariant(self):
        default = figure4(corpus=CORPUS, aco_params=FAST_ACO)
        serial = figure4(
            corpus=CORPUS,
            aco_params=FAST_ACO,
            engine=ExperimentEngine(executor="serial"),
        )
        assert default.panels == serial.panels

    def test_cell_results_carry_metadata(self):
        results = ExperimentEngine().run(
            [
                WorkUnit(
                    graph=CORPUS[0].graph,
                    method=MethodSpec.builtin("LPL"),
                    graph_name=CORPUS[0].name,
                    vertex_count=CORPUS[0].vertex_count,
                    nd_width=0.8,
                )
            ]
        )
        (cell,) = results
        assert isinstance(cell, CellResult)
        assert cell.algorithm == "LPL"
        assert cell.graph_name == CORPUS[0].name
        assert cell.vertex_count == 10
        assert cell.nd_width == 0.8
        assert cell.metrics.nd_width == 0.8
        assert cell.running_time >= 0
