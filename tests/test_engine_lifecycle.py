"""Tests for the engine's full-corpus-scale run lifecycle.

Covers the three pillars added for full-corpus runs: fault isolation (a
raising cell is captured per-executor instead of aborting the run, strict
mode restores fail-fast, aggregators skip-and-count), streaming
(``run_iter`` yields in deterministic submission order as cells complete,
with live progress snapshots), and resume (the run journal replays
completed cells after an interruption).
"""

from __future__ import annotations

import pytest

from repro.aco.params import ACOParams
from repro.datasets.corpus import att_like_corpus
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    FAIL_CELLS_ENV,
    MAX_CELLS_ENV,
    CellFailure,
    CellResult,
    ExperimentEngine,
    MethodSpec,
    RunInterrupted,
    RunProgress,
    WorkUnit,
    default_method_specs,
)
from repro.experiments.journal import RunJournal
from repro.experiments.reporting import format_comparison, format_sweep
from repro.experiments.runner import run_comparison
from repro.experiments.tuning import nd_width_sweep
from repro.layering.longest_path import longest_path_layering
from repro.utils.exceptions import ValidationError

CORPUS = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20))
FAST_ACO = ACOParams(n_ants=2, n_tours=2, seed=0)

#: The injected failure used throughout: the AntColony cell on the first graph.
FAIL_PATTERN = "AntColony:att-like-n10-*"


def _units(specs=None):
    specs = specs if specs is not None else default_method_specs(aco_params=FAST_ACO)
    return [
        WorkUnit(
            graph=entry.graph,
            method=spec,
            graph_name=entry.name,
            vertex_count=entry.vertex_count,
            label=name,
        )
        for entry in CORPUS
        for name, spec in specs.items()
    ]


def _deterministic_view(cells):
    return [(c.algorithm, c.graph_name, c.vertex_count, c.metrics, c.ok) for c in cells]


class TestFaultIsolation:
    @pytest.mark.parametrize(
        "executor",
        ["serial", "batched", pytest.param("process", marks=pytest.mark.slow)],
    )
    def test_failing_cell_is_recorded_and_run_continues(self, executor, monkeypatch):
        monkeypatch.setenv(FAIL_CELLS_ENV, FAIL_PATTERN)
        cells = ExperimentEngine(executor=executor, jobs=2).run(_units())
        assert len(cells) == len(_units())  # nothing dropped
        failed = [c for c in cells if not c.ok]
        assert len(failed) == 1
        (cell,) = failed
        assert cell.algorithm == "AntColony"
        assert cell.graph_name == "att-like-n10-000"
        assert cell.metrics is None
        assert cell.error is not None
        assert cell.error.exc_type == "RuntimeError"
        assert "injected failure" in cell.error.message
        assert "RuntimeError" in cell.error.traceback
        assert cell.error.running_time >= 0
        # Every other cell is unaffected.
        assert all(c.metrics is not None for c in cells if c.ok)

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_strict_mode_fails_fast(self, executor, monkeypatch):
        monkeypatch.setenv(FAIL_CELLS_ENV, FAIL_PATTERN)
        engine = ExperimentEngine(executor=executor, jobs=2, strict=True)
        with pytest.raises(CellFailure) as excinfo:
            engine.run(_units())
        assert excinfo.value.error.exc_type == "RuntimeError"
        assert excinfo.value.cell.algorithm == "AntColony"

    def test_failure_in_callable_method_is_isolated(self):
        def broken(graph):
            raise ValueError("callable blew up")

        algorithms = {"Broken": broken, "LPL": longest_path_layering}
        comparison = run_comparison(CORPUS, algorithms)
        assert comparison.cells_failed == len(CORPUS)
        assert comparison.cells_ok == len(CORPUS)
        assert [f.error.exc_type for f in comparison.failures] == ["ValueError"] * 2
        assert comparison.algorithms == ["LPL"]  # failed cells leave no series

    def test_comparison_skips_and_counts_failures(self, monkeypatch):
        clean = run_comparison(CORPUS, default_method_specs(aco_params=FAST_ACO))
        monkeypatch.setenv(FAIL_CELLS_ENV, FAIL_PATTERN)
        faulty = run_comparison(CORPUS, default_method_specs(aco_params=FAST_ACO))
        assert faulty.cells_failed == 1
        assert faulty.cells_total == clean.cells_total
        # The failed AntColony cell was in group 10 only: group 20 unchanged.
        assert faulty.group_mean("AntColony", 20, "height") == clean.group_mean(
            "AntColony", 20, "height"
        )
        with pytest.raises(ValidationError):
            faulty.group_mean("AntColony", 10, "height")  # nothing survived there
        footer = format_comparison(faulty, "height").splitlines()[-1]
        assert footer.startswith("!") and "1 of 10 cells failed" in footer

    def test_figure_reports_failures_in_footer(self, monkeypatch):
        from repro.experiments.figures import figure4
        from repro.experiments.reporting import format_figure

        monkeypatch.setenv(FAIL_CELLS_ENV, "LPL:*")
        fig = figure4(corpus=CORPUS, aco_params=FAST_ACO)
        assert len(fig.failures) == len(CORPUS)  # every LPL cell
        assert fig.cells_total == len(CORPUS) * 3
        text = format_figure(fig)
        assert "LPL+PL" in text  # the healthy series are still there
        assert f"! {len(CORPUS)} of {len(CORPUS) * 3} cells failed" in text

    def test_sweep_skips_and_counts_failures(self, monkeypatch):
        monkeypatch.setenv(FAIL_CELLS_ENV, "AntColony:*")  # kill one full setting?
        # Patterns match every AntColony cell, i.e. the whole sweep fails.
        with pytest.raises(ValidationError):
            nd_width_sweep(CORPUS, nd_widths=(0.5,), base_params=FAST_ACO)
        monkeypatch.setenv(FAIL_CELLS_ENV, "AntColony:att-like-n10-*")
        sweep = nd_width_sweep(CORPUS, nd_widths=(0.5, 1.0), base_params=FAST_ACO)
        assert len(sweep.failures) == 2  # one graph in each of the two settings
        assert [p.setting for p in sweep.points] == [(0.5,), (1.0,)]
        assert format_sweep(sweep).splitlines()[-1].startswith("!")

    def test_failed_cells_never_enter_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAIL_CELLS_ENV, FAIL_PATTERN)
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache)
        cells = engine.run(_units())
        assert len(cache) == sum(c.ok for c in cells)
        # Second run with the fault cleared: the cell is computed, not served.
        monkeypatch.delenv(FAIL_CELLS_ENV)
        again = ExperimentEngine(cache=cache).run(_units())
        retried = [c for c in again if c.algorithm == "AntColony" and c.graph_name == "att-like-n10-000"]
        assert retried[0].ok and not retried[0].cached


class TestStreaming:
    def test_run_iter_yields_submission_order_per_executor(self):
        units = _units()
        expected = [(u.graph_name, u.algorithm) for u in units]
        for executor in ("batched", "serial"):
            engine = ExperimentEngine(executor=executor)
            seen = [(c.graph_name, c.algorithm) for c in engine.run_iter(units)]
            assert seen == expected

    @pytest.mark.slow
    def test_run_iter_process_matches_serial(self):
        units = _units()
        serial = _deterministic_view(ExperimentEngine(executor="serial").run_iter(units))
        procs = _deterministic_view(
            ExperimentEngine(executor="process", jobs=2).run_iter(units)
        )
        assert serial == procs

    def test_run_is_a_list_of_run_iter(self):
        units = _units()
        assert _deterministic_view(ExperimentEngine().run(units)) == _deterministic_view(
            ExperimentEngine().run_iter(units)
        )

    def test_serial_iteration_is_lazy(self):
        executed = []

        def tracking(graph):
            executed.append(graph)
            return longest_path_layering(graph)

        units = [
            WorkUnit(graph=entry.graph, method=MethodSpec.from_callable("T", tracking))
            for entry in CORPUS
        ]
        stream = ExperimentEngine().run_iter(units)
        first = next(stream)
        assert first.ok
        assert len(executed) == 1  # later cells not executed yet
        list(stream)
        assert len(executed) == len(units)

    def test_progress_callback_sees_every_cell(self, tmp_path):
        snapshots: list[RunProgress] = []
        units = _units()
        cache = ResultCache(tmp_path)
        ExperimentEngine(cache=cache).run(units)
        engine = ExperimentEngine(cache=cache, progress=snapshots.append)
        engine.run(units)
        assert [p.done for p in snapshots] == list(range(1, len(units) + 1))
        assert snapshots[-1].total == len(units)
        assert snapshots[-1].cache_hits == len(units)  # warm second run
        assert snapshots[-1].failures == 0
        assert snapshots[-1].executed == 0
        assert all(p.elapsed_s >= 0 for p in snapshots)

    def test_progress_eta_estimates_remaining_work(self):
        p = RunProgress(
            done=10, total=30, failures=0, cache_hits=0, replayed=0, executed=10,
            elapsed_s=5.0,
        )
        assert p.eta_s == pytest.approx(10.0)
        empty = RunProgress(
            done=0, total=30, failures=0, cache_hits=0, replayed=0, executed=0,
            elapsed_s=0.0,
        )
        assert empty.eta_s is None


class TestJournalResume:
    def test_journal_records_and_loads_completed_cells(self, tmp_path):
        journal = RunJournal(tmp_path)
        engine = ExperimentEngine(journal=journal)
        cells = engine.run(_units())
        journal.close()
        replay = RunJournal(tmp_path).load()
        assert len(replay) == len(cells)
        assert all(c.replayed for c in replay.values())

    def test_resume_replays_instead_of_executing(self, tmp_path, monkeypatch):
        import repro.experiments.engine as engine_module

        ExperimentEngine(journal=RunJournal(tmp_path)).run(_units())
        calls = []
        real = engine_module._execute_unit
        monkeypatch.setattr(
            engine_module,
            "_execute_unit",
            lambda u, *rest: calls.append(u) or real(u, *rest),
        )
        resumed = ExperimentEngine(journal=RunJournal(tmp_path), resume=True).run(_units())
        assert calls == []  # every cell replayed from the journal
        assert all(c.replayed for c in resumed)
        baseline = ExperimentEngine().run(_units())
        assert _deterministic_view(resumed) == _deterministic_view(baseline)

    def test_fresh_run_clears_stale_journal(self, tmp_path):
        ExperimentEngine(journal=RunJournal(tmp_path)).run(_units())
        # A new run over a *smaller* unit set without resume must not inherit
        # the old records.
        engine = ExperimentEngine(journal=RunJournal(tmp_path))
        engine.run(_units()[:3])
        assert len(RunJournal(tmp_path).load()) == 3

    def test_foreign_journal_version_is_ignored_and_rewritten(self, tmp_path):
        import json

        journal = RunJournal(tmp_path)
        ExperimentEngine(journal=journal).run(_units()[:3])
        journal.close()
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["version"] = 999  # a future release with different semantics
        journal.path.write_text(
            "\n".join([json.dumps(header), *lines[1:]]) + "\n", encoding="utf-8"
        )
        assert RunJournal(tmp_path).load() == {}
        # First resume: nothing replayable, everything re-executed — and the
        # stale file is rewritten, so the *next* resume replays normally
        # instead of being permanently defeated by the foreign header.
        first = ExperimentEngine(journal=RunJournal(tmp_path), resume=True).run(
            _units()[:3]
        )
        assert sum(c.replayed for c in first) == 0
        second = ExperimentEngine(journal=RunJournal(tmp_path), resume=True).run(
            _units()[:3]
        )
        assert sum(c.replayed for c in second) == 3

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path)
        ExperimentEngine(journal=journal).run(_units()[:4])
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "metrics": {"trunc')  # killed mid-write
        assert len(RunJournal(tmp_path).load()) == 4

    def test_journaled_failures_are_retried_not_replayed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAIL_CELLS_ENV, FAIL_PATTERN)
        ExperimentEngine(journal=RunJournal(tmp_path)).run(_units())
        monkeypatch.delenv(FAIL_CELLS_ENV)
        resumed = ExperimentEngine(journal=RunJournal(tmp_path), resume=True).run(_units())
        fixed = [c for c in resumed if c.graph_name == "att-like-n10-000" and c.algorithm == "AntColony"]
        assert fixed[0].ok and not fixed[0].replayed  # re-executed, now healthy
        assert sum(c.replayed for c in resumed) == len(resumed) - 1

    def test_interrupted_run_resumes_to_identical_aggregates(self, tmp_path, monkeypatch):
        units = _units()
        monkeypatch.setenv(MAX_CELLS_ENV, "4")
        with pytest.raises(RunInterrupted):
            ExperimentEngine(journal=RunJournal(tmp_path)).run(units)
        monkeypatch.delenv(MAX_CELLS_ENV)
        assert len(RunJournal(tmp_path).load()) == 4
        resumed_engine = ExperimentEngine(journal=RunJournal(tmp_path), resume=True)
        resumed = run_comparison(CORPUS, default_method_specs(aco_params=FAST_ACO), engine=resumed_engine)
        uninterrupted = run_comparison(CORPUS, default_method_specs(aco_params=FAST_ACO))
        for metric in ("height", "width_including_dummies", "dummy_vertex_count"):
            assert format_comparison(resumed, metric) == format_comparison(
                uninterrupted, metric
            )

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentEngine(resume=True)

    def test_callable_cells_are_not_journaled(self, tmp_path):
        units = [
            WorkUnit(
                graph=CORPUS[0].graph,
                method=MethodSpec.from_callable("Custom", longest_path_layering),
            )
        ]
        journal = RunJournal(tmp_path)
        ExperimentEngine(journal=journal).run(units)
        journal.close()
        assert len(RunJournal(tmp_path).load()) == 0

    def test_cache_hits_are_journaled_for_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ExperimentEngine(cache=cache).run(_units())  # warm the cache
        journal = RunJournal(tmp_path / "run")
        ExperimentEngine(cache=cache, journal=journal).run(_units())
        journal.close()
        # Even though every cell was a cache hit, the journal can replay all
        # of them (the cache may be pruned between runs).
        assert len(RunJournal(tmp_path / "run").load()) == len(_units())


class TestCellResultShape:
    def test_ok_property(self):
        (cell,) = ExperimentEngine().run(
            [WorkUnit(graph=CORPUS[0].graph, method=MethodSpec.builtin("LPL"))]
        )
        assert isinstance(cell, CellResult)
        assert cell.ok and cell.error is None and not cell.replayed

    def test_max_cells_env_validation(self, monkeypatch):
        monkeypatch.setenv(MAX_CELLS_ENV, "zero")
        with pytest.raises(ValidationError):
            ExperimentEngine().run(_units()[:2])
        monkeypatch.setenv(MAX_CELLS_ENV, "0")
        with pytest.raises(ValidationError):
            ExperimentEngine().run(_units()[:2])
