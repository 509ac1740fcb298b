"""Chaos-injection matrix for the hardened execution layer.

Every executor must finish a run with *correct* aggregate tables while
faults are injected through ``REPRO_CHAOS`` (:mod:`repro.utils.chaos`):
transient raises recover via ``--retries``, hangs are cut by ``--timeout``
and recorded as ``kind="timeout"``, a SIGKILL'd pool worker is respawned
and only its in-flight cell is marked ``kind="crash"``, corrupted cache
entries are quarantined and treated as misses, and an interrupted chaotic
run finishes under ``--resume`` with tables identical to a fault-free run.

The deterministic-table comparison (everything except the wall-clock
``running_time`` table) is shared with the CI resume smoke.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from repro.aco.params import ACOParams
from repro.cli import main
from repro.datasets.corpus import att_like_corpus
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine, default_method_specs
from repro.experiments.runner import run_comparison
from repro.utils import chaos

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="fault injection (kill -9, signals) is POSIX-only"
)


def _load_resume_smoke():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "resume_smoke.py"
    spec = importlib.util.spec_from_file_location("resume_smoke_for_chaos", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


deterministic_tables = _load_resume_smoke().deterministic_tables

FAST_ACO = ["--ants", "2", "--tours", "2", "--seed", "0"]
SMALL_COMPARE = [
    "compare",
    "--graphs-per-group",
    "1",
    "--vertex-counts",
    "10",
    "20",
    *FAST_ACO,
]

#: One ``main()`` argv suffix per executor; pools get two workers so the
#: 1-CPU CI box does not silently downgrade them to the serial path.
EXECUTORS = [
    pytest.param([], id="serial"),
    pytest.param(["--executor", "thread", "--jobs", "2"], id="thread"),
    pytest.param(
        ["--executor", "process", "--jobs", "2"],
        marks=pytest.mark.slow,
        id="process",
    ),
    pytest.param(
        ["--executor", "colonies", "--jobs", "2", "--colonies", "2"],
        marks=pytest.mark.slow,
        id="colonies",
    ),
    pytest.param(["--executor", "batched", "--jobs", "2"], id="batched"),
]


@pytest.fixture(autouse=True)
def _chaos_hygiene(monkeypatch):
    """Clean rule env, armed+released hang valve."""
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    monkeypatch.delenv(chaos.FAIL_CELLS_ENV, raising=False)
    chaos.reset_hangs()
    yield
    # Unblock any thread an expired deadline abandoned mid-hang so it cannot
    # outlive its test.
    chaos.release_hangs()


def _tables(capsys, argv, expect: int = 0) -> str:
    assert main(argv) == expect
    return deterministic_tables(capsys.readouterr().out)


class TestTransientFaultsRecover:
    """Retries make chaotic runs byte-identical to fault-free ones."""

    @pytest.mark.parametrize("executor_args", EXECUTORS)
    def test_transient_raise_with_retries(self, capsys, monkeypatch, executor_args):
        reference = _tables(capsys, [*SMALL_COMPARE, *executor_args])
        assert "cells failed" not in reference
        # Attempt 1 of every AntColony cell raises; attempt 2 runs clean.
        monkeypatch.setenv(chaos.CHAOS_ENV, "raise:AntColony:*")
        chaotic = _tables(capsys, [*SMALL_COMPARE, *executor_args, "--retries", "2"])
        assert chaotic == reference

    def test_transient_hang_cut_by_deadline_then_retried(self, capsys, monkeypatch):
        reference = _tables(capsys, SMALL_COMPARE)
        monkeypatch.setenv(chaos.CHAOS_ENV, "hang@30:AntColony:att-like-n10-*")
        chaotic = _tables(
            capsys, [*SMALL_COMPARE, "--timeout", "0.5", "--retries", "1"]
        )
        assert chaotic == reference

    @pytest.mark.slow
    def test_transient_kill9_worker_respawned_and_retried(
        self, capsys, monkeypatch
    ):
        executor = ["--executor", "process", "--jobs", "2"]
        reference = _tables(capsys, [*SMALL_COMPARE, *executor])
        # The first attempt SIGKILLs its worker mid-cell: the supervised pool
        # must respawn the worker, fail only the in-flight cell, and the
        # engine's retry must then produce a fault-free table.
        monkeypatch.setenv(chaos.CHAOS_ENV, "kill9:AntColony:att-like-n10-*")
        chaotic = _tables(capsys, [*SMALL_COMPARE, *executor, "--retries", "1"])
        assert chaotic == reference


class TestPermanentFaultsAreIsolated:
    """Unrecoverable faults cost exactly their own cell, correctly labelled."""

    def test_permanent_hang_recorded_as_timeout(self, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "hang@30@*:AntColony:att-like-n10-*")
        corpus = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20))
        engine = ExperimentEngine(cell_timeout=0.5, retries=1)
        comparison = run_comparison(
            corpus,
            default_method_specs(aco_params=ACOParams(n_ants=2, n_tours=2, seed=0)),
            engine=engine,
        )
        assert len(comparison.failures) == 1
        failed = comparison.failures[0]
        assert failed.error is not None and failed.error.kind == "timeout"
        assert failed.attempts == 2  # the retry was spent before giving up
        assert comparison.cells_total == 10

    @pytest.mark.slow
    def test_permanent_kill9_marks_only_inflight_cell_as_crash(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv(chaos.CHAOS_ENV, "kill9@*:AntColony:att-like-n10-*")
        assert (
            main([*SMALL_COMPARE, "--executor", "process", "--jobs", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "1 of 10 cells failed" in out
        assert "1 crash" in out


class TestCacheChaos:
    def test_corrupted_entries_quarantined_and_recomputed(
        self, capsys, monkeypatch, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        reference = _tables(capsys, SMALL_COMPARE)
        # Every AntColony cache write is garbled after the result is computed
        # (the run's own tables come from the in-memory results, not disk).
        monkeypatch.setenv(chaos.CHAOS_ENV, "corrupt-cache@*:AntColony:*")
        first = _tables(capsys, [*SMALL_COMPARE, "--cache-dir", str(cache_dir)])
        assert first == reference
        monkeypatch.delenv(chaos.CHAOS_ENV)
        # The re-run must detect the bit-rot, treat the entries as misses and
        # recompute — never replay garbage into the tables.
        second = _tables(capsys, [*SMALL_COMPARE, "--cache-dir", str(cache_dir)])
        assert second == reference
        cache = ResultCache(cache_dir)
        assert cache.stats().quarantined == 2  # one AntColony cell per graph
        assert main(["cache", "stats", str(cache_dir)]) == 0
        assert "quarantined: 2" in capsys.readouterr().out

    def test_timed_out_cells_are_never_cached(self, monkeypatch, tmp_path):
        monkeypatch.setenv(chaos.CHAOS_ENV, "hang@30@*:AntColony:att-like-n10-*")
        corpus = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20))
        cache = ResultCache(tmp_path / "cache")
        engine = ExperimentEngine(cell_timeout=0.5, cache=cache)
        run_comparison(
            corpus,
            default_method_specs(aco_params=ACOParams(n_ants=2, n_tours=2, seed=0)),
            engine=engine,
        )
        # 10 cells, one timed out: every cell lands in the cache except it.
        assert cache.stats().entries == 9


class TestInterruptResumeUnderChaos:
    def test_interrupted_chaotic_run_resumes_to_reference_tables(
        self, capsys, monkeypatch, tmp_path
    ):
        reference = _tables(capsys, SMALL_COMPARE)
        run_dir = tmp_path / "run"
        argv = [*SMALL_COMPARE, "--run-dir", str(run_dir), "--retries", "2"]
        monkeypatch.setenv(chaos.CHAOS_ENV, "raise:AntColony:*")
        monkeypatch.setenv("REPRO_ENGINE_MAX_CELLS", "4")
        assert main(argv) == 2
        assert "interrupted" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_ENGINE_MAX_CELLS")
        resumed = _tables(capsys, [*argv, "--resume"])
        assert resumed == reference

    def test_summary_line_reports_retry_and_timeout_counts(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv(chaos.CHAOS_ENV, "raise:AntColony:att-like-n10-*")
        assert main([*SMALL_COMPARE, "--retries", "1", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "0 failures, 1 retried, 0 timed out" in err
