"""Chaos matrix for the resource governor: oom, enospc, crash storms.

The robustness contract under test: every resource fault is either *priced*
(budgets split packs, oversize requests answer 413), *labelled* (an
over-budget cell dies as ``kind="oom"``, not an opaque crash), or
*degraded around* (full disks fence off the cache/journal disk layers,
crash storms collapse the pool to in-parent serial execution) — and every
rung of the degradation ladder produces bit-identical tables, because the
breakers only ever choose between implementations the equivalence tests
already pin together.
"""

from __future__ import annotations

import importlib.util
import os
import sqlite3
from pathlib import Path

import pytest

from repro.aco.params import ACOParams
from repro.cli import main
from repro.datasets.corpus import att_like_corpus
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine, default_method_specs
from repro.experiments.journal import RunJournal
from repro.experiments.runner import run_comparison
from repro.layering.metrics import LayeringMetrics
from repro.serving import ServeConfig
from repro.utils import chaos, resources
from repro.utils.exceptions import ValidationError

from serving_harness import ServerHarness, layer_payload

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="fault injection is POSIX-only"
)


def _load_resume_smoke():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "resume_smoke.py"
    spec = importlib.util.spec_from_file_location("resume_smoke_for_resources", path)
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


@pytest.fixture(autouse=True)
def _chaos_hygiene(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    monkeypatch.delenv(chaos.FAIL_CELLS_ENV, raising=False)
    chaos.reset_hangs()
    yield
    chaos.release_hangs()


def _tables(capsys, argv, expect: int = 0) -> str:
    assert main(argv) == expect
    return deterministic_tables(capsys.readouterr().out)


def _fast_specs():
    return default_method_specs(aco_params=ACOParams(n_ants=2, n_tours=2, seed=0))


# --------------------------------------------------------------------------- #
# oom: labelled, isolated, never retried in-parent
# --------------------------------------------------------------------------- #


class TestOomLabelling:
    def test_oom_cell_is_labelled_and_never_retried(self, monkeypatch):
        # A small allocation keeps the injection instant; the explicit
        # MemoryError is what the label machinery must catch.
        monkeypatch.setenv(
            chaos.CHAOS_ENV, "oom@8388608@*:AntColony:att-like-n10-*"
        )
        corpus = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20))
        engine = ExperimentEngine(retries=2)
        comparison = run_comparison(corpus, _fast_specs(), engine=engine)
        assert len(comparison.failures) == 1
        failed = comparison.failures[0]
        assert failed.error is not None and failed.error.kind == "oom"
        # In-process oom carries the Python exception type; a worker killed
        # under an armed cap is normalised to "MemoryBudgetExceeded".
        assert failed.error.exc_type in ("MemoryError", "MemoryBudgetExceeded")
        # Retrying an oom in the parent (where no RLIMIT_AS cap is armed)
        # would risk the parent's own address space: attempts stays 1.
        assert failed.attempts == 1
        assert comparison.cells_total == 10

    @pytest.mark.parametrize(
        "executor_args",
        [
            pytest.param(["--executor", "serial"], id="serial"),
            pytest.param(["--executor", "batched", "--jobs", "2"], id="batched"),
        ],
    )
    def test_oom_isolated_across_executors(self, capsys, monkeypatch, executor_args):
        monkeypatch.setenv(
            chaos.CHAOS_ENV, "oom@8388608@*:AntColony:att-like-n10-*"
        )
        assert main([*SMALL_COMPARE, *executor_args]) == 0
        out = capsys.readouterr().out
        assert "1 of 10 cells failed" in out
        assert "1 oom" in out

    @pytest.mark.slow
    def test_worker_oom_under_armed_budget_is_labelled(self, capsys, monkeypatch):
        # 1 GiB of injected allocation against a 64M budget (+ fixed slack):
        # the worker's armed RLIMIT_AS cap fails the allocation itself, and
        # the pool must label the death "oom", not "crash".
        monkeypatch.setenv(
            chaos.CHAOS_ENV, "oom@2147483648@*:AntColony:att-like-n10-*"
        )
        assert (
            main(
                [
                    *SMALL_COMPARE,
                    "--executor",
                    "process",
                    "--jobs",
                    "2",
                    "--memory-budget",
                    "64M",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 of 10 cells failed" in out
        assert "1 oom" in out


# --------------------------------------------------------------------------- #
# enospc: disk layers degrade, runs survive
# --------------------------------------------------------------------------- #


class TestDiskFullDegradation:
    def test_cache_degrades_to_memory_only(self, capsys, monkeypatch, tmp_path):
        reference = _tables(capsys, SMALL_COMPARE)
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(chaos.CHAOS_ENV, "enospc@*:AntColony:*")
        assert main([*SMALL_COMPARE, "--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        assert deterministic_tables(captured.out) == reference
        err = captured.err
        assert "memory-only result cache" in err
        assert err.count("repro: resource governor:") == 1  # logged once
        # The fenced-off disk layer wrote nothing for the failing cells.
        assert ResultCache(cache_dir).stats().entries < 10
        # With the disk healthy again, a fresh run re-populates and matches.
        monkeypatch.delenv(chaos.CHAOS_ENV)
        resources.governor().reset()
        healthy = _tables(capsys, [*SMALL_COMPARE, "--cache-dir", str(cache_dir)])
        assert healthy == reference
        assert ResultCache(cache_dir).stats().entries == 10

    def test_journal_degrades_to_best_effort(self, capsys, monkeypatch, tmp_path):
        reference = _tables(capsys, SMALL_COMPARE)
        run_dir = tmp_path / "run"
        monkeypatch.setenv(chaos.CHAOS_ENV, "enospc@*:AntColony:*")
        assert main([*SMALL_COMPARE, "--run-dir", str(run_dir)]) == 0
        captured = capsys.readouterr()
        assert deterministic_tables(captured.out) == reference
        err = captured.err
        assert "best-effort journal" in err
        assert "journal-disk" in err
        # The degradation caveat: a resume recomputes the unjournaled cells
        # — and still converges on the reference tables.
        monkeypatch.delenv(chaos.CHAOS_ENV)
        resources.governor().reset()
        resumed = _tables(
            capsys, [*SMALL_COMPARE, "--run-dir", str(run_dir), "--resume"]
        )
        assert resumed == reference

    def test_journal_enospc_is_swallowed_at_the_api_level(self, monkeypatch, tmp_path):
        monkeypatch.setenv(chaos.CHAOS_ENV, "enospc@*:AntColony:*")
        journal = RunJournal(tmp_path / "run")
        corpus = att_like_corpus(graphs_per_group=1, vertex_counts=(10,))
        engine = ExperimentEngine(journal=journal)
        comparison = run_comparison(corpus, _fast_specs(), engine=engine)
        assert not comparison.failures  # a full journal never fails a cell
        assert "journal-disk" in resources.governor().degraded()


# --------------------------------------------------------------------------- #
# crash storms: the respawn breaker collapses the pool, the run finishes
# --------------------------------------------------------------------------- #


class TestCrashStorm:
    @pytest.mark.slow
    def test_storm_collapses_to_in_parent_serial_and_finishes(
        self, capsys, monkeypatch
    ):
        # Every AntColony attempt SIGKILLs its worker, forever: without the
        # breaker this is an unbounded respawn loop.  With it, the pool
        # stops replacing corpses after the threshold and runs the rest
        # in-parent (where kill9 degrades to a raise), so the run ends.
        monkeypatch.setenv(chaos.CHAOS_ENV, "kill9@*:*")
        assert (
            main([*SMALL_COMPARE, "--executor", "process", "--jobs", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "cells failed" in out
        governor = resources.governor()
        assert "respawn" in governor.degraded()
        assert any(
            "in-parent serial execution" in event["message"]
            for event in governor.events
        )


# --------------------------------------------------------------------------- #
# every rung of the ladder is bit-identical
# --------------------------------------------------------------------------- #


class TestDegradedRungBitIdentity:
    @pytest.fixture()
    def reference(self, capsys):
        return _tables(capsys, [*SMALL_COMPARE, "--executor", "serial"])

    def test_native_kernel_rung(self, capsys, reference):
        resources.governor().trip("native-kernel", "test")
        capsys.readouterr()
        assert _tables(capsys, SMALL_COMPARE) == reference

    def test_native_threads_rung(self, capsys, reference):
        resources.governor().trip("native-threads", "test")
        capsys.readouterr()
        assert _tables(capsys, SMALL_COMPARE) == reference

    def test_batched_rung_falls_back_to_per_cell_serial(self, capsys, reference):
        resources.governor().trip("batched", "test")
        capsys.readouterr()
        degraded = _tables(
            capsys, [*SMALL_COMPARE, "--executor", "batched", "--jobs", "2"]
        )
        assert degraded == reference

    def test_cache_disk_rung_serves_memory_only(
        self, capsys, reference, tmp_path
    ):
        resources.governor().trip("cache-disk", "test")
        capsys.readouterr()
        cache_dir = tmp_path / "cache"
        degraded = _tables(capsys, [*SMALL_COMPARE, "--cache-dir", str(cache_dir)])
        assert degraded == reference
        assert ResultCache(cache_dir).stats().entries == 0  # disk fenced off


# --------------------------------------------------------------------------- #
# memory budgets: pack splitting is results-neutral
# --------------------------------------------------------------------------- #


class TestMemoryBudgetSplitting:
    def test_tiny_budget_splits_packs_without_changing_tables(self, capsys):
        argv = [*SMALL_COMPARE, "--executor", "batched", "--jobs", "2"]
        reference = _tables(capsys, argv)
        # 8K sits between one tiny graph's estimate (~2.6K) and the
        # two-graph pack's (~13K), so the planner must split the pack.
        assert main([*argv, "--memory-budget", "8K"]) == 0
        captured = capsys.readouterr()
        assert deterministic_tables(captured.out) == reference
        assert "splits planned packs" in captured.err

    def test_generous_budget_leaves_packs_alone(self, capsys):
        argv = [*SMALL_COMPARE, "--executor", "batched", "--memory-budget", "4G"]
        assert main(argv) == 0
        assert "splits planned packs" not in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# prune: quarantine accounting and the free-space watermark
# --------------------------------------------------------------------------- #


def _fill_cache(cache: ResultCache, n: int = 3) -> None:
    metrics = LayeringMetrics(
        n_vertices=2,
        n_edges=1,
        height=2,
        width_including_dummies=1,
        width_excluding_dummies=1,
        dummy_vertex_count=0,
        edge_density=1.0,
        objective=1.0,
        nd_width=1.0,
    )
    for i in range(n):
        cache.put(f"entry-{i:02d}", metrics, 0.1)


def _quarantine_rotten(cache: ResultCache) -> None:
    """A 4 KiB quarantined row stored at the epoch: the oldest in the pool."""
    with sqlite3.connect(cache.path) as db:
        db.execute(
            "INSERT INTO quarantine VALUES ('rotten', ?, 'not-a-digest', 0)",
            (b"x" * 4096,),
        )


class TestPruneWatermarks:
    def test_quarantine_counts_toward_max_size(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _fill_cache(cache, 2)
        _quarantine_rotten(cache)
        result = cache.prune(max_size_bytes=0)
        assert result.quarantine_removed == 1
        assert result.removed == 2 and result.kept == 0
        assert cache.stats().quarantined == 0

    def test_quarantine_evicted_oldest_first_within_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _fill_cache(cache, 2)
        _quarantine_rotten(cache)
        stats = cache.stats()
        # A budget that only the quarantined row breaks: the (oldest)
        # quarantined bytes go first, the live entries survive.
        result = cache.prune(max_size_bytes=stats.total_bytes)
        assert result.quarantine_removed == 1
        assert result.removed == 0 and result.kept == 2

    def test_free_below_watermark_evicts_when_disk_is_tight(self, tmp_path):
        import shutil

        cache = ResultCache(tmp_path / "cache")
        _fill_cache(cache, 3)
        free_now = shutil.disk_usage(cache.directory).free
        # Demanding more free space than exists forces an eviction plan
        # covering every entry; a watermark already met evicts nothing.
        result = cache.prune(free_below_bytes=free_now + (1 << 40))
        assert result.removed == 3 and result.kept == 0
        _fill_cache(cache, 3)
        untouched = cache.prune(free_below_bytes=1)
        assert untouched.removed == 0 and untouched.kept == 3

    def test_prune_requires_a_criterion(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValidationError, match="--free-below"):
            cache.prune()

    def test_cli_prune_free_below(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        _fill_cache(ResultCache(cache_dir), 2)
        assert main(
            ["cache", "prune", str(cache_dir), "--free-below", "1"]
        ) == 0
        assert "pruned 0 entries" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# serving: oversize admission and governor visibility
# --------------------------------------------------------------------------- #


class TestServingGovernance:
    def test_oversize_request_answers_413_with_the_estimate(self, tmp_path):
        config = ServeConfig(
            prewarm=False,
            memory_budget=1,  # nothing fits: every estimate exceeds 1 byte
            cache_dir=str(tmp_path / "cache"),
        )
        with ServerHarness(config) as harness:
            status, body = harness.layer(layer_payload("oversize"))
            assert status == 413
            assert body["memory_budget_bytes"] == 1
            assert body["estimate"]["bytes"] > 1
            stats = harness.request("GET", "/stats")[1]
            assert stats["rejected_oversize"] == 1
            assert stats["resources"]["memory_budget_bytes"] == 1

    def test_stats_and_readyz_surface_degraded_rungs(self, tmp_path):
        config = ServeConfig(prewarm=False, cache_dir=str(tmp_path / "cache"))
        with ServerHarness(config) as harness:
            resources.governor().trip("cache-disk", "test")
            stats = harness.request("GET", "/stats")[1]
            assert stats["resources"]["degraded"] == ["cache-disk"]
            assert (
                stats["resources"]["breakers"]["cache-disk"]["state"] == "open"
            )
            status, body, _ = harness.request("GET", "/readyz")
            assert status == 200 and body["degraded"] == ["cache-disk"]

    def test_within_budget_requests_still_serve(self, tmp_path):
        config = ServeConfig(
            prewarm=False,
            memory_budget=64 * 1024 * 1024,
            cache_dir=str(tmp_path / "cache"),
        )
        with ServerHarness(config) as harness:
            status, body = harness.layer(layer_payload("fits"))
            assert status == 200 and body["name"] == "fits"
