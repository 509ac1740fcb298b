"""The result cache's SQLite store: settings, integrity, failures, upkeep.

One ``cells.sqlite`` per cache directory.  These tests pin the store's
contract: it opens lazily with its fixed settings, quarantines rows that
fail verification, degrades to memory-only through the ``cache-disk``
breaker on any database failure (and re-probes after the cooldown), lets
``prune`` shrink the file, and survives forked writers and process-pool
runs intact.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3

import pytest

from repro.aco.params import ACOParams
from repro.cli import main
from repro.datasets.corpus import att_like_corpus
from repro.experiments.cache import PAGE_CACHE_KIB, ResultCache
from repro.experiments.engine import ExperimentEngine, WorkUnit, default_method_specs
from repro.experiments.runner import run_comparison
from repro.layering.metrics import LayeringMetrics
from repro.utils import chaos, resources

CORPUS = att_like_corpus(graphs_per_group=1, vertex_counts=(10, 20))
FAST_ACO = ACOParams(n_ants=2, n_tours=2, seed=0)


def _metrics(i: int = 0) -> LayeringMetrics:
    return LayeringMetrics(
        n_vertices=10 + i,
        n_edges=20,
        height=4,
        width_including_dummies=3.0,
        width_excluding_dummies=3.0,
        dummy_vertex_count=2,
        edge_density=5,
        objective=0.25,
        nd_width=1.0,
    )


def _fill(cache: ResultCache, n: int) -> list[str]:
    keys = [f"{i:064x}" for i in range(n)]
    for i, key in enumerate(keys):
        cache.put(key, _metrics(i), 0.1)
    return keys


def _sql(cache: ResultCache, statement: str, *params) -> list[tuple]:
    with sqlite3.connect(cache.path) as db:
        return db.execute(statement, params).fetchall()


def _bytes_on_disk(cache: ResultCache) -> int:
    wal = cache.path.with_name(cache.path.name + "-wal")
    return cache.path.stat().st_size + (wal.stat().st_size if wal.exists() else 0)


def _comparison(engine: ExperimentEngine):
    return run_comparison(CORPUS, default_method_specs(aco_params=FAST_ACO), engine=engine)


class TestSettings:
    def test_nothing_touches_disk_before_the_first_access(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.lookup_memory("k") is None
        assert cache.stats().entries == 0 and len(cache) == 0
        assert not (tmp_path / "cache").exists()
        cache.put("k", _metrics(), 0.1)
        assert cache.path == tmp_path / "cache" / "cells.sqlite" and cache.path.exists()

    def test_connection_settings(self, tmp_path):
        cache = ResultCache(tmp_path)
        settings = cache._disk(
            lambda conn: [
                conn.execute(f"PRAGMA {name}").fetchone()[0]
                for name in ("journal_mode", "synchronous", "cache_size", "auto_vacuum")
            ]
        )
        # WAL, NORMAL, a fixed small page cache, incremental vacuum.
        assert settings == ["wal", 1, -PAGE_CACHE_KIB, 2]

    def test_old_shard_directories_are_ignored(self, tmp_path):
        (tmp_path / "ab").mkdir()
        (tmp_path / "ab" / ("ab" * 32 + ".json")).write_text("{}", encoding="utf-8")
        (tmp_path / "corrupt").mkdir()
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        _fill(cache, 2)
        stats = cache.stats()
        assert stats.entries == 2 and stats.quarantined == 0


class TestIntegrity:
    def test_corrupt_row_is_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = _comparison(ExperimentEngine(cache=cache))
        (key,) = _sql(cache, "SELECT key FROM cells ORDER BY key LIMIT 1")[0]
        _sql(cache, "UPDATE cells SET record = ? WHERE key = ?", b"rot", key)
        fresh = ResultCache(tmp_path)  # a new process: nothing in memory
        warm = _comparison(ExperimentEngine(cache=fresh))
        assert [r.metrics for r in warm.results] == [r.metrics for r in cold.results]
        hits = fresh.hit_stats()
        assert hits.disk_hits == len(cold.results) - 1 and hits.disk_misses == 1
        stats = fresh.stats()
        # The recomputed cell was written back; the rotten row is kept aside.
        assert stats.entries == len(cold.results) and stats.quarantined == 1
        assert _sql(fresh, "SELECT key, record FROM quarantine") == [(key, b"rot")]


class TestDegradation:
    @pytest.fixture()
    def clock(self, monkeypatch):
        """A hand-driven clock for the ``cache-disk`` breaker's cooldown."""
        now = [1000.0]
        breaker = resources.governor().breaker("cache-disk")
        monkeypatch.setattr(breaker, "_clock", lambda: now[0])
        return now

    def _assert_memory_only_then_probe(self, cache: ResultCache, clock) -> None:
        assert "cache-disk" in resources.governor().degraded()
        # Memory-only: the entry is served from the LRU, and later writes
        # skip the fenced-off disk instead of failing again.
        assert cache.get("first") is not None
        cache.put("second", _metrics(2), 0.2)
        assert cache.get("second") is not None
        assert ResultCache(cache.directory).get("second") is None
        # After the cooldown the next write is the probe (a read proves
        # nothing about a full disk and leaves the breaker open); a healthy
        # disk closes the breaker and writes land again.
        clock[0] += resources.LADDER["cache-disk"].cooldown_s
        assert ResultCache(cache.directory).get("second") is None
        assert "cache-disk" in resources.governor().degraded()
        cache.put("third", _metrics(3), 0.3)
        assert resources.governor().degraded() == []
        assert ResultCache(cache.directory).get("third") is not None

    def test_chaos_enospc_degrades_and_reprobes(self, tmp_path, monkeypatch, clock):
        monkeypatch.setenv(chaos.CHAOS_ENV, "enospc:cell:first")
        cache = ResultCache(tmp_path)
        cache.put("first", _metrics(1), 0.1, chaos_id="cell:first")
        assert ResultCache(tmp_path).get("first") is None  # never reached disk
        self._assert_memory_only_then_probe(cache, clock)

    def test_sqlite_full_degrades_and_reprobes(self, tmp_path, monkeypatch, clock):
        real_connection = ResultCache._connection

        class FullDisk:
            """This process's connection on a disk with no room for a row."""

            def __init__(self, conn: sqlite3.Connection) -> None:
                self.conn = conn

            def execute(self, statement: str, *params):
                if statement.lstrip().upper().startswith("INSERT"):
                    raise sqlite3.OperationalError("database or disk is full")
                return self.conn.execute(statement, *params)

        cache = ResultCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(
                ResultCache, "_connection", lambda self: FullDisk(real_connection(self))
            )
            cache.put("first", _metrics(1), 0.1)  # must not raise
        events = resources.governor().events
        assert any("database or disk is full" in e["message"] for e in events)
        self._assert_memory_only_then_probe(cache, clock)

    def test_malformed_file_degrades_the_run_not_the_results(self, tmp_path, capsys):
        reference = _comparison(ExperimentEngine())
        (tmp_path / "cells.sqlite").write_bytes(b"this is not a database" * 100)
        comparison = _comparison(ExperimentEngine(cache=ResultCache(tmp_path)))
        assert not comparison.failures
        assert [r.metrics for r in comparison.results] == [
            r.metrics for r in reference.results
        ]
        assert "cache-disk" in resources.governor().degraded()
        # Maintenance reports the broken file instead of crashing.
        assert main(["cache", "stats", str(tmp_path)]) == 2
        assert "result cache" in capsys.readouterr().err


class TestPrune:
    @pytest.mark.parametrize(
        "criterion",
        [
            {"older_than_seconds": 3600},
            {"max_size_bytes": 2000},
            {"free_below_bytes": 1 << 60},
        ],
    )
    def test_prune_shrinks_the_file(self, tmp_path, criterion):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 400)
        # Age all but the newest 10 rows by two hours.
        for key in keys[:-10]:
            _sql(cache, "UPDATE cells SET stored_at = stored_at - 7200 WHERE key = ?", key)
        before = _bytes_on_disk(cache)
        result = cache.prune(**criterion)
        assert result.removed >= 390 and result.kept <= 10
        assert len(cache) == result.kept
        assert _bytes_on_disk(cache) < before / 4
        assert _sql(cache, "PRAGMA integrity_check") == [("ok",)]


def _child_put(cache: ResultCache, key: str) -> None:
    # The inherited instance: the child opens its own connection.
    cache.put(key, _metrics(7), 0.7)
    assert cache.get(key) is not None
    os._exit(0)


class TestProcesses:
    def test_forked_child_writes_through_its_own_connection(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("parent", _metrics(1), 0.1)  # the parent's connection is open
        child = multiprocessing.get_context("fork").Process(
            target=_child_put, args=(cache, "child")
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        # The parent's connection is untouched by the child's exit.
        cache.put("parent-again", _metrics(2), 0.2)
        assert ResultCache(tmp_path).get("child") is not None
        assert len(cache) == 3
        assert _sql(cache, "PRAGMA integrity_check") == [("ok",)]

    def test_process_executor_run_then_warm_rerun(self, tmp_path):
        units = [
            WorkUnit(graph=entry.graph, method=spec, graph_name=entry.name, label=name)
            for entry in CORPUS
            for name, spec in default_method_specs(aco_params=FAST_ACO).items()
        ]
        cache = ResultCache(tmp_path)
        cold = ExperimentEngine(executor="process", jobs=2, cache=cache).run(units)
        assert all(cell.ok and not cell.cached for cell in cold)
        warm = ExperimentEngine(
            executor="process", jobs=2, cache=ResultCache(tmp_path)
        ).run(units)
        assert all(cell.cached for cell in warm)
        assert [c.metrics for c in warm] == [c.metrics for c in cold]
        assert _sql(cache, "PRAGMA integrity_check") == [("ok",)]
