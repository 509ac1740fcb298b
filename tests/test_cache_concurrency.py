"""Stress test: concurrent engines sharing one ``--cache-dir``.

A server replica and a CLI run (or two server replicas) may hammer the same
cache database simultaneously — puts, gets, ``cache prune`` maintenance and
quarantine moves of garbled rows all racing.  Every worker below performs a
randomized mix of those operations against one shared directory; the
invariant is that *no* operation ever raises or trips the ``cache-disk``
breaker: every race (row pruned mid-read, row rewritten or quarantined by
another reader mid-move) must degrade to a miss or a no-op, never to an
exception, a lock timeout or a hang.
"""

from __future__ import annotations

import multiprocessing
import random
import sqlite3
import sys
import threading

import pytest

import repro.experiments.cache as cache_module
from repro.experiments.cache import CachedCell, ResultCache
from repro.layering.metrics import LayeringMetrics
from repro.utils import chaos, resources

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)

#: Deliberately tiny key space so processes collide on the same entries.
KEYS = [f"{i:02x}" + "ab" * 31 for i in range(16)]


def _metrics(i: int) -> LayeringMetrics:
    return LayeringMetrics(
        n_vertices=10 + i,
        n_edges=20 + i,
        height=4,
        width_including_dummies=3.0,
        width_excluding_dummies=3.0,
        dummy_vertex_count=2,
        edge_density=5,
        objective=1.0 / (7.0 + i),
        nd_width=1.0,
    )


def _garble(cache: ResultCache, key: str) -> None:
    """Rot the stored record of *key* behind the cache's back."""
    with sqlite3.connect(cache.path) as db:
        db.execute("UPDATE cells SET record = ? WHERE key = ?", (b"garbage", key))


def _hammer(directory: str, seed: int, iterations: int, errors) -> None:
    """One worker's operation mix; any exception is reported to the parent."""
    rng = random.Random(seed)
    cache = ResultCache(directory, memory_entries=4)
    try:
        for step in range(iterations):
            key = rng.choice(KEYS)
            op = rng.randrange(6)
            if op == 0:
                cache.put(key, _metrics(step % 7), running_time=0.01)
            elif op == 1:
                hit = cache.get(key)
                assert hit is None or isinstance(hit, CachedCell)
            elif op == 2:
                # The store's own corrupt-cache chaos path garbles the row,
                # so the next reader quarantines it.
                cache.put(
                    key, _metrics(step % 7), running_time=0.01, chaos_id=f"garble:{key}"
                )
                cache.get(key)
            elif op == 3:
                cache.prune(older_than_seconds=0.0)
            elif op == 4:
                cache.prune(max_size_bytes=512)
            else:
                cache.stats()
        degraded = resources.governor().degraded()
        assert degraded == [], f"breakers open: {degraded}"
    except BaseException as exc:  # pragma: no cover - the failure we hunt
        errors.put(f"worker {seed}: {type(exc).__name__}: {exc}")


class TestConcurrentCacheMaintenance:
    def test_put_get_prune_quarantine_races_never_raise(self, tmp_path, monkeypatch):
        monkeypatch.setenv(chaos.CHAOS_ENV, "corrupt-cache@*:garble:*")
        ctx = multiprocessing.get_context("fork")
        errors = ctx.Queue()
        workers = [
            ctx.Process(
                target=_hammer, args=(str(tmp_path), seed, 150, errors)
            )
            for seed in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive(), "stress worker hung"
            assert worker.exitcode == 0
        failures = []
        while not errors.empty():
            failures.append(errors.get())
        assert failures == []
        # The cache must still be fully functional afterwards.
        monkeypatch.delenv(chaos.CHAOS_ENV)
        survivor = ResultCache(tmp_path)
        survivor.put(KEYS[0], _metrics(0), running_time=0.5)
        hit = survivor.get(KEYS[0])
        assert hit is not None and hit.running_time == 0.5
        with sqlite3.connect(survivor.path) as db:
            assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)

    def test_quarantine_spares_a_row_rewritten_mid_read(self, tmp_path, monkeypatch):
        """A healthy put landing between the read and the move is kept."""
        cache = ResultCache(tmp_path, memory_entries=0)
        cache.put(KEYS[1], _metrics(1), running_time=0.1)
        _garble(cache, KEYS[1])
        other = ResultCache(tmp_path, memory_entries=0)  # another process's view
        real_verified = cache_module._verified

        def racing_verified(record, sha256):
            # The garbled row was read; a concurrent put rewrites it now.
            other.put(KEYS[1], _metrics(2), running_time=0.2)
            return real_verified(record, sha256)

        monkeypatch.setattr(cache_module, "_verified", racing_verified)
        assert cache.get(KEYS[1]) is None  # the garbled read is a miss...
        monkeypatch.undo()
        hit = cache.get(KEYS[1])
        assert hit is not None and hit.running_time == 0.2  # ...the rewrite stays
        assert cache.stats().quarantined == 0

    def test_quarantine_tolerates_concurrent_sweep(self, tmp_path, monkeypatch):
        """A prune sweeping the row between the read and the move: no error."""
        cache = ResultCache(tmp_path, memory_entries=0)
        cache.put(KEYS[3], _metrics(3), running_time=0.1)
        _garble(cache, KEYS[3])
        other = ResultCache(tmp_path, memory_entries=0)
        real_verified = cache_module._verified

        def sweeping_verified(record, sha256):
            other.prune(max_size_bytes=0)  # a concurrent `cache prune`
            return real_verified(record, sha256)

        monkeypatch.setattr(cache_module, "_verified", sweeping_verified)
        assert cache.get(KEYS[3]) is None  # miss, not an exception
        monkeypatch.undo()
        stats = cache.stats()
        assert stats.entries == 0 and stats.quarantined == 0

    def test_quarantine_source_stolen_by_other_process(self, tmp_path, monkeypatch):
        """Another reader quarantined the row first: it moves once, no error."""
        cache = ResultCache(tmp_path, memory_entries=0)
        cache.put(KEYS[2], _metrics(2), running_time=0.1)
        _garble(cache, KEYS[2])
        other = ResultCache(tmp_path, memory_entries=0)
        real_verified = cache_module._verified
        fired: list[bool] = []

        def stealing_verified(record, sha256):
            if not fired:
                fired.append(True)
                assert other.get(KEYS[2]) is None  # the other reader moves it
            return real_verified(record, sha256)

        monkeypatch.setattr(cache_module, "_verified", stealing_verified)
        assert cache.get(KEYS[2]) is None
        monkeypatch.undo()
        stats = cache.stats()
        assert stats.entries == 0 and stats.quarantined == 1  # moved once


class TestThreadSharedInstance:
    def test_lookup_get_put_from_two_threads(self, tmp_path):
        """The serving loop thread looks up while the batch worker gets and puts."""
        cache = ResultCache(tmp_path, memory_entries=8)  # evicts constantly
        barrier = threading.Barrier(2)
        tallies: list[dict[str, int]] = []
        errors: list[str] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            tally = {"lookup_hits": 0, "gets": 0, "get_hits": 0}
            try:
                barrier.wait()
                for step in range(1500):
                    key = rng.choice(KEYS)
                    op = rng.randrange(3)
                    if op == 0:
                        tally["lookup_hits"] += cache.lookup_memory(key) is not None
                    elif op == 1:
                        tally["gets"] += 1
                        tally["get_hits"] += cache.get(key) is not None
                    else:
                        cache.put(key, _metrics(step % 7), running_time=0.01)
            except BaseException as exc:  # pragma: no cover - the failure we hunt
                errors.append(f"worker {seed}: {type(exc).__name__}: {exc}")
            tallies.append(tally)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        stats = cache.hit_stats()
        lookup_hits = sum(t["lookup_hits"] for t in tallies)
        gets = sum(t["gets"] for t in tallies)
        get_hits = sum(t["get_hits"] for t in tallies)
        # A lookup counts only its hits; every get counts one memory hit or
        # miss, and every memory miss of a get one disk hit or miss.
        assert stats.memory_hits + stats.memory_misses == lookup_hits + gets
        assert stats.disk_hits + stats.disk_misses == stats.memory_misses
        assert (stats.memory_hits - lookup_hits) + stats.disk_hits == get_hits
