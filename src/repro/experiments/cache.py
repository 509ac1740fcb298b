"""Content-addressed result cache for experiment cells: one SQLite file.

A *cell* is one ``(graph, layering method, nd_width)`` work unit of the
experiment engine (:mod:`repro.experiments.engine`).  Its cache key is the
SHA-256 digest of a canonical JSON payload combining

* the digest of the graph's own canonical JSON serialisation
  (:func:`repro.graph.io.to_json_dict`),
* the method's cache token (its name plus, for the Ant Colony, the full
  ``ACOParams`` dictionary — so changing any parameter, including the seed,
  changes the key), and
* the ``nd_width`` used by the metrics.

Because the key is derived purely from content, a different corpus seed,
parameter set or graph produces a different key, and repeated ``repro-dag
figures`` / ``compare`` / tuning runs over the same inputs become
incremental — no invalidation logic is needed for *input* changes.  Changes
to the *algorithms themselves* are covered by hashing ``repro.__version__``
into every key: a release that alters any layering algorithm's behaviour
must bump the package version (or :data:`CACHE_VERSION`), which orphans all
previous entries instead of silently serving stale metrics from a
persistent ``--cache-dir``.

Storage: ``<cache-dir>/cells.sqlite``, one row per cell in
``cells(key, record, sha256, stored_at)``: the canonical JSON record (the
:class:`~repro.layering.metrics.LayeringMetrics` fields plus the originally
measured running time), its digest, and the write time in Unix seconds from
SQLite's own clock.  In WAL mode every :meth:`ResultCache.put` is one
autocommitted statement: when it returns, the entry is durable to the OS
and visible to every process sharing the directory.  Directories of the
older file-per-cell layout (``??/*.json``, ``corrupt/``) are ignored.

Integrity: the digest is verified on read.  A row that fails (bit rot, a
torn copy between machines, a foreign record) moves to the ``quarantine``
table in one transaction and reads as a miss, so the cell is recomputed
instead of poisoning the tables.  Any :class:`sqlite3.Error` or
:class:`OSError` on open, read or write (a full disk, a malformed file, a
lock held past :data:`BUSY_TIMEOUT_S`) trips the resource governor's
``cache-disk`` breaker: the cache runs from memory until a probe after the
cooldown finds the disk healthy.

Keys are never invalidated, so a long-lived ``--cache-dir`` grows without
bound; :meth:`ResultCache.stats` and :meth:`ResultCache.prune` (CLI:
``repro-dag cache {stats,prune}``) keep it in check.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import shutil
import sqlite3
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

import repro
from repro.layering.metrics import LayeringMetrics
from repro.utils import chaos, resources
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "CachedCell",
    "CacheHitStats",
    "CacheStats",
    "DATABASE_NAME",
    "DEFAULT_MEMORY_ENTRIES",
    "PruneResult",
    "ResultCache",
    "canonical_json",
    "content_digest",
    "cache_key",
]

#: Default capacity of the in-process LRU layer in front of the disk store —
#: comfortably above the full 1277-graph × 5-algorithm corpus, a few MiB of
#: small metric records at most.
DEFAULT_MEMORY_ENTRIES = 16384

#: Format marker stored in every cache record.
CACHE_FORMAT = "repro-cell-result"

#: Bump to invalidate every existing entry when the result schema changes.
CACHE_VERSION = 2

#: The database file inside a cache directory.
DATABASE_NAME = "cells.sqlite"

#: Seconds a statement waits for another connection's lock; past it the
#: access is a ``cache-disk`` failure, never a hang.
BUSY_TIMEOUT_S = 5.0

#: SQLite page cache per connection, in KiB.  SQLite's 2 MB default costs
#: about 1.6 MB more resident memory for no faster puts.
PAGE_CACHE_KIB = 512

#: SQLite's clock in Unix seconds (``unixepoch('subsec')`` needs 3.42).
_SQL_NOW = "((julianday('now') - 2440587.5) * 86400.0)"

#: ``auto_vacuum`` must be set before the first table exists; it lets prune
#: hand freed pages back to the filesystem.
_SCHEMA = f"""
PRAGMA auto_vacuum = INCREMENTAL;
PRAGMA journal_mode = WAL;
CREATE TABLE IF NOT EXISTS cells (
    key TEXT PRIMARY KEY,
    record BLOB NOT NULL,
    sha256 TEXT NOT NULL,
    stored_at REAL NOT NULL DEFAULT {_SQL_NOW}
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS quarantine (
    key TEXT PRIMARY KEY,
    record BLOB NOT NULL,
    sha256 TEXT NOT NULL,
    stored_at REAL NOT NULL
) WITHOUT ROWID;
"""

_PUT = "INSERT OR REPLACE INTO cells (key, record, sha256) VALUES (?, ?, ?)"

#: Chaos ``corrupt-cache``: rot the tail of a freshly written record.
_GARBLE = (
    "UPDATE cells SET record = "
    "CAST(substr(record, 1, length(record) - 16) || '#garbled#' AS BLOB) "
    "WHERE key = ?"
)

#: Live and quarantined rows as one eviction pool (``q`` marks quarantine).
_POOL = (
    "SELECT 0 AS q, key, stored_at, length(record) AS size FROM cells "
    "UNION ALL SELECT 1, key, stored_at, length(record) FROM quarantine"
)

_METRIC_FIELDS = (
    "n_vertices",
    "n_edges",
    "height",
    "width_including_dummies",
    "width_excluding_dummies",
    "dummy_vertex_count",
    "edge_density",
    "objective",
    "nd_width",
)

_T = TypeVar("_T")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace) used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_digest(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def cache_key(graph_digest: str, method_token: Any, nd_width: float) -> str:
    """The content-addressed key of one experiment cell."""
    return content_digest(
        {
            "version": CACHE_VERSION,
            "package": repro.__version__,
            "graph": graph_digest,
            "method": method_token,
            "nd_width": nd_width,
        }
    )


@dataclass(frozen=True)
class CachedCell:
    """A cache hit: the stored metrics plus the originally measured running time."""

    metrics: LayeringMetrics
    running_time: float


@dataclass(frozen=True)
class CacheStats:
    """Aggregate shape of a cache directory (``repro-dag cache stats``)."""

    entries: int
    #: Summed bytes of the stored records (the file adds SQLite's overhead).
    total_bytes: int
    oldest_stored_at: float | None
    newest_stored_at: float | None
    #: Rows in the quarantine table (failed checksum reads).
    quarantined: int = 0


@dataclass(frozen=True)
class CacheHitStats:
    """Per-process hit/miss counters: ``memory_*`` for the in-process LRU,
    ``disk_*`` for the lookups that fell through to the database."""

    memory_hits: int
    memory_misses: int
    disk_hits: int
    disk_misses: int


@dataclass(frozen=True)
class PruneResult:
    """Outcome of one :meth:`ResultCache.prune` pass."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int
    #: Quarantined rows evicted by this pass.
    quarantine_removed: int = 0


@contextmanager
def _transaction(conn: sqlite3.Connection) -> Iterator[None]:
    """One write transaction on an autocommit connection."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
    except BaseException:
        conn.rollback()
        raise
    conn.commit()


def _verified(record: Any, sha256: Any) -> dict[str, Any] | None:
    """The decoded cell record when it matches its checksum, else ``None``."""
    if not isinstance(record, bytes) or hashlib.sha256(record).hexdigest() != sha256:
        return None
    try:
        decoded = json.loads(record)
    except ValueError:
        return None
    if not isinstance(decoded, dict) or decoded.get("format") != CACHE_FORMAT:
        return None
    return decoded


class ResultCache:
    """SQLite-backed content-addressed store of :class:`CachedCell` entries.

    Lookups go through an in-process LRU first (*memory_entries* records,
    ``0`` disables it): keys are content-addressed, so a remembered entry can
    never go stale, and a warm full-corpus run stops re-reading the
    database.  :meth:`hit_stats` reports the per-layer hit/miss counters
    (``repro-dag cache stats`` prints them).

    The database opens on the first disk access.  Threads may share an
    instance: one lock guards the LRU and the counters and another the
    connection, so ``repro-dag serve`` answers memory hits on its loop
    thread (:meth:`lookup_memory`) without waiting on disk.  A forked child
    opens its own connection and never touches the inherited one.
    """

    def __init__(
        self, directory: str | Path, *, memory_entries: int = DEFAULT_MEMORY_ENTRIES
    ) -> None:
        if memory_entries < 0:
            raise ValidationError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.directory = Path(directory)
        self.path = self.directory / DATABASE_NAME
        self.memory_entries = memory_entries
        self._memory: OrderedDict[str, CachedCell] = OrderedDict()
        self._memory_hits = 0
        self._memory_misses = 0
        self._disk_hits = 0
        self._disk_misses = 0
        self._lock = threading.Lock()
        self._db_lock = threading.Lock()
        #: One connection per process; an inherited one stays here, unused.
        self._connections: dict[int, sqlite3.Connection] = {}

    def _connection(self) -> sqlite3.Connection:
        """This process's connection, opened on first use (hold ``_db_lock``)."""
        conn = self._connections.get(os.getpid())
        if conn is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_S,
                isolation_level=None,
                check_same_thread=False,
            )
            try:
                conn.execute(f"PRAGMA cache_size = -{PAGE_CACHE_KIB}")
                conn.execute("PRAGMA synchronous = NORMAL")
                conn.executescript(_SCHEMA)
            except BaseException:
                conn.close()
                raise
            self._connections[os.getpid()] = conn
        return conn

    def _disk(
        self, operation: Callable[[sqlite3.Connection], _T], *, write: bool = False
    ) -> _T | None:
        """*operation*'s result under the ``cache-disk`` breaker; ``None``
        when the disk is fenced off or the operation fails.  Only a *write*
        probes an open breaker: a read says nothing about a full disk."""
        governor = resources.governor()
        if write:
            if not governor.allow("cache-disk"):
                return None
        elif governor.breaker("cache-disk").state != "closed":
            return None
        try:
            with self._db_lock:
                result = operation(self._connection())
        except (sqlite3.Error, OSError) as exc:
            governor.record_failure("cache-disk", str(exc))
            return None
        if write:
            governor.record_success("cache-disk")
        return result

    def _maintain(self, operation: Callable[[sqlite3.Connection], _T], empty: _T) -> _T:
        """A maintenance *operation*'s result, *empty* without a database.
        It bypasses the breaker; errors surface as :class:`ReproError`."""
        if not self.path.exists():
            return empty
        try:
            with self._db_lock:
                return operation(self._connection())
        except (sqlite3.Error, OSError) as exc:
            raise ReproError(f"result cache {self.path}: {exc}") from exc

    def _remember(self, key: str, cell: CachedCell) -> None:
        if self.memory_entries == 0:
            return
        with self._lock:
            self._memory[key] = cell
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    def hit_stats(self) -> CacheHitStats:
        """This process's hit/miss counters for the memory and disk layers."""
        with self._lock:
            return CacheHitStats(
                memory_hits=self._memory_hits,
                memory_misses=self._memory_misses,
                disk_hits=self._disk_hits,
                disk_misses=self._disk_misses,
            )

    def _recall(self, key: str, *, count_miss: bool) -> CachedCell | None:
        with self._lock:
            cell = self._memory.get(key)
            if cell is not None:
                self._memory_hits += 1
                self._memory.move_to_end(key)
            elif count_miss:
                self._memory_misses += 1
            return cell

    def lookup_memory(self, key: str) -> CachedCell | None:
        """Look *key* up in the memory layer only; never reads disk.

        A hit counts as a memory hit.  A miss counts nothing, because the
        caller is expected to fall back to :meth:`get`, which counts it: so
        one logical lookup still adds exactly one memory hit or miss.
        """
        return self._recall(key, count_miss=False)

    def get(self, key: str) -> CachedCell | None:
        """Look up a cell result, verifying the row's checksum.

        A missing row is an ordinary miss.  A row whose record fails its
        checksum or is not a cell record is *corrupt*: it is quarantined and
        reported as a miss, so the cell is recomputed rather than trusted.
        """
        cell = self._recall(key, count_miss=True)
        if cell is not None:
            return cell
        cell = self._disk(lambda conn: self._read(conn, key))
        with self._lock:
            if cell is None:
                self._disk_misses += 1
                return None
            self._disk_hits += 1
        self._remember(key, cell)
        return cell

    @staticmethod
    def _read(conn: sqlite3.Connection, key: str) -> CachedCell | None:
        row = conn.execute(
            "SELECT record, sha256 FROM cells WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        record = _verified(*row)
        if record is None:
            # Only the row as read moves: a healthy record a concurrent put
            # wrote since stays, and a row another reader moved first
            # moves nothing.
            with _transaction(conn):
                conn.execute(
                    "INSERT OR REPLACE INTO quarantine "
                    "SELECT * FROM cells WHERE key = ? AND record IS ?",
                    (key, row[0]),
                )
                conn.execute(
                    "DELETE FROM cells WHERE key = ? AND record IS ?", (key, row[0])
                )
            return None
        try:
            metrics = LayeringMetrics(**{f: record["metrics"][f] for f in _METRIC_FIELDS})
            running_time = float(record["running_time"])
        except (KeyError, TypeError, ValueError):
            # Checksum-valid but unparsable: schema skew, not bit rot.  A
            # version bump should have orphaned it; treat as a plain miss.
            return None
        return CachedCell(metrics=metrics, running_time=running_time)

    def put(
        self,
        key: str,
        metrics: LayeringMetrics,
        running_time: float,
        *,
        chaos_id: str | None = None,
        attempt: int = 1,
    ) -> None:
        """Store one cell result with its checksum: one committed statement.

        *chaos_id* opts the write into the ``corrupt-cache`` and ``enospc``
        chaos rules (matched against that cell id): the first garbles the
        stored record after the write, the second fails the write as a full
        disk would.  A failed write leaves the entry served from the LRU.
        """
        corrupting = chaos_id is not None and chaos.should_corrupt(chaos_id, attempt)
        if not corrupting:
            # A deliberately-corrupted entry must not linger in the memory
            # layer, or the very lookup the chaos rule wants to poison would
            # be served the healthy value.
            self._remember(key, CachedCell(metrics=metrics, running_time=running_time))
        record = canonical_json(
            {
                "format": CACHE_FORMAT,
                "version": CACHE_VERSION,
                "metrics": metrics.as_dict(),
                "running_time": running_time,
            }
        ).encode("utf-8")
        row = (key, record, hashlib.sha256(record).hexdigest())

        def store(conn: sqlite3.Connection) -> None:
            if chaos_id is not None and chaos.should_enospc(chaos_id, attempt):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self.path))
            conn.execute(_PUT, row)
            if corrupting:
                conn.execute(_GARBLE, (key,))

        self._disk(store, write=True)

    def __len__(self) -> int:
        """Number of entries currently stored."""
        return self._maintain(
            lambda conn: conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0], 0
        )

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def stats(self) -> CacheStats:
        """Entry count, record bytes, age range and quarantine count."""

        def read(conn: sqlite3.Connection) -> CacheStats:
            entries, total, oldest, newest = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(length(record)), 0), "
                "MIN(stored_at), MAX(stored_at) FROM cells"
            ).fetchone()
            (quarantined,) = conn.execute("SELECT COUNT(*) FROM quarantine").fetchone()
            return CacheStats(entries, total, oldest, newest, quarantined)

        return self._maintain(read, CacheStats(0, 0, None, None))

    def prune(
        self,
        *,
        max_size_bytes: int | None = None,
        older_than_seconds: float | None = None,
        free_below_bytes: int | None = None,
        now: float | None = None,
    ) -> PruneResult:
        """Evict entries: everything stored before ``now - older_than``
        first, then oldest-first until the records fit ``max_size_bytes``,
        then oldest-first until the filesystem has ``free_below_bytes`` free
        (CLI: ``--free-below``).  *now* defaults to SQLite's clock.

        Quarantined rows count toward the budgets and are evicted in the
        same oldest-first order — rotted records kept for post-mortems must
        not hold a size-capped cache hostage.  The eviction is one
        transaction; the freed pages then go back to the filesystem.  At
        least one criterion is required: a bare prune deleting everything
        would be a foot-gun.
        """
        if max_size_bytes is None and older_than_seconds is None and free_below_bytes is None:
            raise ValidationError(
                "prune needs --max-size, --older-than and/or --free-below"
            )
        for name, value in (
            ("max_size_bytes", max_size_bytes),
            ("older_than_seconds", older_than_seconds),
            ("free_below_bytes", free_below_bytes),
        ):
            if value is not None and value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        # The memory layer mirrors the disk store; dropping it keeps pruned
        # entries misses (and a cold LRU after rare maintenance costs nothing).
        with self._lock:
            self._memory.clear()

        def evict(conn: sqlite3.Connection) -> PruneResult:
            with _transaction(conn):
                cutoff = -math.inf
                if older_than_seconds is not None:
                    (cutoff,) = conn.execute(
                        f"SELECT COALESCE(?, {_SQL_NOW}) - ?", (now, older_than_seconds)
                    ).fetchone()
                conn.execute(
                    f"CREATE TEMP TABLE doomed AS SELECT q, key, size FROM ({_POOL}) "
                    "WHERE stored_at < ?",
                    (cutoff,),
                )
                (aged,) = conn.execute("SELECT COALESCE(SUM(size), 0) FROM doomed").fetchone()
                (total,) = conn.execute(
                    f"SELECT COALESCE(SUM(size), 0) FROM ({_POOL}) WHERE stored_at >= ?",
                    (cutoff,),
                ).fetchone()
                # Both budgets evict a prefix of the oldest-first order: the
                # rows whose older rows weigh less than *squeeze* bytes.
                squeeze = total - max_size_bytes if max_size_bytes is not None else 0
                if free_below_bytes is not None:
                    free = shutil.disk_usage(self.directory).free
                    if free < free_below_bytes:
                        squeeze = max(squeeze, free_below_bytes - free - aged)
                if squeeze > 0:
                    conn.execute(
                        "INSERT INTO doomed SELECT q, key, size FROM (SELECT q, key, size, "
                        "SUM(size) OVER (ORDER BY stored_at, q, key ROWS UNBOUNDED "
                        f"PRECEDING) - size AS older FROM ({_POOL}) WHERE stored_at >= ?) "
                        "WHERE older < ?",
                        (cutoff, squeeze),
                    )
                conn.execute("DELETE FROM cells WHERE key IN (SELECT key FROM doomed WHERE q = 0)")
                conn.execute(
                    "DELETE FROM quarantine WHERE key IN (SELECT key FROM doomed WHERE q = 1)"
                )
                removed = {
                    q: (count, size)
                    for q, count, size in conn.execute(
                        "SELECT q, COUNT(*), SUM(size) FROM doomed GROUP BY q"
                    )
                }
                kept, kept_bytes = conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(length(record)), 0) FROM cells"
                ).fetchone()
                conn.execute("DROP TABLE doomed")
            # Hand the freed pages back: the file and its WAL really shrink.
            conn.executescript("PRAGMA incremental_vacuum;")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            removed_count, freed = removed.get(0, (0, 0))
            return PruneResult(
                removed=removed_count,
                freed_bytes=freed,
                kept=kept,
                kept_bytes=kept_bytes,
                quarantine_removed=removed.get(1, (0, 0))[0],
            )

        return self._maintain(evict, PruneResult(0, 0, 0, 0))
