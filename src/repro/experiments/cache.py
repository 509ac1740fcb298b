"""Content-addressed on-disk cache for experiment cell results.

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

Layout on disk: ``<cache-dir>/<first two hex chars>/<full key>.json``, one
small JSON document per cell holding the :class:`~repro.layering.metrics.
LayeringMetrics` fields plus the originally measured running time.  Files
are written atomically (temp file + rename) so concurrent runs sharing a
cache directory never observe torn entries; unreadable or foreign files are
treated as misses.

Integrity: every entry embeds a SHA-256 checksum of its own payload,
verified on read.  An entry whose bytes rot on disk (bit flips, truncated
writes on a dying filesystem, a torn copy of a cache directory between
machines) is *quarantined* — moved into ``<cache-dir>/corrupt/`` — and the
lookup reports a miss, so the cell is recomputed instead of poisoning the
aggregate tables with garbled metrics.  ``repro-dag cache stats`` reports
the quarantine count and ``repro-dag cache prune --older-than`` sweeps aged
quarantine files along with ordinary entries.

Because keys are never invalidated, a long-lived ``--cache-dir`` grows
without bound (version bumps orphan old entries on disk).
:meth:`ResultCache.stats` and :meth:`ResultCache.prune` (CLI: ``repro-dag
cache {stats,prune}``) keep it in check: prune drops entries older than a
cutoff and/or evicts oldest-first down to a size budget.  Both are safe
under concurrent readers — eviction is a plain ``unlink`` and every reader
already treats a missing file as a miss.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
from repro.layering.metrics import LayeringMetrics
from repro.utils import chaos, resources
from repro.utils.exceptions import ValidationError

__all__ = [
    "CachedCell",
    "CacheHitStats",
    "CacheStats",
    "DEFAULT_MEMORY_ENTRIES",
    "PruneResult",
    "QUARANTINE_DIR",
    "ResultCache",
    "canonical_json",
    "content_digest",
    "cache_key",
]

#: Default capacity of the in-process LRU layer in front of the disk store —
#: comfortably above the full 1277-graph × 5-algorithm corpus, a few MiB of
#: small metric records at most.
DEFAULT_MEMORY_ENTRIES = 16384

#: Format marker stored in every cache entry.
CACHE_FORMAT = "repro-cell-result"

#: Bump to invalidate every existing entry when the result schema changes.
#: Version 2 added the embedded SHA-256 payload checksum, so every entry
#: reachable from a current key carries one — a checksum-less entry at a
#: current key can only be corruption.
CACHE_VERSION = 2

#: Quarantine subdirectory for entries that failed integrity verification.
QUARANTINE_DIR = "corrupt"

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
    total_bytes: int
    oldest_mtime: float | None
    newest_mtime: float | None
    #: Files sitting in the ``corrupt/`` quarantine (failed checksum reads).
    quarantined: int = 0


@dataclass(frozen=True)
class CacheHitStats:
    """Per-process hit/miss counters for both cache layers.

    ``memory_*`` counts lookups against the in-process LRU; ``disk_*``
    counts the lookups that fell through to the JSON files.  A warm
    full-corpus re-run should be (almost) all memory hits — re-reading and
    re-parsing one file per cell was pure overhead.
    """

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
    #: Quarantined files swept by this pass (``--older-than`` only).
    quarantine_removed: int = 0


class ResultCache:
    """Directory-backed content-addressed store of :class:`CachedCell` entries.

    Lookups go through an in-process LRU first (*memory_entries* records,
    ``0`` disables it): keys are content-addressed, so a remembered entry can
    never go stale, and a warm full-corpus run stops re-reading and
    re-parsing one JSON file per cell.  :meth:`hit_stats` reports the
    per-layer hit/miss counters (``repro-dag cache stats`` prints them).

    One lock guards the LRU and the counters, so threads may share an
    instance: ``repro-dag serve`` answers memory hits on its loop thread
    (:meth:`lookup_memory`) while its batch worker reads and writes.
    """

    def __init__(
        self, directory: str | Path, *, memory_entries: int = DEFAULT_MEMORY_ENTRIES
    ) -> None:
        if memory_entries < 0:
            raise ValidationError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.directory = Path(directory)
        self.memory_entries = memory_entries
        self._memory: OrderedDict[str, CachedCell] = OrderedDict()
        self._memory_hits = 0
        self._memory_misses = 0
        self._disk_hits = 0
        self._disk_misses = 0
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        """Where the entry for *key* lives (two-character shard directories)."""
        return self.directory / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where entries that failed integrity verification are moved."""
        return self.directory / QUARANTINE_DIR

    def _quarantine(self, path: Path) -> None:
        """Move a failed entry into ``corrupt/`` instead of re-reading it forever.

        Non-destructive on purpose: the bytes stay available for post-mortem
        inspection, but they are out of the lookup path so every future read
        of the key is an honest miss.  Concurrency-safe: the move is one
        atomic ``os.replace``; a source that vanished means a concurrent
        reader quarantined (or a prune evicted) the same file first, and a
        ``corrupt/`` directory swept from under us by a concurrent
        ``prune --older-than`` is recreated and the move retried.
        """
        target = self.quarantine_dir / path.name
        for _ in range(3):
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, target)
            except FileNotFoundError:
                if not path.exists():
                    return  # another process moved/removed it first
                continue  # quarantine dir pruned from under us: re-create it
            except OSError:
                pass
            return

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
        """Look up a cell result, verifying the entry's embedded checksum.

        A missing file is an ordinary miss.  A file that is present but
        unparsable, foreign, checksum-less or checksum-mismatched is
        *corrupt*: it is quarantined to ``corrupt/`` and reported as a miss,
        so the cell is recomputed rather than trusted.
        """
        cell = self._recall(key, count_miss=True)
        if cell is not None:
            return cell
        cell = self._read_disk(key)
        with self._lock:
            if cell is None:
                self._disk_misses += 1
                return None
            self._disk_hits += 1
        self._remember(key, cell)
        return cell

    def _read_disk(self, key: str) -> CachedCell | None:
        """The verified entry file of *key*, or ``None`` on any kind of miss."""
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            record = None  # torn or garbled JSON
        stored_sha = record.pop("sha256", None) if isinstance(record, dict) else None
        if (
            not isinstance(record, dict)
            or record.get("format") != CACHE_FORMAT
            or not isinstance(stored_sha, str)
            or content_digest(record) != stored_sha
        ):
            self._quarantine(path)
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
        """Store one cell result atomically, with an embedded checksum.

        A concurrent ``prune`` may rmdir the shard directory between our
        ``mkdir`` and ``mkstemp`` (it only removes shards that are empty at
        that instant); recreate and retry instead of letting the race abort
        a running experiment.

        *chaos_id* opts the write into ``corrupt-cache`` and ``enospc``
        chaos rules (the cell id the rules are matched against): a firing
        ``corrupt-cache`` rule garbles the entry's bytes on disk after the
        atomic write, rehearsing exactly the corruption the checksum
        verification exists to catch; a firing ``enospc`` rule makes the
        write fail as a full disk would.

        Disk-full safety: the disk layer is guarded by the resource
        governor's ``cache-disk`` breaker.  A write that fails with
        :class:`OSError` (``ENOSPC`` prominently) degrades the cache to
        memory-only — the entry stays served from the LRU, the failure is
        logged once, and the disk layer is re-probed after a cooldown —
        instead of crashing the run over an optimisation.
        """
        corrupting = chaos_id is not None and chaos.should_corrupt(chaos_id, attempt)
        if not corrupting:
            # A deliberately-corrupted entry must not linger in the memory
            # layer, or the very lookup the chaos rule wants to poison would
            # be served the healthy value.
            self._remember(key, CachedCell(metrics=metrics, running_time=running_time))
        governor = resources.governor()
        if not governor.allow("cache-disk"):
            return  # memory-only: the disk layer is fenced off
        path = self.path_for(key)
        record = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "metrics": metrics.as_dict(),
            "running_time": running_time,
        }
        record["sha256"] = content_digest(record)
        try:
            if chaos_id is not None and chaos.should_enospc(chaos_id, attempt):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            for retry in range(3):
                path.parent.mkdir(parents=True, exist_ok=True)
                try:
                    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                except FileNotFoundError:
                    if retry == 2:
                        raise
                    continue  # shard pruned from under us: re-create it
                break
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(record, handle)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            governor.record_failure("cache-disk", str(exc))
            return
        governor.record_success("cache-disk")
        if corrupting:
            self._garble(path)

    @staticmethod
    def _garble(path: Path) -> None:
        """Flip the tail of an entry's bytes in place (chaos ``corrupt-cache``)."""
        try:
            data = path.read_bytes()
            path.write_bytes(data[: max(0, len(data) - 16)] + b"\x00garbled\x00")
        except OSError:
            pass

    def __len__(self) -> int:
        """Number of entries currently stored (walks the shard directories)."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("??/*.json"))

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def _scan(self) -> list[tuple[Path, int, float]]:
        """``(path, size, mtime)`` for every entry file; vanished files skipped."""
        entries: list[tuple[Path, int, float]] = []
        try:
            for path in self.directory.glob("??/*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # concurrently pruned by another process
                entries.append((path, stat.st_size, stat.st_mtime))
        except OSError:
            pass  # a shard swept mid-walk: report what was seen
        return entries

    def _scan_quarantine(self) -> list[tuple[Path, int, float]]:
        """``(path, size, mtime)`` for every quarantined file.

        Tolerates the directory being swept by a concurrent prune while we
        iterate it (``iterdir`` lists lazily, so the deletion can land
        mid-iteration, not just before the ``is_dir`` check).
        """
        entries: list[tuple[Path, int, float]] = []
        if not self.quarantine_dir.is_dir():
            return entries
        try:
            for path in self.quarantine_dir.iterdir():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if path.is_file():
                    entries.append((path, stat.st_size, stat.st_mtime))
        except OSError:
            pass  # quarantine dir removed from under the iteration
        return entries

    def stats(self) -> CacheStats:
        """Entry count, total size, age range and quarantine count of the cache."""
        entries = self._scan()
        mtimes = [m for _, _, m in entries]
        return CacheStats(
            entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
            oldest_mtime=min(mtimes) if mtimes else None,
            newest_mtime=max(mtimes) if mtimes else None,
            quarantined=len(self._scan_quarantine()),
        )

    def prune(
        self,
        *,
        max_size_bytes: int | None = None,
        older_than_seconds: float | None = None,
        free_below_bytes: int | None = None,
        now: float | None = None,
    ) -> PruneResult:
        """Evict entries: everything older than the cutoff first, then
        oldest-first until the directory fits the size budget, then
        oldest-first until the filesystem has the requested free space.

        Quarantined files (``corrupt/``) count toward ``max_size_bytes``
        and are evicted in the same oldest-first order as ordinary entries
        — bit-rotted bytes kept for post-mortems must not be able to hold a
        size-capped cache hostage.  ``free_below_bytes`` is the disk-full
        watermark (CLI: ``--free-below``): when the cache directory's
        filesystem has less free space than it, entries are evicted
        oldest-first until the eviction plan covers the deficit.

        Safe under concurrent readers and writers: eviction is a plain
        atomic ``unlink`` (readers already treat a missing file as a miss),
        files that vanish mid-prune are ignored, and empty shard directories
        are removed only when they stay empty.  At least one criterion is
        required — a bare prune deleting everything would be a foot-gun.
        """
        if max_size_bytes is None and older_than_seconds is None and free_below_bytes is None:
            raise ValidationError(
                "prune needs --max-size, --older-than and/or --free-below"
            )
        # The memory layer mirrors the disk store; dropping it wholesale
        # keeps the contract that pruned entries are misses (and pruning is
        # rare maintenance, so a cold LRU afterwards costs nothing).
        with self._lock:
            self._memory.clear()
        if max_size_bytes is not None and max_size_bytes < 0:
            raise ValidationError(f"max_size_bytes must be >= 0, got {max_size_bytes}")
        if older_than_seconds is not None and older_than_seconds < 0:
            raise ValidationError(
                f"older_than_seconds must be >= 0, got {older_than_seconds}"
            )
        if free_below_bytes is not None and free_below_bytes < 0:
            raise ValidationError(
                f"free_below_bytes must be >= 0, got {free_below_bytes}"
            )
        now = now if now is not None else time.time()
        # One oldest-first pool mixing ordinary entries and quarantined
        # files (tagged), so size/free-space budgets account for both.
        pool: list[tuple[Path, int, float, bool]] = sorted(
            [(p, s, m, False) for p, s, m in self._scan()]
            + [(p, s, m, True) for p, s, m in self._scan_quarantine()],
            key=lambda e: (e[2], e[0].name),
        )
        doomed: list[tuple[Path, int, float, bool]] = []
        if older_than_seconds is not None:
            cutoff = now - older_than_seconds
            pool_kept = [e for e in pool if e[2] >= cutoff]
            doomed.extend(e for e in pool if e[2] < cutoff)
            pool = pool_kept
        if max_size_bytes is not None:
            kept_bytes = sum(size for _, size, _, _ in pool)
            while pool and kept_bytes > max_size_bytes:
                entry = pool.pop(0)
                doomed.append(entry)
                kept_bytes -= entry[1]
        if free_below_bytes is not None:
            try:
                disk_free = shutil.disk_usage(self.directory).free
            except OSError:
                disk_free = None  # directory gone: nothing to evict anyway
            if disk_free is not None and disk_free < free_below_bytes:
                planned = sum(size for _, size, _, _ in doomed)
                deficit = free_below_bytes - disk_free
                while pool and planned < deficit:
                    entry = pool.pop(0)
                    doomed.append(entry)
                    planned += entry[1]
        removed = 0
        freed = 0
        quarantine_removed = 0
        touched_shards: set[Path] = set()
        for path, size, _, quarantined in doomed:
            try:
                path.unlink()
            except OSError:
                continue  # already gone: someone else pruned it
            if quarantined:
                quarantine_removed += 1
            else:
                removed += 1
                freed += size
                touched_shards.add(path.parent)
        for shard in touched_shards:
            try:
                shard.rmdir()  # only succeeds if the shard is now empty
            except OSError:
                pass
        if quarantine_removed:
            try:
                self.quarantine_dir.rmdir()
            except OSError:
                pass
        kept_entries = [e for e in pool if not e[3]]
        return PruneResult(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept_entries),
            kept_bytes=sum(size for _, size, _, _ in kept_entries),
            quarantine_removed=quarantine_removed,
        )
