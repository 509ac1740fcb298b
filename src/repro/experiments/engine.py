"""Shared parallel experiment engine: streaming, fault-isolated, resumable.

Every experiment in the repo — the five-algorithm comparison
(:func:`repro.experiments.runner.run_comparison`), the six figure builders
(:mod:`repro.experiments.figures`) and the parameter sweeps
(:mod:`repro.experiments.tuning`) — reduces to the same workload: a list of
independent *cells* ``(graph, layering method, nd_width) -> LayeringMetrics``.
This module provides the one dispatcher they all share:

* :class:`MethodSpec` — a layering method in a declarative form that can
  cross a process boundary (builtin registry name, Ant Colony parameters) or
  wrap an arbitrary in-process callable;
* :class:`WorkUnit` / :class:`CellResult` — one cell of work and its outcome;
* :class:`ExperimentEngine` — runs cells over the ``"process"``, ``"thread"``
  or ``"serial"`` back ends of :mod:`repro.utils.pool` (the graph table is
  shipped to each process-pool worker exactly once via the pool initializer,
  the per-cell submissions carry only a graph reference and a method spec)
  with an optional content-addressed on-disk cache
  (:mod:`repro.experiments.cache`) making repeated runs incremental.  The
  fourth executor name, ``"colonies"``, dispatches cells like ``"process"``
  and exists so experiment commands advertise the multi-colony runtime:
  Ant Colony specs carrying ``n_colonies > 1`` run each cell as a
  lockstep colony portfolio (:mod:`repro.aco.runtime`), batching all
  colonies' ants into lockstep kernel calls inside the worker.  The
  ``"batched"`` executor packs Ant Colony cells across graphs and runs each
  pack in-process; its only parallelism is the walk kernel's
  ``REPRO_ACO_THREADS`` threads, so ``jobs`` caps the process/thread
  executors alone.

Full-corpus-scale lifecycle (the paper's evaluation is 1277 graphs × 5
algorithms ≈ 6400 cells, minutes of wall-clock):

* **Fault isolation** — a raising cell no longer aborts the run.  The
  exception is captured *inside* the executor (worker-side for process
  pools, so the traceback text is the worker's), recorded as
  :class:`CellError` on the cell's :class:`CellResult`, and the run
  continues.  ``ExperimentEngine(strict=True)`` restores fail-fast: the
  first failed cell raises :class:`CellFailure`.
* **Streaming** — :meth:`ExperimentEngine.run_iter` yields completed
  :class:`CellResult` values one at a time in deterministic submission
  order, so aggregators keep O(groups) state instead of materialising every
  cell; :meth:`ExperimentEngine.run` is a thin ``list()`` wrapper.  A
  ``progress`` callback receives a :class:`RunProgress` snapshot after
  every cell (the CLI's live stderr progress line).
* **Resume** — with a :class:`~repro.experiments.journal.RunJournal`
  attached (CLI: ``--run-dir``), every completed cell is journaled the
  moment it finishes; ``resume=True`` (CLI: ``--resume``) replays the
  journaled successful cells instantly and executes only the remainder,
  which makes an interrupted full-corpus run completable across any number
  of kills.

Determinism: cells are submitted in order and results are yielded in
submission order, and every layering algorithm in the repo is deterministic
for a fixed seed, so the engine returns identical metrics for every executor
and worker count.  Only the measured ``running_time`` of a cell varies
between runs (a cache hit or journal replay reports the originally measured
time).

Callable-backed method specs cannot be pickled; the engine runs them in the
parent process (under ``executor="thread"`` they still use the pool), so
custom algorithms keep working with any executor — they just do not gain
multi-core speed-up unless registered in :data:`BUILTIN_METHODS`, and they
are neither cached nor journaled (their behaviour has no content identity).

Hardening (this is the substrate a long-lived ``repro-dag serve`` will sit
on, so the impolite failure modes are first-class):

* **Deadlines** — ``cell_timeout=`` (CLI: ``--timeout``) bounds every
  cell's execution: serial/thread cells through watchdog-bounded waits,
  process/colonies cells through pool-side supervision (the overdue worker
  is killed and replaced), batched packs through a pack-level budget of
  ``cell_timeout × pack size`` with a per-cell serial fallback.  A timed
  out cell is recorded as ``CellError(kind="timeout")`` and never cached.
* **Crash isolation** — a process-pool worker that dies (OOM kill,
  segfault) costs exactly its in-flight cell, recorded as
  ``CellError(kind="crash")``; the pool respawns the worker and the run
  continues.
* **Retries** — ``retries=N`` re-executes failed/timed-out/crashed cells
  up to N more times (in-parent, deadline-bounded), with deterministic
  jittered backoff seeded from the cell's content digest so a retried run
  remains reproducible.  ``CellResult.attempts`` records the count.

Fault injection goes through the shared chaos plane
(:mod:`repro.utils.chaos`): ``REPRO_CHAOS`` rules can make matching cells
raise, hang, ``kill -9`` their worker, run slow, or corrupt their freshly
written cache entry — and the legacy ``REPRO_ENGINE_FAIL`` raise-only hook
keeps working unchanged.  ``REPRO_ENGINE_MAX_CELLS=N`` interrupts the run
(raising :class:`RunInterrupted`) after N freshly executed cells,
simulating a kill mid-run without racing an actual signal.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.aco.layering_aco import aco_layering
from repro.aco.params import ACOParams
from repro.aco.parallel import _derive_colony_seeds, parallel_aco_layering, portfolio_result
from repro.experiments.cache import ResultCache, cache_key, canonical_json, content_digest
from repro.experiments.journal import RunJournal
from repro.graph.digraph import DiGraph
from repro.graph.io import from_json_dict, to_json_dict
from repro.layering.base import Layering
from repro.layering.longest_path import longest_path_layering
from repro.layering.metrics import LayeringMetrics, evaluate_layering
from repro.layering.minwidth import minwidth_layering_sweep
from repro.layering.promote import promote_layering
from repro.utils import chaos, resources
from repro.utils.chaos import FAIL_CELLS_ENV
from repro.utils.exceptions import ReproError, ValidationError
from repro.utils.pool import (
    EXECUTORS,
    TaskFailure,
    effective_workers,
    imap_with_state,
    run_with_deadline,
)

__all__ = [
    "BUILTIN_METHODS",
    "DEFAULT_BATCH_SIZE",
    "ENGINE_EXECUTORS",
    "FAIL_CELLS_ENV",
    "MAX_CELLS_ENV",
    "MethodSpec",
    "WorkUnit",
    "CellError",
    "CellResult",
    "CellFailure",
    "RunInterrupted",
    "RunProgress",
    "ExperimentEngine",
    "default_method_specs",
    "unit_cache_key",
]

#: Executor names accepted by the engine: the generic pool back ends,
#: ``"colonies"`` (dispatches cells like ``"process"`` and signals that
#: multi-colony Ant Colony specs should use the lockstep colony runtime) and
#: ``"batched"`` (cross-graph megabatching: pending Ant Colony cells with
#: identical specs are packed and advanced through shared lockstep kernel
#: sweeps, see :mod:`repro.aco.runtime`).
ENGINE_EXECUTORS = EXECUTORS + ("colonies", "batched")

#: How many graphs one cross-graph pack holds by default.  Bounds the padded
#: per-pack arrays (pheromone stack, walk state) to tens of megabytes at
#: corpus sizes while leaving only a handful of kernel sweeps per corpus.
DEFAULT_BATCH_SIZE = 128

#: Interruption hook: abort the run (``RunInterrupted``) after this many
#: freshly executed cells — a deterministic stand-in for kill -9 mid-run.
MAX_CELLS_ENV = "REPRO_ENGINE_MAX_CELLS"

LayeringAlgorithm = Callable[[DiGraph], Layering]


def _lpl_with_promotion(graph: DiGraph) -> Layering:
    return promote_layering(graph, longest_path_layering(graph))


def _minwidth_with_promotion(graph: DiGraph) -> Layering:
    return promote_layering(graph, minwidth_layering_sweep(graph))


#: Worker-resolvable registry of the paper's deterministic baseline methods.
#: Entries are module-level functions, so a bare name is enough to rebuild
#: the algorithm inside a process-pool worker.
BUILTIN_METHODS: dict[str, LayeringAlgorithm] = {
    "LPL": longest_path_layering,
    "LPL+PL": _lpl_with_promotion,
    "MinWidth": minwidth_layering_sweep,
    "MinWidth+PL": _minwidth_with_promotion,
}

#: Display name of the paper's Ant Colony entry.
ANT_COLONY = "AntColony"


@dataclass(frozen=True)
class MethodSpec:
    """A layering method in a declarative, executor-portable form.

    Exactly one of three shapes:

    * a **builtin** — ``name`` keys :data:`BUILTIN_METHODS`;
    * an **Ant Colony** — ``aco_params`` holds the full ``ACOParams`` field
      dictionary (seed included, so the spec is deterministic);
      ``n_colonies > 1`` turns the cell into a multi-colony portfolio run
      through the lockstep colony runtime (:mod:`repro.aco.runtime`), keeping
      the best colony's layering;
    * a **callable** — ``func`` wraps an arbitrary in-process algorithm.
      Not shippable to process-pool workers and never cached (its behaviour
      cannot be identified by content).
    """

    name: str
    aco_params: Mapping[str, Any] | None = None
    func: LayeringAlgorithm | None = None
    n_colonies: int = 1

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def builtin(cls, name: str) -> "MethodSpec":
        """Spec for one of the registered baseline methods."""
        if name not in BUILTIN_METHODS:
            raise ValidationError(
                f"unknown builtin method {name!r}; choose from {sorted(BUILTIN_METHODS)}"
            )
        return cls(name=name)

    @classmethod
    def ant_colony(
        cls,
        params: ACOParams | None = None,
        *,
        name: str = ANT_COLONY,
        n_colonies: int = 1,
    ) -> "MethodSpec":
        """Spec for the Ant Colony with explicit parameters (default: paper config, seed 0).

        ``n_colonies > 1`` runs every cell as an independent-colony portfolio
        through the lockstep colony runtime and keeps the best layering.
        """
        if n_colonies < 1:
            raise ValidationError(f"n_colonies must be >= 1, got {n_colonies}")
        params = params if params is not None else ACOParams(seed=0)
        return cls(name=name, aco_params=params.as_dict(), n_colonies=n_colonies)

    @classmethod
    def from_callable(cls, name: str, func: LayeringAlgorithm) -> "MethodSpec":
        """Spec wrapping an arbitrary ``graph -> Layering`` callable."""
        return cls(name=name, func=func)

    # ------------------------------------------------------------------ #
    # capabilities
    # ------------------------------------------------------------------ #

    @property
    def shippable(self) -> bool:
        """Whether the spec can cross a process boundary."""
        return self.func is None

    @property
    def cacheable(self) -> bool:
        """Whether results of this method may be stored in the result cache.

        A callable cannot be identified by content, and an Ant Colony spec
        with ``seed=None`` draws fresh entropy on every run, so a stored
        answer must not stand in for a new one.  The journal uses the same
        predicate: ``--resume`` re-runs such cells.
        """
        if self.func is not None:
            return False
        return self.aco_params is None or self.aco_params.get("seed") is not None

    def resolve(self) -> LayeringAlgorithm:
        """Materialise the actual ``graph -> Layering`` callable."""
        if self.func is not None:
            return self.func
        if self.aco_params is not None:
            params = ACOParams(**dict(self.aco_params))
            if self.n_colonies > 1:
                n_colonies = self.n_colonies
                return lambda g: parallel_aco_layering(
                    g, params, n_colonies=n_colonies
                ).layering
            return lambda g: aco_layering(g, params)
        if self.name in BUILTIN_METHODS:
            return BUILTIN_METHODS[self.name]
        raise ValidationError(f"cannot resolve method spec {self.name!r}")

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form shipped to process-pool workers."""
        if not self.shippable:
            raise ValidationError(
                f"method {self.name!r} wraps a callable and cannot cross a process boundary"
            )
        return {
            "name": self.name,
            "aco_params": dict(self.aco_params) if self.aco_params is not None else None,
            "n_colonies": self.n_colonies,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MethodSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            aco_params=data.get("aco_params"),
            n_colonies=data.get("n_colonies", 1),
        )

    def cache_token(self) -> dict[str, Any]:
        """The method's contribution to the content-addressed cache key."""
        if not self.cacheable:
            raise ValidationError(
                f"method {self.name!r} is not cacheable (a callable or an unseeded Ant Colony)"
            )
        return self.to_dict()


def default_method_specs(
    *,
    aco_params: ACOParams | None = None,
    include_aco: bool = True,
    n_colonies: int = 1,
) -> dict[str, MethodSpec]:
    """The paper's five algorithms as executor-portable method specs.

    The spec-based twin of
    :func:`repro.experiments.runner.default_algorithms`: same names, same
    defaults, but the Ant Colony parameters travel declaratively so every
    entry can be dispatched to process-pool workers and cached.
    ``n_colonies > 1`` upgrades the Ant Colony entry to a multi-colony
    portfolio run through the lockstep colony runtime.
    """
    specs = {name: MethodSpec.builtin(name) for name in BUILTIN_METHODS}
    if include_aco:
        specs[ANT_COLONY] = MethodSpec.ant_colony(aco_params, n_colonies=n_colonies)
    return specs


@dataclass(frozen=True)
class WorkUnit:
    """One experiment cell: apply one method to one graph at one ``nd_width``."""

    graph: DiGraph
    method: MethodSpec
    nd_width: float = 1.0
    graph_name: str = ""
    vertex_count: int | None = None
    label: str = ""

    @property
    def algorithm(self) -> str:
        """Display name of the method (explicit label wins over the spec name)."""
        return self.label or self.method.name

    @property
    def resolved_graph_name(self) -> str:
        return self.graph_name or f"graph-n{self.graph.n_vertices}"

    @property
    def resolved_vertex_count(self) -> int:
        return self.vertex_count if self.vertex_count is not None else self.graph.n_vertices

    @property
    def cell_id(self) -> str:
        """``algorithm:graph_name`` identifier used by the fault-injection hook."""
        return f"{self.algorithm}:{self.resolved_graph_name}"


def unit_cache_key(unit: WorkUnit, graph_digest: str | None = None) -> str:
    """The result-cache (and journal) key of a cacheable *unit*.

    The engine and ``repro-dag serve`` both derive keys here, so a request
    finds exactly the entries that engine runs stored.  Pass *graph_digest*
    when the caller already digested ``unit.graph``.
    """
    if graph_digest is None:
        graph_digest = content_digest(to_json_dict(unit.graph))
    return cache_key(graph_digest, unit.method.cache_token(), unit.nd_width)


@dataclass(frozen=True)
class CellError:
    """A captured per-cell failure: what went wrong, where, and how long it took.

    ``kind`` classifies the failure mode: ``"exception"`` (the cell raised),
    ``"timeout"`` (the per-cell deadline passed), ``"crash"`` (the worker
    process running the cell died) or ``"oom"`` (the cell exceeded a memory
    budget — a :class:`MemoryError` in place, or a worker death under an
    armed ``RLIMIT_AS`` cap).
    """

    exc_type: str
    message: str
    traceback: str
    running_time: float
    kind: str = "exception"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.exc_type}: {self.message}"


@dataclass(frozen=True)
class CellResult:
    """Outcome of one work unit.

    Exactly one of ``metrics`` / ``error`` is set: a successful cell carries
    its :class:`~repro.layering.metrics.LayeringMetrics`, a failed cell the
    captured :class:`CellError`.  ``cached`` marks a result-cache hit,
    ``replayed`` a journal replay (``--resume``); both report the originally
    measured ``running_time``.
    """

    algorithm: str
    graph_name: str
    vertex_count: int
    nd_width: float
    metrics: LayeringMetrics | None
    running_time: float
    cached: bool = False
    replayed: bool = False
    error: CellError | None = None
    #: Execution attempts this outcome took (1 = first try; > 1 = retried).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether the cell completed without error."""
        return self.error is None


class CellFailure(ReproError):
    """Raised in ``strict`` mode when a cell fails (fail-fast restored).

    The captured :class:`CellError` is attached as :attr:`error` and the
    failed cell's :class:`CellResult` as :attr:`cell`.
    """

    def __init__(self, cell: CellResult) -> None:
        assert cell.error is not None
        super().__init__(
            f"cell {cell.algorithm} on {cell.graph_name} failed: "
            f"{cell.error.exc_type}: {cell.error.message}"
        )
        self.cell = cell
        self.error = cell.error


class RunInterrupted(ReproError):
    """The run stopped early (``REPRO_ENGINE_MAX_CELLS``) with work remaining."""


@dataclass(frozen=True)
class RunProgress:
    """Snapshot handed to the progress callback after every completed cell."""

    done: int
    total: int
    failures: int
    cache_hits: int
    replayed: int
    executed: int
    elapsed_s: float
    #: Cells that needed more than one execution attempt.
    retried: int = 0
    #: Deadline expiries observed, recovered-by-retry ones included.
    timed_out: int = 0

    @property
    def eta_s(self) -> float | None:
        """Estimated seconds to completion (``None`` before the first cell).

        The rate is based on *executed* cells when any exist: journal
        replays and cache hits stream through in microseconds, so counting
        them (as a naive ``elapsed/done`` would) makes a resumed or
        warm-cache run claim ``eta 00:00`` for cells that still need real
        compute.
        """
        if self.done == 0 or self.elapsed_s <= 0:
            return None
        rate_basis = self.executed if self.executed > 0 else self.done
        return (self.total - self.done) * (self.elapsed_s / rate_basis)


def _max_cells() -> int | None:
    raw = os.environ.get(MAX_CELLS_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{MAX_CELLS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(f"{MAX_CELLS_ENV} must be >= 1, got {value}")
    return value


def _execute_unit(unit: WorkUnit) -> tuple[LayeringMetrics, float]:
    """Run one cell: time the algorithm, then evaluate the paper's metrics."""
    algorithm = unit.method.resolve()
    start = time.perf_counter()
    layering = algorithm(unit.graph)
    elapsed = time.perf_counter() - start
    metrics = evaluate_layering(unit.graph, layering, nd_width=unit.nd_width)
    return metrics, elapsed


#: Wire format of a captured outcome: ``("ok", metrics, elapsed)`` or
#: ``("error", CellError)``.  Plain picklable tuples so process-pool workers
#: can report failures as data instead of crashing the future.
CellOutcome = tuple


def _safe_execute(
    unit: WorkUnit, cell_id: str | None = None, attempt: int = 1
) -> CellOutcome:
    """Execute one cell, capturing any exception as a :class:`CellError`.

    Runs wherever the cell runs (process-pool worker included), so the
    recorded traceback is the executor's own.  ``KeyboardInterrupt`` and
    other non-``Exception`` conditions propagate — fault isolation is for
    cell bugs, not for the operator's Ctrl-C.  *attempt* (1-based) is handed
    to the chaos plane so attempt-bounded fault rules count correctly even
    across pool workers.
    """
    start = time.perf_counter()
    try:
        chaos.inject(cell_id if cell_id is not None else unit.cell_id, attempt)
        return ("ok", *_execute_unit(unit))
    except Exception as exc:
        return (
            "error",
            CellError(
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                running_time=time.perf_counter() - start,
                kind="oom" if isinstance(exc, MemoryError) else "exception",
            ),
        )


def _normalize_outcome(outcome: Any) -> CellOutcome:
    """Fold pool-level failures (crash/timeout/oom) into the CellOutcome shape."""
    if isinstance(outcome, TaskFailure):
        exc_type = {
            "crash": "WorkerCrashed",
            "oom": "MemoryBudgetExceeded",
        }.get(outcome.kind, "TaskDeadlineExceeded")
        return (
            "error",
            CellError(
                exc_type=exc_type,
                message=outcome.message,
                traceback="",
                running_time=0.0,
                kind=outcome.kind,
            ),
        )
    return outcome


def _decode_graph_table(payload: Mapping[str, dict[str, Any]]) -> dict[str, DiGraph]:
    """Per-worker state: decode the shared ``ref -> graph JSON`` table once."""
    return {ref: from_json_dict(graph_json) for ref, graph_json in payload.items()}


def _run_cell(
    state: Mapping[str, DiGraph],
    ref: str,
    spec_dict: dict[str, Any],
    nd_width: float,
    cell_id: str,
) -> CellOutcome:
    """Process-pool worker entry point for one shippable cell."""
    unit = WorkUnit(
        graph=state[ref], method=MethodSpec.from_dict(spec_dict), nd_width=nd_width
    )
    return _safe_execute(unit, cell_id)


def _run_indexed_unit(state: Sequence[WorkUnit], index: int) -> CellOutcome:
    """Thread-pool / serial worker entry point: run the *index*-th pending unit."""
    return _safe_execute(state[index])


@dataclass
class ExperimentEngine:
    """Dispatch experiment cells over an executor, with caching, fault
    isolation, streaming results and journal-based resume.

    Parameters
    ----------
    executor:
        ``"serial"`` (default), ``"thread"``, ``"process"`` or
        ``"colonies"`` (process-style dispatch; pair with multi-colony
        Ant Colony specs, see :meth:`MethodSpec.ant_colony`).
    jobs:
        Worker cap for the ``"process"``, ``"thread"`` and ``"colonies"``
        pools (default: ``REPRO_JOBS`` or the CPU count, clamped to the
        pending cell count).  The ``"batched"`` executor ignores it: packs
        run in-process on the walk kernel's ``REPRO_ACO_THREADS`` threads.
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`; cacheable
        cells found in it are returned without recomputation
        (``CellResult.cached`` is ``True``) and fresh results are stored.
    strict:
        ``False`` (default): a raising cell is captured as
        :attr:`CellResult.error` and the run continues.  ``True``: the
        first failure raises :class:`CellFailure` (fail-fast).
    journal:
        Optional :class:`~repro.experiments.journal.RunJournal`; every
        completed cell is appended as it finishes.  Without ``resume`` a
        pre-existing journal in the directory is cleared first.
    resume:
        With a journal: load it before running and *replay* journaled
        successful cells (``CellResult.replayed``) instead of executing
        them.
    progress:
        Optional callable receiving a :class:`RunProgress` snapshot after
        every completed cell.
    cell_timeout:
        Optional per-cell deadline in seconds (CLI: ``--timeout``).  A cell
        still running when it passes is abandoned/killed (per executor) and
        recorded as ``CellError(kind="timeout")`` — never cached.
    retries:
        Re-execute failed, timed-out or crashed cells up to this many extra
        times (in-parent, deadline-bounded), with deterministic jittered
        backoff between attempts.  ``0`` (default) keeps single-shot
        semantics.
    retry_backoff:
        Base seconds of the exponential backoff between attempts; the
        jitter is seeded from the cell's content digest, so the delays — and
        with them the whole retried run — are reproducible.
    memory_budget:
        Optional per-worker memory budget in bytes (CLI:
        ``--memory-budget``).  The batched planner splits any pack whose
        estimated working set (:func:`repro.utils.resources.estimate_pack_cost`)
        exceeds it, and process/colonies workers arm an ``RLIMIT_AS`` soft
        cap so an over-budget cell fails as ``CellError(kind="oom")``
        instead of OOM-killing the box.  ``oom`` failures are never
        retried: re-running the same allocation against the same budget
        cannot succeed, and retrying it *in-parent* (where no cap is
        armed) could take the whole run down.
    """

    executor: str = "serial"
    jobs: int | None = None
    cache: ResultCache | None = None
    strict: bool = False
    journal: RunJournal | None = None
    resume: bool = False
    progress: Callable[[RunProgress], None] | None = None
    batch_size: int | None = None
    cell_timeout: float | None = None
    retries: int = 0
    retry_backoff: float = 0.05
    memory_budget: int | None = None
    _replay: dict[str, CellResult] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _journal_ready: bool = field(default=False, init=False, repr=False, compare=False)
    _downgrade_noted: bool = field(default=False, init=False, repr=False, compare=False)
    _split_noted: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.executor not in ENGINE_EXECUTORS:
            raise ValidationError(
                f"executor must be one of {ENGINE_EXECUTORS}, got {self.executor!r}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValidationError(f"cell_timeout must be > 0, got {self.cell_timeout}")
        if self.retries < 0:
            raise ValidationError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff < 0:
            raise ValidationError(f"retry_backoff must be >= 0, got {self.retry_backoff}")
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValidationError(
                f"memory_budget must be >= 1 byte, got {self.memory_budget}"
            )
        if self.resume and self.journal is None:
            raise ValidationError("resume=True needs a journal (run directory)")

    @classmethod
    def from_options(
        cls,
        *,
        executor: str | None = None,
        jobs: int | None = None,
        cache_dir: str | None = None,
        strict: bool = False,
        run_dir: str | None = None,
        resume: bool = False,
        progress: Callable[[RunProgress], None] | None = None,
        batch_size: int | None = None,
        cell_timeout: float | None = None,
        retries: int = 0,
        memory_budget: int | None = None,
    ) -> "ExperimentEngine":
        """Build an engine from CLI-style options (``None`` means default)."""
        if resume and not run_dir:
            raise ValidationError("--resume needs --run-dir")
        return cls(
            executor=executor or "serial",
            jobs=jobs,
            cache=ResultCache(cache_dir) if cache_dir else None,
            strict=strict,
            journal=RunJournal(run_dir) if run_dir else None,
            resume=resume,
            progress=progress,
            batch_size=batch_size,
            cell_timeout=cell_timeout,
            retries=retries,
            memory_budget=memory_budget,
        )

    def run(self, units: Sequence[WorkUnit]) -> list[CellResult]:
        """Run every unit and return one :class:`CellResult` per unit, in order."""
        return list(self.run_iter(units))

    def run_iter(
        self,
        units: Iterable[WorkUnit],
        *,
        progress: Callable[[RunProgress], None] | None = None,
    ) -> Iterator[CellResult]:
        """Yield one :class:`CellResult` per unit, in submission order, as
        cells complete.

        The streaming heart of the engine: journal replays and cache hits
        are yielded without execution, the remainder is dispatched over the
        configured executor, and each result is journaled/cached/reported
        the moment it is available.  Failed cells are yielded with
        :attr:`CellResult.error` set (or raise :class:`CellFailure` under
        ``strict``).
        """
        units = list(units)
        progress_cb = progress if progress is not None else self.progress
        max_cells = _max_cells()
        if (
            self.executor == "colonies"
            and units
            and not any(unit.method.n_colonies > 1 for unit in units)
        ):
            warnings.warn(
                "executor='colonies' dispatches cells like 'process', and no "
                "method spec carries n_colonies > 1 — the multi-colony "
                "runtime is not in play.  Pass --colonies K (or "
                "MethodSpec.ant_colony(..., n_colonies=K)) to run portfolio "
                "cells.",
                RuntimeWarning,
                stacklevel=2,
            )

        replay = self._prepare_journal()

        # Pool-executor auto-downgrade: when the effective worker count
        # resolves to one (1-CPU box, REPRO_JOBS=1, --jobs 1) a process pool
        # can only add serialisation overhead (the tracked bench records a
        # 0.58x "speedup"), so the cells run serially instead — with a
        # one-line note rather than a silently paid tax.
        dispatch_executor = self.executor
        if self.executor in ("process", "colonies") and units:
            if effective_workers(self.jobs) == 1:
                dispatch_executor = "serial"
                if not self._downgrade_noted:
                    self._downgrade_noted = True
                    print(
                        f"note: executor '{self.executor}' resolves to a single "
                        "worker here; running cells serially (no pool overhead)",
                        file=sys.stderr,
                    )

        # The graph digest is computed once per distinct graph object and
        # shared by cache and journal keys.  The serialised JSON payload is
        # not retained for the whole run (corpus-many dicts would undercut
        # the streaming-memory story); on the process-style executors it is
        # stashed just long enough for the shipping table to pick it up
        # without serialising the graph a second time.
        ships_json = dispatch_executor in ("process", "colonies")
        digest_memo: dict[int, str] = {}
        json_stash: dict[int, dict[str, Any]] = {}

        def graph_digest(graph: DiGraph) -> str:
            key = id(graph)
            if key not in digest_memo:
                payload = to_json_dict(graph)
                if ships_json:
                    json_stash[key] = payload
                digest_memo[key] = content_digest(payload)
            return digest_memo[key]

        keys: list[str | None] = [None] * len(units)
        ready: dict[int, CellResult] = {}
        pending: list[tuple[int, WorkUnit]] = []
        want_key = self.cache is not None or self.journal is not None
        for i, unit in enumerate(units):
            if want_key and unit.method.cacheable:
                key = unit_cache_key(unit, graph_digest(unit.graph))
                keys[i] = key
                journaled = replay.get(key)
                if journaled is not None:
                    ready[i] = self._restamp(unit, journaled)
                    continue
                if self.cache is not None:
                    hit = self.cache.get(key)
                    if hit is not None:
                        ready[i] = self._finished(
                            unit, hit.metrics, None, hit.running_time, cached=True
                        )
                        continue
            pending.append((i, unit))

        stream = self._dispatch_iter(pending, json_stash, dispatch_executor)
        if not pending:
            json_stash.clear()  # all cells replayed/hit: nothing will be shipped
        start = time.perf_counter()
        done = failures = cache_hits = replayed = executed = 0
        retried = timed_out = 0
        try:
            for i, unit in enumerate(units):
                cell = ready.pop(i, None)
                if cell is None:
                    outcome = _normalize_outcome(next(stream))
                    outcome, attempts, timeouts = self._with_retries(
                        unit, keys[i], outcome
                    )
                    timed_out += timeouts
                    retried += 1 if attempts > 1 else 0
                    if outcome[0] == "ok":
                        cell = self._finished(
                            unit, outcome[1], None, outcome[2], attempts=attempts
                        )
                    else:
                        error = outcome[1]
                        cell = self._finished(
                            unit, None, error, error.running_time, attempts=attempts
                        )
                    if keys[i] is not None:
                        if self.journal is not None:
                            self.journal.record(keys[i], cell)
                        if self.cache is not None and cell.ok:
                            assert cell.metrics is not None
                            self.cache.put(
                                keys[i],
                                cell.metrics,
                                cell.running_time,
                                chaos_id=unit.cell_id,
                                attempt=attempts,
                            )
                    executed += 1
                elif self.journal is not None and cell.cached and keys[i] is not None:
                    # Cache hits are journaled too, so a resumed run replays
                    # them even when the cache has since been pruned.
                    self.journal.record(keys[i], cell)
                done += 1
                failures += 0 if cell.ok else 1
                cache_hits += 1 if cell.cached else 0
                replayed += 1 if cell.replayed else 0
                if progress_cb is not None:
                    progress_cb(
                        RunProgress(
                            done=done,
                            total=len(units),
                            failures=failures,
                            cache_hits=cache_hits,
                            replayed=replayed,
                            executed=executed,
                            elapsed_s=time.perf_counter() - start,
                            retried=retried,
                            timed_out=timed_out,
                        )
                    )
                if self.strict and not cell.ok:
                    raise CellFailure(cell)
                yield cell
                if (
                    max_cells is not None
                    and executed >= max_cells
                    and executed < len(pending)
                ):
                    raise RunInterrupted(
                        f"run interrupted after {executed} executed cells "
                        f"({MAX_CELLS_ENV}={max_cells}); "
                        f"{len(pending) - executed} cells not executed"
                    )
        finally:
            stream.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _prepare_journal(self) -> dict[str, CellResult]:
        """Load the replay map (``resume``) or clear a stale journal, once."""
        if self.journal is None:
            return {}
        if not self._journal_ready:
            if self.resume:
                self._replay = self.journal.load()
            else:
                self.journal.clear()
                self._replay = {}
            self._journal_ready = True
        assert self._replay is not None
        return self._replay

    @staticmethod
    def _restamp(unit: WorkUnit, journaled: CellResult) -> CellResult:
        """A journal replay re-labelled with the current unit's metadata."""
        return CellResult(
            algorithm=unit.algorithm,
            graph_name=unit.resolved_graph_name,
            vertex_count=unit.resolved_vertex_count,
            nd_width=unit.nd_width,
            metrics=journaled.metrics,
            running_time=journaled.running_time,
            replayed=True,
            attempts=journaled.attempts,
        )

    @staticmethod
    def _finished(
        unit: WorkUnit,
        metrics: LayeringMetrics | None,
        error: CellError | None,
        elapsed: float,
        *,
        cached: bool = False,
        attempts: int = 1,
    ) -> CellResult:
        return CellResult(
            algorithm=unit.algorithm,
            graph_name=unit.resolved_graph_name,
            vertex_count=unit.resolved_vertex_count,
            nd_width=unit.nd_width,
            metrics=metrics,
            running_time=elapsed,
            cached=cached,
            error=error,
            attempts=attempts,
        )

    # ------------------------------------------------------------------ #
    # deadlines and retries
    # ------------------------------------------------------------------ #

    def _attempt_cell(self, unit: WorkUnit, attempt: int) -> CellOutcome:
        """One in-parent, deadline-bounded execution attempt of a cell."""
        if self.cell_timeout is None:
            return _safe_execute(unit, attempt=attempt)
        completed, value = run_with_deadline(
            lambda: _safe_execute(unit, attempt=attempt), self.cell_timeout
        )
        if completed:
            return value
        return (
            "error",
            CellError(
                exc_type="TaskDeadlineExceeded",
                message=(
                    f"cell {unit.cell_id} exceeded the "
                    f"{self.cell_timeout:.6g}s deadline"
                ),
                traceback="",
                running_time=self.cell_timeout,
                kind="timeout",
            ),
        )

    def _backoff_delay(self, token: str, attempt: int) -> float:
        """Deterministic jittered exponential backoff before retry *attempt*.

        The jitter is a pure function of the cell's identity (cache key when
        it has one, cell id otherwise) and the attempt number, so a retried
        run sleeps the same amounts every time — reproducibility extends to
        the recovery path.
        """
        if self.retry_backoff <= 0:
            return 0.0
        digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
        h = int.from_bytes(digest[:4], "big")
        return self.retry_backoff * (2 ** (attempt - 1)) * (0.5 + h / 0xFFFFFFFF)

    def _with_retries(
        self, unit: WorkUnit, key: str | None, outcome: CellOutcome
    ) -> tuple[CellOutcome, int, int]:
        """Re-execute a failed cell up to ``retries`` more times.

        Retries run in the parent process (deadline-bounded) regardless of
        the executor: the faulted worker may be gone, and one straggler cell
        does not need a pool.  Returns ``(outcome, attempts, timeouts)``
        where *timeouts* counts deadline expiries across all attempts.

        ``oom`` failures are final: the same allocation against the same
        budget cannot succeed, and the in-parent retry path has no
        ``RLIMIT_AS`` cap armed — retrying there could OOM the whole run
        instead of one labelled cell.
        """
        attempts = 1
        timeouts = 1 if outcome[0] == "error" and outcome[1].kind == "timeout" else 0
        token = key if key is not None else unit.cell_id
        while (
            outcome[0] == "error"
            and outcome[1].kind != "oom"
            and attempts <= self.retries
        ):
            delay = self._backoff_delay(token, attempts)
            if delay > 0:
                time.sleep(delay)
            attempts += 1
            outcome = self._attempt_cell(unit, attempts)
            if outcome[0] == "error" and outcome[1].kind == "timeout":
                timeouts += 1
        return outcome, attempts, timeouts

    def _dispatch_iter(
        self,
        pending: Sequence[tuple[int, WorkUnit]],
        json_stash: dict[int, dict[str, Any]],
        executor: str | None = None,
    ) -> Iterator[CellOutcome]:
        """Stream outcomes for the pending units, preserving their order."""
        if not pending:
            return
        executor = executor if executor is not None else self.executor
        if executor == "batched":
            json_stash.clear()
            yield from self._dispatch_batched(pending)
            return
        if executor not in ("process", "colonies"):
            pending_units = [unit for _, unit in pending]
            yield from imap_with_state(
                _run_indexed_unit,
                [(k,) for k in range(len(pending_units))],
                executor=executor,
                max_workers=self.jobs,
                shared_state=pending_units,
                task_timeout=self.cell_timeout,
                failure_mode="result",
            )
            return

        # Build the shared graph table: each distinct graph is serialised
        # once and shipped to each worker once (pool initializer).
        shippable = [unit for _, unit in pending if unit.method.shippable]
        ref_by_graph: dict[int, str] = {}
        table: dict[str, dict[str, Any]] = {}
        for unit in shippable:
            gid = id(unit.graph)
            if gid not in ref_by_graph:
                ref = f"g{len(ref_by_graph)}"
                ref_by_graph[gid] = ref
                stashed = json_stash.pop(gid, None)
                table[ref] = stashed if stashed is not None else to_json_dict(unit.graph)
        json_stash.clear()  # graphs that only had cache/journal hits
        tasks = [
            (ref_by_graph[id(unit.graph)], unit.method.to_dict(), unit.nd_width, unit.cell_id)
            for unit in shippable
        ]
        pool_stream: Iterator[CellOutcome] = (
            imap_with_state(
                _run_cell,
                tasks,
                executor="process",
                max_workers=self.jobs,
                init_fn=_decode_graph_table,
                payload=table,
                task_timeout=self.cell_timeout,
                failure_mode="result",
                memory_limit_bytes=self.memory_budget,
            )
            if tasks
            else iter(())
        )
        try:
            for _, unit in pending:
                if unit.method.shippable:
                    yield next(pool_stream)
                else:
                    # Callable-backed methods cannot be pickled; run them
                    # in-process, lazily (and deadline-bounded), when their
                    # turn comes.
                    yield self._attempt_cell(unit, 1)
        finally:
            close = getattr(pool_stream, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------ #
    # cross-graph megabatching
    # ------------------------------------------------------------------ #

    def _dispatch_batched(
        self, pending: Sequence[tuple[int, WorkUnit]]
    ) -> Iterator[CellOutcome]:
        """Stream outcomes with Ant Colony cells executed as cross-graph packs.

        The batch planner groups the pending Ant Colony cells by identical
        method token and ``nd_width`` (cache hits and journal replays were
        already filtered out by the caller, so ``--resume`` and warm caches
        compose unchanged), sorts each group by graph size (uniform packs
        waste no padding) and chunks it into packs of ``batch_size`` graphs.
        Each pack runs as one :func:`repro.aco.runtime.run_packed_colonies`
        call the first time the stream reaches one of its cells — laziness
        the interruption hook (``REPRO_ENGINE_MAX_CELLS``) relies on.
        Non-ACO cells (builtins, callables, seedless specs) execute serially
        in place, exactly as the serial executor would.
        """
        batch_size = self.batch_size if self.batch_size is not None else DEFAULT_BATCH_SIZE
        groups: dict[str, list[int]] = {}
        for pos, (_, unit) in enumerate(pending):
            method = unit.method
            if (
                method.aco_params is not None
                and method.shippable
                # A None seed means fresh entropy per run: there is no
                # per-graph stream to replicate, so such cells keep the
                # serial path (results would be nondeterministic either way).
                and method.aco_params.get("seed") is not None
            ):
                key = canonical_json(
                    {"method": method.to_dict(), "nd_width": unit.nd_width}
                )
                groups.setdefault(key, []).append(pos)

        pack_of: dict[int, list[int]] = {}
        for positions in groups.values():
            ordered = sorted(
                positions, key=lambda pos: pending[pos][1].graph.n_vertices
            )
            for start in range(0, len(ordered), batch_size):
                chunk = ordered[start : start + batch_size]
                for piece in self._split_chunk_by_budget(chunk, pending):
                    for pos in piece:
                        pack_of[pos] = piece

        ready: dict[int, CellOutcome] = {}
        for pos, (_, unit) in enumerate(pending):
            if pos in ready:
                yield ready.pop(pos)
            elif pos in pack_of:
                self._execute_pack(
                    [(p, pending[p][1]) for p in pack_of[pos]], ready
                )
                yield ready.pop(pos)
            else:
                yield self._attempt_cell(unit, 1)

    def _split_chunk_by_budget(
        self, chunk: list[int], pending: Sequence[tuple[int, WorkUnit]]
    ) -> Iterator[list[int]]:
        """Split one planned pack so each piece fits the memory budget.

        Greedy in the planner's size order: graphs accumulate into a piece
        while :func:`repro.utils.resources.estimate_pack_cost` keeps the
        piece's estimated working set under ``memory_budget``.  A single
        graph whose own estimate exceeds the budget still runs — as a
        singleton pack, where the estimate is tightest and an actual
        :class:`MemoryError` is caught and labelled ``oom`` without
        touching any pack-mate.  Splitting never changes results: packs are
        bit-identical to per-graph runs by the packed-runtime contract.
        """
        if self.memory_budget is None or len(chunk) <= 1:
            yield chunk
            return
        spec = pending[chunk[0]][1].method
        params = dict(spec.aco_params or {})
        kwargs = {
            "n_colonies": spec.n_colonies,
            "n_ants": int(params.get("n_ants", 10)),
            "n_tours": int(params.get("n_tours", 10)),
            "alpha": float(params.get("alpha", 1.0)),
        }
        stats = {
            pos: resources.problem_stats(pending[pos][1].graph) for pos in chunk
        }
        pieces: list[list[int]] = []
        piece: list[int] = []
        for pos in chunk:
            candidate = piece + [pos]
            estimate = resources.pack_cost_from_stats(
                [stats[p] for p in candidate], **kwargs
            )
            if piece and estimate.bytes > self.memory_budget:
                pieces.append(piece)
                piece = [pos]
            else:
                piece = candidate
        if piece:
            pieces.append(piece)
        if len(pieces) > 1 and not self._split_noted:
            self._split_noted = True
            print(
                f"note: memory budget {self.memory_budget} bytes splits "
                f"planned packs (first: {len(chunk)} cells -> "
                f"{len(pieces)} packs); results are unchanged",
                file=sys.stderr,
            )
        yield from pieces

    def _execute_pack(
        self,
        cells: list[tuple[int, WorkUnit]],
        ready: dict[int, CellOutcome],
    ) -> None:
        """Run one pack of same-spec cells; deposit one outcome per cell.

        Fault isolation is per cell: the injection hook and problem
        construction run per graph (a poisoned graph is recorded as its own
        :class:`CellError` and simply excluded from the pack before launch),
        and a failure of the packed runtime itself falls back to executing
        the surviving cells one by one — so one bad cell can never take a
        pack-mate down with it.
        """
        from repro.aco.problem import LayeringProblem, PackedProblems
        from repro.aco.runtime import run_packed_colonies

        governor = resources.governor()
        if not governor.allow("batched"):
            # The batched breaker is open: the packed runtime failed
            # repeatedly, so the degraded rung runs every cell through the
            # (bit-identical) serial path until a probe closes it again.
            for pos, unit in cells:
                ready[pos] = self._attempt_cell(unit, 1)
            return

        start = time.perf_counter()
        spec = cells[0][1].method
        params = ACOParams(**dict(spec.aco_params))
        survivors: list[tuple[int, WorkUnit]] = []
        problems: list[LayeringProblem] = []
        for pos, unit in cells:
            cell_start = time.perf_counter()

            def build(unit=unit) -> LayeringProblem:
                chaos.inject(unit.cell_id)
                return LayeringProblem.from_graph(unit.graph, nd_width=params.nd_width)

            try:
                if self.cell_timeout is None:
                    problem = build()
                else:
                    # The per-cell setup (chaos hangs included) is bounded by
                    # the cell deadline even on the batched path.
                    completed, problem = run_with_deadline(build, self.cell_timeout)
                    if not completed:
                        ready[pos] = (
                            "error",
                            CellError(
                                exc_type="TaskDeadlineExceeded",
                                message=(
                                    f"cell {unit.cell_id} exceeded the "
                                    f"{self.cell_timeout:.6g}s deadline during "
                                    "pack setup"
                                ),
                                traceback="",
                                running_time=self.cell_timeout,
                                kind="timeout",
                            ),
                        )
                        continue
            except Exception as exc:
                ready[pos] = (
                    "error",
                    CellError(
                        exc_type=type(exc).__name__,
                        message=str(exc),
                        traceback=traceback.format_exc(),
                        running_time=time.perf_counter() - cell_start,
                        kind="oom" if isinstance(exc, MemoryError) else "exception",
                    ),
                )
            else:
                problems.append(problem)
                survivors.append((pos, unit))
        if not survivors:
            return

        if spec.n_colonies > 1:
            colony_seeds = _derive_colony_seeds(params.seed, spec.n_colonies)
        else:
            colony_seeds = [params.seed]
        seeds_per_graph = [colony_seeds] * len(problems)

        def run_pack():
            packed = PackedProblems.pack(problems)
            return run_packed_colonies(packed, params, seeds_per_graph)

        try:
            if self.cell_timeout is None:
                outcomes = run_pack()
            else:
                # One fused pack cannot observe per-cell wall-clock, so the
                # deadline generalises to a pack budget; on expiry every cell
                # falls back to the individually-bounded serial path, where a
                # single hung cell costs only its own deadline.
                budget = self.cell_timeout * len(survivors)
                completed, outcomes = run_with_deadline(run_pack, budget)
                if not completed:
                    print(
                        f"note: pack of {len(survivors)} cells exceeded its "
                        f"{budget:.6g}s budget; re-running the cells serially "
                        "under individual deadlines",
                        file=sys.stderr,
                    )
                    for pos, unit in survivors:
                        ready[pos] = self._attempt_cell(unit, 1)
                    return
        except Exception as exc:
            # The packed path failed wholesale; isolate by running each
            # surviving cell through the ordinary serial path instead — with
            # a note, so the degradation to serial speed is never silent.
            # The failure also counts against the batched breaker: enough
            # consecutive ones fence the packed runtime off entirely.
            governor.record_failure("batched", f"{type(exc).__name__}: {exc}")
            print(
                f"note: packed execution of {len(survivors)} cells failed "
                f"({type(exc).__name__}: {exc}); re-running them serially",
                file=sys.stderr,
            )
            for pos, unit in survivors:
                ready[pos] = self._attempt_cell(unit, 1)
            return
        governor.record_success("batched")

        results: list[tuple[int, CellOutcome]] = []
        for (pos, unit), problem, graph_outcomes in zip(survivors, problems, outcomes):
            try:
                layering = self._pack_layering(unit, problem, graph_outcomes, params)
                metrics = evaluate_layering(
                    unit.graph, layering, nd_width=unit.nd_width
                )
            except Exception as exc:
                results.append(
                    (
                        pos,
                        (
                            "error",
                            CellError(
                                exc_type=type(exc).__name__,
                                message=str(exc),
                                traceback=traceback.format_exc(),
                                running_time=0.0,
                            ),
                        ),
                    )
                )
            else:
                results.append((pos, ("ok", metrics)))

        # Per-cell wall-clock cannot be observed inside one fused kernel
        # sweep; each cell reports a share of the pack's wall-clock weighted
        # by its graph's vertex count — an estimate (and recorded as such in
        # the cache/journal), but one that keeps per-size running-time
        # aggregates meaningful when packs mix graph sizes.
        elapsed = time.perf_counter() - start
        total_vertices = sum(unit.graph.n_vertices for _, unit in survivors)
        weight = {
            pos: unit.graph.n_vertices / total_vertices if total_vertices else 1.0
            for pos, unit in survivors
        }
        for pos, outcome in results:
            share = elapsed * weight[pos]
            if outcome[0] == "ok":
                ready[pos] = ("ok", outcome[1], share)
            else:
                error = outcome[1]
                ready[pos] = (
                    "error",
                    CellError(
                        exc_type=error.exc_type,
                        message=error.message,
                        traceback=error.traceback,
                        running_time=share,
                    ),
                )

    @staticmethod
    def _pack_layering(unit, problem, graph_outcomes, params: ACOParams) -> Layering:
        """The cell's final layering from its pack outcomes.

        Mirrors the serial path exactly: a single-colony cell returns the
        colony's best assignment (:func:`repro.aco.layering_aco.aco_layering`
        protocol); an ``n_colonies > 1`` portfolio keeps the colony
        :func:`repro.aco.parallel.portfolio_result` selects, as
        :func:`repro.aco.parallel.parallel_aco_layering` does.
        """
        if len(graph_outcomes) == 1:
            layering = problem.assignment_to_layering(
                graph_outcomes[0].assignment, normalize=True
            )
            layering.validate(unit.graph)
            return layering
        return portfolio_result(unit.graph, problem, graph_outcomes, params.nd_width).layering
