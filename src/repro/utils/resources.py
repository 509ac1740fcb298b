"""Resource governance: cost model, circuit breakers, and memory caps.

PR 6/8 hardened the *time* axis of the execution stack (deadlines, retries,
crash-supervised pools, graceful drain); this module hardens the *resource*
axis.  Three pillars share it:

* **Budgets & cost model** — :func:`estimate_pack_cost` prices a megabatch
  pack from cheap CSR statistics (bytes of transient working set plus a
  rough wall-clock estimate) so the batched planner can split packs that
  would blow a ``--memory-budget`` instead of OOMing, and the layout
  service can answer oversize requests with ``413`` + the estimate instead
  of accepting work it cannot hold.  :func:`apply_memory_limit` arms an
  ``RLIMIT_AS`` soft cap inside supervised pool workers so an over-budget
  cell dies as a *labelled* ``oom`` failure, not an opaque ``crash``.

* **Circuit breakers** — :class:`CircuitBreaker` counts *consecutive*
  failures per backend and opens after a threshold; :class:`ResourceGovernor`
  owns one breaker per rung of the degradation ladder (native kernel →
  NumPy, threaded walks → single thread, packed batched execution →
  per-cell serial, disk cache → memory-only, journal → best-effort, worker
  respawn → in-parent serial).  Every transition is logged to stderr
  exactly once per state change, recorded in
  :attr:`ResourceGovernor.events` for run summaries and ``/stats``, and
  half-open probed after a cooldown so a recovered backend is promoted
  back.  Every degraded rung is bit-identical to the fast path — the
  breakers only ever select between implementations the equivalence test
  matrices already pin together.

* **Disk-full safety** — the cache/journal writers consult the governor's
  ``cache-disk``/``journal-disk`` rungs so ``ENOSPC`` becomes a degradation
  event (memory-only cache, best-effort journal) instead of an unhandled
  ``OSError`` ending the run.

The governor is deliberately process-global (:func:`governor`): a poisoned
backend is a property of the process, not of one engine instance, and the
serving layer constructs a fresh engine per megabatch.  Tests reset it via
:meth:`ResourceGovernor.reset` (an autouse fixture does this).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CostEstimate",
    "LADDER",
    "ResourceGovernor",
    "apply_memory_limit",
    "estimate_pack_cost",
    "governor",
    "pack_cost_from_stats",
    "problem_stats",
]

#: Bytes per float64/int64 slot — everything the kernels allocate is 8-wide.
_WORD = 8

#: Fixed per-process allowance added on top of a worker memory budget when
#: arming ``RLIMIT_AS``: the interpreter + NumPy baseline is address space
#: the *budget* (which prices the transient working set) never counted.
DEFAULT_RLIMIT_SLACK_BYTES = 256 * 1024 * 1024

#: Rough per-unit wall-clock constant for the ACO walk kernels, calibrated
#: against the NumPy lockstep path on small graphs (a deliberate
#: overestimate for the C kernel).  One "unit" is one walk step over one
#: vertex-or-edge: ``n_tours × n_colonies × n_ants × (V + E)``.
_SECONDS_PER_UNIT = 2e-7


@dataclass(frozen=True)
class CostEstimate:
    """Priced resource footprint of running a pack of layering problems."""

    #: Peak transient working-set bytes of the packed runtime (pheromone
    #: stack, per-walk state, CSR arrays) — *not* including the interpreter
    #: or NumPy baseline.
    bytes: int
    #: Rough wall-clock seconds (order-of-magnitude; used for admission
    #: hints, never for deadlines).
    est_wall: float

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready form for error payloads and ``/stats``."""
        return {"bytes": self.bytes, "est_wall": round(self.est_wall, 6)}


def problem_stats(problem: object) -> tuple[int, int, int]:
    """``(n_vertices, n_edges, n_cols)`` from a graph-like or problem-like.

    Accepts :class:`~repro.aco.problem.LayeringProblem` (CSR arrays and
    ``n_layers`` present) and :class:`~repro.graph.digraph.DiGraph`
    (``n_vertices``/``n_edges``).  For a raw graph the eventual proper
    layering adds one dummy vertex per edge per spanned layer; the planner
    only needs a stable, cheap figure, so edges are billed once.
    """
    n_vertices = int(getattr(problem, "n_vertices", 0) or 0)
    indices = getattr(problem, "succ_indices", None)
    if indices is not None:
        n_edges = int(len(indices))
    else:
        n_edges = int(getattr(problem, "n_edges", 0) or 0)
    n_layers = getattr(problem, "n_layers", None)
    n_cols = int(n_layers) + 1 if n_layers is not None else n_vertices + 1
    return n_vertices, n_edges, n_cols


def estimate_pack_cost(
    problems: Iterable[object],
    *,
    n_colonies: int = 1,
    n_ants: int = 10,
    n_tours: int = 10,
    alpha: float = 1.0,
) -> CostEstimate:
    """Price the packed-runtime working set for *problems* run together.

    The model mirrors the allocations
    :func:`repro.aco.runtime.run_packed_colonies` actually makes — the
    zero-padded pheromone stack dominates, followed by the per-walk
    assignment/score arrays and the CSR pack — using only O(#problems)
    integer statistics, so the planner can call it on every
    candidate chunk without measurable cost.  It is an *estimate*: padding
    is priced at the pack's true ``max_n``/``max_cols``, but dummy-vertex
    growth from ``build()`` is approximated (see :func:`problem_stats`).
    """
    return pack_cost_from_stats(
        [problem_stats(p) for p in problems],
        n_colonies=n_colonies,
        n_ants=n_ants,
        n_tours=n_tours,
        alpha=alpha,
    )


def pack_cost_from_stats(
    stats: Sequence[tuple[int, int, int]],
    *,
    n_colonies: int = 1,
    n_ants: int = 10,
    n_tours: int = 10,
    alpha: float = 1.0,
) -> CostEstimate:
    """:func:`estimate_pack_cost` on precomputed :func:`problem_stats` tuples.

    Greedy planners price every candidate prefix of a chunk; precomputing
    each graph's ``(n, m, cols)`` once and re-aggregating plain integers
    keeps that loop O(chunk²) tuple arithmetic instead of O(chunk²)
    attribute walks over graph objects.
    """
    if not stats:
        return CostEstimate(bytes=0, est_wall=0.0)
    max_n = max(n for n, _, _ in stats)
    max_cols = max(c for _, _, c in stats)
    sum_n = sum(n for n, _, _ in stats)
    sum_m = sum(m for _, m, _ in stats)

    n_matrices = len(stats) * max(1, n_colonies)
    n_walks = n_matrices * max(1, n_ants)

    # One padded pheromone matrix per colony; alpha != 1 materialises a
    # tau**alpha temporary of the same shape each tour.
    tau_bytes = n_matrices * max_n * max_cols * _WORD
    if alpha != 1.0:
        tau_bytes *= 2
    # Per-walk state: assignment + feasibility spans + scratch (~4 arrays of
    # max_n) and the layer-width triple (real/crossing/occupancy, max_cols).
    walk_bytes = n_walks * (max_n * _WORD * 4 + max_cols * _WORD * 3)
    # The CSR pack itself: ~4 vertex-indexed arrays plus both edge
    # directions (indptr is vertex-indexed, indices edge-indexed).
    csr_bytes = (sum_n * 4 + sum_m * 2) * _WORD

    units = (
        max(1, n_tours)
        * max(1, n_colonies)
        * max(1, n_ants)
        * (sum_n + sum_m)
    )
    return CostEstimate(
        bytes=tau_bytes + walk_bytes + csr_bytes,
        est_wall=units * _SECONDS_PER_UNIT,
    )


def apply_memory_limit(
    budget_bytes: int, *, slack_bytes: int = DEFAULT_RLIMIT_SLACK_BYTES
) -> int | None:
    """Arm an ``RLIMIT_AS`` soft cap of current-usage + budget + slack.

    Called inside supervised pool workers after interpreter/NumPy start-up:
    the cap is *relative* to the address space already mapped, so it bounds
    what a cell may additionally allocate (the thing the budget prices)
    rather than the unknowable interpreter baseline.  Returns the armed
    limit in bytes, or ``None`` where ``RLIMIT_AS`` is unsupported or the
    existing hard limit already forbids raising it.

    A cell that exceeds the cap sees ``malloc`` fail — NumPy raises
    :class:`MemoryError`, which the worker reports as a labelled ``oom``
    failure; a hard allocator death still reaches the parent as a signal
    exit, which the pool also labels ``oom`` once a limit is armed.
    """
    if budget_bytes <= 0:
        return None
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return None
    limit = _current_vm_bytes() + budget_bytes + slack_bytes
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    if soft != resource.RLIM_INFINITY and soft <= limit:
        return None  # an outer cap is already tighter; keep it
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - platform-dependent
        return None
    return limit


def _current_vm_bytes() -> int:
    """Current virtual-memory size, via ``/proc`` on Linux (else a guess)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[0])
        try:
            page = os.sysconf("SC_PAGE_SIZE")
        except (ValueError, OSError):
            page = 4096
        return pages * page
    except (OSError, ValueError, IndexError):
        # No /proc (macOS, BSD): assume a generous interpreter baseline so
        # the cap errs on the permissive side rather than killing start-up.
        return 1024 * 1024 * 1024


#: Breaker states.  ``open`` fails fast (degraded path); ``half-open``
#: admits exactly one probe after the cooldown.
BreakerState = str

_CLOSED: BreakerState = "closed"
_OPEN: BreakerState = "open"
_HALF_OPEN: BreakerState = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open recovery probes.

    ``allow()`` answers "may the fast path run?"; callers report outcomes
    via ``record_success()``/``record_failure()``.  After *threshold*
    consecutive failures the breaker opens and ``allow()`` answers False
    until *cooldown_s* has passed, at which point exactly one caller is
    admitted as a half-open probe — its success closes the breaker, its
    failure re-opens it for another cooldown.  All transitions are
    thread-safe (the serving layer trips breakers from worker threads).
    """

    def __init__(
        self,
        name: str,
        *,
        threshold: int,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.name = name
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state: BreakerState = _CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._trips = 0
        self._last_detail = ""

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    def allow(self) -> bool:
        """Whether the guarded fast path may be attempted right now."""
        with self._lock:
            if self._state == _CLOSED:
                return True
            if self._state == _OPEN:
                if self._clock() - self._opened_at >= self.cooldown_s:
                    self._state = _HALF_OPEN
                    return True  # this caller is the recovery probe
                return False
            return False  # half-open: a probe is already in flight

    def record_success(self) -> bool:
        """Report a fast-path success; returns True when this *closed* an
        open/half-open breaker (the recovery transition to log)."""
        with self._lock:
            recovered = self._state != _CLOSED
            self._state = _CLOSED
            self._consecutive = 0
            return recovered

    def record_failure(self, detail: str = "") -> bool:
        """Report a fast-path failure; returns True when this *opened* the
        breaker (the degradation transition to log)."""
        with self._lock:
            self._last_detail = detail
            if self._state == _HALF_OPEN:
                # Failed probe: straight back to open, no new trip log.
                self._state = _OPEN
                self._opened_at = self._clock()
                self._consecutive = self.threshold
                return False
            self._consecutive += 1
            if self._state == _CLOSED and self._consecutive >= self.threshold:
                self._state = _OPEN
                self._opened_at = self._clock()
                self._trips += 1
                return True
            return False

    def trip(self, detail: str = "forced") -> None:
        """Force the breaker open (tests and explicit degraded modes)."""
        with self._lock:
            self._state = _OPEN
            self._opened_at = self._clock()
            self._consecutive = max(self._consecutive, self.threshold)
            self._trips += 1
            self._last_detail = detail

    def reset(self) -> None:
        with self._lock:
            self._state = _CLOSED
            self._consecutive = 0
            self._opened_at = 0.0
            self._trips = 0
            self._last_detail = ""

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive,
                "trips": self._trips,
                "detail": self._last_detail,
            }


@dataclass(frozen=True)
class _Rung:
    """One rung of the degradation ladder."""

    threshold: int
    cooldown_s: float
    degraded: str  # what the system falls back to while open
    restored: str  # what closing the breaker re-enables


#: The explicit degradation ladder: breaker name → policy.  Disk rungs trip
#: on the first failure (a full disk does not get better by retrying the
#: same write) with a longer cooldown; compute rungs tolerate a couple of
#: failures before fencing the backend off.
LADDER: dict[str, _Rung] = {
    "native-kernel": _Rung(3, 30.0, "NumPy lockstep walk kernels", "native C kernels"),
    "native-threads": _Rung(3, 30.0, "single-threaded native walks", "multithreaded native walks"),
    "batched": _Rung(2, 30.0, "per-cell serial execution", "packed cross-graph batching"),
    "cache-disk": _Rung(1, 60.0, "memory-only result cache", "on-disk result cache"),
    "journal-disk": _Rung(1, 60.0, "best-effort journal (resume may recompute)", "durable run journal"),
    "respawn": _Rung(3, 30.0, "in-parent serial execution", "supervised pool respawn"),
}


class ResourceGovernor:
    """Registry of the ladder's breakers with once-per-transition logging.

    All state transitions append to :attr:`events` (rendered into run
    summaries and ``/stats``) and emit one stderr note, so an operator sees
    *that* the run degraded and *why* exactly once — not once per cell.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name, threshold=rung.threshold, cooldown_s=rung.cooldown_s, clock=clock
            )
            for name, rung in LADDER.items()
        }
        self._events: list[dict[str, str]] = []
        self._events_lock = threading.Lock()

    def breaker(self, name: str) -> CircuitBreaker:
        return self._breakers[name]

    def allow(self, name: str) -> bool:
        """Whether backend *name*'s fast path may run (probe-admitting)."""
        return self._breakers[name].allow()

    def record_failure(self, name: str, detail: str = "") -> bool:
        """Report a failure; logs + records the trip when it opens."""
        breaker = self._breakers[name]
        opened = breaker.record_failure(detail)
        if opened:
            rung = LADDER[name]
            self._note(
                name,
                "open",
                f"{name}: {breaker.threshold} consecutive failure(s)"
                + (f" ({detail})" if detail else "")
                + f" — degrading to {rung.degraded}",
            )
        return opened

    def record_success(self, name: str) -> None:
        """Report a success; logs + records the recovery when it closes an
        open/half-open breaker."""
        if self._breakers[name].record_success():
            self._note(
                name, "closed", f"{name}: probe succeeded — {LADDER[name].restored} restored"
            )

    def trip(self, name: str, detail: str = "forced") -> None:
        """Force a rung open (explicit degraded modes; tests)."""
        self._breakers[name].trip(detail)
        self._note(name, "open", f"{name}: forced open — {LADDER[name].degraded} ({detail})")

    def degraded(self) -> list[str]:
        """Names of rungs currently not running their fast path."""
        return [
            name
            for name, breaker in sorted(self._breakers.items())
            if breaker.state != _CLOSED
        ]

    @property
    def events(self) -> list[dict[str, str]]:
        with self._events_lock:
            return list(self._events)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Per-rung state for ``/stats`` and run summaries."""
        return {
            name: breaker.snapshot()
            for name, breaker in sorted(self._breakers.items())
        }

    def reset(self) -> None:
        for breaker in self._breakers.values():
            breaker.reset()
        with self._events_lock:
            self._events.clear()

    def _note(self, name: str, state: str, message: str) -> None:
        with self._events_lock:
            self._events.append({"breaker": name, "state": state, "message": message})
        sys.stderr.write(f"repro: resource governor: {message}\n")


#: Process-global governor (see module docstring for why it is global).
_GOVERNOR = ResourceGovernor()


def governor() -> ResourceGovernor:
    """The process-global resource governor."""
    return _GOVERNOR
