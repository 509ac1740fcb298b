"""Reusable process/thread/serial pool plumbing with per-worker shared state,
crash-safe supervision and per-task deadlines.

The experiment engine's executors run on it.  A payload describing the
shared, read-only inputs of a run is shipped to every worker exactly once and
decoded into per-worker state; the individual task submissions then carry
only small per-task arguments.  For process pools this avoids paying
O(tasks x payload) serialisation cost; for thread pools and the serial
executor the state can be used directly without any serialisation at all
(``shared_state``).

Determinism: tasks are submitted in order and results are collected in
submission order, so the returned list is independent of the executor kind
and the worker count.

Hardening (the robustness layer the experiment engine sits on):

* **Supervised process workers.**  The process back end no longer uses
  ``concurrent.futures.ProcessPoolExecutor`` — whose reaction to a worker
  dying (OOM kill, segfault, ``kill -9``) is to poison the whole pool with
  ``BrokenProcessPool`` — but a small supervised pool: each worker is a
  ``multiprocessing.Process`` with its own duplex pipe, and the parent
  multiplexes result pipes *and* process sentinels through
  :func:`multiprocessing.connection.wait`.  A worker that dies takes down
  only its in-flight task (reported as a :class:`TaskFailure` of kind
  ``"crash"`` or raised as :class:`WorkerCrashed`, per *failure_mode*); a
  replacement worker is spawned with the same initializer payload and the
  run continues.
* **Per-task deadlines.**  ``task_timeout=`` bounds every task's execution:
  a process worker that exceeds it is killed (``SIGKILL``) and replaced and
  the task reports a ``"timeout"`` :class:`TaskFailure`; the serial back
  end runs each task on a watchdog-monitored daemon thread; the thread back
  end bounds the wait for each task's result (the stuck thread itself
  cannot be reclaimed — that is a CPython limitation — but the run moves
  on, and injected chaos hangs are released so they cannot stall
  interpreter shutdown).
* **failure_mode.**  ``"raise"`` (default, the historical contract):
  crashes and timeouts raise :class:`WorkerCrashed` /
  :class:`TaskDeadlineExceeded` in the consumer.  ``"result"``: they are
  yielded in-stream as :class:`TaskFailure` values, so a streaming consumer
  (the experiment engine) can record the failure against the right task and
  keep going.
"""

from __future__ import annotations

import asyncio.events
import atexit
import concurrent.futures
import itertools
import multiprocessing
import os
import queue
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.utils import chaos, resources
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "EXECUTORS",
    "REPRO_JOBS_ENV",
    "TaskFailure",
    "TaskDeadlineExceeded",
    "WorkerCrashed",
    "effective_workers",
    "imap_with_state",
    "map_with_state",
    "run_with_deadline",
]

#: The supported execution back ends.
EXECUTORS = ("process", "thread", "serial")

#: Environment variable capping the default worker count of every pool in the
#: library (useful on oversubscribed CI boxes where ``os.cpu_count()`` lies
#: about the cores actually available to the job).
REPRO_JOBS_ENV = "REPRO_JOBS"


@dataclass(frozen=True)
class TaskFailure:
    """A task that produced no result: its worker crashed or its deadline passed.

    Yielded in place of the task's result under ``failure_mode="result"``;
    ``kind`` is ``"crash"`` (worker process died), ``"timeout"`` (the
    per-task deadline passed) or ``"oom"`` (the worker died by signal while
    an ``RLIMIT_AS`` memory budget was armed — the cap is the only thing in
    the worker configured to kill it that way).
    """

    kind: str
    message: str


class WorkerCrashed(ReproError):
    """A pool worker died while running a task (``failure_mode="raise"``)."""


class TaskDeadlineExceeded(ReproError):
    """A task exceeded the per-task deadline (``failure_mode="raise"``)."""


class _RemoteTraceback(Exception):
    """Carries a worker-side traceback as the ``__cause__`` of a re-raised error."""

    def __init__(self, tb: str) -> None:
        super().__init__(f"\n--- worker-side traceback ---\n{tb}")


def effective_workers(
    requested: int | None = None,
    n_tasks: int | None = None,
    *,
    env_var: str = REPRO_JOBS_ENV,
) -> int:
    """Resolve the worker count for a pool.

    An explicit *requested* value always wins.  When it is ``None`` the
    *env_var* environment variable (``REPRO_JOBS`` by default) is consulted
    before falling back to ``os.cpu_count()``, so CI boxes (and users) can
    cap every pool in the library (the experiment engine's executors) with
    one setting instead of each call site reading the raw CPU count.  The
    native kernel's thread resolution
    (:func:`repro.aco._native.effective_threads`) reuses the same ladder
    with ``env_var="REPRO_ACO_THREADS"``.  The result is additionally
    clamped to *n_tasks* (no point spawning more workers than tasks) and
    floored at 1.

    Invalid inputs raise: an explicit *requested* below 1, and an *env_var*
    value that is non-integer or below 1, are configuration errors, not
    something to silently coerce.
    """
    if requested is not None and requested < 1:
        raise ValidationError(f"worker count must be >= 1, got {requested}")
    if requested is None:
        env = os.environ.get(env_var, "").strip()
        if env:
            try:
                requested = int(env)
            except ValueError:
                raise ValidationError(
                    f"{env_var} must be an integer, got {env!r}"
                ) from None
            if requested < 1:
                raise ValidationError(
                    f"{env_var} must be >= 1, got {requested}"
                )
    if requested is None:
        requested = os.cpu_count() or 1
    if n_tasks is not None:
        requested = min(requested, n_tasks)
    return max(1, requested)


class _DeadlineWatchdog:
    """A reusable daemon thread serving one :func:`run_with_deadline` at a time.

    Spawning a fresh thread per call costs ~50 µs, which at full-corpus
    scale (thousands of deadline-bounded cells) adds whole percents to the
    run; a pooled watchdog brings the per-call cost down to a queue
    round-trip.  A watchdog whose deadline expired is simply *not* returned
    to the idle pool by the caller — the stuck thread re-idles itself only
    if and when the abandoned call finally finishes, so reuse never hands a
    new task to a busy thread.
    """

    __slots__ = ("inbox", "thread")

    def __init__(self) -> None:
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-deadline"
        )
        self.thread.start()

    def _loop(self) -> None:
        while True:
            fn, box, done = self.inbox.get()
            try:
                box["value"] = fn()
            except BaseException as exc:  # re-raised in the caller
                box["error"] = exc
            finally:
                done.set()
                with _WATCHDOG_LOCK:
                    _IDLE_WATCHDOGS.append(self)


#: Idle reusable watchdog threads (valid only for ``_WATCHDOG_PID``).
_IDLE_WATCHDOGS: list[_DeadlineWatchdog] = []
_WATCHDOG_LOCK = threading.Lock()
_WATCHDOG_PID: int | None = None


class _DeadlineAlarm(BaseException):
    """Raised by the ``SIGALRM`` handler when an armed deadline fires.

    A ``BaseException`` so task code catching broad ``Exception`` cannot
    swallow its own deadline.
    """


#: Monotonic instant the armed alarm deadline expires; ``None`` when no
#: alarm deadline is armed (also the nesting guard: an inner deadline falls
#: back to the watchdog thread).
_ALARM_DEADLINE: float | None = None

#: Current repeating ``ITIMER_REAL`` tick in seconds (0 = not ticking) and
#: how many consecutive ticks found no armed deadline.
_ALARM_TICK = 0.0
_ALARM_IDLE_TICKS = 0

#: Pid that installed the SIGALRM handler (itimers do not survive fork).
_ALARM_PID: int | None = None

#: Stop the idle tick after this many handler runs with nothing armed.
_ALARM_IDLE_LIMIT = 8


def _on_alarm(signum: int, frame: object) -> None:
    global _ALARM_DEADLINE, _ALARM_TICK, _ALARM_IDLE_TICKS
    if _ALARM_DEADLINE is not None:
        _ALARM_IDLE_TICKS = 0
        if time.monotonic() >= _ALARM_DEADLINE:
            _ALARM_DEADLINE = None
            raise _DeadlineAlarm()
    else:
        # Between deadline-bounded calls the timer keeps ticking so the next
        # call arms for free; after a quiet spell it switches itself off.
        _ALARM_IDLE_TICKS += 1
        if _ALARM_IDLE_TICKS >= _ALARM_IDLE_LIMIT:
            _ALARM_TICK = 0.0
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def _disarm_alarm() -> None:
    global _ALARM_TICK
    _ALARM_TICK = 0.0
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    except (OSError, ValueError):  # pragma: no cover - shutdown edge
        pass


def _run_with_alarm(fn: Callable[[], Any], timeout: float) -> tuple[bool, Any]:
    """Deadline via a repeating ``SIGALRM`` tick: the work runs *inline*.

    Arming a call is a Python variable write — the interval timer is
    started once and shared across calls (it disarms itself after a quiet
    spell), so at full-corpus scale the per-cell cost is nanoseconds where
    a per-call watchdog thread pays two context switches (~50 µs).  The
    trade-offs: expiry lands within one tick *after* the deadline (the
    tick is ``timeout/8``, clamped to [1 ms, 250 ms]), and the interrupt
    fires between Python bytecodes, so a hang inside a non-returning C
    call is not cut — callers needing that guarantee get the watchdog
    fallback, and the supervised process pool kills such workers outright.
    """
    global _ALARM_DEADLINE, _ALARM_TICK, _ALARM_IDLE_TICKS, _ALARM_PID
    if _ALARM_PID != os.getpid():
        # First use in this process (or first after fork, which clears both
        # the inherited handler's relevance and the itimer).
        signal.signal(signal.SIGALRM, _on_alarm)
        # A tick landing during interpreter shutdown — after Python signal
        # dispatch is torn down — would kill the process with SIGALRM's
        # default action ("Alarm clock"); stop the timer before that.
        atexit.register(_disarm_alarm)
        _ALARM_PID = os.getpid()
        _ALARM_TICK = 0.0
    tick = min(max(timeout / 8.0, 0.001), 0.25)
    if _ALARM_TICK == 0.0 or tick < _ALARM_TICK * 0.75:
        # Not ticking yet, or the current tick is too coarse to enforce
        # this call's deadline promptly.
        _ALARM_TICK = tick
        signal.setitimer(signal.ITIMER_REAL, tick, tick)
    _ALARM_IDLE_TICKS = 0
    _ALARM_DEADLINE = time.monotonic() + timeout
    try:
        value = fn()
    except _DeadlineAlarm:
        return False, None
    finally:
        _ALARM_DEADLINE = None
    return True, value


def _event_loop_running() -> bool:
    """Whether an asyncio event loop is running in the *current* thread.

    The SIGALRM deadline path must never engage on such a thread: the
    handler raises :class:`_DeadlineAlarm` between arbitrary bytecodes, so
    with a running loop the interrupt could land inside the loop's own
    dispatch machinery (or a callback that is not the deadline-bounded
    work) and tear the server down instead of cutting one call.  A server
    normally drives blocking work from executor threads — which already
    take the watchdog branch — but a synchronous call made directly from a
    loop callback must fall back too.
    """
    return asyncio.events._get_running_loop() is not None


def run_with_deadline(fn: Callable[[], Any], timeout: float) -> tuple[bool, Any]:
    """Run ``fn()`` under a *timeout*-second deadline.

    Returns ``(True, result)`` when the call finishes in time and
    ``(False, None)`` when the deadline passes first; exceptions raised by
    ``fn`` propagate to the caller.  On a POSIX main thread the deadline is
    a shared interval timer and ``fn`` runs inline (near-zero cost,
    interrupts the work in place); everywhere else — non-main threads,
    nested deadlines, a thread running an asyncio event loop (the serving
    front end), Windows — ``fn`` runs on a pooled watchdog daemon thread
    that is abandoned when the deadline passes (it cannot block
    interpreter shutdown, and any result it eventually produces is
    discarded).
    """
    global _WATCHDOG_PID
    if (
        _ALARM_DEADLINE is None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
        and not _event_loop_running()
    ):
        return _run_with_alarm(fn, timeout)
    with _WATCHDOG_LOCK:
        # Threads do not survive fork: a child inheriting the parent's idle
        # list would enqueue onto watchdogs that no longer run.
        if _WATCHDOG_PID != os.getpid():
            _IDLE_WATCHDOGS.clear()
            _WATCHDOG_PID = os.getpid()
        watchdog = _IDLE_WATCHDOGS.pop() if _IDLE_WATCHDOGS else None
    if watchdog is None:
        watchdog = _DeadlineWatchdog()
    box: dict[str, Any] = {}
    done = threading.Event()
    watchdog.inbox.put((fn, box, done))
    if not done.wait(timeout):
        return False, None
    if "error" in box:
        raise box["error"]
    return True, box["value"]


#: Monotonically increasing tokens distinguishing concurrent runs.
_RUN_TOKENS = itertools.count()

#: Per-worker state installed by the pool initializer.  Keyed by a per-run
#: token: thread-pool workers share this module with the caller (and with any
#: concurrent runs).
_WORKER_STATE: dict[int, Any] = {}

#: Sentinel distinguishing "no shared state given" from ``None`` state.
_UNSET = object()


def _run_task(token: int, task_fn: Callable[..., Any], args: Sequence[Any]) -> Any:
    """Thread-pool worker entry point using the state installed for this run."""
    return task_fn(_WORKER_STATE[token], *args)


# --------------------------------------------------------------------------- #
# supervised process workers
# --------------------------------------------------------------------------- #


def _supervised_worker_main(
    conn: connection.Connection,
    init_fn: Callable[[Any], Any],
    payload: Any,
    memory_limit_bytes: int | None = None,
) -> None:
    """Worker loop: decode the payload once, then serve tasks until told to stop.

    Exceptions raised by a task are reported as data (the exception object
    plus its formatted traceback) so the worker survives to run the next
    task; only process death (crash, kill, deadline SIGKILL) ends the loop
    abnormally — which the parent detects through the process sentinel.

    With *memory_limit_bytes* set, an ``RLIMIT_AS`` soft cap is armed after
    start-up (see :func:`repro.utils.resources.apply_memory_limit`): a task
    exceeding its budget sees allocation fail as :class:`MemoryError` —
    reported as data like any exception — instead of growing until the OS
    OOM-kills an arbitrary process.
    """
    chaos.mark_worker()  # kill9 chaos rules may really kill this process
    if memory_limit_bytes is not None:
        resources.apply_memory_limit(memory_limit_bytes)
    state = init_fn(payload)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, task_fn, args = message
        try:
            outcome: tuple = ("ok", task_fn(state, *args))
        except BaseException as exc:
            outcome = ("exc", exc, traceback.format_exc())
        try:
            conn.send((index, outcome))
        except Exception:
            # Unpicklable result or exception: send pickles before writing,
            # so nothing partial went out — report the traceback instead.
            tb = (
                outcome[2]
                if outcome[0] == "exc"
                else f"result of task {index} could not be pickled"
            )
            conn.send((index, ("exc", None, tb)))
    conn.close()


class _SupervisedWorker:
    """One supervised worker process plus its parent-side bookkeeping."""

    __slots__ = ("conn", "process", "current", "deadline")

    def __init__(
        self,
        init_fn: Callable[[Any], Any],
        payload: Any,
        memory_limit_bytes: int | None = None,
    ) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_supervised_worker_main,
            args=(child_conn, init_fn, payload, memory_limit_bytes),
            name="repro-pool-worker",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.current: int | None = None  # index of the in-flight task
        self.deadline: float | None = None

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass

    def reap(self, *, timeout: float = 5.0) -> None:
        try:
            self.process.join(timeout)
        except (OSError, ValueError, AssertionError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass


def _death_kind(exitcode: int | None, memory_limit_bytes: int | None) -> str:
    """Classify a worker death: ``"oom"`` under an armed memory budget.

    ``RLIMIT_AS`` normally surfaces as a polite :class:`MemoryError` (the
    worker reports it as data), but an allocation failure in a spot that
    cannot raise — stack growth, the allocator itself, a C extension that
    ``abort()``\\ s on ``NULL`` — kills the process with a signal.  With a
    budget armed that signal death is attributed to the budget; without one
    it stays a generic ``"crash"``.
    """
    if memory_limit_bytes is None or exitcode is None or exitcode >= 0:
        return "crash"
    fatal = {
        getattr(signal, name, None) for name in ("SIGKILL", "SIGSEGV", "SIGABRT", "SIGBUS")
    }
    return "oom" if -exitcode in {int(s) for s in fatal if s is not None} else "crash"


def _supervised_imap(
    task_fn: Callable[..., Any],
    task_list: Sequence[tuple],
    *,
    max_workers: int,
    init_fn: Callable[[Any], Any],
    payload: Any,
    task_timeout: float | None,
    memory_limit_bytes: int | None = None,
) -> Iterator[Any]:
    """Stream ``("ok", result) | ("exc", exc, tb) | ("fail", TaskFailure)``
    per task, in submission order, over supervised worker processes.

    Worker deaths feed the resource governor's ``respawn`` breaker: every
    crash/oom death counts a consecutive failure, every delivered result a
    success.  While the breaker is open (a crash *storm* — deaths with no
    successful deliveries in between) dead workers are not replaced;
    remaining tasks run in the parent serially instead of respawn-looping.
    """
    n_tasks = len(task_list)
    governor = resources.governor()
    workers = [
        _SupervisedWorker(init_fn, payload, memory_limit_bytes)
        for _ in range(min(max_workers, n_tasks))
    ]
    results: dict[int, tuple] = {}
    next_task = 0
    inline_state: Any = _UNSET

    def dispatch(worker: _SupervisedWorker) -> None:
        nonlocal next_task
        worker.current = None
        worker.deadline = None
        while next_task < n_tasks:
            index = next_task
            next_task += 1
            try:
                worker.conn.send((index, task_fn, task_list[index]))
            except (OSError, ValueError, BrokenPipeError):
                # The worker died between completions; its sentinel will
                # surface the crash, but this task was never delivered —
                # leave it for the replacement worker.
                next_task = index
                return
            worker.current = index
            if task_timeout is not None:
                worker.deadline = time.monotonic() + task_timeout
            return

    def fail_and_respawn(worker: _SupervisedWorker, failure: TaskFailure) -> None:
        index = workers.index(worker)
        if worker.current is not None:
            results[worker.current] = ("fail", failure)
        worker.kill()
        worker.reap(timeout=1.0)
        if failure.kind in ("crash", "oom"):
            # Deadline kills are parent policy, not a faulty backend; only
            # uncommanded deaths count against the respawn breaker.
            governor.record_failure("respawn", failure.message)
            if not governor.allow("respawn"):
                workers.pop(index)  # storm: fence off instead of respawning
                return
        replacement = _SupervisedWorker(init_fn, payload, memory_limit_bytes)
        workers[index] = replacement
        dispatch(replacement)

    def run_remaining_inline() -> None:
        """Respawn breaker open and no workers left: finish in the parent.

        Exactly the worker loop's semantics — results/exceptions reported
        as data, deadlines enforced via :func:`run_with_deadline` — so the
        consumer cannot tell the rungs apart except by wall-clock.  An
        injected ``kill9`` chaos rule degrades to a raise here (the parent
        is not a supervised worker), which is what lets a storm converge.
        """
        nonlocal next_task, inline_state
        if inline_state is _UNSET:
            inline_state = init_fn(payload)
        while next_task < n_tasks:
            index = next_task
            next_task += 1
            call = lambda i=index: task_fn(inline_state, *task_list[i])  # noqa: E731
            try:
                if task_timeout is None:
                    results[index] = ("ok", call())
                else:
                    completed, value = run_with_deadline(call, task_timeout)
                    if completed:
                        results[index] = ("ok", value)
                    else:
                        results[index] = (
                            "fail",
                            TaskFailure(
                                "timeout",
                                f"task {index} exceeded the {task_timeout:.6g}s "
                                "deadline (in-parent serial fallback)",
                            ),
                        )
            except Exception as exc:
                results[index] = ("exc", exc, traceback.format_exc())

    try:
        for worker in workers:
            dispatch(worker)
        yield_index = 0
        while yield_index < n_tasks:
            while yield_index in results:
                yield results.pop(yield_index)
                yield_index += 1
            if yield_index >= n_tasks:
                break
            if not workers:
                # Every worker was fenced off by the respawn breaker; all
                # missing results are undispatched tasks — run them here.
                run_remaining_inline()
                continue
            busy = [w for w in workers if w.current is not None]
            if not busy:
                # Nothing in flight but results are still missing: tasks
                # were lost without a crash record — a logic error worth
                # failing loudly over rather than spinning forever.
                raise WorkerCrashed(
                    f"supervised pool lost track of task {yield_index} "
                    f"({len(results)} buffered, {next_task}/{n_tasks} dispatched)"
                )
            timeout = None
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            sentinels = {w.process.sentinel: w for w in busy}
            conns = {w.conn: w for w in busy}
            ready = connection.wait(
                list(conns) + list(sentinels), timeout=timeout
            )
            handled: set[int] = set()
            for obj in ready:
                worker = conns.get(obj)
                crashed = False
                if worker is None:
                    worker = sentinels.get(obj)
                    if worker is None or id(worker) in handled:
                        continue
                    crashed = True
                if id(worker) in handled:
                    continue
                handled.add(id(worker))
                # Even on a sentinel event, drain any result the worker
                # managed to send before dying — that task did complete.
                delivered = False
                try:
                    if not crashed or worker.conn.poll():
                        index, outcome = worker.conn.recv()
                        results[index] = outcome
                        delivered = True
                        governor.record_success("respawn")
                except (EOFError, OSError):
                    crashed = True
                if delivered:
                    worker.current = None
                    worker.deadline = None
                    if crashed:
                        # Completed its task, then died (e.g. kill between
                        # send and the next recv): no task lost, replace it.
                        fail_and_respawn(
                            worker,
                            TaskFailure("crash", "worker died after completing its task"),
                        )
                    else:
                        dispatch(worker)
                elif crashed:
                    worker.process.join(0.2)  # let exitcode populate
                    exitcode = worker.process.exitcode
                    kind = _death_kind(exitcode, memory_limit_bytes)
                    detail = (
                        f"worker process died (exit code {exitcode}) "
                        f"while running task {worker.current}"
                    )
                    if kind == "oom":
                        detail += (
                            f"; killed under the armed {memory_limit_bytes}-byte "
                            "memory budget (RLIMIT_AS)"
                        )
                    fail_and_respawn(worker, TaskFailure(kind, detail))
            if task_timeout is not None:
                now = time.monotonic()
                for worker in list(workers):
                    if (
                        worker.current is not None
                        and worker.deadline is not None
                        and now >= worker.deadline
                    ):
                        fail_and_respawn(
                            worker,
                            TaskFailure(
                                "timeout",
                                f"task {worker.current} exceeded the "
                                f"{task_timeout:.6g}s deadline; worker killed",
                            ),
                        )
    finally:
        for worker in workers:
            worker.kill()
        for worker in workers:
            worker.reap()


def _deliver(outcome: tuple, failure_mode: str) -> Any:
    """Translate one supervised-pool outcome into the caller-facing value."""
    kind = outcome[0]
    if kind == "ok":
        return outcome[1]
    if kind == "exc":
        exc, tb = outcome[1], outcome[2]
        if isinstance(exc, BaseException):
            exc.__cause__ = _RemoteTraceback(tb)
            raise exc
        raise WorkerCrashed(f"task raised an unpicklable exception:\n{tb}")
    failure: TaskFailure = outcome[1]
    if failure_mode == "result":
        return failure
    if failure.kind == "timeout":
        raise TaskDeadlineExceeded(failure.message)
    raise WorkerCrashed(failure.message)


# --------------------------------------------------------------------------- #
# the public map/imap API
# --------------------------------------------------------------------------- #


def imap_with_state(
    task_fn: Callable[..., Any],
    tasks: Iterable[Sequence[Any]],
    *,
    executor: str = "serial",
    max_workers: int | None = None,
    init_fn: Callable[[Any], Any] | None = None,
    payload: Any = None,
    shared_state: Any = _UNSET,
    task_timeout: float | None = None,
    failure_mode: str = "raise",
    memory_limit_bytes: int | None = None,
) -> Iterator[Any]:
    """Streaming :func:`map_with_state`: yield results in submission order.

    Same contract and parameters as :func:`map_with_state`, but results are
    yielded one at a time as they become available (the *i*-th yield is the
    result of the *i*-th task, so consumers can aggregate incrementally
    without the full result list ever being materialised).  The serial back
    end executes each task lazily when its result is requested; the pool
    back ends submit work as workers free up and shut the pool down when the
    generator is exhausted or closed early.

    With ``task_timeout`` set, every task's execution is bounded (see the
    module docstring for how each back end enforces it); ``failure_mode``
    selects whether crashes/timeouts raise (``"raise"``, default) or are
    yielded in-stream as :class:`TaskFailure` values (``"result"``).

    ``memory_limit_bytes`` arms a per-worker ``RLIMIT_AS`` soft cap on the
    process back end (over-budget tasks fail as :class:`MemoryError` /
    ``"oom"`` instead of OOM-killing the box); the in-process back ends
    share the caller's address space and ignore it.
    """
    if executor not in EXECUTORS:
        raise ValidationError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    if failure_mode not in ("raise", "result"):
        raise ValidationError(
            f"failure_mode must be 'raise' or 'result', got {failure_mode!r}"
        )
    if task_timeout is not None and task_timeout <= 0:
        raise ValidationError(f"task_timeout must be > 0, got {task_timeout}")
    task_list = [tuple(t) for t in tasks]

    if executor == "serial" or len(task_list) <= 1:
        if shared_state is not _UNSET:
            state = shared_state
        else:
            if init_fn is None:
                raise ValidationError("map_with_state needs init_fn or shared_state")
            state = init_fn(payload)
        for t in task_list:
            if task_timeout is None:
                yield task_fn(state, *t)
                continue
            completed, value = run_with_deadline(
                lambda t=t: task_fn(state, *t), task_timeout
            )
            if completed:
                yield value
            else:
                failure = TaskFailure(
                    "timeout",
                    f"task exceeded the {task_timeout:.6g}s deadline "
                    "(watchdog thread abandoned)",
                )
                if failure_mode == "raise":
                    raise TaskDeadlineExceeded(failure.message)
                yield failure
        return

    if executor == "process":
        if init_fn is None:
            raise ValidationError("map_with_state needs init_fn for pool executors")
        stream = _supervised_imap(
            task_fn,
            task_list,
            max_workers=effective_workers(max_workers, len(task_list)),
            init_fn=init_fn,
            payload=payload,
            task_timeout=task_timeout,
            memory_limit_bytes=memory_limit_bytes,
        )
        try:
            for outcome in stream:
                yield _deliver(outcome, failure_mode)
        finally:
            stream.close()
        return

    # thread back end
    token = next(_RUN_TOKENS)
    use_shared = shared_state is not _UNSET
    if not use_shared and init_fn is None:
        raise ValidationError("map_with_state needs init_fn for pool executors")
    _WORKER_STATE[token] = shared_state if use_shared else init_fn(payload)
    pool = concurrent.futures.ThreadPoolExecutor(
        max_workers=effective_workers(max_workers, len(task_list))
    )
    timed_out = False
    try:
        futures = [pool.submit(_run_task, token, task_fn, t) for t in task_list]
        for index, future in enumerate(futures):
            try:
                yield (
                    future.result()
                    if task_timeout is None
                    else future.result(timeout=task_timeout)
                )
            except concurrent.futures.TimeoutError:
                timed_out = True
                future.cancel()  # not started yet -> never runs
                failure = TaskFailure(
                    "timeout",
                    f"task {index} exceeded the {task_timeout:.6g}s deadline "
                    "(worker thread cannot be reclaimed)",
                )
                if failure_mode == "raise":
                    raise TaskDeadlineExceeded(failure.message) from None
                yield failure
    finally:
        # Abandoned mid-stream (interruption, strict-mode abort): drop the
        # queued work instead of finishing it behind the caller's back.  A
        # pool with timed-out (stuck) threads cannot be waited on; release
        # any chaos-injected hangs so interpreter shutdown is not stalled.
        if timed_out:
            chaos.release_hangs()
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
        _WORKER_STATE.pop(token, None)  # thread workers share this module


def map_with_state(
    task_fn: Callable[..., Any],
    tasks: Iterable[Sequence[Any]],
    *,
    executor: str = "serial",
    max_workers: int | None = None,
    init_fn: Callable[[Any], Any] | None = None,
    payload: Any = None,
    shared_state: Any = _UNSET,
    task_timeout: float | None = None,
    failure_mode: str = "raise",
    memory_limit_bytes: int | None = None,
) -> list[Any]:
    """Run ``task_fn(state, *task)`` for every task and return results in task order.

    Parameters
    ----------
    task_fn:
        Module-level callable (so it can cross a process boundary) receiving
        the per-worker state followed by the task's own arguments.
    tasks:
        Argument tuples, one per task.
    executor:
        ``"process"``, ``"thread"`` or ``"serial"``.
    max_workers:
        Worker cap for the pool back ends; ``None`` resolves through
        :func:`effective_workers` (``REPRO_JOBS`` env override, then the CPU
        count, clamped to the task count).
    init_fn / payload:
        Build the per-worker state as ``init_fn(payload)``.  Both must be
        picklable for the process back end.  Required for ``"process"``;
        optional for the in-process back ends when *shared_state* is given.
    shared_state:
        Ready-made state for the in-process back ends (``"serial"`` and
        ``"thread"``), short-circuiting the payload round trip.  Ignored by
        the process back end, which always decodes *payload* worker-side.
    task_timeout / failure_mode:
        Per-task deadline and crash/timeout reporting; see
        :func:`imap_with_state`.
    """
    return list(
        imap_with_state(
            task_fn,
            tasks,
            executor=executor,
            max_workers=max_workers,
            init_fn=init_fn,
            payload=payload,
            shared_state=shared_state,
            task_timeout=task_timeout,
            failure_mode=failure_mode,
            memory_limit_bytes=memory_limit_bytes,
        )
    )
