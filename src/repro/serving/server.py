"""Resilient layout-as-a-service: the ``repro-dag serve`` front end.

One asyncio loop thread accepts HTTP/JSON layering requests.  A request
whose answer is in the memory layer of the
:class:`~repro.experiments.cache.ResultCache` is answered right there, on
the loop thread, before admission: it takes no queue slot and no worker
time.  Every other request goes through a bounded admission queue to a
single warm worker thread, which turns each drained batch into one
:class:`~repro.experiments.engine.ExperimentEngine` run with the
``"batched"`` executor, so concurrent cache misses coalesce into
cross-graph :class:`~repro.aco.problem.PackedProblems` megabatches exactly
as a CLI corpus run would — same planner, same grouping by canonical
method token and ``nd_width``, same cache keys.

There is no batching window.  The worker takes everything queued the
moment it is free, so a lone miss is dispatched at once, and requests
coalesce only while they wait behind an in-flight batch: batches grow with
load instead of every request paying a fixed sleep.

Robustness contract (see README "Serving"):

* **Deadlines compose.**  Every request carries a budget
  (``deadline_s``, default :attr:`ServeConfig.request_timeout_s`); the
  smallest remaining budget in a batch becomes the engine's per-cell
  deadline, so the PR 6 timeout machinery bounds pack setup and execution.
  A request whose budget passes — in the queue or mid-pack — answers
  ``504`` without poisoning its batch-mates.
* **Backpressure, not collapse.**  Admission beyond
  :attr:`ServeConfig.max_queue` queued requests answers ``429`` with a
  ``Retry-After`` hint; accepted work is never silently dropped.  Memory
  hits are answered before this check, so they are served under any load.
* **Bounded crash retries.**  Only ``kind == "crash"`` cell failures
  (a worker process died under the cell) are requeued, at most
  :attr:`ServeConfig.crash_retries` times; exceptions and timeouts answer
  immediately with a correctly-labelled error body.
* **Graceful drain.**  SIGTERM/SIGINT stops accepting connections,
  answers queued requests ``503``, lets the in-flight pack finish and
  exits 0 — with a hard-kill fallback after
  :attr:`ServeConfig.drain_timeout_s`.

Packs run in-process on the batch worker thread; their only parallelism is
the walk kernel's ``REPRO_ACO_THREADS`` threads, so the server never forks.

``REPRO_CHAOS`` rules target request cells by ``method:name`` exactly as
they target CLI cells, because the request path *is* the engine path (a
cache hit executes no cell, on either path).
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.aco import _native
from repro.aco.params import ACOParams
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ANT_COLONY,
    BUILTIN_METHODS,
    DEFAULT_BATCH_SIZE,
    CellResult,
    ExperimentEngine,
    MethodSpec,
    WorkUnit,
    unit_cache_key,
)
from repro.graph.digraph import DiGraph
from repro.graph.io import from_json_dict
from repro.utils import resources
from repro.utils.exceptions import ReproError, ValidationError

from repro.serving.http import (
    HttpError,
    HttpRequest,
    read_request,
    response_bytes,
)

__all__ = [
    "LayoutServer",
    "ServeConfig",
    "build_unit",
    "serve",
]

#: Fields a layering request may carry; anything else is a 400.
REQUEST_FIELDS = frozenset(
    {"graph", "method", "aco", "n_colonies", "nd_width", "name", "deadline_s"}
)

#: Floor for the engine deadline derived from request budgets, so a batch
#: admitted with milliseconds left still gets a meaningful cell timeout.
MIN_CELL_TIMEOUT = 0.05

#: Seconds of slack past a request's own budget before the connection
#: handler gives up waiting for its batch outcome (response plumbing time).
RESPONSE_GRACE = 0.25


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`LayoutServer` instance.

    A batch is whatever queued while the worker was busy, so no setting
    sizes it or delays it.
    """

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (announced on stdout).
    port: int = 8377
    #: Pack size cap handed to the engine's batch planner.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Admission bound: queued requests beyond this answer ``429``.  Memory
    #: hits never queue, so they are answered even when the queue is full.
    max_queue: int = 256
    #: Default per-request budget when the request carries no ``deadline_s``.
    request_timeout_s: float = 30.0
    #: Upper bound accepted for a request's own ``deadline_s``.
    max_request_timeout_s: float = 300.0
    #: ``Retry-After`` hint (seconds) in ``429`` responses.
    retry_after_s: float = 1.0
    #: Serving-level re-runs of ``kind == "crash"`` cell failures.
    crash_retries: int = 1
    #: Grace window for SIGTERM drain before the hard-kill fallback.
    drain_timeout_s: float = 10.0
    #: Result-cache directory shared with CLI runs (``None``: memory only).
    cache_dir: str | None = None
    #: Largest accepted request body in bytes.
    max_body_bytes: int = 32 * 1024 * 1024
    #: Per-pack working-set budget in bytes (``--memory-budget``).  Requests
    #: whose own cost estimate exceeds it answer ``413`` at admission, and
    #: the batch engine splits planned megabatches to fit (``None``: off).
    memory_budget: int | None = None
    #: Print the ``serving on http://...`` line once the socket is bound.
    announce: bool = True
    #: Run the packed-runtime prewarm before reporting ready.
    prewarm: bool = True
    #: Hard-exit the process (``os._exit(1)``) when the drain deadline
    #: passes.  The CLI sets this; in-process test servers leave it off so
    #: an expired drain cancels tasks instead of killing the test runner.
    exit_on_drain_timeout: bool = False


# --------------------------------------------------------------------------- #
# request decoding
# --------------------------------------------------------------------------- #


def _parse_graph(data: Any) -> DiGraph:
    """Decode the request's graph: full repro-digraph JSON or edge shorthand."""
    if not isinstance(data, Mapping):
        raise ValidationError("request field 'graph' must be a JSON object")
    if data.get("format") == "repro-digraph":
        return from_json_dict(dict(data))
    if "edges" in data:
        graph = DiGraph()
        vertices = data.get("vertices", [])
        if not isinstance(vertices, list):
            raise ValidationError("graph shorthand 'vertices' must be a list of ids")
        for vertex in vertices:
            graph.add_vertex(vertex)
        edges = data["edges"]
        if not isinstance(edges, list):
            raise ValidationError("graph shorthand 'edges' must be a list of pairs")
        for pair in edges:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValidationError(f"malformed edge {pair!r}: expected [u, v]")
            graph.add_edge(pair[0], pair[1])
        if graph.n_vertices == 0:
            raise ValidationError("graph shorthand decoded to an empty graph")
        return graph
    raise ValidationError(
        "request field 'graph' must be repro-digraph JSON or {'edges': [[u, v], ...]}"
    )


def _parse_method(payload: Mapping[str, Any], nd_width: float) -> MethodSpec:
    """Decode the request's method spec (builtins or a full Ant Colony)."""
    name = payload.get("method", ANT_COLONY)
    if name in BUILTIN_METHODS:
        if payload.get("aco") is not None or payload.get("n_colonies") is not None:
            raise ValidationError(
                f"'aco' / 'n_colonies' only apply to method {ANT_COLONY!r}, "
                f"not {name!r}"
            )
        return MethodSpec.builtin(name)
    if name != ANT_COLONY:
        raise ValidationError(
            f"unknown method {name!r}; choose from "
            f"{sorted(BUILTIN_METHODS) + [ANT_COLONY]}"
        )
    aco = payload.get("aco") or {}
    if not isinstance(aco, Mapping):
        raise ValidationError("request field 'aco' must be a JSON object")
    aco = dict(aco)
    # Deterministic by default: an unseeded request bypasses both the
    # result cache and the pack planner.  Clients that *want* fresh entropy
    # pass "seed": null explicitly, and every such request runs anew.
    if "seed" not in aco:
        aco["seed"] = 0
    if "nd_width" in aco:
        if float(aco["nd_width"]) != nd_width:
            raise ValidationError(
                f"aco.nd_width ({aco['nd_width']}) contradicts request "
                f"nd_width ({nd_width}); set one"
            )
    else:
        aco["nd_width"] = nd_width
    try:
        params = ACOParams(**aco)
    except TypeError as exc:
        raise ValidationError(f"bad 'aco' parameters: {exc}") from exc
    n_colonies = payload.get("n_colonies")
    n_colonies = 1 if n_colonies is None else int(n_colonies)
    return MethodSpec.ant_colony(params, n_colonies=n_colonies)


def build_unit(
    payload: Any,
    *,
    default_deadline_s: float = ServeConfig.request_timeout_s,
    max_deadline_s: float = ServeConfig.max_request_timeout_s,
) -> tuple[WorkUnit, float]:
    """Decode one request body into a :class:`WorkUnit` and its budget.

    Raises :class:`ValidationError` (→ 400) on any defect; never partially
    succeeds.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError("request body must be a JSON object")
    unknown = sorted(set(payload) - REQUEST_FIELDS)
    if unknown:
        raise ValidationError(f"unknown request fields {unknown}")
    if "graph" not in payload:
        raise ValidationError("request field 'graph' is required")
    try:
        nd_width = float(payload.get("nd_width", 1.0))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"nd_width must be a number: {exc}") from exc
    if nd_width <= 0:
        raise ValidationError(f"nd_width must be > 0, got {nd_width}")
    graph = _parse_graph(payload["graph"])
    method = _parse_method(payload, nd_width)
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise ValidationError("request field 'name' must be a string")
    try:
        deadline_s = float(payload.get("deadline_s", default_deadline_s))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"deadline_s must be a number: {exc}") from exc
    if not deadline_s > 0:
        raise ValidationError(f"deadline_s must be > 0, got {deadline_s}")
    deadline_s = min(deadline_s, max_deadline_s)
    unit = WorkUnit(graph=graph, method=method, nd_width=nd_width, graph_name=name)
    return unit, deadline_s


def _deadline_body(name: str, detail: str) -> dict[str, Any]:
    """The ``504`` body of a request whose budget ran out."""
    return {"error": "deadline", "kind": "timeout", "name": name, "detail": detail}


def _success_payload(cell: CellResult, attempts: int) -> dict[str, Any]:
    assert cell.metrics is not None
    return {
        "name": cell.graph_name,
        "algorithm": cell.algorithm,
        "nd_width": cell.nd_width,
        "metrics": cell.metrics.as_dict(),
        "running_time": cell.running_time,
        "cached": cell.cached,
        "attempts": attempts,
    }


# --------------------------------------------------------------------------- #
# the server
# --------------------------------------------------------------------------- #


@dataclass
class _Pending:
    """One admitted request waiting for (or riding in) a megabatch."""

    unit: WorkUnit
    budget: float
    deadline: float  # absolute, time.monotonic() terms
    future: "asyncio.Future[tuple[int, dict[str, Any]]]"
    retries_left: int
    attempts: int = 1


@dataclass
class _Counters:
    """Monotonic serving counters surfaced by ``GET /stats``."""

    accepted: int = 0
    rejected_overload: int = 0
    rejected_oversize: int = 0
    rejected_draining: int = 0
    bad_requests: int = 0
    batches: int = 0
    batched_cells: int = 0
    crash_requeues: int = 0
    responses: dict[str, int] = field(default_factory=dict)

    def count_response(self, status: int) -> None:
        key = str(status)
        self.responses[key] = self.responses.get(key, 0) + 1


class LayoutServer:
    """The asyncio front end plus its single warm batch-worker thread."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.port: int | None = None
        self.counters = _Counters()
        # Repeats must hit the two-layer cache even without a configured
        # directory: a server-owned temp dir backs the disk layer then.
        if self.config.cache_dir:
            self._tmp_cache_dir: tempfile.TemporaryDirectory[str] | None = None
            self._cache = ResultCache(self.config.cache_dir)
        else:
            self._tmp_cache_dir = tempfile.TemporaryDirectory(
                prefix="repro-serve-cache-"
            )
            self._cache = ResultCache(self._tmp_cache_dir.name)
        self._queue: deque[_Pending] = deque()
        self._writers: set[asyncio.StreamWriter] = set()
        self._ready = False
        self._draining = False
        self._closing = False
        self._finished = False
        self._inflight = 0
        self._exit_code = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._worker: ThreadPoolExecutor | None = None
        self._batcher: "asyncio.Task[None] | None" = None
        self._wake: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._drain_guard: asyncio.TimerHandle | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def run(self) -> int:
        """Serve until drained; returns the process exit code."""
        # Resolve the walk-kernel thread count before binding the socket so
        # an invalid REPRO_ACO_THREADS fails startup with the canonical
        # error instead of surfacing mid-batch.
        n_threads = _native.effective_threads()
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers(loop)
        self._batcher = loop.create_task(self._batch_loop())
        if self.config.prewarm:
            # Warm the packed-colony runtime (native kernel load) off-loop
            # so the first real megabatch pays no lazy initialisation cost.
            # Failure is non-fatal: the pure-Python engine path still serves.
            try:
                await loop.run_in_executor(self._worker, _prewarm_runtime)
            except Exception:
                pass
        self._ready = True
        if self.config.announce:
            # The URL line stays bare: load tools anchor a port regex on it.
            print(f"serving on http://{self.config.host}:{self.port}", flush=True)
            print(
                f"walk kernel: {n_threads} thread(s), "
                f"{_native.thread_support()} backend",
                flush=True,
            )
        await self._stopped.wait()
        return self._exit_code

    def _install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        for sig in (getattr(signal, "SIGTERM", None), getattr(signal, "SIGINT", None)):
            if sig is None:
                continue
            try:
                loop.add_signal_handler(sig, self.initiate_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX loop or non-main thread: best-effort fallback.
                try:
                    signal.signal(
                        sig,
                        lambda *_: loop.call_soon_threadsafe(self.initiate_drain),
                    )
                except (ValueError, OSError):
                    pass

    def initiate_drain(self) -> None:
        """Begin the graceful drain (idempotent; safe from a signal handler)."""
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._ready = False
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        assert self._loop is not None and self._wake is not None
        self._drain_guard = self._loop.call_later(
            self.config.drain_timeout_s, self._drain_expired
        )
        if self._server is not None:
            self._server.close()
        # Queued-but-undispatched requests answer 503 immediately; the
        # in-flight pack (if any) runs to completion below.
        while self._queue:
            pending = self._queue.popleft()
            self.counters.rejected_draining += 1
            self._resolve(
                pending,
                503,
                {"error": "draining", "name": pending.unit.resolved_graph_name},
            )
        self._closing = True
        self._wake.set()
        if self._batcher is not None:
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        # Let connection handlers flush the final responses.
        await asyncio.sleep(0.05)
        await self._shutdown(0)

    def _drain_expired(self) -> None:
        if self._finished:
            return
        if self.config.exit_on_drain_timeout:
            # The in-flight pack refused to die within the grace window;
            # abandon everything.
            os._exit(1)
        if self._loop is not None:
            self._loop.create_task(self._shutdown(1, force=True))

    async def _shutdown(self, code: int, *, force: bool = False) -> None:
        if self._finished:
            return
        self._finished = True
        self._exit_code = code
        if self._drain_guard is not None:
            self._drain_guard.cancel()
        if force and self._batcher is not None:
            self._batcher.cancel()
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), 1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pass
        for writer in list(self._writers):
            writer.close()
        if self._worker is not None:
            self._worker.shutdown(wait=False, cancel_futures=force)
        if self._tmp_cache_dir is not None:
            try:
                self._tmp_cache_dir.cleanup()
            except OSError:
                pass
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except HttpError as exc:
                    self.counters.bad_requests += 1
                    self.counters.count_response(exc.status)
                    writer.write(
                        response_bytes(
                            exc.status, {"error": exc.detail}, close=True
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    status, payload, headers = await self._route(request)
                except Exception as exc:  # route bugs must not drop the conn
                    status, payload, headers = (
                        500,
                        {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"},
                        {},
                    )
                close = request.wants_close or self._draining
                self.counters.count_response(status)
                writer.write(response_bytes(status, payload, headers, close=close))
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _route(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        if request.path == "/healthz":
            if request.method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, {"status": "ok"}, {}
        if request.path == "/readyz":
            if request.method != "GET":
                return 405, {"error": "method not allowed"}, {}
            if self._ready and not self._draining:
                # Degraded rungs don't fail readiness — every rung serves
                # bit-identical results — but operators get to see them.
                return 200, {
                    "status": "ready",
                    "degraded": resources.governor().degraded(),
                }, {}
            return 503, {"status": "draining" if self._draining else "warming"}, {}
        if request.path == "/stats":
            if request.method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, self._stats_payload(), {}
        if request.path == "/layer":
            if request.method != "POST":
                return 405, {"error": "method not allowed"}, {}
            return await self._layer(request)
        return 404, {"error": f"no such endpoint {request.path!r}"}, {}

    def _stats_payload(self) -> dict[str, Any]:
        counters = self.counters
        governor = resources.governor()
        payload: dict[str, Any] = {
            "accepted": counters.accepted,
            "rejected_overload": counters.rejected_overload,
            "rejected_oversize": counters.rejected_oversize,
            "rejected_draining": counters.rejected_draining,
            "bad_requests": counters.bad_requests,
            "batches": counters.batches,
            "batched_cells": counters.batched_cells,
            "crash_requeues": counters.crash_requeues,
            "responses": dict(counters.responses),
            "queue_depth": len(self._queue),
            "inflight": self._inflight,
            "ready": self._ready,
            "draining": self._draining,
            "resources": {
                "memory_budget_bytes": self.config.memory_budget,
                "degraded": governor.degraded(),
                "breakers": governor.snapshot(),
            },
        }
        if self._cache is not None:
            hits = self._cache.hit_stats()
            payload["cache"] = {
                "memory_hits": hits.memory_hits,
                "memory_misses": hits.memory_misses,
                "disk_hits": hits.disk_hits,
                "disk_misses": hits.disk_misses,
            }
        return payload

    async def _layer(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        assert self._loop is not None and self._wake is not None
        if self._draining:
            self.counters.rejected_draining += 1
            return 503, {"error": "draining"}, {}
        try:
            payload = request.json()
            unit, budget = build_unit(
                payload,
                default_deadline_s=self.config.request_timeout_s,
                max_deadline_s=self.config.max_request_timeout_s,
            )
        except HttpError as exc:
            self.counters.bad_requests += 1
            return exc.status, {"error": exc.detail}, {}
        except ReproError as exc:
            self.counters.bad_requests += 1
            return 400, {"error": "bad request", "detail": str(exc)}, {}
        hit = self._memory_hit(unit)
        if hit is not None:
            return 200, hit, {}
        if len(self._queue) >= self.config.max_queue:
            self.counters.rejected_overload += 1
            retry_after = self.config.retry_after_s
            return (
                429,
                {"error": "overloaded", "retry_after_s": retry_after},
                {"Retry-After": str(max(1, math.ceil(retry_after)))},
            )
        if self.config.memory_budget is not None:
            spec = unit.method
            aco = dict(spec.aco_params or {})
            estimate = resources.estimate_pack_cost(
                [unit.graph],
                n_colonies=spec.n_colonies,
                n_ants=int(aco.get("n_ants", 10)),
                n_tours=int(aco.get("n_tours", 10)),
                alpha=float(aco.get("alpha", 1.0)),
            )
            if estimate.bytes > self.config.memory_budget:
                self.counters.rejected_oversize += 1
                return (
                    413,
                    {
                        "error": "request exceeds the server memory budget",
                        "name": unit.resolved_graph_name,
                        "memory_budget_bytes": self.config.memory_budget,
                        "estimate": estimate.as_dict(),
                    },
                    {},
                )
        pending = _Pending(
            unit=unit,
            budget=budget,
            deadline=time.monotonic() + budget,
            future=self._loop.create_future(),
            retries_left=self.config.crash_retries,
        )
        self.counters.accepted += 1
        self._queue.append(pending)
        self._wake.set()
        try:
            status, body = await asyncio.wait_for(
                pending.future, budget + RESPONSE_GRACE
            )
        except asyncio.TimeoutError:
            status, body = 504, _deadline_body(
                unit.resolved_graph_name,
                f"no result within the {budget:.6g}s request budget",
            )
        return status, body, {}

    def _memory_hit(self, unit: WorkUnit) -> dict[str, Any] | None:
        """The answer to *unit* when the cache's memory layer holds it.

        Runs on the loop thread and never reads disk (disk hits go through
        the worker).  The body is the one the engine builds for a hit.
        """
        if not unit.method.cacheable:
            return None
        hit = self._cache.lookup_memory(unit_cache_key(unit))
        if hit is None:
            return None
        cell = ExperimentEngine._finished(
            unit, hit.metrics, None, hit.running_time, cached=True
        )
        return _success_payload(cell, cell.attempts)

    # ------------------------------------------------------------------ #
    # batching
    # ------------------------------------------------------------------ #

    async def _batch_loop(self) -> None:
        assert self._loop is not None and self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._closing and not self._queue:
                return
            if not self._queue:
                continue
            # Everything queued leaves now.  What arrives while this batch
            # runs sets the wake event again and forms the next batch.
            batch = list(self._queue)
            self._queue.clear()
            self._inflight = len(batch)
            try:
                await self._loop.run_in_executor(
                    self._worker, self._run_batch, batch
                )
            finally:
                self._inflight = 0

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Worker-thread entry: one drained batch → one engine run."""
        now = time.monotonic()
        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline - now <= 0:
                self._resolve_threadsafe(
                    pending,
                    504,
                    _deadline_body(
                        pending.unit.resolved_graph_name,
                        "request budget expired while queued",
                    ),
                )
            else:
                live.append(pending)
        if not live:
            return
        # The tightest remaining budget in the batch becomes the engine's
        # per-cell deadline: the pack budget (deadline × survivors, PR 6
        # semantics) then bounds the whole megabatch, and no member can be
        # held past its own deadline by a slower batch-mate's allowance.
        cell_timeout = max(
            MIN_CELL_TIMEOUT, min(p.deadline - now for p in live)
        )
        engine = ExperimentEngine(
            executor="batched",
            batch_size=self.config.batch_size,
            cache=self._cache,
            cell_timeout=cell_timeout,
            memory_budget=self.config.memory_budget,
        )
        self.counters.batches += 1
        self.counters.batched_cells += len(live)
        try:
            results = engine.run([p.unit for p in live])
        except BaseException as exc:  # engine bugs must not kill the loop
            detail = f"{type(exc).__name__}: {exc}"
            for pending in live:
                self._resolve_threadsafe(
                    pending,
                    500,
                    {
                        "error": "batch failed",
                        "kind": "exception",
                        "name": pending.unit.resolved_graph_name,
                        "detail": detail,
                    },
                )
            return
        for pending, cell in zip(live, results):
            self._finish(pending, cell)

    def _finish(self, pending: _Pending, cell: CellResult) -> None:
        """Map one cell outcome onto the pending request (worker thread)."""
        if cell.ok and time.monotonic() <= pending.deadline:
            self._resolve_threadsafe(
                pending, 200, _success_payload(cell, pending.attempts)
            )
            return
        if cell.ok:
            # The engine's cell deadline is floored at MIN_CELL_TIMEOUT, so a
            # cell can succeed after its request's budget.  The answer is
            # cached all the same: a retry is a memory hit.
            detail = f"result came after the {pending.budget:.6g}s request budget"
            self._resolve_threadsafe(pending, 504, _deadline_body(cell.graph_name, detail))
            return
        error = cell.error
        assert error is not None
        if error.kind == "crash" and pending.retries_left > 0 and not self._draining:
            pending.retries_left -= 1
            pending.attempts += 1
            assert self._loop is not None
            self._loop.call_soon_threadsafe(self._requeue, pending)
            return
        if error.kind == "timeout":
            self._resolve_threadsafe(
                pending, 504, _deadline_body(cell.graph_name, error.message)
            )
            return
        self._resolve_threadsafe(
            pending,
            500,
            {
                "error": "cell failed",
                "kind": error.kind,
                "exc_type": error.exc_type,
                "name": cell.graph_name,
                "detail": error.message,
            },
        )

    def _requeue(self, pending: _Pending) -> None:
        """Loop-thread re-admission of a crash-kind failure (bounded)."""
        assert self._wake is not None
        if self._draining:
            self.counters.rejected_draining += 1
            self._resolve(
                pending,
                503,
                {"error": "draining", "name": pending.unit.resolved_graph_name},
            )
            return
        self.counters.crash_requeues += 1
        self._queue.append(pending)
        self._wake.set()

    # ------------------------------------------------------------------ #
    # future plumbing
    # ------------------------------------------------------------------ #

    def _resolve(
        self, pending: _Pending, status: int, body: dict[str, Any]
    ) -> None:
        if not pending.future.done():
            pending.future.set_result((status, body))

    def _resolve_threadsafe(
        self, pending: _Pending, status: int, body: dict[str, Any]
    ) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._resolve, pending, status, body)


def _prewarm_runtime() -> None:
    # Imported lazily so `import repro.serving.server` stays cheap.
    from repro.aco.runtime import prewarm

    prewarm()


def serve(config: ServeConfig | None = None) -> int:
    """Blocking entry point: run a :class:`LayoutServer` until drained."""
    server = LayoutServer(config)
    return asyncio.run(server.run())
