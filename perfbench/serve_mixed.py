"""The ``serve_mixed`` workload: open-loop traffic against ``repro-dag serve``.

Runs as its own process, started by ``run.py``.  It makes the request pool
from the workload seed, starts the server (several times, to time set-up),
drives the measured phases from one asyncio loop over at most ``nproc``
keep-alive connections, stops the server, and then checks every answer
against a serial reference.  Prints one JSON line.

Traffic: every request asks for the paper's AntColony layering of one corpus
graph.  Half are first-sight misses; half repeat a graph whose first request
was due at least ``REPEAT_LAG_S`` earlier, so its answer is already cached.
Latency counts from each request's due time, so waiting for a free
connection is included.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any

from common import digest, emit, median, percentile

import numpy as np

import inputs
import tracer as tracing
from repro.graph.io import to_json_dict

#: The nominal rate (about half the measured knee) and its request count.
NOMINAL_RATE = 40.0
NOMINAL_REQUESTS = 1000
#: Unmeasured misses sent first, so early repeats have answers to hit.
WARMUP_REQUESTS = 40
#: A repeat targets a graph first requested at least this long before.
REPEAT_LAG_S = 1.0
#: The latency limit that ``max_rps`` must meet at p99.
P99_LIMIT_MS = 100.0
#: The ``max_rps`` ladder: rungs 5% apart around the nominal rate (rung 0).
LADDER_STEP = 1.05
LADDER_LOWEST, LADDER_HIGHEST = -40, 60
#: Length of one ladder probe.
PROBE_S = 3.0
#: Server set-ups timed per run; the last one serves the measured phases.
SERVER_STARTS = 3
REQUEST_TIMEOUT_S = 10.0


@dataclass
class Request:
    due: float  # seconds after the phase start
    graph: int  # index into the pool
    repeat: bool
    sent: float = 0.0
    done: float = 0.0
    lag: float = 0.0
    status: int = 0
    body: dict | None = None


class Pool:
    """Corpus graphs in seeded order, and which of them were already asked for."""

    def __init__(self, seed: int, tracer: tracing.Tracer | None) -> None:
        with tracing.span(tracer, "datasets.generate"):
            entries = inputs.corpus(seed)
        self.rng = np.random.default_rng(seed)
        self.entries = [entries[int(i)] for i in self.rng.permutation(len(entries))]
        self.bodies = [
            json.dumps({"graph": to_json_dict(e.graph), "name": e.name}).encode("utf-8")
            for e in self.entries
        ]
        self.next_fresh = 0
        #: (schedule time of the graph's first request, graph index)
        self.first_seen: list[tuple[float, int]] = []
        self.eligible = 0  # first_seen[:eligible] may be repeated
        self.clock = 0.0  # schedule time at which the next phase starts

    def fresh_left(self) -> int:
        return len(self.entries) - self.next_fresh

    def schedule(self, rate: float, count: int, *, repeats: bool = True) -> list[Request]:
        """*count* requests at *rate*, half misses and half repeats."""
        kinds = np.zeros(count, dtype=bool)
        if repeats:
            kinds[: count // 2] = True
            self.rng.shuffle(kinds)
        requests = []
        for i in range(count):
            due = i / rate
            now = self.clock + due
            while (
                self.eligible < len(self.first_seen)
                and self.first_seen[self.eligible][0] <= now - REPEAT_LAG_S
            ):
                self.eligible += 1
            if kinds[i] and self.eligible:
                graph = self.first_seen[int(self.rng.integers(0, self.eligible))][1]
                requests.append(Request(due=due, graph=graph, repeat=True))
                continue
            if self.next_fresh >= len(self.entries):
                raise RuntimeError("request pool exhausted: too many first-sight misses")
            graph = self.next_fresh
            self.next_fresh += 1
            self.first_seen.append((now, graph))
            requests.append(Request(due=due, graph=graph, repeat=False))
        self.clock += count / rate + REPEAT_LAG_S
        return requests


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #


#: Talks to the local server directly, whatever proxy the environment names.
_DIRECT = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Server:
    """One ``repro-dag serve --port 0 --jobs 1`` child process."""

    def __init__(self, run_dir: str, index: int) -> None:
        self.log_path = os.path.join(run_dir, f"server-{index}.out")
        cache_dir = os.path.join(run_dir, f"serve-cache-{index}")
        started = time.monotonic()
        with open(self.log_path, "w") as out, open(self.log_path + ".err", "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1",
                 "--cache-dir", cache_dir],
                stdout=out,
                stderr=err,
            )
        try:
            self.port, self.backend = self._announced(deadline=started + 60.0)
            while self.get("/readyz")[0] != 200:
                if time.monotonic() > started + 60.0:
                    raise RuntimeError("server never became ready")
                time.sleep(0.005)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.startup_s = time.monotonic() - started

    def _announced(self, deadline: float) -> tuple[int, str]:
        port = backend = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} during start-up")
            with open(self.log_path) as fh:
                for line in fh:
                    if line.startswith("serving on http://"):
                        port = int(line.strip().rsplit(":", 1)[1])
                    elif line.startswith("walk kernel:"):
                        backend = line.strip().rsplit(", ", 1)[1].split()[0]
            if port is not None and backend is not None:
                return port, backend
            time.sleep(0.005)
        raise RuntimeError("server did not announce its port")

    def get(self, path: str) -> tuple[int, dict[str, Any]]:
        try:
            with _DIRECT.open(f"http://127.0.0.1:{self.port}{path}", timeout=5) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as exc:
            return exc.code, {}
        except OSError:
            return 0, {}

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# --------------------------------------------------------------------------- #
# the open-loop client
# --------------------------------------------------------------------------- #


def _request_bytes(body: bytes) -> bytes:
    head = (
        "POST /layer HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n"
        f"content-length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _exchange(reader: asyncio.StreamReader, writer: asyncio.StreamWriter, data: bytes):
    writer.write(data)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


async def _drive(port: int, pool: Pool, requests: list[Request], connections: int) -> None:
    """Send *requests* open-loop over *connections* keep-alive connections."""
    queue: asyncio.Queue[Request | None] = asyncio.Queue()
    start = time.monotonic() + 0.05

    async def feeder() -> None:
        for request in requests:
            delay = start + request.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            request.lag = time.monotonic() - (start + request.due)
            queue.put_nowait(request)
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker() -> None:
        reader = writer = None
        try:
            while True:
                request = await queue.get()
                if request is None:
                    return
                request.sent = time.monotonic()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    async with asyncio.timeout(REQUEST_TIMEOUT_S):
                        request.status, request.body = await _exchange(
                            reader, writer, _request_bytes(pool.bodies[request.graph])
                        )
                except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                        TimeoutError, ValueError):
                    request.status = 0
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                request.done = time.monotonic()
        finally:
            if writer is not None:
                writer.close()
                await writer.wait_closed()

    tasks = [asyncio.ensure_future(feeder())] + [
        asyncio.ensure_future(worker()) for _ in range(connections)
    ]
    await asyncio.gather(*tasks)
    for request in requests:
        # Times relative to each request's due time.
        request.sent -= start + request.due
        request.done -= start + request.due


def _latency_ms(requests: list[Request]) -> list[float]:
    return [r.done * 1000.0 for r in requests]


def _phase_ok(requests: list[Request]) -> bool:
    """p99 within the limit, every request answered 200, no growing backlog."""
    if any(r.status != 200 for r in requests):
        return False
    if percentile(_latency_ms(requests), 99) > P99_LIMIT_MS:
        return False
    quarter = max(1, len(requests) // 4)
    first = median(r.sent for r in requests[:quarter])
    last = median(r.sent for r in requests[-quarter:])
    return last - first <= P99_LIMIT_MS / 1000.0 / 2


def _max_rps(port: int, pool: Pool, connections: int, nominal: list[Request], budget_s: float,
             log: list[dict]) -> float:
    """Highest rung of the fixed ladder whose probe passes :func:`_phase_ok`.

    Rungs are ``NOMINAL_RATE * LADDER_STEP**k``.  The walk starts at the
    highest rung under 90% of the capacity the nominal phase implies
    (connections / mean time a request holds its connection), climbs while
    probes pass and descends while they fail; each probe is a ``PROBE_S``
    open-loop phase of the same traffic mix.  No probe starts after
    *budget_s* seconds.
    """
    holding = sum(r.done - r.sent for r in nominal) / len(nominal)
    estimate = 0.9 * connections / holding
    k = int(math.floor(math.log(estimate / NOMINAL_RATE, LADDER_STEP)))
    k = max(LADDER_LOWEST, min(LADDER_HIGHEST, k))
    deadline = time.monotonic() + budget_s

    def probe(k: int) -> bool:
        rate = NOMINAL_RATE * LADDER_STEP**k
        requests = pool.schedule(rate, int(round(rate * PROBE_S)))
        asyncio.run(_drive(port, pool, requests, connections))
        ok = _phase_ok(requests)
        log.append({"rung": k, "rate": rate, "ok": ok,
                    "p99_ms": percentile(_latency_ms(requests), 99), "requests": requests})
        return ok

    def affordable(k: int) -> bool:
        """Enough unseen graphs left for the probe's misses."""
        return pool.fresh_left() > NOMINAL_RATE * LADDER_STEP**k * PROBE_S

    best = k if affordable(k) and probe(k) else None
    step = 1 if best is not None else -1
    while (
        LADDER_LOWEST <= k + step <= LADDER_HIGHEST
        and time.monotonic() < deadline
        and affordable(k + step)
    ):
        k += step
        ok = probe(k)
        if ok:
            best = k
        if ok != (step > 0):
            break
    if best is None:
        best = k - 1  # below the lowest rung probed
    return NOMINAL_RATE * LADDER_STEP**best


# --------------------------------------------------------------------------- #
# checks and metrics
# --------------------------------------------------------------------------- #


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    cache_b, cache_a = before.get("cache", {}), after.get("cache", {})
    return {
        "batches": after["batches"] - before["batches"],
        "batched_cells": after["batched_cells"] - before["batched_cells"],
        "rejected": sum(
            after[k] - before[k]
            for k in ("rejected_overload", "rejected_oversize", "rejected_draining")
        ),
        "memory_hits": cache_a.get("memory_hits", 0) - cache_b.get("memory_hits", 0),
        "memory_misses": cache_a.get("memory_misses", 0) - cache_b.get("memory_misses", 0),
    }


def _serving_metrics(requests: list[Request], delta: dict[str, float]) -> dict[str, float]:
    hits = [r for r in requests if r.status == 200 and r.body.get("cached")]
    misses = [r for r in requests if r.status == 200 and not r.body.get("cached")]
    lookups = delta["memory_hits"] + delta["memory_misses"]
    return {
        "serving.hit_p50_ms": percentile(_latency_ms(hits), 50),
        "serving.miss_p50_ms": percentile(_latency_ms(misses), 50),
        "serving.miss_overhead_p50_ms": percentile(
            [(r.done - r.body["running_time"]) * 1000.0 for r in misses], 50
        ),
        "serving.batch_cells_mean": (
            delta["batched_cells"] / delta["batches"] if delta["batches"] else 0.0
        ),
        "serving.conn_wait_p50_ms": percentile([r.sent * 1000.0 for r in requests], 50),
        "serving.rejected": float(delta["rejected"]),
        "loadgen.lag_ms_max": max(r.lag for r in requests) * 1000.0,
        "cache.get_calls": float(lookups),
        "cache.memory_hit_ratio": delta["memory_hits"] / lookups if lookups else 0.0,
    }


def _check_nominal(
    pool: Pool, warmup: list[Request], nominal: list[Request], delta: dict, errors: list[str]
) -> None:
    """Every nominal request answered 200; every repeat a cache hit whose
    answer equals the graph's first answer; every hit a memory hit.

    A first-sight graph can hit too: the cache is keyed by graph content,
    and two corpus entries can be the same small graph.
    """
    bad = [r for r in nominal if r.status != 200]
    if bad:
        errors.append(f"{len(bad)} of {len(nominal)} nominal requests were not answered 200")
    first: dict[int, dict] = {}
    for r in warmup + nominal:
        if r.status != 200:
            continue
        answer = {k: v for k, v in r.body.items() if k not in ("cached", "attempts")}
        if not r.repeat:
            first[r.graph] = answer
            continue
        if not r.body.get("cached"):
            errors.append(f"repeat of {pool.entries[r.graph].name} was not a cache hit")
        elif answer != first.get(r.graph):
            errors.append(f"repeat of {pool.entries[r.graph].name} differs from its first answer")
    hits = sum(1 for r in nominal if r.status == 200 and r.body.get("cached"))
    if delta["memory_hits"] != hits:
        errors.append(f"{hits} cached answers but {delta['memory_hits']} cache memory hits")


def _check_references(pool: Pool, phases: list[list[Request]], errors: list[str]) -> int:
    answers: dict[int, dict] = {}
    for requests in phases:
        for r in requests:
            if r.status == 200:
                answers.setdefault(r.graph, r.body["metrics"])
                if r.body["metrics"] != answers[r.graph]:
                    errors.append(f"two answers for {pool.entries[r.graph].name} differ")
    for graph, metrics in sorted(answers.items()):
        want = json.loads(json.dumps(inputs.reference_metrics(pool.entries[graph].graph)))
        if metrics != want:
            name = pool.entries[graph].name
            errors.append(f"answer for {name} differs from the serial reference")
    return len(answers)


def _write_spans(path: str, tracer: tracing.Tracer, requests: list[Request]) -> None:
    """Request spans (due to answer) with their connection-wait children."""
    for i, r in enumerate(requests):
        parent = len(tracer.spans)
        tracer.spans.append(["serving.request", r.due, r.due + r.done, -1, i])
        tracer.spans.append(["loadgen.conn_wait", r.due, r.due + r.sent, parent, i])
    tracer.write(path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="budget of the max_rps ladder")
    parser.add_argument("--trace-out", help="trace the run and write its spans here")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace_out else None
    pool = Pool(args.seed, tracer)
    inputs_s = time.monotonic() - args.spawned_at
    connections = len(os.sched_getaffinity(0))
    errors: list[str] = []

    starts = []
    server = None
    for index in range(SERVER_STARTS):
        if server is not None:
            if server.stop() != 0:
                errors.append(f"server exited with {server.proc.returncode} on SIGTERM")
        server = Server(args.run_dir, index)
        starts.append(server.startup_s)
    setup_s = inputs_s + median(starts)
    env = {
        "nproc": connections,
        "connections": connections,
        "server_thread_support": server.backend,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    result: dict[str, Any] = {"setup_s": setup_s, "env": env, "errors": errors}
    if server.backend in ("unavailable", "none"):
        errors.append(f"server walk kernel backend is {server.backend!r}")

    try:
        warmup = pool.schedule(NOMINAL_RATE, WARMUP_REQUESTS, repeats=False)
        asyncio.run(_drive(server.port, pool, warmup, connections))
        before = server.get("/stats")[1]
        nominal = pool.schedule(NOMINAL_RATE, NOMINAL_REQUESTS)
        asyncio.run(_drive(server.port, pool, nominal, connections))
        delta = _stats_delta(before, server.get("/stats")[1])
        phases = [warmup, nominal]
        _check_nominal(pool, warmup, nominal, delta, errors)
        ladder: list[dict] = []
        if tracer is None:
            max_rps = _max_rps(server.port, pool, connections, nominal, args.seconds, ladder)
            phases.extend(step.pop("requests") for step in ladder)
        ready = server.get("/readyz")[1]
        if ready.get("degraded"):
            errors.append(f"resource governor degraded rungs: {ready['degraded']}")
    finally:
        code = server.stop()
    if code != 0:
        errors.append(f"server exited with {code} on SIGTERM")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    checked = _check_references(pool, phases, errors)
    # Quality and digest over the graphs the seed alone decides (warm-up and
    # nominal phase), not over the adaptive ladder's.
    answered = {r.graph: r.body["metrics"] for r in warmup + nominal if r.status == 200}
    outputs = sorted((pool.entries[g].name, metrics) for g, metrics in answered.items())
    latencies = _latency_ms(nominal)
    attempted = sum(len(p) for p in phases)
    result.update(
        {
            "run_s": max(r.due + r.done for r in nominal),
            "peak_rss_mb": peak_rss_mb,
            "aco_objective_mean": (
                sum(m["objective"] for m in answered.values()) / len(answered) if answered else 0.0
            ),
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "requests": attempted,
            "failed": sum(1 for p in phases for r in p if r.status != 200),
            "digest": digest(outputs),
            "references_checked": checked,
            "server_starts_s": starts,
        }
    )
    if tracer is None:
        result["max_rps"] = max_rps
        result["ladder"] = ladder
    else:
        # The server is another process: its layers show only through /stats
        # deltas and response fields, which the untraced run records as
        # well, so tracing adds no work here and trace.overhead_s stays 0.
        per_layer = tracing.zero_metrics()
        totals, _ = tracer.self_times()
        per_layer["datasets.generate_s"] = totals.get("datasets.generate", 0.0)
        per_layer.update(_serving_metrics(nominal, delta))
        result["per_layer"] = per_layer
        _write_spans(args.trace_out, tracer, nominal)
    emit(result)


if __name__ == "__main__":
    main()
