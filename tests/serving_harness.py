"""In-process harness driving a :class:`repro.serving.LayoutServer`.

Shared by the serving test modules: runs the server's asyncio loop on a
daemon thread, exposes a blocking HTTP client, and guarantees the drain
path runs on teardown so no loop thread or worker outlives its test.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import itertools
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterator

from repro.serving import LayoutServer, ServeConfig
from repro.utils import chaos

#: A small diamond DAG with one long edge (produces a dummy vertex).
DIAMOND = {"edges": [[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]]}

#: Fast deterministic Ant Colony parameters for request payloads.
FAST_ACO = {"n_ants": 2, "n_tours": 2, "seed": 0}


def unique_graph(tag: str) -> dict:
    """A small DAG no other request shares: its vertex ids carry *tag*."""
    a, b, c = (f"{tag}-{i}" for i in range(3))
    return {"edges": [[a, b], [b, c], [a, c]]}


def layer_payload(name: str, graph: dict | None = None, **extra: Any) -> dict:
    """A deterministic AntColony layering request named *name*."""
    payload = {
        "graph": graph if graph is not None else DIAMOND,
        "method": "AntColony",
        "aco": dict(FAST_ACO),
        "name": name,
    }
    payload.update(extra)
    return payload


class ServerHarness:
    """Run one server on a background thread; drain it on exit."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        base = config or ServeConfig()
        # Tests always need an ephemeral port and quiet startup; everything
        # else comes from the caller's config.
        self.server = LayoutServer(
            ServeConfig(
                **{
                    **base.__dict__,
                    "port": 0,
                    "announce": False,
                    "exit_on_drain_timeout": False,
                }
            )
        )
        self.exit_code: int | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            task = asyncio.ensure_future(self.server.run())
            while self.server.port is None and not task.done():
                await asyncio.sleep(0.005)
            self._ready.set()
            self.exit_code = await task

        asyncio.run(main())

    # ------------------------------------------------------------------ #

    def start(self, timeout: float = 60.0) -> "ServerHarness":
        self._thread.start()
        if not self._ready.wait(timeout) or self.server.port is None:
            raise RuntimeError("server failed to start")
        return self

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        timeout: float = 60.0,
    ) -> tuple[int, dict, dict[str, str]]:
        """One blocking request; returns (status, decoded body, headers)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            raw = json.dumps(body).encode() if body is not None else None
            headers = {"content-type": "application/json"} if raw else {}
            conn.request(method, path, raw, headers)
            resp = conn.getresponse()
            data = resp.read().decode()
            decoded = json.loads(data) if data else {}
            return resp.status, decoded, dict(resp.getheaders())
        finally:
            conn.close()

    def layer(self, payload: dict, *, timeout: float = 60.0) -> tuple[int, dict]:
        status, body, _ = self.request("POST", "/layer", payload, timeout=timeout)
        return status, body

    def stats(self) -> dict:
        return self.request("GET", "/stats")[1]

    def wait_for_stats(
        self, predicate: Callable[[dict], bool], timeout: float = 10.0
    ) -> dict:
        """Poll ``/stats`` until *predicate* holds; fail after *timeout* s."""
        deadline = time.monotonic() + timeout
        while True:
            stats = self.stats()
            if predicate(stats):
                return stats
            if time.monotonic() > deadline:
                raise AssertionError(f"stats never satisfied the predicate: {stats}")
            time.sleep(0.01)

    def drain(self, timeout: float = 30.0) -> int | None:
        """Trigger the graceful drain and join the loop thread."""
        if self._thread.is_alive():
            loop = self.server._loop
            if loop is not None:
                try:
                    loop.call_soon_threadsafe(self.server.initiate_drain)
                except RuntimeError:
                    pass
            self._thread.join(timeout)
        return self.exit_code

    def __enter__(self) -> "ServerHarness":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.drain()


_held_ids = itertools.count()


@contextlib.contextmanager
def worker_held(
    harness: ServerHarness, monkeypatch: Any, seconds: float = 1.5
) -> Iterator[Future]:
    """Keep the batch worker busy on one slow cell while the block runs.

    A ``slow`` chaos rule stalls a fresh miss named ``held-<n>`` inside pack
    setup.  The block starts once that cell's batch is running, so whatever
    it sends queues behind it; the exit waits for the held answer.  Yields
    the future of that answer.
    """
    name = f"held-{next(_held_ids)}"
    monkeypatch.setenv(chaos.CHAOS_ENV, f"slow@{seconds}:AntColony:{name}")
    batches = harness.stats()["batches"]
    with ThreadPoolExecutor(max_workers=1) as pool:
        held = pool.submit(harness.layer, layer_payload(name, graph=unique_graph(name)))
        harness.wait_for_stats(lambda s: s["batches"] > batches and s["inflight"] >= 1)
        yield held
    assert held.result()[0] == 200
    monkeypatch.delenv(chaos.CHAOS_ENV)
