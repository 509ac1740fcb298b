"""The layout service: protocol, admission, batching, deadlines, retries.

Drives a real :class:`~repro.serving.LayoutServer` in-process over TCP
(the loop thread, worker thread, admission queue and megabatch path are
all live) plus direct unit tests for the HTTP plumbing, request decoding,
and the crash-retry policy.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import time

import pytest

from repro.experiments.engine import ANT_COLONY, CellError, CellResult, WorkUnit
from repro.graph.digraph import DiGraph
from repro.serving import LayoutServer, ServeConfig, build_unit
from repro.serving.http import HttpError, read_request, response_bytes
from repro.serving.server import _Pending
from repro.utils.exceptions import ValidationError

from serving_harness import (
    DIAMOND,
    FAST_ACO,
    ServerHarness,
    layer_payload,
    unique_graph,
    worker_held,
)


@pytest.fixture(scope="module")
def harness():
    with ServerHarness(ServeConfig(prewarm=False, request_timeout_s=30.0)) as h:
        yield h


def _serial_reference(graphs: dict, aco: dict) -> dict:
    """Metrics of ``aco_layering`` run directly on each graph, by name."""
    from repro.aco import ACOParams, aco_layering
    from repro.layering.metrics import evaluate_layering

    params = ACOParams(**aco)
    return {
        name: evaluate_layering(g, aco_layering(g, params)).as_dict()
        for name, g in graphs.items()
    }


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #


def _parse(raw: bytes, **kwargs):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(run())


class TestHttpLayer:
    def test_parses_post_with_body(self):
        req = _parse(
            b"POST /layer HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi"
        )
        assert req is not None
        assert (req.method, req.path, req.body) == ("POST", "/layer", b"hi")
        assert req.headers["host"] == "x"

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line_raises_400(self):
        with pytest.raises(HttpError) as err:
            _parse(b"GARBAGE\r\n\r\n")
        assert err.value.status == 400

    def test_body_over_limit_raises_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(HttpError) as err:
            _parse(raw, max_body_bytes=10)
        assert err.value.status == 413

    def test_truncated_body_raises_400(self):
        with pytest.raises(HttpError) as err:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
        assert err.value.status == 400

    def test_response_bytes_are_deterministic(self):
        a = response_bytes(200, {"b": 1, "a": 2})
        b = response_bytes(200, {"a": 2, "b": 1})
        assert a == b
        assert b"200 OK" in a and b'{"a": 2, "b": 1}' in a


# --------------------------------------------------------------------------- #
# request decoding
# --------------------------------------------------------------------------- #


class TestBuildUnit:
    def test_shorthand_graph_and_defaults(self):
        unit, budget = build_unit({"graph": DIAMOND, "name": "x"})
        assert unit.graph.n_vertices == 4 and unit.graph.n_edges == 5
        assert unit.method.name == ANT_COLONY
        assert unit.method.aco_params["seed"] == 0  # deterministic by default
        assert unit.resolved_graph_name == "x"
        assert budget == ServeConfig.request_timeout_s

    def test_full_digraph_json_roundtrip(self):
        from repro.graph.io import to_json_dict

        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        unit, _ = build_unit({"graph": to_json_dict(g)})
        assert sorted(unit.graph.vertices()) == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"graph": DIAMOND, "bogus": 1}, "unknown request fields"),
            ({}, "'graph' is required"),
            ({"graph": {"nodes": []}}, "must be repro-digraph JSON"),
            ({"graph": DIAMOND, "method": "Zig"}, "unknown method"),
            ({"graph": DIAMOND, "nd_width": 0}, "nd_width must be > 0"),
            ({"graph": DIAMOND, "deadline_s": -1}, "deadline_s must be > 0"),
            ({"graph": DIAMOND, "aco": {"warp": 9}}, "bad 'aco' parameters"),
            (
                {"graph": DIAMOND, "method": "LPL", "aco": {"seed": 1}},
                "only apply to method",
            ),
            (
                {"graph": DIAMOND, "nd_width": 2.0, "aco": {"nd_width": 3.0}},
                "contradicts",
            ),
        ],
    )
    def test_defects_raise_validation_error(self, payload, fragment):
        with pytest.raises(ValidationError, match=fragment):
            build_unit(payload)

    def test_deadline_clamped_to_maximum(self):
        _, budget = build_unit({"graph": DIAMOND, "deadline_s": 10_000.0})
        assert budget == ServeConfig.max_request_timeout_s

    def test_builtin_method(self):
        unit, _ = build_unit({"graph": DIAMOND, "method": "MinWidth+PL"})
        assert unit.method.name == "MinWidth+PL" and unit.method.aco_params is None


# --------------------------------------------------------------------------- #
# the live server
# --------------------------------------------------------------------------- #


class TestEndpoints:
    def test_healthz_and_readyz(self, harness):
        assert harness.request("GET", "/healthz")[0] == 200
        status, body, _ = harness.request("GET", "/readyz")
        assert status == 200 and body == {"status": "ready", "degraded": []}

    def test_unknown_endpoint_404(self, harness):
        assert harness.request("GET", "/nope")[0] == 404

    def test_wrong_method_405(self, harness):
        assert harness.request("POST", "/healthz", {})[0] == 405
        assert harness.request("GET", "/layer")[0] == 405

    def test_bad_json_body_400(self, harness):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", harness.port, timeout=30)
        conn.request("POST", "/layer", b"{not json", {"content-type": "application/json"})
        assert conn.getresponse().status == 400
        conn.close()

    def test_stats_counters_present(self, harness):
        status, body, _ = harness.request("GET", "/stats")
        assert status == 200
        for key in ("accepted", "batches", "responses", "queue_depth", "cache"):
            assert key in body


class TestLayering:
    def test_layer_request_and_cached_repeat(self, harness):
        payload = layer_payload("core-repeat")
        status, first = harness.layer(payload)
        assert status == 200
        assert first["name"] == "core-repeat" and first["algorithm"] == ANT_COLONY
        assert first["metrics"]["n_vertices"] == 4
        assert first["metrics"]["dummy_vertex_count"] >= 1

        status, second = harness.layer(payload)
        assert status == 200
        assert second["cached"] is True
        assert second["metrics"] == first["metrics"]

    def test_builtin_method_served(self, harness):
        status, body = harness.layer(
            {"graph": DIAMOND, "method": "LPL", "name": "core-lpl"}
        )
        assert status == 200 and body["algorithm"] == "LPL"

    def test_concurrent_burst_coalesces(self, harness):
        before = harness.request("GET", "/stats")[1]["batches"]
        burst = unique_graph("burst")  # uncached: the burst is six misses
        payloads = [layer_payload(f"burst-{i}", graph=burst) for i in range(6)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(harness.layer, payloads))
        assert all(status == 200 for status, _ in outcomes)
        tables = {body["metrics"]["objective"] for _, body in outcomes}
        assert len(tables) == 1  # same graph, same spec, same answer
        after = harness.request("GET", "/stats")[1]["batches"]
        # Six concurrent misses must NOT take six engine runs.
        assert after - before < 6

    def test_expired_queue_budget_answers_504(self, harness, monkeypatch):
        # An uncached graph behind a held worker: the 1 ms budget runs out
        # in the queue.  (A memory hit would be answered 200 at once.)
        payload = layer_payload(
            "core-expired", graph=unique_graph("core-expired"), deadline_s=0.001
        )
        with worker_held(harness, monkeypatch):
            status, body = harness.layer(payload)
        assert status == 504
        assert body["kind"] == "timeout" and body["name"] == "core-expired"


class TestMemoryHits:
    """Memory hits are answered on the loop thread, before admission."""

    def test_hit_answers_while_the_worker_is_busy(self, harness, monkeypatch):
        payload = layer_payload("hit-early", graph=unique_graph("hit-early"))
        status, first = harness.layer(payload)
        assert status == 200 and first["cached"] is False
        with worker_held(harness, monkeypatch) as held:
            before = harness.stats()
            # Even a budget too small for any queueing is met by a hit.
            status, again = harness.layer({**payload, "deadline_s": 0.001})
            assert not held.done()  # answered before the slow cell finished
            after = harness.stats()
        assert status == 200 and again["cached"] is True
        assert again == {**first, "cached": True}
        assert after["batches"] == before["batches"]
        assert after["accepted"] == before["accepted"]
        assert after["cache"]["memory_hits"] == before["cache"]["memory_hits"] + 1

    def test_misses_queued_behind_a_busy_worker_share_one_batch(
        self, harness, monkeypatch
    ):
        from repro.graph.generators import att_like_dag
        from repro.graph.io import to_json_dict

        graphs = {f"queued-{n}": att_like_dag(n, seed=n) for n in (12, 16, 20)}
        reference = _serial_reference(graphs, FAST_ACO)
        payloads = [
            layer_payload(name, graph=to_json_dict(g)) for name, g in graphs.items()
        ]
        before = harness.stats()
        with worker_held(harness, monkeypatch):
            with concurrent.futures.ThreadPoolExecutor(len(payloads)) as pool:
                futures = [pool.submit(harness.layer, p) for p in payloads]
                harness.wait_for_stats(lambda s: s["queue_depth"] >= len(payloads))
        after = harness.stats()
        outcomes = [f.result() for f in futures]
        assert [status for status, _ in outcomes] == [200] * len(payloads)
        assert {body["name"]: body["metrics"] for _, body in outcomes} == reference
        # The held cell's batch, then one batch for all three queued misses.
        assert after["batches"] - before["batches"] == 2
        assert after["batched_cells"] - before["batched_cells"] == 4

    def test_unseeded_requests_are_never_cached(self, harness):
        payload = layer_payload(
            "unseeded", graph=unique_graph("unseeded"), aco={**FAST_ACO, "seed": None}
        )
        answers = [harness.layer(payload) for _ in range(2)]
        assert [status for status, _ in answers] == [200, 200]
        assert [body["cached"] for _, body in answers] == [False, False]


class TestBackpressure:
    def test_admission_beyond_queue_bound_answers_429(self, monkeypatch):
        # A held worker keeps admitted requests in the queue, so the bound
        # is observable without timing races.
        with ServerHarness(ServeConfig(max_queue=2, prewarm=False)) as h:
            warm = layer_payload("bp-warm", graph=unique_graph("bp-warm"))
            assert h.layer(warm)[0] == 200
            with worker_held(h, monkeypatch, seconds=2.0):
                with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [
                        pool.submit(h.layer, layer_payload(f"bp-{i}")) for i in range(2)
                    ]
                    h.wait_for_stats(lambda s: s["queue_depth"] >= 2)
                    status, body, headers = h.request(
                        "POST", "/layer", layer_payload("bp-overflow")
                    )
                    assert status == 429
                    assert body["error"] == "overloaded"
                    assert int(headers["Retry-After"]) >= 1
                    # A memory hit needs no queue slot: it is still served.
                    status, body = h.layer(warm)
                    assert status == 200 and body["cached"] is True
            # The admitted requests still complete normally.
            assert all(f.result()[0] == 200 for f in futures)


class TestCrashRetryPolicy:
    """Only ``kind == "crash"`` failures are requeued, and only boundedly."""

    def _pending(self, retries_left):
        unit = WorkUnit(
            graph=_diamond_graph(), method=_aco_spec(), graph_name="crashy"
        )
        return _Pending(
            unit=unit,
            budget=30.0,
            deadline=time.monotonic() + 30.0,
            future=asyncio.get_running_loop().create_future(),
            retries_left=retries_left,
        )

    def _failed_cell(self, kind):
        return CellResult(
            algorithm=ANT_COLONY,
            graph_name="crashy",
            vertex_count=4,
            nd_width=1.0,
            metrics=None,
            running_time=0.0,
            error=CellError(
                exc_type="WorkerCrashed",
                message="worker died",
                traceback="",
                running_time=0.0,
                kind=kind,
            ),
        )

    def test_crash_requeues_then_exhausts(self):
        async def scenario():
            server = LayoutServer(ServeConfig(crash_retries=1, prewarm=False))
            server._loop = asyncio.get_running_loop()
            server._wake = asyncio.Event()
            pending = self._pending(retries_left=1)

            server._finish(pending, self._failed_cell("crash"))
            await asyncio.sleep(0)
            assert not pending.future.done()
            assert list(server._queue) == [pending]
            assert pending.attempts == 2 and pending.retries_left == 0
            assert server.counters.crash_requeues == 1

            server._queue.clear()
            server._finish(pending, self._failed_cell("crash"))
            await asyncio.sleep(0)
            status, body = pending.future.result()
            assert status == 500 and body["kind"] == "crash"

        asyncio.run(scenario())

    @pytest.mark.parametrize("kind,status", [("exception", 500), ("timeout", 504)])
    def test_non_crash_failures_never_requeue(self, kind, status):
        async def scenario():
            server = LayoutServer(ServeConfig(crash_retries=5, prewarm=False))
            server._loop = asyncio.get_running_loop()
            server._wake = asyncio.Event()
            pending = self._pending(retries_left=5)
            server._finish(pending, self._failed_cell(kind))
            await asyncio.sleep(0)
            assert not server._queue
            got_status, body = pending.future.result()
            assert got_status == status and body["kind"] == kind

        asyncio.run(scenario())

    def test_crash_during_drain_fails_without_requeue(self):
        async def scenario():
            server = LayoutServer(ServeConfig(crash_retries=3, prewarm=False))
            server._loop = asyncio.get_running_loop()
            server._wake = asyncio.Event()
            server._draining = True
            pending = self._pending(retries_left=3)
            server._finish(pending, self._failed_cell("crash"))
            await asyncio.sleep(0)
            status, body = pending.future.result()
            assert status == 500 and body["kind"] == "crash"

        asyncio.run(scenario())


def _diamond_graph() -> DiGraph:
    g = DiGraph()
    for u, v in DIAMOND["edges"]:
        g.add_edge(u, v)
    return g


def _aco_spec():
    from repro.aco.params import ACOParams
    from repro.experiments.engine import MethodSpec

    return MethodSpec.ant_colony(ACOParams(n_ants=2, n_tours=2, seed=0))


class TestThreadEnvResolution:
    def test_invalid_thread_env_fails_startup(self, monkeypatch):
        # The walk-kernel thread count is resolved before the socket binds,
        # so a bad REPRO_ACO_THREADS is a startup error with the canonical
        # message, not a mid-batch surprise.
        monkeypatch.setenv("REPRO_ACO_THREADS", "bogus")
        server = LayoutServer(ServeConfig(prewarm=False, announce=False))
        with pytest.raises(
            ValidationError, match="REPRO_ACO_THREADS must be an integer"
        ):
            asyncio.run(server.run())


def _child_pids() -> set[int]:
    """Live child processes of this test process."""
    import glob
    import multiprocessing

    pids = {p.pid for p in multiprocessing.active_children()}
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


class TestDefaultConfig:
    def test_batched_misses_match_serial_reference(self, monkeypatch):
        # The shipped defaults: REPRO_JOBS and REPRO_ACO_THREADS unset, so
        # the walk kernel runs on every CPU and the prewarm runs it first.
        from repro.graph.generators import att_like_dag
        from repro.graph.io import to_json_dict

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_ACO_THREADS", raising=False)
        aco = {"n_ants": 4, "n_tours": 3, "seed": 0}
        graphs = {f"default-{seed}": att_like_dag(30, seed=seed) for seed in (41, 42, 43)}
        reference = _serial_reference(graphs, aco)
        payloads = [
            layer_payload(name, graph=to_json_dict(g), aco=aco)
            for name, g in graphs.items()
        ]

        before = _child_pids()
        with ServerHarness(ServeConfig()) as h:
            # Queue the distinct misses behind a held worker so they share
            # one multi-graph megabatch.
            with worker_held(h, monkeypatch):
                with concurrent.futures.ThreadPoolExecutor(len(payloads)) as pool:
                    futures = [pool.submit(h.layer, p) for p in payloads]
                    h.wait_for_stats(lambda s: s["queue_depth"] >= len(payloads))
            stats = h.stats()
        outcomes = [f.result() for f in futures]
        assert [status for status, _ in outcomes] == [200] * len(payloads)
        assert {body["name"]: body["metrics"] for _, body in outcomes} == reference
        assert stats["batched_cells"] == len(payloads) + 1
        assert stats["batches"] == 2
        assert _child_pids() - before == set()
