"""Graceful drain: SIGTERM mid-megabatch against a real server process.

The contract (README "Serving"): on SIGTERM the server stops accepting,
requests already *in flight* in the batch worker run to completion and get
their real answers, requests still *queued* answer ``503``, and the
process exits ``0`` — all within the drain window.  POSIX-gated alongside
``tests/test_chaos.py`` (signals, ``REPRO_CHAOS``).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.utils import chaos

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="signal-driven drain is POSIX-only"
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _request(port: int, method: str, path: str, body=None, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        raw = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, raw, {"content-type": "application/json"} if raw else {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _poll_stats(port: int, predicate, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    last: dict = {}
    while time.monotonic() < deadline:
        try:
            _, last = _request(port, "GET", "/stats", timeout=5.0)
        except OSError:
            last = {}
        if last and predicate(last):
            return last
        time.sleep(0.05)
    raise AssertionError(f"stats never satisfied predicate; last={last}")


class TestSigtermDrain:
    def test_inflight_completes_queued_rejected_exit_zero(self):
        env = {
            **os.environ,
            "PYTHONPATH": REPO_SRC,
            # The in-flight cell stalls 2 s inside pack setup, holding the
            # batch worker busy long enough to observe the drain ordering.
            chaos.CHAOS_ENV: "slow@2:AntColony:inflight-*",
        }
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--drain-timeout",
                "30",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            announce = proc.stdout.readline().strip()
            match = re.search(r"http://127\.0\.0\.1:(\d+)$", announce)
            assert match, f"bad announce line: {announce!r}"
            port = int(match.group(1))

            graph = {"edges": [[0, 1], [1, 2], [0, 2]]}
            aco = {"n_ants": 2, "n_tours": 2, "seed": 0}
            results: dict[str, tuple[int, dict]] = {}

            def post(name: str) -> None:
                results[name] = _request(
                    port,
                    "POST",
                    "/layer",
                    {"graph": graph, "method": "AntColony", "aco": aco, "name": name},
                )

            inflight = threading.Thread(target=post, args=("inflight-1",))
            inflight.start()
            # Wait until the slow cell is actually inside the batch worker.
            _poll_stats(port, lambda s: s["inflight"] >= 1)

            queued = threading.Thread(target=post, args=("queued-1",))
            queued.start()
            _poll_stats(port, lambda s: s["queue_depth"] >= 1)

            proc.send_signal(signal.SIGTERM)
            inflight.join(timeout=30)
            queued.join(timeout=30)
            assert not inflight.is_alive() and not queued.is_alive()

            status, body = results["inflight-1"]
            assert status == 200, f"in-flight request must complete: {body}"
            assert body["name"] == "inflight-1" and body["metrics"]["n_vertices"] == 3

            status, body = results["queued-1"]
            assert status == 503, f"queued request must be shed: {body}"
            assert body["error"] == "draining"

            assert proc.wait(timeout=30) == 0
            # And new connections are refused after drain.
            with pytest.raises(OSError):
                _request(port, "GET", "/healthz", timeout=2.0)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.stderr.close()
