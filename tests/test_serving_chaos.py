"""Chaos acceptance for the layout service.

The acceptance bar from the serving PR: with ``REPRO_CHAOS`` kill9/hang
rules targeting specific request cells, the *unaffected* concurrent
requests return metric tables byte-identical to a fault-free run, and the
*faulted* requests get correctly-labelled error responses (``500`` with
the injected-kill detail; ``504``/``kind=timeout`` for the hang cut by the
request deadline).  Faults ride the normal engine fault plane — the
request path *is* the engine path — so nothing serving-specific needs its
own injection hooks.
"""

from __future__ import annotations

import concurrent.futures
import json
import os

import pytest

from repro.serving import ServeConfig
from repro.utils import chaos

from serving_harness import ServerHarness, layer_payload

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="fault injection is POSIX-only"
)


@pytest.fixture(autouse=True)
def _chaos_hygiene(monkeypatch):
    monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
    monkeypatch.delenv(chaos.FAIL_CELLS_ENV, raising=False)
    chaos.reset_hangs()
    yield
    # Unblock the watchdog thread an expired deadline abandoned mid-hang.
    chaos.release_hangs()


def _chain_graph(n: int) -> dict:
    edges = [[v, v + 1] for v in range(n - 1)]
    edges.append([0, n - 1])
    return {"edges": edges}


#: Four distinct unaffected requests plus the two fault victims.
OK_NAMES = [f"ok-{i}" for i in range(4)]


def _payloads() -> list[dict]:
    payloads = [
        layer_payload(name, graph=_chain_graph(5 + i), deadline_s=30.0)
        for i, name in enumerate(OK_NAMES)
    ]
    payloads.append(layer_payload("victim-kill", graph=_chain_graph(9), deadline_s=30.0))
    # The hang victim's own small budget becomes the batch's engine
    # deadline, so the 60 s hang is cut after ~1 s without stalling the
    # generously-budgeted batch-mates past their own deadlines.
    payloads.append(layer_payload("victim-hang", graph=_chain_graph(10), deadline_s=1.0))
    return payloads


def _run_all(harness: ServerHarness) -> dict[str, tuple[int, dict]]:
    payloads = _payloads()
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(payloads)) as pool:
        outcomes = list(pool.map(harness.layer, payloads))
    return {p["name"]: outcome for p, outcome in zip(payloads, outcomes)}


def _metric_table(results: dict[str, tuple[int, dict]]) -> dict[str, str]:
    """The deterministic per-request table: metrics only, byte-serialised."""
    return {
        name: json.dumps(results[name][1]["metrics"], sort_keys=True)
        for name in OK_NAMES
    }


class TestServingUnderChaos:
    def test_unaffected_requests_identical_faulted_requests_labelled(
        self, monkeypatch
    ):
        config = ServeConfig(prewarm=False)

        # Fault-free reference pass.
        with ServerHarness(config) as clean:
            reference = _run_all(clean)
        assert all(reference[name][0] == 200 for name in OK_NAMES)
        reference_table = _metric_table(reference)

        # Chaotic pass: SIGKILL one victim's cell, hang the other's.
        monkeypatch.setenv(
            chaos.CHAOS_ENV,
            "kill9:AntColony:victim-kill,hang@60:AntColony:victim-hang",
        )
        with ServerHarness(config) as chaotic:
            results = _run_all(chaotic)

        # Unaffected concurrent requests: same status, byte-identical tables.
        assert all(results[name][0] == 200 for name in OK_NAMES)
        assert _metric_table(results) == reference_table
        for name in OK_NAMES:
            assert results[name][1]["cached"] is False  # fresh compute, not cache luck

        # The killed cell answers 500 with the injected-kill label (kill9
        # degrades to a raise outside supervised pool workers).
        status, body = results["victim-kill"]
        assert status == 500
        assert body["error"] == "cell failed" and body["kind"] == "exception"
        assert "kill9" in body["detail"] and body["name"] == "victim-kill"

        # The hung cell is cut by its deadline and answers 504/timeout.
        status, body = results["victim-hang"]
        assert status == 504
        assert body["kind"] == "timeout" and body["name"] == "victim-hang"

    def test_corrupt_cache_rule_degrades_repeat_to_recompute(
        self, monkeypatch, tmp_path
    ):
        """A corrupt-cache fault quarantines the entry; the repeat still serves."""
        monkeypatch.setenv(chaos.CHAOS_ENV, "corrupt-cache:AntColony:poisoned")
        config = ServeConfig(prewarm=False, cache_dir=str(tmp_path / "cache"))
        with ServerHarness(config) as h:
            first_status, first = h.layer(layer_payload("poisoned"))
            second_status, second = h.layer(layer_payload("poisoned"))
        assert first_status == 200 and second_status == 200
        # The poisoned write is quarantined on read, so the repeat is a
        # recompute (not a cache hit) with identical metrics.
        assert second["cached"] is False
        assert second["metrics"] == first["metrics"]
