"""Measure layout-service throughput and latency, with and without faults.

The serving PR's acceptance bar asks for an open-loop load test against a
real :class:`repro.serving.LayoutServer` — loop thread, admission queue,
megabatch worker and two-layer cache all live — recording:

* ``fault_free`` — requests/sec and p50/p99 latency for a mixed workload:
  a set of distinct small DAGs (cache misses; those that queue behind a
  busy worker coalesce into ``PackedProblems`` megabatches) cycled past its own size
  so later arrivals repeat earlier graphs and are answered from the
  ``ResultCache``.  The generator is open-loop (request ``i`` launches at
  ``i/rate`` regardless of completions), so a slow server shows up as
  honest tail latency rather than a self-throttled arrival rate.
* ``with_faults`` — the same workload plus a slice of requests whose cells
  a ``REPRO_CHAOS`` kill9 rule targets.  The point of the record is the
  *blast radius*: faulted requests answer labelled ``500``s while the
  surviving requests' throughput and tail stay in the same regime — the
  graceful-degradation story, as a number.

Results land in ``BENCH_serving.json`` at the repository root with the
capped per-PR history trajectory (refresh with ``PYTHONPATH=src python
benchmarks/emit_serving_bench.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import tempfile
import threading
from pathlib import Path

from repro.serving import LayoutServer, ServeConfig
from repro.serving.loadgen import run_load_sync
from repro.utils import chaos

try:
    from benchmarks.bench_history import load_previous, with_history
except ImportError:  # run directly: python benchmarks/emit_*.py
    from bench_history import load_previous, with_history

__all__ = ["BENCH_PATH", "measure_serving", "write_bench_json"]

#: Where the benchmark record is checked in (repository root).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Fast deterministic Ant Colony parameters for request payloads.
FAST_ACO = {"n_ants": 2, "n_tours": 2, "seed": 0}

#: Chaos rule for the faulted pass: SIGKILL the cells of every request
#: named ``serve-fault-*`` (degrades to a labelled 500 on the in-parent
#: batched path), leaving the rest of the workload untouched.
FAULT_RULE = "kill9:AntColony:serve-fault-*"


def _chain_graph(n: int) -> dict:
    """A length-*n* chain with one long edge (produces dummy vertices)."""
    edges = [[v, v + 1] for v in range(n - 1)]
    edges.append([0, n - 1])
    return {"edges": edges}


def _payloads(distinct: int, *, faulted: bool) -> list[dict]:
    """The request mix the generator cycles through.

    *distinct* unique graphs (misses on first sight, cache hits on every
    later cycle); when *faulted*, every eighth slot is replaced by a
    request the chaos rule targets.
    """
    payloads = [
        {
            "graph": _chain_graph(5 + i),
            "method": "AntColony",
            "aco": dict(FAST_ACO),
            "name": f"serve-bench-{i}",
            "deadline_s": 30.0,
        }
        for i in range(distinct)
    ]
    if faulted:
        for slot in range(0, distinct, 8):
            payloads[slot] = {
                **payloads[slot],
                "name": f"serve-fault-{slot}",
            }
    return payloads


class _ServerThread:
    """Run one in-process server on a daemon thread for the duration."""

    def __init__(self, config: ServeConfig) -> None:
        self.server = LayoutServer(config)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            task = asyncio.ensure_future(self.server.run())
            while self.server.port is None and not task.done():
                await asyncio.sleep(0.005)
            self._ready.set()
            await task

        asyncio.run(main())

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        if not self._ready.wait(60.0) or self.server.port is None:
            raise RuntimeError("benchmark server failed to start")
        return self

    def __exit__(self, *exc: object) -> None:
        loop = self.server._loop
        if loop is not None and self._thread.is_alive():
            try:
                loop.call_soon_threadsafe(self.server.initiate_drain)
            except RuntimeError:
                pass
        self._thread.join(30.0)

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port


def _one_pass(
    *, total: int, rate_per_s: float, distinct: int, faulted: bool
) -> dict:
    payloads = _payloads(distinct, faulted=faulted)
    config = ServeConfig(
        port=0,
        announce=False,
        prewarm=False,
        exit_on_drain_timeout=False,
    )
    previous_rule = os.environ.get(chaos.CHAOS_ENV)
    if faulted:
        os.environ[chaos.CHAOS_ENV] = FAULT_RULE
    try:
        with _ServerThread(config) as running:
            # One untimed request first: the first cell pays the engine's
            # import and allocator costs, which are startup — not serving —
            # latency.
            run_load_sync(
                "127.0.0.1",
                running.port,
                [
                    {
                        "graph": _chain_graph(4),
                        "method": "AntColony",
                        "aco": dict(FAST_ACO),
                        "name": "serve-warmup",
                    }
                ],
                total=1,
                rate_per_s=100.0,
            )
            report = run_load_sync(
                "127.0.0.1",
                running.port,
                payloads,
                total=total,
                rate_per_s=rate_per_s,
            )
    finally:
        if faulted:
            if previous_rule is None:
                os.environ.pop(chaos.CHAOS_ENV, None)
            else:
                os.environ[chaos.CHAOS_ENV] = previous_rule
    summary = report.as_dict()
    if report.connect_errors:
        raise RuntimeError(
            f"{report.connect_errors} connections failed mid-bench: {summary}"
        )
    ok = int(summary["by_status"].get("200", 0))
    failed = report.completed - ok
    expected_failures = (
        sum(1 for i in range(total) if "fault" in payloads[i % distinct]["name"])
        if faulted
        else 0
    )
    if failed != expected_failures:
        raise RuntimeError(
            f"expected {expected_failures} labelled failures, saw {failed}: "
            f"{summary['by_status']}"
        )
    summary["ok"] = ok
    summary["labelled_failures"] = failed
    return summary


def measure_serving(
    *, total: int = 160, rate_per_s: float = 50.0, distinct: int = 16
) -> dict:
    """Run the fault-free and faulted passes and summarise both."""
    fault_free = _one_pass(
        total=total, rate_per_s=rate_per_s, distinct=distinct, faulted=False
    )
    with_faults = _one_pass(
        total=total, rate_per_s=rate_per_s, distinct=distinct, faulted=True
    )
    return {
        "benchmark": "serving_load",
        "description": (
            "Open-loop load against an in-process repro-dag serve instance: "
            "%d requests at %g/s cycling %d distinct small DAGs (repeats hit "
            "the two-layer cache, concurrent misses coalesce into "
            "megabatches).  The faulted pass adds a REPRO_CHAOS kill9 rule "
            "(%r) so a slice of requests fail with labelled 500s while the "
            "rest keep serving." % (total, rate_per_s, distinct, FAULT_RULE)
        ),
        "cpu_count": os.cpu_count(),
        "total_requests": total,
        "offered_rate_per_s": rate_per_s,
        "distinct_graphs": distinct,
        "fault_free": fault_free,
        "with_faults": with_faults,
    }


def _history_metrics(record: dict) -> dict | None:
    out = {}
    for side in ("fault_free", "with_faults"):
        pass_record = record.get(side)
        if not isinstance(pass_record, dict):
            continue
        latency = pass_record.get("latency_ms", {})
        out[side] = {
            "requests_per_s": pass_record.get("requests_per_s"),
            "p50_ms": latency.get("p50"),
            "p99_ms": latency.get("p99"),
        }
    return out or None


def write_bench_json(results: dict, path: Path = BENCH_PATH) -> Path:
    """Write the record with the capped per-PR ``history`` trajectory."""
    results = with_history(results, load_previous(path), _history_metrics)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="refresh BENCH_serving.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "tiny CI-sized run (fewer requests at a lower rate) written to "
            "a throwaway file — exercises the full path without committing "
            "shared-runner timings"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        results = measure_serving(total=32, rate_per_s=25.0, distinct=8)
        out = Path(tempfile.gettempdir()) / "BENCH_serving.smoke.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"smoke OK -> {out}")
    else:
        results = measure_serving()
        path = write_bench_json(results)
        print(f"wrote {path}")
    for side in ("fault_free", "with_faults"):
        summary = results[side]
        latency = summary["latency_ms"]
        print(
            "%s: %.1f req/s, p50 %.1f ms, p99 %.1f ms, %d ok, %d labelled "
            "failures"
            % (
                side,
                summary["requests_per_s"],
                latency["p50"],
                latency["p99"],
                summary["ok"],
                summary["labelled_failures"],
            )
        )


if __name__ == "__main__":
    main()
