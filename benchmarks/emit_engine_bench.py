"""Measure the experiment-engine speedup on the figure workload.

The workload is the one every figure benchmark runs: the paper's LPL-family
comparison (LPL, LPL+PL, AntColony) over the AT&T-like corpus subset — the
data behind Figs. 4/6/8.  Three configurations are timed end to end:

* ``serial_cold_s`` — the historical baseline: serial engine, no cache;
* ``process_cold_s`` — process executor with >= 4 workers, cold cache
  (the multi-core win; on a single-CPU container this is roughly break-even,
  which the record reports honestly via ``cpu_count``);
* ``process_warm_s`` — the same process engine again with the now-warm
  content-addressed result cache: every cell is served from disk, which is
  what makes repeated ``repro-dag figures``/``compare``/tuning runs
  incremental on any machine.

All three configurations are asserted to produce identical metrics before
the record is written (the engine's determinism contract).  Results land in
``BENCH_experiment_engine.json`` at the repository root, the checked-in perf
record tracked across PRs (refresh with
``PYTHONPATH=src python benchmarks/emit_engine_bench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro.aco.params import ACOParams
from repro.datasets.corpus import att_like_corpus
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ExperimentEngine, default_method_specs
from repro.experiments.runner import run_comparison

try:
    from benchmarks.bench_history import load_previous, with_history
except ImportError:  # run directly: python benchmarks/emit_*.py
    from bench_history import load_previous, with_history

__all__ = [
    "BENCH_PATH",
    "measure_engine_speedup",
    "measure_full_corpus",
    "write_bench_json",
]

#: The deterministic comparison series (everything except measured wall-clock).
DETERMINISTIC_METRICS = (
    "height",
    "width_including_dummies",
    "width_excluding_dummies",
    "dummy_vertex_count",
    "edge_density",
    "objective",
)

#: Where the benchmark record is checked in (repository root).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_experiment_engine.json"

#: The paper's LPL-family figure workload (Figs. 4/6/8).
FIGURE_ALGORITHMS = ("LPL", "LPL+PL", "AntColony")

#: The acceptance bar asks for >= 4 workers.
MIN_JOBS = 4


def _workload(graphs_per_group: int):
    corpus = att_like_corpus(graphs_per_group=graphs_per_group)
    specs = default_method_specs(aco_params=ACOParams(seed=0))
    selected = {name: specs[name] for name in FIGURE_ALGORITHMS}
    return corpus, selected


def _timed_run(corpus, algorithms, engine):
    start = time.perf_counter()
    comparison = run_comparison(corpus, algorithms, engine=engine)
    return time.perf_counter() - start, comparison


def _deterministic_view(comparison):
    return [
        (r.algorithm, r.graph_name, r.vertex_count, r.metrics)
        for r in comparison.results
    ]


def measure_engine_speedup(*, graphs_per_group: int = 2, jobs: int | None = None) -> dict:
    """Time the figure workload serial/parallel/warm-cache and summarise."""
    corpus, algorithms = _workload(graphs_per_group)
    jobs = jobs if jobs is not None else max(MIN_JOBS, os.cpu_count() or 1)

    serial_s, serial = _timed_run(corpus, algorithms, ExperimentEngine(executor="serial"))
    batched_s, batched = _timed_run(
        corpus, algorithms, ExperimentEngine(executor="batched")
    )

    with tempfile.TemporaryDirectory(prefix="repro-engine-bench-") as cache_dir:
        cache = ResultCache(cache_dir)
        process_engine = ExperimentEngine(executor="process", jobs=jobs, cache=cache)
        process_cold_s, process_cold = _timed_run(corpus, algorithms, process_engine)
        process_warm_s, process_warm = _timed_run(corpus, algorithms, process_engine)
        cache_entries = len(cache)
        warm_hits = cache.hit_stats()

    # Determinism contract: executor and cache must not change any metric.
    baseline = _deterministic_view(serial)
    assert _deterministic_view(batched) == baseline, "batched run diverged"
    assert _deterministic_view(process_cold) == baseline, "process run diverged"
    assert _deterministic_view(process_warm) == baseline, "warm-cache run diverged"
    # The warm pass must have been served by the in-process LRU, not disk.
    assert warm_hits.memory_hits > 0, "warm run never hit the memory cache layer"

    return {
        "benchmark": "experiment_engine_speedup",
        "description": (
            "End-to-end wall-clock of the LPL-family figure workload "
            "(%d corpus graphs x %d algorithms = %d cells) through the "
            "shared experiment engine: serial cold baseline, process "
            "executor with %d workers (cold cache), and the same process "
            "engine with a warm content-addressed result cache, seconds."
            % (len(corpus), len(algorithms), len(corpus) * len(algorithms), jobs)
        ),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "cells": len(corpus) * len(algorithms),
        "graphs_per_group": graphs_per_group,
        "cache_entries": cache_entries,
        "serial_cold_s": round(serial_s, 6),
        "batched_cold_s": round(batched_s, 6),
        "process_cold_s": round(process_cold_s, 6),
        "process_warm_s": round(process_warm_s, 6),
        "batched_speedup": round(serial_s / batched_s, 2),
        "parallel_speedup": round(serial_s / process_cold_s, 2),
        "warm_cache_speedup": round(serial_s / process_warm_s, 2),
    }


def _rss_peak_mb() -> float | None:
    """Process RSS high-water mark in MiB; ``None`` where unavailable.

    ``resource`` is Unix-only, and ``ru_maxrss`` units differ by platform
    (bytes on macOS, KiB elsewhere).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 2**20 if sys.platform == "darwin" else 1024
    return round(peak / divisor, 1)


def measure_full_corpus() -> tuple[dict, dict]:
    """Time the paper's *entire* evaluation: 1277 graphs × 5 algorithms.

    Runs through the streaming engine with ``keep_results=False`` — the
    configuration ``repro-dag compare --full`` uses — three times: an
    *untraced* serial run for the honest wall-clock (plus the process RSS
    high-water mark, which includes the materialised corpus), a
    tracemalloc-instrumented serial run (~3x slower, timing discarded)
    whose allocation peak covers only the run phase, and a cross-graph
    **batched** run (``--executor batched``) whose aggregate series are
    asserted identical to the serial run's on every deterministic metric
    before the record is written.

    Returns the ``(full_corpus, full_corpus_batched)`` record sections.
    """
    corpus = att_like_corpus()
    specs = default_method_specs(aco_params=ACOParams(seed=0))

    def _one_run(engine: ExperimentEngine):
        start = time.perf_counter()
        comparison = run_comparison(corpus, specs, engine=engine, keep_results=False)
        elapsed = time.perf_counter() - start
        # `if`-raise rather than assert: the guard must survive `python -O`,
        # and a failed cell means the recorded wall-clock did not cover the
        # full workload — refuse to write a lying record.
        if comparison.cells_failed:
            first = comparison.failures[0]
            raise RuntimeError(
                f"{comparison.cells_failed} cells failed mid-bench "
                f"(first: {first.algorithm} on {first.graph_name}: {first.error})"
            )
        if comparison.results:
            raise RuntimeError("keep_results=False must not keep cells")
        return elapsed, comparison

    elapsed, serial = _one_run(ExperimentEngine(executor="serial"))

    tracemalloc.start()
    run_comparison(
        corpus, specs, engine=ExperimentEngine(executor="serial"), keep_results=False
    )
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    batched_elapsed, batched = _one_run(ExperimentEngine(executor="batched"))
    for metric in DETERMINISTIC_METRICS:
        if batched.all_series(metric) != serial.all_series(metric):
            raise RuntimeError(f"batched full-corpus run diverged on {metric}")

    full = {
        "graphs": len(corpus),
        "algorithms": len(specs),
        "cells": len(corpus) * len(specs),
        "wall_clock_s": round(elapsed, 2),
        "run_phase_alloc_peak_mb": round(traced_peak / 2**20, 1),
        "ru_maxrss_mb": _rss_peak_mb(),
        "aggregation": "streaming run_iter, keep_results=False (O(groups) state)",
    }
    full_batched = {
        "graphs": len(corpus),
        "algorithms": len(specs),
        "cells": len(corpus) * len(specs),
        "wall_clock_s": round(batched_elapsed, 2),
        "speedup_vs_serial": round(elapsed / batched_elapsed, 2),
        "speedup_vs_pr4_baseline": round(24.05 / batched_elapsed, 2),
        "pr4_baseline_s": 24.05,
        "tables_identical_to_serial": True,
        "executor": "batched (cross-graph megabatch, default batch size)",
    }
    return full, full_batched


def _history_metrics(record: dict) -> dict | None:
    """Key metrics of one record for the capped ``history`` trajectory."""
    out = {}
    for key in ("cells", "serial_cold_s", "batched_cold_s", "warm_cache_speedup"):
        if key in record:
            out[key] = record[key]
    for section, name in (
        ("full_corpus", "full_corpus_s"),
        ("full_corpus_batched", "full_corpus_batched_s"),
    ):
        value = record.get(section)
        if isinstance(value, dict) and "wall_clock_s" in value:
            out[name] = value["wall_clock_s"]
    return out or None


def write_bench_json(results: dict, path: Path = BENCH_PATH) -> Path:
    """Write the benchmark record (stable key order, trailing newline).

    The ``full_corpus`` / ``full_corpus_batched`` sections of an existing
    record are preserved unless the new results carry their own — the quick
    figure-workload refresh and the minutes-long ``--full-corpus`` run
    update the file independently.  Every write appends the record's key
    metrics to the capped ``history`` trajectory (see
    :mod:`benchmarks.bench_history`).
    """
    previous = load_previous(path)
    # History first, from the *fresh* results only: a quick refresh must not
    # stamp the previous run's preserved full-corpus numbers under the
    # current version/date.
    results = with_history(results, previous, _history_metrics)
    if previous is not None:
        for section in ("full_corpus", "full_corpus_batched"):
            if section not in results and section in previous:
                results = {**results, section: previous[section]}
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="refresh BENCH_experiment_engine.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "tiny CI-sized run (one graph per corpus group, two workers) "
            "written to a temporary file instead of the checked-in record"
        ),
    )
    parser.add_argument(
        "--full-corpus",
        action="store_true",
        help=(
            "additionally time the paper's full 1277-graph × 5-algorithm "
            "evaluation (about a minute of compute) and record its "
            "wall-clock/memory under the 'full_corpus' key"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke and args.full_corpus:
        parser.error("--smoke and --full-corpus are mutually exclusive")
    if args.smoke:
        results = measure_engine_speedup(graphs_per_group=1, jobs=2)
        path = write_bench_json(
            results,
            Path(tempfile.gettempdir()) / "BENCH_experiment_engine.smoke.json",
        )
    else:
        results = measure_engine_speedup()
        if args.full_corpus:
            results["full_corpus"], results["full_corpus_batched"] = measure_full_corpus()
        path = write_bench_json(results)
    print(f"wrote {path}")
    print(
        f"  cells={results['cells']} jobs={results['jobs']} "
        f"(cpu_count={results['cpu_count']})"
    )
    print(f"  serial cold   {results['serial_cold_s']*1e3:9.1f} ms")
    print(
        f"  batched cold  {results['batched_cold_s']*1e3:9.1f} ms   "
        f"speedup {results['batched_speedup']:6.2f}x"
    )
    print(
        f"  process cold  {results['process_cold_s']*1e3:9.1f} ms   "
        f"speedup {results['parallel_speedup']:6.2f}x"
    )
    print(
        f"  process warm  {results['process_warm_s']*1e3:9.1f} ms   "
        f"speedup {results['warm_cache_speedup']:6.2f}x"
    )
    if "full_corpus" in results:
        full = results["full_corpus"]
        print(
            f"  full corpus   {full['cells']} cells in {full['wall_clock_s']:.1f} s  "
            f"(run-phase alloc peak {full['run_phase_alloc_peak_mb']} MiB, "
            f"rss peak {full['ru_maxrss_mb']} MiB)"
        )
    if "full_corpus_batched" in results:
        batched = results["full_corpus_batched"]
        print(
            f"  full batched  {batched['cells']} cells in "
            f"{batched['wall_clock_s']:.1f} s  "
            f"({batched['speedup_vs_pr4_baseline']:.2f}x vs the PR4 24.05 s baseline)"
        )


if __name__ == "__main__":
    main()
