"""One trial of an offline workload (``paper_corpus`` or ``large_graphs``).

Runs as its own process, started by ``run.py``: set-up (imports, input
generation, native kernel load), then one measured engine run, then the
output checks outside the timed phase.  Prints one JSON line.

    python3 perfbench/offline.py --workload paper_corpus --seed 20070326 \
        --run-dir .bench_build/perfbench/run --spawned-at <monotonic>
"""

from __future__ import annotations

import argparse
import os
import platform
import resource
import sys
import time

from common import digest, emit

import numpy as np

import inputs
import tracer as tracing
from repro.aco import _native
from repro.experiments.cache import ResultCache
from repro.experiments.engine import ANT_COLONY, ExperimentEngine, MethodSpec
from repro.experiments.runner import run_comparison
from repro.utils import resources


def _generate(workload: str, seed: int, tracer: tracing.Tracer | None):
    """The workload's corpus entries and method specs (``None``: the paper's five)."""
    with tracing.span(tracer, "datasets.generate"):
        if workload == "paper_corpus":
            return inputs.corpus(seed), None
        return inputs.large_graphs(seed), {ANT_COLONY: MethodSpec.ant_colony(inputs.paper_params())}


def _reference_graphs(workload: str, corpus) -> list:
    """The graphs whose AntColony cells are checked against a serial run:
    the first of every vertex-count group, or the smallest large graph."""
    if workload == "large_graphs":
        return [min(corpus, key=lambda entry: entry.vertex_count)]
    first: dict[int, object] = {}
    for entry in corpus:
        first.setdefault(entry.vertex_count, entry)
    return list(first.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("paper_corpus", "large_graphs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--trace-out", help="trace this trial and write its spans here")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace_out else None
    corpus, specs = _generate(args.workload, args.seed, tracer)
    lib = _native.load_native()
    setup_s = time.monotonic() - args.spawned_at
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_support": _native.thread_support(),
        "native_status": _native.native_status(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    if lib is None:
        # A run without the native kernel would measure a different program.
        sys.stderr.write(f"perfbench: native kernel did not load: {_native.native_status()}\n")
        raise SystemExit(1)
    errors: list[str] = []

    cache = ResultCache(os.path.join(args.run_dir, f"cache-{os.getpid()}"))
    engine = ExperimentEngine(executor="batched", jobs=1, cache=cache)
    cells: list[tuple] = []
    run_iter = engine.run_iter

    def collecting_run_iter(units, **kwargs):
        for cell in run_iter(units, **kwargs):
            cells.append((cell.algorithm, cell.graph_name, cell.metrics, cell.running_time))
            yield cell

    engine.run_iter = collecting_run_iter
    if tracer is not None:
        tracing.install_program_spans(tracer, {id(entry.graph): entry.name for entry in corpus})
        tracing.install_instance_spans(tracer, engine, cache)

    start = time.perf_counter()
    comparison = run_comparison(corpus, specs, engine=engine, keep_results=False)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if tracer is not None:
        tracer.unpatch()
        per_layer = tracing.program_metrics(tracer)
        hits = cache.hit_stats()
        lookups = hits.memory_hits + hits.memory_misses
        per_layer["cache.memory_hit_ratio"] = hits.memory_hits / lookups if lookups else 0.0
        tracer.write(args.trace_out)

    degraded = resources.governor().degraded()
    if degraded:
        errors.append(f"resource governor degraded rungs: {degraded}")
    if comparison.cells_failed:
        errors.append(f"{comparison.cells_failed} cells failed")
    objectives = [m.objective for alg, _, m, _ in cells if alg == ANT_COLONY and m is not None]
    outputs = [[alg, name, m.as_dict() if m is not None else None] for alg, name, m, _ in cells]

    references = _reference_graphs(args.workload, corpus) if args.verify else []
    answers = {name: m for alg, name, m, _ in cells if alg == ANT_COLONY and m is not None}
    for entry in references:
        got = answers.get(entry.name)
        if got is None or got.as_dict() != inputs.reference_metrics(entry.graph):
            errors.append(f"AntColony on {entry.name} differs from the serial reference")

    # An AntColony cell's running_time is its vertex-weighted share of its
    # pack's wall-clock; the orchestrator takes percentiles over these, not
    # over the tail of tiny baseline timings, which moves with the corpus seed.
    aco_ms = [t * 1000.0 for alg, _, m, t in cells if alg == ANT_COLONY and m is not None]
    emit(
        {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": peak_rss_mb,
            "cells": len(cells),
            "failed": comparison.cells_failed,
            "aco_objective_mean": sum(objectives) / len(objectives) if objectives else 0.0,
            "aco_cell_ms": aco_ms,
            "digest": digest(outputs),
            "references_checked": len(references),
            "env": env,
            "errors": errors,
            "per_layer": per_layer,
        }
    )


if __name__ == "__main__":
    main()
