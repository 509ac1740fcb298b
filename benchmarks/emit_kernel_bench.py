"""Measure the ACO walk-kernel speedups and persist them to ``BENCH_aco_kernels.json``.

Two sections share the record:

* ``sizes`` — the vectorized-vs-python engine speedup (one colony, default
  parameters, fixed seed) on corpus-style graphs, tracked since the kernel
  refactor landed.
* ``threaded`` — the single-process walk-axis threading speedup of the C
  kernel: one packed multi-graph tour batch timed with ``REPRO_ACO_THREADS=1``
  versus the machine's thread count.  The >= 2x acceptance bar only applies on
  machines with >= 4 CPUs and a kernel compiled with thread support; smaller
  boxes record honest numbers with ``gated: false``.

The JSON file lives at the repository root and is refreshed by the
``test_kernel_speedup`` benchmark (or by running this module directly with
``PYTHONPATH=src python benchmarks/emit_kernel_bench.py``), so the performance
trajectory of the hot path is tracked across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.aco import _native
from repro.aco.colony import AntColony
from repro.aco.params import ACOParams
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.aco.runtime import run_packed_colonies
from repro.datasets.corpus import CORPUS_SEED
from repro.graph.generators import att_like_dag

try:
    from benchmarks.bench_history import load_previous, with_history
except ImportError:  # run directly: python benchmarks/emit_*.py
    from bench_history import load_previous, with_history

__all__ = [
    "BENCH_PATH",
    "measure_kernel_speedup",
    "measure_threaded_speedup",
    "write_bench_json",
]

#: Where the benchmark record is checked in (repository root).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_aco_kernels.json"

#: Corpus-style graph sizes timed by the engine-speedup benchmark.
SIZES = (50, 200, 500)

#: Graphs packed into one lockstep tour batch by the threading benchmark.
THREADED_SIZES = (400, 400, 400, 400)


def _time_colony(problem: LayeringProblem, params: ACOParams, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        AntColony(problem, params).run()
        best = min(best, time.perf_counter() - start)
    return best


def measure_kernel_speedup(
    sizes: tuple[int, ...] = SIZES, *, repeats: int = 3
) -> dict:
    """Time both engines (single colony, default parameters) per graph size."""
    _native.load_native()
    entries = []
    for n in sizes:
        graph = att_like_dag(n, seed=CORPUS_SEED + n)
        problem = LayeringProblem.from_graph(graph)
        python_s = _time_colony(problem, ACOParams(seed=0, engine="python"), repeats)
        vectorized_s = _time_colony(
            problem, ACOParams(seed=0, engine="vectorized"), repeats
        )
        entries.append(
            {
                "n_vertices": n,
                "n_edges": graph.n_edges,
                "python_s": round(python_s, 6),
                "vectorized_s": round(vectorized_s, 6),
                "speedup": round(python_s / vectorized_s, 2),
            }
        )
    return {
        "benchmark": "aco_kernel_speedup",
        "description": (
            "Wall-clock of one AntColony.run (10 ants, 10 tours, default "
            "params, fixed seed) per walk engine on corpus-style graphs; "
            "best of %d runs, seconds." % repeats
        ),
        "native_backend": _native.native_status(),
        "sizes": entries,
    }


def _time_packed(
    packed: PackedProblems,
    params: ACOParams,
    seeds: list[list[int]],
    n_threads: int,
    repeats: int,
) -> float:
    """Best-of wall-clock of one single-process packed run at *n_threads*."""
    previous = os.environ.get(_native.REPRO_ACO_THREADS_ENV)
    os.environ[_native.REPRO_ACO_THREADS_ENV] = str(n_threads)
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run_packed_colonies(packed, params, seeds)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if previous is None:
            del os.environ[_native.REPRO_ACO_THREADS_ENV]
        else:
            os.environ[_native.REPRO_ACO_THREADS_ENV] = previous


def measure_threaded_speedup(
    sizes: tuple[int, ...] = THREADED_SIZES, *, repeats: int = 2
) -> dict:
    """Time one packed tour batch serial vs threaded (same process, same pack).

    The walk axis is the only thing that changes between the two runs — the
    pack, the seeds and the randomness protocol are identical, and the
    layerings are bit-identical at any thread count (pinned by
    ``tests/test_aco_kernels.py``) — so the ratio is pure thread-level
    parallel efficiency of the C kernel.
    """
    _native.load_native()
    cpu_count = os.cpu_count() or 1
    support = _native.thread_support()
    n_threads = min(max(cpu_count, 2), 8)
    gated = cpu_count >= 4 and support == "pthreads"

    problems = [
        LayeringProblem.from_graph(att_like_dag(n, seed=CORPUS_SEED + 7 * i + n))
        for i, n in enumerate(sizes)
    ]
    packed = PackedProblems.pack(problems)
    params = ACOParams(seed=0)
    seeds = [[11 + i] for i in range(len(problems))]

    serial_s = _time_packed(packed, params, seeds, 1, repeats)
    threaded_s = _time_packed(packed, params, seeds, n_threads, repeats)
    return {
        "cpu_count": cpu_count,
        "thread_support": support,
        "gated": gated,
        "n_threads": n_threads,
        "pack": {
            "n_graphs": packed.n_graphs,
            "n_vertices": sum(p.n_vertices for p in problems),
        },
        "serial_s": round(serial_s, 6),
        "threaded_s": round(threaded_s, 6),
        "speedup": round(serial_s / threaded_s, 2),
    }


def _history_metrics(record: dict) -> dict | None:
    """Key metrics of one record for the capped ``history`` trajectory."""
    sizes = record.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        return None
    metrics = {
        k: sizes[-1].get(k)
        for k in ("n_vertices", "python_s", "vectorized_s", "speedup")
    }
    threaded = record.get("threaded")
    if isinstance(threaded, dict):
        metrics["threaded_speedup"] = threaded.get("speedup")
        metrics["n_threads"] = threaded.get("n_threads")
    return metrics


def write_bench_json(results: dict, path: Path = BENCH_PATH) -> Path:
    """Write the benchmark record (stable key order, trailing newline)."""
    results = with_history(results, load_previous(path), _history_metrics)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="refresh BENCH_aco_kernels.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "tiny CI-sized run (two small graphs, one repeat) written to a "
            "temporary file instead of the checked-in record"
        ),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        results = measure_kernel_speedup(sizes=(20, 40), repeats=1)
        results["threaded"] = measure_threaded_speedup(sizes=(20, 30), repeats=1)
        path = write_bench_json(
            results, Path(tempfile.gettempdir()) / "BENCH_aco_kernels.smoke.json"
        )
    else:
        results = measure_kernel_speedup()
        results["threaded"] = measure_threaded_speedup()
        path = write_bench_json(results)
    print(f"wrote {path}")
    for entry in results["sizes"]:
        print(
            f"  n={entry['n_vertices']:>4}: python {entry['python_s']*1e3:8.1f} ms   "
            f"vectorized {entry['vectorized_s']*1e3:7.1f} ms   "
            f"speedup {entry['speedup']:6.2f}x"
        )
    threaded = results["threaded"]
    print(
        f"  threads={threaded['n_threads']} ({threaded['thread_support']}): "
        f"serial {threaded['serial_s']*1e3:8.1f} ms   "
        f"threaded {threaded['threaded_s']*1e3:8.1f} ms   "
        f"speedup {threaded['speedup']:6.2f}x"
        f"{'' if threaded['gated'] else '   (ungated: < 4 CPUs or no thread support)'}"
    )


if __name__ == "__main__":
    main()
