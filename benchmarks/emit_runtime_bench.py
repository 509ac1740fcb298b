"""Measure the multi-colony runtime speedup and persist it to ``BENCH_colony_runtime.json``.

The workload is the acceptance-bar configuration of the lockstep colony
runtime: **8 colonies x 500 vertices** (paper-default parameters, fixed
seed).  Three drivers are timed end to end through
:func:`repro.aco.parallel.parallel_aco_layering`:

* ``serial_driver_s`` — ``executor="serial"``: one colony after another,
  each rebuilding the problem, the deterministic reference;
* ``process_driver_s`` — ``executor="process"``: the pre-runtime
  multi-process driver (graph JSON shipped to workers, per-colony problem
  rebuild and per-colony kernel calls inside each worker);
* ``colonies_s`` — ``executor="colonies"``: the in-process runtime — one
  problem build, every tour one lockstep kernel call across all colonies'
  ants, spread over the walk kernel's threads.

Before the record is written the runtime's results are asserted
**bit-identical** to the serial reference (same best layering, same
per-colony assignments — the ``exchange_every=0`` contract).  The ≥3x
acceptance bar applies on machines with >= 4 CPUs; single-CPU boxes record
their honest numbers with the CPU count alongside.

Refresh with ``PYTHONPATH=src python benchmarks/emit_runtime_bench.py``
(add ``--smoke`` for a tiny CI-sized run that exercises every code path
without touching the checked-in record).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.aco.parallel import parallel_aco_layering
from repro.aco.params import ACOParams
from repro.datasets.corpus import CORPUS_SEED
from repro.graph.generators import att_like_dag
from repro.utils.pool import effective_workers

try:
    from benchmarks.bench_history import load_previous, with_history
except ImportError:  # run directly: python benchmarks/emit_*.py
    from bench_history import load_previous, with_history

__all__ = ["BENCH_PATH", "measure_runtime_speedup", "write_bench_json"]

#: Where the benchmark record is checked in (repository root).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_colony_runtime.json"

#: The acceptance-bar workload.
N_COLONIES = 8
N_VERTICES = 500


def _timed(graph, params, *, n_colonies, executor, repeats):
    """Best-of-*repeats* wall clock (the drivers are deterministic, so the
    minimum is the least contention-biased estimate on a shared box)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = parallel_aco_layering(
            graph, params, n_colonies=n_colonies, executor=executor
        )
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_runtime_speedup(
    *,
    n_colonies: int = N_COLONIES,
    n_vertices: int = N_VERTICES,
    params: ACOParams | None = None,
    repeats: int = 3,
) -> dict:
    """Time serial / process / colonies drivers on the acceptance workload."""
    graph = att_like_dag(n_vertices, seed=CORPUS_SEED + n_vertices)
    params = params if params is not None else ACOParams(seed=0)
    workers = effective_workers(None, n_colonies)

    serial_s, serial = _timed(
        graph, params, n_colonies=n_colonies, executor="serial", repeats=repeats
    )
    process_s, process = _timed(
        graph, params, n_colonies=n_colonies, executor="process", repeats=repeats
    )
    colonies_s, colonies = _timed(
        graph, params, n_colonies=n_colonies, executor="colonies", repeats=repeats
    )

    # The exchange_every=0 contract: the runtime must reproduce the serial
    # reference bit for bit (same colony assignments, same best layering).
    assert colonies.layering == serial.layering, "colonies best layering diverged"
    assert [c.assignment for c in colonies.colonies] == [
        c.assignment for c in serial.colonies
    ], "per-colony assignments diverged"
    assert process.layering == serial.layering, "process best layering diverged"

    return {
        "benchmark": "colony_runtime_speedup",
        "description": (
            "End-to-end wall-clock of %d independent ACO colonies on a "
            "%d-vertex AT&T-like DAG (paper-default parameters, fixed seed) "
            "through three drivers: the serial reference, the pre-runtime "
            "per-process driver, and the in-process colony runtime "
            "(executor='colonies': one problem build, lockstep kernel calls "
            "across all colonies on the kernel's threads).  Best of %d "
            "runs per driver; results asserted bit-identical across drivers "
            "before writing.  The >=3x bar vs the process driver applies on "
            ">=4-CPU machines; smaller boxes record honest numbers with "
            "their cpu_count." % (n_colonies, n_vertices, repeats)
        ),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "n_colonies": n_colonies,
        "n_vertices": n_vertices,
        "n_edges": graph.n_edges,
        "serial_driver_s": round(serial_s, 6),
        "process_driver_s": round(process_s, 6),
        "colonies_s": round(colonies_s, 6),
        "speedup_vs_process": round(process_s / colonies_s, 2),
        "speedup_vs_serial": round(serial_s / colonies_s, 2),
        "bit_identical_to_serial": True,
        "best_objective": serial.objective,
    }


def _history_metrics(record: dict) -> dict | None:
    """Key metrics of one record for the capped ``history`` trajectory."""
    keys = ("n_colonies", "n_vertices", "serial_driver_s", "colonies_s", "speedup_vs_serial")
    if not any(k in record for k in keys):
        return None
    return {k: record.get(k) for k in keys}


def write_bench_json(results: dict, path: Path = BENCH_PATH) -> Path:
    """Write the benchmark record (stable key order, trailing newline)."""
    results = with_history(results, load_previous(path), _history_metrics)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "tiny CI-sized run (4 colonies x 60 vertices, 3 ants x 3 tours) "
            "written to a temporary file instead of the checked-in record"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        results = measure_runtime_speedup(
            n_colonies=4,
            n_vertices=60,
            params=ACOParams(seed=0, n_ants=3, n_tours=3),
            repeats=1,
        )
        path = Path(tempfile.gettempdir()) / "BENCH_colony_runtime.smoke.json"
    else:
        results = measure_runtime_speedup()
        path = BENCH_PATH
    write_bench_json(results, path)

    print(f"wrote {path}")
    print(
        f"  {results['n_colonies']} colonies x {results['n_vertices']} vertices, "
        f"workers={results['workers']} (cpu_count={results['cpu_count']})"
    )
    print(f"  serial driver    {results['serial_driver_s']*1e3:9.1f} ms")
    print(
        f"  process driver   {results['process_driver_s']*1e3:9.1f} ms   "
        f"(colonies speedup {results['speedup_vs_process']:6.2f}x)"
    )
    print(
        f"  colonies runtime {results['colonies_s']*1e3:9.1f} ms   "
        f"(vs serial {results['speedup_vs_serial']:6.2f}x)"
    )


if __name__ == "__main__":
    main()
