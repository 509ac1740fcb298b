"""Speedup benchmark: the in-process multi-colony runtime.

Times 8 independent colonies on a 500-vertex AT&T-like DAG through the
serial reference, the pre-runtime per-process driver and the lockstep
colony runtime, refreshes ``BENCH_colony_runtime.json`` (at the repository
root with ``REPRO_WRITE_BENCH=1``, else in the temp directory so plain test
runs do not dirty the tracked record), and asserts the acceptance bar: on
machines with >= 4 CPUs the runtime beats the per-process driver by >= 3x.  Bit-identity of the runtime against
the serial reference (the ``exchange_every=0`` contract) is asserted inside
the measurement on every machine.
"""

from __future__ import annotations

import os

from benchmarks.emit_runtime_bench import (
    BENCH_PATH,
    measure_runtime_speedup,
    write_bench_json,
)
from benchmarks.shape import print_series, record_path


def test_runtime_speedup(benchmark):
    results = benchmark.pedantic(measure_runtime_speedup, rounds=1, iterations=1)
    write_bench_json(results, record_path(BENCH_PATH))

    print_series(
        "colony runtime speedup (BENCH_colony_runtime.json)",
        "\n".join(
            [
                f"{results['n_colonies']} colonies x {results['n_vertices']} vertices, "
                f"workers={results['workers']} cpu_count={results['cpu_count']}",
                f"serial driver    {results['serial_driver_s']*1e3:9.1f} ms",
                f"process driver   {results['process_driver_s']*1e3:9.1f} ms",
                f"colonies runtime {results['colonies_s']*1e3:9.1f} ms   "
                f"vs process {results['speedup_vs_process']:6.2f}x   "
                f"vs serial {results['speedup_vs_serial']:6.2f}x",
            ]
        ),
    )

    # measure_runtime_speedup already asserted bit-identity across drivers.
    assert results["bit_identical_to_serial"] is True
    # Acceptance criterion: >= 3x over the pre-runtime process driver when
    # the cores for the kernel threads exist; small boxes record honest
    # numbers.
    if (os.cpu_count() or 1) >= 4:
        assert results["speedup_vs_process"] >= 3.0, results
