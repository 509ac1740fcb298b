"""Speedup benchmark: vectorized vs per-vertex-python walk engines, plus threads.

Times one full ``AntColony.run`` (single colony, default parameters, fixed
seed) per engine on 50/200/500-vertex corpus-style graphs, and one packed
multi-graph tour batch serial vs threaded in a single process.  Refreshes
``BENCH_aco_kernels.json`` (at the repository root with
``REPRO_WRITE_BENCH=1``, else in the temp directory so plain test runs do
not dirty the tracked record), and asserts the speedups the kernel refactors
are accountable for.  All engine/thread combinations produce bit-identical
layerings (see ``tests/test_aco_kernels.py``), so this measures pure
execution efficiency.
"""

from __future__ import annotations

from benchmarks.emit_kernel_bench import (
    BENCH_PATH,
    measure_kernel_speedup,
    measure_threaded_speedup,
    write_bench_json,
)
from benchmarks.shape import print_series, record_path
from repro.aco import _native


def _measure_all() -> dict:
    results = measure_kernel_speedup()
    results["threaded"] = measure_threaded_speedup()
    return results


def test_kernel_speedup(benchmark):
    results = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    write_bench_json(results, record_path(BENCH_PATH))

    threaded = results["threaded"]
    lines = [
        f"n={e['n_vertices']:>4}: python {e['python_s']*1e3:8.1f} ms   "
        f"vectorized {e['vectorized_s']*1e3:7.1f} ms   speedup {e['speedup']:6.2f}x"
        for e in results["sizes"]
    ]
    lines.append(
        f"threads={threaded['n_threads']} ({threaded['thread_support']}): "
        f"serial {threaded['serial_s']*1e3:8.1f} ms   threaded "
        f"{threaded['threaded_s']*1e3:8.1f} ms   speedup {threaded['speedup']:6.2f}x"
    )
    lines.append(f"native backend: {results['native_backend']}")
    print_series("ACO kernel speedup (BENCH_aco_kernels.json)", "\n".join(lines))

    by_size = {e["n_vertices"]: e for e in results["sizes"]}
    assert set(by_size) == {50, 200, 500}
    # The vectorized engine must never lose to the reference engine.
    for entry in results["sizes"]:
        assert entry["speedup"] >= 1.0, entry
    # Acceptance criterion: >= 5x on the 500-vertex graph.  The compiled
    # backend delivers ~10-15x; without a C compiler the NumPy lockstep
    # fallback cannot reach 5x, so the bar only applies when it loaded.
    if _native.load_native() is not None:
        assert by_size[500]["speedup"] >= 5.0, by_size[500]
    # Acceptance criterion: >= 2x from walk-axis threading on machines with
    # >= 4 CPUs and a kernel compiled with pthreads.  Smaller or
    # serial-only boxes record honest numbers without the bar.
    if threaded["gated"]:
        assert threaded["speedup"] >= 2.0, threaded
