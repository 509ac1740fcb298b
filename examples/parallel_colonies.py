#!/usr/bin/env python
"""Run several independent ant colonies in parallel and keep the best layering.

Run with::

    python examples/parallel_colonies.py [n_colonies]

The portfolio builds the problem once and sweeps every colony's ants in one
kernel call per tour, spread over the walk kernel's threads.  The script
compares the single-colony result with the portfolio result and reports the
wall-clock time of each.
"""

from __future__ import annotations

import sys
import time

from repro import ACOParams, aco_layering_detailed, att_like_dag, evaluate_layering
from repro.aco.parallel import parallel_aco_layering


def main() -> None:
    n_colonies = int(sys.argv[1]) if len(sys.argv) > 1 else 4

    graph = att_like_dag(100, seed=123)
    params = ACOParams(n_ants=10, n_tours=10, seed=7)
    print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")
    print(f"portfolio: {n_colonies} colonies\n")

    start = time.perf_counter()
    single = aco_layering_detailed(graph, params)
    single_time = time.perf_counter() - start
    print(
        f"single colony : objective={single.metrics.objective:.4f} "
        f"height={single.metrics.height} width={single.metrics.width_including_dummies:.1f} "
        f"({single_time:.2f}s)"
    )

    start = time.perf_counter()
    portfolio = parallel_aco_layering(graph, params, n_colonies=n_colonies)
    portfolio_time = time.perf_counter() - start
    metrics = evaluate_layering(graph, portfolio.layering, nd_width=params.nd_width)
    print(
        f"{n_colonies}-colony best: objective={metrics.objective:.4f} "
        f"height={metrics.height} width={metrics.width_including_dummies:.1f} "
        f"({portfolio_time:.2f}s)"
    )
    print("\nper-colony objectives:")
    for colony in portfolio.colonies:
        marker = " <- best" if colony.colony_index == portfolio.best_colony.colony_index else ""
        print(f"  colony {colony.colony_index} (seed {colony.seed}): {colony.objective:.4f}{marker}")


if __name__ == "__main__":
    main()
