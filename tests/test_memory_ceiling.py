"""Memory-ceiling regression tests for the kernel data path.

Padded neighbour matrices would be O(V·max_degree): on a star-heavy
10⁵-vertex graph with hubs of degree 10³ they alone would cost ~800 MB.
The CSR-only path keeps problem build, packing and a full packed tour at
O(V+E) — the first test pins that with a ``tracemalloc`` peak assertion (NumPy registers its data allocations with
tracemalloc, so the kernel state arrays are counted).  The second pins one
dense pheromone trail per single-colony run: the colony must not keep a
trail of its own beside the one the tour loop allocates.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.aco.layering_aco import aco_layering
from repro.aco.params import ACOParams
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.aco.runtime import run_packed_colonies
from repro.graph.digraph import DiGraph
from repro.graph.generators import att_like_dag

#: 100 hubs × 1000 leaves: |V| just over 10⁵, |E| = 10⁵, max degree 10³.
N_HUBS = 100
LEAVES_PER_HUB = 1000

#: O(V+E) working set measured at ~60 MB (dominated by the Python-level
#: adjacency lists and the LPL/stretch dicts).  Padded neighbour matrices
#: would add ~2 × 800 MB, so the ceiling separates the regimes by >10x.
PEAK_CEILING_BYTES = 200 * 1024 * 1024


def _star_heavy_graph() -> DiGraph:
    graph = DiGraph()
    edges = []
    for h in range(N_HUBS):
        hub = ("hub", h)
        for leaf in range(LEAVES_PER_HUB):
            edges.append((hub, ("leaf", h, leaf)))
    graph.add_edges(edges)
    return graph


@pytest.mark.slow
def test_giant_star_graph_stays_linear_memory():
    graph = _star_heavy_graph()  # the label-level graph is not under test
    n_vertices = graph.n_vertices
    assert n_vertices > 100_000

    tracemalloc.start()
    try:
        # n_layers must be bounded explicitly: the paper's default stretches
        # to |V| layers, which makes the (dense, unavoidable) pheromone
        # matrix quadratic regardless of the adjacency representation.
        problem = LayeringProblem.from_graph(graph, n_layers=8)
        packed = PackedProblems.pack([problem])
        outcomes = run_packed_colonies(
            packed, ACOParams(n_ants=1, n_tours=1, seed=5), [[5]]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert len(outcomes) == 1 and len(outcomes[0]) == 1
    assert outcomes[0][0].assignment.shape == (n_vertices,)
    # The whole build + pack + tour stays well under the padded regime.
    assert peak < PEAK_CEILING_BYTES, f"peak {peak / 1e6:.0f} MB exceeds ceiling"


def test_single_colony_holds_one_dense_trail():
    graph = att_like_dag(800, seed=3)
    # The stretched problem has |V| layers, so one trail is n x (n + 1) doubles.
    trail_bytes = 800 * 801 * 8
    aco_layering(att_like_dag(20, seed=1))  # load the kernel outside the trace

    tracemalloc.start()
    try:
        aco_layering(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # One trail plus O(V+E) state measured at 1.26 trails; a second dense
    # trail would put the peak above 2.
    assert peak < 1.6 * trail_bytes, f"peak {peak / trail_bytes:.2f} trails"
