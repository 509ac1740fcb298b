"""Minimum-dummy-vertex layering (the problem Gansner's network simplex solves).

The Promote Layering heuristic of the paper is motivated as a cheap
replacement for the network-simplex layering of Gansner et al., which finds a
layering minimising the total edge span ``Σ (layer(u) − layer(v))`` — and
therefore the dummy-vertex count ``Σ (span − 1)`` — subject to every span
being at least one.  This module solves the same optimisation exactly.

Two solvers are provided:

* :func:`minimum_dummy_layering` — formulates the problem as a linear program
  and solves it with :func:`scipy.optimize.linprog` (HiGHS).  The constraint
  matrix is the incidence matrix of the DAG, which is totally unimodular, so
  the LP relaxation always has an integral optimal solution; the result is
  rounded and verified.
* :func:`minimum_dummy_layering_longest_path` — a pure-combinatorial fallback
  (LPL followed by exhaustive promotion/demotion passes) that needs no LP
  solver and is used automatically if SciPy is unavailable.

Either way the result is normalised so layers start at 1.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph, Vertex
from repro.graph.validation import require_dag, require_nonempty
from repro.layering.base import Layering
from repro.layering.longest_path import longest_path_layering
from repro.layering.promote import promote_layering
from repro.utils.exceptions import LayeringError

__all__ = [
    "minimum_dummy_layering",
    "minimum_dummy_layering_longest_path",
    "minimum_total_span",
]


def minimum_dummy_layering_longest_path(graph: DiGraph) -> Layering:
    """Combinatorial fallback: LPL followed by exhaustive node promotion.

    Promotion passes monotonically reduce the total edge span and terminate;
    for the sparse graphs this library targets the result is optimal or very
    close to it, but unlike the LP solver no optimality guarantee is made.
    """
    lpl = longest_path_layering(graph)
    return promote_layering(graph, lpl)


def minimum_dummy_layering(graph: DiGraph) -> Layering:
    """Exact minimum-total-edge-span layering (Gansner-equivalent).

    Solves ``min Σ_(u,v) (y_u − y_v)`` subject to ``y_u − y_v >= 1`` for every
    edge and ``y >= 1``.  Because the constraint matrix is a network matrix
    the LP optimum is integral; the solution is rounded to integers and
    validated before being returned.

    Falls back to :func:`minimum_dummy_layering_longest_path` when SciPy is
    not installed.
    """
    require_nonempty(graph)
    require_dag(graph)
    if graph.n_edges == 0:
        return Layering({v: 1 for v in graph.vertices()})
    try:
        # SciPy is an optional accelerator, imported on first use: it costs
        # about half a second, which importing the package should not pay.
        from scipy.optimize import linprog
    except ImportError:  # pragma: no cover
        return minimum_dummy_layering_longest_path(graph)

    vertices = list(graph.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    edges = list(graph.edges())
    m = len(edges)

    # Objective: sum over edges of (y_u - y_v)  ==  c . y with
    # c[i] = (#times i is an edge source) - (#times i is an edge target).
    c = np.zeros(n)
    for u, v in edges:
        c[index[u]] += 1.0
        c[index[v]] -= 1.0

    # Constraints:  y_v - y_u <= -1   for every edge (u, v).
    a_ub = np.zeros((m, n))
    for k, (u, v) in enumerate(edges):
        a_ub[k, index[v]] = 1.0
        a_ub[k, index[u]] = -1.0
    b_ub = -np.ones(m)
    bounds = [(1.0, None)] * n

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:  # pragma: no cover - defensive; the LP is always feasible
        raise LayeringError(f"minimum-dummy LP failed: {result.message}")

    assignment: dict[Vertex, int] = {
        v: int(round(result.x[index[v]])) for v in vertices
    }
    layering = Layering(assignment).normalized()
    layering.validate(graph)
    return layering


def minimum_total_span(graph: DiGraph) -> int:
    """The minimum achievable total edge span of *graph* (a lower bound on |E| + DVC)."""
    layering = minimum_dummy_layering(graph)
    return sum(layering.edge_span(u, v) for u, v in graph.edges())
