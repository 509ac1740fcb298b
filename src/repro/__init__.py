"""repro — Ant Colony Optimization for the DAG Layering Problem.

A from-scratch Python reproduction of

    R. Andreev, P. Healy, N. S. Nikolov,
    "Applying Ant Colony Optimization Metaheuristic to the DAG Layering
    Problem", IPPS/IPDPS 2007.

The package contains the full stack the paper depends on:

* :mod:`repro.graph` — a DAG data structure, generators, I/O and acyclicity
  tools;
* :mod:`repro.layering` — the layering representation, the paper's quality
  metrics, and the baseline algorithms (Longest-Path, MinWidth, Promote
  Layering, Coffman–Graham, exact minimum-dummy layering);
* :mod:`repro.aco` — the paper's contribution: the ACO layering algorithm,
  plus multi-colony portfolios;
* :mod:`repro.sugiyama` — the rest of the Sugiyama pipeline (cycle removal,
  crossing minimisation, coordinates, rendering) so layerings can be turned
  into actual drawings;
* :mod:`repro.datasets` — the synthetic AT&T-like benchmark corpus;
* :mod:`repro.experiments` — the harness that regenerates every figure of the
  paper's evaluation.

Quickstart
----------
>>> from repro import gnp_dag, aco_layering, evaluate_layering, ACOParams
>>> g = gnp_dag(30, 0.1, seed=1)
>>> layering = aco_layering(g, ACOParams(seed=1, n_ants=5, n_tours=5))
>>> evaluate_layering(g, layering).height >= 1
True
"""

from repro.aco import (
    ACOParams,
    AcoLayeringResult,
    aco_layering,
    aco_layering_detailed,
    parallel_aco_layering,
)
from repro.graph import (
    DiGraph,
    att_like_dag,
    from_networkx,
    gnp_dag,
    layered_random_dag,
    make_acyclic,
    to_networkx,
)
from repro.layering import (
    Layering,
    LayeringMetrics,
    coffman_graham_layering,
    evaluate_layering,
    longest_path_layering,
    make_proper,
    minimum_dummy_layering,
    minwidth_layering,
    minwidth_layering_sweep,
    promote_layering,
)
from repro.sugiyama import SugiyamaDrawing, sugiyama_layout

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # graph
    "DiGraph",
    "gnp_dag",
    "att_like_dag",
    "layered_random_dag",
    "make_acyclic",
    "to_networkx",
    "from_networkx",
    # layering
    "Layering",
    "LayeringMetrics",
    "evaluate_layering",
    "make_proper",
    "longest_path_layering",
    "minwidth_layering",
    "minwidth_layering_sweep",
    "promote_layering",
    "coffman_graham_layering",
    "minimum_dummy_layering",
    # aco
    "ACOParams",
    "aco_layering",
    "aco_layering_detailed",
    "AcoLayeringResult",
    "parallel_aco_layering",
    # sugiyama
    "sugiyama_layout",
    "SugiyamaDrawing",
]
