"""Ant Colony Optimization for the DAG layering problem — the paper's contribution.

The public entry points are:

* :func:`repro.aco.layering_aco.aco_layering` — layer a DAG with the ACO
  algorithm and get back a :class:`~repro.layering.base.Layering`;
* :func:`repro.aco.layering_aco.aco_layering_detailed` — same, but returning
  the full :class:`~repro.aco.layering_aco.AcoLayeringResult` with metrics and
  per-tour convergence history;
* :class:`repro.aco.params.ACOParams` — every tunable knob (number of ants and
  tours, α, β, evaporation rate, initial pheromone, dummy-vertex width,
  selection rule);
* :func:`repro.aco.parallel.parallel_aco_layering` — run a portfolio of
  colonies with derived seeds (optionally exchanging pheromone,
  ``ACOParams(exchange_every=k)``) and keep the best layering.

Internally the algorithm follows the paper's two phases: an *initialisation
phase* (LPL, stretching to ``|V|`` layers, pheromone/heuristic matrices) and a
*layering phase* (tours of ant walks with dynamic heuristic information,
evaporation and best-ant pheromone deposit).  Every kernel run of the
layering phase goes through one tour loop,
:func:`repro.aco.runtime.run_packed_colonies`; ``ACOParams(engine="python")``
runs :class:`~repro.aco.colony.AntColony`'s own per-vertex loop instead, the
reference the tests compare against.
"""

from repro.aco.analysis import (
    ImprovementReport,
    RunStatistics,
    convergence_curve,
    improvement_over_baseline,
    run_statistics,
    tours_to_convergence,
)
from repro.aco.ant import Ant, AntSolution
from repro.aco.colony import AntColony, ColonyResult, TourRecord
from repro.aco.heuristic import LayerWidths, evaluate_assignment, evaluate_with_widths
from repro.aco.kernels import evaluate_assignment_vectorized
from repro.aco.layering_aco import AcoLayeringResult, aco_layering, aco_layering_detailed
from repro.aco.parallel import parallel_aco_layering
from repro.aco.params import ACOParams
from repro.aco.pheromone import PheromoneMatrix
from repro.aco.problem import LayeringProblem

__all__ = [
    "ACOParams",
    "LayeringProblem",
    "PheromoneMatrix",
    "LayerWidths",
    "evaluate_assignment",
    "evaluate_with_widths",
    "evaluate_assignment_vectorized",
    "Ant",
    "AntSolution",
    "AntColony",
    "ColonyResult",
    "TourRecord",
    "AcoLayeringResult",
    "aco_layering",
    "aco_layering_detailed",
    "parallel_aco_layering",
    # analysis
    "convergence_curve",
    "tours_to_convergence",
    "ImprovementReport",
    "improvement_over_baseline",
    "RunStatistics",
    "run_statistics",
]
