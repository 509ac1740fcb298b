"""Multi-colony portfolios: several independent colonies, best layering kept.

The paper frames a tour as "emulating a parallel work environment for all the
ants".  The coarse-grained extension is a *portfolio*: several colonies,
each with its own seed and pheromone matrix, on the same graph, keeping the
best layering.  :func:`parallel_aco_layering` builds the problem once and
runs the portfolio as one seed list through
:func:`repro.aco.runtime.run_packed_colonies`, so every tour sweeps all
colonies' ants in one kernel call that the native kernel spreads over its
threads.

Determinism: the per-colony seeds are derived from ``params.seed`` with
:class:`numpy.random.SeedSequence` spawning.  While
``params.exchange_every == 0`` every colony is bit-identical to a
single-colony :func:`repro.aco.layering_aco.aco_layering_detailed` run with
its derived seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.aco.params import ACOParams
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.aco.runtime import ColonyOutcome, run_packed_colonies
from repro.graph.digraph import DiGraph
from repro.layering.base import Layering
from repro.layering.metrics import evaluate_layering
from repro.utils.exceptions import ValidationError

__all__ = ["ColonyRunSummary", "ParallelAcoResult", "parallel_aco_layering", "portfolio_result"]


@dataclass(frozen=True)
class ColonyRunSummary:
    """Best layering and objective of one independent colony."""

    colony_index: int
    seed: int
    objective: float
    height: int
    width_including_dummies: float
    assignment: dict[Any, int]


@dataclass
class ParallelAcoResult:
    """Outcome of a multi-colony run: overall best layering plus per-colony summaries."""

    layering: Layering
    best_colony: ColonyRunSummary
    colonies: list[ColonyRunSummary]

    @property
    def objective(self) -> float:
        """Objective of the overall best layering."""
        return self.best_colony.objective


def _derive_colony_seeds(seed: int | None, n_colonies: int) -> list[int]:
    """Deterministic per-colony seeds derived from the run seed."""
    seq = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(n_colonies)]


def portfolio_result(
    graph: DiGraph,
    problem: LayeringProblem,
    outcomes: Sequence[ColonyOutcome],
    nd_width: float,
) -> ParallelAcoResult:
    """Score every colony's layering on *graph* and keep the best colony.

    The best colony is the first objective maximum in colony order; its
    layering is validated against *graph*.
    """
    summaries = []
    for outcome in outcomes:
        layering = problem.assignment_to_layering(outcome.assignment, normalize=True)
        metrics = evaluate_layering(graph, layering, nd_width=nd_width)
        summaries.append(
            ColonyRunSummary(
                colony_index=outcome.colony_index,
                seed=int(outcome.seed),
                objective=metrics.objective,
                height=metrics.height,
                width_including_dummies=metrics.width_including_dummies,
                assignment=layering.to_dict(),
            )
        )
    best = max(summaries, key=lambda s: s.objective)
    layering = Layering(best.assignment)
    layering.validate(graph)
    return ParallelAcoResult(layering=layering, best_colony=best, colonies=summaries)


def parallel_aco_layering(
    graph: DiGraph,
    params: ACOParams | None = None,
    *,
    n_colonies: int = 4,
) -> ParallelAcoResult:
    """Run *n_colonies* independent colonies and keep the best layering.

    Parameters
    ----------
    graph: the DAG to layer.
    params: shared algorithm parameters; ``params.seed`` seeds the whole run
        and ``params.exchange_every`` couples the colonies.
    n_colonies: how many colonies to run.

    Returns
    -------
    ParallelAcoResult
        The best layering (validated against *graph*) plus one summary per
        colony, sorted by colony index.
    """
    if n_colonies < 1:
        raise ValidationError(f"n_colonies must be >= 1, got {n_colonies}")
    params = params if params is not None else ACOParams()
    seeds = _derive_colony_seeds(params.seed, n_colonies)
    problem = LayeringProblem.from_graph(graph, nd_width=params.nd_width)
    outcomes = run_packed_colonies(PackedProblems.pack([problem]), params, [seeds])[0]
    return portfolio_result(graph, problem, outcomes, params.nd_width)
