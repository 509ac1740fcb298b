"""The ant colony: tours, evaporation, pheromone deposit and solution inheritance.

One *tour* consists of every ant building a layering from the same base
layering (the previous tour's best).  At the end of a tour:

1. the pheromone matrix evaporates: ``τ ← (1 − ρ) · τ`` (clamped at
   ``τ_min``);
2. the tour-best ant deposits ``deposit · f`` pheromone on every
   (vertex, layer) coupling of its layering, where ``f = 1 / (H + W)``;
3. the tour-best layering (and hence the layer widths / heuristic
   information derived from it) becomes the base layering of the next tour.

The colony additionally tracks the best solution seen across all tours, which
is what :func:`repro.aco.layering_aco.aco_layering` ultimately returns.

:class:`AntColony` runs that loop in two ways.  With ``engine="python"`` it
keeps its own dense :class:`~repro.aco.pheromone.PheromoneMatrix` and walks
every :class:`~repro.aco.ant.Ant` vertex by vertex: the independent
reference the tests compare every other path against.  Otherwise it hands
the problem to :func:`repro.aco.runtime.run_packed_colonies` as a pack of
one, the tour loop every kernel run goes through.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.aco.ant import Ant, AntSolution
from repro.aco.heuristic import LayerWidths, evaluate_with_widths
from repro.aco.params import ACOParams
from repro.aco.pheromone import PheromoneMatrix
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.aco.runtime import TourRecord, run_packed_colonies
from repro.utils.rng import as_generator

#: When set (e.g. ``REPRO_ACO_DEBUG_WIDTHS=1``), the reference loop
#: cross-checks the tour-best ant's incrementally maintained LayerWidths
#: against a fresh from-scratch recomputation at every tour boundary.
_DEBUG_WIDTHS_ENV = "REPRO_ACO_DEBUG_WIDTHS"

__all__ = ["TourRecord", "ColonyResult", "AntColony"]


@dataclass
class ColonyResult:
    """Everything the colony produced: the best solution plus per-tour history."""

    best: AntSolution
    history: list[TourRecord] = field(default_factory=list)

    @property
    def objective(self) -> float:
        """Objective of the overall best solution."""
        return self.best.objective

    @property
    def n_tours(self) -> int:
        """Number of tours actually executed."""
        return len(self.history)


class AntColony:
    """Runs the layering phase (Algorithm 4 of the paper) for one problem instance."""

    def __init__(
        self,
        problem: LayeringProblem,
        params: ACOParams | None = None,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.problem = problem
        self.params = params if params is not None else ACOParams()
        self.rng = rng if rng is not None else as_generator(self.params.seed)
        # Only the reference loop owns a trail and ants: the kernel path
        # allocates its trail inside run_packed_colonies, and a second dense
        # n x (n + 1) matrix here would double a large graph's peak memory.
        self.pheromone: PheromoneMatrix | None = None
        self.ants: list[Ant] = []
        if self.params.engine == "python":
            self.pheromone = PheromoneMatrix(
                problem.n_vertices, problem.n_layers, tau0=self.params.tau0
            )
            self.ants = [Ant(i, problem, self.params) for i in range(self.params.n_ants)]

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #

    def run(self, *, n_tours: int | None = None) -> ColonyResult:
        """Execute the tours and return the best layering found.

        Every call is a fresh layering phase: it starts from the initial
        trail ``τ0`` and the stretched-LPL layering, and only the generator
        carries over between calls.

        Parameters
        ----------
        n_tours: override for the number of tours (defaults to
            ``params.n_tours``).
        """
        params = self.params if n_tours is None else self.params.replace(n_tours=n_tours)
        if params.engine == "python":
            return self._run_reference(params)
        problem = self.problem
        outcome = run_packed_colonies(PackedProblems.pack([problem]), params, [[self.rng]])[0][0]
        best = AntSolution(
            assignment=outcome.assignment,
            score=outcome.score,
            ant_id=outcome.ant_id,
            widths=LayerWidths.from_assignment(problem, outcome.assignment),
        )
        return ColonyResult(best=best, history=outcome.history)

    def _run_reference(self, params: ACOParams) -> ColonyResult:
        """The per-vertex reference loop: ``Ant.perform_walk`` on a dense trail."""
        problem = self.problem
        pheromone = self.pheromone
        assert pheromone is not None
        pheromone.values[:, 1:] = params.tau0

        base_assignment = problem.initial_assignment.copy()
        base_widths = LayerWidths.from_assignment(problem, base_assignment)

        # The paper does not specify the absolute scale of the pheromone
        # deposit.  Raw objectives (1 / (H + W)) are tiny compared to tau0, so
        # the deposit is normalised by the objective of the initial (stretched
        # LPL) layering: a tour-best ant as good as the starting point
        # deposits exactly `params.deposit`, better ants deposit more.
        initial_score = evaluate_with_widths(problem, base_assignment, base_widths)
        deposit_scale = (
            params.deposit / initial_score.objective
            if initial_score.objective > 0
            else params.deposit
        )

        # The starting layering (stretched LPL) itself seeds the global best,
        # so the colony can never return something worse than its seed.
        global_best = AntSolution(
            assignment=base_assignment.copy(),
            score=initial_score,
            ant_id=-1,
            widths=base_widths,
        )
        history: list[TourRecord] = []
        debug_widths = bool(os.environ.get(_DEBUG_WIDTHS_ENV))

        for tour in range(1, params.n_tours + 1):
            solutions = [
                ant.perform_walk(base_assignment, base_widths, pheromone, self.rng)
                for ant in self.ants
            ]
            tour_best = max(solutions, key=lambda s: s.objective)
            mean_objective = float(np.mean([s.objective for s in solutions]))

            # Evaporation, then the tour-best ant deposits pheromone.
            pheromone.evaporate(params.rho, params.tau_min)
            pheromone.deposit(tour_best.assignment, deposit_scale * tour_best.objective)

            # The best ant's layering (and the heuristic state implied by it)
            # seeds the next tour; the ant's incrementally maintained widths
            # are already consistent with it, so no from-scratch rebuild.
            base_assignment = tour_best.assignment.copy()
            base_widths = tour_best.widths
            if debug_widths:
                fresh = LayerWidths.from_assignment(problem, base_assignment)
                assert np.allclose(base_widths.real, fresh.real), (
                    "incremental real widths drifted from recomputation"
                )
                assert np.array_equal(base_widths.crossing, fresh.crossing), (
                    "incremental crossing counts drifted from recomputation"
                )
                assert np.array_equal(base_widths.occupancy, fresh.occupancy), (
                    "incremental occupancy drifted from recomputation"
                )

            if tour_best.objective > global_best.objective:
                global_best = tour_best

            history.append(
                TourRecord(
                    tour=tour,
                    best_objective=tour_best.objective,
                    mean_objective=mean_objective,
                    best_height=tour_best.score.height,
                    best_width=tour_best.score.width_including_dummies,
                    best_ant_id=tour_best.ant_id,
                )
            )

        return ColonyResult(best=global_best, history=history)
