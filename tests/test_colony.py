"""Tests for the AntColony tour loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aco.colony import AntColony, ColonyResult, TourRecord
from repro.aco.heuristic import evaluate_assignment
from repro.aco.params import ACOParams
from repro.aco.problem import LayeringProblem
from repro.graph.generators import att_like_dag
from repro.utils.rng import as_generator


def small_problem(seed=0, n=25, nd_width=1.0):
    return LayeringProblem.from_graph(att_like_dag(n, seed=seed), nd_width=nd_width)


class TestRun:
    def test_history_length_matches_tours(self):
        problem = small_problem()
        params = ACOParams(n_ants=3, n_tours=4, seed=1)
        result = AntColony(problem, params).run()
        assert isinstance(result, ColonyResult)
        assert result.n_tours == 4
        assert all(isinstance(rec, TourRecord) for rec in result.history)
        assert [rec.tour for rec in result.history] == [1, 2, 3, 4]

    def test_n_tours_override(self):
        problem = small_problem()
        params = ACOParams(n_ants=2, n_tours=10, seed=1)
        result = AntColony(problem, params).run(n_tours=2)
        assert result.n_tours == 2

    def test_best_is_at_least_as_good_as_every_tour(self):
        problem = small_problem(seed=3)
        params = ACOParams(n_ants=4, n_tours=5, seed=2)
        result = AntColony(problem, params).run()
        assert all(result.best.objective >= rec.best_objective - 1e-12 for rec in result.history)

    def test_never_worse_than_initial_layering(self):
        # The colony's global best is seeded with the stretched LPL layering,
        # so the result can never be worse than the seed.
        for seed in range(4):
            problem = small_problem(seed=seed, n=30)
            initial = evaluate_assignment(problem, problem.initial_assignment)
            params = ACOParams(n_ants=3, n_tours=3, seed=seed)
            result = AntColony(problem, params).run()
            assert result.best.objective >= initial.objective - 1e-12

    def test_deterministic_given_seed(self):
        problem_a = small_problem(seed=5)
        problem_b = small_problem(seed=5)
        params = ACOParams(n_ants=3, n_tours=3, seed=9)
        res_a = AntColony(problem_a, params).run()
        res_b = AntColony(problem_b, params).run()
        assert np.array_equal(res_a.best.assignment, res_b.best.assignment)
        assert res_a.best.objective == res_b.best.objective

    def test_history_matches_reference_with_many_ants(self):
        # With 9+ ants NumPy sums a tour's objectives pairwise; the kernel
        # path's per-colony row mean must still equal the reference loop's
        # np.mean over its solutions, bit for bit.
        problem = small_problem(seed=4, n=30)
        params = ACOParams(n_ants=13, n_tours=3, seed=8, q0=0.6)
        reference = AntColony(problem, params.replace(engine="python")).run()
        result = AntColony(problem, params).run()
        assert result.history == reference.history
        assert result.best.ant_id == reference.best.ant_id

    def test_repeated_runs_match_reference(self):
        # A second run starts again from tau0 on both paths; only the
        # generator carries over.
        problem = small_problem(seed=2, n=30)
        params = ACOParams(n_ants=3, n_tours=3, seed=1)
        reference = AntColony(problem, params.replace(engine="python"))
        colony = AntColony(problem, params)
        for _ in range(2):
            ref, got = reference.run(), colony.run()
            assert got.history == ref.history
            assert np.array_equal(got.best.assignment, ref.best.assignment)

    def test_result_layering_is_valid(self):
        problem = small_problem(seed=6)
        params = ACOParams(n_ants=3, n_tours=3, seed=0)
        result = AntColony(problem, params).run()
        layering = problem.assignment_to_layering(result.best.assignment)
        layering.validate(problem.graph)


class TestPheromoneDynamics:
    """Trail dynamics of the reference loop, the only path with a colony-owned trail."""

    def test_pheromone_changes_after_run(self):
        problem = small_problem(seed=7)
        params = ACOParams(n_ants=2, n_tours=3, seed=0, rho=0.5, engine="python")
        colony = AntColony(problem, params)
        before = colony.pheromone.values.copy()
        colony.run()
        assert not np.allclose(before, colony.pheromone.values)

    def test_pheromone_respects_tau_min(self):
        problem = small_problem(seed=8)
        params = ACOParams(n_ants=2, n_tours=6, seed=0, rho=0.9, tau_min=1e-3, engine="python")
        colony = AntColony(problem, params)
        colony.run()
        assert np.all(colony.pheromone.values[:, 1:] >= 1e-3 - 1e-12)

    def test_best_ant_cells_accumulate_more_pheromone(self):
        problem = small_problem(seed=9)
        params = ACOParams(n_ants=3, n_tours=5, seed=1, rho=0.3, engine="python")
        colony = AntColony(problem, params)
        result = colony.run()
        values = colony.pheromone.values
        best_cells = values[np.arange(problem.n_vertices), result.best.assignment]
        # The best assignment's cells should on average hold at least as much
        # pheromone as a random other cell.
        assert best_cells.mean() >= values[:, 1:].mean() - 1e-9


class TestExternalRng:
    def test_explicit_rng_used(self):
        problem = small_problem(seed=10)
        params = ACOParams(n_ants=2, n_tours=2)
        rng = as_generator(123)
        result1 = AntColony(problem, params, rng=as_generator(123)).run()
        result2 = AntColony(problem, params, rng=rng).run()
        assert np.array_equal(result1.best.assignment, result2.best.assignment)
