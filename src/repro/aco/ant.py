"""A single ant: one stochastic constructive walk over the construction graph.

An ant starts from the tour's base layering (the stretched LPL layering on the
first tour, the previous tour-best layering afterwards), visits the vertices
in a uniformly random order, and re-assigns each visited vertex to a layer
from its current layer span using the random-proportional rule

    p(v, l)  =  τ[v, l]^α · η[v, l]^β  /  Σ_{l' ∈ span(v)} τ[v, l']^α · η[v, l']^β

with η[v, l] = 1 / W(l), where W(l) is the dummy-inclusive width layer ``l``
would have with ``v`` on it.  The paper's implementation assigns the vertex to
the layer with the **highest** probability (``selection="argmax"``); classical
roulette-wheel sampling is available as ``selection="roulette"`` for the
ablation study.  After every assignment the ant updates its private copy of
the layer widths (Algorithm 5) so the heuristic stays consistent with the
partial solution, exactly as required by the dynamic-heuristic formulation.

This module is the *per-vertex reference walk*: ``AntColony`` with
``ACOParams(engine="python")`` runs it, and it is the independent oracle the
tests hold every other path to.  The production path runs the same walk
batched across ants (:func:`repro.aco.kernels.run_walks_packed`, driven by
:func:`repro.aco.runtime.run_packed_colonies`).  Both share the randomness,
scoring and selection protocol defined in :mod:`repro.aco.kernels` and
produce bit-identical solutions for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aco.heuristic import AssignmentScore, LayerWidths, evaluate_with_widths
from repro.aco.kernels import draw_walk_randomness, fused_pow, select_from_scores
from repro.aco.params import ACOParams
from repro.aco.pheromone import PheromoneMatrix
from repro.aco.problem import LayeringProblem

__all__ = ["Ant", "AntSolution"]


@dataclass
class AntSolution:
    """The outcome of one ant walk.

    Attributes
    ----------
    assignment:
        Layer index of every vertex (in the stretched layer numbering).
    score:
        Objective, height, dummy-inclusive width and dummy count of the
        compacted layering.
    ant_id:
        Identifier of the ant that produced the solution (stable within a
        colony; ``-1`` marks the colony's seed layering).
    widths:
        The ant's final :class:`~repro.aco.heuristic.LayerWidths`, consistent
        with ``assignment``; the colony reuses the tour-best ant's instance
        as the next tour's base widths instead of recomputing from scratch.
    """

    assignment: np.ndarray
    score: AssignmentScore
    ant_id: int
    widths: LayerWidths | None = None

    @property
    def objective(self) -> float:
        """Shortcut for ``score.objective`` (the value the colony maximises)."""
        return self.score.objective


class Ant:
    """A computational agent that builds one layering per tour."""

    __slots__ = ("ant_id", "problem", "params")

    def __init__(self, ant_id: int, problem: LayeringProblem, params: ACOParams) -> None:
        self.ant_id = ant_id
        self.problem = problem
        self.params = params

    # ------------------------------------------------------------------ #
    # construction step
    # ------------------------------------------------------------------ #

    def _span_scores(
        self,
        v: int,
        lo: int,
        hi: int,
        current: int,
        widths: LayerWidths,
        pheromone: PheromoneMatrix,
    ) -> np.ndarray:
        """The τ^α·η^β score of every layer in the span ``[lo, hi]``."""
        params = self.params
        tau = pheromone.trail(v, lo, hi)
        eta = widths.eta(v, lo, hi, current, params.eta_epsilon)
        return fused_pow(tau, params.alpha) * fused_pow(eta, params.beta)

    def choose_layer(
        self,
        v: int,
        lo: int,
        hi: int,
        current: int,
        widths: LayerWidths,
        pheromone: PheromoneMatrix,
        rng: np.random.Generator,
    ) -> int:
        """Pick a layer for vertex *v* from its span ``[lo, hi]``.

        Implements the random-proportional rule; degenerate cases (all scores
        zero, a single-layer span) fall back to sensible choices.  Standalone
        entry point for tests and callers outside a walk — the walk itself
        consumes the pre-drawn per-walk uniforms instead of drawing here.
        """
        if lo == hi:
            return lo
        q0 = self.params.exploitation_probability
        u = float(rng.random()) if q0 < 1.0 else None
        scores = self._span_scores(v, lo, hi, current, widths, pheromone)
        return lo + select_from_scores(scores, hi - lo + 1, q0, u)

    # ------------------------------------------------------------------ #
    # the walk
    # ------------------------------------------------------------------ #

    def perform_walk(
        self,
        base_assignment: np.ndarray,
        base_widths: LayerWidths,
        pheromone: PheromoneMatrix,
        rng: np.random.Generator,
    ) -> AntSolution:
        """Build one complete layering starting from the tour's base layering.

        Parameters
        ----------
        base_assignment:
            Layer of every vertex at the start of the tour; not modified.
        base_widths:
            Layer widths matching *base_assignment*; not modified (the ant
            works on its own copy, emulating the parallel work environment of
            the colony).
        pheromone:
            The shared pheromone matrix (read-only during the walk).
        rng:
            Random generator driving the vertex order and any sampling.
        """
        problem = self.problem
        params = self.params
        assignment = base_assignment.copy()
        widths = base_widths.copy()

        order, uniforms = draw_walk_randomness(problem, params, rng)
        q0 = params.exploitation_probability
        for i in range(problem.n_vertices):
            v = int(order[i])
            lo, hi = problem.layer_span(assignment, v)
            current = int(assignment[v])
            if lo == hi:
                new = lo
            else:
                scores = self._span_scores(v, lo, hi, current, widths, pheromone)
                u = None if uniforms is None else float(uniforms[i])
                new = lo + select_from_scores(scores, hi - lo + 1, q0, u)
            if new != current:
                widths.apply_move(v, current, new, assignment)
                assignment[v] = new

        score = evaluate_with_widths(problem, assignment, widths)
        return AntSolution(
            assignment=assignment, score=score, ant_id=self.ant_id, widths=widths
        )
