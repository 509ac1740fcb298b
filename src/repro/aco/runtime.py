"""The ACO tour loop that drives the walk kernel.

:func:`run_packed_colonies` is the layering phase of the paper
(Algorithm 4) for every caller that runs the kernel: each tour is one
:func:`repro.aco.kernels.run_walks_packed` sweep over every ant of every
colony of every graph in a :class:`~repro.aco.problem.PackedProblems`
pack, followed by evaporation and the tour-best deposit.  A single graph is
a pack of one (:class:`~repro.aco.colony.AntColony` on the default engine),
a multi-colony portfolio is a seed list
(:func:`repro.aco.parallel.parallel_aco_layering`), and the experiment
engine's batched executor packs many graphs.

Each colony keeps its own generator, pheromone matrix (a view into one
contiguous stack), base layering, global best and per-tour history, used in
exactly the order of the reference loop (``AntColony`` with
``engine="python"``), so every colony is bit-identical to it.
``ACOParams(exchange_every=k)`` couples the colonies of one graph: every
*k* tours the graph's best layering so far deposits pheromone on all of its
colonies' matrices, which deliberately changes results.

Everything runs in the calling process.  Multi-core speed-up comes from
one place only: the native walk kernel fans each sweep's walks out over
``REPRO_ACO_THREADS`` pthreads and joins them before returning, so a
process that later forks inherits no thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.aco.heuristic import AssignmentScore, LayerWidths, evaluate_with_widths
from repro.aco.kernels import draw_walk_randomness, fused_pow, run_walks_packed
from repro.aco.params import ACOParams
from repro.aco.pheromone import PheromoneMatrix
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.graph.digraph import DiGraph
from repro.utils.exceptions import ValidationError
from repro.utils.rng import as_generator

__all__ = ["TourRecord", "ColonyOutcome", "run_packed_colonies", "prewarm"]


@dataclass(frozen=True)
class TourRecord:
    """Summary of one tour, kept for convergence analysis and tests."""

    tour: int
    best_objective: float
    mean_objective: float
    best_height: int
    best_width: float
    best_ant_id: int


@dataclass
class ColonyOutcome:
    """One colony's best solution, in stretched layer coordinates, and its history.

    ``ant_id`` is the ant that found the best solution (``-1`` when no tour
    beat the stretched-LPL start).  ``seed`` is the colony's entry of the
    caller's seed list: an integer, ``None`` or a Generator.
    """

    colony_index: int
    seed: int | None | np.random.Generator
    score: AssignmentScore
    assignment: np.ndarray
    ant_id: int
    history: list[TourRecord]


def run_packed_colonies(
    packed: PackedProblems,
    params: ACOParams,
    seeds_per_graph: Sequence[Sequence[int | None | np.random.Generator]],
) -> list[list[ColonyOutcome]]:
    """Run every graph's colonies through the cross-graph lockstep tour loop.

    Parameters
    ----------
    packed: the problem pack (see :meth:`PackedProblems.pack`).
    params: shared algorithm parameters (one :class:`MethodSpec`'s worth —
        the experiment engine's batch planner only packs cells with
        identical specs).
    seeds_per_graph: one colony-seed list per pack graph — ``[params.seed]``
        for a plain single-colony cell, the derived portfolio seeds for
        ``n_colonies > 1`` cells.  An entry may be a Generator, which the
        colony then consumes.

    Every tour is a single :func:`run_walks_packed` call sweeping
    ``Σ_g n_colonies_g × n_ants`` walks across the whole pack, spread over
    the walk kernel's threads (or the NumPy lockstep where no compiler
    exists).  Each graph keeps its own generators, pheromone matrices,
    deposit scale and best-tracking, consumed in exactly the per-graph
    order, so every colony is bit-identical to the reference
    :class:`~repro.aco.colony.AntColony` loop (``engine="python"``) run on
    its own — ``params.engine`` is not consulted here.

    Returns one ``list[ColonyOutcome]`` per graph, in pack order.
    """
    if len(seeds_per_graph) != packed.n_graphs:
        raise ValidationError(
            f"need one seed list per graph: {packed.n_graphs} graphs, "
            f"{len(seeds_per_graph)} seed lists"
        )
    problems = packed.problems
    n_ants = params.n_ants
    max_n = packed.max_n_vertices
    max_cols = packed.max_n_cols
    nd_width = packed.nd_width

    counts = [len(seeds) for seeds in seeds_per_graph]
    mat_graph = np.repeat(np.arange(packed.n_graphs, dtype=np.int64), counts)
    n_matrices = int(mat_graph.shape[0])
    walk_matrix = np.repeat(np.arange(n_matrices, dtype=np.int64), n_ants)
    walk_graph = mat_graph[walk_matrix]
    n_walks = n_matrices * n_ants

    rngs = [as_generator(seed) for seeds in seeds_per_graph for seed in seeds]

    # One zero-padded pheromone matrix per colony, stacked contiguously so
    # the kernel reads trails through the per-walk tau_index and evaporation
    # is one stack-wide pass.  Padding stays at zero (never inside any
    # walk's feasible span) except for the tau_min clamp, which the masks
    # also keep out of every decision.
    tau_values = np.zeros((n_matrices, max_n, max_cols), dtype=np.float64)
    pheromones: list[PheromoneMatrix] = []
    for m in range(n_matrices):
        p = problems[int(mat_graph[m])]
        tau_values[m, : p.n_vertices, 1 : p.n_layers + 1] = params.tau0
        pheromones.append(PheromoneMatrix.wrap(tau_values[m, : p.n_vertices, : p.n_layers + 1]))

    # Per-graph initial scores and deposit normalisation.  The paper does
    # not fix the deposit's absolute scale, and raw objectives (1 / (H + W))
    # are tiny next to tau0, so a tour-best ant as good as the stretched-LPL
    # start deposits exactly `params.deposit` and better ants deposit more.
    initial_scores: dict[int, AssignmentScore] = {}
    deposit_scale: dict[int, float] = {}
    for g, p in enumerate(problems):
        c = p.n_layers + 1
        base = LayerWidths(
            p,
            packed.init_real[g, :c],
            packed.init_crossing[g, :c],
            packed.init_occupancy[g, :c],
        )
        score = evaluate_with_widths(p, p.initial_assignment, base)
        initial_scores[g] = score
        deposit_scale[g] = (
            params.deposit / score.objective if score.objective > 0 else params.deposit
        )

    base_assignment = packed.initial_assignment[mat_graph].copy()
    base_real = packed.init_real[mat_graph].copy()
    base_crossing = packed.init_crossing[mat_graph].copy()
    base_occupancy = packed.init_occupancy[mat_graph].copy()

    # The starting layering seeds every colony's global best, so no colony
    # can return something worse than its seed.
    best_assignment = base_assignment.copy()
    best_scores: list[AssignmentScore] = [
        initial_scores[int(g)] for g in mat_graph
    ]
    best_ants = [-1] * n_matrices
    histories: list[list[TourRecord]] = [[] for _ in range(n_matrices)]

    alpha = params.alpha
    draw_uniforms = params.exploitation_probability < 1.0
    scale = np.array([deposit_scale[int(g)] for g in mat_graph])

    for tour in range(1, params.n_tours + 1):
        # Per-walk randomness, drawn graph by graph, colony by colony, in
        # ant order — each graph's generators see exactly the stream its
        # standalone run would consume.
        orders = np.zeros((n_walks, max_n), dtype=np.int64)
        uniforms = np.zeros((n_walks, max_n), dtype=np.float64) if draw_uniforms else None
        w = 0
        for m in range(n_matrices):
            p = problems[int(mat_graph[m])]
            rng = rngs[m]
            for _ in range(n_ants):
                order, u = draw_walk_randomness(p, params, rng)
                orders[w, : order.shape[0]] = order
                if u is not None:
                    uniforms[w, : u.shape[0]] = u
                w += 1

        tau_stack = tau_values if alpha == 1.0 else fused_pow(tau_values, alpha)

        real = np.repeat(base_real, n_ants, axis=0)
        crossing = np.repeat(base_crossing, n_ants, axis=0)
        occupancy = np.repeat(base_occupancy, n_ants, axis=0)
        base_rows = np.repeat(base_assignment, n_ants, axis=0)

        assignment = run_walks_packed(
            packed,
            params,
            tau_stack,
            walk_matrix,
            walk_graph,
            orders,
            uniforms,
            base_rows,
            real,
            crossing,
            occupancy,
        )

        # Vectorized tour-best selection: height, compacted width and the
        # objective of every walk in a handful of array passes, with the
        # exact element-wise operations of evaluate_with_widths (padded
        # layers are unoccupied, so they influence neither count nor max).
        # argmax takes the first maximum in ant order, like max() over the
        # reference loop's solutions, and the row mean equals its np.mean.
        heights = np.count_nonzero(occupancy[:, 1:], axis=1)
        totals = real[:, 1:] + nd_width * crossing[:, 1:]
        width_incl = np.where(occupancy[:, 1:] > 0, totals, -np.inf).max(axis=1)
        objective = (1.0 / (heights + width_incl)).reshape(n_matrices, n_ants)
        best_ant = objective.argmax(axis=1)
        mean_objective = objective.mean(axis=1)

        # Evaporate every colony in one stack-wide pass, then each
        # tour-best deposits on its own colony's matrix.
        tau_values[:, :, 1:] *= 1.0 - params.rho
        if params.tau_min > 0.0:
            np.maximum(tau_values[:, :, 1:], params.tau_min, out=tau_values[:, :, 1:])

        for m in range(n_matrices):
            ant = int(best_ant[m])
            wk = m * n_ants + ant
            p = problems[int(mat_graph[m])]
            n_g = p.n_vertices
            c_g = p.n_layers + 1
            widths_view = LayerWidths(
                p, real[wk, :c_g], crossing[wk, :c_g], occupancy[wk, :c_g]
            )
            score = evaluate_with_widths(p, assignment[wk, :n_g], widths_view)
            pheromones[m].deposit(assignment[wk, :n_g], scale[m] * score.objective)
            histories[m].append(
                TourRecord(
                    tour=tour,
                    best_objective=score.objective,
                    mean_objective=float(mean_objective[m]),
                    best_height=score.height,
                    best_width=score.width_including_dummies,
                    best_ant_id=ant,
                )
            )

            base_assignment[m] = assignment[wk]
            base_real[m] = real[wk]
            base_crossing[m] = crossing[wk]
            base_occupancy[m] = occupancy[wk]
            if score.objective > best_scores[m].objective:
                best_scores[m] = score
                best_assignment[m] = assignment[wk]
                best_ants[m] = ant

        if params.exchange_every and tour % params.exchange_every == 0 and tour < params.n_tours:
            # Elite migration stays *within* each graph: the graph's best
            # layering so far deposits on every one of its colonies'
            # matrices (first-best tie-breaking by colony order).
            start = 0
            for count in counts:
                if count > 1:
                    ms = range(start, start + count)
                    elite = max(ms, key=lambda m: best_scores[m].objective)
                    g = int(mat_graph[elite])
                    n_g = problems[g].n_vertices
                    amount = scale[elite] * best_scores[elite].objective
                    for m in ms:
                        pheromones[m].deposit(best_assignment[elite, :n_g], amount)
                start += count

    outcomes: list[list[ColonyOutcome]] = []
    start = 0
    for g, count in enumerate(counts):
        n_g = problems[g].n_vertices
        outcomes.append(
            [
                ColonyOutcome(
                    colony_index=c,
                    seed=seeds_per_graph[g][c],
                    score=best_scores[start + c],
                    assignment=best_assignment[start + c, :n_g].copy(),
                    ant_id=best_ants[start + c],
                    history=histories[start + c],
                )
                for c in range(count)
            ]
        )
        start += count
    return outcomes


def prewarm(*, n_vertices: int = 6, seed: int = 0) -> None:
    """Warm the packed-colony runtime before serving traffic.

    Runs one tiny pack end to end — problem build, packing, a short lockstep
    colony run — so the first real megabatch pays none of the lazy
    initialisation costs (native kernel library load, NumPy buffer pools).
    Milliseconds of work, and side-effect free.
    """
    graph = DiGraph()
    for v in range(n_vertices):
        graph.add_vertex(v)
    for v in range(n_vertices - 1):
        graph.add_edge(v, v + 1)
    if n_vertices >= 3:
        # One long edge so the warm-up exercises the dummy-vertex path too.
        graph.add_edge(0, n_vertices - 1)
    params = ACOParams(n_ants=2, n_tours=1, seed=seed)
    problem = LayeringProblem.from_graph(graph, nd_width=params.nd_width)
    run_packed_colonies(PackedProblems.pack([problem]), params, [[seed]])
