"""In-process multi-colony runtime.

The classic multi-colony driver (:mod:`repro.aco.parallel`) treats each colony
as an opaque job: the graph is JSON-serialised to every worker, every colony
re-runs the initialisation phase (LPL, stretching, CSR indexing), and every
colony pays its own per-tour Python overhead.  This module removes all three
costs:

1. **One problem build.**  The :class:`~repro.aco.problem.LayeringProblem` is
   constructed once and its flat arrays feed every colony directly — no
   JSON, no re-parse, no per-colony initialisation.

2. **Lockstep colony batching.**  :func:`run_colonies_batch` advances *all*
   colonies together: each tour is one
   :func:`repro.aco.kernels.run_walks_batch` call sweeping every ant of every
   colony (8 colonies × 10 ants = one 80-walk kernel call), with each walk
   reading its own colony's pheromone matrix through the kernel's
   ``tau_index`` indirection.  Per-colony randomness, evaporation, deposit
   and best-tracking are untouched, so with ``exchange_every = 0`` (the
   default) the outcome is **bit-identical** to running the colonies one by
   one — the property the seed-stability tests pin down.

3. **Optional pheromone exchange.**  ``ACOParams(exchange_every=k)`` migrates
   the overall best layering across colonies every *k* tours: the elite
   assignment deposits pheromone on *every* colony's matrix, the standard
   coarse-grained cooperation scheme for parallel ant colonies.  Because this
   couples the colonies it deliberately changes results (usually for the
   better).

:func:`run_packed_colonies` extends the same loop across *graphs*: a
:class:`~repro.aco.problem.PackedProblems` pack advances every graph's
colonies through one :func:`repro.aco.kernels.run_walks_packed` sweep per
tour.

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
from repro.aco.kernels import (
    draw_walk_randomness,
    fused_pow,
    run_walks_batch,
    run_walks_packed,
)
from repro.aco.params import ACOParams
from repro.aco.pheromone import PheromoneMatrix
from repro.aco.problem import LayeringProblem, PackedProblems
from repro.graph.digraph import DiGraph
from repro.layering.base import Layering
from repro.layering.metrics import evaluate_layering
from repro.utils.exceptions import ValidationError
from repro.utils.rng import as_generator

__all__ = [
    "ColonyOutcome",
    "run_colonies_batch",
    "run_packed_colonies",
    "colonies_aco_layering",
    "prewarm",
]

# ---------------------------------------------------------------------- #
# the lockstep multi-colony loop
# ---------------------------------------------------------------------- #


@dataclass
class ColonyOutcome:
    """Best solution of one colony, in stretched layer coordinates."""

    colony_index: int
    seed: int
    score: AssignmentScore
    assignment: np.ndarray


def run_colonies_batch(
    problem: LayeringProblem,
    params: ACOParams,
    colony_seeds: Sequence[int],
) -> list[ColonyOutcome]:
    """Run several colonies in lockstep over one problem instance.

    Every tour performs exactly one :func:`run_walks_batch` call covering all
    ``len(colony_seeds) × params.n_ants`` walks; each walk reads its own
    colony's pheromone matrix via the ``tau_index`` indirection.  Each colony
    keeps its own generator (seeded from *colony_seeds*), pheromone matrix,
    base layering and global best, consumed in exactly the order the
    single-colony :class:`~repro.aco.colony.AntColony` would, so with
    ``params.exchange_every == 0`` the outcomes are bit-identical to running
    the colonies independently.
    """
    n_colonies = len(colony_seeds)
    n_ants = params.n_ants
    n_layers = problem.n_layers

    rngs = [as_generator(seed) for seed in colony_seeds]
    # All colonies' pheromone matrices live as views into one contiguous
    # (n_colonies, n_vertices, n_layers + 1) stack: evaporation and deposit
    # mutate the stack through the views, so with alpha == 1 the kernel call
    # reads the stack directly — no per-tour copy of the trails.
    tau_values = np.full(
        (n_colonies, problem.n_vertices, n_layers + 1), params.tau0, dtype=np.float64
    )
    tau_values[:, :, 0] = 0.0
    pheromones = [PheromoneMatrix.wrap(tau_values[c]) for c in range(n_colonies)]

    init_assignment = problem.initial_assignment
    init_widths = LayerWidths.from_assignment(problem, init_assignment)
    initial_score = evaluate_with_widths(problem, init_assignment, init_widths)
    # Same deposit normalisation as AntColony.run: a tour-best ant as good as
    # the stretched-LPL start deposits exactly `params.deposit`.
    deposit_scale = (
        params.deposit / initial_score.objective
        if initial_score.objective > 0
        else params.deposit
    )

    base_assignment = np.tile(init_assignment, (n_colonies, 1))
    base_real = np.tile(init_widths.real, (n_colonies, 1))
    base_crossing = np.tile(init_widths.crossing, (n_colonies, 1))
    base_occupancy = np.tile(init_widths.occupancy, (n_colonies, 1))

    # The starting layering seeds every colony's global best, so no colony
    # can return something worse than its seed (AntColony invariant).
    best_assignment = base_assignment.copy()
    best_scores: list[AssignmentScore] = [initial_score] * n_colonies

    tau_index = np.repeat(np.arange(n_colonies, dtype=np.int64), n_ants)
    alpha = params.alpha
    exchange = params.exchange_every if n_colonies > 1 else 0
    reference_engine = params.engine == "python"
    if reference_engine:
        from repro.aco.ant import Ant  # local import breaks the module cycle

        ants = [Ant(i, problem, params) for i in range(n_ants)]

    for tour in range(1, params.n_tours + 1):
        # One tour-best tuple per colony: (assignment, score, real, crossing,
        # occupancy), selected as the first maximum in ant order exactly like
        # max(solutions, key=objective).
        tour_best: list[tuple[np.ndarray, AssignmentScore, np.ndarray, np.ndarray, np.ndarray]] = []

        if reference_engine:
            # The per-vertex reference walk, kept selectable through the
            # colonies executor so engine="python" stays a usable escape
            # hatch for cross-checking the kernels on multi-colony runs.
            for c in range(n_colonies):
                base_w = LayerWidths(
                    problem, base_real[c], base_crossing[c], base_occupancy[c]
                )
                solutions = [
                    ant.perform_walk(base_assignment[c], base_w, pheromones[c], rngs[c])
                    for ant in ants
                ]
                best = max(solutions, key=lambda s: s.objective)
                tour_best.append(
                    (
                        best.assignment,
                        best.score,
                        best.widths.real,
                        best.widths.crossing,
                        best.widths.occupancy,
                    )
                )
        else:
            # Per-walk randomness, drawn colony by colony in ant order —
            # exactly how each colony's own generator stream would be
            # consumed.
            draws = [
                draw_walk_randomness(problem, params, rngs[c])
                for c in range(n_colonies)
                for _ in range(n_ants)
            ]
            orders = np.stack([order for order, _ in draws])
            uniforms = None if draws[0][1] is None else np.stack([u for _, u in draws])

            tau_stack = tau_values if alpha == 1.0 else fused_pow(tau_values, alpha)

            real = np.repeat(base_real, n_ants, axis=0)
            crossing = np.repeat(base_crossing, n_ants, axis=0)
            occupancy = np.repeat(base_occupancy, n_ants, axis=0)
            base_rows = np.repeat(base_assignment, n_ants, axis=0)

            assignment = run_walks_batch(
                problem,
                params,
                tau_stack,
                tau_index,
                orders,
                uniforms,
                base_rows,
                real,
                crossing,
                occupancy,
            )

            for c in range(n_colonies):
                start = c * n_ants
                best_row = start
                best_score: AssignmentScore | None = None
                for a in range(start, start + n_ants):
                    widths = LayerWidths(problem, real[a], crossing[a], occupancy[a])
                    score = evaluate_with_widths(problem, assignment[a], widths)
                    if best_score is None or score.objective > best_score.objective:
                        best_row, best_score = a, score
                assert best_score is not None
                tour_best.append(
                    (
                        assignment[best_row],
                        best_score,
                        real[best_row],
                        crossing[best_row],
                        occupancy[best_row],
                    )
                )

        # Evaporate all colonies in one stack-wide pass: each matrix sees the
        # exact element-wise operations PheromoneMatrix.evaporate would apply,
        # and the matrices are independent, so batching preserves bit-identity.
        tau_values[:, :, 1:] *= 1.0 - params.rho
        if params.tau_min > 0.0:
            np.maximum(tau_values[:, :, 1:], params.tau_min, out=tau_values[:, :, 1:])

        for c, (best_asg, best_score, best_real, best_crossing, best_occupancy) in enumerate(
            tour_best
        ):
            pheromones[c].deposit(best_asg, deposit_scale * best_score.objective)

            base_assignment[c] = best_asg
            base_real[c] = best_real
            base_crossing[c] = best_crossing
            base_occupancy[c] = best_occupancy
            if best_score.objective > best_scores[c].objective:
                best_scores[c] = best_score
                best_assignment[c] = best_asg

        if exchange and tour % exchange == 0 and tour < params.n_tours:
            # Elite migration: the overall best layering so far deposits on
            # every colony's matrix (first-best tie-breaking by colony order).
            elite = max(
                range(n_colonies), key=lambda c: best_scores[c].objective
            )
            amount = deposit_scale * best_scores[elite].objective
            for pheromone in pheromones:
                pheromone.deposit(best_assignment[elite], amount)

    return [
        ColonyOutcome(
            colony_index=c,
            seed=int(colony_seeds[c]),
            score=best_scores[c],
            assignment=best_assignment[c].copy(),
        )
        for c in range(n_colonies)
    ]


def colonies_aco_layering(
    graph: DiGraph,
    params: ACOParams | None = None,
    *,
    n_colonies: int = 4,
):
    """Run *n_colonies* colonies through the lockstep runtime.

    The drop-in ``executor="colonies"`` back end of
    :func:`repro.aco.parallel.parallel_aco_layering`: same seed derivation,
    same result type, same best-colony selection — but the problem is built
    once and the tours run as one in-process lockstep batch whose walks the
    kernel spreads over its threads.

    Returns a :class:`repro.aco.parallel.ParallelAcoResult`.
    """
    from repro.aco.parallel import (  # local import breaks the module cycle
        ColonyRunSummary,
        ParallelAcoResult,
        _derive_colony_seeds,
    )

    if n_colonies < 1:
        raise ValidationError(f"n_colonies must be >= 1, got {n_colonies}")
    params = params if params is not None else ACOParams()
    seeds = _derive_colony_seeds(params.seed, n_colonies)
    problem = LayeringProblem.from_graph(graph, nd_width=params.nd_width)

    summaries = []
    for outcome in run_colonies_batch(problem, params, seeds):
        layering = problem.assignment_to_layering(outcome.assignment, normalize=True)
        metrics = evaluate_layering(graph, layering, nd_width=params.nd_width)
        summaries.append(
            ColonyRunSummary(
                colony_index=outcome.colony_index,
                seed=outcome.seed,
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


# ---------------------------------------------------------------------- #
# cross-graph packed execution
# ---------------------------------------------------------------------- #

def run_packed_colonies(
    packed: PackedProblems,
    params: ACOParams,
    seeds_per_graph: Sequence[Sequence[int]],
) -> list[list[ColonyOutcome]]:
    """Run every graph's colonies through the cross-graph lockstep runtime.

    Parameters
    ----------
    packed: the problem pack (see :meth:`PackedProblems.pack`).
    params: shared algorithm parameters (one :class:`MethodSpec`'s worth —
        the experiment engine's batch planner only packs cells with
        identical specs).
    seeds_per_graph: one colony-seed list per pack graph — ``[params.seed]``
        for a plain single-colony cell, the derived portfolio seeds for
        ``n_colonies > 1`` cells.

    Every tour is a single :func:`run_walks_packed` call sweeping
    ``Σ_g n_colonies_g × n_ants`` walks across the whole pack, spread over
    the walk kernel's threads.  Each graph keeps its own generators,
    pheromone matrices, deposit scale and best-tracking, consumed in exactly
    the per-graph order, so the outcomes are bit-identical to running each
    graph through :func:`run_colonies_batch` (and therefore to the
    single-colony :class:`~repro.aco.colony.AntColony`) on its own.

    Returns one ``list[ColonyOutcome]`` per graph, in pack order.
    """
    if len(seeds_per_graph) != packed.n_graphs:
        raise ValidationError(
            f"need one seed list per graph: {packed.n_graphs} graphs, "
            f"{len(seeds_per_graph)} seed lists"
        )
    problems = packed.problems
    if params.engine == "python":
        # The per-vertex reference engine has no batching win; delegate to
        # the single-graph loop, which already pins bit-identity to the ants.
        return [
            run_colonies_batch(problem, params, seeds)
            for problem, seeds in zip(problems, seeds_per_graph)
        ]

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

    # Per-graph initial scores and deposit normalisation (AntColony protocol).
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

    best_assignment = base_assignment.copy()
    best_scores: list[AssignmentScore] = [
        initial_scores[int(g)] for g in mat_graph
    ]

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
        heights = np.count_nonzero(occupancy[:, 1:], axis=1)
        totals = real[:, 1:] + nd_width * crossing[:, 1:]
        width_incl = np.where(occupancy[:, 1:] > 0, totals, -np.inf).max(axis=1)
        objective = 1.0 / (heights + width_incl)
        best_walk = (
            objective.reshape(n_matrices, n_ants).argmax(axis=1)
            + np.arange(n_matrices) * n_ants
        )

        # Evaporate every colony in one stack-wide pass, then each
        # tour-best deposits on its own colony's matrix.
        tau_values[:, :, 1:] *= 1.0 - params.rho
        if params.tau_min > 0.0:
            np.maximum(tau_values[:, :, 1:], params.tau_min, out=tau_values[:, :, 1:])

        for m in range(n_matrices):
            wk = int(best_walk[m])
            p = problems[int(mat_graph[m])]
            n_g = p.n_vertices
            c_g = p.n_layers + 1
            widths_view = LayerWidths(
                p, real[wk, :c_g], crossing[wk, :c_g], occupancy[wk, :c_g]
            )
            score = evaluate_with_widths(p, assignment[wk, :n_g], widths_view)
            pheromones[m].deposit(assignment[wk, :n_g], scale[m] * score.objective)

            base_assignment[m] = assignment[wk]
            base_real[m] = real[wk]
            base_crossing[m] = crossing[wk]
            base_occupancy[m] = occupancy[wk]
            if score.objective > best_scores[m].objective:
                best_scores[m] = score
                best_assignment[m] = assignment[wk]

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
                    seed=int(seeds_per_graph[g][c]),
                    score=best_scores[start + c],
                    assignment=best_assignment[start + c, :n_g].copy(),
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
