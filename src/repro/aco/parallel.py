"""Parallel execution of independent ant colonies.

The paper frames a tour as "emulating a parallel work environment for all the
ants".  On a multi-core machine the natural coarse-grained parallelisation in
pure Python is to run several *independent colonies* — each with its own seed
and pheromone matrix — and keep the best layering.  This module provides
exactly that, with three execution back ends:

* ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor`; the graph
  is shipped to workers as a JSON dictionary so no unpicklable state crosses
  the process boundary.  This is the back end that actually uses multiple
  cores (CPython's GIL prevents thread-level speed-up for this workload).
* ``"thread"`` — a thread pool; useful when process start-up costs dominate
  (tiny graphs) or on platforms where spawning processes is undesirable.
* ``"serial"`` — run the colonies one after another in-process; the
  deterministic reference used by tests to check that the parallel back ends
  return equivalent results.
* ``"colonies"`` — the lockstep runtime of :mod:`repro.aco.runtime`: the
  problem is built once and every tour sweeps all colonies' ants in one
  in-process kernel call, which the native kernel spreads over its threads
  (``max_workers`` does not apply).  Bit-identical to ``"serial"`` for a
  fixed seed while ``params.exchange_every == 0``.

Determinism: given ``params.seed`` the per-colony seeds are derived with
:func:`repro.utils.rng.spawn_generators`-style seed spawning, so the set of
colony results (and therefore the best layering) is the same for every back
end and worker count.

The pool plumbing itself (ship the shared payload once per worker via the
pool initializer, submit only small per-task arguments) lives in
:mod:`repro.utils.pool` and is shared with the experiment engine
(:mod:`repro.experiments.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.aco.layering_aco import AcoLayeringResult, aco_layering_detailed
from repro.aco.params import ACOParams
from repro.graph.digraph import DiGraph
from repro.graph.io import from_json_dict, to_json_dict
from repro.layering.base import Layering
from repro.utils.exceptions import ValidationError
from repro.utils.pool import EXECUTORS, map_with_state

__all__ = ["ColonyRunSummary", "ParallelAcoResult", "parallel_aco_layering", "run_single_colony"]

_EXECUTORS = EXECUTORS + ("colonies",)


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


def _colony_summary(
    graph: DiGraph, params_dict: dict[str, Any], colony_index: int, seed: int
) -> ColonyRunSummary:
    """Run one colony on an already-decoded graph and summarise the result."""
    params = ACOParams(**{**params_dict, "seed": seed})
    result: AcoLayeringResult = aco_layering_detailed(graph, params)
    return ColonyRunSummary(
        colony_index=colony_index,
        seed=seed,
        objective=result.metrics.objective,
        height=result.metrics.height,
        width_including_dummies=result.metrics.width_including_dummies,
        assignment=result.layering.to_dict(),
    )


def run_single_colony(
    graph_json: dict[str, Any], params_dict: dict[str, Any], colony_index: int, seed: int
) -> ColonyRunSummary:
    """Worker entry point: run one colony on a JSON-encoded graph.

    Module-level (and operating only on plain dictionaries) so it can be
    dispatched through a process pool.
    """
    return _colony_summary(from_json_dict(graph_json), params_dict, colony_index, seed)


def _decode_colony_payload(
    payload: tuple[dict[str, Any], dict[str, Any]]
) -> tuple[DiGraph, dict[str, Any]]:
    """Per-worker state: decode the shared graph JSON once for this worker."""
    graph_json, params_dict = payload
    return from_json_dict(graph_json), dict(params_dict)


def _run_colony_task(
    state: tuple[DiGraph, dict[str, Any]], colony_index: int, seed: int
) -> ColonyRunSummary:
    """Worker entry point operating on the per-worker ``(graph, params)`` state."""
    graph, params_dict = state
    return _colony_summary(graph, params_dict, colony_index, seed)


def parallel_aco_layering(
    graph: DiGraph,
    params: ACOParams | None = None,
    *,
    n_colonies: int = 4,
    max_workers: int | None = None,
    executor: str = "process",
) -> ParallelAcoResult:
    """Run *n_colonies* independent colonies and keep the best layering.

    Parameters
    ----------
    graph: the DAG to layer.
    params: shared algorithm parameters; ``params.seed`` seeds the whole run.
    n_colonies: how many independent colonies to run.
    max_workers: worker cap for the ``"process"`` and ``"thread"`` back
        ends (default: resolved via
        :func:`repro.utils.pool.effective_workers`, i.e. ``REPRO_JOBS`` or
        the CPU count, clamped to the colony count).
    executor: ``"process"``, ``"thread"``, ``"serial"`` or ``"colonies"``
        (the in-process lockstep runtime, see :mod:`repro.aco.runtime`).

    Returns
    -------
    ParallelAcoResult
        The best layering (validated against *graph*) plus one summary per
        colony, sorted by colony index.
    """
    if n_colonies < 1:
        raise ValidationError(f"n_colonies must be >= 1, got {n_colonies}")
    if executor not in _EXECUTORS:
        raise ValidationError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
    if executor == "colonies":
        from repro.aco.runtime import colonies_aco_layering  # avoid module cycle

        return colonies_aco_layering(graph, params, n_colonies=n_colonies)
    params = params if params is not None else ACOParams()
    seeds = _derive_colony_seeds(params.seed, n_colonies)
    params_dict = params.as_dict()

    tasks = [(i, seeds[i]) for i in range(n_colonies)]
    summaries: list[ColonyRunSummary]
    if executor != "process" or n_colonies == 1:
        # In-process: the caller's graph is used directly, no JSON round trip.
        summaries = map_with_state(
            _run_colony_task,
            tasks,
            executor="serial" if n_colonies == 1 else executor,
            max_workers=max_workers,
            shared_state=(graph, params_dict),
        )
    else:
        # The graph travels to each worker exactly once (as initializer
        # arguments); the per-colony submissions carry only an index and a
        # seed, so multi-colony runs do not pay O(colonies x graph)
        # serialisation cost.
        summaries = map_with_state(
            _run_colony_task,
            tasks,
            executor="process",
            max_workers=max_workers,
            init_fn=_decode_colony_payload,
            payload=(to_json_dict(graph), params_dict),
        )

    summaries.sort(key=lambda s: s.colony_index)
    best = max(summaries, key=lambda s: s.objective)
    layering = Layering(best.assignment)
    layering.validate(graph)
    return ParallelAcoResult(layering=layering, best_colony=best, colonies=summaries)
