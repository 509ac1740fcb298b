"""Workload inputs made from the workload seed, and the serial references.

Imported only by the benchmark's child processes, which run the program.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

from common import LARGE_SIZES, SEED_REFUSED
from repro.aco.layering_aco import aco_layering
from repro.aco.params import ACOParams
from repro.datasets.corpus import CorpusGraph, att_like_corpus
from repro.graph.generators import att_like_dag

#: Replacement corpus seeds tried before a workload seed is refused.
CORPUS_SEED_ATTEMPTS = 8


def paper_params() -> ACOParams:
    """The paper's AntColony configuration with the method's own seed 0."""
    return ACOParams(seed=0)


def _refuse(seed: int, exc: Exception) -> None:
    sys.stderr.write(
        f"perfbench: seed {seed} refused: input generation failed "
        f"({type(exc).__name__}: {exc}); choose another --seed\n"
    )
    raise SystemExit(SEED_REFUSED)


def corpus(seed: int) -> list[CorpusGraph]:
    """The paper-sized 1277-graph corpus of the workload seed.

    ``att_like_dag`` can fail on a few small graphs (an emptied depth level;
    corpus seed 0 hits it).  Such a seed is replaced by the first working
    seed of a fixed derived sequence, with a note on standard error, so
    every workload seed still maps to one corpus.
    """
    candidates = [seed] + [
        int(np.random.SeedSequence([seed, attempt]).generate_state(1)[0])
        for attempt in range(1, CORPUS_SEED_ATTEMPTS + 1)
    ]
    for corpus_seed in candidates:
        try:
            entries = att_like_corpus(seed=corpus_seed)
        except (ValueError, ArithmeticError) as exc:
            failure = exc
            sys.stderr.write(
                f"perfbench: corpus seed {corpus_seed} fails in the generator "
                f"({type(exc).__name__}: {exc})\n"
            )
            continue
        if corpus_seed != seed:
            sys.stderr.write(f"perfbench: workload seed {seed} uses corpus seed {corpus_seed}\n")
        return entries
    _refuse(seed, failure)
    raise AssertionError("unreachable")


def large_graphs(seed: int) -> list[CorpusGraph]:
    """One ``att_like_dag`` per size of :data:`LARGE_SIZES`."""
    entries = []
    for n in LARGE_SIZES:
        graph_seed = int(np.random.SeedSequence([seed, n]).generate_state(1)[0])
        try:
            graph = att_like_dag(n, seed=graph_seed)
        except (ValueError, ArithmeticError) as exc:
            _refuse(seed, exc)
            raise
        entries.append(CorpusGraph(vertex_count=n, index=0, seed=graph_seed, graph=graph))
    return entries


def reference_metrics(graph: Any) -> dict[str, float]:
    """Serial ``aco_layering`` + ``evaluate_layering`` of *graph*."""
    from repro.layering.metrics import evaluate_layering

    params = paper_params()
    layering = aco_layering(graph, params)
    return evaluate_layering(graph, layering, nd_width=params.nd_width).as_dict()
