"""Run layering algorithms over a corpus and aggregate the paper's metrics.

The evaluation of the paper compares five algorithms — LPL, LPL+PL, MinWidth,
MinWidth+PL and the Ant Colony — on five criteria, averaged per vertex-count
group.  :func:`run_comparison` does exactly that for any algorithm set and any
corpus, streaming the completed cells out of the experiment engine and
aggregating them *incrementally*: group means are maintained as per-group
running sums and counts (O(groups) state), so a full-corpus run never
materialises all ~6400 cell results at once — pass ``keep_results=False`` to
drop the per-cell list entirely.  Failed cells (fault-isolated by the engine)
are skipped by every aggregate and collected on
:attr:`ComparisonResult.failures` so reports can surface them.
:class:`ComparisonResult` is the data source for every figure module and
benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.aco.layering_aco import aco_layering
from repro.aco.params import ACOParams
from repro.datasets.corpus import CorpusGraph
from repro.experiments.engine import (
    CellResult,
    ExperimentEngine,
    MethodSpec,
    WorkUnit,
    default_method_specs,
)
from repro.graph.digraph import DiGraph
from repro.layering.base import Layering
from repro.layering.longest_path import longest_path_layering
from repro.layering.metrics import LayeringMetrics, evaluate_layering
from repro.layering.minwidth import minwidth_layering_sweep
from repro.layering.promote import promote_layering
from repro.utils.exceptions import ValidationError

__all__ = [
    "LayeringAlgorithm",
    "AlgorithmResult",
    "ComparisonResult",
    "default_algorithms",
    "default_method_specs",
    "run_on_graph",
    "run_comparison",
]

LayeringAlgorithm = Callable[[DiGraph], Layering]

#: Metric names understood by :meth:`ComparisonResult.series`.
METRIC_NAMES = (
    "height",
    "width_including_dummies",
    "width_excluding_dummies",
    "dummy_vertex_count",
    "edge_density",
    "running_time",
    "objective",
)


def default_algorithms(
    *,
    aco_params: ACOParams | None = None,
    include_aco: bool = True,
) -> dict[str, LayeringAlgorithm]:
    """The five algorithms of the paper's evaluation, keyed by display name.

    Parameters
    ----------
    aco_params:
        Parameters for the Ant Colony entry; defaults to the paper's adopted
        configuration (α=1, β=3, 10 tours) with a fixed seed.
    include_aco:
        Set to ``False`` to get only the four baselines (handy for quick
        tests of the harness itself).
    """
    params = aco_params if aco_params is not None else ACOParams(seed=0)
    algorithms: dict[str, LayeringAlgorithm] = {
        "LPL": longest_path_layering,
        "LPL+PL": lambda g: promote_layering(g, longest_path_layering(g)),
        "MinWidth": minwidth_layering_sweep,
        "MinWidth+PL": lambda g: promote_layering(g, minwidth_layering_sweep(g)),
    }
    if include_aco:
        algorithms["AntColony"] = lambda g: aco_layering(g, params)
    return algorithms


@dataclass(frozen=True)
class AlgorithmResult:
    """One algorithm applied to one corpus graph."""

    algorithm: str
    graph_name: str
    vertex_count: int
    metrics: LayeringMetrics
    running_time: float

    def value(self, metric: str) -> float:
        """Look up a metric by name (``running_time`` included)."""
        if metric == "running_time":
            return self.running_time
        try:
            return float(getattr(self.metrics, metric))
        except AttributeError:
            raise ValidationError(
                f"unknown metric {metric!r}; choose from {METRIC_NAMES}"
            ) from None


@dataclass
class ComparisonResult:
    """Aggregated outcome of a comparison run.

    Group means are maintained incrementally (:meth:`add`): per
    ``(algorithm, vertex_count)`` running sums and counts over every metric —
    O(groups) memory however large the corpus.  ``results`` additionally
    keeps the individual per-graph results when the run was built with
    ``keep_results=True`` (the default); streaming full-corpus runs drop it.
    Failed cells never enter the aggregates; they are collected on
    ``failures`` (engine-level fault isolation).

    A ``ComparisonResult`` constructed and maintained by hand (a ``results``
    list, possibly mutated between accessor calls, never :meth:`add`) keeps
    the pre-streaming behaviour: accessors compute live from the list on
    every call.  Once :meth:`add` has been used the accumulators are
    authoritative and direct ``results`` mutation is unsupported.
    """

    results: list[AlgorithmResult] = field(default_factory=list)
    nd_width: float = 1.0
    failures: list[CellResult] = field(default_factory=list)
    cells_ok: int = 0
    _streamed: bool = field(default=False, repr=False, compare=False)
    _alg_order: dict[str, None] = field(default_factory=dict, repr=False, compare=False)
    _counts: dict[tuple[str, int], int] = field(default_factory=dict, repr=False, compare=False)
    _sums: dict[tuple[str, int], dict[str, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # incremental aggregation
    # ------------------------------------------------------------------ #

    def _fold(
        self,
        algorithm: str,
        vertex_count: int,
        metrics: LayeringMetrics,
        running_time: float,
    ) -> None:
        """The one accumulator update shared by :meth:`add` and backfill."""
        self._alg_order.setdefault(algorithm, None)
        group = (algorithm, vertex_count)
        sums = self._sums.setdefault(group, {m: 0.0 for m in METRIC_NAMES})
        self._counts[group] = self._counts.get(group, 0) + 1
        for metric in METRIC_NAMES:
            if metric == "running_time":
                sums[metric] += running_time
            else:
                sums[metric] += float(getattr(metrics, metric))

    def add(self, cell: CellResult, *, keep_results: bool = True) -> None:
        """Fold one completed engine cell into the aggregates.

        Failed cells are counted on :attr:`failures` and excluded from every
        mean; successful cells update the per-group accumulators (and the
        per-cell ``results`` list when *keep_results*).
        """
        if not cell.ok:
            self.failures.append(cell)
            return
        assert cell.metrics is not None
        if not self._streamed:
            # Fold any pre-seeded results list exactly once, then switch the
            # accessors over to the accumulators.
            for r in self.results:
                self._fold(r.algorithm, r.vertex_count, r.metrics, r.running_time)
            self.cells_ok = max(self.cells_ok, len(self.results))
            self._streamed = True
        self.cells_ok += 1
        self._fold(cell.algorithm, cell.vertex_count, cell.metrics, cell.running_time)
        if keep_results:
            self.results.append(
                AlgorithmResult(
                    algorithm=cell.algorithm,
                    graph_name=cell.graph_name,
                    vertex_count=cell.vertex_count,
                    metrics=cell.metrics,
                    running_time=cell.running_time,
                )
            )

    @property
    def cells_failed(self) -> int:
        """Number of cells the engine fault-isolated out of the aggregates."""
        return len(self.failures)

    @property
    def cells_total(self) -> int:
        """All cells seen, successful and failed."""
        return self.cells_ok + self.cells_failed

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def algorithms(self) -> list[str]:
        """Algorithm names present, in first-appearance order."""
        if self._streamed:
            return list(self._alg_order)
        seen: dict[str, None] = {}
        for r in self.results:
            seen.setdefault(r.algorithm, None)
        return list(seen)

    @property
    def vertex_counts(self) -> list[int]:
        """Sorted vertex-count groups present in the results."""
        if self._streamed:
            return sorted({vc for _, vc in self._counts})
        return sorted({r.vertex_count for r in self.results})

    def _group_values(self, algorithm: str, vertex_count: int, metric: str) -> list[float]:
        return [
            r.value(metric)
            for r in self.results
            if r.algorithm == algorithm and r.vertex_count == vertex_count
        ]

    def group_mean(self, algorithm: str, vertex_count: int, metric: str) -> float:
        """Mean of *metric* for *algorithm* over all graphs of one group."""
        if metric not in METRIC_NAMES:
            raise ValidationError(
                f"unknown metric {metric!r}; choose from {METRIC_NAMES}"
            )
        group = (algorithm, vertex_count)
        if self._streamed:
            count = self._counts.get(group, 0)
            if count == 0:
                raise ValidationError(
                    f"no results for algorithm={algorithm!r}, vertex_count={vertex_count}"
                )
            return self._sums[group][metric] / count
        values = self._group_values(algorithm, vertex_count, metric)
        if not values:
            raise ValidationError(
                f"no results for algorithm={algorithm!r}, vertex_count={vertex_count}"
            )
        return sum(values) / len(values)

    def _has_group(self, algorithm: str, vertex_count: int) -> bool:
        if self._streamed:
            return (algorithm, vertex_count) in self._counts
        return any(
            r.algorithm == algorithm and r.vertex_count == vertex_count
            for r in self.results
        )

    def series(self, algorithm: str, metric: str) -> dict[int, float]:
        """``vertex_count -> group mean`` series for one algorithm and metric."""
        return {
            vc: self.group_mean(algorithm, vc, metric)
            for vc in self.vertex_counts
            if self._has_group(algorithm, vc)
        }

    def all_series(self, metric: str) -> dict[str, dict[int, float]]:
        """Series for every algorithm, keyed by algorithm name."""
        return {alg: self.series(alg, metric) for alg in self.algorithms}


def run_on_graph(
    algorithm_name: str,
    algorithm: LayeringAlgorithm,
    graph: DiGraph,
    *,
    graph_name: str = "",
    vertex_count: int | None = None,
    nd_width: float = 1.0,
) -> AlgorithmResult:
    """Apply one algorithm to one graph, timing it and computing all metrics."""
    start = time.perf_counter()
    layering = algorithm(graph)
    elapsed = time.perf_counter() - start
    metrics = evaluate_layering(graph, layering, nd_width=nd_width)
    return AlgorithmResult(
        algorithm=algorithm_name,
        graph_name=graph_name or f"graph-n{graph.n_vertices}",
        vertex_count=vertex_count if vertex_count is not None else graph.n_vertices,
        metrics=metrics,
        running_time=elapsed,
    )


def _coerce_method_specs(
    algorithms: Mapping[str, LayeringAlgorithm | MethodSpec] | None,
) -> dict[str, MethodSpec]:
    """Normalise the *algorithms* argument of :func:`run_comparison` to specs.

    ``None`` means the paper's five algorithms (as executor-portable specs);
    bare callables are wrapped per-name and run in the parent process.
    """
    if algorithms is None:
        return default_method_specs()
    specs: dict[str, MethodSpec] = {}
    for name, method in algorithms.items():
        if isinstance(method, MethodSpec):
            specs[name] = method
        else:
            specs[name] = MethodSpec.from_callable(name, method)
    return specs


def run_comparison(
    corpus: Iterable[CorpusGraph] | Sequence[CorpusGraph],
    algorithms: Mapping[str, LayeringAlgorithm | MethodSpec] | None = None,
    *,
    nd_width: float = 1.0,
    engine: ExperimentEngine | None = None,
    keep_results: bool = True,
) -> ComparisonResult:
    """Run every algorithm on every corpus graph and collect the results.

    Parameters
    ----------
    corpus: corpus entries (e.g. from :func:`repro.datasets.att_like_corpus`).
    algorithms: name → method mapping; values may be
        :class:`~repro.experiments.engine.MethodSpec` instances (portable to
        process-pool workers and cacheable) or plain ``graph -> Layering``
        callables (always executed in the parent process).  Defaults to the
        paper's five algorithms as specs.
    nd_width: dummy-vertex width used by the metrics.
    engine: the :class:`~repro.experiments.engine.ExperimentEngine` to
        dispatch cells through; defaults to an uncached engine on the
        default ``batched`` executor (identical metrics to ``serial``; only
        Ant Colony running times are pack shares).  Cells are
        consumed through :meth:`~repro.experiments.engine.ExperimentEngine.
        run_iter` and aggregated as they complete; cells the engine
        fault-isolated land on :attr:`ComparisonResult.failures`.
    keep_results: ``True`` (default) keeps one :class:`AlgorithmResult` per
        cell on ``ComparisonResult.results``; ``False`` keeps only the
        per-group aggregates — O(groups) memory for full-corpus runs.
    """
    specs = _coerce_method_specs(algorithms)
    if not specs:
        raise ValidationError("at least one algorithm is required")
    engine = engine if engine is not None else ExperimentEngine()
    units = [
        WorkUnit(
            graph=entry.graph,
            method=spec,
            nd_width=nd_width,
            graph_name=entry.name,
            vertex_count=entry.vertex_count,
            label=name,
        )
        for entry in corpus
        for name, spec in specs.items()
    ]
    comparison = ComparisonResult(nd_width=nd_width)
    for cell in engine.run_iter(units):
        comparison.add(cell, keep_results=keep_results)
    return comparison
