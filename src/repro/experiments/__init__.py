"""Experiment harness: regenerate every figure of the paper's evaluation.

* :mod:`repro.experiments.engine` — the shared parallel experiment engine:
  every comparison/figure/sweep cell is dispatched over the batched (default),
  serial or process executor, with an optional content-addressed result cache;
* :mod:`repro.experiments.cache` — the on-disk cache backing the engine;
* :mod:`repro.experiments.runner` — run any set of layering algorithms over a
  corpus and aggregate the paper's metrics per vertex-count group;
* :mod:`repro.experiments.figures` — one function per figure (Fig. 4–9),
  returning the plotted series as plain data;
* :mod:`repro.experiments.tuning` — the α/β and ``nd_width`` sweeps of
  Section VIII;
* :mod:`repro.experiments.reporting` — plain-text table rendering used by the
  benchmarks and the examples.
"""

from repro.experiments.cache import CachedCell, CacheStats, PruneResult, ResultCache
from repro.experiments.engine import (
    CellError,
    CellFailure,
    CellResult,
    ExperimentEngine,
    MethodSpec,
    RunInterrupted,
    RunProgress,
    WorkUnit,
    default_method_specs,
)
from repro.experiments.journal import RunJournal
from repro.experiments.figures import (
    FIGURES,
    FigureData,
    FigurePanel,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
)
from repro.experiments.runner import (
    AlgorithmResult,
    ComparisonResult,
    default_algorithms,
    run_comparison,
    run_on_graph,
)
from repro.experiments.reporting import format_comparison, format_figure, format_series_table
from repro.experiments.tuning import (
    SweepResult,
    alpha_beta_sweep,
    best_sweep_setting,
    nd_width_sweep,
    parameter_sweep,
)

__all__ = [
    "CachedCell",
    "CacheStats",
    "PruneResult",
    "ResultCache",
    "CellError",
    "CellFailure",
    "CellResult",
    "ExperimentEngine",
    "MethodSpec",
    "RunInterrupted",
    "RunJournal",
    "RunProgress",
    "WorkUnit",
    "default_method_specs",
    "parameter_sweep",
    "AlgorithmResult",
    "ComparisonResult",
    "default_algorithms",
    "run_on_graph",
    "run_comparison",
    "FigureData",
    "FigurePanel",
    "FIGURES",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "SweepResult",
    "alpha_beta_sweep",
    "nd_width_sweep",
    "best_sweep_setting",
    "format_series_table",
    "format_comparison",
    "format_figure",
]
