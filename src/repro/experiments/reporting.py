"""Plain-text rendering of experiment results.

Everything the harness produces (figure series, comparison runs, tuning
sweeps) can be rendered as aligned text tables — the closest offline
equivalent of the paper's plots, and what the benchmark modules print so the
reproduced "rows/series" are visible in the pytest-benchmark output.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.experiments.engine import CellResult
from repro.experiments.figures import FigureData
from repro.experiments.runner import ComparisonResult
from repro.experiments.tuning import SweepResult

__all__ = [
    "format_series_table",
    "format_figure",
    "format_comparison",
    "format_sweep",
    "format_failures",
]

#: Decimals of a running-time series.  A cell takes tens of microseconds to
#: a few milliseconds, which two decimals of a second would print as 0.00.
RUNNING_TIME_PRECISION = 6


def _precision(metric: str, precision: int) -> int:
    """*precision*, raised for the ``running_time`` metric (in seconds)."""
    return max(precision, RUNNING_TIME_PRECISION) if metric == "running_time" else precision


def format_failures(failures: Sequence[CellResult], total: int) -> str:
    """One-line footer summarising fault-isolated cells (empty string if none).

    Shown under every aggregate table so a partially failed run is never
    mistaken for a clean one; the first failure is named so there is a
    concrete starting point without digging through logs.
    """
    if not failures:
        return ""
    first = failures[0]
    detail = (
        f"first: {first.algorithm} on {first.graph_name}: {first.error}"
        if first.error is not None
        else f"first: {first.algorithm} on {first.graph_name}"
    )
    # Break the count down by failure mode (exception/timeout/crash) when
    # more than one mode is present — a run losing cells to timeouts needs a
    # different response than one losing them to exceptions.
    kinds: dict[str, int] = {}
    for cell in failures:
        kind = cell.error.kind if cell.error is not None else "exception"
        kinds[kind] = kinds.get(kind, 0) + 1
    breakdown = ""
    if len(kinds) > 1 or "exception" not in kinds:
        ordered = sorted(kinds.items(), key=lambda item: (-item[1], item[0]))
        breakdown = " (" + ", ".join(f"{n} {kind}" for kind, n in ordered) + ")"
    return (
        f"! {len(failures)} of {total} cells failed{breakdown} and are excluded "
        f"from the means ({detail})"
    )


def format_series_table(
    series: Mapping[str, Mapping[int, float]],
    *,
    value_header: str = "value",
    precision: int = 2,
) -> str:
    """Render ``{algorithm: {vertex_count: value}}`` as an aligned text table."""
    algorithms = list(series)
    vertex_counts = sorted({vc for s in series.values() for vc in s})
    header = ["n"] + algorithms
    rows = [header]
    for vc in vertex_counts:
        row = [str(vc)]
        for alg in algorithms:
            value = series[alg].get(vc)
            row.append("-" if value is None else f"{value:.{precision}f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [f"({value_header})"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(header))))
    return "\n".join(lines)


def format_figure(figure: FigureData, *, precision: int = 2) -> str:
    """Render every panel of a reproduced figure as text tables.

    Running-time panels get at least :data:`RUNNING_TIME_PRECISION` decimals.
    A figure built from a run with fault-isolated failures gets a footer —
    its series may be missing whole algorithms, which must not pass for a
    clean reproduction.
    """
    blocks = [f"{figure.figure_id.upper()}: {figure.title}"]
    for panel in figure.panels:
        blocks.append(
            format_series_table(
                panel.series,
                value_header=panel.ylabel,
                precision=_precision(panel.metric, precision),
            )
        )
    footer = format_failures(figure.failures, figure.cells_total)
    if footer:
        blocks.append(footer)
    return "\n\n".join(blocks)


def format_comparison(
    comparison: ComparisonResult, metric: str, *, precision: int = 2
) -> str:
    """Render one metric of a comparison run as a text table.

    ``running_time`` gets at least :data:`RUNNING_TIME_PRECISION` decimals.
    When the run had fault-isolated failures a footer line reports how many
    cells were excluded from the means.
    """
    table = format_series_table(
        comparison.all_series(metric),
        value_header=metric,
        precision=_precision(metric, precision),
    )
    footer = format_failures(comparison.failures, comparison.cells_total)
    return f"{table}\n{footer}" if footer else table


def format_sweep(sweep: SweepResult, *, precision: int = 4) -> str:
    """Render a parameter sweep: one row per setting, best marked with ``*``."""
    best = sweep.best().setting
    header = list(sweep.parameter_names) + [
        "mean_objective",
        "mean_width_incl",
        "mean_height",
        "mean_runtime_s",
        "",
    ]
    rows = [header]
    for point in sweep.points:
        rows.append(
            [
                *(f"{x:g}" for x in point.setting),
                f"{point.mean_objective:.{precision}f}",
                f"{point.mean_width_including_dummies:.2f}",
                f"{point.mean_height:.2f}",
                f"{point.mean_running_time:.4f}",
                "*" if point.setting == best else "",
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(header))))
    footer = format_failures(sweep.failures, sweep.cells_total)
    if footer:
        lines.append(footer)
    return "\n".join(lines)
