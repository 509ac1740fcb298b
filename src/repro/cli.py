"""Command-line interface.

Installed as the ``repro-dag`` console script (also reachable via
``python -m repro``).  Sub-commands:

``layer``
    Layer a graph file with any algorithm in the library and print the
    paper's quality metrics (optionally writing the layer assignment to JSON).
``draw``
    Run the full Sugiyama pipeline on a graph file and render the drawing as
    ASCII and/or SVG.
``compare``
    Run the paper's five-algorithm comparison over a corpus sample and print
    one table per metric.
``figures``
    Regenerate one or all of the paper's evaluation figures (Fig. 4–9).
``tune``
    Reproduce the α/β or ``nd_width`` parameter sweep of Section VIII.
``corpus``
    Materialise the synthetic AT&T-like corpus to a directory of JSON graph
    files (for inspection or for use by external tools).
``cache``
    Inspect (``stats``) or bound (``prune --max-size/--older-than``) a
    result-cache directory.
``serve``
    Run the layout service (:mod:`repro.serving`): an HTTP/JSON front end
    that answers repeat requests from the result cache's memory layer at
    once, coalesces the misses that queue behind a busy worker into
    cross-graph megabatches, sheds load beyond a bounded queue (429), and
    drains gracefully on SIGTERM.

The experiment sub-commands (``compare``, ``figures``, ``tune``) dispatch
their (graph × algorithm) cells through the shared experiment engine
(:mod:`repro.experiments.engine`).  The default ``--executor batched
[--batch-size N]`` packs same-spec AntColony cells into cross-graph
megabatches advanced by shared lockstep kernel sweeps, in-process on the
walk kernel's ``REPRO_ACO_THREADS`` threads; ``--executor serial`` runs
every cell on its own and measures each AntColony cell's own running time;
``--executor process --jobs N`` spreads the cells over N supervised worker
processes for crash isolation (``--jobs`` caps this pool only).  All three
print identical tables apart from the running times.  ``--colonies K``
runs every AntColony cell as a K-colony lockstep portfolio
(:mod:`repro.aco.runtime`) on any executor, and ``--cache-dir DIR`` enables
the content-addressed result cache so repeated runs over the same corpus
and parameters are incremental.

Full-corpus-scale runs add: ``compare --full`` (the paper's entire
1277-graph corpus), fault isolation by default (a raising cell is recorded
and excluded from the aggregates; ``--strict`` restores fail-fast), a live
stderr progress line (automatic on a terminal, forced with ``--progress``),
and ``--run-dir DIR`` journaling every completed cell so an interrupted run
finishes with ``--resume`` instead of restarting from zero.  Hardening on
top: ``--timeout S`` bounds every cell by a deadline, ``--retries N``
re-executes failed/timed-out/crashed cells, and SIGINT/SIGTERM tear down
cleanly — the journal is flushed and the exit message names the exact
``--resume`` invocation that finishes the run.

Graph files may be in the library's edge-list format (``.edgelist``, see
:func:`repro.graph.io.write_edgelist`) or JSON (``.json``,
:func:`repro.graph.io.write_json`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import signal
import sys
import time
from pathlib import Path
from typing import Sequence, TextIO

from repro.aco import _native
from repro.aco.params import ACOParams
from repro.datasets.corpus import GROUP_VERTEX_COUNTS, att_like_corpus
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ENGINE_EXECUTORS,
    ExperimentEngine,
    RunProgress,
    default_method_specs,
)
from repro.experiments.figures import FIGURES
from repro.experiments.reporting import format_comparison, format_figure, format_sweep
from repro.experiments.runner import run_comparison
from repro.experiments.tuning import alpha_beta_sweep, nd_width_sweep
from repro.graph.digraph import DiGraph
from repro.graph.io import read_edgelist, read_json, write_json
from repro.layering.metrics import evaluate_layering
from repro.sugiyama.pipeline import LAYERING_METHODS, sugiyama_layout
from repro.sugiyama.render import render_ascii, render_svg
from repro.utils import resources
from repro.utils.exceptions import ReproError

__all__ = ["main", "build_parser"]

_CLI_METRICS = (
    "height",
    "width_including_dummies",
    "width_excluding_dummies",
    "dummy_vertex_count",
    "edge_density",
    "running_time",
)


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def _load_graph(path: str) -> DiGraph:
    file_path = Path(path)
    if not file_path.exists():
        raise ReproError(f"graph file not found: {path}")
    if file_path.suffix == ".json":
        return read_json(file_path)
    return read_edgelist(file_path)


def _aco_params(args: argparse.Namespace) -> ACOParams:
    return ACOParams(
        alpha=args.alpha,
        beta=args.beta,
        n_ants=args.ants,
        n_tours=args.tours,
        nd_width=args.nd_width,
        seed=args.seed,
    )


def _layering_method(name: str, params: ACOParams):
    if name == "aco":
        from repro.aco.layering_aco import aco_layering

        return lambda g: aco_layering(g, params)
    return LAYERING_METHODS[name]


_SIZE_SUFFIXES = {"": 1, "B": 1, "K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}
_DURATION_SUFFIXES = {"": 1, "S": 1, "M": 60, "H": 3600, "D": 86400, "W": 604800}


def _parse_size(text: str) -> int:
    """``"512M"``/``"2G"``/``"1.5MiB"``/``"1048576"`` → bytes.

    Accepts the ``KiB``/``MiB``/``GiB`` spellings that ``cache stats``
    itself prints, so displayed sizes round-trip as prune inputs.
    """
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([A-Za-z]?)[iI]?[bB]?\s*", text)
    if not match or match.group(2).upper() not in _SIZE_SUFFIXES:
        raise ReproError(
            f"invalid size {text!r}; use e.g. 1048576, 512K, 64MiB, 2G"
        )
    return int(float(match.group(1)) * _SIZE_SUFFIXES[match.group(2).upper()])


def _parse_duration(text: str) -> float:
    """``"7d"``/``"12h"``/``"45m"``/``"30"`` (seconds) → seconds."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([A-Za-z]?)\s*", text)
    if not match or match.group(2).upper() not in _DURATION_SUFFIXES:
        raise ReproError(
            f"invalid duration {text!r}; use e.g. 30s, 45m, 12h, 7d, 2w"
        )
    return float(match.group(1)) * _DURATION_SUFFIXES[match.group(2).upper()]


def _format_bytes(n: int | float) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def _format_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class _ProgressReporter:
    """Live one-line stderr progress display driven by the engine callback.

    The line rewrites itself in place (``\\r``) at most every 0.1 s, only
    when *enabled* (a terminal, or ``--progress``); :meth:`finish` always
    prints the run summary — cells done, executed, replayed, cache hits,
    failures — so scripts (and the CI resume smoke) can assert on it even
    without a tty.
    """

    def __init__(self, *, enabled: bool, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.last: RunProgress | None = None
        self._banked: list[RunProgress] = []
        self._last_write = 0.0
        self._dirty = False

    def __call__(self, progress: RunProgress) -> None:
        if self.last is not None and progress.done <= self.last.done:
            # A new engine run started (figures/tune issue several); bank
            # the finished one so the final summary spans them all.
            self._banked.append(self.last)
        self.last = progress
        if not self.enabled:
            return
        now = time.monotonic()
        if progress.done < progress.total and now - self._last_write < 0.1:
            return
        self._last_write = now
        retried = f"  retried {progress.retried}" if progress.retried else ""
        self.stream.write(
            f"\rcells {progress.done}/{progress.total}"
            f"  failures {progress.failures}"
            f"{retried}"
            f"  cache {progress.cache_hits}"
            f"  replayed {progress.replayed}"
            f"  eta {_format_eta(progress.eta_s)}   "
        )
        self.stream.flush()
        self._dirty = True

    def finish(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self._dirty = False
        if self.last is not None:
            runs = [*self._banked, self.last]
            done = sum(p.done for p in runs)
            total = sum(p.total for p in runs)
            # New counters append after the original four so scripts keying
            # on the `run: D/T cells (E executed, R replayed, ...` prefix
            # (the CI resume smoke among them) keep matching.
            retried = sum(p.retried for p in runs)
            timed_out = sum(p.timed_out for p in runs)
            extras = ""
            if retried or timed_out:
                extras = f", {retried} retried, {timed_out} timed out"
            self.stream.write(
                f"run: {done}/{total} cells "
                f"({sum(p.executed for p in runs)} executed, "
                f"{sum(p.replayed for p in runs)} replayed, "
                f"{sum(p.cache_hits for p in runs)} cache hits, "
                f"{sum(p.failures for p in runs)} failures{extras}) "
                f"in {sum(p.elapsed_s for p in runs):.1f}s\n"
            )
            self.stream.flush()


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor",
        choices=ENGINE_EXECUTORS,
        default=ENGINE_EXECUTORS[0],
        help=(
            "how experiment cells are dispatched (identical tables apart from "
            "running times; default batched): 'batched' packs same-spec "
            "AntColony cells into cross-graph megabatches, one kernel call per "
            "tour per pack, and reports each a vertex-weighted share of its "
            "pack's time; 'serial' runs every cell on its own and measures "
            "each one's running time; 'process' runs cells in supervised "
            "worker processes, so a crashing cell costs only itself"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker count for --executor process only (default: REPRO_JOBS "
            "or CPU count); its workers run a one-thread walk kernel"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        dest="batch_size",
        help=(
            "graphs per cross-graph pack for --executor batched "
            "(default 128; bounds the padded per-pack arrays)"
        ),
    )
    parser.add_argument(
        "--colonies",
        type=int,
        default=1,
        dest="n_colonies",
        help=(
            "run every AntColony cell as a portfolio of this many independent "
            "colonies (lockstep batch, best colony wins; default 1)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="enable the content-addressed result cache in this directory",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "fail fast on the first raising cell (default: record the "
            "failure, exclude it from the aggregates and keep going)"
        ),
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help=(
            "journal every completed cell under this directory so an "
            "interrupted run can be finished with --resume"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay the journaled cells of a previous --run-dir run and "
            "execute only the remainder"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "force the live stderr progress line (cells done/total, "
            "failures, cache hits, ETA); on by default when stderr is a "
            "terminal"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        dest="cell_timeout",
        metavar="SECONDS",
        help=(
            "per-cell deadline: a cell over budget is recorded as a timeout "
            "failure (excluded from the aggregates, never cached) instead "
            "of stalling the run (default: no deadline)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "re-execute failed, timed-out or crashed cells up to this many "
            "extra times with jittered backoff before recording the failure "
            "(default 0)"
        ),
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="SIZE",
        help=(
            "per-pack working-set budget, e.g. 512M or 2G: the batched "
            "planner splits megabatches to fit it (results unchanged), and "
            "process workers run under a matching RLIMIT_AS soft cap so an "
            "over-budget cell dies as a labelled 'oom' failure instead of "
            "taking the run down (default: no budget)"
        ),
    )


class _SignalInterrupt(BaseException):
    """A SIGINT/SIGTERM landed mid-run (BaseException so nothing swallows it)."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum

    @property
    def name(self) -> str:
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            return f"signal {self.signum}"


@contextlib.contextmanager
def _engine(args: argparse.Namespace):
    """Engine built from the CLI options, with progress/journal teardown.

    On exit — normal, interrupted or strict-failed — the progress line is
    finalised (the run summary always prints) and the journal handle is
    closed.  While the run is active SIGINT/SIGTERM are converted into a
    clean teardown: the journal is flushed and closed, and the error message
    names the ``--resume`` invocation that finishes the run.
    """
    reporter = _ProgressReporter(enabled=args.progress or sys.stderr.isatty())
    engine = ExperimentEngine.from_options(
        executor=args.executor,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        strict=args.strict,
        run_dir=args.run_dir,
        resume=args.resume,
        progress=reporter,
        batch_size=args.batch_size,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        memory_budget=(
            _parse_size(args.memory_budget)
            if args.memory_budget is not None
            else None
        ),
    )

    def _on_signal(signum, frame):
        raise _SignalInterrupt(signum)

    previous: dict[int, object] = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # pragma: no cover - not the main thread
            pass
    try:
        yield engine
    except (_SignalInterrupt, KeyboardInterrupt) as exc:
        name = exc.name if isinstance(exc, _SignalInterrupt) else "SIGINT"
        if args.run_dir:
            hint = (
                f"; journal flushed — finish with --resume --run-dir {args.run_dir}"
            )
        else:
            hint = "; pair with --run-dir to make runs resumable"
        raise ReproError(f"run interrupted by {name}{hint}") from None
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, TypeError):  # pragma: no cover
                pass
        reporter.finish()
        if engine.cache is not None:
            # The per-layer counters live on the in-process cache object, so
            # this run summary is where they are actually observable (a
            # fresh `cache stats` process necessarily reports zeros).
            hits = engine.cache.hit_stats()
            if hits.memory_hits or hits.memory_misses:
                sys.stderr.write(
                    f"cache layers: memory {hits.memory_hits} hits / "
                    f"{hits.memory_misses} misses, disk {hits.disk_hits} hits / "
                    f"{hits.disk_misses} misses\n"
                )
        if engine.journal is not None:
            engine.journal.close()
        degraded = resources.governor().degraded()
        if degraded:
            sys.stderr.write(
                "resource governor: run finished with degraded rungs: "
                + ", ".join(degraded)
                + " (results are unchanged; see README 'Resource limits')\n"
            )


def _add_aco_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=1.0, help="pheromone exponent (default 1)")
    parser.add_argument("--beta", type=float, default=3.0, help="heuristic exponent (default 3)")
    parser.add_argument("--ants", type=int, default=10, help="colony size (default 10)")
    parser.add_argument("--tours", type=int, default=10, help="number of tours (default 10)")
    parser.add_argument("--nd-width", type=float, default=1.0, help="dummy vertex width (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


# --------------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------------- #


def _cmd_layer(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    params = _aco_params(args)
    method = _layering_method(args.method, params)
    layering = method(graph)
    metrics = evaluate_layering(graph, layering, nd_width=args.nd_width)
    print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")
    print(f"method: {args.method}")
    for key, value in metrics.as_dict().items():
        print(f"  {key}: {value}")
    if args.output:
        Path(args.output).write_text(
            json.dumps({str(v): layer for v, layer in layering.items()}, indent=2),
            encoding="utf-8",
        )
        print(f"layer assignment written to {args.output}")
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    params = _aco_params(args)
    method = _layering_method(args.method, params)
    # The raw nd_width keeps `draw` metrics identical to `layer` for the same
    # graph; the layout itself clamps its dummy width internally.
    drawing = sugiyama_layout(graph, layering_method=method, nd_width=args.nd_width)
    print(
        f"height={drawing.height} width={drawing.width:.2f} "
        f"crossings={drawing.crossings} reversed_edges={len(drawing.reversed_edges)}"
    )
    if not args.no_ascii:
        print(render_ascii(drawing, columns=args.columns))
    if args.svg:
        render_svg(drawing, args.svg)
        print(f"SVG written to {args.svg}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.full and args.graphs_per_group is not None:
        raise ReproError("--full runs the whole corpus; drop --graphs-per-group")
    graphs_per_group = (
        None if args.full else (args.graphs_per_group if args.graphs_per_group is not None else 2)
    )
    vertex_counts = (
        tuple(args.vertex_counts) if args.vertex_counts else GROUP_VERTEX_COUNTS
    )
    corpus = att_like_corpus(
        graphs_per_group=graphs_per_group, vertex_counts=vertex_counts
    )
    params = _aco_params(args)
    algorithms = default_method_specs(
        aco_params=params, include_aco=not args.no_aco, n_colonies=args.n_colonies
    )
    print(f"corpus: {len(corpus)} graphs over groups {sorted(set(vertex_counts))}")
    if args.full:
        # The full corpus is where the walk kernel dominates wall-clock, so
        # announce how it will run.  Resolving the thread count up front also
        # surfaces an invalid REPRO_ACO_THREADS as the canonical error before
        # any work starts.
        print(
            f"walk kernel: {_native.effective_threads()} thread(s), "
            f"{_native.thread_support()} backend"
        )
    with _engine(args) as engine:
        # keep_results=False: the tables only need the per-group aggregates,
        # so even the full 1277-graph corpus holds O(groups) state.
        comparison = run_comparison(
            corpus,
            algorithms,
            nd_width=args.nd_width,
            engine=engine,
            keep_results=False,
        )
    for metric in _CLI_METRICS:
        print()
        print(format_comparison(comparison, metric))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    wanted = list(FIGURES) if args.figure == "all" else [args.figure]
    params = _aco_params(args)
    corpus = att_like_corpus(graphs_per_group=args.graphs_per_group)
    with _engine(args) as engine:
        for figure_id in wanted:
            figure = FIGURES[figure_id](
                corpus=corpus,
                aco_params=params,
                nd_width=args.nd_width,
                engine=engine,
                n_colonies=args.n_colonies,
            )
            print()
            print(format_figure(figure))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    vertex_counts = (
        tuple(args.vertex_counts) if args.vertex_counts else (20, 40, 60)
    )
    corpus = att_like_corpus(
        graphs_per_group=args.graphs_per_group, vertex_counts=vertex_counts
    )
    params = _aco_params(args)
    print(f"corpus: {len(corpus)} graphs over groups {sorted(set(vertex_counts))}")
    with _engine(args) as engine:
        if args.sweep == "alpha-beta":
            sweep = alpha_beta_sweep(
                corpus, base_params=params, engine=engine, n_colonies=args.n_colonies
            )
        else:
            sweep = nd_width_sweep(
                corpus, base_params=params, engine=engine, n_colonies=args.n_colonies
            )
    print(format_sweep(sweep))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache: {cache.path}")
        print(f"  entries: {stats.entries}")
        print(f"  total size: {_format_bytes(stats.total_bytes)}")
        if stats.quarantined:
            print(f"  quarantined: {stats.quarantined}")
        if stats.oldest_stored_at is not None and stats.newest_stored_at is not None:
            now = time.time()
            print(f"  oldest entry: {(now - stats.oldest_stored_at) / 3600:.1f} h ago")
            print(f"  newest entry: {(now - stats.newest_stored_at) / 3600:.1f} h ago")
        hits = cache.hit_stats()
        print(
            "  this-process lookups: "
            f"memory {hits.memory_hits} hits / {hits.memory_misses} misses, "
            f"disk {hits.disk_hits} hits / {hits.disk_misses} misses"
        )
        return 0
    max_size = _parse_size(args.max_size) if args.max_size is not None else None
    older_than = (
        _parse_duration(args.older_than) if args.older_than is not None else None
    )
    free_below = (
        _parse_size(args.free_below) if args.free_below is not None else None
    )
    result = cache.prune(
        max_size_bytes=max_size,
        older_than_seconds=older_than,
        free_below_bytes=free_below,
    )
    print(
        f"pruned {result.removed} entries ({_format_bytes(result.freed_bytes)}); "
        f"kept {result.kept} ({_format_bytes(result.kept_bytes)})"
    )
    if result.quarantine_removed:
        print(f"removed {result.quarantine_removed} quarantined entries")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily so plain CLI runs never pay for the serving stack.
    from repro.serving import ServeConfig, serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        batch_size=args.batch_size,
        max_queue=args.max_queue,
        request_timeout_s=args.timeout,
        crash_retries=args.crash_retries,
        drain_timeout_s=args.drain_timeout,
        cache_dir=args.cache_dir,
        prewarm=not args.no_prewarm,
        exit_on_drain_timeout=True,
        memory_budget=(
            _parse_size(args.memory_budget)
            if args.memory_budget is not None
            else None
        ),
    )
    return serve(config)


def _cmd_corpus(args: argparse.Namespace) -> int:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for entry in att_like_corpus(graphs_per_group=args.graphs_per_group):
        write_json(entry.graph, out_dir / f"{entry.name}.json")
        count += 1
    print(f"{count} graphs written to {out_dir}")
    return 0


# --------------------------------------------------------------------------- #
# parser / entry point
# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-dag",
        description="Ant Colony Optimization for the DAG Layering Problem (IPPS 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    method_names = sorted(set(LAYERING_METHODS) | {"aco"})

    p_layer = sub.add_parser("layer", help="layer a graph file and print its metrics")
    p_layer.add_argument("graph", help="graph file (.edgelist or .json)")
    p_layer.add_argument("--method", choices=method_names, default="aco")
    p_layer.add_argument("--output", help="write the layer assignment to this JSON file")
    _add_aco_options(p_layer)
    p_layer.set_defaults(func=_cmd_layer)

    p_draw = sub.add_parser("draw", help="run the Sugiyama pipeline and render the drawing")
    p_draw.add_argument("graph", help="graph file (.edgelist or .json)")
    p_draw.add_argument("--method", choices=method_names, default="aco")
    p_draw.add_argument("--svg", help="write an SVG rendering to this path")
    p_draw.add_argument("--no-ascii", action="store_true", help="skip the ASCII rendering")
    p_draw.add_argument("--columns", type=int, default=100, help="ASCII rendering width")
    _add_aco_options(p_draw)
    p_draw.set_defaults(func=_cmd_draw)

    p_compare = sub.add_parser("compare", help="run the five-algorithm comparison on the corpus")
    p_compare.add_argument(
        "--graphs-per-group",
        type=int,
        default=None,
        help="corpus sample size per vertex-count group (default 2)",
    )
    p_compare.add_argument(
        "--full",
        action="store_true",
        help=(
            "run the paper's entire 1277-graph corpus (pair with --run-dir/"
            "--resume and --cache-dir for interruption-proof runs)"
        ),
    )
    p_compare.add_argument(
        "--vertex-counts", type=int, nargs="*", help="vertex-count groups (default: all 19)"
    )
    p_compare.add_argument("--no-aco", action="store_true", help="baselines only")
    _add_aco_options(p_compare)
    _add_engine_options(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_figures = sub.add_parser("figures", help="regenerate the paper's evaluation figures")
    p_figures.add_argument("--figure", choices=sorted(FIGURES) + ["all"], default="all")
    p_figures.add_argument("--graphs-per-group", type=int, default=2)
    _add_aco_options(p_figures)
    _add_engine_options(p_figures)
    p_figures.set_defaults(func=_cmd_figures)

    p_tune = sub.add_parser("tune", help="reproduce a Section VIII parameter sweep")
    p_tune.add_argument(
        "--sweep",
        choices=("alpha-beta", "nd-width"),
        default="alpha-beta",
        help="which parameter sweep to run (default alpha-beta)",
    )
    p_tune.add_argument("--graphs-per-group", type=int, default=1)
    p_tune.add_argument(
        "--vertex-counts",
        type=int,
        nargs="*",
        help="vertex-count groups for the sweep corpus (default: 20 40 60)",
    )
    _add_aco_options(p_tune)
    _add_engine_options(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_corpus = sub.add_parser("corpus", help="write the synthetic corpus to a directory")
    p_corpus.add_argument("output_dir")
    p_corpus.add_argument("--graphs-per-group", type=int, default=1)
    p_corpus.set_defaults(func=_cmd_corpus)

    p_cache = sub.add_parser("cache", help="inspect or prune a result-cache directory")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser("stats", help="entry count, size and age range")
    p_cache_stats.add_argument("cache_dir", help="the --cache-dir to inspect")
    p_cache_stats.set_defaults(func=_cmd_cache)
    p_cache_prune = cache_sub.add_parser(
        "prune",
        help="evict entries older than a cutoff and/or oldest-first down to a size budget",
    )
    p_cache_prune.add_argument("cache_dir", help="the --cache-dir to prune")
    p_cache_prune.add_argument(
        "--max-size", help="size budget to prune down to, e.g. 1048576, 512K, 64M, 2G"
    )
    p_cache_prune.add_argument(
        "--older-than", help="evict entries older than this, e.g. 30s, 45m, 12h, 7d"
    )
    p_cache_prune.add_argument(
        "--free-below",
        help=(
            "disk-full watermark: evict oldest-first until the cache "
            "directory's filesystem has at least this much free space, "
            "e.g. 512M, 2G"
        ),
    )
    p_cache_prune.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve",
        help=(
            "run the layout service (HTTP/JSON; cached answers at once, misses "
            "that queue behind a busy worker share one megabatch; graceful drain)"
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument(
        "--port", type=int, default=8377, help="TCP port; 0 binds an ephemeral port (default 8377)"
    )
    p_serve.add_argument(
        "--batch-size", type=int, default=128, help="megabatch pack size cap (default 128)"
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help=(
            "admission bound; queued requests beyond this get 429, cached "
            "answers never queue (default 256)"
        ),
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="default per-request budget in seconds (default 30)",
    )
    p_serve.add_argument(
        "--crash-retries",
        type=int,
        default=1,
        help="bounded re-runs of crash-kind cell failures (default 1)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="SIGTERM grace window before the hard-kill fallback (default 10)",
    )
    p_serve.add_argument("--cache-dir", help="result-cache directory shared with CLI runs")
    p_serve.add_argument(
        "--jobs",
        type=int,
        help=(
            "ignored: packs run in-process on REPRO_ACO_THREADS kernel "
            "threads (accepted for compatibility)"
        ),
    )
    p_serve.add_argument(
        "--memory-budget",
        default=None,
        metavar="SIZE",
        help=(
            "per-pack working-set budget, e.g. 512M: requests whose own "
            "cost estimate exceeds it answer 413, and megabatches are "
            "split to fit (default: no budget)"
        ),
    )
    p_serve.add_argument(
        "--no-prewarm",
        action="store_true",
        help="skip the packed-runtime warm-up before reporting ready",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="static invariant checks (determinism, signal-safety, shm, kernel contract)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is stdlib-only and must stay importable in
    # minimal environments, and normal CLI runs never pay for it.
    from repro.lint.cli import run as run_lint_cli

    return run_lint_cli(args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
