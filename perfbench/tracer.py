"""In-memory spans around the calls into each layer of the program.

The program carries no tracing of its own, so a traced run wraps the
bindings through which the program reaches each layer — from the
benchmark's side, restoring them afterwards:

* the engine resolves baselines through ``BUILTIN_METHODS`` and calls
  ``longest_path_layering`` / ``promote_layering`` /
  ``minwidth_layering_sweep`` / ``evaluate_layering`` through its own module
  globals;
* ``LayeringProblem.from_graph`` and ``PackedProblems.pack`` are
  class methods the engine's batch path looks up at call time;
* the engine imports ``run_packed_colonies`` from ``repro.aco.runtime`` at
  call time, and the runtime calls ``run_walks_packed`` through its own
  import;
* the result cache and ``ExperimentEngine.run_iter`` are wrapped on the
  instances the workload creates.

A span is ``[name, start, end, parent, request_id]``; spans stay in memory
and are written once, at the end.  A span's self time is its duration minus
the durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Per-layer metrics every traced run reports (units are in BENCHMARK.json);
#: a layer off the workload's path reports 0.
PER_LAYER_METRICS = (
    "datasets.generate_s",
    "layering.lpl_s",
    "layering.lpl_calls",
    "layering.promote_s",
    "layering.promote_calls",
    "layering.minwidth_s",
    "layering.minwidth_calls",
    "layering.evaluate_s",
    "layering.evaluate_calls",
    "aco.problem.build_s",
    "aco.problem.build_calls",
    "aco.problem.pack_s",
    "aco.problem.tau_useful_ratio",
    "aco.runtime.self_s",
    "aco.runtime.packs",
    "aco.kernels.walk_s",
    "aco.kernels.walk_steps",
    "aco.kernels.ns_per_step",
    "engine.self_s",
    "cache.put_s",
    "cache.put_calls",
    "cache.get_s",
    "cache.get_calls",
    "cache.memory_hit_ratio",
    "serving.hit_p50_ms",
    "serving.miss_p50_ms",
    "serving.miss_overhead_p50_ms",
    "serving.batch_cells_mean",
    "serving.conn_wait_p50_ms",
    "serving.rejected",
    "loadgen.lag_ms_max",
    "trace.overhead_s",
)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------ #

    def begin(self, name: str, request_id: Any = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, request_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        request_id: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* inside a span; *after(args, kwargs)* runs once the span closed."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name, request_id(*args) if request_id else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
                if after is not None:
                    after(*args, **kwargs)

        return traced

    def wrap_iter(self, fn: Callable[..., Iterator[Any]], name: str) -> Callable[..., Any]:
        """A generator function inside one span; the consumer's time between
        items becomes ``runner.consume`` child spans, so it is not counted as
        the generator's own time."""

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            index = self.begin(name)
            try:
                for item in fn(*args, **kwargs):
                    consume = self.begin("runner.consume")
                    try:
                        yield item
                    finally:
                        self.end(consume)
            finally:
                self.end(index)

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr``; :meth:`unpatch` puts the original back."""
        # A class keeps its raw classmethod object, so restore that.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------ #

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time and span count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            counts[name] += 1
        return totals, counts

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request_id,
                        }
                    )
                    + "\n"
                )


@contextmanager
def span(tracer: Tracer | None, name: str) -> Iterator[None]:
    """A span around the block when tracing; nothing otherwise."""
    if tracer is None:
        yield
        return
    index = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(index)


def zero_metrics() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_METRICS}


def install_program_spans(tracer: Tracer, names: dict[int, str]) -> None:
    """Wrap the program's layer bindings (see the module docstring).

    *names* maps ``id(graph)`` to the graph's corpus name, the request id of
    per-graph spans.
    """
    from repro.aco import runtime
    from repro.aco.problem import LayeringProblem, PackedProblems
    from repro.experiments import engine

    def graph_id(graph: Any, *_: Any) -> Any:
        return names.get(id(graph))

    lpl = tracer.wrap(engine.longest_path_layering, "layering.lpl", graph_id)
    promote = tracer.wrap(engine.promote_layering, "layering.promote", graph_id)
    minwidth = tracer.wrap(engine.minwidth_layering_sweep, "layering.minwidth", graph_id)
    tracer.patch(engine, "longest_path_layering", lpl)
    tracer.patch(engine, "promote_layering", promote)
    tracer.patch(engine, "minwidth_layering_sweep", minwidth)
    evaluate = tracer.wrap(engine.evaluate_layering, "layering.evaluate", graph_id)
    tracer.patch(engine, "evaluate_layering", evaluate)
    builtins = dict(engine.BUILTIN_METHODS)
    tracer.patch(engine, "BUILTIN_METHODS", builtins)
    builtins["LPL"] = lpl
    builtins["MinWidth"] = minwidth

    from_graph = LayeringProblem.__dict__["from_graph"].__func__
    build = tracer.wrap(
        from_graph, "aco.problem.build", lambda cls, graph, *_: names.get(id(graph))
    )
    tracer.patch(LayeringProblem, "from_graph", classmethod(build))
    pack = PackedProblems.__dict__["pack"].__func__
    tracer.patch(PackedProblems, "pack", classmethod(tracer.wrap(pack, "aco.problem.pack")))

    def tau_cells(packed: Any, *_: Any, **__: Any) -> None:
        useful = int((packed.n_vertices_per * (packed.n_layers_per + 1)).sum())
        tracer.counters["tau_useful"] += useful
        allocated = packed.n_graphs * packed.max_n_vertices * packed.max_n_cols
        tracer.counters["tau_alloc"] += allocated

    def walk_steps(packed: Any, *args: Any) -> None:
        walk_graph = args[3]  # run_walks_packed(packed, params, tau, tau_index, walk_graph, ...)
        tracer.counters["walk_steps"] += int(packed.n_vertices_per[walk_graph].sum())

    tracer.patch(
        runtime,
        "run_packed_colonies",
        tracer.wrap(runtime.run_packed_colonies, "aco.runtime", after=tau_cells),
    )
    tracer.patch(
        runtime,
        "run_walks_packed",
        tracer.wrap(runtime.run_walks_packed, "aco.kernels.walk", after=walk_steps),
    )


def install_instance_spans(tracer: Tracer, engine: Any, cache: Any) -> None:
    """Wrap the engine's ``run_iter`` and the cache's ``get``/``put``."""
    engine.run_iter = tracer.wrap_iter(engine.run_iter, "engine.run_iter")
    cache.get = tracer.wrap(cache.get, "cache.get")
    cache.put = tracer.wrap(cache.put, "cache.put")


def program_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the offline workloads from the recorded spans."""
    totals, counts = tracer.self_times()
    metrics = zero_metrics()
    for layer in (
        "datasets.generate",
        "layering.lpl",
        "layering.promote",
        "layering.minwidth",
        "layering.evaluate",
        "aco.problem.build",
        "cache.put",
        "cache.get",
    ):
        metrics[f"{layer}_s"] = totals.get(layer, 0.0)
        if f"{layer}_calls" in metrics:
            metrics[f"{layer}_calls"] = float(counts.get(layer, 0))
    metrics["aco.problem.pack_s"] = totals.get("aco.problem.pack", 0.0)
    metrics["aco.runtime.self_s"] = totals.get("aco.runtime", 0.0)
    metrics["aco.runtime.packs"] = float(counts.get("aco.runtime", 0))
    metrics["aco.kernels.walk_s"] = totals.get("aco.kernels.walk", 0.0)
    steps = tracer.counters.get("walk_steps", 0.0)
    metrics["aco.kernels.walk_steps"] = steps
    if steps:
        metrics["aco.kernels.ns_per_step"] = metrics["aco.kernels.walk_s"] * 1e9 / steps
    alloc = tracer.counters.get("tau_alloc", 0.0)
    if alloc:
        metrics["aco.problem.tau_useful_ratio"] = tracer.counters["tau_useful"] / alloc
    metrics["engine.self_s"] = totals.get("engine.run_iter", 0.0)
    return metrics
