"""Random and structured DAG generators.

The paper evaluates on 1277 AT&T graphs from graphdrawing.org grouped by
vertex count (10 to 100, step 5).  That corpus is not redistributable, so the
benchmark harness uses :func:`att_like_dag` — a sparse random-DAG generator
whose edge count scales like the published statistics of the AT&T/Rome
collections (|E| roughly 1.3–1.6·|V|, small in/out degrees, a handful of
sources and sinks).  The remaining generators produce structured families
(trees, series-parallel graphs, long paths, layered random DAGs) that are used
by tests, examples and the ablation benchmarks.

Every generator takes an explicit ``seed`` (or generator) and is fully
deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.exceptions import ValidationError
from repro.utils.rng import as_generator

__all__ = [
    "gnp_dag",
    "layered_random_dag",
    "random_tree_dag",
    "random_binary_tree_dag",
    "series_parallel_dag",
    "longest_path_dag",
    "att_like_dag",
    "complete_layered_dag",
]


def _check_n(n: int) -> None:
    if n < 1:
        raise ValidationError(f"number of vertices must be >= 1, got {n}")


def gnp_dag(n: int, p: float, *, seed: int | None | np.random.Generator = None) -> DiGraph:
    """Erdős–Rényi style random DAG.

    Vertices are ``0..n-1``; each pair ``(i, j)`` with ``i < j`` becomes the
    edge ``i -> j`` independently with probability *p*.  Orienting edges from
    the smaller to the larger index guarantees acyclicity.

    Parameters
    ----------
    n: number of vertices (>= 1).
    p: edge probability in ``[0, 1]``.
    seed: RNG seed or generator.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    rng = as_generator(seed)
    g = DiGraph(vertices=range(n))
    if n == 1:
        return g
    # Vectorised draw over the upper triangle.
    upper = np.triu_indices(n, k=1)
    mask = rng.random(len(upper[0])) < p
    for i, j in zip(upper[0][mask], upper[1][mask]):
        g.add_edge(int(i), int(j))
    return g


def layered_random_dag(
    n_layers: int,
    layer_size: int,
    p: float,
    *,
    max_span: int = 3,
    seed: int | None | np.random.Generator = None,
    engine: str = "vectorized",
) -> DiGraph:
    """Random DAG with a planted layered structure.

    ``n_layers`` layers of ``layer_size`` vertices each; an edge from a vertex
    on layer ``i`` to a vertex on layer ``j < i`` (spans up to *max_span*) is
    added with probability *p*.  Useful for tests where a "natural" layering
    of known height exists.

    The default ``engine="vectorized"`` draws one uniform block per layer
    pair instead of one scalar per vertex pair; ``numpy``'s
    ``Generator.random(n)`` produces the same doubles as ``n`` successive
    scalar draws, so the generated graph is **identical** to the per-pair
    reference (``engine="python"``) for any fixed seed.
    """
    if n_layers < 1 or layer_size < 1:
        raise ValidationError("n_layers and layer_size must both be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    if max_span < 1:
        raise ValidationError(f"max_span must be >= 1, got {max_span}")
    if engine not in ("vectorized", "python"):
        raise ValidationError(
            f"engine must be 'vectorized' or 'python', got {engine!r}"
        )
    rng = as_generator(seed)
    g = DiGraph()
    layers: list[list[int]] = []
    vid = 0
    for _ in range(n_layers):
        layer = list(range(vid, vid + layer_size))
        for v in layer:
            g.add_vertex(v)
        layers.append(layer)
        vid += layer_size
    # Layers are indexed bottom-up like the paper: edges go from a higher
    # layer index to a lower one.
    for hi in range(1, n_layers):
        for lo in range(max(0, hi - max_span), hi):
            if engine == "vectorized":
                # One block draw per layer pair, flattened in the same
                # (u outer, v inner) order the scalar loop consumes.
                mask = rng.random(layer_size * layer_size) < p
                base_u = layers[hi][0]
                base_v = layers[lo][0]
                for flat in np.flatnonzero(mask):
                    g.add_edge(
                        base_u + int(flat) // layer_size,
                        base_v + int(flat) % layer_size,
                    )
            else:
                for u in layers[hi]:
                    for v in layers[lo]:
                        if rng.random() < p:
                            g.add_edge(u, v)
    return g


def random_tree_dag(
    n: int, *, max_children: int = 4, seed: int | None | np.random.Generator = None
) -> DiGraph:
    """Random rooted tree with edges directed from parent to child.

    Each new vertex picks a uniformly random existing vertex with fewer than
    *max_children* children as its parent (falling back to any vertex when all
    are saturated), producing shallow, bushy DAGs resembling call trees.
    """
    _check_n(n)
    if max_children < 1:
        raise ValidationError(f"max_children must be >= 1, got {max_children}")
    rng = as_generator(seed)
    g = DiGraph(vertices=[0])
    children_count = {0: 0}
    for v in range(1, n):
        candidates = [u for u, c in children_count.items() if c < max_children]
        if not candidates:
            candidates = list(children_count)
        parent = int(candidates[rng.integers(0, len(candidates))])
        g.add_vertex(v)
        g.add_edge(parent, v)
        children_count[parent] = children_count.get(parent, 0) + 1
        children_count[v] = 0
    return g


def random_binary_tree_dag(depth: int) -> DiGraph:
    """Complete binary tree of the given depth, edges from parent to child.

    ``depth=0`` is a single vertex.  Vertex ids follow the usual heap
    numbering (root 0, children of ``i`` are ``2i+1`` and ``2i+2``).
    """
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    n = 2 ** (depth + 1) - 1
    g = DiGraph(vertices=range(n))
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                g.add_edge(i, child)
    return g


def series_parallel_dag(
    n_operations: int, *, seed: int | None | np.random.Generator = None
) -> DiGraph:
    """Random two-terminal series-parallel DAG.

    Starts from a single edge ``source -> sink`` and applies *n_operations*
    random series or parallel compositions: a series step subdivides a random
    edge with a new vertex; a parallel step duplicates a random edge through a
    new vertex (creating a diamond).  Series-parallel DAGs are the classic
    worst case for dummy-vertex blow-up, which is why they appear in the
    ablation benchmarks.
    """
    if n_operations < 0:
        raise ValidationError(f"n_operations must be >= 0, got {n_operations}")
    rng = as_generator(seed)
    g = DiGraph(edges=[(0, 1)])
    next_id = 2
    for _ in range(n_operations):
        edges = list(g.edges())
        u, v = edges[rng.integers(0, len(edges))]
        w = next_id
        next_id += 1
        g.add_vertex(w)
        if rng.random() < 0.5:
            # series: u -> w -> v replaces u -> v
            g.remove_edge(u, v)
            g.add_edge(u, w)
            g.add_edge(w, v)
        else:
            # parallel: add a second path u -> w -> v alongside u -> v
            g.add_edge(u, w)
            g.add_edge(w, v)
    return g


def longest_path_dag(n: int) -> DiGraph:
    """A simple path ``0 -> 1 -> ... -> n-1`` (height-maximising worst case)."""
    _check_n(n)
    g = DiGraph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def complete_layered_dag(n_layers: int, layer_size: int) -> DiGraph:
    """Complete bipartite connections between consecutive layers (dense stress test)."""
    if n_layers < 1 or layer_size < 1:
        raise ValidationError("n_layers and layer_size must both be >= 1")
    g = DiGraph()
    layers = []
    vid = 0
    for _ in range(n_layers):
        layer = list(range(vid, vid + layer_size))
        for v in layer:
            g.add_vertex(v)
        layers.append(layer)
        vid += layer_size
    for i in range(1, n_layers):
        for u in layers[i]:
            for v in layers[i - 1]:
                g.add_edge(u, v)
    return g


def att_like_dag(
    n: int,
    *,
    edge_factor: float = 1.4,
    edge_factor_jitter: float = 0.15,
    depth_ratio: float = 0.55,
    depth_exponent: float = 0.3,
    span_decay: float = 0.35,
    seed: int | None | np.random.Generator = None,
) -> DiGraph:
    """Sparse, shallow random DAG statistically similar to the AT&T graph-drawing corpus.

    The AT&T digraphs used by the paper's evaluation (and by the wider graph
    drawing literature) are small, sparse (|E| ≈ 1.3–1.6 · |V|) and *shallow*:
    their longest directed paths are short relative to the vertex count, so a
    Longest-Path Layering is only a handful of layers tall but very wide,
    while width-oriented heuristics stack the same graphs into tall, narrow
    layerings.  This generator reproduces those characteristics:

    1.  Every vertex gets a *depth* drawn from a truncated geometric
        distribution with ratio *depth_ratio*, bounded by
        ``max(2, round(1.5 · n^depth_exponent))`` levels — for example ≈ 3
        levels at 10 vertices and ≈ 6 levels at 100 vertices.  Depth 0
        vertices are the (numerous) sinks.
    2.  Each vertex of depth ``d > 0`` receives one edge to a random vertex of
        depth ``d − 1``, which pins its longest-path length to exactly ``d``.
    3.  Additional edges are sampled until the jittered target
        ``m ≈ edge_factor · n`` is reached, each going from a vertex of depth
        ``d`` to a vertex of strictly smaller depth, with the depth gap drawn
        from a geometric distribution (*span_decay*) so most extra edges are
        short and only a few span several levels — keeping dummy-vertex
        counts low, as observed for the real corpus.

    Parameters
    ----------
    n: number of vertices.
    edge_factor: target ratio |E| / |V|.
    edge_factor_jitter: uniform jitter applied to *edge_factor* per graph.
    depth_ratio: geometric ratio of the depth distribution (smaller = shallower).
    depth_exponent: growth exponent of the number of depth levels with *n*.
    span_decay: geometric parameter for the depth gap of the extra edges.
    seed: RNG seed or generator.
    """
    _check_n(n)
    if edge_factor < 0:
        raise ValidationError(f"edge_factor must be >= 0, got {edge_factor}")
    if not 0.0 < depth_ratio < 1.0:
        raise ValidationError(f"depth_ratio must be in (0, 1), got {depth_ratio}")
    if not 0.0 < span_decay <= 1.0:
        raise ValidationError(f"span_decay must be in (0, 1], got {span_decay}")
    rng = as_generator(seed)
    g = DiGraph(vertices=range(n))
    if n == 1:
        return g

    n_levels = max(2, int(round(1.5 * n**depth_exponent)))
    n_levels = min(n_levels, n)

    # --- 1. depths from a truncated geometric distribution ----------------- #
    level_probs = depth_ratio ** np.arange(n_levels)
    level_probs /= level_probs.sum()
    depths = rng.choice(n_levels, size=n, p=level_probs)
    # Guarantee every level up to the drawn maximum is populated so the
    # longest path really has max(depths) + 1 vertices.
    max_depth = int(depths.max())
    for d in range(max_depth + 1):
        if not np.any(depths == d):
            depths[int(rng.integers(0, n))] = d
    # That fix-up can take the only vertex of a level it already filled.
    # Refill such a level from the levels that can spare a vertex; seeds
    # whose levels are all populated draw nothing more here.
    counts = np.bincount(depths, minlength=max_depth + 1)
    for d in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[depths] >= 2)
        v = int(donors[rng.integers(0, len(donors))])
        counts[depths[v]] -= 1
        depths[v] = d
        counts[d] += 1
    by_depth: dict[int, list[int]] = {d: [] for d in range(int(depths.max()) + 1)}
    for v in range(n):
        by_depth[int(depths[v])].append(v)

    # --- 2. backbone: one adjacent-level edge per non-sink vertex ---------- #
    edges: set[tuple[int, int]] = set()
    for v in range(n):
        d = int(depths[v])
        if d == 0:
            continue
        targets = by_depth[d - 1]
        w = int(targets[rng.integers(0, len(targets))])
        edges.add((v, w))

    # --- 3. extra edges until the target edge count is reached ------------- #
    factor = edge_factor + rng.uniform(-edge_factor_jitter, edge_factor_jitter)
    target_m = max(len(edges), int(round(factor * n)))
    non_sinks = [v for v in range(n) if depths[v] > 0]
    attempts = 0
    max_attempts = 60 * target_m + 100
    while len(edges) < target_m and attempts < max_attempts and non_sinks:
        attempts += 1
        u = int(non_sinks[rng.integers(0, len(non_sinks))])
        du = int(depths[u])
        gap = 1 + int(rng.geometric(1.0 - span_decay)) - 1  # geometric on {1, 2, ...}
        gap = min(max(gap, 1), du)
        targets = by_depth[du - gap]
        v = int(targets[rng.integers(0, len(targets))])
        if u != v:
            edges.add((u, v))

    for u, v in sorted(edges):
        g.add_edge(u, v)
    return g
