"""Index-based problem representation shared by ants, colony and heuristics.

The ants touch the graph structure millions of times per run, so the public
:class:`~repro.graph.digraph.DiGraph` (hashable vertices, dictionaries) is
converted once into a :class:`LayeringProblem` — flat integer indices, NumPy
arrays for widths/degrees, Python lists of integer neighbour lists.  The
conversion also performs the initialisation phase of the paper's Algorithm 3:
LPL layering followed by stretching to ``|V|`` layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import DiGraph, Vertex
from repro.graph.validation import require_dag, require_nonempty
from repro.layering.base import Layering
from repro.layering.longest_path import longest_path_layering
from repro.layering.stretch import stretch_above_below, stretch_between
from repro.utils.exceptions import ValidationError

__all__ = ["LayeringProblem", "PackedProblems"]


def _csr_arrays(adjacency: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a list-of-lists adjacency into CSR ``(indptr, indices)`` arrays."""
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in adjacency], out=indptr[1:])
    indices = np.fromiter(
        (w for nbrs in adjacency for w in nbrs), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, indices


@dataclass
class LayeringProblem:
    """Flat, index-based view of one DAG-layering instance.

    Attributes
    ----------
    graph:
        The original graph (kept for converting results back to vertex labels).
    vertices:
        Vertex labels in index order (``vertices[i]`` is the label of index ``i``).
    n_vertices, n_layers:
        Problem dimensions; ``n_layers`` is the stretched layer count
        (``|V|`` with the paper's stretching strategy).
    succ, pred:
        Integer adjacency lists (successors / predecessors per vertex index).
    succ_indptr, succ_indices, pred_indptr, pred_indices:
        The same adjacency in CSR form: the neighbours of vertex ``v`` are
        ``succ_indices[succ_indptr[v]:succ_indptr[v + 1]]`` (flat ``int64``
        arrays).  CSR is the *primary* kernel representation — the NumPy
        lockstep, the C backend and the multi-colony runtime all traverse
        it directly, so the kernel data path stays O(V+E) even on
        star-heavy graphs whose max degree approaches ``|V|``.
    edge_src, edge_dst:
        Flat edge list (``edge_src[e]`` is the tail / upper vertex,
        ``edge_dst[e]`` the head / lower vertex of edge ``e``), aligned with
        ``succ_indices``.
    out_degree, in_degree:
        Degree arrays (``int64``).
    widths:
        Real-vertex drawing widths (``float64``).
    nd_width:
        Dummy-vertex width used in all width computations.
    initial_assignment:
        The stretched LPL layering as an integer array (layer of vertex ``i``),
        the starting point of the first tour.
    lpl_height:
        Height of the un-stretched LPL layering (useful for reporting).
    """

    graph: DiGraph
    vertices: list[Vertex]
    n_vertices: int
    n_layers: int
    succ: list[list[int]]
    pred: list[list[int]]
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray
    widths: np.ndarray
    nd_width: float
    initial_assignment: np.ndarray
    lpl_height: int

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(
        cls,
        graph: DiGraph,
        *,
        nd_width: float = 1.0,
        stretch_strategy: str = "between",
        n_layers: int | None = None,
    ) -> "LayeringProblem":
        """Build a problem instance: LPL, stretch, then index everything.

        Parameters
        ----------
        graph: the DAG to layer.
        nd_width: dummy-vertex width.
        stretch_strategy: ``"between"`` (paper, Fig. 2), ``"above"``,
            ``"below"`` or ``"split"`` (Fig. 1 variants, for ablations).
        n_layers: total layer count after stretching; defaults to ``|V|``
            as in the paper.
        """
        require_nonempty(graph)
        if nd_width < 0:
            raise ValidationError(f"nd_width must be >= 0, got {nd_width}")

        # Acyclicity is enforced by the topological sort inside the LPL call
        # (CycleError), so no separate require_dag pass is paid here.
        lpl = longest_path_layering(graph)
        target = graph.n_vertices if n_layers is None else n_layers
        if target < lpl.height:
            raise ValidationError(
                f"n_layers={target} is below the minimum height {lpl.height}"
            )
        if stretch_strategy == "between":
            stretched, total_layers = stretch_between(lpl, target)
        elif stretch_strategy in {"above", "below", "split"}:
            stretched, total_layers = stretch_above_below(lpl, target, mode=stretch_strategy)
        else:
            raise ValidationError(
                "stretch_strategy must be 'between', 'above', 'below' or 'split', "
                f"got {stretch_strategy!r}"
            )

        vertices = list(graph.vertices())
        index = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        succ = [[index[w] for w in graph.successors(v)] for v in vertices]
        pred = [[index[u] for u in graph.predecessors(v)] for v in vertices]
        out_degree = np.array([len(s) for s in succ], dtype=np.int64)
        in_degree = np.array([len(p) for p in pred], dtype=np.int64)
        widths = np.array([graph.vertex_width(v) for v in vertices], dtype=np.float64)
        initial = np.array([stretched.layer_of(v) for v in vertices], dtype=np.int64)

        succ_indptr, succ_indices = _csr_arrays(succ)
        pred_indptr, pred_indices = _csr_arrays(pred)
        # Flat edge list aligned with succ_indices: edge e runs from the
        # (upper) tail edge_src[e] to the (lower) head edge_dst[e].
        edge_src = np.repeat(np.arange(n, dtype=np.int64), out_degree)
        edge_dst = succ_indices

        return cls(
            graph=graph,
            vertices=vertices,
            n_vertices=n,
            n_layers=total_layers,
            succ=succ,
            pred=pred,
            succ_indptr=succ_indptr,
            succ_indices=succ_indices,
            pred_indptr=pred_indptr,
            pred_indices=pred_indices,
            edge_src=edge_src,
            edge_dst=edge_dst,
            out_degree=out_degree,
            in_degree=in_degree,
            widths=widths,
            nd_width=float(nd_width),
            initial_assignment=initial,
            lpl_height=lpl.height,
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def layer_span(self, assignment: np.ndarray, v: int) -> tuple[int, int]:
        """Inclusive feasible layer range of vertex index *v* under *assignment*."""
        lo = 1
        hi = self.n_layers
        for w in self.succ[v]:
            lw = assignment[w]
            if lw + 1 > lo:
                lo = lw + 1
        for u in self.pred[v]:
            lu = assignment[u]
            if lu - 1 < hi:
                hi = lu - 1
        return int(lo), int(hi)

    def random_order(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random visiting order of the vertex indices."""
        return rng.permutation(self.n_vertices)

    def random_bfs_order(self, rng: np.random.Generator) -> np.ndarray:
        """A breadth-first visiting order from a random start vertex.

        The BFS treats edges as undirected (successors and predecessors are
        both explored) and restarts from a random unvisited vertex whenever a
        connected component is exhausted — the "linear order of the vertices"
        alternative to random choice that the paper mentions for the ants'
        walks.
        """
        visited = np.zeros(self.n_vertices, dtype=bool)
        order: list[int] = []
        remaining = list(rng.permutation(self.n_vertices))
        from collections import deque

        queue: deque[int] = deque()
        while len(order) < self.n_vertices:
            while remaining and visited[remaining[-1]]:
                remaining.pop()
            if not queue:
                start = int(remaining.pop())
                visited[start] = True
                queue.append(start)
                order.append(start)
            while queue:
                v = queue.popleft()
                neighbours = list(self.succ[v]) + list(self.pred[v])
                for w in rng.permutation(len(neighbours)):
                    u = neighbours[int(w)]
                    if not visited[u]:
                        visited[u] = True
                        order.append(u)
                        queue.append(u)
        return np.array(order, dtype=np.int64)

    def random_topological_order(self, rng: np.random.Generator) -> np.ndarray:
        """A random topological order (sources first, random tie-breaking)."""
        in_deg = self.in_degree.copy()
        available = [v for v in range(self.n_vertices) if in_deg[v] == 0]
        order: list[int] = []
        while available:
            idx = int(rng.integers(0, len(available)))
            v = available.pop(idx)
            order.append(v)
            for w in self.succ[v]:
                in_deg[w] -= 1
                if in_deg[w] == 0:
                    available.append(w)
        return np.array(order, dtype=np.int64)

    def assignment_to_layering(self, assignment: np.ndarray, *, normalize: bool = True) -> Layering:
        """Convert an integer layer array back into a label-keyed :class:`Layering`."""
        layering = Layering(
            {self.vertices[i]: int(assignment[i]) for i in range(self.n_vertices)}
        )
        return layering.normalized() if normalize else layering

    def layering_to_assignment(self, layering: Layering) -> np.ndarray:
        """Convert a label-keyed layering into the integer array form used internally."""
        return np.array(
            [layering.layer_of(v) for v in self.vertices], dtype=np.int64
        )


@dataclass
class PackedProblems:
    """Several :class:`LayeringProblem` instances packed for one kernel sweep.

    Cross-graph batching needs every per-vertex array of every graph in one
    contiguous buffer so a single :func:`repro.aco.kernels.run_walks_packed`
    call can advance walks belonging to *different* graphs in lockstep.  The
    layout is block-diagonal: the vertices of graph ``g`` occupy the global
    index range ``[vert_offset[g], vert_offset[g + 1])`` in the concatenated
    degree/width arrays, while adjacency *values* stay **local** (0-based
    within their graph) because each walk's assignment row is local to its
    own graph.

    Attributes
    ----------
    problems:
        The per-graph problems, in pack order (kept for randomness drawing
        and for converting results back to vertex labels).
    n_vertices_per, n_layers_per:
        Per-graph dimensions (``int64``).
    vert_offset:
        ``(n_graphs + 1,)`` cumulative vertex counts; the global row of local
        vertex ``v`` of graph ``g`` is ``vert_offset[g] + v``.
    indptr_offset:
        Per-graph starting position inside the packed CSR ``indptr`` arrays
        (each graph contributes ``n_g + 1`` entries, so this is
        ``vert_offset[g] + g``).
    succ_indptr, succ_indices, pred_indptr, pred_indices:
        Packed CSR adjacency — the only neighbour representation the kernel
        path reads, O(V+E) over the whole pack.  ``indptr`` values are
        shifted so they index straight into the packed ``indices`` arrays;
        ``indices`` values are local vertex ids.
    out_degree, in_degree, widths:
        Concatenated per-vertex arrays, indexed globally.
    nd_width:
        Shared dummy-vertex width (packing requires it to be identical).
    max_n_vertices, max_n_cols:
        Padded walk dimensions: every per-walk row is ``max_n_vertices``
        entries (+2 sentinel columns) and every per-layer row is
        ``max_n_cols`` = ``max(n_layers) + 1`` entries wide.
    initial_assignment, init_real, init_crossing, init_occupancy:
        Per-graph initial state (stretched LPL), zero-padded to the pack
        width — rows ``g`` seed every colony of graph ``g``.
    """

    problems: list[LayeringProblem]
    n_vertices_per: np.ndarray
    n_layers_per: np.ndarray
    vert_offset: np.ndarray
    indptr_offset: np.ndarray
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray
    widths: np.ndarray
    nd_width: float
    max_n_vertices: int
    max_n_cols: int
    initial_assignment: np.ndarray
    init_real: np.ndarray
    init_crossing: np.ndarray
    init_occupancy: np.ndarray

    @property
    def n_graphs(self) -> int:
        return len(self.problems)

    @property
    def total_vertices(self) -> int:
        return int(self.vert_offset[-1])

    @classmethod
    def pack(cls, problems: list[LayeringProblem]) -> "PackedProblems":
        """Stack the flat arrays of *problems* into one block-diagonal pack."""
        if not problems:
            raise ValidationError("cannot pack an empty problem list")
        nd_width = problems[0].nd_width
        for p in problems[1:]:
            if p.nd_width != nd_width:
                raise ValidationError(
                    "all packed problems must share one nd_width, got "
                    f"{nd_width} and {p.nd_width}"
                )

        n_per = np.array([p.n_vertices for p in problems], dtype=np.int64)
        layers_per = np.array([p.n_layers for p in problems], dtype=np.int64)
        vert_offset = np.zeros(len(problems) + 1, dtype=np.int64)
        np.cumsum(n_per, out=vert_offset[1:])
        indptr_offset = vert_offset[:-1] + np.arange(len(problems), dtype=np.int64)
        max_n = int(n_per.max())
        max_cols = int(layers_per.max()) + 1

        def _packed_csr(indptr_name: str, indices_name: str):
            indptrs = []
            edge_offset = 0
            for p in problems:
                local = getattr(p, indptr_name)
                indptrs.append(local + edge_offset)
                edge_offset += int(local[-1])
            return (
                np.concatenate(indptrs),
                np.concatenate([getattr(p, indices_name) for p in problems]),
            )

        succ_indptr, succ_indices = _packed_csr("succ_indptr", "succ_indices")
        pred_indptr, pred_indices = _packed_csr("pred_indptr", "pred_indices")

        initial = np.zeros((len(problems), max_n), dtype=np.int64)
        init_real = np.zeros((len(problems), max_cols), dtype=np.float64)
        init_crossing = np.zeros((len(problems), max_cols), dtype=np.int64)
        init_occupancy = np.zeros((len(problems), max_cols), dtype=np.int64)
        # Local import: heuristic.py imports this module at load time.
        from repro.aco.heuristic import LayerWidths

        for g, p in enumerate(problems):
            initial[g, : p.n_vertices] = p.initial_assignment
            base = LayerWidths.from_assignment(p, p.initial_assignment)
            init_real[g, : p.n_layers + 1] = base.real
            init_crossing[g, : p.n_layers + 1] = base.crossing
            init_occupancy[g, : p.n_layers + 1] = base.occupancy

        return cls(
            problems=list(problems),
            n_vertices_per=n_per,
            n_layers_per=layers_per,
            vert_offset=vert_offset,
            indptr_offset=indptr_offset,
            succ_indptr=succ_indptr,
            succ_indices=succ_indices,
            pred_indptr=pred_indptr,
            pred_indices=pred_indices,
            out_degree=np.concatenate([p.out_degree for p in problems]),
            in_degree=np.concatenate([p.in_degree for p in problems]),
            widths=np.concatenate([p.widths for p in problems]),
            nd_width=float(nd_width),
            max_n_vertices=max_n,
            max_n_cols=max_cols,
            initial_assignment=initial,
            init_real=init_real,
            init_crossing=init_crossing,
            init_occupancy=init_occupancy,
        )
