"""Array-native kernels for the ACO hot path.

The ant walk is inherently sequential — every construction step re-reads the
layer widths left behind by the previous step — so the vectorization axis is
*across walks*: every walk of a tour advances one vertex per kernel step, and
every per-step quantity (layer spans, candidate widths, heuristic values,
scores, selections) is computed for all walks at once.
:func:`run_walks_packed` is the one entry point: the native C kernel when it
loads, else the NumPy lockstep loop (:func:`_lockstep_walks`).  The tour
loop around it lives in :mod:`repro.aco.runtime`.

Bit-identical walks
-------------------

The per-vertex reference walk (:meth:`repro.aco.ant.Ant.perform_walk`, run
by ``ACOParams(engine="python")``) and the batched walks here must produce
*bit-identical* assignments, objectives and tour histories for a fixed seed.
Three shared protocols guarantee this:

1. **Randomness** — :func:`draw_walk_randomness` draws, per walk, the vertex
   order followed by one uniform array ``u`` (only when the effective
   exploitation probability ``q0 < 1``).  ``numpy``'s ``Generator.random(n)``
   produces the same doubles as ``n`` successive scalar draws, so both
   paths consume the generator identically, and pre-drawing decouples the
   randomness from the execution order (which is what lets the batched
   walks interleave).
2. **Scoring** — :func:`fused_pow` is the single definition of
   ``x ** exponent`` used by both paths.  Small integer exponents are
   decomposed into multiplications (``x*x*x`` is faster than, and not
   bit-equal to, ``np.power(x, 3.0)``, so the decomposition must be shared).
   All other score arithmetic keeps the exact element-wise operation order of
   :meth:`repro.aco.heuristic.LayerWidths.eta`.
3. **Selection** — :func:`select_from_scores` implements the degenerate
   fallback, the pseudo-random-proportional exploit test and roulette
   sampling (``searchsorted`` on the sequential cumulative sum).  The batched
   walks evaluate the same decisions on zero-masked full layer rows; a
   zero prefix leaves a sequential cumulative sum bit-unchanged, so the
   roulette index is the same in both views.

Degenerate scores (all-zero, non-finite) fall back to a uniform choice from
``u`` when it exists and to the lower span bound in pure-argmax mode; the
latter is the one deliberate behaviour change versus the historical code
(which consumed an extra generator draw on a path that finite ``tau``/``eta``
floors make unreachable in practice).
"""

from __future__ import annotations

import numpy as np

from repro.aco import _native
from repro.aco.heuristic import AssignmentScore, compact_ranks
from repro.aco.params import ACOParams
from repro.aco.problem import LayeringProblem
from repro.utils import resources

__all__ = [
    "fused_pow",
    "select_from_scores",
    "draw_walk_randomness",
    "run_walks_packed",
    "evaluate_assignment_vectorized",
]


# ---------------------------------------------------------------------- #
# shared scoring / selection primitives
# ---------------------------------------------------------------------- #


def fused_pow(x: np.ndarray, exponent: float) -> np.ndarray:
    """``x ** exponent`` with small integer exponents decomposed into products.

    This is the single power implementation shared by the reference walk
    and the batched walks, so the decomposition (which is not bit-equal to
    ``np.power`` for exponents above 2) cannot make them diverge.  ``exponent`` is validated to be
    non-negative by :class:`~repro.aco.params.ACOParams`.
    """
    if exponent == 1.0:
        return x
    if exponent == 0.0:
        return np.ones_like(x)
    if exponent == 2.0:
        return x * x
    if exponent == 3.0:
        return x * x * x
    if exponent == 4.0:
        sq = x * x
        return sq * sq
    if exponent == 5.0:
        sq = x * x
        return sq * sq * x
    return np.power(x, exponent)


def select_from_scores(
    scores: np.ndarray, k: int, q0: float, u: float | None
) -> int:
    """Pick a span-relative index from a non-negative score vector of length *k*.

    The shared selection protocol:

    * all-zero / non-finite scores fall back to ``int(u * k)`` (or index 0
      when no uniform was drawn, i.e. in pure-argmax mode);
    * with probability ``q0`` (decided by ``u < q0``) the best index wins;
    * otherwise roulette: ``searchsorted`` of ``t * total`` on the sequential
      cumulative sum, with ``t = (u - q0) / (1 - q0)`` the exploration
      uniform rescaled to ``[0, 1)``.
    """
    best = int(scores.argmax())
    m = scores[best]
    if not (m > 0.0) or m == np.inf:  # not-> also catches NaN
        if u is None:
            return 0
        idx = int(u * k)
        return k - 1 if idx >= k else idx
    if q0 >= 1.0 or (q0 > 0.0 and u < q0):
        return best
    cumulative = np.cumsum(scores)
    total = cumulative[-1]
    if not np.isfinite(total) or total <= 0.0:
        idx = int(u * k)
        return k - 1 if idx >= k else idx
    t = (u - q0) / (1.0 - q0)
    idx = int(np.searchsorted(cumulative, t * total, side="right"))
    return k - 1 if idx >= k else idx


def draw_walk_randomness(
    problem: LayeringProblem, params: ACOParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw everything one walk consumes from *rng*: the vertex order, then
    one uniform per visit (skipped entirely in pure-argmax mode).

    The reference walk and the tour loop both call this at the start of
    every walk, in ant order, so the generator stream is consumed identically
    no matter how the walks are executed afterwards.
    """
    if params.vertex_order == "bfs":
        order = problem.random_bfs_order(rng)
    elif params.vertex_order == "topological":
        order = problem.random_topological_order(rng)
    else:
        order = problem.random_order(rng)
    u = rng.random(problem.n_vertices) if params.exploitation_probability < 1.0 else None
    return order, u


# ---------------------------------------------------------------------- #
# batched primitives
# ---------------------------------------------------------------------- #


def _csr_gather(
    indptr: np.ndarray, indices: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ragged CSR neighbour segments of ``v`` into two aligned arrays.

    Returns ``(owner, neighbours)`` where ``neighbours`` is the concatenation
    of every row's neighbour segment ``indices[indptr[v[a]]:indptr[v[a]+1]]``
    and ``owner[j]`` names the row the ``j``-th neighbour belongs to.  This is
    the O(E-touched) building block behind the lockstep's span bounds — no
    rectangular padded matrix is ever materialised.
    """
    start = indptr[v]
    count = indptr[v + 1] - start
    total = int(count.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    owner = np.repeat(np.arange(v.shape[0]), count)
    seg_start = np.cumsum(count) - count
    within = np.arange(total) - seg_start[owner]
    return owner, indices[start[owner] + within]


def evaluate_assignment_vectorized(
    problem: LayeringProblem, assignment: np.ndarray
) -> AssignmentScore:
    """Score an assignment from scratch with array-native operations.

    Height, dummy count and the per-layer dummy occupancy are exact integer
    computations; the real-width sums use ``np.bincount`` and can differ from
    the sequential reference :func:`repro.aco.heuristic.evaluate_assignment`
    in the last float ulp (the two are interchangeable everywhere the
    reference's ``pytest.approx``-level accuracy is).
    """
    height, compact = compact_ranks(problem, assignment)
    real = np.bincount(compact, weights=problem.widths, minlength=height + 1)
    dummies = 0
    totals = real
    if len(problem.edge_src):
        spans = compact[problem.edge_src] - compact[problem.edge_dst]
        dummies = int(spans.sum()) - len(spans)
        if problem.nd_width > 0 and dummies:
            # One dummy on every layer strictly between head and tail:
            # accumulate interval endpoints, then prefix-sum.
            delta = np.zeros(height + 2, dtype=np.int64)
            np.add.at(delta, compact[problem.edge_dst] + 1, 1)
            np.add.at(delta, compact[problem.edge_src], -1)
            crossing = np.cumsum(delta[: height + 1])
            totals = real + problem.nd_width * crossing
    width_incl = float(totals[1:].max()) if height else 0.0
    denom = height + width_incl
    return AssignmentScore(
        objective=1.0 / denom if denom > 0 else 0.0,
        height=height,
        width_including_dummies=width_incl,
        dummy_vertex_count=dummies,
    )


# ---------------------------------------------------------------------- #
# the lockstep walk sweep
# ---------------------------------------------------------------------- #


def _native_walks_guarded(
    native_lib: object,
    *,
    n_tasks: int,
    assignment: np.ndarray,
    real: np.ndarray,
    crossing: np.ndarray,
    occupancy: np.ndarray,
    **native_kwargs: object,
) -> np.ndarray | None:
    """Run the native kernel under the resource governor's breakers.

    Two degradation rungs apply, in order: an open ``native-kernel``
    breaker skips the native library entirely (the NumPy lockstep is
    bit-identical, so the fallback is invisible in results); an open
    ``native-threads`` breaker keeps the native kernel but forces a
    single-threaded call.  The kernel mutates ``real``/``crossing``/
    ``occupancy`` in place, so they are snapshotted before the attempt and
    restored on failure — the NumPy fallback must start from the exact
    pre-call layer state or bit-identity is lost.

    Returns the assignment array on success, ``None`` when the caller
    should take the NumPy fallback.
    """
    governor = resources.governor()
    if not governor.allow("native-kernel"):
        return None
    n_threads = _native.effective_threads(n_tasks=n_tasks)
    if n_threads > 1 and not governor.allow("native-threads"):
        n_threads = 1
    saved = (real.copy(), crossing.copy(), occupancy.copy())
    try:
        _native.run_walks_native(
            native_lib,
            n_threads=n_threads,
            assignment=assignment,
            real=real,
            crossing=crossing,
            occupancy=occupancy,
            **native_kwargs,
        )
    except Exception as exc:  # noqa: BLE001 - any native fault degrades
        real[:], crossing[:], occupancy[:] = saved
        rung = "native-threads" if n_threads > 1 else "native-kernel"
        governor.record_failure(rung, f"{type(exc).__name__}: {exc}")
        return None
    governor.record_success("native-kernel")
    if n_threads > 1:
        governor.record_success("native-threads")
    return assignment


def run_walks_packed(
    packed,
    params: ACOParams,
    tau_pow: np.ndarray,
    tau_index: np.ndarray,
    walk_graph: np.ndarray,
    orders: np.ndarray,
    uniforms: np.ndarray | None,
    base_assignment: np.ndarray,
    real: np.ndarray,
    crossing: np.ndarray,
    occupancy: np.ndarray,
) -> np.ndarray:
    """Run walks belonging to one or more graphs in one lockstep sweep.

    *packed* is a :class:`~repro.aco.problem.PackedProblems`,
    ``walk_graph[a]`` names the graph walk ``a`` builds a layering for, and
    every per-walk row (orders, uniforms, assignments, layer-state) is padded
    to the pack-wide strides ``max_n_vertices`` / ``max_n_cols``.  Walks of
    graphs smaller than the pack maximum terminate early (masked out of later
    steps), and every walk is bit-identical to
    :meth:`repro.aco.ant.Ant.perform_walk` on its own graph with the same
    pre-drawn randomness and pheromone matrix.  ``real``/``crossing``/
    ``occupancy`` are per-walk ``(n_walks, max_n_cols)`` arrays mutated in
    place.

    The native kernel runs the sweep when it loads and supports ``beta``;
    otherwise (no compiler, a non-integer ``beta`` or an open breaker) the
    NumPy lockstep :func:`_lockstep_walks` does, with identical results.

    ``tau_pow`` is a contiguous ``(n_matrices, max_n_vertices, max_n_cols)``
    stack of zero-padded pre-powered pheromone matrices; ``tau_index[a]``
    names the matrix walk ``a`` reads (one per colony per graph).  Padded
    tau entries never influence a decision: the feasibility mask confines
    scores to ``[lo, hi] ⊆ [1, n_layers_g]``.

    Returns the final ``(n_walks, max_n_vertices)`` assignments; rows are
    meaningful only up to each walk's own vertex count.
    """
    n_walks = orders.shape[0]
    max_n = packed.max_n_vertices
    max_cols = packed.max_n_cols

    beta = params.beta
    epsilon = params.eta_epsilon
    nd_width = packed.nd_width
    q0 = params.exploitation_probability

    steps = packed.n_vertices_per[walk_graph]
    voff = packed.vert_offset[walk_graph]
    layers_w = packed.n_layers_per[walk_graph]

    native_lib = _native.load_native() if _native.native_supports(beta) else None
    if native_lib is not None:
        assignment = np.empty((n_walks, max_n), dtype=np.int64)
        assignment[:] = base_assignment
        result = _native_walks_guarded(
            native_lib,
            n_tasks=n_walks,
            orders=orders,
            uniforms=uniforms,
            succ_indptr=packed.succ_indptr,
            succ_indices=packed.succ_indices,
            pred_indptr=packed.pred_indptr,
            pred_indices=packed.pred_indices,
            out_degree=packed.out_degree,
            in_degree=packed.in_degree,
            vertex_widths=packed.widths,
            tau=tau_pow,
            tau_index=tau_index,
            beta=beta,
            nd_width=nd_width,
            epsilon=epsilon,
            q0=q0,
            assignment=assignment,
            real=real,
            crossing=crossing,
            occupancy=occupancy,
            walk_steps=np.ascontiguousarray(steps),
            walk_vbase=np.ascontiguousarray(voff),
            walk_ibase=np.ascontiguousarray(packed.indptr_offset[walk_graph]),
            walk_layers=np.ascontiguousarray(layers_w),
        )
        if result is not None:
            return result

    return _lockstep_walks(
        succ_indptr=packed.succ_indptr,
        succ_indices=packed.succ_indices,
        pred_indptr=packed.pred_indptr,
        pred_indices=packed.pred_indices,
        widths=packed.widths,
        out_degree=packed.out_degree,
        in_degree=packed.in_degree,
        steps=steps,
        voff=voff,
        ibase=packed.indptr_offset[walk_graph],
        layers_w=layers_w,
        max_n=max_n,
        max_cols=max_cols,
        params=params,
        nd_width=nd_width,
        tau_pow=tau_pow,
        tau_index=tau_index,
        orders=orders,
        uniforms=uniforms,
        base_assignment=base_assignment,
        real=real,
        crossing=crossing,
        occupancy=occupancy,
    )


def _lockstep_walks(
    *,
    succ_indptr: np.ndarray,
    succ_indices: np.ndarray,
    pred_indptr: np.ndarray,
    pred_indices: np.ndarray,
    widths: np.ndarray,
    out_degree: np.ndarray,
    in_degree: np.ndarray,
    steps: np.ndarray,
    voff: np.ndarray,
    ibase: np.ndarray,
    layers_w: np.ndarray,
    max_n: int,
    max_cols: int,
    params: ACOParams,
    nd_width: float,
    tau_pow: np.ndarray,
    tau_index: np.ndarray,
    orders: np.ndarray,
    uniforms: np.ndarray | None,
    base_assignment: np.ndarray,
    real: np.ndarray,
    crossing: np.ndarray,
    occupancy: np.ndarray,
) -> np.ndarray:
    """The NumPy lockstep walk loop behind :func:`run_walks_packed`.

    The path for boxes without a C compiler (and for exponents the native
    kernel cannot replicate).  Per-walk ``steps``/``voff``/``ibase``/
    ``layers_w`` place each walk's graph inside the pack, the same
    per-walk arrays the C kernel takes.

    The adjacency is CSR-only: ``ibase[a]`` offsets walk ``a``'s vertices
    into the (possibly packed) ``indptr`` arrays, and the span bounds are
    segmented ``max``/``min`` reductions over the ragged neighbour gathers —
    O(V+E) state, no rectangular padded matrices at any point.
    """
    n_walks = orders.shape[0]
    beta = params.beta
    epsilon = params.eta_epsilon
    q0 = params.exploitation_probability
    explore_possible = q0 < 1.0

    assignment = np.empty((n_walks, max_n), dtype=np.int64)
    assignment[:] = base_assignment

    cols = np.arange(max_cols)

    for step in range(max_n):
        # Masked termination: only walks whose graph still has vertices to
        # place advance on this step.
        act = np.flatnonzero(steps > step)
        if act.size == 0:
            break
        rows = np.arange(act.size)
        v = orders[act, step]
        gv = voff[act] + v
        iv = ibase[act] + v
        current = assignment[act, v]
        # Span bounds from the CSR segments: segmented max over successors
        # (empty-segment identity: layer 0), segmented min over predecessors
        # (identity: this walk's n_layers + 1) — integer-exact, so identical
        # to any padded-gather formulation.
        lo = np.zeros(act.size, dtype=np.int64)
        owner, nbrs = _csr_gather(succ_indptr, succ_indices, iv)
        if owner.size:
            np.maximum.at(lo, owner, assignment[act[owner], nbrs])
        lo += 1
        hi = layers_w[act] + 1
        owner, nbrs = _csr_gather(pred_indptr, pred_indices, iv)
        if owner.size:
            np.minimum.at(hi, owner, assignment[act[owner], nbrs])
        hi -= 1
        wv = widths[gv]

        candidate = real[act] + nd_width * crossing[act]
        candidate += wv[:, None]
        candidate[rows, current] -= wv
        np.maximum(candidate, epsilon, out=candidate)
        eta = np.divide(1.0, candidate, out=candidate)

        scores = tau_pow[tau_index[act], v] * fused_pow(eta, beta)
        inside = (cols >= lo[:, None]) & (cols <= hi[:, None])
        scores = np.where(inside, scores, 0.0)

        best = scores.argmax(axis=1)
        m = scores[rows, best]
        valid = (m > 0.0) & (m != np.inf)

        new_layer = best
        if not explore_possible:
            if not valid.all():
                new_layer = np.where(valid, best, lo)
        else:
            u = uniforms[act, step]
            exploit = u < q0 if q0 > 0.0 else np.zeros(act.size, dtype=bool)
            explore = valid & ~exploit
            if explore.any():
                cumulative = np.cumsum(scores, axis=1)
                totals = cumulative[:, -1]
                targets = (u - q0) / (1.0 - q0) * totals
                for a in np.flatnonzero(explore):
                    total = totals[a]
                    if not np.isfinite(total) or total <= 0.0:
                        span = int(hi[a] - lo[a] + 1)
                        idx = int(u[a] * span)
                        idx = span - 1 if idx >= span else idx
                        new_layer[a] = lo[a] + idx
                    else:
                        picked = int(
                            np.searchsorted(cumulative[a], targets[a], side="right")
                        )
                        new_layer[a] = picked if picked <= hi[a] else hi[a]
            if not valid.all():
                for a in np.flatnonzero(~valid):
                    span = int(hi[a] - lo[a] + 1)
                    idx = int(u[a] * span)
                    idx = span - 1 if idx >= span else idx
                    new_layer[a] = lo[a] + idx

        moved = np.flatnonzero(new_layer != current)
        if len(moved):
            rows_m = act[moved]
            moved_v = v[moved]
            old = current[moved]
            new = new_layer[moved]
            w_moved = wv[moved]
            real[rows_m, old] -= w_moved
            real[rows_m, new] += w_moved
            occupancy[rows_m, old] -= 1
            occupancy[rows_m, new] += 1
            assignment[rows_m, moved_v] = new
            gv_moved = gv[moved]
            for r, vertex, old_l, new_l in zip(rows_m, gv_moved, old, new):
                outdeg = int(out_degree[vertex])
                indeg = int(in_degree[vertex])
                row = crossing[r]
                if new_l > old_l:
                    if outdeg:
                        row[old_l:new_l] += outdeg
                    if indeg:
                        row[old_l + 1 : new_l + 1] -= indeg
                else:
                    if indeg:
                        row[new_l + 1 : old_l + 1] += indeg
                    if outdeg:
                        row[new_l:old_l] -= outdeg

    return assignment
