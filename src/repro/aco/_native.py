"""Optional JIT-compiled native backend for the ACO walk kernels.

The NumPy lockstep kernel in :mod:`repro.aco.kernels` removes most of the
per-vertex interpreter overhead, but each construction step still pays a few
dozen NumPy dispatches.  This module compiles (once, with the system C
compiler, cached by content hash) a small C kernel that executes *all* walks
of a tour in a single call over the exact same flat arrays: CSR adjacency,
pre-powered pheromone matrix, pre-drawn vertex orders and uniforms.

The kernel is multithreaded over the *walk axis*: every walk owns its output
rows (assignment, real/crossing/occupancy) and consumes pre-drawn randomness,
so the walks are embarrassingly parallel and one process can saturate a
multi-core box without pickling anything.  The fan-out is plain pthreads:
every call creates its threads and joins them all before returning, so no
thread pool outlives a call and a later ``fork()`` is always safe (a
persistent OpenMP pool is not: its children deadlock).  Where pthreads do
not compile, the probe degrades to the single-threaded loop
(``thread_support()`` reports which one compiled in).  The worker count is
resolved per call by :func:`effective_threads` — explicit argument >
``REPRO_ACO_THREADS`` > ``os.cpu_count()`` — with the same canonical errors
as ``REPRO_JOBS``.

Bit-identity with the Python and NumPy engines is preserved by construction:

* the kernel is compiled with ``-ffp-contract=off`` so no FMA contraction
  reorders the float arithmetic;
* every float expression replicates the element-wise operation order of
  ``LayerWidths.eta`` / ``fused_pow`` (``((real + nd*crossing) + w_v)``,
  the current-layer correction, ``max(.., eps)``, reciprocal, decomposed
  small-integer powers);
* argmax is a first-maximum scan with NumPy's NaN-propagation semantics,
  the roulette cumulative sum is sequential, and the roulette pick is a
  ``searchsorted(..., side="right")``-equivalent upper-bound binary search;
* threading cannot break any of this: each walk writes only its own rows,
  reads only shared read-only inputs, and uses a per-chunk scratch slice,
  so the result is byte-identical at every thread count and under every
  partitioning.

The backend is *optional*: :func:`load_native` returns ``None`` when no C
compiler is available, compilation fails, or ``REPRO_ACO_NATIVE=0`` is set,
and the caller silently falls back to the NumPy lockstep kernel.  The
generic (non-integer) ``beta`` exponent is not replicated in C — callers
must check :func:`native_supports` first.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings

import numpy as np

from repro.utils.pool import effective_workers

__all__ = [
    "load_native",
    "native_supports",
    "run_walks_native",
    "native_status",
    "thread_support",
    "effective_threads",
    "REPRO_ACO_THREADS_ENV",
]

#: Small integer exponents whose decomposition the C kernel mirrors
#: (must stay in sync with kernels.fused_pow).
_SMALL_EXPONENTS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

#: Environment variable capping the native kernel's walk-axis thread count.
REPRO_ACO_THREADS_ENV = "REPRO_ACO_THREADS"

#: Hard ceiling on the walk-axis thread count (bounds the pthread handle
#: array in C and the per-thread scratch rows allocated by the wrapper; must
#: stay in sync with MAX_THREADS in _C_SOURCE).
_MAX_THREADS = 64

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#if defined(REPRO_THREADS_PTHREADS)
#include <pthread.h>
#endif

#define MAX_THREADS 64

/* Decomposed small-integer power; must mirror kernels.fused_pow exactly. */
static inline double pow_small(double x, int64_t mode)
{
    double sq;
    switch (mode) {
        case 0: return 1.0;
        case 1: return x;
        case 2: return x * x;
        case 3: return x * x * x;
        case 4: sq = x * x; return sq * sq;
        default: sq = x * x; return sq * sq * x;  /* mode 5 */
    }
}

/* numpy searchsorted(cum, target, side="right"): first index with
   cum[index] > target, i.e. the count of elements <= target. */
static inline int64_t upper_bound(const double *cum, int64_t k, double target)
{
    int64_t lo = 0, hi = k;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (cum[mid] <= target) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* The full read-only + per-walk-output argument set of one kernel call,
   bundled so the walk loop can run on any thread. */
typedef struct {
    int64_t n_vertices;
    int64_t n_cols;
    const int64_t *orders;
    const double *uniforms;
    const int64_t *succ_indptr;
    const int64_t *succ_indices;
    const int64_t *pred_indptr;
    const int64_t *pred_indices;
    const int64_t *out_degree;
    const int64_t *in_degree;
    const double *vertex_widths;
    const double *tau;
    const int64_t *tau_index;
    const int64_t *walk_steps;
    const int64_t *walk_vbase;
    const int64_t *walk_ibase;
    const int64_t *walk_layers;
    int64_t beta_mode;
    double nd_width;
    double epsilon;
    double q0;
    int64_t *assignment;
    double *real;
    int64_t *crossing;
    int64_t *occupancy;
} walk_args;

/* Run walks [start, end).  Each walk writes only its own rows and reads only
   shared read-only inputs, so ranges can run concurrently; *scores* is this
   range's private n_cols-double scratch. */
static void run_walk_range(const walk_args *wa, int64_t start, int64_t end,
                           double *scores)
{
    int64_t n_vertices = wa->n_vertices;
    int64_t n_cols = wa->n_cols;
    const int64_t *succ_indices = wa->succ_indices;
    const int64_t *pred_indices = wa->pred_indices;
    const double *vertex_widths = wa->vertex_widths;
    int64_t beta_mode = wa->beta_mode;
    double nd_width = wa->nd_width;
    double epsilon = wa->epsilon;
    double q0 = wa->q0;

    for (int64_t a = start; a < end; a++) {
        int64_t *asg = wa->assignment + a * n_vertices;
        double *re = wa->real + a * n_cols;
        int64_t *cr = wa->crossing + a * n_cols;
        int64_t *oc = wa->occupancy + a * n_cols;
        const int64_t *order = wa->orders + a * n_vertices;
        const double *u_row = wa->uniforms ? wa->uniforms + a * n_vertices : 0;
        const double *tau_mat = wa->tau + wa->tau_index[a] * n_vertices * n_cols;
        /* Cross-graph batching: each walk may belong to a different graph,
           named by per-walk base offsets into the packed (block-diagonal)
           arrays.  Walks shorter than the batch stride simply stop early
           (masked termination). */
        int64_t steps = wa->walk_steps[a];
        int64_t vbase = wa->walk_vbase[a];
        const int64_t *sip = wa->succ_indptr + wa->walk_ibase[a];
        const int64_t *pip = wa->pred_indptr + wa->walk_ibase[a];
        int64_t n_layers = wa->walk_layers[a];

        for (int64_t step = 0; step < steps; step++) {
            int64_t v = order[step];
            int64_t current = asg[v];

            /* Feasible span [lo, hi] from the CSR adjacency. */
            int64_t lo = 1, hi = n_layers;
            for (int64_t e = sip[v]; e < sip[v + 1]; e++) {
                int64_t lw = asg[succ_indices[e]];
                if (lw + 1 > lo) lo = lw + 1;
            }
            for (int64_t e = pip[v]; e < pip[v + 1]; e++) {
                int64_t lu = asg[pred_indices[e]];
                if (lu - 1 < hi) hi = lu - 1;
            }

            int64_t chosen;
            if (lo == hi) {
                chosen = lo;
            } else {
                double wv = vertex_widths[vbase + v];
                const double *tau_row = tau_mat + v * n_cols;
                int64_t k = hi - lo + 1;

                /* scores[l - lo] = tau^alpha[l] * eta[l]^beta, with the exact
                   element-wise operation order of LayerWidths.eta and
                   fused_pow. */
                for (int64_t l = lo; l <= hi; l++) {
                    double w = (re[l] + nd_width * (double)cr[l]) + wv;
                    if (l == current) w -= wv;
                    if (!(w > epsilon)) w = epsilon;   /* np.maximum(w, eps) */
                    double eta = 1.0 / w;
                    scores[l - lo] = tau_row[l] * pow_small(eta, beta_mode);
                }

                /* First-maximum argmax with NumPy's NaN propagation. */
                int64_t best = 0;
                for (int64_t i = 0; i < k; i++) {
                    if (isnan(scores[i])) { best = i; break; }
                    if (scores[i] > scores[best]) best = i;
                }
                double m = scores[best];

                if (!(m > 0.0) || m == INFINITY) {
                    if (!u_row) {
                        chosen = lo;  /* deterministic pure-argmax fallback */
                    } else {
                        int64_t idx = (int64_t)(u_row[step] * (double)k);
                        if (idx >= k) idx = k - 1;
                        chosen = lo + idx;
                    }
                } else if (q0 >= 1.0 || (q0 > 0.0 && u_row[step] < q0)) {
                    chosen = lo + best;
                } else {
                    /* Roulette: sequential cumulative sum + upper bound. */
                    double acc = 0.0;
                    for (int64_t i = 0; i < k; i++) {
                        acc += scores[i];
                        scores[i] = acc;
                    }
                    double total = scores[k - 1];
                    if (!isfinite(total) || total <= 0.0) {
                        int64_t idx = (int64_t)(u_row[step] * (double)k);
                        if (idx >= k) idx = k - 1;
                        chosen = lo + idx;
                    } else {
                        double t = (u_row[step] - q0) / (1.0 - q0);
                        int64_t idx = upper_bound(scores, k, t * total);
                        if (idx >= k) idx = k - 1;
                        chosen = lo + idx;
                    }
                }
            }

            if (chosen != current) {
                /* Algorithm 5 incremental width update (same op order as
                   LayerWidths.apply_move). */
                double wv = vertex_widths[vbase + v];
                re[current] -= wv;
                re[chosen] += wv;
                oc[current] -= 1;
                oc[chosen] += 1;
                int64_t outdeg = wa->out_degree[vbase + v];
                int64_t indeg = wa->in_degree[vbase + v];
                if (chosen > current) {
                    if (outdeg)
                        for (int64_t l = current; l < chosen; l++) cr[l] += outdeg;
                    if (indeg)
                        for (int64_t l = current + 1; l <= chosen; l++) cr[l] -= indeg;
                } else {
                    if (indeg)
                        for (int64_t l = chosen + 1; l <= current; l++) cr[l] += indeg;
                    if (outdeg)
                        for (int64_t l = chosen; l < current; l++) cr[l] -= outdeg;
                }
                asg[v] = chosen;
            }
        }
    }
}

/* Which threading flavour this build carries: 1 = pthreads,
   0 = single-threaded fallback. */
int64_t thread_support(void)
{
#if defined(REPRO_THREADS_PTHREADS)
    return 1;
#else
    return 0;
#endif
}

#if defined(REPRO_THREADS_PTHREADS)
typedef struct {
    const walk_args *wa;
    int64_t start;
    int64_t end;
    double *scores;
} walk_task;

static void *run_walk_task(void *arg)
{
    walk_task *task = (walk_task *)arg;
    run_walk_range(task->wa, task->start, task->end, task->scores);
    return 0;
}
#endif

void run_walks(
    int64_t n_ants,
    int64_t n_vertices,             /* walk-row stride (max vertices over the batch) */
    int64_t n_cols,                 /* layer-row stride: max n_layers + 1 (column 0 unused) */
    int64_t n_threads,              /* walk-axis workers, clamped to [1, min(n_ants, MAX_THREADS)] */
    const int64_t *orders,          /* n_ants x n_vertices */
    const double *uniforms,         /* n_ants x n_vertices, or NULL */
    const int64_t *succ_indptr,     /* CSR adjacency: the only neighbour representation */
    const int64_t *succ_indices,
    const int64_t *pred_indptr,
    const int64_t *pred_indices,
    const int64_t *out_degree,
    const int64_t *in_degree,
    const double *vertex_widths,
    const double *tau,              /* n_matrices x n_vertices x n_cols, pre-powered by alpha */
    const int64_t *tau_index,       /* n_ants: which tau matrix each walk reads */
    const int64_t *walk_steps,      /* n_ants: construction steps per walk */
    const int64_t *walk_vbase,      /* n_ants: per-walk offset into degree/width arrays */
    const int64_t *walk_ibase,      /* n_ants: per-walk offset into the CSR indptr arrays */
    const int64_t *walk_layers,     /* n_ants: per-walk layer count */
    int64_t beta_mode,              /* 0..5: decomposed integer exponent */
    double nd_width,
    double epsilon,
    double q0,
    int64_t *assignment,            /* n_ants x n_vertices, in/out */
    double *real,                   /* n_ants x n_cols, in/out */
    int64_t *crossing,              /* n_ants x n_cols, in/out */
    int64_t *occupancy,             /* n_ants x n_cols, in/out */
    double *scores)                 /* scratch, n_threads x n_cols doubles */
{
    walk_args wa = {
        n_vertices, n_cols, orders, uniforms,
        succ_indptr, succ_indices, pred_indptr, pred_indices,
        out_degree, in_degree, vertex_widths, tau, tau_index,
        walk_steps, walk_vbase, walk_ibase, walk_layers,
        beta_mode, nd_width, epsilon, q0,
        assignment, real, crossing, occupancy,
    };
    if (n_threads < 1) n_threads = 1;
    if (n_threads > n_ants) n_threads = n_ants;
    if (n_threads > MAX_THREADS) n_threads = MAX_THREADS;

#if defined(REPRO_THREADS_PTHREADS)
    if (n_threads > 1) {
        /* Static chunking over walk indices; chunk t owns scratch slice t.
           Every spawned thread is joined before returning. */
        pthread_t handles[MAX_THREADS];
        walk_task tasks[MAX_THREADS];
        int started[MAX_THREADS];
        for (int64_t t = 1; t < n_threads; t++) {
            tasks[t].wa = &wa;
            tasks[t].start = t * n_ants / n_threads;
            tasks[t].end = (t + 1) * n_ants / n_threads;
            tasks[t].scores = scores + t * n_cols;
            started[t] = pthread_create(&handles[t], 0, run_walk_task, &tasks[t]) == 0;
            if (!started[t])  /* spawn failed: run this chunk inline */
                run_walk_range(tasks[t].wa, tasks[t].start, tasks[t].end, tasks[t].scores);
        }
        run_walk_range(&wa, 0, n_ants / n_threads, scores);
        for (int64_t t = 1; t < n_threads; t++)
            if (started[t]) pthread_join(handles[t], 0);
        return;
    }
#endif
    run_walk_range(&wa, 0, n_ants, scores);
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

#: Compile-flag variants probed in preference order: the pthread fan-out,
#: then the single-threaded fallback.  The first variant that compiles (or
#: is already cached) wins.
_THREAD_VARIANTS = (
    ["-pthread", "-DREPRO_THREADS_PTHREADS"],
    [],
)

_lib: ctypes.CDLL | None = None
_load_attempted = False
_status = "not loaded"


def _cache_dir() -> str:
    """Directory for the compiled kernel cache.

    ``REPRO_ACO_NATIVE_CACHE`` (explicit override) wins over
    ``XDG_CACHE_HOME`` wins over ``~/.cache``.
    """
    override = os.environ.get("REPRO_ACO_NATIVE_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-aco-native")


def _compile_variant(compiler: str, flags: list[str]) -> str | None:
    """Compile one flag variant into a content-addressed cached shared object."""
    digest = hashlib.sha256(
        (_C_SOURCE + " ".join(flags) + compiler).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"aco_kernel_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "kernel.c")
            out = os.path.join(tmp, "kernel.so")
            with open(src, "w") as fh:
                fh.write(_C_SOURCE)
            subprocess.run(
                [compiler, *flags, src, "-o", out, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(out, lib_path)  # atomic: concurrent builders converge
    except (OSError, subprocess.SubprocessError):
        return None
    return lib_path


def _compile_library() -> str | None:
    """Compile the kernel, preferring pthreads, then serial."""
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    for variant in _THREAD_VARIANTS:
        path = _compile_variant(compiler, [*_CFLAGS, *variant])
        if path is not None:
            return path
    return None


_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


def load_native() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable/disabled."""
    global _lib, _load_attempted, _status
    if os.environ.get("REPRO_ACO_NATIVE", "1") == "0":
        _status = "disabled via REPRO_ACO_NATIVE=0"
        return None
    if _load_attempted:
        return _lib
    _load_attempted = True
    path = _compile_library()
    if path is None:
        _status = "no C compiler or compilation failed"
        # One warning per process, never a retry: _load_attempted keeps every
        # later call on the cached NumPy fallback without re-running the
        # compiler probe.
        warnings.warn(
            "native ACO kernel unavailable (no C compiler, or compilation "
            "failed); falling back to the NumPy lockstep kernel.  Set "
            "REPRO_ACO_NATIVE=0 to silence this warning.",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    try:
        lib = ctypes.CDLL(path)
        lib.run_walks.restype = None
        lib.run_walks.argtypes = [
            ctypes.c_int64,  # n_ants
            ctypes.c_int64,  # n_vertices
            ctypes.c_int64,  # n_cols
            ctypes.c_int64,  # n_threads
            _I64,  # orders
            ctypes.c_void_p,  # uniforms (nullable)
            _I64,  # succ_indptr
            _I64,  # succ_indices
            _I64,  # pred_indptr
            _I64,  # pred_indices
            _I64,  # out_degree
            _I64,  # in_degree
            _F64,  # vertex_widths
            _F64,  # tau (stack of matrices)
            _I64,  # tau_index
            _I64,  # walk_steps
            _I64,  # walk_vbase
            _I64,  # walk_ibase
            _I64,  # walk_layers
            ctypes.c_int64,  # beta_mode
            ctypes.c_double,  # nd_width
            ctypes.c_double,  # epsilon
            ctypes.c_double,  # q0
            _I64,  # assignment
            _F64,  # real
            _I64,  # crossing
            _I64,  # occupancy
            _F64,  # scores scratch (n_threads rows)
        ]
        lib.thread_support.restype = ctypes.c_int64
        lib.thread_support.argtypes = []
    except OSError:
        _status = "failed to load compiled library"
        return None
    _lib = lib
    _status = f"loaded ({path}, threads: {_thread_mode(lib)})"
    return _lib


def _thread_mode(lib: ctypes.CDLL) -> str:
    return "pthreads" if int(lib.thread_support()) == 1 else "none"


def native_status() -> str:
    """Human-readable state of the native backend (for diagnostics)."""
    return _status


def thread_support() -> str:
    """Threading flavour of the loaded kernel.

    ``"pthreads"`` when the compile probe found thread support, ``"none"``
    when only the single-threaded kernel compiled, and
    ``"unavailable"`` when there is no native kernel at all (no compiler, or
    ``REPRO_ACO_NATIVE=0``).
    """
    lib = load_native()
    if lib is None:
        return "unavailable"
    return _thread_mode(lib)


def effective_threads(requested: int | None = None, n_tasks: int | None = None) -> int:
    """Resolve the native kernel's walk-axis thread count.

    The same resolution ladder as :func:`repro.utils.pool.effective_workers`
    — an explicit *requested* value wins, then the ``REPRO_ACO_THREADS``
    environment variable, then ``os.cpu_count()`` — with the same canonical
    :class:`~repro.utils.exceptions.ValidationError` for non-integer or
    sub-1 values.  The result is clamped to *n_tasks* (one thread per walk
    at most) and to the kernel's hard thread ceiling.
    """
    workers = effective_workers(requested, n_tasks, env_var=REPRO_ACO_THREADS_ENV)
    return min(workers, _MAX_THREADS)


def native_supports(beta: float) -> bool:
    """Whether the C kernel replicates this ``beta`` exponent bit-exactly."""
    return beta in _SMALL_EXPONENTS


def run_walks_native(
    lib: ctypes.CDLL,
    *,
    n_threads: int,
    orders: np.ndarray,
    uniforms: np.ndarray | None,
    succ_indptr: np.ndarray,
    succ_indices: np.ndarray,
    pred_indptr: np.ndarray,
    pred_indices: np.ndarray,
    out_degree: np.ndarray,
    in_degree: np.ndarray,
    vertex_widths: np.ndarray,
    tau: np.ndarray,
    tau_index: np.ndarray,
    beta: float,
    nd_width: float,
    epsilon: float,
    q0: float,
    assignment: np.ndarray,
    real: np.ndarray,
    crossing: np.ndarray,
    occupancy: np.ndarray,
    walk_steps: np.ndarray,
    walk_vbase: np.ndarray,
    walk_ibase: np.ndarray,
    walk_layers: np.ndarray,
) -> None:
    """Run all walks of one tour in C, mutating the per-ant state in place.

    *tau* is a contiguous stack of one or more pre-powered pheromone matrices
    (``(n_matrices, n_vertices, n_cols)``); ``tau_index[a]`` names the matrix
    walk *a* reads, which is what lets one call sweep the ants of several
    independent colonies in lockstep.  The ``walk_*`` arrays extend the
    same indirection across *graphs*: per-walk step counts, offsets into
    the packed degree/width and CSR ``indptr`` arrays, and per-walk layer
    counts (see :class:`repro.aco.problem.PackedProblems`).

    *n_threads* fans the walk loop out over that many OS threads (resolved
    by :func:`effective_threads`); the result is byte-identical at any
    count because walks own their output rows and consume pre-drawn
    randomness.
    """
    n_ants, n_vertices = orders.shape
    n_cols = real.shape[1]
    n_threads = max(1, min(int(n_threads), n_ants, _MAX_THREADS))
    scratch = np.empty((n_threads, n_cols), dtype=np.float64)

    uniforms_ptr = (
        None
        if uniforms is None
        else uniforms.ctypes.data_as(ctypes.c_void_p)
    )
    lib.run_walks(
        n_ants,
        n_vertices,
        n_cols,
        n_threads,
        orders,
        uniforms_ptr,
        succ_indptr,
        succ_indices,
        pred_indptr,
        pred_indices,
        out_degree,
        in_degree,
        vertex_widths,
        tau.reshape(-1, n_cols),
        tau_index,
        walk_steps,
        walk_vbase,
        walk_ibase,
        walk_layers,
        int(beta),
        nd_width,
        epsilon,
        q0,
        assignment,
        real,
        crossing,
        occupancy,
        scratch,
    )
