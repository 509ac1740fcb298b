"""Tests for the vectorized ACO kernels and python/vectorized engine equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aco import _native
from repro.aco.colony import AntColony
from repro.aco.heuristic import evaluate_assignment
from repro.aco.kernels import (
    draw_walk_randomness,
    evaluate_assignment_vectorized,
    fused_pow,
    select_from_scores,
)
from repro.aco.params import ACOParams, SELECTION_RULES, VERTEX_ORDERS
from repro.aco.problem import LayeringProblem
from repro.graph.generators import att_like_dag, gnp_dag
from repro.utils.rng import as_generator


def run_engine(graph, params, engine):
    problem = LayeringProblem.from_graph(graph, nd_width=params.nd_width)
    return AntColony(problem, params.replace(engine=engine)).run()


def assert_bit_identical(result_a, result_b):
    """The two colony results must agree exactly, down to the last float bit."""
    assert np.array_equal(result_a.best.assignment, result_b.best.assignment)
    assert result_a.best.objective == result_b.best.objective
    assert result_a.best.score == result_b.best.score
    assert result_a.best.ant_id == result_b.best.ant_id
    assert len(result_a.history) == len(result_b.history)
    for rec_a, rec_b in zip(result_a.history, result_b.history):
        assert rec_a == rec_b  # frozen dataclass: exact field-wise equality


class TestEngineEquivalence:
    """The acceptance matrix: both engines, every order and selection rule."""

    @pytest.mark.parametrize("vertex_order", VERTEX_ORDERS)
    @pytest.mark.parametrize("selection", SELECTION_RULES)
    def test_order_selection_matrix(self, vertex_order, selection):
        graph = att_like_dag(35, seed=3)
        params = ACOParams(
            n_ants=4,
            n_tours=4,
            seed=17,
            vertex_order=vertex_order,
            selection=selection,
        )
        assert_bit_identical(
            run_engine(graph, params, "python"),
            run_engine(graph, params, "vectorized"),
        )

    @pytest.mark.parametrize("q0", [0.0, 0.3, 0.7, 1.0])
    def test_mixed_exploitation(self, q0):
        graph = att_like_dag(30, seed=4)
        params = ACOParams(n_ants=3, n_tours=3, seed=5, q0=q0)
        assert_bit_identical(
            run_engine(graph, params, "python"),
            run_engine(graph, params, "vectorized"),
        )

    @pytest.mark.parametrize(
        "alpha,beta",
        [(1.0, 3.0), (3.0, 5.0), (0.0, 0.0), (2.0, 4.0), (2.5, 1.7)],
    )
    def test_exponent_grid(self, alpha, beta):
        # 2.5/1.7 exercises the generic np.power path (and the NumPy
        # fallback of the vectorized engine, which cannot use the native
        # kernel for non-integer beta).
        graph = att_like_dag(30, seed=6)
        params = ACOParams(n_ants=3, n_tours=3, seed=11, alpha=alpha, beta=beta)
        assert_bit_identical(
            run_engine(graph, params, "python"),
            run_engine(graph, params, "vectorized"),
        )

    def test_nd_width_variants(self):
        graph = att_like_dag(25, seed=7)
        for nd_width in (0.0, 0.5, 1.1):
            params = ACOParams(n_ants=3, n_tours=3, seed=2, nd_width=nd_width)
            assert_bit_identical(
                run_engine(graph, params, "python"),
                run_engine(graph, params, "vectorized"),
            )

    def test_numpy_fallback_equivalent(self, monkeypatch):
        # Force the vectorized engine onto its pure-NumPy lockstep path.
        monkeypatch.setenv("REPRO_ACO_NATIVE", "0")
        graph = att_like_dag(30, seed=8)
        for selection in SELECTION_RULES:
            params = ACOParams(n_ants=3, n_tours=3, seed=23, selection=selection)
            assert_bit_identical(
                run_engine(graph, params, "python"),
                run_engine(graph, params, "vectorized"),
            )

    def test_edgeless_graph(self):
        graph = gnp_dag(12, 0.0, seed=0)
        params = ACOParams(n_ants=2, n_tours=2, seed=1)
        assert_bit_identical(
            run_engine(graph, params, "python"),
            run_engine(graph, params, "vectorized"),
        )

    def test_incremental_widths_stay_consistent(self, monkeypatch):
        # The reference loop reuses the tour-best ant's LayerWidths between
        # tours; the debug flag (read only by that loop) cross-checks them
        # against a fresh recomputation.
        monkeypatch.setenv("REPRO_ACO_DEBUG_WIDTHS", "1")
        graph = att_like_dag(30, seed=9)
        run_engine(graph, ACOParams(n_ants=3, n_tours=4, seed=3), "python")


class TestFusedPow:
    def test_small_integer_exponents_match_reference_semantics(self):
        x = np.abs(np.random.default_rng(0).normal(size=100)) + 0.1
        assert np.array_equal(fused_pow(x, 0.0), np.ones_like(x))
        assert fused_pow(x, 1.0) is x
        assert np.array_equal(fused_pow(x, 2.0), x * x)
        assert np.array_equal(fused_pow(x, 3.0), x * x * x)
        assert np.array_equal(fused_pow(x, 4.0), (x * x) * (x * x))
        assert np.array_equal(fused_pow(x, 5.0), (x * x) * (x * x) * x)

    def test_generic_exponent_uses_power(self):
        x = np.linspace(0.1, 2.0, 50)
        assert np.array_equal(fused_pow(x, 2.5), np.power(x, 2.5))

    def test_close_to_np_power(self):
        x = np.linspace(0.1, 3.0, 100)
        for e in (2.0, 3.0, 4.0, 5.0):
            np.testing.assert_allclose(fused_pow(x, e), np.power(x, e), rtol=1e-14)


class TestSelectFromScores:
    def test_argmax_mode_picks_best(self):
        scores = np.array([0.1, 0.9, 0.4])
        assert select_from_scores(scores, 3, 1.0, None) == 1

    def test_degenerate_scores_fall_back(self):
        zeros = np.zeros(4)
        assert select_from_scores(zeros, 4, 1.0, None) == 0
        assert select_from_scores(zeros, 4, 0.0, 0.99) == 3
        assert select_from_scores(zeros, 4, 0.0, 0.0) == 0

    def test_roulette_respects_distribution_bounds(self):
        scores = np.array([1.0, 2.0, 1.0])
        for u in (0.0, 0.2, 0.5, 0.9, 0.999999):
            idx = select_from_scores(scores, 3, 0.0, u)
            assert 0 <= idx <= 2

    def test_roulette_boundaries(self):
        scores = np.array([1.0, 0.0, 3.0])
        # cumulative = [1, 1, 4]; target = u * 4
        assert select_from_scores(scores, 3, 0.0, 0.0) == 0
        assert select_from_scores(scores, 3, 0.0, 0.5) == 2

    def test_exploit_probability_blend(self):
        scores = np.array([1.0, 5.0, 1.0])
        # u below q0 -> exploit (argmax); u above -> roulette on rescaled u.
        assert select_from_scores(scores, 3, 0.5, 0.4) == 1
        idx = select_from_scores(scores, 3, 0.5, 0.95)
        assert 0 <= idx <= 2


class TestCsrArrays:
    @pytest.fixture(scope="class")
    def problem(self):
        return LayeringProblem.from_graph(att_like_dag(40, seed=5))

    def test_csr_matches_adjacency_lists(self, problem):
        for v in range(problem.n_vertices):
            succ = problem.succ_indices[
                problem.succ_indptr[v] : problem.succ_indptr[v + 1]
            ]
            pred = problem.pred_indices[
                problem.pred_indptr[v] : problem.pred_indptr[v + 1]
            ]
            assert succ.tolist() == problem.succ[v]
            assert pred.tolist() == problem.pred[v]

    def test_flat_edges_cover_graph(self, problem):
        edges = set(zip(problem.edge_src.tolist(), problem.edge_dst.tolist()))
        expected = {
            (v, w) for v in range(problem.n_vertices) for w in problem.succ[v]
        }
        assert edges == expected
        assert len(problem.edge_src) == problem.graph.n_edges


class TestDrawWalkRandomness:
    def test_argmax_mode_draws_no_uniforms(self):
        problem = LayeringProblem.from_graph(att_like_dag(20, seed=1))
        params = ACOParams()  # argmax => q0 == 1
        rng_a, rng_b = as_generator(3), as_generator(3)
        order, u = draw_walk_randomness(problem, params, rng_a)
        assert u is None
        # The stream advanced exactly as much as one permutation draw.
        assert np.array_equal(order, rng_b.permutation(problem.n_vertices))
        assert rng_a.random() == rng_b.random()

    def test_roulette_mode_draws_one_uniform_per_vertex(self):
        problem = LayeringProblem.from_graph(att_like_dag(20, seed=1))
        params = ACOParams(selection="roulette")
        order, u = draw_walk_randomness(problem, params, as_generator(3))
        assert u is not None and u.shape == (problem.n_vertices,)
        assert np.all((0.0 <= u) & (u < 1.0))


class TestEvaluateAssignmentVectorized:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed):
        graph = att_like_dag(30, seed=seed)
        problem = LayeringProblem.from_graph(graph)
        rng = as_generator(seed + 50)
        assignment = problem.initial_assignment.copy()
        # Scramble with random feasible moves.
        for _ in range(100):
            v = int(rng.integers(0, problem.n_vertices))
            lo, hi = problem.layer_span(assignment, v)
            assignment[v] = int(rng.integers(lo, hi + 1))
        fast = evaluate_assignment_vectorized(problem, assignment)
        slow = evaluate_assignment(problem, assignment)
        assert fast.height == slow.height
        assert fast.dummy_vertex_count == slow.dummy_vertex_count
        assert fast.width_including_dummies == pytest.approx(slow.width_including_dummies)
        assert fast.objective == pytest.approx(slow.objective)

    def test_nd_width_zero(self):
        graph = att_like_dag(20, seed=2)
        problem = LayeringProblem.from_graph(graph, nd_width=0.0)
        fast = evaluate_assignment_vectorized(problem, problem.initial_assignment)
        slow = evaluate_assignment(problem, problem.initial_assignment)
        assert fast.width_including_dummies == pytest.approx(slow.width_including_dummies)
        assert fast.dummy_vertex_count == slow.dummy_vertex_count


class TestThreadedBitIdentity:
    """Thread counts {1, 2, 4} × native on/off × batched/packed.

    The walk axis is embarrassingly parallel — every walk owns its output
    rows and consumes pre-drawn randomness — so any thread count must be
    *byte-identical* to the single-threaded serial reference.
    """

    PARAMS = ACOParams(n_ants=6, n_tours=3, seed=13, q0=0.5)

    @staticmethod
    def _require_thread_support(native: bool, threads: int):
        if native and threads > 1 and _native.thread_support() != "pthreads":
            pytest.skip("native kernel compiled without thread support")

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    def test_batched_walks_match_python_reference(self, monkeypatch, threads, native):
        self._require_thread_support(native, threads)
        if not native:
            monkeypatch.setenv("REPRO_ACO_NATIVE", "0")
        monkeypatch.setenv("REPRO_ACO_THREADS", str(threads))
        graph = att_like_dag(40, seed=21)
        assert_bit_identical(
            run_engine(graph, self.PARAMS, "python"),
            run_engine(graph, self.PARAMS, "vectorized"),
        )

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    def test_packed_walks_match_serial_reference(self, monkeypatch, threads, native):
        self._require_thread_support(native, threads)
        from repro.aco.problem import PackedProblems
        from repro.aco.runtime import run_packed_colonies

        problems = [
            LayeringProblem.from_graph(att_like_dag(n, seed=s))
            for n, s in ((14, 31), (26, 32), (9, 33))
        ]
        seeds = [[5], [7, 8], [9]]
        if not native:
            monkeypatch.setenv("REPRO_ACO_NATIVE", "0")
        monkeypatch.setenv("REPRO_ACO_THREADS", str(threads))
        outcomes = run_packed_colonies(
            PackedProblems.pack(problems), self.PARAMS, seeds
        )
        oracle = self.PARAMS.replace(engine="python")
        for problem, graph_seeds, got in zip(problems, seeds, outcomes):
            for seed, mine in zip(graph_seeds, got):
                ref = AntColony(problem, oracle.replace(seed=seed)).run()
                assert mine.score == ref.best.score
                assert np.array_equal(mine.assignment, ref.best.assignment)

    def test_invalid_thread_env_raises_canonical_error(self, monkeypatch):
        from repro.utils.exceptions import ValidationError

        monkeypatch.setenv("REPRO_ACO_THREADS", "lots")
        with pytest.raises(ValidationError, match="REPRO_ACO_THREADS must be an integer"):
            _native.effective_threads()
        monkeypatch.setenv("REPRO_ACO_THREADS", "0")
        with pytest.raises(ValidationError, match="REPRO_ACO_THREADS must be >= 1"):
            _native.effective_threads()

    def test_explicit_request_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACO_THREADS", "2")
        assert _native.effective_threads(3) == 3
        assert _native.effective_threads(None) == 2
        # Clamped to the task count, like effective_workers.
        assert _native.effective_threads(None, n_tasks=1) == 1


class TestNativeBackend:
    def test_status_is_reported(self):
        _native.load_native()
        assert isinstance(_native.native_status(), str)

    def test_thread_support_is_reported(self):
        assert _native.thread_support() in ("pthreads", "none", "unavailable")

    def test_supports_small_integer_exponents_only(self):
        for beta in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
            assert _native.native_supports(beta)
        assert not _native.native_supports(2.5)
        assert not _native.native_supports(6.0)

    def test_engine_param_validated(self):
        from repro.utils.exceptions import ValidationError

        with pytest.raises(ValidationError):
            ACOParams(engine="gpu")
