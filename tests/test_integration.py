"""Cross-module integration tests: every algorithm, end to end, on shared graphs."""

from __future__ import annotations

import pytest

from repro import (
    ACOParams,
    aco_layering,
    coffman_graham_layering,
    evaluate_layering,
    longest_path_layering,
    make_proper,
    minimum_dummy_layering,
    minwidth_layering_sweep,
    promote_layering,
    sugiyama_layout,
)
from repro.aco.parallel import parallel_aco_layering
from repro.graph.generators import att_like_dag, gnp_dag, series_parallel_dag
from repro.layering.metrics import dummy_vertex_count, total_edge_span

FAST = ACOParams(n_ants=3, n_tours=3, seed=0)


def all_algorithms():
    return {
        "LPL": longest_path_layering,
        "LPL+PL": lambda g: promote_layering(g, longest_path_layering(g)),
        "MinWidth": minwidth_layering_sweep,
        "MinWidth+PL": lambda g: promote_layering(g, minwidth_layering_sweep(g)),
        "CoffmanGraham": lambda g: coffman_graham_layering(g, 4),
        "MinDummy": minimum_dummy_layering,
        "AntColony": lambda g: aco_layering(g, FAST),
    }


GRAPHS = [
    att_like_dag(20, seed=0),
    att_like_dag(45, seed=1),
    gnp_dag(25, 0.12, seed=2),
    series_parallel_dag(25, seed=3),
]


class TestAllAlgorithmsOnSharedGraphs:
    @pytest.mark.parametrize("graph_index", range(len(GRAPHS)))
    def test_all_layerings_valid(self, graph_index):
        g = GRAPHS[graph_index]
        for name, algorithm in all_algorithms().items():
            layering = algorithm(g)
            layering.validate(g)
            metrics = evaluate_layering(g, layering)
            assert metrics.height >= 1
            assert metrics.width_including_dummies >= 1

    @pytest.mark.parametrize("graph_index", range(len(GRAPHS)))
    def test_lpl_has_minimum_height(self, graph_index):
        g = GRAPHS[graph_index]
        algorithms = all_algorithms()
        lpl_height = algorithms["LPL"](g).height
        for name, algorithm in algorithms.items():
            assert algorithm(g).height >= lpl_height

    @pytest.mark.parametrize("graph_index", range(len(GRAPHS)))
    def test_min_dummy_truly_minimises_span(self, graph_index):
        g = GRAPHS[graph_index]
        algorithms = all_algorithms()
        optimal_span = total_edge_span(g, algorithms["MinDummy"](g))
        for name, algorithm in algorithms.items():
            assert total_edge_span(g, algorithm(g)) >= optimal_span

    def test_promotion_improves_or_preserves_dummies_everywhere(self):
        for g in GRAPHS:
            lpl = longest_path_layering(g)
            assert dummy_vertex_count(g, promote_layering(g, lpl)) <= dummy_vertex_count(g, lpl)


class TestAcoAgainstBaselines:
    def test_aco_objective_at_least_lpl(self):
        for g in GRAPHS:
            aco_metrics = evaluate_layering(g, aco_layering(g, FAST))
            lpl_metrics = evaluate_layering(g, longest_path_layering(g))
            assert aco_metrics.objective >= lpl_metrics.objective - 1e-12

    def test_parallel_colonies_at_least_single(self):
        g = att_like_dag(25, seed=5)
        single = evaluate_layering(g, aco_layering(g, FAST)).objective
        multi = parallel_aco_layering(g, FAST, n_colonies=3).objective
        assert multi >= single - 1e-12


class TestDrawingPipelineIntegration:
    def test_pipeline_with_every_named_method(self):
        g = att_like_dag(22, seed=6)
        for method in ("lpl", "lpl+pl", "minwidth", "minwidth+pl", "min-dummy"):
            drawing = sugiyama_layout(g, layering_method=method)
            assert drawing.proper.layering.is_proper(drawing.proper.graph)

    def test_proper_graph_consistency(self):
        g = att_like_dag(30, seed=7)
        layering = aco_layering(g, FAST)
        proper = make_proper(g, layering)
        assert proper.n_dummies == dummy_vertex_count(g, layering)
        assert proper.layering.is_proper(proper.graph)
