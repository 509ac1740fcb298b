"""Tests for the random/structured DAG generators."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.datasets.corpus import att_like_corpus
from repro.graph.acyclicity import is_acyclic, longest_path_lengths
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    att_like_dag,
    complete_layered_dag,
    gnp_dag,
    layered_random_dag,
    longest_path_dag,
    random_binary_tree_dag,
    random_tree_dag,
    series_parallel_dag,
)
from repro.utils.exceptions import ValidationError


def assert_valid_dag(g: DiGraph, n: int) -> None:
    assert g.n_vertices == n
    assert is_acyclic(g)


class TestGnpDag:
    def test_basic_properties(self):
        g = gnp_dag(25, 0.2, seed=0)
        assert_valid_dag(g, 25)

    def test_p_zero_has_no_edges(self):
        assert gnp_dag(10, 0.0, seed=0).n_edges == 0

    def test_p_one_is_complete_dag(self):
        g = gnp_dag(6, 1.0, seed=0)
        assert g.n_edges == 6 * 5 // 2

    def test_deterministic(self):
        a, b = gnp_dag(20, 0.3, seed=7), gnp_dag(20, 0.3, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a, b = gnp_dag(20, 0.3, seed=1), gnp_dag(20, 0.3, seed=2)
        assert a != b

    def test_single_vertex(self):
        g = gnp_dag(1, 0.5, seed=0)
        assert g.n_vertices == 1 and g.n_edges == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            gnp_dag(0, 0.5)
        with pytest.raises(ValidationError):
            gnp_dag(5, 1.5)


class TestLayeredRandomDag:
    def test_structure(self):
        g = layered_random_dag(4, 5, 0.5, seed=1)
        assert_valid_dag(g, 20)

    def test_max_span_limits_path_length(self):
        g = layered_random_dag(5, 3, 1.0, max_span=1, seed=0)
        # with full probability and span 1, longest path covers all layers
        dist = longest_path_lengths(g)
        assert max(dist.values()) == 4

    def test_invalid(self):
        with pytest.raises(ValidationError):
            layered_random_dag(0, 3, 0.5)
        with pytest.raises(ValidationError):
            layered_random_dag(3, 3, 2.0)
        with pytest.raises(ValidationError):
            layered_random_dag(3, 3, 0.5, max_span=0)


class TestTrees:
    def test_random_tree_is_tree(self):
        g = random_tree_dag(30, seed=4)
        assert_valid_dag(g, 30)
        assert g.n_edges == 29
        assert len(g.sources()) == 1

    def test_max_children_respected(self):
        g = random_tree_dag(40, max_children=2, seed=1)
        assert all(g.out_degree(v) <= 2 for v in g.vertices())

    def test_random_tree_invalid(self):
        with pytest.raises(ValidationError):
            random_tree_dag(5, max_children=0)

    def test_binary_tree(self):
        g = random_binary_tree_dag(3)
        assert g.n_vertices == 15
        assert g.n_edges == 14
        assert g.out_degree(0) == 2

    def test_binary_tree_depth_zero(self):
        g = random_binary_tree_dag(0)
        assert g.n_vertices == 1 and g.n_edges == 0

    def test_binary_tree_negative_depth(self):
        with pytest.raises(ValidationError):
            random_binary_tree_dag(-1)


class TestSeriesParallel:
    def test_two_terminal(self):
        g = series_parallel_dag(30, seed=2)
        assert is_acyclic(g)
        assert len(g.sources()) == 1
        assert len(g.sinks()) == 1

    def test_zero_operations(self):
        g = series_parallel_dag(0, seed=0)
        assert g.n_vertices == 2 and g.n_edges == 1

    def test_negative_raises(self):
        with pytest.raises(ValidationError):
            series_parallel_dag(-1)


class TestPathAndComplete:
    def test_longest_path_dag(self):
        g = longest_path_dag(6)
        assert g.n_edges == 5
        assert max(longest_path_lengths(g).values()) == 5

    def test_complete_layered(self):
        g = complete_layered_dag(3, 4)
        assert g.n_vertices == 12
        assert g.n_edges == 2 * 16

    def test_complete_layered_invalid(self):
        with pytest.raises(ValidationError):
            complete_layered_dag(0, 4)


class TestAttLikeDag:
    @pytest.mark.parametrize("n", [10, 35, 60, 100])
    def test_valid_dag(self, n):
        g = att_like_dag(n, seed=9)
        assert_valid_dag(g, n)

    def test_sparse(self):
        g = att_like_dag(80, seed=3)
        assert g.n_edges <= 2.0 * g.n_vertices

    def test_shallow(self):
        # AT&T-like graphs are shallow: the longest path is much shorter than n.
        g = att_like_dag(100, seed=5)
        height = max(longest_path_lengths(g).values()) + 1
        assert height <= 15

    def test_deterministic(self):
        assert att_like_dag(50, seed=1) == att_like_dag(50, seed=1)

    def test_single_vertex(self):
        g = att_like_dag(1, seed=0)
        assert g.n_vertices == 1 and g.n_edges == 0

    def test_level_fixup_keeps_every_level_populated(self):
        # Here the level fix-up takes the only vertex of a level it already
        # filled; without the repair the backbone edge has no target.
        g = att_like_dag(10, seed=1274)
        assert_valid_dag(g, 10)
        depths = set(longest_path_lengths(g).values())
        assert depths == set(range(max(depths) + 1))

    def test_corpus_seed_zero_generates(self):
        corpus = att_like_corpus(seed=0)
        assert len(corpus) == 1277
        assert all(is_acyclic(entry.graph) for entry in corpus)

    def test_ten_vertex_seeds_never_raise(self):
        for seed in range(2000):
            assert att_like_dag(10, seed=seed).n_vertices == 10

    def test_outputs_pinned(self):
        # The level repair draws only for seeds that used to crash, so
        # every other seed keeps generating exactly the same graph.
        digest = hashlib.sha256()
        for n in (10, 40):
            for seed in range(100):
                edges = sorted(att_like_dag(n, seed=seed).edges())
                digest.update(json.dumps(edges).encode())
        assert digest.hexdigest() == (
            "b1ae16df6f0ab9ab239f707aaca2ae87375fb4dec958c52dc41d10d6cadd1269"
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            att_like_dag(10, edge_factor=-1)
        with pytest.raises(ValidationError):
            att_like_dag(10, depth_ratio=1.5)
        with pytest.raises(ValidationError):
            att_like_dag(10, span_decay=0.0)


class TestLayeredRandomDagEngines:
    """The block-draw engine consumes the RNG stream identically to the scalar loop."""

    def test_engines_identical(self):
        for seed in (0, 1, 7):
            for n_layers, layer_size, p, max_span in (
                (4, 5, 0.3, 3),
                (6, 3, 0.1, 2),
                (3, 8, 0.9, 1),
            ):
                ref = layered_random_dag(
                    n_layers, layer_size, p, max_span=max_span, seed=seed, engine="python"
                )
                vec = layered_random_dag(
                    n_layers, layer_size, p, max_span=max_span, seed=seed,
                    engine="vectorized",
                )
                assert vec == ref
                assert list(vec.edges()) == list(ref.edges())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError):
            layered_random_dag(2, 2, 0.5, engine="gpu")
