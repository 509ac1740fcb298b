"""Tests for multi-colony portfolios (``parallel_aco_layering``)."""

from __future__ import annotations

import pytest

from repro.aco.parallel import ParallelAcoResult, parallel_aco_layering
from repro.aco.params import ACOParams
from repro.graph.generators import att_like_dag
from repro.utils.exceptions import ValidationError

FAST = ACOParams(n_ants=2, n_tours=2, seed=5)


class TestSerialBackend:
    """The portfolio's basic contract; its colonies run in-process, in one pack."""

    def test_basic_run(self):
        g = att_like_dag(20, seed=1)
        result = parallel_aco_layering(g, FAST, n_colonies=3)
        assert isinstance(result, ParallelAcoResult)
        assert len(result.colonies) == 3
        result.layering.validate(g)
        assert result.objective == max(c.objective for c in result.colonies)

    def test_deterministic(self):
        g = att_like_dag(20, seed=2)
        a = parallel_aco_layering(g, FAST, n_colonies=3)
        b = parallel_aco_layering(g, FAST, n_colonies=3)
        assert a.layering == b.layering
        assert [c.seed for c in a.colonies] == [c.seed for c in b.colonies]

    def test_single_colony(self):
        g = att_like_dag(15, seed=3)
        result = parallel_aco_layering(g, FAST, n_colonies=1)
        assert len(result.colonies) == 1

    def test_best_at_least_single_colony_quality(self):
        g = att_like_dag(25, seed=4)
        multi = parallel_aco_layering(g, FAST, n_colonies=4)
        assert multi.objective >= min(c.objective for c in multi.colonies)

    def test_invalid_arguments(self):
        g = att_like_dag(10, seed=5)
        with pytest.raises(ValidationError):
            parallel_aco_layering(g, FAST, n_colonies=0)
