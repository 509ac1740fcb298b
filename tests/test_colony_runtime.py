"""Tests for multi-colony portfolios and the engine settings around them.

The load-bearing contract is seed stability: for a fixed seed every colony
of :func:`repro.aco.parallel.parallel_aco_layering` must be bit-identical to
a single-colony reference-loop run (``engine="python"``) with that colony's
derived seed while ``exchange_every = 0``.
"""

from __future__ import annotations

import pytest

from repro.aco.layering_aco import aco_layering_detailed
from repro.aco.parallel import _derive_colony_seeds, parallel_aco_layering
from repro.aco.params import ACOParams
from repro.experiments.engine import ExperimentEngine, MethodSpec, WorkUnit
from repro.graph.generators import att_like_dag
from repro.utils.exceptions import ValidationError
from repro.utils.pool import effective_workers

FAST = ACOParams(n_ants=2, n_tours=2, seed=5)


def _colony_view(result):
    """The per-colony data that must match the reference runs."""
    return [
        (c.colony_index, c.seed, c.objective, c.height,
         c.width_including_dummies, c.assignment)
        for c in result.colonies
    ]


def _oracle(g, params, n_colonies):
    """Colony view and best layering of per-seed reference-loop runs."""
    seeds = _derive_colony_seeds(params.seed, n_colonies)
    runs = [aco_layering_detailed(g, params.replace(seed=s, engine="python")) for s in seeds]
    view = [
        (i, s, r.metrics.objective, r.metrics.height,
         r.metrics.width_including_dummies, r.layering.to_dict())
        for i, (s, r) in enumerate(zip(seeds, runs))
    ]
    best = max(runs, key=lambda r: r.metrics.objective)
    return view, best.layering


class TestSeedStability:
    def test_serial_vs_colonies_bit_identical(self):
        g = att_like_dag(25, seed=11)
        view, layering = _oracle(g, FAST, 3)
        colonies = parallel_aco_layering(g, FAST, n_colonies=3)
        assert colonies.layering == layering
        assert _colony_view(colonies) == view

    @pytest.mark.parametrize(
        "params",
        [
            ACOParams(n_ants=2, n_tours=2, seed=5, selection="roulette"),
            ACOParams(n_ants=2, n_tours=2, seed=5, q0=0.4),
            ACOParams(n_ants=2, n_tours=2, seed=5, alpha=2.0, beta=2.0),
            ACOParams(n_ants=2, n_tours=2, seed=5, vertex_order="bfs"),
            ACOParams(n_ants=2, n_tours=2, seed=5, vertex_order="topological"),
            ACOParams(n_ants=2, n_tours=2, seed=5, engine="python"),
        ],
        ids=["roulette", "q0", "exponents", "bfs", "topological", "python-engine"],
    )
    def test_bit_identity_across_configurations(self, params):
        g = att_like_dag(20, seed=12)
        view, _ = _oracle(g, params, 3)
        colonies = parallel_aco_layering(g, params, n_colonies=3)
        assert _colony_view(colonies) == view

    def test_deterministic_across_repeats(self):
        g = att_like_dag(20, seed=15)
        a = parallel_aco_layering(g, FAST, n_colonies=3)
        b = parallel_aco_layering(g, FAST, n_colonies=3)
        assert _colony_view(a) == _colony_view(b)


class TestExchange:
    def test_exchange_zero_is_default(self):
        assert ACOParams().exchange_every == 0

    def test_exchange_validation(self):
        with pytest.raises(ValidationError):
            ACOParams(exchange_every=-1)

    def test_exchange_changes_only_when_enabled(self):
        g = att_like_dag(25, seed=16)
        base = ACOParams(n_ants=3, n_tours=6, seed=3)
        independent = parallel_aco_layering(g, base, n_colonies=3)
        coupled = parallel_aco_layering(g, base.replace(exchange_every=2), n_colonies=3)
        # The coupled run is still a valid layering and can never be worse
        # than the stretched-LPL seed each colony starts from.
        coupled.layering.validate(g)
        assert coupled.objective > 0
        # Exchange must not silently leak into the independent configuration.
        again = parallel_aco_layering(g, base, n_colonies=3)
        assert _colony_view(again) == _colony_view(independent)

    def test_exchange_forces_single_batch(self):
        # Exchange couples the colonies of the one in-process pack.
        g = att_like_dag(15, seed=17)
        result = parallel_aco_layering(
            g, ACOParams(n_ants=2, n_tours=4, seed=1, exchange_every=1), n_colonies=3
        )
        result.layering.validate(g)


class TestEngineIntegration:
    def test_method_spec_n_colonies_roundtrip(self):
        spec = MethodSpec.ant_colony(FAST, n_colonies=3)
        assert MethodSpec.from_dict(spec.to_dict()) == spec

    def test_method_spec_rejects_bad_n_colonies(self):
        with pytest.raises(ValidationError):
            MethodSpec.ant_colony(FAST, n_colonies=0)

    def test_portfolio_spec_matches_direct_runtime(self):
        g = att_like_dag(20, seed=20)
        spec = MethodSpec.ant_colony(FAST, n_colonies=3)
        layering = spec.resolve()(g)
        assert layering == parallel_aco_layering(g, FAST, n_colonies=3).layering

    def test_engine_accepts_colonies_executor(self):
        g = att_like_dag(15, seed=21)
        unit = WorkUnit(graph=g, method=MethodSpec.ant_colony(FAST, n_colonies=2))
        serial = ExperimentEngine(executor="serial").run([unit])
        # jobs=1 keeps the (1-CPU CI) process pool to a single worker.
        colonies = ExperimentEngine(executor="colonies", jobs=1).run([unit])
        assert colonies[0].metrics == serial[0].metrics

    def test_engine_rejects_unknown_executor(self):
        with pytest.raises(ValidationError):
            ExperimentEngine(executor="gpu")


class TestNativeCacheDir:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        from repro.aco import _native

        monkeypatch.setenv("REPRO_ACO_NATIVE_CACHE", str(tmp_path))
        assert _native._cache_dir() == str(tmp_path)

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        from repro.aco import _native

        monkeypatch.delenv("REPRO_ACO_NATIVE_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert _native._cache_dir() == str(tmp_path / "repro-aco-native")

    def test_compiles_into_override_dir(self, tmp_path, monkeypatch):
        import os
        import shutil

        from repro.aco import _native

        if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
            pytest.skip("no C compiler available")
        monkeypatch.setenv("REPRO_ACO_NATIVE_CACHE", str(tmp_path))
        path = _native._compile_library()
        assert path is not None
        assert path.startswith(str(tmp_path))
        assert os.path.exists(path)

    def test_missing_compiler_degrades_with_single_warning(self, monkeypatch):
        import warnings

        from repro.aco import _native

        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        monkeypatch.setattr(_native, "_load_attempted", False)
        monkeypatch.setattr(_native, "_lib", None)
        with pytest.warns(RuntimeWarning, match="native ACO kernel unavailable"):
            assert _native.load_native() is None
        # The failure is cached: no compiler re-probe, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _native.load_native() is None


class TestWorkerClamp:
    def test_explicit_request_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert effective_workers(6) == 6

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert effective_workers(None) == 3

    def test_clamped_to_task_count_and_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "16")
        assert effective_workers(None, n_tasks=5) == 5
        assert effective_workers(None, n_tasks=0) == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValidationError):
            effective_workers(None)

    def test_nonpositive_values_raise(self, monkeypatch):
        with pytest.raises(ValidationError):
            effective_workers(0)
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValidationError):
            effective_workers(None)

    def test_default_without_env_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        import os

        assert effective_workers(None) == (os.cpu_count() or 1)
