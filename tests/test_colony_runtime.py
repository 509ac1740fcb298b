"""Tests for the in-process multi-colony runtime and its satellites.

The load-bearing contract is seed stability: for a fixed seed the
``serial``, ``process`` and ``colonies`` executors of
:func:`repro.aco.parallel.parallel_aco_layering` must return the *same* best
solution, and ``exchange_every = 0`` must make the batched runtime
bit-identical to running the colonies independently.
"""

from __future__ import annotations

import pytest

from repro.aco.parallel import parallel_aco_layering
from repro.aco.params import ACOParams
from repro.aco.runtime import colonies_aco_layering
from repro.experiments.engine import ExperimentEngine, MethodSpec, WorkUnit
from repro.graph.generators import att_like_dag
from repro.utils.exceptions import ValidationError
from repro.utils.pool import effective_workers

FAST = ACOParams(n_ants=2, n_tours=2, seed=5)


def _colony_view(result):
    """The per-colony data that must be identical across executors."""
    return [
        (c.colony_index, c.seed, c.objective, c.height,
         c.width_including_dummies, c.assignment)
        for c in result.colonies
    ]


class TestSeedStability:
    def test_serial_vs_colonies_bit_identical(self):
        g = att_like_dag(25, seed=11)
        serial = parallel_aco_layering(g, FAST, n_colonies=3, executor="serial")
        colonies = parallel_aco_layering(g, FAST, n_colonies=3, executor="colonies")
        assert colonies.layering == serial.layering
        assert _colony_view(colonies) == _colony_view(serial)

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
        serial = parallel_aco_layering(g, params, n_colonies=3, executor="serial")
        colonies = parallel_aco_layering(g, params, n_colonies=3, executor="colonies")
        assert _colony_view(colonies) == _colony_view(serial)

    @pytest.mark.slow
    def test_all_executors_agree(self):
        g = att_like_dag(18, seed=14)
        results = {
            executor: parallel_aco_layering(
                g, FAST, n_colonies=2, executor=executor, max_workers=2
            )
            for executor in ("serial", "thread", "process", "colonies")
        }
        baseline = _colony_view(results["serial"])
        for executor, result in results.items():
            assert _colony_view(result) == baseline, executor
            assert result.layering == results["serial"].layering, executor

    def test_deterministic_across_repeats(self):
        g = att_like_dag(20, seed=15)
        a = parallel_aco_layering(g, FAST, n_colonies=3, executor="colonies")
        b = parallel_aco_layering(g, FAST, n_colonies=3, executor="colonies")
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
        independent = parallel_aco_layering(g, base, n_colonies=3, executor="colonies")
        coupled = parallel_aco_layering(
            g,
            base.replace(exchange_every=2),
            n_colonies=3,
            executor="colonies",
        )
        # The coupled run is still a valid layering and can never be worse
        # than the stretched-LPL seed each colony starts from.
        coupled.layering.validate(g)
        assert coupled.objective > 0
        # Exchange must not silently leak into the independent configuration.
        again = parallel_aco_layering(g, base, n_colonies=3, executor="colonies")
        assert _colony_view(again) == _colony_view(independent)

    def test_exchange_forces_single_batch(self):
        # Exchange couples the colonies of the single in-process batch; the
        # colonies back end accepts (and ignores) a max_workers cap.
        g = att_like_dag(15, seed=17)
        result = parallel_aco_layering(
            g,
            ACOParams(n_ants=2, n_tours=4, seed=1, exchange_every=1),
            n_colonies=3,
            executor="colonies",
            max_workers=4,
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
        direct = colonies_aco_layering(g, FAST, n_colonies=3)
        assert layering == direct.layering

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
