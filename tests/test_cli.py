"""Tests for the command-line interface."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import att_like_dag
from repro.graph.io import write_edgelist, write_json


def _load_resume_smoke():
    """Import the CI smoke script so its helpers are shared, not duplicated."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "resume_smoke.py"
    spec = importlib.util.spec_from_file_location("resume_smoke", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The single definition of "which compare tables are deterministic" lives
#: in the smoke script; reusing it keeps this test and CI asserting the
#: same byte-identity contract.
deterministic_tables = _load_resume_smoke().deterministic_tables


@pytest.fixture
def graph_file(tmp_path):
    g = att_like_dag(18, seed=3)
    path = tmp_path / "graph.edgelist"
    write_edgelist(g, path)
    return path


@pytest.fixture
def graph_json_file(tmp_path):
    g = att_like_dag(15, seed=4)
    path = tmp_path / "graph.json"
    write_json(g, path)
    return path


FAST_ACO = ["--ants", "2", "--tours", "2", "--seed", "0"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("layer", "draw", "compare", "figures", "corpus"):
            args = parser.parse_args(
                [command, "x"] if command in ("layer", "draw", "corpus") else [command]
            )
            assert args.command == command

    def test_experiment_commands_offer_three_executors(self):
        parser = build_parser()
        for command in ("compare", "figures", "tune"):
            assert parser.parse_args([command]).executor == "batched"
            for executor in ("batched", "serial", "process"):
                assert parser.parse_args([command, "--executor", executor]).executor == executor
        for gone in ("thread", "colonies"):
            with pytest.raises(SystemExit):
                parser.parse_args(["compare", "--executor", gone])


class TestLayerCommand:
    def test_layer_with_lpl(self, graph_file, capsys):
        assert main(["layer", str(graph_file), "--method", "lpl"]) == 0
        out = capsys.readouterr().out
        assert "height" in out and "width_including_dummies" in out

    def test_layer_with_aco_and_output(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "layers.json"
        code = main(
            ["layer", str(graph_file), "--method", "aco", "--output", str(out_file), *FAST_ACO]
        )
        assert code == 0
        data = json.loads(out_file.read_text(encoding="utf-8"))
        assert len(data) == 18
        assert all(isinstance(layer, int) for layer in data.values())

    def test_layer_json_input(self, graph_json_file):
        assert main(["layer", str(graph_json_file), "--method", "minwidth"]) == 0

    def test_missing_file_is_an_error(self, capsys):
        assert main(["layer", "no-such-file.edgelist", "--method", "lpl"]) == 2
        assert "error" in capsys.readouterr().err


class TestDrawCommand:
    def test_ascii_and_svg(self, graph_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        code = main(["draw", str(graph_file), "--method", "lpl", "--svg", str(svg)])
        assert code == 0
        assert svg.exists()
        out = capsys.readouterr().out
        assert "crossings=" in out
        assert "L" in out  # ascii layer rows

    def test_no_ascii_flag(self, graph_file, capsys):
        assert main(["draw", str(graph_file), "--method", "lpl", "--no-ascii"]) == 0
        out = capsys.readouterr().out
        assert "L  1 |" not in out


class TestCompareCommand:
    def test_small_comparison(self, capsys):
        code = main(
            [
                "compare",
                "--graphs-per-group",
                "1",
                "--vertex-counts",
                "10",
                "20",
                *FAST_ACO,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MinWidth" in out and "AntColony" in out
        assert "(running_time)" in out
        # Every measured running time shows: none rounds to zero.
        table = out.split("(running_time)\n", 1)[1].split("\n\n", 1)[0]
        rows = table.strip().splitlines()[2:]  # past the header and the rule
        assert len(rows) == 2
        times = [float(value) for row in rows for value in row.split()[1:]]
        assert len(times) == 10 and all(t > 0 for t in times)

    def test_no_aco_flag(self, capsys):
        code = main(
            ["compare", "--graphs-per-group", "1", "--vertex-counts", "10", "--no-aco"]
        )
        assert code == 0
        assert "AntColony" not in capsys.readouterr().out

    def test_full_announces_thread_count(self, capsys, monkeypatch):
        # --full is where the walk kernel dominates, so the resolved thread
        # count is announced up front.  Shrink the corpus so the test stays
        # fast: the announce path is identical for any corpus size.
        import repro.cli as cli

        real_corpus = cli.att_like_corpus
        monkeypatch.setattr(
            cli,
            "att_like_corpus",
            lambda graphs_per_group=None, vertex_counts=None: real_corpus(
                graphs_per_group=1, vertex_counts=(10,)
            ),
        )
        monkeypatch.setenv("REPRO_ACO_THREADS", "2")
        assert main(["compare", "--full", "--no-aco"]) == 0
        assert "walk kernel: 2 thread(s)" in capsys.readouterr().out

    def test_full_rejects_invalid_thread_env(self, capsys, monkeypatch):
        import repro.cli as cli

        real_corpus = cli.att_like_corpus
        monkeypatch.setattr(
            cli,
            "att_like_corpus",
            lambda graphs_per_group=None, vertex_counts=None: real_corpus(
                graphs_per_group=1, vertex_counts=(10,)
            ),
        )
        monkeypatch.setenv("REPRO_ACO_THREADS", "bogus")
        assert main(["compare", "--full", "--no-aco"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_ACO_THREADS must be an integer, got 'bogus'" in err


class TestFiguresCommand:
    def test_single_figure(self, capsys, monkeypatch):
        # Shrink the corpus the figure uses by limiting groups via a tiny
        # graphs-per-group; fig4 runs LPL, LPL+PL and the ACO.
        code = main(["figures", "--figure", "fig4", "--graphs-per-group", "1", *FAST_ACO])
        assert code == 0
        out = capsys.readouterr().out
        assert "FIG4" in out
        assert "AntColony" in out


class TestCorpusCommand:
    def test_writes_graph_files(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        code = main(["corpus", str(out_dir), "--graphs-per-group", "1"])
        assert code == 0
        files = list(out_dir.glob("*.json"))
        assert len(files) == 19
        assert "19 graphs written" in capsys.readouterr().out


SMALL_COMPARE = [
    "compare",
    "--graphs-per-group",
    "1",
    "--vertex-counts",
    "10",
    "20",
    *FAST_ACO,
]


class TestRunLifecycleOptions:
    def test_full_conflicts_with_graphs_per_group(self, capsys):
        assert main(["compare", "--full", "--graphs-per-group", "2"]) == 2
        assert "--full" in capsys.readouterr().err

    def test_resume_requires_run_dir(self, capsys):
        assert main([*SMALL_COMPARE, "--resume"]) == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_default_run_isolates_injected_failure(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_FAIL", "AntColony:att-like-n10-*")
        assert main(SMALL_COMPARE) == 0
        out = capsys.readouterr().out
        assert "1 of 10 cells failed" in out

    def test_strict_run_fails_fast_on_injected_failure(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_FAIL", "AntColony:att-like-n10-*")
        assert main([*SMALL_COMPARE, "--strict"]) == 2
        assert "failed" in capsys.readouterr().err

    def test_progress_flag_writes_progress_and_summary(self, capsys):
        assert main([*SMALL_COMPARE, "--progress"]) == 0
        err = capsys.readouterr().err
        assert "cells 10/10" in err
        assert "run: 10/10 cells" in err

    def test_interrupt_then_resume_replays_journal(self, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        monkeypatch.setenv("REPRO_ENGINE_MAX_CELLS", "4")
        assert main([*SMALL_COMPARE, "--run-dir", str(run_dir)]) == 2
        assert "interrupted" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_ENGINE_MAX_CELLS")
        code = main([*SMALL_COMPARE, "--run-dir", str(run_dir), "--resume"])
        captured = capsys.readouterr()
        assert code == 0
        assert "4 replayed" in captured.err
        # The resumed aggregate tables match an uninterrupted run on every
        # deterministic metric.
        plain = main(SMALL_COMPARE)
        assert plain == 0
        reference = capsys.readouterr().out
        assert deterministic_tables(captured.out) == deterministic_tables(reference)


class TestCacheCommand:
    def _warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main([*SMALL_COMPARE, "--cache-dir", str(cache_dir)]) == 0
        return cache_dir

    def test_stats(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 10" in out
        assert "total size:" in out

    def test_prune_by_size(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", str(cache_dir), "--max-size", "0"]) == 0
        assert "pruned 10 entries" in capsys.readouterr().out
        assert main(["cache", "stats", str(cache_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_prune_by_age_keeps_fresh_entries(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", str(cache_dir), "--older-than", "1h"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out

    def test_prune_requires_criterion(self, tmp_path, capsys):
        assert main(["cache", "prune", str(tmp_path)]) == 2
        assert "--max-size" in capsys.readouterr().err

    def test_stats_output_units_round_trip_into_prune(self, tmp_path, capsys):
        # `cache stats` prints sizes as KiB/MiB; prune must accept them back.
        cache_dir = self._warm_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", str(cache_dir), "--max-size", "1.5KiB"]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out

    def test_bad_size_and_duration_are_errors(self, tmp_path, capsys):
        assert main(["cache", "prune", str(tmp_path), "--max-size", "lots"]) == 2
        assert "invalid size" in capsys.readouterr().err
        assert main(["cache", "prune", str(tmp_path), "--older-than", "soon"]) == 2
        assert "invalid duration" in capsys.readouterr().err
