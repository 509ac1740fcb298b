"""Ablation C — single colony vs several independent colonies.

The paper frames each tour as emulating a parallel work environment for the
ants; the natural coarse-grained parallelisation of the whole algorithm is to
run independent colonies with different seeds and keep the best layering.
This ablation quantifies the quality gain of a 4-colony portfolio over a
single colony at equal per-colony budget (the portfolio sweeps all colonies'
ants in one kernel call per tour, spread over the kernel's threads).
"""

from __future__ import annotations

from statistics import fmean

from benchmarks.shape import print_series
from repro.aco.layering_aco import aco_layering_detailed
from repro.aco.parallel import parallel_aco_layering
from repro.layering.metrics import evaluate_layering


def test_ablation_parallel_colonies(benchmark, small_corpus, aco_params):
    def run():
        single, multi = [], []
        for entry in small_corpus:
            single.append(
                aco_layering_detailed(entry.graph, aco_params).metrics.objective
            )
            result = parallel_aco_layering(entry.graph, aco_params, n_colonies=4)
            multi.append(
                evaluate_layering(
                    entry.graph, result.layering, nd_width=aco_params.nd_width
                ).objective
            )
        return fmean(single), fmean(multi)

    single_mean, multi_mean = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(
        "Ablation C — colony portfolio",
        f"mean objective: single colony {single_mean:.4f}, best of 4 colonies {multi_mean:.4f}",
    )

    # A portfolio of independent colonies can only help (it contains the
    # single-colony result up to seed differences).
    assert multi_mean >= single_mean * 0.98
