"""Bench E5: regenerate the scaling tables + vectorized engine throughput."""

from __future__ import annotations

import pytest

import repro
from benchmarks.conftest import run_experiment_benchmark
from repro.streams import random_walk


def test_e5_tables(benchmark, bench_scale):
    """Regenerate E5 (n / k / Δ sweeps) and validate the growth shapes."""
    run_experiment_benchmark(benchmark, "e5", bench_scale)


@pytest.mark.parametrize("n,steps", [(64, 2000), (512, 500)])
def test_vectorized_engine_throughput(benchmark, n, steps):
    """Time the vectorized engine on (steps x n) walks."""
    values = random_walk(n, steps, seed=5, step_size=4, spread=50).generate()

    def run():
        return repro.run(repro.RunSpec(values, k=8, seed=6), engine="vectorized").total_messages

    msgs = benchmark(run)
    assert msgs > 0
