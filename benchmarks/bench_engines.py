"""Cross-cutting engine benchmarks: faithful vs vectorized vs fast, transports, workloads, sweeps.

Timings are not committed; performance claims cite the perfbench runs
recorded in ``CHANGES.md``.  The ``gate``/``speedup`` tests here are hard
regression asserts and run in CI with ``--benchmark-disable``.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.sweeps import run_sweep
from repro.api import RunSpec, run
from repro.core.monitor import MonitorConfig
from repro.streams import get_workload, list_workloads


@pytest.fixture(scope="module")
def walk_matrix():
    return get_workload("random_walk_spread", 64, 1500, seed=13).generate()


def test_faithful_engine(benchmark, walk_matrix):
    """Faithful object engine on 1500 x 64 (k=8), via the unified API."""
    spec = RunSpec(walk_matrix, k=8, seed=14, engine="faithful")
    res = benchmark(run, spec)
    assert res.steps == 1500


def test_vectorized_engine(benchmark, walk_matrix):
    """Vectorized engine on the same instance — the speedup being bought."""
    spec = RunSpec(walk_matrix, k=8, seed=14, engine="vectorized")
    res = benchmark(run, spec)
    assert res.steps == 1500


def test_fast_engine(benchmark, walk_matrix):
    """Segment-skipping fast engine on the same instance."""
    spec = RunSpec(walk_matrix, k=8, seed=14, engine="fast")
    res = benchmark(run, spec)
    assert res.steps == 1500


def test_fast_engine_churn_heavy(benchmark):
    """Worst case for segment skipping: a violation on almost every step."""
    values = get_workload("adversarial_rotation", 64, 1500, seed=13).generate()
    spec = RunSpec(values, k=8, seed=14, engine="fast")
    res = benchmark(run, spec)
    assert res.steps == 1500


def test_fast_speedup_over_vectorized(walk_matrix):
    """Regression gate for the segment-skipping speedup on the quiet workload.

    The measured ratio on an idle machine is ~10x or more (the ratios each
    engine change measured are in CHANGES.md); the hard assert keeps
    headroom below the noise floor of shared CI boxes — a drop under 7x
    means the segment skip itself regressed, not the scheduler mood.
    """

    def best_of(fn, inner=10, outer=8):
        best = float("inf")
        for _ in range(outer):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            best = min(best, (time.perf_counter() - t0) / inner)
        return best

    spec = RunSpec(walk_matrix, k=8, seed=14)
    for _ in range(3):  # warm caches on both paths
        run(spec, engine="vectorized")
        run(spec, engine="fast")
    t_vec = best_of(lambda: run(spec, engine="vectorized"))
    t_fast = best_of(lambda: run(spec, engine="fast"))
    speedup = t_vec / t_fast
    assert speedup >= 7.0, f"fast engine speedup {speedup:.1f}x (vec {t_vec:.4f}s, fast {t_fast:.4f}s)"


def _sweep_measure(rng_seed, n, steps):
    spec = RunSpec(
        "random_walk_spread", k=max(1, n // 8), n=n, steps=steps, seed=rng_seed, engine="fast"
    )
    return float(run(spec).total_messages)


_SWEEP_GRID = [{"n": 64, "steps": 2000}, {"n": 128, "steps": 2000}]


def test_sweep_serial(benchmark):
    """run_sweep over the fast engine, one worker (baseline)."""
    res = benchmark(
        lambda: run_sweep("bench", _SWEEP_GRID, _sweep_measure, repetitions=6, seed=3)
    )
    assert len(res.points) == 2


def test_sweep_parallel(benchmark):
    """Same sweep fanned out over 4 thread workers.

    Scaling is hardware-dependent (a single-core CI box shows ~1x); the
    differential test in tests/test_analysis.py asserts result equality.
    """
    res = benchmark(
        lambda: run_sweep(
            "bench", _SWEEP_GRID, _sweep_measure, repetitions=6, seed=3, workers=4
        )
    )
    assert len(res.points) == 2


def test_sweep_process(benchmark):
    """Same sweep on the process-pool backend (pickling + fork overhead)."""
    res = benchmark(
        lambda: run_sweep(
            "bench", _SWEEP_GRID, _sweep_measure, repetitions=6, seed=3,
            workers=4, backend="process",
        )
    )
    assert len(res.points) == 2


def test_sweep_queue(benchmark):
    """Same sweep on the distributed work-queue backend (Manager transport).

    The number to compare against ``test_sweep_process``: both pay process
    startup; the queue backend adds Manager round-trips per chunk, which is
    the price of multi-host capability and checkpoint granularity.
    """
    res = benchmark(
        lambda: run_sweep(
            "bench", _SWEEP_GRID, _sweep_measure, repetitions=6, seed=3,
            workers=4, backend="queue",
        )
    )
    assert len(res.points) == 2


def test_recording_transport_overhead(benchmark, walk_matrix):
    """Faithful engine with full message recording (tracing cost)."""
    cfg = MonitorConfig(record_messages=True)
    spec = RunSpec(walk_matrix, k=8, seed=14, engine="faithful", config=cfg)
    res = benchmark(run, spec)
    assert res.steps == 1500


@pytest.mark.parametrize("name", sorted(set(list_workloads()) - {"crossing_pair"}))
def test_workload_generation(benchmark, name):
    """Matrix construction cost per workload family (2000 x 64)."""
    spec = get_workload(name, 64, 2000, seed=15)
    values = benchmark(spec.generate)
    assert values.shape == (2000, 64)


def test_workload_generation_crossing_pair(benchmark):
    """crossing_pair needs k < n-1; bench it with its own parameters."""
    spec = get_workload("crossing_pair", 64, 2000, seed=15, k=8)
    values = benchmark(spec.generate)
    assert values.shape == (2000, 64)
