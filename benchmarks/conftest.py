"""Shared fixtures for the benchmark harness.

Every experiment bench does two things:

1. **regenerates the experiment** at smoke scale through the ``benchmark``
   fixture (so ``pytest benchmarks/ --benchmark-only`` both times and
   validates each table), asserting the experiment's shape findings pass;
2. where a tight inner loop exists (protocol rounds, engine steps), times
   that loop directly at a fixed size.

Scale can be raised with ``--bench-scale default`` for a full-size
regeneration run.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="smoke",
        choices=("smoke", "default", "full"),
        help="experiment scale used by the benchmark harness",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> str:
    """The experiment scale for this benchmark session."""
    return request.config.getoption("--bench-scale")


def run_experiment_benchmark(benchmark, exp_id: str, scale: str):
    """Time one experiment regeneration and assert its findings pass."""
    from repro.experiments.spec import get_experiment

    entry = get_experiment(exp_id)
    output = benchmark.pedantic(entry.runner, args=(scale,), rounds=1, iterations=1)
    failed = [f for f in output.findings if not f.passed]
    assert output.passed, f"{exp_id} findings failed: {[f.claim for f in failed]}"
    return output
