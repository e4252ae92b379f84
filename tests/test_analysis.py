"""Tests for the analysis toolkit (bounds, stats, records, competitive, sweeps)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import (
    competitive_bound,
    max_protocol_expected_bound,
    max_protocol_lower_bound,
    ordered_conjecture_bound,
)
from repro.analysis.competitive import competitive_outcome
from repro.analysis.records import (
    expected_records,
    harmonic,
    harmonic_second,
    record_variance,
    records_in,
)
from repro.analysis.stats import (
    bootstrap_ci,
    mean_confidence_interval,
    summarize,
    tail_probability,
)
from repro.analysis.backends import list_backends
from repro.analysis.sweeps import run_sweep
from repro.errors import ConfigurationError
from repro.streams import crossing_pair, staircase


class TestBounds:
    def test_expected_bound_values(self):
        assert max_protocol_expected_bound(1) == 1.0
        assert max_protocol_expected_bound(2) == pytest.approx(3.0)
        assert max_protocol_expected_bound(1024) == pytest.approx(21.0)

    def test_expected_bound_validation(self):
        with pytest.raises(ConfigurationError):
            max_protocol_expected_bound(0)

    def test_lower_bound_is_harmonic(self):
        assert max_protocol_lower_bound(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_competitive_bound_shape(self):
        # (log2 1024 + 4) * log2 64 = 14 * 6
        assert competitive_bound(1024, 4, 64) == pytest.approx(84.0)
        # clamps
        assert competitive_bound(0, 1, 1) == pytest.approx(2.0)

    def test_competitive_bound_constant(self):
        assert competitive_bound(4, 2, 4, constant=3.0) == pytest.approx(3 * (2 + 2) * 2)

    def test_ordered_conjecture_shape(self):
        assert ordered_conjecture_bound(256, 4, 68) == pytest.approx(8 * 6.0)
        with pytest.raises(ConfigurationError):
            ordered_conjecture_bound(8, 4, 4)


class TestRecords:
    def test_harmonic_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25 / 12)

    def test_harmonic_second(self):
        assert harmonic_second(2) == pytest.approx(1.25)

    def test_record_variance_positive(self):
        for n in (2, 10, 100):
            assert 0 < record_variance(n) < harmonic(n)

    def test_records_in_examples(self):
        assert records_in(np.array([3, 1, 4, 1, 5])) == 3
        assert records_in(np.array([5, 4, 3])) == 1
        assert records_in(np.array([1, 1, 1])) == 1  # strict records

    def test_records_validation(self):
        with pytest.raises(ConfigurationError):
            records_in(np.array([]))

    def test_monte_carlo_matches_harmonic(self):
        rng = np.random.default_rng(0)
        n, reps = 64, 4000
        mean = np.mean([records_in(rng.permutation(n)) for _ in range(reps)])
        assert mean == pytest.approx(harmonic(n), rel=0.06)
        assert expected_records(n) == harmonic(n)


class TestStats:
    def test_summarize_basic(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.mean == 3.0
        assert s.minimum == 1 and s.maximum == 5
        assert s.ci_low < 3.0 < s.ci_high
        assert "±" in s.format()

    def test_single_sample_degenerate_ci(self):
        m, lo, hi = mean_confidence_interval([7.0])
        assert m == lo == hi == 7.0

    def test_constant_sample(self):
        m, lo, hi = mean_confidence_interval([2.0, 2.0, 2.0])
        assert lo == hi == 2.0

    def test_ci_width_shrinks_with_n(self):
        rng = np.random.default_rng(1)
        small = summarize(rng.normal(0, 1, 20))
        large = summarize(rng.normal(0, 1, 2000))
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_ci_coverage(self):
        """95% CI should cover the true mean ~95% of the time."""
        rng = np.random.default_rng(2)
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(10, 3, 25)
            _, lo, hi = mean_confidence_interval(sample)
            hits += lo <= 10 <= hi
        assert hits / trials > 0.88

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            summarize([])
        with pytest.raises(ConfigurationError):
            mean_confidence_interval([1.0], confidence=1.5)

    def test_bootstrap_brackets_statistic(self):
        rng = np.random.default_rng(3)
        sample = rng.exponential(2.0, 200)
        lo, hi = bootstrap_ci(sample, np.median, seed=1)
        assert lo <= float(np.median(sample)) <= hi

    def test_bootstrap_single_sample(self):
        assert bootstrap_ci([5.0]) == (5.0, 5.0)

    def test_tail_probability(self):
        assert tail_probability([1, 2, 3, 4], 2.5) == 0.5
        assert tail_probability([1, 1], 5) == 0.0


class TestCompetitive:
    def test_static_instance_ratio(self):
        values = staircase(8, 50).generate()
        oc = competitive_outcome(values, 3, seed=1)
        assert oc.opt_epochs == 1
        assert oc.ratio == oc.online_messages
        assert oc.normalized == oc.ratio / oc.bound

    def test_crossing_instance(self):
        values = crossing_pair(8, 80, k=2, period=10, delta=32, seed=0).generate()
        oc = competitive_outcome(values, 2, seed=2)
        assert oc.opt_epochs == 8
        assert oc.delta == 64
        assert oc.ratio > 0

    def test_supplied_opt_reused(self):
        from repro.baselines.offline_opt import opt_result

        values = staircase(6, 30).generate()
        opt = opt_result(values, 2)
        oc = competitive_outcome(values, 2, seed=3, opt=opt)
        assert oc.opt_epochs == opt.epochs


def _picklable_measure(rng_seed, x):
    """Module-level measure so the process executor can pickle it."""
    return float((rng_seed * 31 + x) % 997)


def _other_measure(rng_seed, x):
    """A second measure: resuming a journal written by another one must fail."""
    return float(x)


class TestSweeps:
    def test_grid_and_repetitions(self):
        calls = []

        def measure(rng_seed, x):
            calls.append((rng_seed, x))
            return float(x * 10 + (rng_seed % 3))

        res = run_sweep("demo", [{"x": 1}, {"x": 2}], measure, repetitions=4, seed=5)
        assert len(res.points) == 2
        assert all(len(p.samples) == 4 for p in res.points)
        assert res.column("x") == [1, 2]
        assert len(calls) == 8
        # distinct seeds per call
        assert len({s for s, _ in calls}) == 8

    def test_reproducible(self):
        def measure(rng_seed, x):
            return float(rng_seed % 100)

        a = run_sweep("s", [{"x": 0}], measure, repetitions=3, seed=9)
        b = run_sweep("s", [{"x": 0}], measure, repetitions=3, seed=9)
        assert a.points[0].samples == b.points[0].samples

    def test_find(self):
        res = run_sweep("s", [{"x": 1}, {"x": 2}], lambda rng_seed, x: float(x), repetitions=1)
        assert res.find(x=2).summary.mean == 2.0
        with pytest.raises(ConfigurationError):
            res.find(x=99)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_sweep("s", [{"x": 1}], lambda rng_seed, x: 0.0, repetitions=0)

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            run_sweep("s", [{"x": 1}], lambda rng_seed, x: 0.0, workers=0)
        with pytest.raises(ConfigurationError):
            run_sweep("s", [{"x": 1}], lambda rng_seed, x: 0.0, backend="banana")

    @pytest.mark.parametrize("workers", [2, 5])
    def test_parallel_results_identical_to_serial(self, workers):
        """Seeds are precomputed in grid order: any worker count, same sweep."""
        grid = [{"x": v} for v in range(4)]
        serial = run_sweep("s", grid, _picklable_measure, repetitions=5, seed=12)
        parallel = run_sweep(
            "s", grid, _picklable_measure, repetitions=5, seed=12, workers=workers
        )
        for a, b in zip(serial.points, parallel.points):
            assert a.params == b.params
            assert a.samples == b.samples

    def test_parallel_closure_measure(self):
        """The default thread executor must work with non-picklable closures."""
        offset = 3

        def measure(rng_seed, x):
            return float(rng_seed % 50 + x + offset)

        serial = run_sweep("s", [{"x": 1}, {"x": 9}], measure, repetitions=4, seed=2)
        parallel = run_sweep("s", [{"x": 1}, {"x": 9}], measure, repetitions=4, seed=2, workers=3)
        assert [p.samples for p in serial.points] == [p.samples for p in parallel.points]

    def test_process_executor_identical(self):
        serial = run_sweep("s", [{"x": 2}], _picklable_measure, repetitions=3, seed=4)
        parallel = run_sweep(
            "s",
            [{"x": 2}],
            _picklable_measure,
            repetitions=3,
            seed=4,
            workers=2,
            backend="process",
        )
        assert serial.points[0].samples == parallel.points[0].samples

    def test_engine_measure_parallel_sweep(self):
        """End-to-end: a fast-engine measurement fanned out over threads."""
        from repro.api import RunSpec, run

        def measure(rng_seed, n):
            spec = RunSpec("random_walk", k=3, n=n, steps=120, seed=rng_seed)
            return float(run(spec).total_messages)

        grid = [{"n": 8}, {"n": 12}]
        serial = run_sweep("msgs", grid, measure, repetitions=3, seed=7)
        parallel = run_sweep("msgs", grid, measure, repetitions=3, seed=7, workers=4)
        assert [p.samples for p in serial.points] == [p.samples for p in parallel.points]

    def test_means_order(self):
        res = run_sweep(
            "s", [{"x": v} for v in (3, 1, 2)], lambda rng_seed, x: float(x), repetitions=2
        )
        assert res.means() == [3.0, 1.0, 2.0]


class TestBackendDeterminism:
    """Every registered backend must reproduce the serial sweep bit for bit,
    including after a mid-sweep kill/resume."""

    GRID = [{"x": v} for v in range(4)]

    @pytest.fixture(scope="class")
    def reference(self):
        return run_sweep(
            "det", self.GRID, _picklable_measure, repetitions=5, seed=12, backend="serial"
        )

    @pytest.mark.parametrize("backend", [b.name for b in list_backends()])
    def test_backend_identical_to_serial(self, backend, reference):
        res = run_sweep(
            "det", self.GRID, _picklable_measure, repetitions=5, seed=12,
            workers=3, backend=backend,
        )
        for a, b in zip(reference.points, res.points):
            assert a.params == b.params
            assert a.samples == b.samples

    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "queue"])
    def test_mid_sweep_resume_identical(self, backend, reference, tmp_path):
        """Resume from a journal holding half the jobs: same sweep, bit for bit."""
        checkpoint = tmp_path / f"{backend}.sweep.jsonl"
        full = run_sweep(
            "det", self.GRID, _picklable_measure, repetitions=5, seed=12,
            checkpoint=checkpoint,
        )
        # Keep the header and the first half of the records — the state a
        # coordinator killed at ~50% leaves behind.
        lines = checkpoint.read_text().splitlines()
        n_jobs = len(lines) - 1
        checkpoint.write_text("\n".join(lines[: 1 + n_jobs // 2]) + "\n")
        resumed = run_sweep(
            "det", self.GRID, _picklable_measure, repetitions=5, seed=12,
            workers=3, backend=backend, checkpoint=checkpoint, resume=True,
        )
        assert [p.samples for p in resumed.points] == [p.samples for p in full.points]
        assert [p.samples for p in resumed.points] == [p.samples for p in reference.points]

    def test_resume_replays_instead_of_recomputing(self, tmp_path):
        """Journaled samples are trusted verbatim — the proof no finished job reruns."""
        import json

        checkpoint = tmp_path / "fake.sweep.jsonl"
        run_sweep(
            "det", self.GRID, _picklable_measure, repetitions=5, seed=12,
            checkpoint=checkpoint,
        )
        # Rewrite the first 10 records with values no measure could produce
        # and drop the rest — the resumed sweep must carry the fakes through.
        lines = checkpoint.read_text().splitlines()
        fakes = [
            json.dumps({"job": json.loads(line)["job"], "sample": -1000.0 - i})
            for i, line in enumerate(lines[1:11])
        ]
        checkpoint.write_text("\n".join([lines[0], *fakes]) + "\n")
        res = run_sweep(
            "det", self.GRID, _picklable_measure, repetitions=5, seed=12,
            checkpoint=checkpoint, resume=True,
        )
        replayed = [s for p in res.points for s in p.samples][:10]
        assert replayed == [-1000.0 - i for i in range(10)]

    def test_resume_changed_grid_rejected(self, tmp_path):
        """Same shape, different grid values: the fingerprint must catch it."""
        checkpoint = tmp_path / "grid.sweep.jsonl"
        run_sweep("det", self.GRID, _picklable_measure, repetitions=5, seed=12,
                  checkpoint=checkpoint)
        changed = [{"x": v + 100} for v in range(4)]
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep("det", changed, _picklable_measure, repetitions=5, seed=12,
                      checkpoint=checkpoint, resume=True)

    def test_resume_changed_measure_rejected(self, tmp_path):
        checkpoint = tmp_path / "meas.sweep.jsonl"
        run_sweep("det", self.GRID, _picklable_measure, repetitions=5, seed=12,
                  checkpoint=checkpoint)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep("det", self.GRID, _other_measure, repetitions=5, seed=12,
                      checkpoint=checkpoint, resume=True)


class TestStatisticalShapes:
    """Cross-checks tying stats to the protocol's theory."""

    @given(st.integers(2, 9))
    @settings(max_examples=8, deadline=None)
    def test_harmonic_log_sandwich(self, e):
        n = 2**e
        # ln(n) < H_n <= ln(n) + 1
        assert np.log(n) < harmonic(n) <= np.log(n) + 1

    def test_bound_monotone(self):
        bounds = [max_protocol_expected_bound(2**e) for e in range(1, 15)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
