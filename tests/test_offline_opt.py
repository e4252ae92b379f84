"""Tests for the offline optimum (greedy segmentation + DP certificate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import RunSpec
from repro.baselines.offline_opt import (
    opt_result,
    opt_segments,
    opt_segments_dp,
    segment_feasible,
)
from repro.errors import ConfigurationError
from repro.streams import crossing_pair, random_walk, staircase


class TestSegmentFeasible:
    def test_static_always_feasible(self):
        values = staircase(5, 20).generate()
        assert segment_feasible(values, 2, 0, 19)

    def test_swap_infeasible(self):
        values = np.array([[10, 1], [1, 10]], dtype=np.int64)
        assert segment_feasible(values, 1, 0, 0)
        assert not segment_feasible(values, 1, 0, 1)

    def test_lemma32_condition_exact(self):
        # top value dips to 5 while a bottom value peaks at 5: still feasible
        values = np.array([[10, 0], [5, 5], [10, 0]], dtype=np.int64)
        assert segment_feasible(values, 1, 0, 2)
        # dip below the peak: infeasible
        values2 = np.array([[10, 0], [4, 5], [10, 0]], dtype=np.int64)
        assert not segment_feasible(values2, 1, 0, 2)

    def test_tie_swap_candidates(self):
        # Ties at the boundary allow either member to be protected; only the
        # second choice survives the window.
        values = np.array([[5, 5, 1], [3, 5, 1]], dtype=np.int64)
        assert segment_feasible(values, 1, 0, 1)

    def test_k_equals_n(self):
        values = np.array([[1, 2], [2, 1]], dtype=np.int64)
        assert segment_feasible(values, 2, 0, 1)

    def test_invalid_range(self):
        values = staircase(3, 5).generate()
        with pytest.raises(ConfigurationError):
            segment_feasible(values, 1, 3, 2)
        with pytest.raises(ConfigurationError):
            segment_feasible(values, 1, 0, 5)
        # k == n has a trivially feasible segment, but a bad range is
        # still refused.
        with pytest.raises(ConfigurationError):
            segment_feasible(values, 3, 3, 2)
        with pytest.raises(ConfigurationError):
            segment_feasible(values, 3, 0, 5)

    def test_subinterval_closure(self):
        """Feasibility is closed under shrinking (the greedy's soundness)."""
        values = random_walk(6, 40, seed=3, step_size=5).generate()
        for start in (0, 7):
            for end in (start, start + 5, 30):
                if segment_feasible(values, 2, start, end):
                    assert segment_feasible(values, 2, start, max(start, end - 1))


class TestGreedySegmentation:
    def test_static_single_segment(self):
        values = staircase(5, 50).generate()
        assert opt_segments(values, 2) == [(0, 49)]

    def test_cover_exact_and_disjoint(self):
        values = random_walk(8, 120, seed=4, step_size=6).generate()
        segs = opt_segments(values, 3)
        assert segs[0][0] == 0 and segs[-1][1] == 119
        for (s1, e1), (s2, e2) in zip(segs, segs[1:]):
            assert s2 == e1 + 1
            assert s1 <= e1

    def test_each_segment_feasible_and_maximal(self):
        values = random_walk(6, 80, seed=5, step_size=8).generate()
        segs = opt_segments(values, 2)
        for s, e in segs:
            assert segment_feasible(values, 2, s, e)
            if e + 1 < values.shape[0]:
                assert not segment_feasible(values, 2, s, e + 1)

    def test_crossing_pair_one_segment_per_phase(self):
        values = crossing_pair(6, 60, k=2, period=10, delta=8, seed=0).generate()
        segs = opt_segments(values, 2)
        assert len(segs) == 6  # phases of length 10

    def test_k_equals_n_trivial(self):
        values = random_walk(4, 30, seed=1).generate()
        assert opt_segments(values, 4) == [(0, 29)]

    def test_alternating_needs_t_segments(self):
        values = np.array([[10, 1], [1, 10]] * 10, dtype=np.int64)
        segs = opt_segments(values, 1)
        assert len(segs) == 20


class TestDpCertificate:
    """I6: greedy count == DP minimum on random instances."""

    @given(st.integers(0, 10**5))
    @settings(max_examples=25, deadline=None)
    def test_greedy_matches_dp(self, seed):
        gen = np.random.default_rng(seed)
        T = int(gen.integers(2, 25))
        n = int(gen.integers(2, 6))
        k = int(gen.integers(1, n))
        style = int(gen.integers(0, 2))
        if style == 0:
            values = gen.integers(0, 12, (T, n)).astype(np.int64)  # tie-heavy
        else:
            values = np.cumsum(gen.integers(-4, 5, (T, n)), axis=0).astype(np.int64) + 100
        greedy = len(opt_segments(values, k))
        dp = opt_segments_dp(values, k)
        assert greedy == dp, f"greedy {greedy} != dp {dp} (seed {seed})"

    def test_dp_simple_cases(self):
        values = staircase(4, 10).generate()
        assert opt_segments_dp(values, 2) == 1
        values = np.array([[10, 1], [1, 10], [10, 1]], dtype=np.int64)
        assert opt_segments_dp(values, 1) == 3


class TestOptResult:
    def test_epochs_and_communications(self):
        values = crossing_pair(6, 40, k=2, period=10, delta=8, seed=0).generate()
        res = opt_result(values, 2)
        assert res.epochs == len(res.segments)
        assert res.communications == res.epochs - 1
        assert res.boundaries() == [s for s, _ in res.segments[1:]]

    def test_static_zero_communications(self):
        values = staircase(5, 30).generate()
        res = opt_result(values, 2)
        assert res.communications == 0
        assert res.epochs == 1

    def test_opt_lower_bounds_online(self):
        """The online algorithm can never beat OPT's epoch count in events.

        Every OPT boundary forces at least one online violation, so the
        online handler+reset count must be >= OPT communications.
        """
        from repro.core.monitor import TopKMonitor

        values = random_walk(8, 150, seed=6, step_size=5, spread=20).generate()
        res = TopKMonitor(n=8, k=3, seed=1).run(values)
        opt = opt_result(values, 3)
        assert res.handler_calls >= opt.communications


class TestMessagesLowerBound:
    """The Summary's stronger OPT accounting (per filter message)."""

    def test_static_instance_init_only(self):
        values = staircase(6, 30).generate()
        opt = opt_result(values, 2)
        assert opt.messages_lower_bound(values, 2) == 3  # k+1 at init

    def test_grows_with_boundaries(self):
        values = crossing_pair(8, 80, k=2, period=10, delta=8, seed=0).generate()
        opt = opt_result(values, 2)
        lb = opt.messages_lower_bound(values, 2)
        # each of the 7 boundaries swaps one member: 1 bcast + 2 flips each
        assert lb == (2 + 1) + 7 * (1 + 2)

    def test_at_least_epochs(self):
        values = random_walk(8, 100, seed=3, step_size=5).generate()
        opt = opt_result(values, 3)
        assert opt.messages_lower_bound(values, 3) >= opt.epochs

    def test_k_equals_n_is_zero(self):
        """At k == n every node is in the top-k: nothing to learn or move,
        and every engine charges 0 messages."""
        values = np.array([[3, 1, 2], [1, 2, 3]])
        assert opt_result(values, 3).messages_lower_bound(values, 3) == 0
        for engine in ("faithful", "vectorized", "fast"):
            result = repro.run(RunSpec(values, k=3, seed=0), engine=engine)
            assert result.total_messages == 0

    def test_online_cost_still_above_lower_bound(self):
        from repro.core.monitor import TopKMonitor

        values = random_walk(8, 150, seed=4, step_size=5, spread=30).generate()
        opt = opt_result(values, 3)
        res = TopKMonitor(n=8, k=3, seed=5).run(values)
        assert res.total_messages >= opt.messages_lower_bound(values, 3)
