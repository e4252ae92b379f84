"""Tests for the distributed state-machine implementation.

The headline assertion is the three-way differential: faithful engine,
vectorized engine, and distributed state machines produce bit-identical
trajectories and message counts for equal seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.events import MonitorResult
from repro.core.monitor import TopKMonitor
from repro.distributed import run_distributed
from repro.distributed.node import NodeAgent
from repro.streams import (
    churn_below_boundary,
    crossing_pair,
    iid_uniform,
    random_walk,
    staircase,
)
from repro.types import Side


class TestNodeAgent:
    def test_violation_sides(self):
        nd = NodeAgent(0, 4, 2)
        nd.initialized = True
        nd.side = Side.TOP
        nd.m2 = 20  # bound M = 10
        nd.observe(9)
        assert nd.violation() is Side.TOP
        nd.observe(10)
        assert nd.violation() is None
        nd.side = Side.BOTTOM
        nd.observe(11)
        assert nd.violation() is Side.BOTTOM

    def test_uninitialized_never_violates(self):
        nd = NodeAgent(0, 4, 2)
        nd.observe(10**9)
        assert nd.violation() is None

    def test_coin_send_once(self):
        nd = NodeAgent(3, 4, 2)
        nd.observe(7)
        nd.arm(+1)
        assert nd.coin(False) is None
        assert nd.protocol_active
        assert nd.coin(True) == (3, 7)
        assert not nd.protocol_active
        assert nd.coin(True) is None  # already sent

    def test_round_broadcast_deactivates_strictly(self):
        nd = NodeAgent(0, 4, 2)
        nd.observe(5)
        nd.arm(+1)
        nd.hear_round_broadcast(5)  # tie: stays active
        assert nd.protocol_active
        nd.hear_round_broadcast(6)
        assert not nd.protocol_active

    def test_min_protocol_orientation(self):
        nd = NodeAgent(0, 4, 2)
        nd.observe(5)
        nd.arm(-1)
        nd.hear_round_broadcast(-4)  # someone has value 4 < 5: beats us in MIN
        assert not nd.protocol_active

    def test_side_learned_from_sweep_broadcasts(self):
        # Node 2 wins sweep 1 (named at sweep 2's start) with k=2 -> TOP.
        nd = NodeAgent(2, 4, 2)
        nd.observe(50)
        nd.hear_sweep_start(None, 1)
        nd.hear_sweep_start(2, 2)  # I won sweep 1
        assert not nd.protocol_active  # excluded now
        nd.hear_sweep_start(0, 3)
        nd.hear_reset_bound(60, last_winner=1)
        assert nd.side is Side.TOP
        assert nd.initialized

    def test_last_winner_is_bottom(self):
        # With k=2, the sweep-3 winner (named in the final broadcast) is BOTTOM.
        nd = NodeAgent(1, 4, 2)
        nd.hear_sweep_start(None, 1)
        nd.hear_sweep_start(2, 2)
        nd.hear_sweep_start(0, 3)
        nd.hear_reset_bound(60, last_winner=1)
        assert nd.side is Side.BOTTOM

    def test_never_named_is_bottom(self):
        nd = NodeAgent(3, 4, 2)
        nd.hear_sweep_start(None, 1)
        nd.hear_sweep_start(2, 2)
        nd.hear_sweep_start(0, 3)
        nd.hear_reset_bound(60, last_winner=1)
        assert nd.side is Side.BOTTOM


class TestDistributedCorrectness:
    def test_static_staircase(self):
        values = staircase(8, 50).generate()
        res = run_distributed(values, 3, seed=1)
        assert res.resets == 1
        assert MonitorResult.check_history(res.topk_history, values, 3) == 0

    def test_valid_on_walks(self):
        values = random_walk(10, 250, seed=2, step_size=5, spread=20).generate()
        res = run_distributed(values, 4, seed=3)
        assert MonitorResult.check_history(res.topk_history, values, 4) == 0

    def test_k_equals_n(self):
        values = random_walk(5, 20, seed=1).generate()
        res = run_distributed(values, 5, seed=1)
        assert res.total_messages == 0


THREE_WAY_CASES = [
    ("walk_tight", lambda: random_walk(12, 300, seed=1, step_size=5, spread=0).generate(), 3),
    ("walk_spread", lambda: random_walk(12, 300, seed=2, step_size=5, spread=80).generate(), 3),
    ("iid", lambda: iid_uniform(9, 150, seed=3).generate(), 4),
    ("crossing", lambda: crossing_pair(10, 200, k=3, period=12, delta=32, seed=5).generate(), 3),
    ("churn_below", lambda: churn_below_boundary(10, 120, k=3, seed=6).generate(), 3),
]


class TestThreeWayDifferential:
    @pytest.mark.parametrize("name,factory,k", THREE_WAY_CASES, ids=[c[0] for c in THREE_WAY_CASES])
    def test_all_three_engines_identical(self, name, factory, k):
        values = factory()
        n = values.shape[1]
        seed = 77
        faithful = TopKMonitor(n=n, k=k, seed=seed).run(values)
        vector = repro.run(repro.RunSpec(values, k=k, seed=seed), engine="vectorized")
        dist = run_distributed(values, k, seed=seed)

        assert np.array_equal(faithful.topk_history, dist.topk_history), name
        assert np.array_equal(vector.topk_history, dist.topk_history), name
        assert faithful.reset_times() == dist.reset_times
        assert faithful.handler_times() == dist.handler_times
        f_phases = {p.value: c for p, c in faithful.ledger.by_phase.items() if c}
        d_phases = {p.value: c for p, c in dist.ledger.by_phase.items() if c}
        assert f_phases == d_phases, name
        assert faithful.total_messages == dist.total_messages == vector.total_messages

    @given(st.integers(0, 10**5))
    @settings(max_examples=15, deadline=None)
    def test_three_way_property(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 9))
        k = int(gen.integers(1, n))
        T = int(gen.integers(2, 50))
        values = np.cumsum(gen.integers(-4, 5, (T, n)), axis=0).astype(np.int64) + 300
        proto_seed = seed % 89
        faithful = TopKMonitor(n=n, k=k, seed=proto_seed).run(values)
        dist = run_distributed(values, k, seed=proto_seed)
        assert np.array_equal(faithful.topk_history, dist.topk_history)
        assert faithful.total_messages == dist.total_messages


class TestLocality:
    """The distributed implementation must rely on local knowledge only."""

    def test_nodes_learn_bound_only_by_broadcast(self):
        values = random_walk(8, 100, seed=4, step_size=4, spread=30).generate()
        # Run and confirm every node's local m2 equals the coordinator's.
        from repro.distributed.runtime import _Runtime
        from repro.distributed.runtime import DistributedResult

        rt = _Runtime(8, 3, seed=5)
        history = np.empty((100, 3), dtype=np.int64)
        result = DistributedResult(n=8, k=3, steps=100, topk_history=history, ledger=rt.ledger)
        for t in range(100):
            rt.step(t, values[t], result)
            for nd in rt.nodes:
                assert nd.m2 == rt.coordinator.m2
            # sides partition correctly: exactly k TOP
            tops = [nd.id for nd in rt.nodes if nd.side is Side.TOP]
            assert len(tops) == 3
            assert sorted(tops) == rt.coordinator.topk
