"""Cross-cutting property tests tying the implementation to the theory.

These are the "paper-shaped" invariants: negative correlation of senders
(the Chernoff precondition in Theorem 4.2), Lemma 3.2 on the monitor's
running extremes, extreme-value robustness of the doubled-bound arithmetic,
and end-to-end determinism guarantees.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import StepKind
from repro.core.monitor import MonitorConfig, OnlineSession, TopKMonitor
from repro.core.protocols import maximum_protocol
from repro.engine import differential_check
from repro.model.message import MessageKind, Phase
from repro.model.transport import RecordingTransport
from repro.streams import random_walk
from repro.util.seeding import derive_rng


class TestNegativeCorrelation:
    """Reproduction finding on Theorem 4.2's proof (experiment E2 reports
    it too): the paper claims the sender indicators are
    negatively correlated (``P[∀i∈I: X_i] <= ∏ P[X_i]``) to justify the
    Chernoff step.  Empirically this is FALSE pairwise: adjacent-rank
    indicators are *positively* correlated — both are coupled through the
    common cause "the higher-ranked nodes' coins succeeded late".  The
    theorem's conclusion (fast tail decay) nevertheless holds (E2).

    This test pins the observed behaviour so the discrepancy stays
    documented rather than silently drifting.
    """

    def test_adjacent_rank_indicators_positively_correlated(self):
        n, reps = 16, 8000
        rng = derive_rng(42, 0)
        ids = np.arange(n)
        vals = np.arange(n, dtype=np.int64)[::-1].copy()  # node i has rank i
        sent = np.zeros((reps, n), dtype=bool)
        for rep in range(reps):
            tr = RecordingTransport()
            maximum_protocol(ids, vals, n, rng, tr)
            for m in tr.of_kind(MessageKind.NODE_TO_COORD):
                sent[rep, m.payload[0]] = True
        p1, p2 = sent[:, 1].mean(), sent[:, 2].mean()
        p12 = (sent[:, 1] & sent[:, 2]).mean()
        se = np.sqrt(p12 * (1 - p12) / reps)
        # P[X1 ∧ X2] exceeds the product by many standard errors.
        assert p12 - p1 * p2 > 3 * se, f"expected positive correlation, got {p12 - p1*p2:+.4f}"

    def test_distant_rank_correlation_negligible(self):
        """Far-apart ranks decouple: the product bound is near-tight there."""
        n, reps = 16, 8000
        rng = derive_rng(43, 0)
        vals = np.arange(n, dtype=np.int64)[::-1].copy()
        sent = np.zeros((reps, n), dtype=bool)
        for rep in range(reps):
            tr = RecordingTransport()
            maximum_protocol(np.arange(n), vals, n, rng, tr)
            for m in tr.of_kind(MessageKind.NODE_TO_COORD):
                sent[rep, m.payload[0]] = True
        p1, p15 = sent[:, 1].mean(), sent[:, 15].mean()
        p = (sent[:, 1] & sent[:, 15]).mean()
        assert abs(p - p1 * p15) < 0.02

    def test_top_rank_always_sends_exactly_once(self):
        n = 16
        rng = derive_rng(7, 0)
        vals = np.arange(n, dtype=np.int64)
        for _ in range(50):
            tr = RecordingTransport()
            maximum_protocol(np.arange(n), vals, n, rng, tr)
            senders = [m.payload[0] for m in tr.of_kind(MessageKind.NODE_TO_COORD)]
            assert senders.count(n - 1) == 1  # the max node sends exactly once
            assert len(senders) == len(set(senders))  # nobody sends twice


class TestLemma32:
    """While no reset occurs, min over TOP >= max over BOTTOM (Lemma 3.2)."""

    def test_running_extremes_ordered_between_resets(self):
        values = random_walk(10, 300, seed=1, step_size=4, spread=40).generate()
        session = OnlineSession(10, 3, seed=2)
        for t in range(values.shape[0]):
            session.observe(values[t])
            # The session's tracked extremes must satisfy T+ >= T- at all
            # times (a reset re-establishes it immediately).
            assert session._t_plus >= session._t_minus
            # And the boundary sits inside [T-, T+].
            m2 = session._m2
            assert 2 * session._t_minus <= m2 <= 2 * session._t_plus

    def test_true_extremes_respect_lemma(self):
        values = random_walk(8, 200, seed=3, step_size=5, spread=60).generate()
        session = OnlineSession(8, 2, seed=4)
        for t in range(values.shape[0]):
            session.observe(values[t])
            top = session.topk
            mask = np.zeros(8, dtype=bool)
            mask[top] = True
            assert values[t][mask].min() >= values[t][~mask].max()


class TestExtremeValues:
    """The doubled-bound arithmetic must survive the int64-safe range."""

    def test_huge_values(self):
        base = 2**60
        gen = np.random.default_rng(0)
        values = (base + np.cumsum(gen.integers(-3, 4, (100, 6)), axis=0)).astype(np.int64)
        res = TopKMonitor(n=6, k=2, seed=1, config=MonitorConfig(audit=True)).run(values)
        assert res.audit_failures == 0

    def test_large_negative_values(self):
        base = -(2**60)
        gen = np.random.default_rng(1)
        values = (base + np.cumsum(gen.integers(-3, 4, (100, 6)), axis=0)).astype(np.int64)
        res = TopKMonitor(n=6, k=2, seed=2, config=MonitorConfig(audit=True)).run(values)
        assert res.audit_failures == 0

    def test_mixed_sign_crossing_zero(self):
        gen = np.random.default_rng(2)
        values = np.cumsum(gen.integers(-5, 6, (150, 8)), axis=0).astype(np.int64)
        res = TopKMonitor(n=8, k=3, seed=3, config=MonitorConfig(audit=True)).run(values)
        assert res.audit_failures == 0

    def test_single_step_run(self):
        values = np.array([[3, 1, 2]], dtype=np.int64)
        res = TopKMonitor(n=3, k=1, seed=4, config=MonitorConfig(audit=True)).run(values)
        assert res.steps == 1
        assert res.topk_at(0) == {0}

    def test_two_nodes(self):
        values = np.array([[1, 2], [2, 1], [1, 2]], dtype=np.int64)
        res = TopKMonitor(n=2, k=1, seed=5, config=MonitorConfig(audit=True)).run(values)
        assert res.audit_failures == 0
        assert res.resets >= 2  # every swap forces one

    def test_constant_all_equal_stream(self):
        values = np.full((50, 6), 7, dtype=np.int64)
        res = TopKMonitor(n=6, k=2, seed=6, config=MonitorConfig(audit=True)).run(values)
        # after the init reset nothing ever violates (ties sit on the bound)
        assert res.handler_calls == 0
        assert res.resets == 1


class TestDeterminismContracts:
    @given(st.integers(0, 10**4))
    @settings(max_examples=15, deadline=None)
    def test_run_is_pure(self, seed):
        """Same (values, seed) -> identical everything, repeatedly."""
        gen = np.random.default_rng(seed)
        values = np.cumsum(gen.integers(-3, 4, (60, 6)), axis=0).astype(np.int64)
        a = TopKMonitor(n=6, k=2, seed=seed).run(values)
        b = TopKMonitor(n=6, k=2, seed=seed).run(values)
        assert np.array_equal(a.topk_history, b.topk_history)
        assert a.total_messages == b.total_messages
        assert [e.time for e in a.events] == [e.time for e in b.events]

    def test_input_matrix_not_mutated(self):
        values = random_walk(6, 80, seed=7, step_size=3).generate()
        copy = values.copy()
        TopKMonitor(n=6, k=2, seed=8).run(values)
        assert np.array_equal(values, copy)

    def test_engines_agree_on_extreme_values(self):
        base = 2**59
        gen = np.random.default_rng(9)
        values = (base + np.cumsum(gen.integers(-4, 5, (80, 6)), axis=0)).astype(np.int64)
        report = differential_check(values, 2, seed=10)
        assert report.equal, report.detail


class TestEventSemantics:
    def test_reset_events_have_no_gap(self):
        values = random_walk(8, 200, seed=11, step_size=6, spread=5).generate()
        res = TopKMonitor(n=8, k=3, seed=12).run(values)
        for e in res.events:
            if e.kind in (StepKind.HANDLER_RESET, StepKind.INIT_RESET):
                assert e.gap is None
            else:
                assert e.gap is not None and e.gap >= 0

    def test_non_init_events_have_violators(self):
        values = random_walk(8, 200, seed=13, step_size=6, spread=5).generate()
        res = TopKMonitor(n=8, k=3, seed=14).run(values)
        for e in res.events:
            if e.kind is StepKind.INIT_RESET:
                continue
            assert e.top_violators + e.bottom_violators >= 1

    def test_violation_counts_bounded_by_sides(self):
        values = random_walk(9, 150, seed=15, step_size=7, spread=0).generate()
        res = TopKMonitor(n=9, k=4, seed=16).run(values)
        for e in res.events:
            assert e.top_violators <= 4
            assert e.bottom_violators <= 5

    def test_midpoint_broadcast_phase_consistency(self):
        values = random_walk(8, 300, seed=17, step_size=4, spread=50).generate()
        res = TopKMonitor(n=8, k=3, seed=18).run(values)
        midpoint_events = [e for e in res.events if e.kind is StepKind.HANDLER_MIDPOINT]
        assert res.ledger.by_phase[Phase.MIDPOINT_BROADCAST] == len(midpoint_events)
        reset_like = [e for e in res.events if e.kind in (StepKind.HANDLER_RESET, StepKind.INIT_RESET)]
        assert res.ledger.by_phase[Phase.RESET_BROADCAST] == len(reset_like)
