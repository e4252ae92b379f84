"""Fault-injection layer (repro/faults): plans, runtime, liars.

The load-bearing invariant: with the fault layer disabled (null plan),
every engine is bit-identical to the clean code — trajectory, ledger,
reset/handler counters, everything.  The differential tests here enforce
it over the catalog workloads; the rest of the suite checks that each
fault actually injects, is seeded-deterministic, and that the protocol
degrades the way the paper's model says it must (detectable faults heal
through the reset path; in-filter lies are undetectable by design).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import run_distributed
from repro.errors import ConfigurationError
from repro.faults import (
    BYZANTINE_STRATEGIES,
    FAULT_PROFILES,
    CrashWindow,
    FaultPlan,
    LinkFaults,
    adversary_search,
    fault_profile,
    lie,
    plan_strategy,
    run_faulty,
    topk_error_count,
)
from repro.model.message import Phase
from repro.streams import get_workload

N, K, STEPS = 8, 3, 60


def _matrix(name: str, seed: int = 5, n: int = N, steps: int = STEPS) -> np.ndarray:
    return get_workload(name, n, steps, seed=seed).generate()


class _Raises:
    """Shorthand: every ctor call in the list must raise ConfigurationError."""

    @staticmethod
    def all(calls):
        for call in calls:
            with pytest.raises(ConfigurationError):
                call()


class TestFaultPlanValidation:
    def test_probabilities_bounded(self):
        _Raises.all(
            [
                lambda: LinkFaults(drop=-0.1),
                lambda: LinkFaults(drop=1.5),
                lambda: LinkFaults(duplicate=2.0),
                lambda: LinkFaults(delay=-1.0),
                lambda: LinkFaults(max_delay=0),
            ]
        )

    def test_crash_window_ordering(self):
        _Raises.all(
            [
                lambda: CrashWindow(node=-1, down_at=0, up_at=1),
                lambda: CrashWindow(node=0, down_at=3, up_at=3),
                lambda: CrashWindow(node=0, down_at=-1, up_at=2),
            ]
        )

    def test_byzantine_assignments_checked(self):
        _Raises.all(
            [
                lambda: FaultPlan(byzantine=((0, "gaslight"),)),
                lambda: FaultPlan(byzantine=((1, "boundary"), (1, "understate"))),
                lambda: FaultPlan(max_retries=-1),
            ]
        )

    def test_null_plan_is_null(self):
        assert FaultPlan().is_null
        assert not FaultPlan(uplink=LinkFaults(drop=0.1)).is_null
        assert not FaultPlan(crashes=(CrashWindow(node=0, down_at=1, up_at=2),)).is_null
        assert not FaultPlan(byzantine=((0, "boundary"),)).is_null
        assert not FaultPlan(drop_at=((3, 0),)).is_null

    def test_null_fate_draws_no_randomness(self):
        """The bit-identity fast path: a perfect link never touches the rng."""
        link = LinkFaults()
        plan = FaultPlan()
        rng = plan.rng()
        before = rng.bit_generator.state
        for _ in range(10):
            assert link.fate(rng) == (1, 0)
        assert rng.bit_generator.state == before

    def test_scheduled_drop_beats_randomness(self):
        plan = FaultPlan(drop_at=((4, 2),))
        rng = plan.rng()
        before = rng.bit_generator.state
        assert plan.uplink_fate(rng, 4, 2) == (0, 0)
        assert rng.bit_generator.state == before  # schedule is deterministic
        assert plan.uplink_fate(rng, 4, 1) == (1, 0)
        assert plan.uplink_fate(rng, 5, 2) == (1, 0)

    def test_down_set_and_rejoiners(self):
        plan = FaultPlan(
            crashes=(
                CrashWindow(node=1, down_at=2, up_at=5),
                CrashWindow(node=3, down_at=4, up_at=5),
            )
        )
        assert plan.down_set(1) == frozenset()
        assert plan.down_set(2) == {1}
        assert plan.down_set(4) == {1, 3}
        assert plan.down_set(5) == frozenset()

    def test_profiles(self):
        assert fault_profile("clean").is_null
        assert not fault_profile("lossy").is_null
        chaotic = fault_profile("chaotic", n=6, steps=30)
        assert chaotic.crashes and chaotic.crashes[0].node == 5
        assert fault_profile("byzantine").liars() == {0: "boundary"}
        with pytest.raises(ConfigurationError, match="unknown fault profile"):
            fault_profile("garbage")
        assert set(FAULT_PROFILES) == {"clean", "lossy", "chaotic", "byzantine"}


class TestNullPlanBitIdentity:
    """Fault layer disabled => bit-identical to the clean distributed engine."""

    @pytest.mark.parametrize("workload", ["random_walk", "iid_uniform", "boundary_flutter"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_differential(self, workload, seed):
        values = _matrix(workload, seed=seed)
        clean = run_distributed(values, K, seed=seed)
        for plan in (None, FaultPlan(seed=123)):
            faulty = run_faulty(values, K, seed=seed, plan=plan)
            assert np.array_equal(faulty.topk_history, clean.topk_history)
            assert faulty.total_messages == clean.total_messages
            assert faulty.ledger.by_phase == clean.ledger.by_phase
            assert faulty.ledger.by_kind == clean.ledger.by_kind
            assert faulty.resets == clean.resets
            assert faulty.handler_calls == clean.handler_calls
            assert faulty.stats.faults_injected == 0
            assert faulty.topk_errors == 0

    def test_k_equals_n_short_circuit(self):
        values = _matrix("random_walk", n=4, steps=10)
        result = run_faulty(values, 4, seed=0)
        assert result.total_messages == 0
        assert result.topk_errors == 0


class TestFaultyRuntime:
    def test_lossy_injects_and_is_deterministic(self):
        values = _matrix("boundary_flutter")
        plan = fault_profile("lossy", seed=3)
        a = run_faulty(values, K, seed=1, plan=plan)
        b = run_faulty(values, K, seed=1, plan=plan)
        assert a.stats.faults_injected > 0
        assert a.stats.as_dict() == b.stats.as_dict()
        assert np.array_equal(a.topk_history, b.topk_history)
        assert a.total_messages == b.total_messages

    def test_different_plan_seeds_differ(self):
        values = _matrix("random_walk")
        a = run_faulty(values, K, seed=1, plan=fault_profile("lossy", seed=0))
        b = run_faulty(values, K, seed=1, plan=fault_profile("lossy", seed=1))
        assert a.stats.as_dict() != b.stats.as_dict()

    def test_crash_recovery_resyncs_and_charges(self):
        values = _matrix("random_walk")
        plan = FaultPlan(crashes=(CrashWindow(node=N - 1, down_at=STEPS // 3, up_at=STEPS // 2),))
        result = run_faulty(values, K, seed=2, plan=plan)
        assert result.stats.crashes == 1
        assert result.stats.resyncs == 1
        # The rejoin is charged: one resync uplink message plus a reset.
        assert result.ledger.by_phase[Phase.RESYNC] >= 1
        assert result.resets >= 1  # the rejoin path forces a filter reset

    def test_byzantine_liar_is_undetectable_but_corrupts(self):
        """In-filter lies trigger no violations yet break the reported set."""
        values = _matrix("boundary_flutter", steps=80)
        plan = FaultPlan(byzantine=((0, "boundary"), (1, "understate")))
        result = run_faulty(values, K, seed=4, plan=plan)
        clean = run_distributed(values, K, seed=4)
        # Liars go silent: they never report violations, so the protocol
        # spends no *more* than the clean run on detection.
        assert result.stats.faults_injected == 0
        assert result.topk_errors > 0
        assert result.error_rate > 0
        assert result.total_messages <= clean.total_messages

    def test_lies_stay_inside_the_filter(self):
        """Undetectability by construction: for any strategy, m2 and side,
        the claimed value never violates the node's own filter bound."""
        for strategy in sorted(BYZANTINE_STRATEGIES):
            for m2 in (-7, -1, 0, 1, 2, 9, 1000):
                for value in (-500, -1, 0, 3, m2, 500):
                    top = lie(strategy, value, True, m2, True)
                    assert 2 * top >= m2, (strategy, m2, value)
                    bottom = lie(strategy, value, False, m2, True)
                    assert 2 * bottom <= m2, (strategy, m2, value)

    def test_lie_verbatim_before_initialization(self):
        for strategy in sorted(BYZANTINE_STRATEGIES):
            assert lie(strategy, 42, True, 0, False) == 42


class TestTopkErrorCount:
    def test_valid_history_is_clean(self):
        values = _matrix("random_walk")
        clean = run_distributed(values, K, seed=0)
        assert topk_error_count(clean.topk_history, values, K) == 0

    def test_garbage_members_counted_not_misindexed(self):
        values = np.array([[10, 20, 30, 40]] * 3)
        history = np.array([[3, 2], [3, -1], [3, 3]])  # ok, padded, duplicate
        assert topk_error_count(history, values, 2) == 2
        history = np.array([[3, 2], [3, 4], [0, 1]])  # ok, out-of-range, wrong set
        assert topk_error_count(history, values, 2) == 2


class TestAdversarySearch:
    def test_finds_inflation_and_is_deterministic(self):
        values = _matrix("boundary_flutter", steps=40)
        a = adversary_search(values, K, seed=0, trials=6)
        b = adversary_search(values, K, seed=0, trials=6)
        assert a.inflation >= 1.0
        assert a.best_plan == b.best_plan
        assert a.best_messages == b.best_messages
        assert a.trials == 6

    def test_property_search_never_crashes_the_runtime(self):
        """Hypothesis-driven adversary: any valid plan must run to completion
        with a rectangular history and coherent accounting."""
        pytest.importorskip("hypothesis")
        from hypothesis import HealthCheck, given, settings, target

        values = _matrix("random_walk", n=5, steps=12)

        @settings(
            max_examples=15,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(plan=plan_strategy(5, 12))
        def run(plan):
            result = run_faulty(values, 2, seed=0, plan=plan)
            assert result.topk_history.shape == (12, 2)
            assert 0 <= result.topk_errors <= 12
            assert result.total_messages >= 0
            if plan.is_null:
                assert result.stats.faults_injected == 0
            target(float(result.total_messages), label="messages")

        run()


class TestE10Smoke:
    def test_experiment_passes(self):
        from repro.experiments import get_experiment

        out = get_experiment("e10").runner("smoke")
        assert out.passed, [f.observed for f in out.findings if not f.passed]
