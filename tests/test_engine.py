"""Differential tests between the faithful, vectorized and fast engines (I4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.events import MonitorResult
from repro.core.monitor import MonitorConfig
from repro.engine.compare import _compare_counting_results
from repro.core.protocols import ProtocolConfig
from repro.engine import differential_check
from repro.errors import ConfigurationError
from repro.streams import (
    adversarial_rotation,
    churn_below_boundary,
    crossing_pair,
    get_workload,
    iid_uniform,
    list_workloads,
    random_walk,
    sensor_field,
    staircase,
)


def _run(values, k, *, seed, engine="vectorized", **config):
    """One counting-engine run through the unified front door."""
    spec = repro.RunSpec(values, k=k, seed=seed, config=MonitorConfig(**config))
    return repro.run(spec, engine=engine)


class TestVectorizedBasics:
    def test_static_only_init(self):
        values = staircase(8, 50).generate()
        res = _run(values, 3, seed=1)
        assert res.resets == 1
        assert res.handler_calls == 0
        assert res.total_messages == res.by_phase["reset_protocol"] + res.by_phase[
            "protocol_round"
        ] + res.by_phase["protocol_start"] + res.by_phase["reset_broadcast"]

    def test_answers_valid(self):
        values = random_walk(10, 200, seed=2, step_size=5).generate()
        res = _run(values, 4, seed=3)
        assert MonitorResult.check_history(res.topk_history, values, 4) == 0

    def test_k_equals_n(self):
        values = random_walk(5, 30, seed=1).generate()
        res = _run(values, 5, seed=1)
        assert res.total_messages == 0
        assert np.array_equal(res.topk_history[0], np.arange(5))

    def test_rejects_every_round_policy(self):
        values = staircase(4, 5).generate()
        with pytest.raises(NotImplementedError):
            _run(values, 2, seed=0, protocol=ProtocolConfig(broadcast_every_round=True))

    def test_handler_vs_reset_times_disjoint(self):
        values = random_walk(10, 300, seed=4, step_size=6).generate()
        res = _run(values, 3, seed=5)
        assert not (set(res.handler_times) & set(res.reset_times))


WORKLOAD_CASES = [
    ("walk_tight", lambda: random_walk(12, 400, seed=1, step_size=5, spread=0).generate(), 3),
    ("walk_spread", lambda: random_walk(12, 400, seed=2, step_size=5, spread=80).generate(), 3),
    ("iid", lambda: iid_uniform(9, 250, seed=3).generate(), 4),
    ("rotation", lambda: adversarial_rotation(8, 200, seed=4).generate(), 2),
    ("crossing", lambda: crossing_pair(10, 300, k=3, period=12, delta=32, seed=5).generate(), 3),
    ("churn_below", lambda: churn_below_boundary(10, 200, k=3, seed=6).generate(), 3),
    ("sensor", lambda: sensor_field(10, 300, seed=7).generate(), 3),
]


class TestDifferential:
    @pytest.mark.parametrize("name,factory,k", WORKLOAD_CASES, ids=[c[0] for c in WORKLOAD_CASES])
    def test_exact_match_across_workloads(self, name, factory, k):
        values = factory()
        report = differential_check(values, k, seed=42)
        assert report.equal, report.detail
        assert report.faithful_messages == report.vectorized_messages

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_exact_match_across_k(self, k):
        values = random_walk(10, 300, seed=8, step_size=4, spread=30).generate()
        report = differential_check(values, k, seed=7)
        assert report.equal, report.detail

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_exact_match_across_seeds(self, seed):
        values = random_walk(8, 250, seed=9, step_size=5).generate()
        report = differential_check(values, 3, seed=seed)
        assert report.equal, report.detail

    def test_skip_redundant_min_variant(self):
        """Ablation A2 runs on the faithful engine: same answers, fewer
        ``handler_min`` messages than the listing it ablates."""
        values = random_walk(10, 300, seed=10, step_size=5).generate()
        listing = _run(values, 3, seed=1, engine="faithful")
        skip = _run(values, 3, seed=1, engine="faithful", skip_redundant_min=True)
        assert np.array_equal(skip.topk_history, listing.topk_history)
        assert skip.by_phase.get("handler_min", 0) < listing.by_phase["handler_min"]

    @given(st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_exact_match_property(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 10))
        k = int(gen.integers(1, n + 1))
        T = int(gen.integers(2, 80))
        style = int(gen.integers(0, 2))
        if style == 0:
            values = gen.integers(0, 25, (T, n)).astype(np.int64)
        else:
            values = np.cumsum(gen.integers(-4, 5, (T, n)), axis=0).astype(np.int64) + 200
        report = differential_check(values, k, seed=seed % 97)
        assert report.equal, f"seed={seed}: {report.detail}"


def _counting_results_equal(a, b) -> bool:
    """Exact equality of two counting-engine results.

    Delegates to the engine-side comparator so the equality definition
    cannot drift from the one ``differential_check`` enforces.
    """
    return _compare_counting_results(a, b) is None


class TestThreeWayDifferential:
    """fast vs vectorized vs faithful over the full workload registry.

    The registry sweep is the strongest structural check in the repo: every
    workload family × every interesting k must agree bit-for-bit across all
    three engines (trajectory, reset/handler times, per-phase counts).
    """

    N = 10
    STEPS = 250

    @pytest.mark.parametrize("name", list_workloads())
    @pytest.mark.parametrize("k_kind", ["one", "half", "n_minus_1", "n"])
    def test_registry_workloads_across_k(self, name, k_kind):
        n = self.N
        k = {"one": 1, "half": n // 2, "n_minus_1": n - 1, "n": n}[k_kind]
        overrides = {"k": 3} if name == "crossing_pair" else {}
        values = get_workload(name, n, self.STEPS, seed=21, **overrides).generate()
        report = differential_check(values, k, seed=17)
        assert report.equal, f"{name} k={k}: {report.detail}"
        assert report.faithful_messages == report.vectorized_messages == report.fast_messages

    @pytest.mark.parametrize("name", list_workloads())
    def test_fast_matches_vectorized_field_by_field(self, name):
        overrides = {"k": 3} if name == "crossing_pair" else {}
        values = get_workload(name, 12, 300, seed=5, **overrides).generate()
        vec = _run(values, 4, seed=11)
        fast = _run(values, 4, seed=11, engine="fast")
        assert _counting_results_equal(vec, fast), name

    def test_skip_redundant_min_variant(self):
        """The counting engines run the listed protocol only: A2 is refused,
        naming the faithful engine."""
        values = random_walk(10, 300, seed=10, step_size=5).generate()
        for engine in ("vectorized", "fast"):
            with pytest.raises(ConfigurationError, match="skip_redundant_min.*faithful"):
                _run(values, 3, seed=1, engine=engine, skip_redundant_min=True)

    def test_uncharged_start_variant(self):
        """A start broadcast left uncharged is refused the same way; the
        faithful engine runs it."""
        values = random_walk(10, 300, seed=10, step_size=5).generate()
        uncharged = ProtocolConfig(charge_start_broadcast=False)
        for engine in ("vectorized", "fast"):
            with pytest.raises(ConfigurationError, match="charge_start_broadcast.*faithful"):
                _run(values, 3, seed=1, engine=engine, protocol=uncharged)
        faithful = _run(values, 3, seed=1, engine="faithful", protocol=uncharged)
        assert faithful.by_phase.get("protocol_start", 0) == 0

    def test_rejects_every_round_policy(self):
        values = staircase(4, 5).generate()
        with pytest.raises(NotImplementedError):
            _run(
                values, 2, seed=0, engine="fast",
                protocol=ProtocolConfig(broadcast_every_round=True),
            )

    def test_answers_valid(self):
        values = random_walk(10, 200, seed=2, step_size=5).generate()
        res = _run(values, 4, seed=3, engine="fast")
        assert MonitorResult.check_history(res.topk_history, values, 4) == 0

    def test_int64_edge_rows(self):
        """A value of 2^62 doubles past int64, and the extremes negate to
        themselves: every engine still answers the true top-1, with equal
        counts."""
        values = np.array(
            [[10, 0], [10, 2**62], [-(2**63), 2**63 - 1], [2**63 - 1, -(2**63)]], dtype=np.int64
        )
        report = differential_check(values, 1, seed=3)
        assert report.equal, report.detail
        fast = _run(values, 1, seed=3, engine="fast")
        assert fast.topk_history.ravel().tolist() == [0, 1, 1, 0]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_full_int64_range_property(self, data):
        """Rows drawn from the whole int64 range: the three engines agree
        bit for bit and every answer is a valid top-k set."""
        n = data.draw(st.integers(2, 6), label="n")
        k = data.draw(st.integers(1, n - 1), label="k")
        edges = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**62, 2**63 - 1])
        value = st.one_of(edges, st.integers(-(2**63), 2**63 - 1))
        rows = data.draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1,
                                  max_size=12))
        values = np.array(rows, dtype=np.int64)
        report = differential_check(values, k, seed=data.draw(st.integers(0, 99)))
        assert report.equal, report.detail
        fast = _run(values, k, seed=0, engine="fast")
        assert MonitorResult.check_history(fast.topk_history, values, k) == 0

    @given(st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_fast_matches_vectorized_property(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 10))
        k = int(gen.integers(1, n + 1))
        T = int(gen.integers(2, 80))
        if int(gen.integers(0, 2)) == 0:
            values = gen.integers(0, 25, (T, n)).astype(np.int64)
        else:
            values = np.cumsum(gen.integers(-4, 5, (T, n)), axis=0).astype(np.int64) + 200
        vec = _run(values, k, seed=seed % 89)
        fast = _run(values, k, seed=seed % 89, engine="fast")
        assert _counting_results_equal(vec, fast), f"seed={seed}"


class TestCoinsNeverChangeTheAnswer:
    """Algorithm 2 is Las Vegas: the coins price an execution, never its
    winner.  So one matrix run under two seeds keeps its trajectory, reset
    times and handler times on every catalog workload; only the message
    counts may differ."""

    @pytest.mark.parametrize("engine", ["fast", "faithful"])
    @pytest.mark.parametrize("name", list_workloads())
    def test_two_seeds_same_trajectory(self, name, engine):
        overrides = {"k": 3} if name == "crossing_pair" else {}
        values = get_workload(name, 12, 200, seed=9, **overrides).generate()
        a = _run(values, 3, seed=1, engine=engine)
        b = _run(values, 3, seed=2, engine=engine)
        assert np.array_equal(a.topk_history, b.topk_history)
        assert a.reset_times == b.reset_times
        assert a.handler_times == b.handler_times


class TestVectorizedSpeedup:
    def test_faster_than_faithful_on_large_instance(self):
        """The vectorized engine exists to be faster; verify it is."""
        import time

        values = random_walk(128, 1500, seed=11, step_size=4, spread=60).generate()
        from repro.core.monitor import TopKMonitor

        t0 = time.perf_counter()
        TopKMonitor(n=128, k=8, seed=1).run(values)
        faithful = time.perf_counter() - t0
        t0 = time.perf_counter()
        _run(values, 8, seed=1)
        vector = time.perf_counter() - t0
        # Generous margin: CI machines are noisy; it must at least not be slower.
        assert vector <= faithful * 1.2, f"vectorized {vector:.3f}s vs faithful {faithful:.3f}s"

    def test_fast_engine_not_slower_than_vectorized_on_quiet_walk(self):
        """Segment skipping must win on the quiet-heavy regime it targets.

        The ~10x headline number lives in benchmarks/bench_engines.py; here
        the margin is deliberately loose so CI noise cannot flake the suite.
        """
        import time

        values = random_walk(64, 1500, seed=13, step_size=3, spread=200).generate()
        _run(values, 8, seed=14)  # warm both paths
        _run(values, 8, seed=14, engine="fast")

        def best_of(fn, rounds=3):
            times = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        vector = best_of(lambda: _run(values, 8, seed=14))
        fast = best_of(lambda: _run(values, 8, seed=14, engine="fast"))
        # Generous margin: CI machines are noisy; it must at least not be slower.
        assert fast <= vector * 1.2, f"fast {fast:.4f}s vs vectorized {vector:.4f}s"
