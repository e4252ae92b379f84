"""The observability layer (repro/obs): registry, traces, dashboard, wire.

Two load-bearing invariants:

* **Zero overhead when off** — with ``OBS.on`` false (the default), no
  span is recorded and no registry series moves; the perf half of the
  guarantee lives in ``benchmarks/bench_service.py``.
* **Trace continuity across failover** — a row the fleet router resends
  after a worker death carries the trace id of the client push that
  originally delivered it (the acceptance test at the bottom).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest

from repro.errors import ConfigurationError, RegistryError
from repro.obs import (
    OBS,
    RECORDER,
    SpanRecorder,
    counter,
    gauge,
    get_family,
    histogram,
    new_span_id,
    new_trace_id,
    obs_payload,
    registry_snapshot,
    render_prometheus,
    reset_metrics,
    span,
)
from repro.obs.registry import clock as registry_clock
from repro.service.metrics import MetricsRecorder, aggregate_snapshots


@pytest.fixture
def obs_state():
    """Clean obs switch + recorder around each test; restores the default."""
    prev = OBS.on
    OBS.on = False
    RECORDER.clear()
    reset_metrics()
    yield OBS
    OBS.on = prev
    RECORDER.clear()
    reset_metrics()


class TestRegistry:
    def test_counter_and_labels(self, obs_state):
        fam = counter("tobs_demo_total", "demo", ("kind",))
        fam.labels(kind="a").inc()
        fam.labels(kind="a").inc(2)
        fam.labels(kind="b").inc(5)
        values = {lbl["kind"]: s.value for lbl, s in fam.series()}
        assert values == {"a": 3.0, "b": 5.0}

    def test_labelless_family_default_series(self, obs_state):
        fam = counter("tobs_plain_total", "demo")
        fam.inc(4)
        assert fam.value == 4.0
        assert fam.default is fam.labels()

    def test_label_mismatch_raises(self, obs_state):
        fam = counter("tobs_strict_total", "demo", ("kind",))
        with pytest.raises(RegistryError):
            fam.labels(wrong="x")
        with pytest.raises(RegistryError) as err:
            fam.labels()
        # RegistryError stays catchable as ConfigurationError / ValueError.
        assert isinstance(err.value, ConfigurationError)
        assert isinstance(err.value, ValueError)

    def test_redeclare_idempotent_but_conflicts_raise(self, obs_state):
        first = gauge("tobs_gauge", "demo", ("node",))
        again = gauge("tobs_gauge", "other help ignored", ("node",))
        assert again is first
        with pytest.raises(RegistryError):
            counter("tobs_gauge", "demo", ("node",))  # kind conflict
        with pytest.raises(RegistryError):
            gauge("tobs_gauge", "demo", ("other",))  # label conflict

    def test_bad_names_rejected(self, obs_state):
        for bad in ("Has-Dash", "0starts_with_digit", "UPPER", ""):
            with pytest.raises(RegistryError):
                counter(bad, "demo")

    def test_gauge_set_inc_dec(self, obs_state):
        fam = gauge("tobs_level", "demo")
        fam.set(10)
        fam.default.inc(5)
        fam.default.dec(3)
        assert fam.value == 12.0

    def test_histogram_buckets_and_mean(self, obs_state):
        fam = histogram("tobs_lat_seconds", "demo", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            fam.observe(v)
        h = fam.default
        assert h.count == 4
        assert h.counts == [1, 2, 1]  # <=0.1, <=1.0, +Inf
        assert h.mean == pytest.approx((0.05 + 0.5 + 0.7 + 5.0) / 4)

    def test_prometheus_rendering(self, obs_state):
        counter("tobs_prom_total", "a counter", ("phase",)).labels(phase="x").inc(7)
        histogram("tobs_prom_seconds", "a histogram", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus()
        assert "# HELP tobs_prom_total a counter" in text
        assert "# TYPE tobs_prom_total counter" in text
        assert 'tobs_prom_total{phase="x"} 7' in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'tobs_prom_seconds_bucket{le="0.1"} 0' in text
        assert 'tobs_prom_seconds_bucket{le="1"} 1' in text
        assert 'tobs_prom_seconds_bucket{le="+Inf"} 1' in text
        assert "tobs_prom_seconds_sum 0.5" in text
        assert "tobs_prom_seconds_count 1" in text

    def test_snapshot_and_reset(self, obs_state):
        counter("tobs_snap_total", "demo").inc(3)
        snap = registry_snapshot()
        assert snap["tobs_snap_total"]["kind"] == "counter"
        assert snap["tobs_snap_total"]["series"][0]["value"] == 3.0
        json.dumps(snap)  # wire-safe
        reset_metrics()
        assert get_family("tobs_snap_total").value == 0.0

    def test_get_family_unknown_raises(self, obs_state):
        with pytest.raises(RegistryError):
            get_family("tobs_never_declared")


class TestTrace:
    def test_ids_are_unique_and_pid_prefixed(self):
        pid = f"{os.getpid():x}"
        traces = {new_trace_id() for _ in range(100)}
        assert len(traces) == 100
        assert all(t.startswith(f"t{pid}-") for t in traces)
        assert new_span_id().startswith(f"s{pid}-")

    def test_ring_buffer_bounds(self):
        rec = SpanRecorder(capacity=8)
        for i in range(20):
            rec.record("tobs.tick", i=i)
        assert len(rec) == 8
        kept = [s["attrs"]["i"] for s in rec.spans()]
        assert kept == list(range(12, 20))
        assert [s["attrs"]["i"] for s in rec.spans(limit=3)] == [17, 18, 19]

    def test_record_keeps_given_trace(self):
        rec = SpanRecorder()
        entry = rec.record("tobs.hop", trace="t-fixed", parent="s-up", dur_us=12.34)
        assert entry["trace"] == "t-fixed"
        assert entry["parent"] == "s-up"
        assert entry["dur_us"] == 12.3

    def test_span_context_manager_gated(self, obs_state):
        with span("tobs.block", items=1):
            pass
        assert len(RECORDER) == 0  # OBS off: nothing recorded, no dict built
        obs_state.enable()
        with span("tobs.block", items=1):
            pass
        assert len(RECORDER) == 1
        entry = RECORDER.spans()[-1]
        assert entry["name"] == "tobs.block"
        assert entry["attrs"] == {"items": 1}
        assert entry["dur_us"] >= 0.0

    def test_export_jsonl_roundtrip(self, tmp_path):
        rec = SpanRecorder()
        rec.record("tobs.a", x=1)
        rec.record("tobs.b", trace="t-keep")
        path = tmp_path / "trace.jsonl"
        assert rec.export_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in lines] == ["tobs.a", "tobs.b"]
        assert lines[1]["trace"] == "t-keep"

    def test_obs_payload_shape(self, obs_state):
        obs_state.enable()
        counter("tobs_payload_total", "demo").inc()
        RECORDER.record("tobs.payload")
        payload = obs_payload(limit=10)
        assert payload["enabled"] is True
        assert "tobs_payload_total 1" in payload["prom"]
        assert payload["metrics"]["tobs_payload_total"]["series"][0]["value"] == 1.0
        assert payload["spans"][-1]["name"] == "tobs.payload"


class TestDefaultOff:
    def test_default_is_off_without_env(self):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import OBS; print(int(OBS.on))"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.stdout.strip() == "0", out.stderr

    def test_env_switch_enables_at_import(self):
        env = {**os.environ, "REPRO_OBS": "1",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import OBS; print(int(OBS.on))"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.stdout.strip() == "1", out.stderr


class TestAggregateSnapshots:
    def _snapshot(self, recorder: MetricsRecorder, **kwargs) -> dict:
        return recorder.snapshot(**kwargs).as_dict()

    def test_empty_iterable_is_all_zero(self):
        agg = aggregate_snapshots([])
        assert agg["rows_processed"] == 0
        assert agg["rows_per_sec"] == 0.0
        assert agg["window_rows"] == 0
        assert agg["step_latency_p99_us"] == 0.0
        assert agg["uptime_sec"] == 0.0

    def test_single_worker_is_identity(self):
        clock = _FakeClock()
        rec = MetricsRecorder(clock=clock)
        rec.sessions_created = 3
        clock.now = 1.0
        rec.record_sweep(10, 0.001)
        clock.now = 2.0
        snap = self._snapshot(rec, sessions_live=3, live_messages=40)
        agg = aggregate_snapshots([snap])
        for key in ("sessions_live", "rows_processed", "window_rows",
                    "protocol_messages", "step_latency_p50_us",
                    "step_latency_p99_us", "uptime_sec"):
            assert agg[key] == snap[key], key

    def test_rates_and_windows_sum_but_latency_takes_max(self):
        snaps = []
        for i, (rate, p99, uptime) in enumerate([(100.0, 50.0, 10.0),
                                                 (250.0, 20.0, 30.0)]):
            clock = _FakeClock()
            rec = MetricsRecorder(clock=clock)
            clock.now = 1.0
            rec.record_sweep(20 * (i + 1), 0.001)
            snap = self._snapshot(rec, sessions_live=1, live_messages=0)
            snap.update(rows_per_sec=rate, step_latency_p99_us=p99,
                        uptime_sec=uptime)
            snaps.append(snap)
        agg = aggregate_snapshots(snaps)
        assert agg["rows_per_sec"] == 350.0  # parallel workers: rates add
        assert agg["step_latency_p99_us"] == 50.0  # worst worker, not a sum
        assert agg["uptime_sec"] == 30.0  # oldest worker
        assert agg["window_rows"] == 60  # union of reservoirs
        assert agg["rows_processed"] == 60


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestMetricsRecorder:
    def test_clock_shim_is_the_sanctioned_one(self):
        assert MetricsRecorder().clock is registry_clock

    def test_empty_reservoir_snapshot(self):
        snap = MetricsRecorder(clock=_FakeClock()).snapshot(
            sessions_live=0, live_messages=0
        )
        assert snap.window_rows == 0
        assert snap.rows_per_sec == 0.0
        assert snap.step_latency_p50_us == 0.0

    def test_unweighted_percentiles_hand_computed(self):
        clock = _FakeClock()
        rec = MetricsRecorder(clock=clock)
        clock.now = 1.0
        for lat_us in (1, 2, 3, 4):
            rec.record_sweep(1, lat_us * 1e-6)
        clock.now = 2.0
        snap = rec.snapshot(sessions_live=0, live_messages=0)
        # cum weights [1,2,3,4]: p50 target 2.0 -> 2us, p99 target 3.96 -> 4us
        assert snap.step_latency_p50_us == pytest.approx(2.0)
        assert snap.step_latency_p99_us == pytest.approx(4.0)
        assert snap.window_rows == 4

    def test_row_weighted_percentiles(self):
        clock = _FakeClock()
        rec = MetricsRecorder(clock=clock)
        clock.now = 1.0
        # 97 rows at 1us/row, 3 rows at 100us/row: the heavy sweep only
        # shows up past p97 because percentiles weight by rows.
        rec.record_sweep(97, 97 * 1e-6)
        rec.record_sweep(3, 300 * 1e-6)
        clock.now = 2.0
        snap = rec.snapshot(sessions_live=0, live_messages=0)
        assert snap.step_latency_p50_us == pytest.approx(1.0)
        assert snap.step_latency_p99_us == pytest.approx(100.0)
        assert snap.window_rows == 100
        assert snap.rows_per_sec == pytest.approx(100.0)  # 100 rows / 1s window

    def test_window_rows_bounded_by_reservoir(self):
        clock = _FakeClock()
        rec = MetricsRecorder(clock=clock)
        for i in range(5000):  # > _RESERVOIR sweeps of 2 rows each
            clock.now = float(i)
            rec.record_sweep(2, 1e-6)
        snap = rec.snapshot(sessions_live=0, live_messages=0)
        assert snap.rows_processed == 10000  # lifetime counter keeps all
        assert snap.window_rows == 2 * 4096  # window only the reservoir

    def test_snapshot_publishes_gauges_when_on(self, obs_state):
        obs_state.enable()
        clock = _FakeClock()
        rec = MetricsRecorder(clock=clock)
        clock.now = 1.0
        rec.record_sweep(42, 0.001)
        clock.now = 2.0
        snap = rec.snapshot(sessions_live=7, live_messages=0)
        assert get_family("repro_service_rows_processed").value == 42.0
        assert get_family("repro_service_sessions_live").value == 7.0
        assert get_family("repro_service_window_rows").value == snap.window_rows

    def test_snapshot_publishes_nothing_when_off(self, obs_state):
        clock = _FakeClock()
        rec = MetricsRecorder(clock=clock)
        clock.now = 1.0
        rec.record_sweep(42, 0.001)
        rec.snapshot(sessions_live=7, live_messages=0)
        assert get_family("repro_service_rows_processed").value == 0.0


class TestDashboardRender:
    def _poll(self) -> dict:
        return {
            "metrics": {
                "rows_processed": 1234, "rows_per_sec": 56.7,
                "sessions_live": 8, "sessions_created": 9,
                "step_latency_p50_us": 10.0, "step_latency_p99_us": 90.0,
                "window_rows": 500, "rows_batched": 3, "rows_quiet": 4,
                "rows_lookahead": 5, "backpressure_rejections": 0,
                "fleet": {
                    "workers": {"w0": {}, "w1": {}},
                    "standby": True, "failovers": 2,
                    "failover_latency_ms": {"count": 2, "mean": 11.5, "max": 20.0},
                    "rows_replayed": 17, "journal_rows": 40,
                    "per_worker": {
                        "w0": {"rows_per_sec": 30.0, "rows_processed": 700,
                               "sessions_live": 5},
                        "w1": {"rows_per_sec": 10.0, "rows_processed": 534,
                               "sessions_live": 3},
                    },
                },
            },
            "obs": {
                "enabled": True,
                "spans": [{"name": "router.feed", "trace": "t1-1", "ts": 0.0,
                           "span": "s1-1", "dur_us": 5.0,
                           "attrs": {"session": "s1"}}],
            },
        }

    def test_render_fleet_screen(self):
        from repro.obs.dashboard import render

        screen = render(self._poll(), address="127.0.0.1:7787")
        assert "obs on" in screen
        assert "rows 1,234" in screen
        assert "over window of 500 rows" in screen
        assert "failovers 2" in screen
        assert "failover latency mean 11.5ms" in screen
        assert "depth 40 rows" in screen
        assert "router.feed" in screen and "trace t1-1" in screen
        w0_line = next(l for l in screen.splitlines() if l.strip().startswith("w0"))
        w1_line = next(l for l in screen.splitlines() if l.strip().startswith("w1"))
        assert w0_line.count("#") > w1_line.count("#")  # rate-share bars

    def test_render_single_server_has_no_fleet_section(self):
        from repro.obs.dashboard import render

        poll = self._poll()
        del poll["metrics"]["fleet"]
        screen = render(poll, address="x")
        assert "failovers" not in screen
        assert "rows 1,234" in screen

    def test_run_top_iterations(self, monkeypatch):
        import repro.obs.dashboard as dashboard

        polls, screens = [], []
        monkeypatch.setattr(dashboard, "fetch", lambda addr: polls.append(addr) or self._poll())
        count = dashboard.run_top(
            "addr", interval=0.0, iterations=2, clear=False,
            out=screens.append, sleep=lambda s: None,
        )
        assert count == 2 and len(polls) == 2 and len(screens) == 2
        assert "rows 1,234" in screens[0]


class TestServiceWire:
    def test_obs_op_and_feed_spans(self, obs_state):
        from repro.service import ServiceClient, start_server

        obs_state.enable()
        handle = start_server()
        try:
            with ServiceClient(handle.address) as client:
                sess = client.create_session(8, 3, seed=7)
                sess.feed_rows([[i] * 8 for i in range(10)])
                sess.query(wait=True)
                payload = client.obs(limit=100)
                assert payload["enabled"] is True
                assert "repro_service_rows_processed" in payload["prom"]
                feeds = [s for s in payload["spans"] if s["name"] == "server.feed"]
                assert feeds, payload["spans"]
                assert feeds[0]["trace"].startswith("t")
                assert feeds[0]["attrs"]["replay"] is False
                assert client.metrics()["window_rows"] == 10
        finally:
            handle.close()

    def test_obs_alone_reports_the_rows(self, obs_state):
        """An ``obs`` reply reads the service gauges as they are now, though
        no client ever called ``metrics``."""
        from repro.service import ServiceClient, start_server

        obs_state.enable()
        handle = start_server()
        try:
            with ServiceClient(handle.address) as client:
                sess = client.create_session(8, 3, seed=7)
                sess.feed_rows([[i] * 8 for i in range(10)])
                sess.query(wait=True)
                payload = client.obs()
                assert "repro_service_rows_processed 10" in payload["prom"].splitlines()
                assert "repro_service_sessions_live 1" in payload["prom"].splitlines()
        finally:
            handle.close()

    def test_obs_op_reports_disabled_when_off(self, obs_state):
        from repro.service import ServiceClient, start_server

        handle = start_server()
        try:
            with ServiceClient(handle.address) as client:
                sess = client.create_session(8, 3, seed=7)
                sess.feed_rows([[i] * 8 for i in range(5)])
                sess.query(wait=True)
                payload = client.obs()
                assert payload["enabled"] is False
                assert payload["spans"] == []  # nothing recorded while off
        finally:
            handle.close()


class TestFleetTraceContinuity:
    """The PR's acceptance test: kill a worker under observability and
    follow one client push's trace id through the failover replay."""

    def test_replayed_rows_keep_their_push_trace(self, obs_state, tmp_path):
        from repro.service import ServiceClient
        from repro.service.fleet import start_fleet

        obs_state.enable()  # propagates to workers via REPRO_OBS in _spawn
        handle = start_fleet(
            workers=2, checkpoint_dir=str(tmp_path / "fleet"),
            checkpoint_interval=0.2,
        )
        try:
            with ServiceClient(handle.address, timeout=120) as client:
                sessions = [client.create_session(8, 3, seed=s) for s in range(4)]
                for sess in sessions:
                    sess.feed_rows([[i] * 8 for i in range(20)])

                def _feed_rest():
                    for sess in sessions:
                        sess.feed_rows([[i] * 8 for i in range(20, 30)])
                        sess.query(wait=True)

                # Lose a feed in flight: stop worker 0, let the feeds run
                # into it until one stalls, then kill it under that feed.
                victim = handle.workers()["workers"][0]["pid"]
                os.kill(victim, signal.SIGSTOP)
                with ThreadPoolExecutor(max_workers=1) as pool:
                    feeding = pool.submit(_feed_rest)
                    futures_wait([feeding], timeout=1.0)
                    os.kill(victim, signal.SIGKILL)
                    feeding.result(timeout=120)
                metrics = client.metrics()
                assert metrics["fleet"]["failovers"] == 1
                assert metrics["fleet"]["failover_latency_ms"]["count"] == 1
                assert metrics["fleet"]["failover_latency_ms"]["mean"] > 0.0
                assert set(metrics["fleet"]["per_worker"]) == {"w0", "w1"}

                payload = client.obs()
                assert "repro_fleet_failover_seconds" in payload["prom"]
                spans = payload["spans"]
                assert any(s["name"] == "fleet.failover" for s in spans)
                pushed = {s["trace"] for s in spans if s["name"] == "router.feed"}
                replayed = [s for s in spans
                            if s["name"] == "server.feed"
                            and s.get("attrs", {}).get("replay")]
                assert replayed, "failover produced no replayed feed spans"
                assert all(s["trace"] in pushed for s in replayed)
                # Worker spans are tagged with their slot by the router.
                assert all("slot" in s for s in replayed)

                # The exported JSONL trace carries the same continuity.
                RECORDER.clear()
                RECORDER.extend(spans)
                out = tmp_path / "trace.jsonl"
                RECORDER.export_jsonl(out)
                exported = [json.loads(line) for line in out.read_text().splitlines()]
                assert {s["trace"] for s in exported
                        if s["name"] == "server.feed"
                        and s.get("attrs", {}).get("replay")} <= pushed
        finally:
            handle.close()

    def test_fleet_results_identical_with_obs_on_and_off(self, obs_state, tmp_path):
        """Instrumentation must never touch protocol results."""
        from repro.core.monitor import TopKMonitor
        from repro.service import ServiceClient
        from repro.service.fleet import start_fleet

        rows = np.arange(240, dtype=np.int64).reshape(30, 8) % 17
        finals = []
        for enabled in (False, True):
            obs_state.on = enabled
            handle = start_fleet(
                workers=2, checkpoint_dir=str(tmp_path / f"fleet-{enabled}"),
            )
            try:
                with ServiceClient(handle.address, timeout=120) as client:
                    sess = client.create_session(8, 3, seed=11)
                    sess.feed_rows(rows.tolist())
                    state = sess.query(wait=True)
                    finals.append((state["topk"], state["messages"]))
            finally:
                handle.close()
        assert finals[0] == finals[1]
        offline = TopKMonitor(n=8, k=3, seed=11).run(rows)
        assert finals[0][0] == offline.topk_history[-1].tolist()
