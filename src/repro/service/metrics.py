"""Service telemetry: counters, throughput, and step-latency percentiles.

The :class:`MetricsRecorder` is owned by a
:class:`~repro.service.manager.SessionManager` and fed from its stepping
path: one :meth:`record_sweep` call per batch sweep (not per row), so the
recording overhead stays O(sweeps) even at thousands of sessions.

Latency accounting: a sweep advances many sessions at once, so the
meaningful per-row figure is the *amortized* step latency ``elapsed /
rows``.  The recorder keeps a bounded reservoir of recent ``(rows,
per_row_latency)`` pairs and computes row-weighted percentiles over it —
p50/p99 answer "how long did the service spend per row, for a typical /
unlucky row of the recent past".  ``window_rows`` in every snapshot says
how many rows that reservoir currently represents, so a p99 computed over
a near-empty window is visibly over a near-empty window.

Since PR 9 this module is rebased onto the unified registry
(:mod:`repro.obs.registry`): the recorder's families are declared there
at import, every :meth:`MetricsRecorder.snapshot` publishes the current
values into them when observability is on, and a recorder times the
manager's sweeps with the package's one clock,
:data:`repro.obs.registry.clock` (reprolint R2 confines raw
``time.perf_counter`` calls to ``repro/obs/``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.obs.registry import OBS, clock as _obs_clock, gauge

__all__ = ["MetricsRecorder", "MetricsSnapshot", "aggregate_snapshots"]

#: Sweeps kept for the latency/throughput windows.
_RESERVOIR = 4096


@dataclass(frozen=True)
class MetricsSnapshot:
    """One point-in-time view of the service counters.

    ``as_dict`` is the JSON-safe shape the server's ``metrics`` endpoint
    returns.
    """

    sessions_live: int
    sessions_created: int
    sessions_closed: int
    sessions_restored: int
    rows_processed: int
    rows_batched: int
    rows_quiet: int
    rows_lookahead: int
    backpressure_rejections: int
    protocol_messages: int
    rows_per_sec: float
    step_latency_p50_us: float
    step_latency_p99_us: float
    #: Rows currently represented by the latency reservoir — the sample
    #: size behind the percentiles above.
    window_rows: int
    uptime_sec: float
    #: Wire-level serving throughput/latency (PR 10): rows crossing the
    #: wire per second over the codec reservoir window, and the p99 codec
    #: time per feed exchange.  Zero until the first feed lands.
    wire_rows_per_sec: float = 0.0
    wire_encode_p99_us: float = 0.0

    def as_dict(self) -> dict:
        """Plain-``dict`` form (floats rounded for wire readability)."""
        return {
            "sessions_live": self.sessions_live,
            "sessions_created": self.sessions_created,
            "sessions_closed": self.sessions_closed,
            "sessions_restored": self.sessions_restored,
            "rows_processed": self.rows_processed,
            "rows_batched": self.rows_batched,
            "rows_quiet": self.rows_quiet,
            "rows_lookahead": self.rows_lookahead,
            "backpressure_rejections": self.backpressure_rejections,
            "protocol_messages": self.protocol_messages,
            "rows_per_sec": round(self.rows_per_sec, 1),
            "step_latency_p50_us": round(self.step_latency_p50_us, 2),
            "step_latency_p99_us": round(self.step_latency_p99_us, 2),
            "window_rows": self.window_rows,
            "uptime_sec": round(self.uptime_sec, 3),
            "wire_rows_per_sec": round(self.wire_rows_per_sec, 1),
            "wire_encode_p99_us": round(self.wire_encode_p99_us, 2),
        }


#: Counters that add across fleet workers.  ``rows_per_sec`` sums too:
#: the workers step in parallel, so fleet throughput is the sum of their
#: windows — the figure the bench scaling gate measures.  ``window_rows``
#: sums for the same reason: the fleet percentiles are taken over the
#: union of the workers' reservoirs.
_ADDITIVE_KEYS = (
    "sessions_live",
    "sessions_created",
    "sessions_closed",
    "sessions_restored",
    "rows_processed",
    "rows_batched",
    "rows_quiet",
    "rows_lookahead",
    "backpressure_rejections",
    "protocol_messages",
    "rows_per_sec",
    "window_rows",
    "wire_rows_per_sec",
)

#: Figures where a sum would be meaningless: report the worst/oldest worker.
_MAX_KEYS = ("step_latency_p50_us", "step_latency_p99_us", "uptime_sec",
             "wire_encode_p99_us")


def aggregate_snapshots(snapshots) -> dict:
    """Fleet-level rollup of per-worker ``MetricsSnapshot.as_dict()`` dicts.

    Additive counters (and rows/sec — the workers run in parallel) sum;
    latency percentiles and uptime take the max, i.e. the slowest/oldest
    worker.  The shape matches a single server's ``metrics`` reply, so
    fleet-unaware dashboards keep working; the router attaches its own
    per-worker/failover detail under a separate ``"fleet"`` key.
    """
    aggregate: dict = {key: 0 for key in _ADDITIVE_KEYS}
    aggregate.update({key: 0.0 for key in _MAX_KEYS})
    for snapshot in snapshots:
        for key in _ADDITIVE_KEYS:
            aggregate[key] += snapshot.get(key, 0)
        for key in _MAX_KEYS:
            aggregate[key] = max(aggregate[key], snapshot.get(key, 0.0))
    aggregate["rows_per_sec"] = round(float(aggregate["rows_per_sec"]), 1)
    return aggregate


def _weighted_percentile(latencies: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Percentile of ``latencies`` with each value counted ``weights`` times."""
    order = np.argsort(latencies)
    lat = latencies[order]
    cum = np.cumsum(weights[order])
    target = q / 100.0 * cum[-1]
    return float(lat[int(np.searchsorted(cum, target))])


# Registry families this recorder publishes into at snapshot time (one
# gauge per headline field; last snapshot wins — each serving process has
# one live manager, so there is nothing to disambiguate).
_OBS_GAUGES = {
    field: gauge(f"repro_service_{field}", help_text)
    for field, help_text in (
        ("sessions_live", "sessions currently open in the manager"),
        ("rows_processed", "rows stepped since manager start"),
        ("rows_per_sec", "row throughput over the reservoir window"),
        ("step_latency_p50_us", "row-weighted p50 per-row step latency (us)"),
        ("step_latency_p99_us", "row-weighted p99 per-row step latency (us)"),
        ("window_rows", "rows currently represented by the latency reservoir"),
        ("backpressure_rejections", "feed requests refused because an inbox was full"),
        ("protocol_messages", "protocol messages across live and closed sessions"),
        ("wire_rows_per_sec", "feed rows crossing the wire per second (codec window)"),
        ("wire_encode_p99_us", "p99 codec time per feed exchange (us)"),
    )
}


class MetricsRecorder:
    """Accumulates the counters behind :class:`MetricsSnapshot`."""

    def __init__(self, clock=_obs_clock):
        self._clock = clock
        self._start = clock()
        self.sessions_created = 0
        self.sessions_closed = 0
        #: Sessions rebuilt from a checkpoint at manager construction.
        self.sessions_restored = 0
        self.rows_processed = 0
        self.rows_batched = 0
        self.rows_quiet = 0
        self.rows_lookahead = 0
        self.backpressure_rejections = 0
        #: Messages attributed to already-closed sessions.
        self.retired_messages = 0
        # (timestamp, rows, per-row latency) per sweep, bounded.
        self._sweeps: deque[tuple[float, int, float]] = deque(maxlen=_RESERVOIR)
        # (timestamp, rows, codec seconds) per feed exchange, bounded — the
        # wire-level twin of the sweep reservoir (PR 10 binary framing).
        self._wire: deque[tuple[float, int, float]] = deque(maxlen=_RESERVOIR)

    @property
    def clock(self):
        """The recorder's monotonic clock (the manager times sweeps with it)."""
        return self._clock

    # --------------------------------------------------------------- feeds

    def record_sweep(
        self, rows: int, elapsed: float, *, batched: int = 0, quiet: int = 0, lookahead: int = 0
    ) -> None:
        """Account one stepping sweep that advanced ``rows`` rows."""
        if rows <= 0:
            return
        self.rows_processed += rows
        self.rows_batched += batched
        self.rows_quiet += quiet
        self.rows_lookahead += lookahead
        self._sweeps.append((self._clock(), rows, elapsed / rows))

    def record_wire(self, rows: int, elapsed: float) -> None:
        """Account one feed exchange that moved ``rows`` across the wire.

        ``elapsed`` is codec time only (frame decode + reply encode), not
        manager stepping — the figure the jsonl/binary benchmark twins
        compare.
        """
        if rows <= 0:
            return
        self._wire.append((self._clock(), rows, elapsed))

    def record_backpressure(self) -> None:
        """Count one feed request refused because the inbox was full.

        A refused batch counts once, however many rows it carried.
        """
        self.backpressure_rejections += 1

    def record_close(self, message_count: int) -> None:
        """Fold a closing session's message total into the retired pool."""
        self.sessions_closed += 1
        self.retired_messages += message_count

    # ------------------------------------------------------------ snapshot

    def snapshot(self, *, sessions_live: int, live_messages: int) -> MetricsSnapshot:
        """Build a snapshot; the manager supplies the live-session figures."""
        now = self._clock()
        if self._sweeps:
            ts = np.array([s[0] for s in self._sweeps])
            rows = np.array([s[1] for s in self._sweeps], dtype=np.float64)
            lat = np.array([s[2] for s in self._sweeps])
            window = max(1e-9, now - float(ts[0]))
            rows_per_sec = float(rows.sum()) / window
            p50 = _weighted_percentile(lat, rows, 50.0) * 1e6
            p99 = _weighted_percentile(lat, rows, 99.0) * 1e6
            window_rows = int(rows.sum())
        else:
            rows_per_sec = 0.0
            p50 = p99 = 0.0
            window_rows = 0
        if self._wire:
            wire_ts = np.array([w[0] for w in self._wire])
            wire_rows = np.array([w[1] for w in self._wire], dtype=np.float64)
            wire_lat = np.array([w[2] for w in self._wire])
            wire_window = max(1e-9, now - float(wire_ts[0]))
            wire_rows_per_sec = float(wire_rows.sum()) / wire_window
            wire_p99 = float(np.percentile(wire_lat, 99.0)) * 1e6
        else:
            wire_rows_per_sec = 0.0
            wire_p99 = 0.0
        snap = MetricsSnapshot(
            sessions_live=sessions_live,
            sessions_created=self.sessions_created,
            sessions_closed=self.sessions_closed,
            sessions_restored=self.sessions_restored,
            rows_processed=self.rows_processed,
            rows_batched=self.rows_batched,
            rows_quiet=self.rows_quiet,
            rows_lookahead=self.rows_lookahead,
            backpressure_rejections=self.backpressure_rejections,
            protocol_messages=self.retired_messages + live_messages,
            rows_per_sec=rows_per_sec,
            step_latency_p50_us=p50,
            step_latency_p99_us=p99,
            window_rows=window_rows,
            uptime_sec=now - self._start,
            wire_rows_per_sec=wire_rows_per_sec,
            wire_encode_p99_us=wire_p99,
        )
        if OBS.on:
            for field, family in _OBS_GAUGES.items():
                family.set(getattr(snap, field))
        return snap
