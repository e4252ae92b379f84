"""Bench the streaming session service: throughput, latency, batching.

The headline numbers (timings are not committed; performance claims
cite the perfbench runs recorded in ``CHANGES.md``):

* ``drain_1000_sessions_batched`` / ``..._per_session`` — wall time to
  stream ``ROWS`` rows into each of 1000 concurrent sessions, one row per
  session per ``step()``, and step them; sessions/sec = 1000·ROWS / mean.
  The pair quantifies what the stacked lane buys over per-session Python
  loops (one manager per session, so each steps alone).
* ``step_sweep_1000_sessions`` — one stacked sweep advancing all 1000
  sessions by one row: the service's unit of step latency.
* ``drain_deep_inbox_lookahead`` / ``..._per_row_sweeps`` — quiet deep
  inboxes (DEEP_ROWS rows backlogged per session) drained via the
  kernel's ``scan_quiet`` block lookahead vs the same rows fed one per
  session per ``step()`` (the stacked lane); the gate requires the
  lookahead to win by >= 2x over the ``step()`` time alone, the headline
  speedup on the paper's quiet-dominated regime.

The manager picks each lane by traffic shape alone, so the benches reach
the stacked lane by feeding one row per session per ``step()`` and the
block lane through deep inboxes.

The batched and lookahead runs' outputs are asserted bit-identical to the
offline engine on every session — the acceptance bar for the serving
layer, not just a timing.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import pytest

import repro
from repro.service import ServiceClient, SessionManager, start_fleet
from repro.streams import random_walk

SESSIONS = 1000
ROWS = 32
N, K = 16, 3


def _streams() -> list[np.ndarray]:
    """One (ROWS, N) walk per session, mildly separated (quiet regime)."""
    return [
        random_walk(N, ROWS, seed=1000 + i, step_size=4, spread=60).generate()
        for i in range(SESSIONS)
    ]


def _created_manager(streams: list[np.ndarray], *, seed0: int = 2000) -> SessionManager:
    """A manager with one empty session per stream."""
    mgr = SessionManager(inbox_limit=max(len(s) for s in streams))
    for i, values in enumerate(streams):
        mgr.create(values.shape[1], K, seed=seed0 + i)
    return mgr


def _loaded_manager(streams: list[np.ndarray], *, seed0: int = 2000) -> SessionManager:
    """A manager with every session's full stream inboxed: deep inboxes,
    which drain through the block lane."""
    mgr = _created_manager(streams, seed0=seed0)
    for sid, values in zip(mgr.session_ids(), streams):
        mgr.feed_many(sid, values)
    return mgr


def _step_row_by_row(mgr: SessionManager, streams: list[np.ndarray], clock=time.perf_counter):
    """Feed one row per session, then ``step()``, for every row index: the
    stacked lane.  Returns the time spent in ``step()`` alone."""
    sids = mgr.session_ids()
    spent = 0.0
    for t in range(len(streams[0])):
        for sid, values in zip(sids, streams):
            mgr.feed(sid, values[t])
        t0 = clock()
        mgr.step()
        spent += clock() - t0
    return spent


def test_drain_1000_sessions_batched(benchmark):
    """Throughput of the stacked lane, verified bit-identical."""
    streams = _streams()

    def setup():
        return (_created_manager(streams),), {}

    def drain(mgr):
        _step_row_by_row(mgr, streams)
        return mgr

    mgr = benchmark.pedantic(drain, setup=setup, rounds=3, iterations=1)
    snap = mgr.metrics_snapshot()
    assert snap.rows_processed == SESSIONS * ROWS
    assert snap.rows_batched > 0.9 * SESSIONS * ROWS
    assert snap.rows_quiet > 0  # the quiet lane is the whole point
    # Acceptance bar: every session's answer and message count equals the
    # offline engine on the same values.
    for i, (sid, values) in enumerate(zip(mgr.session_ids(), streams)):
        view = mgr.query(sid)
        offline = repro.run(repro.RunSpec(values, k=K, seed=2000 + i, engine="vectorized"))
        assert view.topk == tuple(offline.topk_history[-1].tolist()), sid
        assert view.message_count == offline.total_messages, sid


def test_drain_1000_sessions_per_session(benchmark):
    """The same stream with every session alone in its own manager, so
    each steps by itself (the baseline the stacked lane beats)."""
    streams = _streams()

    def setup():
        managers = [_created_manager([values], seed0=2000 + i) for i, values in enumerate(streams)]
        return (managers,), {}

    def drain(managers):
        for t in range(ROWS):
            for mgr, values in zip(managers, streams):
                mgr.feed(mgr.session_ids()[0], values[t])
                mgr.step()
        return managers

    managers = benchmark.pedantic(drain, setup=setup, rounds=3, iterations=1)
    snaps = [mgr.metrics_snapshot() for mgr in managers]
    assert sum(snap.rows_processed for snap in snaps) == SESSIONS * ROWS
    assert not any(snap.rows_batched for snap in snaps)


def test_step_sweep_1000_sessions(benchmark):
    """Latency of one stacked sweep over 1000 pending sessions."""
    streams = _streams()
    mgr = _created_manager(streams)
    sids = mgr.session_ids()
    rows = itertools.count(1)

    def feed_one_row():
        t = next(rows) % ROWS
        for sid, values in zip(sids, streams):
            mgr.feed(sid, values[t])
        return (), {}

    for sid, values in zip(sids, streams):  # the t=0 resets step alone
        mgr.feed(sid, values[0])
    mgr.step()
    processed = benchmark.pedantic(mgr.step, setup=feed_one_row, rounds=200, iterations=1)
    assert processed == SESSIONS
    snap = mgr.metrics_snapshot()
    assert snap.step_latency_p99_us > snap.step_latency_p50_us >= 0.0


# Deep-inbox drain: fewer sessions, much deeper backlogs — the regime the
# kernel's cross-row lookahead (FilterState.scan_quiet) exists for.
DEEP_SESSIONS = 100
DEEP_ROWS = 512


def _deep_streams() -> list[np.ndarray]:
    """One (DEEP_ROWS, N) quiet walk per session.

    Wide spread + small steps keep violations to a handful per session —
    the quiet-dominated regime the paper's filters create and the
    segment-skip lookahead exists for.
    """
    return [
        random_walk(N, DEEP_ROWS, seed=3000 + i, step_size=2, spread=200).generate()
        for i in range(DEEP_SESSIONS)
    ]


def test_drain_deep_inbox_lookahead(benchmark):
    """Quiet deep inboxes drained by block scan, verified bit-identical."""
    streams = _deep_streams()

    def setup():
        return (_loaded_manager(streams, seed0=4000),), {}

    def drain(mgr):
        mgr.drain()
        return mgr

    mgr = benchmark.pedantic(drain, setup=setup, rounds=3, iterations=1)
    snap = mgr.metrics_snapshot()
    assert snap.rows_processed == DEEP_SESSIONS * DEEP_ROWS
    assert snap.rows_lookahead == DEEP_SESSIONS * DEEP_ROWS
    assert snap.rows_quiet > 0.9 * DEEP_SESSIONS * DEEP_ROWS  # quiet regime
    # Acceptance bar: every session's answer and message count equals the
    # offline engine on the same values.
    for i, (sid, values) in enumerate(zip(mgr.session_ids(), streams)):
        view = mgr.query(sid)
        offline = repro.run(repro.RunSpec(values, k=K, seed=4000 + i, engine="vectorized"))
        assert view.topk == tuple(offline.topk_history[-1].tolist()), sid
        assert view.message_count == offline.total_messages, sid


def test_drain_deep_inbox_per_row_sweeps(benchmark):
    """The same rows fed one per session per ``step()``: the stacked lane
    (the baseline beaten)."""
    streams = _deep_streams()

    def setup():
        return (_created_manager(streams, seed0=4000),), {}

    def drain(mgr):
        _step_row_by_row(mgr, streams)
        return mgr

    mgr = benchmark.pedantic(drain, setup=setup, rounds=3, iterations=1)
    snap = mgr.metrics_snapshot()
    assert snap.rows_processed == DEEP_SESSIONS * DEEP_ROWS
    assert snap.rows_lookahead == 0
    assert snap.rows_batched > 0.9 * DEEP_SESSIONS * DEEP_ROWS


def test_deep_inbox_speedup_gate():
    """The deep-inbox acceptance bar: draining quiet deep inboxes through
    the block lane is >= 2x faster than the ``step()`` time of the same
    rows fed one per session per ``step()`` (the stacked lane), best of 3
    each, with equal answers (timed directly, independent of
    pytest-benchmark bookkeeping)."""
    streams = _deep_streams()
    block = sweeps = float("inf")
    for _ in range(3):
        deep = _loaded_manager(streams, seed0=4000)
        t0 = time.perf_counter()
        deep.drain()
        block = min(block, time.perf_counter() - t0)
        shallow = _created_manager(streams, seed0=4000)
        sweeps = min(sweeps, _step_row_by_row(shallow, streams))
    assert deep.metrics_snapshot().rows_lookahead == DEEP_SESSIONS * DEEP_ROWS
    assert shallow.metrics_snapshot().rows_lookahead == 0
    assert [deep.query(sid) for sid in deep.session_ids()] == [
        shallow.query(sid) for sid in shallow.session_ids()
    ]
    assert block * 2 <= sweeps, (
        f"deep-inbox lookahead drain {block:.4f}s not 2x faster than "
        f"per-row sweeps {sweeps:.4f}s"
    )


# Fleet: the multi-process shard (PR 8).  Wire round trips dominate at
# small scale, so the drive is bulk: the client enqueues whole streams,
# the workers step them concurrently, and query(wait=True) is the drain
# barrier — which is where >1 process actually buys wall time.
FLEET_SESSIONS = 64
FLEET_ROWS = 64


def _fleet_streams() -> list[np.ndarray]:
    return [
        random_walk(N, FLEET_ROWS, seed=5000 + i, step_size=4, spread=60).generate()
        for i in range(FLEET_SESSIONS)
    ]


def _drive_fleet(address, streams: list[np.ndarray], seed0: int) -> list[dict]:
    """Feed every stream in bulk, barrier on full drain; returns finals."""
    with ServiceClient(address, timeout=120) as client:
        handles = [
            client.create_session(n=N, k=K, seed=seed0 + i)
            for i in range(len(streams))
        ]
        for handle, values in zip(handles, streams):
            handle.feed_rows(values)
        finals = [handle.query(wait=True) for handle in handles]
        for handle in handles:
            handle.close()
    return finals


def _bench_fleet(benchmark, workers: int, seed0: int) -> None:
    streams = _fleet_streams()
    with start_fleet(workers=workers, inbox_limit=FLEET_ROWS) as fleet:
        finals = benchmark.pedantic(
            _drive_fleet, args=(fleet.address, streams, seed0), rounds=3, iterations=1
        )
    # Acceptance bar: sharding changes nothing observable — every final
    # answer and message count equals the offline engine.
    for i, (final, values) in enumerate(zip(finals, streams)):
        offline = repro.run(repro.RunSpec(values, k=K, seed=seed0 + i, engine="vectorized"))
        assert final["topk"] == offline.topk_history[-1].tolist()
        assert final["messages"] == offline.total_messages


def test_fleet_stream_1_worker(benchmark):
    """Baseline: the full wire path through a 1-worker fleet router."""
    _bench_fleet(benchmark, workers=1, seed0=6000)


def test_fleet_stream_4_workers(benchmark):
    """The 4-way shard on the identical stream set (same wire path)."""
    _bench_fleet(benchmark, workers=4, seed0=6000)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="fleet scaling gate needs >= 4 cores to mean anything",
)
def test_fleet_scaling_gate():
    """The ISSUE-8 acceptance bar: a 4-worker fleet sustains >= 3x the
    rows/sec of the same router with 1 worker (timed directly, best of 3;
    skipped on boxes without 4 real cores, where the processes would just
    time-slice one CPU)."""
    streams = _fleet_streams()
    rates = {}
    for workers in (1, 4):
        best = float("inf")
        with start_fleet(workers=workers, inbox_limit=FLEET_ROWS) as fleet:
            for round_no in range(3):
                t0 = time.perf_counter()
                _drive_fleet(fleet.address, streams, seed0=6000 + 100 * round_no)
                best = min(best, time.perf_counter() - t0)
        rates[workers] = FLEET_SESSIONS * FLEET_ROWS / best
    assert rates[4] >= 3 * rates[1], (
        f"4-worker fleet at {rates[4]:.0f} rows/s is not 3x the "
        f"1-worker baseline {rates[1]:.0f} rows/s"
    )


# Observability (PR 9): the zero-overhead-when-off guarantee.  Every obs
# touch point on the stepping hot path is guarded by the plain ``OBS.on``
# boolean; the headline drains above run with it off (the default), so
# they *are* the no-op-parity baseline, and the pair below prices the
# enabled side.


def test_drain_1000_sessions_obs_enabled(benchmark):
    """The batched drain with full instrumentation on — the enabled twin
    of ``drain_1000_sessions_batched``; the delta is the obs price."""
    from repro.obs import OBS, RECORDER, get_family, reset_metrics

    streams = _streams()

    def setup():
        return (_created_manager(streams),), {}

    def drain(mgr):
        OBS.on = True
        try:
            _step_row_by_row(mgr, streams)
        finally:
            OBS.on = False
        return mgr

    try:
        mgr = benchmark.pedantic(drain, setup=setup, rounds=3, iterations=1)
        snap = mgr.metrics_snapshot()
        assert snap.rows_processed == SESSIONS * ROWS
        # The instrumentation genuinely ran: the engine families moved.
        assert get_family("repro_engine_protocol_runs_total") is not None
        assert sum(
            s.value for _, s in get_family("repro_engine_protocol_runs_total").series()
        ) > 0
    finally:
        OBS.on = False
        RECORDER.clear()
        reset_metrics()


def test_obs_overhead_gate():
    """The ISSUE-9 acceptance bar: instrumentation enabled costs <= 3% on
    the stacked 1000-session drain (the ``step()`` calls alone).

    Measured to survive a noisy single-core box: CPU time (frequency
    drift and scheduler steal hit wall clocks mode-asymmetrically),
    drains interleaved with the leading mode alternated each round (so
    throttling over the run cannot systematically tax one mode), best-of
    per mode.  The per-event branch itself microbenchmarks at ~0.3us
    against ~4k protocol runs per drain, so the true cost is ~1%; the
    3%% bar leaves room for residual jitter without masking a real
    regression (an un-memoized ``labels()`` call per run reads ~7%%)."""
    from repro.obs import OBS, RECORDER, reset_metrics

    streams = _streams()
    timings = {False: float("inf"), True: float("inf")}
    try:
        for round_no in range(6):
            order = (False, True) if round_no % 2 else (True, False)
            for enabled in order:
                mgr = _created_manager(streams)
                OBS.on = enabled
                spent = _step_row_by_row(mgr, streams, clock=time.process_time)
                OBS.on = False
                timings[enabled] = min(timings[enabled], spent)
    finally:
        OBS.on = False
        RECORDER.clear()
        reset_metrics()
    assert timings[True] <= 1.03 * timings[False], (
        f"obs-enabled drain {timings[True]:.4f}s CPU exceeds 3% over the "
        f"disabled baseline {timings[False]:.4f}s"
    )


# Wire framing (PR 10): the binary protocol vs the JSONL debug path.
# The gated figure is codec-level — encode+decode rows/sec for the same
# 1000-session drain shape — because end-to-end drains over localhost are
# round-trip-dominated and would measure the kernel, not the wire.  The
# end-to-end twins below are recorded for the honest wall-clock story.


def test_wire_codec_speedup_gate():
    """The PR-10 acceptance bar: binary framing moves >= 5x the rows/sec
    of the JSONL codec on the same 1000-session drain (full round trip:
    request encode + server decode + ack encode + ack decode).

    Both legs start from the same in-memory numpy streams — what a
    gateway actually holds.  JSONL must ``tolist()`` + ``json.dumps``
    each batch and parse it back; binary packs the array into one
    ``KIND_FEED`` frame and answers with a struct-packed ack.
    """
    import json

    from repro.service import wire

    streams = _streams()
    total_rows = SESSIONS * ROWS

    best_jsonl = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i, values in enumerate(streams):
            payload = {"op": "feed", "session": f"s{i}", "rows": values.tolist()}
            line = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
            request = json.loads(line)
            rows = request["rows"]
            reply = (
                json.dumps({"ok": True, "pending": len(rows), "time": ROWS - 1},
                           separators=(",", ":")) + "\n"
            ).encode()
            json.loads(reply)
        best_jsonl = min(best_jsonl, time.perf_counter() - t0)

    best_binary = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i, values in enumerate(streams):
            frame = wire.encode_request(
                {"op": "feed", "session": f"s{i}", "rows": values}
            )
            assert frame[1] == wire.KIND_FEED
            batches, _, _ = wire.decode_feed(frame[wire.HEADER_SIZE:])
            ack = wire.encode_ack([(len(batches[0][1]), ROWS - 1)])
            wire.decode_reply(wire.KIND_ACK, ack[wire.HEADER_SIZE:])
        best_binary = min(best_binary, time.perf_counter() - t0)

    jsonl_rate = total_rows / best_jsonl
    binary_rate = total_rows / best_binary
    assert binary_rate >= 5 * jsonl_rate, (
        f"binary wire codec {binary_rate:,.0f} rows/s not 5x the JSONL "
        f"codec {jsonl_rate:,.0f} rows/s"
    )


# End-to-end twins: a live server drained over each framing.  Smaller
# than the codec shape — every feed is one TCP round trip, so these
# measure framing + dispatch under RTT, not the codec ceiling.
WIRE_SESSIONS = 64
WIRE_ROWS = 64


def _wire_streams() -> list[np.ndarray]:
    return [
        random_walk(N, WIRE_ROWS, seed=7000 + i, step_size=4, spread=60).generate()
        for i in range(WIRE_SESSIONS)
    ]


def _drive_wire_once(address, streams: list[np.ndarray], wire_mode: str) -> list[dict]:
    """One full lifecycle (create, feed, drain-barrier, close) per round."""
    client = ServiceClient(address, timeout=120, wire=wire_mode)
    assert client.negotiated_wire == wire_mode
    try:
        handles = [
            client.create_session(n=N, k=K, seed=8000 + i)
            for i in range(len(streams))
        ]
        for handle, values in zip(handles, streams):
            handle.feed_rows(values)
        finals = [handle.query(wait=True) for handle in handles]
        for handle in handles:
            handle.close()
        return finals
    finally:
        client.close()


def _bench_wire(benchmark, wire_mode: str) -> None:
    streams = _wire_streams()
    with repro.serve() as server:
        finals = benchmark.pedantic(
            _drive_wire_once, args=(server.address, streams, wire_mode),
            rounds=3, iterations=1,
        )
        with ServiceClient(server.address) as probe:
            assert probe.metrics()["wire_rows_per_sec"] > 0
    # Framing changes nothing observable: every final answer and message
    # count equals the offline engine.
    for i, (final, values) in enumerate(zip(finals, streams)):
        offline = repro.TopKMonitor(n=N, k=K, seed=8000 + i).run(values)
        assert final["topk"] == offline.topk_history[-1].tolist()
        assert final["messages"] == offline.total_messages


def test_wire_drain_jsonl(benchmark):
    """End-to-end twin, line framing: the debug path's wall clock."""
    _bench_wire(benchmark, "jsonl")


def test_wire_drain_binary(benchmark):
    """End-to-end twin, packed frames: same drive, binary negotiated."""
    _bench_wire(benchmark, "binary")
