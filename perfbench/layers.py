"""The traced run: per-layer metrics, the layer sum, and tracing overheads.

Nothing here instruments the program.  Spans are taken in this file around
calls into each layer's public functions:

* the live program (plain server or fleet) is driven through its client, and
  its own ``metrics`` and ``fleet`` ops are read back;
* the layers that live in the server process are replayed in this process on
  the workload's exact requests: ``repro.service.wire`` encodes and decodes
  them, a ``SessionManager`` is fed and stepped the way the server's stepper
  does it, and ``IncrementalKernel`` and ``repro.run(engine="fast")`` run the
  workload's matrices;
* a pass with observability on (``REPRO_OBS=1`` for the program, ``obs.enable``
  in this process) reads the engine's own counters for the round-loop and
  scanner split.

The end-to-end figures of a traced run are for the layer sum and the
overhead ratios only; the benchmark's end-to-end metrics come from untraced
runs.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

import repro
from repro import RunSpec, obs
from repro.engine.kernel import violates_stacked
from repro.engine.vectorized import IncrementalKernel
from repro.service import wire
from repro.service.client import ServiceClient, SessionHandle
from repro.service.manager import SessionManager

from calibrate import Calibration
from procs import BenchError
from workloads import (BLOCK, Answer, Paths, Tally, Workload, offline_round, quantile,
                       service_round)

perf_counter = time.perf_counter

#: Per-layer metric -> (unit, better, end-to-end metric it should move, on
#: which workload).  The fleet hop is on no benchmarked workload's path: the
#: router appears only in the traced run's one-worker fleet (router.py).
NO_GATED = (None, "no workload in BENCHMARK.json")
LAYER_METRICS = {
    "client.requests_per_row": ("req/row", "lower", "rows_per_s", "backfill_durable"),
    "wire.encode_us_per_krow": ("us/krow", "lower", "rows_per_s", "backfill_durable"),
    "wire.decode_us_per_krow": ("us/krow", "lower", "rows_per_s", "backfill_durable"),
    "wire.bytes_per_row": ("B/row", "lower", "rows_per_s", "backfill_durable"),
    "fleet.hop_us_p50": ("us", "lower", *NO_GATED),
    "fleet.hop_us_p99": ("us", "lower", *NO_GATED),
    "fleet.journal_rows_max": ("count", "lower", *NO_GATED),
    "fleet.failovers": ("count", "lower", *NO_GATED),
    "server.step_us_p50": ("us", "lower", "answer_p50_ms", "backfill_durable"),
    "server.step_us_p99": ("us", "lower", "answer_p99_ms", "backfill_durable"),
    "server.rows_batched_share": ("share", "higher", "rows_per_s", "backfill_durable"),
    "server.rows_lookahead_share": ("share", "higher", "rows_per_s", "backfill_durable"),
    "server.rows_quiet_share": ("share", "higher", "rows_per_s", "backfill_durable"),
    "server.backpressure_rejections": ("count", "lower", "ack_p99_ms", "backfill_durable"),
    "manager.feed_us_per_row": ("us/row", "lower", "ack_p50_ms", "backfill_durable"),
    "manager.step_us_p50": ("us", "lower", "answer_p50_ms", "backfill_durable"),
    "manager.sweeps_per_krow": ("1/krow", "lower", "rows_per_s", "backfill_durable"),
    "manager.sweep_width_mean": ("rows", "higher", "rows_per_s", "backfill_durable"),
    "manager.checkpoint_ms": ("ms", "lower", "rows_per_s", "backfill_durable"),
    "manager.checkpoint_bytes_per_session": ("B", "lower", "rows_per_s", "backfill_durable"),
    "manager.restore_ms": ("ms", "lower", "setup_s", "backfill_durable"),
    "kernel.observe_many_us_per_krow": ("us/krow", "lower", "rows_per_s", "backfill_durable"),
    "kernel.scan_quiet_us_per_krow": ("us/krow", "lower", "rows_per_s", "backfill_durable"),
    "kernel.violates_stacked_us": ("us", "lower", "rows_per_s", "backfill_durable"),
    "kernel.protocol_runs_per_row": ("1/row", "lower", "msgs_per_row", "offline_churn"),
    "kernel.protocol_run_us": ("us", "lower", "rows_per_s", "offline_churn"),
    "kernel.handler_calls_per_krow": ("1/krow", "lower", "msgs_per_row", "offline_churn"),
    "kernel.resets_per_krow": ("1/krow", "lower", "msgs_per_row", "offline_churn"),
    "engine_fast.run_ms_per_krow": ("ms/krow", "lower", "rows_per_s", "offline_quiet"),
    "engine_fast.non_protocol_share": ("share", "lower", "rows_per_s", "offline_quiet"),
    "engine_fast.segment_skip_share": ("share", "higher", "rows_per_s", "offline_quiet"),
    "obs.overhead_ratio": ("ratio", "lower", "rows_per_s", "backfill_durable"),
    "trace.span_overhead_ratio": ("ratio", "lower", "rows_per_s", "backfill_durable"),
    "remainder_share": ("share", "lower", "ack_p50_ms", "backfill_durable"),
}

#: Counts that are a pure function of the seed: they must repeat bit-exactly.
EXACT = (
    "client.requests_per_row", "wire.bytes_per_row", "fleet.failovers",
    "manager.sweeps_per_krow", "manager.sweep_width_mean",
    "manager.checkpoint_bytes_per_session", "kernel.protocol_runs_per_row",
    "kernel.handler_calls_per_krow", "kernel.resets_per_krow",
    "engine_fast.segment_skip_share",
)

#: Untraced, span and observability passes each, alternated.
PASSES = 2


def _timed(fn, acc: list[float]):
    """Wrap a bound method so its calls add their duration to ``acc[0]``."""
    def wrapper(*args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            acc[0] += perf_counter() - t0
    return wrapper


# ------------------------------------------------------------ client layer


class _LoopbackClient(ServiceClient):
    """A client whose transport answers in this process, so timing its
    session handles measures the client layer alone.  It counts requests
    and keeps each request payload exactly as the client built it."""

    def __init__(self):
        self.payloads: list[dict] = []
        self.received: dict[str, int] = {}
        super().__init__(("127.0.0.1", 0), wire="binary")

    def _connect(self) -> None:
        self._mode = "binary"

    def request(self, op: str, **fields) -> dict:
        self.payloads.append({"op": op, **fields})
        session = fields.get("session")
        if op == "feed":
            rows = 1 if "row" in fields else len(fields["rows"])
            self.received[session] = self.received.get(session, 0) + rows
        received = self.received.get(session, 0)
        return {"ok": True, "pending": 0, "time": received - 1, "topk": [], "messages": 0}


def client_replay(wl: Workload) -> tuple[float, list[dict]]:
    """Seconds the session handles spend on the traffic, and its payloads."""
    client = _LoopbackClient()
    handles = []
    for index, s in enumerate(wl.sessions, 1):
        sid = f"s{index}"  # the ids a server hands out, so payload sizes match
        client.received[sid] = s.prefix
        handles.append(SessionHandle(client, sid, acked=s.prefix))
    values = [s.values for s in wl.sessions]
    busy = 0.0
    for op in wl.ops:
        s = op[1]
        t0 = perf_counter()
        if op[0] == "query":
            handles[s].query(wait=True)
        else:
            handles[s].feed_rows(values[s][op[2]:op[3]])
        busy += perf_counter() - t0
    return busy, client.payloads


# -------------------------------------------------------------- wire layer


def wire_replay(payloads: list[dict]) -> dict:
    """Encode and decode the exact request payloads, and their replies."""
    encode = decode = replies = 0.0
    size = 0
    for payload in payloads:
        t0 = perf_counter()
        frame = wire.encode_request(payload)
        t1 = perf_counter()
        body = frame[wire.HEADER_SIZE:]
        if frame[1] == wire.KIND_FEED:
            batches, _, _ = wire.decode_feed(body)
            t2 = perf_counter()
            reply = wire.encode_ack([(0, 0)] * len(batches))
        else:
            json.loads(body)
            t2 = perf_counter()
            reply = wire.encode_json({"ok": True, "pending": 0, "time": 0})
        wire.decode_reply(reply[1], reply[wire.HEADER_SIZE:])
        t3 = perf_counter()
        encode += t1 - t0
        decode += t2 - t1
        replies += t3 - t2
        size += len(frame)
    return {"encode": encode, "decode": decode, "replies": replies, "bytes": size}


# ----------------------------------------------------------- manager layer


def manager_replay(wl: Workload, answers: list[Answer], paths: Paths, tally: Tally) -> dict:
    """Feed and step a SessionManager the way the server's stepper does
    without a linger: after every request, sweep until nothing is pending."""
    mgr = SessionManager()
    ids = []
    for s in wl.sessions:
        ids.append(mgr.create(s.n, s.k, seed=s.seed))
        if s.prefix:
            mgr.feed_many(ids[-1], s.values[: s.prefix])
    mgr.drain()
    kernel_time = [0.0]
    for sid in ids:
        # The manager exposes no handle on a session's stepper; reach in
        # only to time the kernel calls it makes.
        stepper = mgr._sessions[sid].stepper
        for name in ("step", "quiet_step", "observe_many"):
            setattr(stepper, name, _timed(getattr(stepper, name), kernel_time))
    values = [s.values for s in wl.sessions]
    idle_dir = paths.fresh("manager") / "ckpt"
    mgr.checkpoint(idle_dir)
    feed = idle = 0.0
    sweeps: list[float] = []
    rows = 0
    for op in wl.ops:
        sid = ids[op[1]]
        if op[0] == "query":
            mgr.query(sid)
            continue
        a, b = op[2], op[3]
        t0 = perf_counter()
        mgr.feed_many(sid, values[op[1]][a:b])
        feed += perf_counter() - t0
        rows += b - a
        while mgr.total_pending():
            t0 = perf_counter()
            mgr.step()
            sweeps.append(perf_counter() - t0)
        t0 = perf_counter()
        mgr.checkpoint(idle_dir)  # the stepper persists dirty sessions when idle
        idle += perf_counter() - t0
    for index, sid in enumerate(ids):
        view = mgr.query(sid)
        tally.check(view.message_count == answers[index].messages
                    and list(view.topk) == answers[index].history[-1].tolist(),
                    f"manager replay of session {index}")
    directory = paths.fresh("manager") / "ckpt"
    t0 = perf_counter()
    mgr.checkpoint(directory)
    checkpoint = perf_counter() - t0
    size = sum(p.stat().st_size for p in directory.iterdir())
    t0 = perf_counter()
    restored = SessionManager(restore=directory)
    restore = perf_counter() - t0
    tally.check(len(restored) == len(ids), "manager restore")
    return {
        "rows": rows, "feed": feed, "sweeps": sweeps, "kernel": kernel_time[0], "idle": idle,
        "checkpoint": checkpoint, "checkpoint_bytes": size, "restore": restore,
        "sessions": len(ids),
    }


# ------------------------------------------------------------ kernel layer


def kernel_replay(wl: Workload, answers: list[Answer], tally: Tally) -> dict:
    """Each session's whole input through ``IncrementalKernel.observe_many``
    in BLOCK-row blocks, timing the ``FilterState.scan_quiet`` calls inside."""
    observe = 0.0
    scan = [0.0]
    handlers = resets = rows = 0
    kernels = []
    for index, s in enumerate(wl.sessions):
        kernel = IncrementalKernel(s.n, s.k, seed=s.seed, track_times=False)
        kernel.filter.scan_quiet = _timed(kernel.filter.scan_quiet, scan)
        for a in range(0, s.values.shape[0], BLOCK):
            block = s.values[a:a + BLOCK]
            t0 = perf_counter()
            kernel.observe_many(block)
            observe += perf_counter() - t0
        tally.check(kernel.message_count == answers[index].messages
                    and kernel.topk.tolist() == answers[index].history[-1].tolist(),
                    f"kernel replay of session {index}")
        handlers += kernel.handler_calls
        resets += kernel.resets
        rows += s.values.shape[0]
        kernels.append(kernel)
    # One full-width quietness decision per row index over every session.
    stacked = []
    depth = min(256, min(s.values.shape[0] for s in wl.sessions))
    filters = [k.filter for k in kernels]
    for t in range(depth):
        batch = np.stack([s.values[t] for s in wl.sessions])
        t0 = perf_counter()
        violates_stacked(batch, filters)
        stacked.append(perf_counter() - t0)
    return {"observe": observe, "scan": scan[0], "handlers": handlers, "resets": resets,
            "rows": rows, "stacked": statistics.median(stacked)}


def fast_replay(wl: Workload, min_seconds: float = 0.0) -> tuple[float, int]:
    """``repro.run(engine="fast")`` over every session's whole input, in
    passes until ``min_seconds`` were timed; returns ``(seconds, rows)``."""
    busy = 0.0
    rows = 0
    while True:
        for s in wl.sessions:
            t0 = perf_counter()
            repro.run(RunSpec(s.values, k=s.k, seed=s.seed, engine="fast"))
            busy += perf_counter() - t0
            rows += s.values.shape[0]
        if busy >= min_seconds:
            return busy, rows


def _family_total(name: str, **match) -> float:
    total = 0.0
    for labels, series in obs.get_family(name).series():
        if all(labels.get(k) == v for k, v in match.items()):
            total += series.value
    return total


def engine_counters(wl: Workload, answers: list[Answer], tally: Tally) -> dict:
    """Kernel and fast-engine replays again with observability on, reading
    the engine's own counters."""
    obs.reset_metrics()
    obs.enable()
    try:
        kernel = kernel_replay(wl, answers, tally)
        runs = _family_total("repro_engine_protocol_runs_total")
        protocol_seconds = _family_total("repro_engine_phase_seconds_total")
        obs.reset_metrics()
        fast, rows = fast_replay(wl)
        fast_protocol = _family_total("repro_engine_phase_seconds_total")
        skipped = _family_total("repro_engine_segment_rows_total", outcome="skipped")
        violation = _family_total("repro_engine_segment_rows_total", outcome="violation")
    finally:
        obs.disable()
        obs.reset_metrics()
    return {
        "runs": runs, "rows": kernel["rows"], "protocol_seconds": protocol_seconds,
        "handlers": kernel["handlers"], "resets": kernel["resets"],
        "fast": fast, "fast_protocol": fast_protocol,
        "skip_share": skipped / (skipped + violation),
    }


# ------------------------------------------------------- end-to-end passes


def _pass(wl: Workload, answers: list[Answer], paths: Paths, tally: Tally, mode: str,
          spans: list):
    if wl.kind == "service":
        return service_round(wl, answers, paths, tally, obs=mode == "obs",
                             spans=spans if mode == "spans" else None,
                             read_metrics=mode == "plain")
    if mode == "obs":
        obs.enable()
    try:
        return offline_round(wl, answers, tally, spans=spans if mode == "spans" else None,
                             min_seconds=1.0)
    finally:
        obs.disable()
        obs.reset_metrics()


def trace(wl: Workload, answers: list[Answer], paths: Paths,
          tally: Tally) -> tuple[dict, list[str]]:
    """Run every per-layer measurement; returns the metrics and the report."""
    spans: list = []
    # Wall time per row of each pass, scaled by the calibration samples
    # around it for the overhead ratios; the layer sum compares raw times.
    per_row = {"plain": [], "spans": [], "obs": []}
    raw_plain = []
    plain_round = None
    with Calibration(wl.calibration, paths) as cal:
        before = cal.sample()
        for _ in range(PASSES):
            for mode in per_row:
                rnd = _pass(wl, answers, paths, tally, mode, spans)
                after = cal.sample()
                per_row[mode].append(rnd.wall_s / rnd.rows * cal.scale(before, after))
                before = after
                if mode == "plain":
                    raw_plain.append(rnd.wall_s / rnd.rows)
                    plain_round = plain_round or rnd
    wall_us = statistics.median(raw_plain) * 1e6

    # The router hop: the same traffic against a plain server and against a
    # router in front of one worker with the same settings.
    plain = service_round(wl, answers, paths, tally, topology="plain", read_metrics=True)
    fleet = service_round(wl, answers, paths, tally, topology="fleet1",
                          probe_every=max(1, len(wl.ops) // 8))
    if fleet.fleet["failovers"]:
        raise BenchError(f"{fleet.fleet['failovers']} failovers during the fleet replay")
    # Server counters from the workload's own untraced pass when it has one.
    server = plain_round.metrics if wl.kind == "service" else plain.metrics

    client_s, payloads = client_replay(wl)
    codec = wire_replay(payloads)
    mgr = manager_replay(wl, answers, paths, tally)
    kern = kernel_replay(wl, answers, tally)
    fast_s, fast_rows = fast_replay(wl, min_seconds=1.0)
    counters = engine_counters(wl, answers, tally)
    for name in ("handlers", "resets"):  # the second replay must count the same
        tally.check(counters[name] == kern[name], f"kernel {name} drifted between two replays")

    rows = wl.timed_rows
    processed = max(1, server["rows_processed"])
    sweeps = mgr["sweeps"]
    m = {
        "client.requests_per_row": len(payloads) / rows,
        "wire.encode_us_per_krow": codec["encode"] * 1e9 / rows,
        "wire.decode_us_per_krow": codec["decode"] * 1e9 / rows,
        "wire.bytes_per_row": codec["bytes"] / rows,
        "fleet.hop_us_p50": (quantile(fleet.acks, 0.5) - quantile(plain.acks, 0.5)) * 1e6,
        "fleet.hop_us_p99": (quantile(fleet.acks, 0.99) - quantile(plain.acks, 0.99)) * 1e6,
        "fleet.journal_rows_max": max(fleet.journal_rows),
        "fleet.failovers": fleet.fleet["failovers"],
        "server.step_us_p50": server["step_latency_p50_us"],
        "server.step_us_p99": server["step_latency_p99_us"],
        "server.rows_batched_share": server["rows_batched"] / processed,
        "server.rows_lookahead_share": server["rows_lookahead"] / processed,
        "server.rows_quiet_share": server["rows_quiet"] / processed,
        "server.backpressure_rejections": server["backpressure_rejections"],
        "manager.feed_us_per_row": mgr["feed"] * 1e6 / mgr["rows"],
        "manager.step_us_p50": quantile(sweeps, 0.5) * 1e6,
        "manager.sweeps_per_krow": len(sweeps) * 1e3 / mgr["rows"],
        "manager.sweep_width_mean": mgr["rows"] / len(sweeps),
        "manager.checkpoint_ms": mgr["checkpoint"] * 1e3,
        "manager.checkpoint_bytes_per_session": mgr["checkpoint_bytes"] / mgr["sessions"],
        "manager.restore_ms": mgr["restore"] * 1e3,
        "kernel.observe_many_us_per_krow": kern["observe"] * 1e9 / kern["rows"],
        "kernel.scan_quiet_us_per_krow": kern["scan"] * 1e9 / kern["rows"],
        "kernel.violates_stacked_us": kern["stacked"] * 1e6,
        "kernel.protocol_runs_per_row": counters["runs"] / counters["rows"],
        "kernel.protocol_run_us": counters["protocol_seconds"] * 1e6 / counters["runs"],
        "kernel.handler_calls_per_krow": kern["handlers"] * 1e3 / kern["rows"],
        "kernel.resets_per_krow": kern["resets"] * 1e3 / kern["rows"],
        "engine_fast.run_ms_per_krow": fast_s * 1e6 / fast_rows,
        "engine_fast.non_protocol_share": 1.0 - counters["fast_protocol"] / counters["fast"],
        "engine_fast.segment_skip_share": counters["skip_share"],
        "obs.overhead_ratio": (statistics.median(per_row["obs"])
                               / statistics.median(per_row["plain"])),
        "trace.span_overhead_ratio": (statistics.median(per_row["spans"])
                                      / statistics.median(per_row["plain"])),
    }

    # Layer sum: self time per row of every layer on the workload's path.
    if wl.kind == "service":
        layers = {
            "client": client_s * 1e6 / rows,
            "wire": (codec["encode"] + codec["decode"] + codec["replies"]) * 1e6 / rows,
            "manager": ((mgr["feed"] + sum(sweeps) + mgr["idle"] - mgr["kernel"])
                        * 1e6 / mgr["rows"]),
            "kernel": mgr["kernel"] * 1e6 / mgr["rows"],
        }
    else:
        # The untraced replay's time, split by the observed pass's round-loop share.
        loop_share = counters["fast_protocol"] / counters["fast"]
        layers = {
            "engine_fast": fast_s * (1.0 - loop_share) * 1e6 / fast_rows,
            "kernel (round loop)": fast_s * loop_share * 1e6 / fast_rows,
        }
    m["remainder_share"] = 1.0 - sum(layers.values()) / wall_us

    report = [f"layer sum for {wl.name} (self time per row; untraced wall {wall_us:.3f} us/row):"]
    for name, us in layers.items():
        report.append(f"  {name:<22} {us:12.3f} us/row  {us / wall_us:7.2%}")
    report.append(f"  {'remainder':<22} {wall_us - sum(layers.values()):12.3f} us/row  "
                  f"{m['remainder_share']:7.2%}  (sockets, event loops, process switches, "
                  "benchmark loop; negative where layers overlap across processes)")
    report.append(f"overhead: benchmark spans x{m['trace.span_overhead_ratio']:.4f}, "
                  f"REPRO_OBS=1 x{m['obs.overhead_ratio']:.4f} against the untraced median")
    _export_spans(paths, wl, spans)
    return m, report


def _export_spans(paths: Paths, wl: Workload, spans: list) -> None:
    """Write the span pass's spans as JSONL beside the run's other outputs."""
    out = paths.root / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{wl.name}.jsonl", "w") as fh:
        for name, start, end in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end}) + "\n")
