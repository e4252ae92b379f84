"""Workload inputs, the offline oracle, and the timed rounds.

Every input is generated from the ``--seed`` before any timing starts.  A
run repeats *rounds* over the same inputs until ``--seconds`` of timed
work have been measured, so every count (messages, requests, bytes) is a
pure function of the seed and must repeat exactly from round to round.

Service workloads run the program in its own processes
(``python -m repro.service --serve``); the load is one closed loop over one
binary-wire connection from this process.  Offline workloads call
``repro.run`` in this process.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import RunSpec
from repro.service.client import RetryPolicy, ServiceClient, SessionHandle
from repro.streams import get_workload

from calibrate import Calibration
from procs import BenchError, Service, child_env, serve_cmd

perf_counter = time.perf_counter

#: The workloads; BENCHMARK.json says why each exists.
WORKLOADS = ("backfill_durable", "offline_churn", "offline_quiet")

#: Rows per bulk block (backfill traffic, and offline traffic in the trace).
BLOCK = 512
#: At least this many rounds per run, so set-up and rates have a median.
MIN_ROUNDS = 3
#: An offline round repeats its matrices until this many seconds were timed.
OFFLINE_ROUND_S = 0.25
#: Fresh-interpreter launches per offline run, for the median set-up time.
OFFLINE_SETUPS = 9
#: Timer checkpoints of every server (a fleet passes the same to its workers).
CHECKPOINT_INTERVAL = 0.5


@dataclass
class Session:
    """One monitored stream: its protocol parameters and its whole input."""

    n: int
    k: int
    seed: int
    values: np.ndarray
    #: Rows fed before timing starts (written into the restored checkpoint).
    prefix: int = 0


@dataclass
class Workload:
    name: str
    kind: str  # "service" or "offline"
    sessions: list[Session]
    #: The timed traffic: ("feed", s, a, b) pushes rows a..b-1 of session s,
    #: ("query", s) asks session s for its answer with wait=True.
    ops: list[tuple] = field(default_factory=list)
    #: Calibration loops resembling the workload's own work (calibrate.py).
    calibration: tuple[str, ...] = ("interp",)
    #: Checkpoint directory the sessions are restored from (backfill), and
    #: the session ids the program gave them there, in session order.
    restore_dir: Path | None = None
    session_ids: list[str] = field(default_factory=list)

    @property
    def timed_rows(self) -> int:
        return sum(op[3] - op[2] for op in self.ops if op[0] == "feed")


def _matrix(kind: str, n: int, steps: int, seed: int, **params) -> np.ndarray:
    return np.ascontiguousarray(get_workload(kind, n, steps, seed=seed, **params).generate(),
                                dtype=np.int64)


def _session_seed(seed: int, index: int) -> int:
    return seed * 10_007 + index


def _block_ops(sessions: list[Session]) -> list[tuple]:
    """Bulk traffic: every session's rows after its prefix, in BLOCK-row
    blocks, round-robin over sessions."""
    ops = []
    longest = max(s.values.shape[0] - s.prefix for s in sessions)
    for start in range(0, longest, BLOCK):
        for index, s in enumerate(sessions):
            a = s.prefix + start
            b = min(s.values.shape[0], a + BLOCK)
            if a < b:
                ops.append(("feed", index, a, b))
    return ops


def _with_reads(feeds: list[tuple]) -> list[tuple]:
    """After every feed, ask the session just fed for its answer."""
    ops = []
    for op in feeds:
        ops += [op, ("query", op[1])]
    return ops


def build(name: str, seed: int) -> Workload:
    """Generate a workload's full input from its seed."""
    if name == "backfill_durable":
        # Here and in offline_quiet, spreads wider than the catalog defaults
        # keep two values from lingering at the top-k boundary and bursting
        # into hundreds of messages, so msgs_per_row is steady across seeds.
        sessions = []
        for i in range(64):
            sseed = _session_seed(seed, i)
            values = _matrix("random_walk_spread", 16, 64 + 8 * BLOCK, sseed, step_size=2,
                             spread=1000)
            sessions.append(Session(16, 3, sseed, values, prefix=64))
        return Workload(name, "service", sessions, _with_reads(_block_ops(sessions)),
                        calibration=("echo",))
    if name == "offline_churn":
        kinds = (("iid_uniform", {}), ("churn_below_boundary", {"k": 8}),
                 ("adversarial_rotation", {}))
        sessions = []
        for i in range(12):
            kind, params = kinds[i % len(kinds)]
            sseed = _session_seed(seed, i)
            sessions.append(Session(64, 8, sseed, _matrix(kind, 64, 48, sseed, **params)))
        return Workload(name, "offline", sessions, _block_ops(sessions),
                        calibration=("interp", "small_array"))
    if name == "offline_quiet":
        sessions = []
        for i in range(16):
            sseed = _session_seed(seed, i)
            sessions.append(Session(64, 8, sseed,
                                    _matrix("lazy_walk", 64, 4096, sseed, spread=500)))
        return Workload(name, "offline", sessions, _block_ops(sessions), calibration=("matrix",))
    raise SystemExit(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------- oracle


@dataclass
class Answer:
    """The offline oracle's answer for one session's whole input."""

    history: np.ndarray
    messages: int


def oracle(wl: Workload) -> list[Answer]:
    """``repro.run(..., engine="vectorized")`` over every session's input."""
    answers = []
    for s in wl.sessions:
        result = repro.run(RunSpec(s.values, k=s.k, seed=s.seed, engine="vectorized"))
        answers.append(Answer(result.topk_history, result.total_messages))
    return answers


class Tally:
    """Attempted and failed operations; a failure is any error or wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what


# --------------------------------------------------------- service rounds


@dataclass
class Round:
    """One round: set-up, the timed traffic, and what the program reported."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    rows: int = 0
    acks: list[float] = field(default_factory=list)
    answers: list[float] = field(default_factory=list)
    messages: int = 0
    rss_mb: float = 0.0
    metrics: dict = field(default_factory=dict)
    fleet: dict = field(default_factory=dict)
    journal_rows: list[int] = field(default_factory=list)
    #: Calibration factor from raw to reference-speed times (calibrate.py).
    scale: float = 1.0


class Paths:
    """Working space for one run, inside the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench" / f"run-{time.time_ns():x}"
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(parents=True)
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.work / f"{label}-{self._count}"
        path.mkdir()
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _connect(service: Service) -> ServiceClient:
    client = ServiceClient(service.address, wire="binary", timeout=60.0,
                           retry=RetryPolicy(attempts=1))
    if client.negotiated_wire != "binary":
        raise BenchError("the service declined the binary wire")
    return client


def write_checkpoint(wl: Workload, paths: Paths) -> None:
    """Untimed prep: the program itself creates the sessions, steps their
    prefixes and checkpoints them into a fresh directory."""
    directory = paths.fresh("prep") / "ckpt"
    service = Service.launch(serve_cmd(["--checkpoint-dir", str(directory)]),
                             child_env(paths.src, paths.tmp), paths.work / "prep.log")
    try:
        with _connect(service) as client:
            handles = []
            for s in wl.sessions:
                handles.append(client.create_session(s.n, s.k, seed=s.seed))
                handles[-1].feed_rows(s.values[: s.prefix])
            for handle in handles:
                handle.query(wait=True)
            client.checkpoint()
    finally:
        service.kill()
    wl.restore_dir = directory
    wl.session_ids = [handle.id for handle in handles]


def service_round(wl: Workload, answers: list[Answer], paths: Paths, tally: Tally, *,
                  topology: str = "plain", obs: bool = False, spans: list | None = None,
                  probe_every: int = 0, read_metrics: bool = False) -> Round:
    """Launch the program, provision the sessions, run the traffic, check it.

    ``topology`` is "plain" (one server) or "fleet1" (a router in front of
    one worker, plus its standby: ``router.py``).  Every server is durable
    (checkpoint directory and timer), as fleet workers always are.
    Sessions are restored from the workload's checkpoint on a plain server
    when it has one, else created (and their prefixes fed) during set-up.
    ``spans`` collects ``(name, start, end)`` around every client call;
    ``probe_every`` samples a fleet's journal depth every that many ops.
    """
    rnd = Round(rows=wl.timed_rows)
    rdir = paths.fresh("round")
    argv = ["--checkpoint-dir", str(rdir / "ckpt"),
            "--checkpoint-interval", str(CHECKPOINT_INTERVAL)]
    restore = wl.restore_dir is not None and topology == "plain"
    if restore:
        shutil.copytree(wl.restore_dir, rdir / "ckpt")
    if topology == "fleet1":
        cmd = [sys.executable, str(Path(__file__).with_name("router.py")), *argv]
    else:
        cmd = serve_cmd(argv)
    values = [s.values for s in wl.sessions]
    last_row = [s.prefix - 1 for s in wl.sessions]
    fed_at = [0.0] * len(wl.sessions)
    checks = []  # (session, row index, reply), verified after the round

    t_launch = perf_counter()
    service = Service.launch(cmd, child_env(paths.src, paths.tmp, obs=obs),
                             rdir / "service.log")
    try:
        with _connect(service) as client:
            if restore:
                handles = [SessionHandle(client, sid, acked=s.prefix)
                           for sid, s in zip(wl.session_ids, wl.sessions)]
                tally.check(sorted(client.session_ids()) == sorted(wl.session_ids),
                            "restored session ids")
            else:
                handles = []
                for s in wl.sessions:
                    handles.append(client.create_session(s.n, s.k, seed=s.seed))
                    if s.prefix:
                        handles[-1].feed_rows(s.values[: s.prefix])
            client.ping()
            rnd.setup_s = perf_counter() - t_launch
            if topology != "plain":
                service.adopt_fleet_pids(client.fleet())
            if any(s.prefix for s in wl.sessions):
                for handle in handles:  # prefixes stepped before timing starts
                    handle.query(wait=True)

            t_first = perf_counter()
            for count, op in enumerate(wl.ops):
                s = op[1]
                t0 = perf_counter()
                if op[0] == "feed":
                    a, b = op[2], op[3]
                    handles[s].feed_rows(values[s][a:b])
                    t1 = perf_counter()
                    rnd.acks.append(t1 - t0)
                    fed_at[s] = t0
                    last_row[s] = b - 1
                else:
                    reply = handles[s].query(wait=True)
                    t1 = perf_counter()
                    rnd.answers.append(t1 - fed_at[s])
                    checks.append((s, last_row[s], reply))
                if spans is not None:
                    spans.append((f"client.{op[0]}", t0, t1))
                if probe_every and count % probe_every == 0:
                    rnd.journal_rows.append(client.metrics()["fleet"]["journal_rows"])
            for s, handle in enumerate(handles):  # the drain barrier
                t0 = perf_counter()
                checks.append((s, last_row[s], handle.query(wait=True)))
                if spans is not None:
                    spans.append(("client.query", t0, perf_counter()))
            rnd.wall_s = perf_counter() - t_first

            rnd.rss_mb = service.peak_rss_mb()
            if read_metrics:
                rnd.metrics = client.metrics()
            if topology != "plain":
                rnd.fleet = client.fleet()
    finally:
        service.kill()

    tally.attempted += len(wl.ops)
    for s, t, reply in checks:
        tally.check(reply["time"] == t and reply["topk"] == answers[s].history[t].tolist(),
                    f"session {s}: answer at row {t} differs from the oracle")
    for s, (_, t, reply) in enumerate(checks[-len(wl.sessions):]):
        tally.check(reply["pending"] == 0 and reply["messages"] == answers[s].messages
                    and t == wl.sessions[s].values.shape[0] - 1,
                    f"session {s}: final message count differs from the oracle")
        rnd.messages += reply["messages"]
    return rnd


# --------------------------------------------------------- offline rounds


def offline_round(wl: Workload, answers: list[Answer], tally: Tally, *,
                  spans: list | None = None, min_seconds: float = 0.0) -> Round:
    """Passes of ``repro.run(engine="fast")`` over every matrix, each result
    checked, until ``min_seconds`` of calls have been timed."""
    rnd = Round()
    while True:
        messages = 0
        for s, answer in zip(wl.sessions, answers):
            t0 = perf_counter()
            result = repro.run(RunSpec(s.values, k=s.k, seed=s.seed, engine="fast"))
            t1 = perf_counter()
            rnd.acks.append(t1 - t0)
            if spans is not None:
                spans.append(("repro.run", t0, t1))
            tally.check(result.total_messages == answer.messages
                        and np.array_equal(result.topk_history, answer.history),
                        "fast engine differs from the vectorized oracle")
            messages += result.total_messages
            rnd.rows += result.steps
        rnd.messages = messages
        rnd.wall_s = sum(rnd.acks)
        if rnd.wall_s >= min_seconds:
            rnd.answers = rnd.acks
            return rnd


_ENGINE_RUN = """
import resource, sys, numpy as np, repro
inputs = np.load(sys.argv[1])
messages = 0
for i in range(int(sys.argv[2])):
    spec = repro.RunSpec(inputs[f"m{i}"], k=int(inputs["k"][i]), seed=int(inputs["seed"][i]),
                         engine="fast")
    messages += repro.run(spec).total_messages
print(messages, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
"""


def engine_process(wl: Workload, answers: list[Answer], paths: Paths, tally: Tally,
                   count: int = 1) -> tuple[float, float]:
    """A fresh interpreter runs ``repro.run(engine="fast")`` on the first
    ``count`` matrices.  Returns its wall time and its peak RSS in MB."""
    path = paths.work / "inputs.npz"
    if not path.exists():
        np.savez(path, k=[s.k for s in wl.sessions], seed=[s.seed for s in wl.sessions],
                 **{f"m{i}": s.values for i, s in enumerate(wl.sessions)})
    cmd = [sys.executable, "-c", _ENGINE_RUN, str(path), str(count)]
    t0 = perf_counter()
    out = subprocess.run(cmd, capture_output=True, env=child_env(paths.src, paths.tmp),
                         timeout=120)
    elapsed = perf_counter() - t0
    fields = out.stdout.split()
    ok = (out.returncode == 0 and len(fields) == 2
          and int(fields[0]) == sum(a.messages for a in answers[:count]))
    tally.check(ok, f"fresh-interpreter run of {count} matrices")
    return elapsed, int(fields[1]) / 1024.0 if ok else 0.0


# ---------------------------------------------------------------- summary


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    return float(np.quantile(np.asarray(samples), q))


def measure(wl: Workload, answers: list[Answer], paths: Paths, tally: Tally,
            seconds: float) -> dict:
    """The timed runs, tracing off: rounds until ``seconds`` of traffic,
    each scaled by the calibration samples taken around it."""
    rounds: list[Round] = []
    setups: list[tuple[float, float]] = []  # (raw seconds, calibration scale)
    if wl.kind == "offline":
        # Process start-up is exec, page faults and file reads: it tracks
        # loopback round trips, not the in-process loops of the rounds.
        with Calibration(("echo",), paths) as cal:
            engine_process(wl, answers, paths, tally)  # warm-up: byte-compile caches
            before = cal.sample()
            for _ in range(OFFLINE_SETUPS):
                raw, _ = engine_process(wl, answers, paths, tally)
                after = cal.sample()
                setups.append((raw, cal.scale(before, after)))
                before = after
    with Calibration(wl.calibration, paths) as cal:
        before = cal.sample()
        if wl.kind == "offline":
            offline_round(wl, answers, tally)  # warm-up: lazy imports, allocator
        measured = 0.0
        while measured < seconds or len(rounds) < MIN_ROUNDS:
            if wl.kind == "service":
                rnd = service_round(wl, answers, paths, tally)
            else:
                rnd = offline_round(wl, answers, tally, min_seconds=OFFLINE_ROUND_S)
            after = cal.sample()
            rnd.scale = cal.scale(before, after)
            before = after
            if wl.kind == "service":
                setups.append((rnd.setup_s, rnd.scale))
            rounds.append(rnd)
            measured += rnd.wall_s
    messages = {r.messages for r in rounds}
    if len(messages) != 1:
        raise BenchError(f"message totals drifted between rounds of one seed: {sorted(messages)}")
    if wl.kind == "service":
        rss = statistics.median(r.rss_mb for r in rounds)
    else:  # the engine's own process over one pass, untimed
        _, rss = engine_process(wl, answers, paths, tally, count=len(wl.sessions))
    all_rows = sum(s.values.shape[0] for s in wl.sessions)

    def timings(scaled: bool) -> dict:
        def k(r: Round) -> float:
            return r.scale if scaled else 1.0

        # Every timed figure is the median over rounds of that round's own
        # figure, so one round caught in a slow spell cannot move it.
        def per_round(figure) -> float:
            return statistics.median(figure(r) * k(r) for r in rounds)

        return {
            "rows_per_s": (statistics.median(r.rows / (r.wall_s * k(r)) for r in rounds),
                           "rows/s"),
            "ack_p50_ms": (per_round(lambda r: quantile(r.acks, 0.50)) * 1e3, "ms"),
            "ack_p99_ms": (per_round(lambda r: quantile(r.acks, 0.99)) * 1e3, "ms"),
            "answer_p50_ms": (per_round(lambda r: quantile(r.answers, 0.50)) * 1e3, "ms"),
            "answer_p99_ms": (per_round(lambda r: quantile(r.answers, 0.99)) * 1e3, "ms"),
            "setup_s": (statistics.median(t * (f if scaled else 1.0) for t, f in setups), "s"),
        }

    metrics = timings(scaled=True)
    metrics["msgs_per_row"] = (rounds[0].messages / all_rows, "msgs/row")
    metrics["peak_rss_mb"] = (rss, "MB")
    order = ("rows_per_s", "ack_p50_ms", "ack_p99_ms", "answer_p50_ms", "answer_p99_ms",
             "msgs_per_row", "peak_rss_mb", "setup_s")
    return {
        "metrics": {name: metrics[name] for name in order},
        "raw": timings(scaled=False),
        "samples": {"rounds": len(rounds), "acks": sum(len(r.acks) for r in rounds),
                    "answers": sum(len(r.answers) for r in rounds), "setups": len(setups),
                    "box_speed": round(cal.box_speed(), 4)},
    }
