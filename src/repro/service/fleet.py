"""Fleet router: shard the session service across worker processes.

A :class:`FleetRouter` is a controller process served by the same
connection layer as a single :class:`~repro.service.server.ServiceServer`
(:class:`~repro.service.protocol.Frontend`: one wire protocol in both
framings, one error envelope — clients cannot tell the difference) but
hosts no sessions itself: its op table consistent-hashes each session's
*batch group* onto one of N worker processes — each worker a full
``python -m repro.service --serve`` child with its own event loop,
manager, and checkpoint directory.

Why shard by batch group, not by session?  The manager's whole speedup is
the stacked ``(n, k)`` sweep (:meth:`~repro.service.manager.SessionManager.step`):
sessions of equal shape decide quietness in one comparison.  Routing by
:func:`batch_group` keeps every member of a group *dense on one worker*,
so a stacked sweep never splits across processes and the fleet stays
bit-identical to a single-process manager — the catalog differential in
``tests/test_fleet.py`` is the proof.

Durability and failover
-----------------------
Each worker checkpoints its sessions (on idle/op *and* on a timer,
``checkpoint_interval``) into its own subdirectory.  The router keeps one
pre-spawned **hot standby** worker (empty, no checkpoint dir) plus an
in-memory per-session *row journal*: every fed row is journaled before it
is forwarded, and trimmed only once a worker acknowledges a checkpoint
that covers it.  When a worker dies (SIGKILL, crash, ``FaultPlan`` window)
the monitor task promotes the standby: it replays the dead worker's
checkpoint directory via the ``restore`` wire op, adopts its directory,
and the router re-feeds every journaled row the checkpoint had not yet
captured — exactly once, because the replay asks the worker how many rows
it has (``time + 1 + pending``) and sends only the missing suffix.  In
steady state a failover therefore loses *zero* rows and *zero* sessions
without any client-side involvement.

Connection loss to a worker is treated as worker death (the workers are
local children; their sockets only break when the process does).  A feed
whose reply was lost switches to *confirm* mode after the failover: its
rows are already journaled, the replay owns redelivery, and the handler
merely reads back the authoritative row count.

Rebalancing uses the same checkpoint codec live: ``export`` detaches a
session (state + pending inbox) from one worker and ``import`` re-hosts
it on another, bit-identically (:meth:`FleetRouter.add_worker` /
:meth:`FleetRouter.remove_worker`).

Fault-layer composition: ``FleetRouter(fault_plan=plan)`` interprets the
PR-6 :class:`~repro.faults.plan.CrashWindow` schedule against the fleet —
``node`` picks the worker index (mod N) and ``down_at`` is seconds after
start at which it is SIGKILLed; recovery *is* the standby failover, so
``up_at`` needs no action.

:func:`start_fleet` runs the router (and its workers) behind a daemon
thread, through the same
:meth:`~repro.service.protocol.ServingHandle.launch` as
:func:`~repro.service.server.start_server`, and returns a
:class:`FleetHandle` — the ``workers=N`` form of :func:`repro.serve`.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
import traceback
from collections import deque
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.obs.registry import (
    OBS,
    clock as _obs_clock,
    counter as _obs_counter,
    gauge as _obs_gauge,
    histogram as _obs_histogram,
)
from repro.obs.trace import RECORDER as _obs_recorder, new_trace_id
from repro.service import wire as _wire
from repro.service.manager import (
    DEFAULT_INBOX_LIMIT,
    _atomic_write,
    _check_session_id,
)
from repro.service.protocol import (
    LINE_LIMIT,
    Forwarded,
    Frontend,
    ServingHandle,
    encode_line,
    session_field,
)

__all__ = [
    "HashRing",
    "FleetRouter",
    "FleetHandle",
    "start_fleet",
    "batch_group",
    "stable_hash",
    "GROUP_SHARDS",
]

#: Virtual nodes per ring slot: enough that removing one of four workers
#: relocates ~1/4 of the groups instead of a contiguous arc.
DEFAULT_RING_REPLICAS = 64

#: Shards an ``(n, k)`` class is split into.  One giant class would pin
#: the whole fleet to a single worker; sharding by session-id hash spreads
#: it while every *group* (the stacked-sweep unit) stays whole.
GROUP_SHARDS = 16

#: Seconds between router-driven fan-out checkpoints (and journal trims).
DEFAULT_CHECKPOINT_INTERVAL = 0.5

#: Router-side routing-table filename inside the fleet checkpoint root.
_ROUTES_FILE = "router.json"

_ROUTES_SCHEMA = 1

# Registry families (repro/obs): the fleet's health as named series — how
# often failovers happen, how long they take, how much journal is exposed.
_OBS_FAILOVERS = _obs_counter(
    "repro_fleet_failovers_total", "standby promotions after a worker death"
)
_OBS_FAILOVER_SECONDS = _obs_histogram(
    "repro_fleet_failover_seconds",
    "wall time from death detection to a recovered slot (restore + replay)",
)
_OBS_ROWS_REPLAYED = _obs_counter(
    "repro_fleet_rows_replayed_total", "journal rows re-fed during failovers"
)
_OBS_JOURNAL_ROWS = _obs_gauge(
    "repro_fleet_journal_rows",
    "rows journaled but not yet covered by an acknowledged checkpoint",
)
_OBS_WORKER_ROWS = _obs_counter(
    "repro_fleet_worker_rows_total",
    "rows the router delivered to each worker slot",
    ("slot",),
)


def stable_hash(key: str) -> int:
    """Deterministic 64-bit hash of ``key`` (md5 prefix).

    Python's own ``hash()`` is salted per process; the ring must place a
    session on the same worker after a router restart, so the hash has to
    be content-only.
    """
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")


def batch_group(n: int, k: int, session_id: str) -> str:
    """Routing key of one session: its stacked-sweep group.

    All sessions sharing a group land on one worker, so the manager's
    ``(n, k)`` stacked quietness sweep stays dense; the
    :data:`GROUP_SHARDS` shard keeps one popular shape from pinning the
    whole fleet to a single worker.
    """
    return f"{int(n)}x{int(k)}/{stable_hash(session_id) % GROUP_SHARDS}"


class HashRing:
    """Consistent-hash ring mapping string keys to named slots.

    Each slot contributes ``replicas`` virtual points; a key belongs to
    the first point at or clockwise of its own hash.  Removing a slot
    relocates only the keys that mapped to it — the property the fleet's
    rebalancing (and its hypothesis suite) relies on.
    """

    def __init__(self, slots=(), *, replicas: int = DEFAULT_RING_REPLICAS):
        if replicas < 1:
            raise ConfigurationError(f"ring replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._slots: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for slot in slots:
            self.add(slot)

    def add(self, slot: str) -> None:
        """Add a slot (its keys move *to* it from current owners)."""
        if not slot or not isinstance(slot, str):
            raise ConfigurationError(f"ring slot must be a non-empty string, got {slot!r}")
        if slot in self._slots:
            raise ConfigurationError(f"slot {slot!r} is already on the ring")
        self._slots.add(slot)
        for i in range(self._replicas):
            self._points.append((stable_hash(f"{slot}#{i}"), slot))
        self._points.sort()

    def remove(self, slot: str) -> None:
        """Remove a slot (only *its* keys relocate)."""
        if slot not in self._slots:
            raise ConfigurationError(f"slot {slot!r} is not on the ring")
        if len(self._slots) == 1:
            raise ConfigurationError("cannot remove the last ring slot")
        self._slots.discard(slot)
        self._points = [p for p in self._points if p[1] != slot]

    def lookup(self, key: str) -> str:
        """The slot owning ``key``."""
        if not self._points:
            raise ConfigurationError("lookup on an empty ring")
        h = stable_hash(key)
        # First point with hash >= h ("" sorts before any slot name).
        i = bisect.bisect_left(self._points, (h, ""))
        if i == len(self._points):
            i = 0
        return self._points[i][1]

    @property
    def slots(self) -> frozenset:
        """Live slot names."""
        return frozenset(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, slot: str) -> bool:
        return slot in self._slots


def _received(reply: dict) -> int:
    """Worker-side total rows received, from a feed/query reply."""
    return int(reply["time"]) + 1 + int(reply["pending"])


class _WorkerLost(ServiceError):
    """The connection to a worker died mid-request (internal marker)."""


class _SessionRoute:
    """Router-side state of one session: where it lives, what was fed.

    ``journal`` holds ``(seq, row, trace)`` triples — ``seq`` is the
    absolute row index, ``trace`` the originating push's trace id (or
    ``None`` with observability off) — for every row not yet covered by
    an acknowledged worker checkpoint; ``acked`` is the highest
    received-count a worker has
    confirmed (rows below it are at least in the worker's inbox, rows
    below the trim mark are durable).  ``lock`` serializes feeds so the
    journal order matches the delivery order.
    """

    __slots__ = ("group", "slot", "journal", "next_seq", "acked", "lock")

    def __init__(self, group: str, slot: str, *, next_seq: int = 0):
        self.group = group
        self.slot = slot
        self.journal: deque[tuple[int, list, str | None]] = deque()
        self.next_seq = next_seq
        self.acked = next_seq
        self.lock = asyncio.Lock()


class _WorkerProc:
    """One worker child process plus the router's connection to it.

    The shared connection negotiates the binary framing of
    :mod:`repro.service.wire` at spawn (``wire`` records the outcome);
    throwaway ``fresh_request`` connections stay JSONL — they carry one
    parked query each, where negotiation would cost more than it saves.
    """

    def __init__(self, slot, proc, address, checkpoint_dir, reader, writer, log,
                 wire_mode: str = "jsonl"):
        self.slot = slot
        self.proc = proc
        self.address = address
        self.checkpoint_dir: Path | None = checkpoint_dir
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self.log = log  # bounded deque of the child's recent output lines
        self.retired = False  # intentional stop: monitor must not fail over
        self.drain_task: asyncio.Task | None = None
        self.wire = wire_mode

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def request(self, payload: dict) -> dict:
        """One round trip on the shared connection (serialized).

        Returns the parsed reply — including ``ok: false`` replies, which
        the caller forwards or maps; only *transport* failure raises
        (:class:`_WorkerLost`), because that is the worker-death signal.
        """
        async with self._lock:
            try:
                if self.wire == "binary":
                    self._writer.write(_wire.encode_request(payload))
                    await self._writer.drain()
                    kind, body = await _wire.read_frame(self._reader)
                    return _wire.decode_reply(kind, body)
                self._writer.write(encode_line(payload))
                await self._writer.drain()
                line = await self._reader.readline()
            except (_wire.FrameEOF, _wire.FrameError, _wire.FramePayloadError) as exc:
                # The workers are local children: a broken or truncated
                # frame on the shared link means the process died mid-write.
                raise _WorkerLost(f"worker {self.slot} connection lost: {exc}") from exc
            except (ConnectionError, OSError) as exc:
                raise _WorkerLost(f"worker {self.slot} connection lost: {exc}") from exc
            if not line:
                raise _WorkerLost(f"worker {self.slot} closed its connection")
            return json.loads(line)  # reprolint: disable=R4 — JSONL fallback link

    async def fresh_request(self, payload: dict) -> dict:
        """One round trip on a throwaway connection.

        For ``wait=True`` queries, which park server-side until the
        session drains — parking the *shared* connection would stall every
        other request to this worker behind one slow waiter.
        """
        try:
            reader, writer = await asyncio.open_connection(*self.address, limit=LINE_LIMIT)
        except (ConnectionError, OSError) as exc:
            raise _WorkerLost(f"worker {self.slot} unreachable: {exc}") from exc
        try:
            writer.write(encode_line(payload))
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise _WorkerLost(f"worker {self.slot} closed its connection")
            return json.loads(line)  # reprolint: disable=R4 — one-shot JSONL link
        except (ConnectionError, OSError) as exc:
            raise _WorkerLost(f"worker {self.slot} connection lost: {exc}") from exc
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def kill(self) -> None:
        """SIGKILL the child (idempotent)."""
        with contextlib.suppress(ProcessLookupError):
            self.proc.kill()

    def close_connection(self) -> None:
        if self.drain_task is not None:
            self.drain_task.cancel()
        with contextlib.suppress(Exception):
            self._writer.close()


async def _drain_stdout(proc, log) -> None:
    """Keep the child's stdout pipe from filling; remember recent lines."""
    try:
        while True:
            line = await proc.stdout.readline()
            if not line:
                return
            log.append(line.decode(errors="replace").rstrip())
    except (asyncio.CancelledError, ConnectionError, OSError):
        return


class FleetRouter(Frontend):
    """Route the session-service wire protocol across N worker processes.

    Args
    ----
    host / port:
        Client-facing bind address (port 0 picks an ephemeral port).
    workers:
        Number of worker processes to shard sessions across (>= 1).
    inbox_limit / batch / batch_linger / lookahead:
        Forwarded to every worker (same semantics as
        :class:`~repro.service.server.ServiceServer`).
    checkpoint_dir:
        Root directory for durability: worker ``w<i>`` checkpoints into
        ``<root>/w<i>`` and the router persists its routing table as
        ``<root>/router.json``.  ``None`` uses a private temp directory
        (failover still works; state just does not survive the router).
        A re-started router with the same root re-adopts the whole fleet.
    checkpoint_interval:
        Seconds between worker timer checkpoints *and* router fan-out
        checkpoints; bounds both SIGKILL staleness and journal memory.
    standby:
        Keep one pre-spawned empty worker ready to adopt a dead worker's
        checkpoint directory (failover is one ``restore`` op away instead
        of one process spawn away).  ``False`` spawns replacements on
        demand — slower failover, one fewer process.
    ring_replicas:
        Virtual nodes per worker on the consistent-hash ring.
    fault_plan:
        Optional PR-6 :class:`~repro.faults.plan.FaultPlan`; each
        :class:`~repro.faults.plan.CrashWindow` SIGKILLs worker
        ``node % workers`` at ``down_at`` seconds after start (recovery is
        the standby failover itself, so ``up_at`` needs no action).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
        batch: bool = True,
        batch_linger: float = 0.0,
        lookahead: bool = True,
        checkpoint_dir: "str | os.PathLike | None" = None,
        checkpoint_interval: float = DEFAULT_CHECKPOINT_INTERVAL,
        standby: bool = True,
        ring_replicas: int = DEFAULT_RING_REPLICAS,
        fault_plan=None,
    ):
        if workers < 1:
            raise ConfigurationError(f"a fleet needs >= 1 worker, got {workers}")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be > 0 seconds, got {checkpoint_interval}"
            )
        super().__init__(host, port, {
            "create": self._op_create,
            "feed": self._op_feed,
            "query": self._op_query,
            "close": self._op_close,
            "metrics": self._op_metrics,
            "obs": self._op_obs,
            "sessions": lambda request: {"sessions": list(self._sessions)},
            "checkpoint": self._op_checkpoint,
            "fleet": lambda request: {"fleet": self.describe()},
        })
        self.n_workers = workers
        self.inbox_limit = inbox_limit
        self.batch = batch
        self.batch_linger = batch_linger
        self.lookahead = lookahead
        self.checkpoint_interval = checkpoint_interval
        self.keep_standby = standby
        self.fault_plan = fault_plan
        self._given_root = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self._root: Path | None = None
        self._owns_root = checkpoint_dir is None
        self._ring = HashRing(replicas=ring_replicas)
        self._workers: dict[str, _WorkerProc] = {}
        self._worker_seq = 0
        self._standby: _WorkerProc | None = None
        self._sessions: dict[str, _SessionRoute] = {}
        self._next_id = 1
        self._failing: set[str] = set()
        self._slot_events: dict[str, asyncio.Event] = {}
        self._failovers = 0
        self._failover_latencies: list[float] = []
        self._rows_replayed = 0
        self._stopping = False
        self._monitors: list[asyncio.Task] = []
        self._timer_task: asyncio.Task | None = None
        self._fault_task: asyncio.Task | None = None
        self._standby_task: asyncio.Task | None = None

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Spawn the workers (+standby), rebuild routes, bind the listener."""
        self._stopped = asyncio.Event()
        self._root = self._given_root or Path(tempfile.mkdtemp(prefix="repro-fleet-"))
        self._root.mkdir(parents=True, exist_ok=True)
        saved = self._load_routes()
        spawned = await asyncio.gather(
            *(self._spawn(f"w{i}", checkpoint_dir=self._root / f"w{i}")
              for i in range(self.n_workers))
        )
        for worker in spawned:
            self._workers[worker.slot] = worker
            self._slot_events[worker.slot] = asyncio.Event()
            self._ring.add(worker.slot)
        self._worker_seq = self.n_workers
        if self.keep_standby:
            self._standby = await self._spawn("standby", checkpoint_dir=None)
        await self._rebuild_routes(saved)
        for slot, worker in self._workers.items():
            self._monitors.append(asyncio.create_task(self._monitor_worker(slot, worker)))
        await self._listen()
        if self.checkpoint_interval is not None:
            self._timer_task = asyncio.create_task(self._checkpoint_timer())
        if self.fault_plan is not None and getattr(self.fault_plan, "crashes", ()):
            self._fault_task = asyncio.create_task(self._run_fault_plan())
        return self.address

    async def run_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`, then stop workers and listener."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()
        self._stopping = True
        for task in (self._timer_task, self._fault_task, self._standby_task, *self._monitors):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._persist_routes()
        stops = [self._stop_worker(w) for w in self._workers.values()]
        if self._standby is not None:
            stops.append(self._stop_worker(self._standby))
        await asyncio.gather(*stops, return_exceptions=True)
        if self._owns_root:
            shutil.rmtree(self._root, ignore_errors=True)
        await self._unlisten()

    def emergency_kill(self) -> None:
        """SIGKILL every child (the last-resort cleanup on abnormal exit)."""
        for worker in list(self._workers.values()):
            worker.kill()
        if self._standby is not None:
            self._standby.kill()

    async def _stop_worker(self, worker: _WorkerProc) -> None:
        worker.retired = True
        with contextlib.suppress(ReproError, asyncio.TimeoutError, OSError):
            await asyncio.wait_for(worker.request({"op": "shutdown"}), timeout=5)
        try:
            await asyncio.wait_for(worker.proc.wait(), timeout=5)
        except asyncio.TimeoutError:
            worker.kill()
            await worker.proc.wait()
        worker.close_connection()

    # ----------------------------------------------------------- spawning

    async def _spawn(self, slot: str, *, checkpoint_dir: Path | None) -> _WorkerProc:
        """Start one worker child and connect to it."""
        argv = [
            sys.executable, "-m", "repro.service",
            "--serve", "127.0.0.1:0",
            "--inbox-limit", str(self.inbox_limit),
        ]
        if not self.batch:
            argv.append("--no-batch")
        if not self.lookahead:
            argv.append("--no-lookahead")
        if self.batch_linger:
            argv += ["--batch-linger", str(self.batch_linger)]
        if checkpoint_dir is not None:
            argv += ["--checkpoint-dir", str(checkpoint_dir)]
            if self.checkpoint_interval is not None:
                argv += ["--checkpoint-interval", str(self.checkpoint_interval)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        if OBS.on:
            # Programmatic ``obs.enable()`` in the router must reach the
            # children too, or the fleet's ``obs`` op would merge nothing.
            env["REPRO_OBS"] = "1"
        proc = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        log: deque[str] = deque(maxlen=50)
        address = None
        try:
            while address is None:
                line = await asyncio.wait_for(proc.stdout.readline(), timeout=30)
                if not line:
                    raise ServiceError(
                        f"fleet worker {slot} exited before binding "
                        f"(rc={proc.returncode}): {' | '.join(log) or '<no output>'}"
                    )
                text = line.decode(errors="replace").strip()
                log.append(text)
                if text.startswith("listening on "):
                    host, _, port = text.removeprefix("listening on ").rpartition(":")
                    address = (host, int(port))
            reader, writer = await asyncio.open_connection(*address, limit=LINE_LIMIT)
            # The router-worker link is internal, so it always asks for the
            # binary framing; any non-acceptance degrades to JSONL and a
            # genuinely dead child surfaces as _WorkerLost on first use.
            try:
                wire_mode = await _wire.negotiate(reader, writer)
            except (ReproError, ConnectionError, OSError):
                wire_mode = "jsonl"
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            raise
        worker = _WorkerProc(slot, proc, address, checkpoint_dir, reader, writer, log,
                             wire_mode=wire_mode)
        worker.drain_task = asyncio.create_task(_drain_stdout(proc, log))
        return worker

    async def _spawn_standby(self) -> None:
        """Background replacement for a consumed standby."""
        try:
            worker = await self._spawn("standby", checkpoint_dir=None)
        except Exception:
            traceback.print_exc()
            print("fleet: failed to spawn a replacement standby", file=sys.stderr, flush=True)
            return
        if self._stopping:
            worker.kill()
            return
        self._standby = worker

    async def _take_standby(self) -> _WorkerProc:
        """The promotion candidate: the live standby, else a fresh spawn."""
        standby, self._standby = self._standby, None
        if standby is not None:
            if standby.proc.returncode is None:
                return standby
            standby.retired = True  # died while idle; replace it
        return await self._spawn("standby", checkpoint_dir=None)

    # ----------------------------------------------------------- failover

    async def _monitor_worker(self, slot: str, worker: _WorkerProc) -> None:
        await worker.proc.wait()
        if self._stopping or worker.retired:
            return
        try:
            await self._failover(slot, worker)
        except asyncio.CancelledError:
            raise
        except BaseException:
            # An unrecoverable failover would leave the slot's sessions
            # unreachable forever; fail the whole fleet loudly instead.
            traceback.print_exc()
            print(f"fleet: failover of {slot} failed; shutting down",
                  file=sys.stderr, flush=True)
            self.request_stop()

    async def _failover(self, slot: str, dead: _WorkerProc) -> None:
        """Promote the standby into a dead worker's slot and replay."""
        if self._workers.get(slot) is not dead:
            return  # already replaced (e.g. a stale monitor)
        t0 = _obs_clock()
        self._failing.add(slot)
        dead.close_connection()
        try:
            print(f"fleet: worker {slot} (pid {dead.pid}) died; promoting standby",
                  file=sys.stderr, flush=True)
            replacement = await self._take_standby()
            reply = await replacement.request(
                {"op": "restore", "dir": str(dead.checkpoint_dir)}
            )
            if not reply.get("ok"):
                raise ServiceError(
                    f"standby could not restore {slot} from {dead.checkpoint_dir}: "
                    f"{reply.get('error')}"
                )
            replacement.slot = slot
            replacement.checkpoint_dir = dead.checkpoint_dir
            self._workers[slot] = replacement
            self._monitors.append(
                asyncio.create_task(self._monitor_worker(slot, replacement))
            )
            replayed = await self._replay_journals(slot, replacement)
            elapsed = _obs_clock() - t0
            self._failovers += 1
            self._failover_latencies.append(elapsed)
            self._rows_replayed += replayed
            if OBS.on:
                _OBS_FAILOVERS.inc()
                _OBS_FAILOVER_SECONDS.observe(elapsed)
                _OBS_ROWS_REPLAYED.inc(replayed)
                _obs_recorder.record(
                    "fleet.failover", slot=slot, ts=t0, dur_us=elapsed * 1e6,
                    pid=replacement.pid, rows_replayed=replayed,
                )
            print(
                f"fleet: {slot} recovered on pid {replacement.pid} in "
                f"{elapsed * 1e3:.1f} ms ({int(reply['sessions'])} sessions restored, "
                f"{replayed} rows replayed)",
                file=sys.stderr, flush=True,
            )
        finally:
            self._failing.discard(slot)
            self._slot_changed(slot)
        if self.keep_standby and not self._stopping:
            self._standby_task = asyncio.create_task(self._spawn_standby())

    async def _replay_journals(self, slot: str, worker: _WorkerProc) -> int:
        """Re-feed every journaled row the worker's checkpoint missed.

        Exactly-once: the worker reports how many rows it has
        (``time + 1 + pending``) and only the journal suffix past that is
        re-sent.  Runs with no per-session locks — concurrent feeds for
        this slot journal synchronously and then block on the failover
        event, so the journal is complete and cannot advance under us.
        """
        replayed = 0
        for session_id, route in list(self._sessions.items()):
            if route.slot != slot:
                continue
            reply = await worker.request({"op": "query", "session": session_id})
            if not reply.get("ok"):
                # create/close checkpoint *before* acking, so a routed
                # session is always in the checkpoint; reaching this means
                # the directory was tampered with or lost.
                print(f"fleet: session {session_id} missing after failover: "
                      f"{reply.get('error')}", file=sys.stderr, flush=True)
                continue
            received = _received(reply)
            # Record what the restored worker already holds: feed handlers
            # use ``acked`` to detect that the replay (or the dead worker's
            # checkpoint) covered their rows, so they must not resend.
            route.acked = max(route.acked, received)
            missing = [(row, trace) for seq, row, trace in route.journal
                       if seq >= received]
            if OBS.on and missing:
                _obs_recorder.record(
                    "router.replay", session=session_id, slot=slot,
                    rows=len(missing),
                    traces=[t for t in dict.fromkeys(t for _, t in missing)
                            if t is not None],
                )
            while missing:
                chunk = missing[: self.inbox_limit]
                message = {"op": "feed", "session": session_id,
                           "rows": [row for row, _ in chunk], "replay": True}
                traces = [t for t in dict.fromkeys(t for _, t in chunk)
                          if t is not None]
                if traces:
                    # The replayed rows keep their original client trace
                    # ids: the worker records one ``server.feed`` span per
                    # trace, which is what makes a post-failover row
                    # attributable to the push that first carried it.
                    message["traces"] = traces
                reply = await worker.request(message)
                if reply.get("ok"):
                    route.acked = max(route.acked, _received(reply))
                    replayed += len(chunk)
                    missing = missing[len(chunk):]
                elif reply.get("code") == "backpressure":
                    await worker.fresh_request(
                        {"op": "query", "session": session_id, "wait": True}
                    )
                else:
                    raise ServiceError(
                        f"journal replay for {session_id} failed: {reply.get('error')}"
                    )
        return replayed

    # ------------------------------------------------------- slot waiting

    def _slot_changed(self, slot: str) -> None:
        """Wake everyone parked on this slot (its worker changed state)."""
        event = self._slot_events.get(slot)
        if event is not None:
            self._slot_events[slot] = asyncio.Event()
            event.set()

    async def _slot_ready(self, slot: str) -> None:
        """Park while the slot is mid-failover."""
        while slot in self._failing:
            await self._slot_events[slot].wait()

    async def _wait_replaced(self, slot: str, worker: _WorkerProc) -> None:
        """Park until ``worker`` is no longer the slot's live process.

        Connection loss to a local child means the process died; the
        monitor task notices via ``proc.wait()`` and runs the failover,
        whose completion flips the slot event.
        """
        while self._workers.get(slot) is worker or slot in self._failing:
            await self._slot_events[slot].wait()

    # ------------------------------------------------- routes persistence

    def _persist_routes(self) -> None:
        """Write the routing table next to the worker checkpoint dirs.

        The workers' checkpoints hold the session *state*; this file holds
        what only the router knows — each session's batch group and the id
        counter — so a restarted router re-adopts the whole fleet.
        """
        if self._root is None:
            return
        _atomic_write(
            self._root / _ROUTES_FILE,
            {
                "schema": _ROUTES_SCHEMA,
                "next_id": self._next_id,
                "sessions": {sid: route.group for sid, route in self._sessions.items()},
            },
        )

    def _load_routes(self) -> dict:
        """Saved ``{session_id: group}`` from a previous run (may be empty)."""
        path = self._root / _ROUTES_FILE
        if not path.exists():
            return {}
        data = json.loads(path.read_text())
        if data.get("schema") != _ROUTES_SCHEMA:
            raise ConfigurationError(
                f"unsupported fleet routing-table schema {data.get('schema')!r} at {path}"
            )
        self._next_id = int(data["next_id"])
        return dict(data["sessions"])

    async def _rebuild_routes(self, saved_groups: dict) -> None:
        """Re-adopt sessions the workers restored from their checkpoints.

        Each worker reports what it hosts; groups come from the saved
        routing table (or are recomputed from the session's shape).  If
        the worker count changed across the restart, sessions whose ring
        owner moved are live-migrated to it.
        """
        found: list[tuple[str, str, _SessionRoute]] = []
        for slot, worker in self._workers.items():
            reply = await worker.request({"op": "sessions"})
            if not reply.get("ok"):
                raise ServiceError(f"worker {slot} sessions query failed: {reply.get('error')}")
            for session_id in reply["sessions"]:
                view = await worker.request({"op": "query", "session": session_id})
                if not view.get("ok"):
                    raise ServiceError(
                        f"worker {slot} query of restored session {session_id} failed"
                    )
                group = saved_groups.get(session_id) or batch_group(
                    view["n"], view["k"], session_id
                )
                route = _SessionRoute(group, slot, next_seq=_received(view))
                found.append((session_id, slot, route))
        # Stable adoption order: numeric for router-assigned ids, then name.
        def _order(item):
            sid = item[0]
            num = int(sid[1:]) if sid[1:].isdigit() and sid.startswith("s") else None
            return (0, num) if num is not None else (1, sid)
        for session_id, _, route in sorted(found, key=_order):
            self._sessions[session_id] = route
        if found:
            await self._rebalance()
            self._persist_routes()

    # ------------------------------------------------- periodic checkpoint

    async def _checkpoint_timer(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            try:
                await self._checkpoint_fleet()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A failed round (e.g. a worker died mid-fan-out) is
                # retried next tick; the failover path owns recovery.
                traceback.print_exc()

    async def _checkpoint_fleet(self) -> int:
        """Fan a checkpoint out to every worker; trim covered journals.

        The trim mark for each session is its ``acked`` count *captured
        before the checkpoint op is sent*: every row the worker had
        acknowledged by then is in its inbox or state, so a checkpoint
        acknowledged afterwards has persisted it.
        """
        self._persist_routes()
        total = 0
        for slot in list(self._workers):
            if slot in self._failing:
                continue
            worker = self._workers[slot]
            marks = {
                sid: route.acked
                for sid, route in self._sessions.items()
                if route.slot == slot
            }
            try:
                reply = await worker.request({"op": "checkpoint"})
            except _WorkerLost:
                continue  # mid-death; the monitor is (about to be) on it
            if not reply.get("ok"):
                continue
            total += int(reply["sessions"])
            for sid, mark in marks.items():
                route = self._sessions.get(sid)
                if route is None:
                    continue
                while route.journal and route.journal[0][0] < mark:
                    route.journal.popleft()
        if OBS.on:
            _OBS_JOURNAL_ROWS.set(self._journal_rows())
        return total

    def _journal_rows(self) -> int:
        """Rows journaled fleet-wide (the durability exposure right now)."""
        return sum(len(route.journal) for route in self._sessions.values())

    # ----------------------------------------------------- fault schedule

    async def _run_fault_plan(self) -> None:
        """SIGKILL workers on the plan's crash schedule (seconds scale)."""
        start = _obs_clock()
        for window in sorted(self.fault_plan.crashes, key=lambda w: w.down_at):
            delay = window.down_at - (_obs_clock() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            if self._stopping:
                return
            slots = self._ordered_slots()
            slot = slots[window.node % len(slots)]
            worker = self._workers.get(slot)
            if worker is None or slot in self._failing:
                continue
            print(f"fleet: fault plan kills {slot} (pid {worker.pid}) "
                  f"at t={window.down_at}s", file=sys.stderr, flush=True)
            if OBS.on:
                _obs_recorder.record("fleet.kill", slot=slot, pid=worker.pid,
                                     at=window.down_at)
            worker.kill()

    def _ordered_slots(self) -> list[str]:
        """Worker slots in stable (spawn) order — the fault plan's index space."""
        def _key(slot: str):
            return (0, int(slot[1:])) if slot[1:].isdigit() else (1, slot)
        return sorted(self._workers, key=_key)

    def _route(self, session_id: str) -> _SessionRoute:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ServiceError(f"unknown session {session_id!r}") from None

    # ------------------------------------------------------------------ ops

    async def _op_create(self, request: dict) -> dict:
        session_id = request.get("session")
        if session_id is None:
            session_id = f"s{self._next_id}"
            self._next_id += 1
        else:
            _check_session_id(session_id)
        if session_id in self._sessions:
            raise ConfigurationError(f"session id {session_id!r} already exists")
        group = batch_group(int(request["n"]), int(request["k"]), session_id)
        slot = self._ring.lookup(group)
        message = {"op": "create", "n": request["n"], "k": request["k"],
                   "session": session_id}
        for key in ("seed", "engine"):
            if key in request:
                message[key] = request[key]
        while True:
            await self._slot_ready(slot)
            worker = self._workers[slot]
            try:
                reply = await worker.request(message)
                break
            except _WorkerLost:
                await self._wait_replaced(slot, worker)
                # The worker checkpoints *before* acking a create, so
                # after failover the session either exists (created, ack
                # lost) or does not (never created — safe to retry).
                probe = await self._workers[slot].request(
                    {"op": "query", "session": session_id}
                )
                if probe.get("ok"):
                    reply = {"ok": True, "session": session_id,
                             "engine": probe["engine"]}
                    break
        if not reply.get("ok"):
            raise Forwarded(reply)
        self._sessions[session_id] = _SessionRoute(group, slot)
        self._persist_routes()
        return {"session": session_id, "engine": reply.get("engine")}

    async def _op_feed(self, request: dict) -> dict:
        session_id = session_field(request)
        route = self._route(session_id)
        if "row" in request:
            rows = [request["row"]]
        else:
            rows = request.get("rows")
            if isinstance(rows, np.ndarray):
                # A decoded binary block: the journal holds plain lists, so
                # exactly-once replay and trace continuity across failover
                # stay framing-agnostic.
                rows = rows.tolist()
            if not rows:
                raise ServiceError("feed needs a 'row' or a non-empty 'rows' list")
            rows = list(rows)
        trace = request.get("trace")
        if OBS.on and trace is None:
            # Client pushed without a trace id (its obs is off): mint one
            # at the router so the hop is still traceable through replay.
            trace = new_trace_id()
        async with route.lock:
            if self._sessions.get(session_id) is not route:
                raise ServiceError(f"unknown session {session_id!r}")
            # Journal before forwarding — synchronously, so a failover
            # replay triggered at any later await sees these rows.
            start_seq = route.next_seq
            route.journal.extend(
                (start_seq + i, row, trace) for i, row in enumerate(rows)
            )
            route.next_seq += len(rows)
            message = ({"op": "feed", "session": session_id, "row": rows[0]}
                       if len(rows) == 1
                       else {"op": "feed", "session": session_id, "rows": rows})
            if trace is not None:
                message["trace"] = trace
            if OBS.on:
                _obs_recorder.record("router.feed", trace=trace,
                                     session=session_id, slot=route.slot,
                                     rows=len(rows))
            confirm = False
            while True:
                slot = route.slot
                await self._slot_ready(slot)
                worker = self._workers[slot]
                if route.acked >= route.next_seq:
                    # A failover replay ran between our journal append and
                    # this send and already delivered our rows (``acked``
                    # covers the journal tail, which is ours under the
                    # session lock) — resending would double-feed.
                    confirm = True
                try:
                    if confirm:
                        reply = await worker.request(
                            {"op": "query", "session": session_id}
                        )
                    else:
                        reply = await worker.request(message)
                except _WorkerLost:
                    await self._wait_replaced(slot, worker)
                    # The rows are journaled and the failover replay owns
                    # redelivery; from here just read back the count.
                    confirm = True
                    continue
                if reply.get("ok"):
                    route.acked = max(route.acked, _received(reply))
                    if OBS.on:
                        _OBS_WORKER_ROWS.labels(slot=slot).inc(len(rows))
                    return {"pending": int(reply["pending"]),
                            "time": int(reply["time"])}
                if not confirm:
                    # Refused (backpressure / validation): nothing was
                    # applied, so the journal rolls back in place.  No
                    # await separates the reply from this rollback, so a
                    # replay cannot observe the half-state.
                    for _ in rows:
                        route.journal.pop()
                    route.next_seq = start_seq
                raise Forwarded(reply)

    async def _op_query(self, request: dict) -> dict:
        session_id = session_field(request)
        route = self._route(session_id)
        wait = bool(request.get("wait"))
        while True:
            slot = route.slot
            await self._slot_ready(slot)
            worker = self._workers[slot]
            try:
                if wait:
                    # Waiting queries park server-side; give each its own
                    # connection so the shared one stays responsive.
                    reply = await worker.fresh_request(
                        {"op": "query", "session": session_id, "wait": True}
                    )
                else:
                    reply = await worker.request(
                        {"op": "query", "session": session_id}
                    )
            except _WorkerLost:
                await self._wait_replaced(slot, worker)
                continue  # queries are idempotent: retry on the new worker
            if not reply.get("ok"):
                raise Forwarded(reply)
            return {k: v for k, v in reply.items() if k not in ("ok", "id")}

    async def _op_close(self, request: dict) -> dict:
        session_id = session_field(request)
        route = self._route(session_id)
        async with route.lock:
            if self._sessions.get(session_id) is not route:
                raise ServiceError(f"unknown session {session_id!r}")
            retried = False
            while True:
                slot = route.slot
                await self._slot_ready(slot)
                worker = self._workers[slot]
                try:
                    reply = await worker.request(
                        {"op": "close", "session": session_id}
                    )
                    break
                except _WorkerLost:
                    await self._wait_replaced(slot, worker)
                    retried = True
            if not reply.get("ok"):
                if retried and "unknown session" in str(reply.get("error", "")):
                    # The close landed (and was checkpointed, pruning the
                    # session) right before the worker died — only the ack
                    # was lost.  Honour it instead of erroring the retry.
                    del self._sessions[session_id]
                    self._persist_routes()
                    return {"session": session_id, "closed": True}
                raise Forwarded(reply)
            del self._sessions[session_id]
            self._persist_routes()
            return {k: v for k, v in reply.items() if k not in ("ok", "id")}

    async def _op_checkpoint(self, request: dict) -> dict:
        return {"sessions": await self._checkpoint_fleet(), "dir": str(self._root)}

    async def _op_metrics(self, request: dict) -> dict:
        from repro.service.metrics import aggregate_snapshots

        per_worker: dict[str, dict] = {}
        for slot in self._ordered_slots():
            worker = self._workers.get(slot)
            if worker is None or slot in self._failing:
                continue
            try:
                reply = await worker.request({"op": "metrics"})
            except _WorkerLost:
                continue
            if reply.get("ok"):
                per_worker[slot] = reply["metrics"]
        aggregate = aggregate_snapshots(per_worker.values())
        latencies = self._failover_latencies
        aggregate["fleet"] = {
            "workers": {
                slot: {
                    "pid": self._workers[slot].pid,
                    "sessions": sum(
                        1 for r in self._sessions.values() if r.slot == slot
                    ),
                    "rows_processed": snap.get("rows_processed", 0),
                    "rows_per_sec": snap.get("rows_per_sec", 0.0),
                }
                for slot, snap in per_worker.items()
            },
            "standby": self._standby is not None and self._standby.proc.returncode is None,
            "failovers": self._failovers,
            "failover_latency_ms": {
                "count": len(latencies),
                "mean": round(sum(latencies) / len(latencies) * 1e3, 1) if latencies else 0.0,
                "max": round(max(latencies) * 1e3, 1) if latencies else 0.0,
            },
            "rows_replayed": self._rows_replayed,
            "journal_rows": self._journal_rows(),
            "per_worker": per_worker,
        }
        if OBS.on:
            _OBS_JOURNAL_ROWS.set(aggregate["fleet"]["journal_rows"])
        return {"metrics": aggregate}

    async def _op_obs(self, request: dict) -> dict:
        """Router obs payload merged with every live worker's spans.

        Worker spans gain a ``slot`` key, so one export shows a trace id
        crossing the failover boundary: the client push on the dead
        worker and its replay on the standby share the same ``trace``.
        """
        from repro.obs import obs_payload

        limit = request.get("limit")
        payload = obs_payload(limit=int(limit) if limit is not None else None)
        for slot in self._ordered_slots():
            worker = self._workers.get(slot)
            if worker is None or slot in self._failing:
                continue
            try:
                reply = await worker.request({"op": "obs", "limit": limit})
            except _WorkerLost:
                continue
            if not reply.get("ok"):
                continue
            payload["spans"].extend(
                {**span, "slot": slot} for span in reply.get("spans") or ()
            )
        return payload

    def describe(self) -> dict:
        """Topology snapshot: the ``fleet`` wire op's payload."""
        return {
            "workers": [
                {
                    "slot": slot,
                    "pid": self._workers[slot].pid,
                    "address": "{}:{}".format(*self._workers[slot].address),
                    "sessions": sum(
                        1 for r in self._sessions.values() if r.slot == slot
                    ),
                }
                for slot in self._ordered_slots()
            ],
            "standby": (
                {"pid": self._standby.pid}
                if self._standby is not None and self._standby.proc.returncode is None
                else None
            ),
            "sessions": len(self._sessions),
            "failovers": self._failovers,
            "rows_replayed": self._rows_replayed,
        }

    # -------------------------------------------------------- rebalancing

    async def add_worker(self) -> str:
        """Grow the fleet by one worker; sessions rebalance onto it live.

        Returns the new slot name.  Only the groups the ring reassigns to
        the new slot move (consistent hashing), each via the checkpoint
        codec's ``export``/``import`` pair — bit-identically, pending
        inbox included.
        """
        slot = f"w{self._worker_seq}"
        self._worker_seq += 1
        worker = await self._spawn(slot, checkpoint_dir=self._root / slot)
        self._workers[slot] = worker
        self._slot_events[slot] = asyncio.Event()
        self._ring.add(slot)
        self._monitors.append(asyncio.create_task(self._monitor_worker(slot, worker)))
        await self._rebalance()
        self._persist_routes()
        return slot

    async def remove_worker(self, slot: str) -> int:
        """Drain a worker's sessions to the rest of the fleet and stop it.

        Returns the number of sessions migrated off it.
        """
        if slot not in self._workers:
            raise ConfigurationError(f"no fleet worker named {slot!r}")
        if len(self._workers) == 1:
            raise ConfigurationError("cannot remove the last fleet worker")
        self._ring.remove(slot)
        moved = await self._rebalance()
        worker = self._workers.pop(slot)
        await self._stop_worker(worker)
        self._slot_changed(slot)
        self._persist_routes()
        return moved

    async def _rebalance(self) -> int:
        """Move every session to its ring owner; returns how many moved."""
        moved = 0
        for session_id, route in list(self._sessions.items()):
            target = self._ring.lookup(route.group)
            if target != route.slot:
                await self._migrate(session_id, route, target)
                moved += 1
        return moved

    async def _migrate(self, session_id: str, route: _SessionRoute, target: str) -> None:
        """Live-move one session between workers via export/import."""
        async with route.lock:
            await self._slot_ready(route.slot)
            await self._slot_ready(target)
            source = self._workers[route.slot]
            destination = self._workers[target]
            exported = await source.request({"op": "export", "session": session_id})
            if not exported.get("ok"):
                raise ServiceError(
                    f"export of {session_id} from {route.slot} failed: "
                    f"{exported.get('error')}"
                )
            imported = await destination.request(
                {"op": "import", "payload": exported["payload"]}
            )
            if not imported.get("ok"):
                # Never strand the payload: put it back where it came from.
                await source.request({"op": "import", "payload": exported["payload"]})
                raise ServiceError(
                    f"import of {session_id} into {target} failed: "
                    f"{imported.get('error')}"
                )
            route.slot = target

    # -------------------------------------------------------- test hooks

    def resolve_slot(self, which: "int | str") -> str:
        """Map a worker index (spawn order) or slot name to a slot name."""
        if isinstance(which, int):
            slots = self._ordered_slots()
            if not 0 <= which < len(slots):
                raise ConfigurationError(
                    f"worker index {which} out of range (fleet has {len(slots)})"
                )
            return slots[which]
        if which not in self._workers:
            raise ConfigurationError(f"no fleet worker named {which!r}")
        return which

    async def kill_worker(self, which: "int | str") -> int:
        """SIGKILL one live worker (the chaos hook); returns its pid.

        Recovery is automatic: the monitor task promotes the standby.
        """
        worker = self._workers[self.resolve_slot(which)]
        pid = worker.pid
        worker.kill()
        return pid


class FleetHandle(ServingHandle):
    """A fleet router (and its worker processes) on a background thread.

    Returned by :func:`start_fleet` / ``repro.serve(workers=N)``; usable
    as a context manager.  ``close()`` shuts the router, the workers, and
    the standby down cleanly, and SIGKILLs the children if the router
    thread wedges.
    """

    thread_name = "repro-fleet"
    label = "fleet"
    start_timeout = 120.0
    join_timeout = 60.0

    @property
    def router(self) -> FleetRouter:
        """The underlying router (inspect only — it lives on its thread)."""
        return self._frontend

    def _call(self, coro, timeout: float = 120.0):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def workers(self) -> dict:
        """Topology snapshot (same shape as the ``fleet`` wire op)."""
        async def _describe():
            return self._frontend.describe()
        return self._call(_describe())

    def kill_worker(self, which: "int | str" = 0) -> int:
        """SIGKILL a worker by index or slot name; returns its pid.

        The fleet fails over to the standby on its own — the next query
        or feed simply parks until the takeover finishes.
        """
        return self._call(self._frontend.kill_worker(which))

    def add_worker(self) -> str:
        """Grow the fleet by one worker (live rebalance); returns its slot."""
        return self._call(self._frontend.add_worker())

    def remove_worker(self, slot: "int | str") -> int:
        """Shrink the fleet by one worker (live drain); returns sessions moved."""
        async def _remove():
            return await self._frontend.remove_worker(self._frontend.resolve_slot(slot))
        return self._call(_remove())


def start_fleet(host: str = "127.0.0.1", port: int = 0, **options) -> FleetHandle:
    """Run a :class:`FleetRouter` on a daemon thread; returns its handle.

    Args
    ----
    host / port:
        Client-facing bind address; port 0 picks an ephemeral port (read
        it back from ``handle.address``).
    options:
        Forwarded to :class:`FleetRouter` (``workers``, ``inbox_limit``,
        ``checkpoint_dir``, ``checkpoint_interval``, ``fault_plan``, ...).

    Raises
    ------
    ServiceError
        If the router or any worker fails to start.
    """
    return FleetHandle.launch(lambda: FleetRouter(host, port, **options))
