"""Fleet router: shard the session service across worker processes.

A :class:`FleetRouter` is a controller process served by the same
connection layer as a single :class:`~repro.service.server.ServiceServer`
(:class:`~repro.service.protocol.Frontend`: one wire protocol in both
framings, one error envelope — clients cannot tell the difference) but
hosts no sessions itself: its op table consistent-hashes each session's
id onto one of N worker processes — each worker a full
``python -m repro.service --serve`` child with its own event loop,
manager, and checkpoint directory.

Routing reads nothing but the session id.  A worker's stacked ``(n, k)``
sweep (:meth:`~repro.service.manager.SessionManager.step`) groups every
session of equal shape it hosts, so its width is the worker's share of
that shape under any routing key, and hashing ids spreads each shape
evenly.  Placement never changes an answer: every session is
bit-identical to a single-process manager — the catalog differential in
``tests/test_fleet.py`` is the proof.

Durability and failover
-----------------------
Each worker keeps its sessions in its own subdirectory and appends every
feed to the feed log there before acking it (see
:mod:`repro.service.manager`); the router fans a checkpoint out to every
worker each ``checkpoint_interval`` to compact those logs.  A worker's ack
therefore means its rows are on disk, and the router holds no copy of
them.  It keeps one pre-spawned **hot standby** worker (empty, no
checkpoint dir).  When a worker dies (SIGKILL, crash, a hang past its
deadline) the monitor task promotes the standby: it restores the dead
worker's checkpoint directory, log included, via the ``restore`` wire op
and adopts the directory.  A failover therefore loses *zero* acknowledged
rows and *zero* sessions without any client-side involvement.

Every request the router makes while it serves goes through one
exchange, :meth:`FleetRouter._exchange`, over a pool of binary links to
each worker.  Connection loss to a worker is treated as worker death (the
workers are local children; their sockets only break when the process
does): the exchange waits for the failover, then lets the op say what
its lost request did.  A feed asks the replacement how many rows the
session holds (``time + 1 + pending``) and resends only the rows it
lacks, as a ``replay`` carrying the push's trace id.  That is exactly
once: the session's lock keeps the count from moving meanwhile.

Rebalancing uses the same checkpoint codec live: ``export`` detaches a
session (state + pending inbox) from one worker and ``import`` re-hosts
it on another, bit-identically (:meth:`FleetRouter.add_worker` /
:meth:`FleetRouter.remove_worker`).  The router holds the exported
payload until the import is acknowledged, so a move survives the death
of either worker unless the source dies after detaching the session.

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
    check_create,
)
from repro.service.protocol import (
    LINE_LIMIT,
    Forwarded,
    Frontend,
    ServingHandle,
    session_field,
)

__all__ = [
    "HashRing",
    "FleetRouter",
    "FleetHandle",
    "start_fleet",
    "stable_hash",
]

#: Virtual nodes per ring slot: enough that removing one of four workers
#: relocates ~1/4 of the sessions instead of a contiguous arc.
RING_REPLICAS = 64

#: Seconds between router-driven fan-out checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 0.5

#: Seconds one exchange with a worker may take, opening its link included.
#: A worker that has not answered by then is presumed hung (stopped,
#: deadlocked): it is SIGKILLed, so its monitor fails it over like any
#: other dead worker, instead of stalling every fan-out over the workers
#: behind it.  Far above any exchange a live worker makes; parked ``wait``
#: queries hold their own pooled link and have no deadline.
WORKER_REQUEST_TIMEOUT = 30.0

#: Idle links the router keeps open to each worker.  A request that finds
#: none opens another, so this bounds only what stays open between bursts.
IDLE_LINKS = 4

#: Router state filename inside the fleet checkpoint root.
_ROUTES_FILE = "router.json"

_ROUTES_SCHEMA = 1

# Registry families (repro/obs): the fleet's health as named series — how
# often failovers happen, how long they take, how many rows are in flight.
_OBS_FAILOVERS = _obs_counter(
    "repro_fleet_failovers_total", "standby promotions after a worker death"
)
_OBS_FAILOVER_SECONDS = _obs_histogram(
    "repro_fleet_failover_seconds",
    "wall time from death detection to a recovered slot (the restore)",
)
_OBS_ROWS_REPLAYED = _obs_counter(
    "repro_fleet_rows_replayed_total",
    "rows of feeds lost in flight that the router resent after a failover",
)
_OBS_INFLIGHT_ROWS = _obs_gauge(
    "repro_fleet_journal_rows",
    "rows in feeds the router is forwarding that no worker has acknowledged",
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


class HashRing:
    """Consistent-hash ring mapping string keys to named slots.

    Each slot contributes :data:`RING_REPLICAS` virtual points; a key
    belongs to the first point at or clockwise of its own hash.  Removing
    a slot relocates only the keys that mapped to it — the property the
    fleet's rebalancing (and its hypothesis suite) relies on.
    """

    def __init__(self, slots=()):
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
        for i in range(RING_REPLICAS):
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
    """Router-side state of one session: where it lives, what it holds.

    ``received`` is the worker's row count (``time + 1 + pending``) from
    the last acknowledged feed.  ``lock`` serializes feeds, so a feed that
    lost its reply can tell from it how many of its rows the worker holds.
    """

    __slots__ = ("slot", "received", "lock")

    def __init__(self, slot: str, *, received: int = 0):
        self.slot = slot
        self.received = received
        self.lock = asyncio.Lock()


class _WorkerProc:
    """One worker child process plus the router's pool of links to it.

    Every link speaks the binary framing of :mod:`repro.service.wire`,
    negotiated when it opens.  A request borrows an idle link or opens a
    new one and gives it back after a complete reply, so requests to one
    worker never queue behind each other; a parked ``wait`` query simply
    holds its link until it answers.
    """

    def __init__(self, slot, proc, address, checkpoint_dir, log):
        self.slot = slot
        self.proc = proc
        self.address = address
        self.checkpoint_dir: Path | None = checkpoint_dir
        self.log = log  # bounded deque of the child's recent output lines
        # Stopped or failed over: its monitor must not fail it over, and
        # no link to it is kept.
        self.retired = False
        self.drain_task: asyncio.Task | None = None
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def request(self, payload: dict) -> dict:
        """One round trip on a pooled link.

        Returns the parsed reply — including ``ok: false`` replies, which
        the caller forwards or maps; only *transport* failure raises
        (:class:`_WorkerLost`), because that is the worker-death signal.
        A worker silent past :data:`WORKER_REQUEST_TIMEOUT` is killed and
        counts as lost too, except under a ``wait`` query, which parks
        worker-side until its session drains.
        """
        frame = _wire.encode_request(payload)
        timeout = None if payload.get("wait") else WORKER_REQUEST_TIMEOUT
        try:
            return await asyncio.wait_for(self._round_trip(frame), timeout)
        except asyncio.TimeoutError:
            self.kill()
            raise _WorkerLost(
                f"worker {self.slot} did not answer within {timeout:g} s; killed it"
            ) from None
        except (_wire.FrameEOF, _wire.FrameError, _wire.FramePayloadError,
                ConnectionError, OSError) as exc:
            # The workers are local children: a refused connection, a
            # broken link or a truncated frame means the process died.
            raise _WorkerLost(f"worker {self.slot} connection lost: {exc}") from exc

    async def _round_trip(self, frame: bytes) -> dict:
        fresh = not self._idle
        if fresh:
            reader, writer = await asyncio.open_connection(*self.address, limit=LINE_LIMIT)
        else:
            reader, writer = self._idle.pop()
        try:
            # The router-worker link is internal and every worker runs this
            # code, so it is binary-only: a refusal means a broken worker.
            if fresh and await _wire.negotiate(reader, writer) != "binary":
                raise ServiceError(f"fleet worker {self.slot} refused the binary wire")
            writer.write(frame)
            await writer.drain()
            kind, body = await _wire.read_frame(reader)
            reply = _wire.decode_reply(kind, body)
        except BaseException:
            # Cancelled or broken mid-exchange: a reply may still be on
            # its way, so the link can never carry another request.
            writer.close()
            raise
        if self.retired or len(self._idle) >= IDLE_LINKS:
            writer.close()
        else:
            self._idle.append((reader, writer))
        return reply

    def kill(self) -> None:
        """SIGKILL the child (idempotent)."""
        with contextlib.suppress(ProcessLookupError):
            self.proc.kill()

    def let_go(self) -> None:
        """Retire the worker: close its idle links now and each busy one as
        it finishes, and stop draining its output."""
        self.retired = True
        if self.drain_task is not None:
            self.drain_task.cancel()
        for _, writer in self._idle:
            writer.close()
        self._idle.clear()


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
    inbox_limit / batch_linger:
        Forwarded to every worker (same semantics as
        :class:`~repro.service.server.ServiceServer`).
    checkpoint_dir:
        Root directory for durability: worker ``w<i>`` checkpoints into
        ``<root>/w<i>`` and the router persists its routing table as
        ``<root>/router.json``.  ``None`` uses a private temp directory
        (failover still works; state just does not survive the router).
        A re-started router with the same root re-adopts the whole fleet.
    checkpoint_interval:
        Seconds between the checkpoints the router fans out to every
        worker; each compacts the worker's feed log, which bounds the
        rows a failover's restore replays.  ``None`` fans out none.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
        batch_linger: float = 0.0,
        checkpoint_dir: "str | os.PathLike | None" = None,
        checkpoint_interval: float = DEFAULT_CHECKPOINT_INTERVAL,
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
        self.batch_linger = batch_linger
        self.checkpoint_interval = checkpoint_interval
        self._given_root = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self._root: Path | None = None
        self._owns_root = checkpoint_dir is None
        self._ring = HashRing()
        self._workers: dict[str, _WorkerProc] = {}
        self._worker_seq = 0
        self._standby: _WorkerProc | None = None
        self._sessions: dict[str, _SessionRoute] = {}
        self._next_id = 1
        self._failing: set[str] = set()
        self._slot_events: dict[str, asyncio.Event] = {}
        self._failovers = 0
        self._failover_seconds = 0.0  # total, over self._failovers
        self._failover_seconds_max = 0.0
        self._rows_replayed = 0
        self._inflight_rows = 0
        self._stopping = False
        self._monitors: list[asyncio.Task] = []
        self._timer_task: asyncio.Task | None = None
        self._standby_task: asyncio.Task | None = None

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Spawn the workers (+standby), rebuild routes, bind the listener."""
        self._stopped = asyncio.Event()
        self._root = self._given_root or Path(tempfile.mkdtemp(prefix="repro-fleet-"))
        self._root.mkdir(parents=True, exist_ok=True)
        self._load_next_id()
        spawned = await asyncio.gather(
            *(self._spawn(f"w{i}", checkpoint_dir=self._root / f"w{i}")
              for i in range(self.n_workers))
        )
        for worker in spawned:
            self._workers[worker.slot] = worker
            self._slot_events[worker.slot] = asyncio.Event()
            self._ring.add(worker.slot)
        self._worker_seq = self.n_workers
        self._standby = await self._spawn("standby", checkpoint_dir=None)
        await self._rebuild_routes()
        for slot, worker in self._workers.items():
            self._monitors.append(asyncio.create_task(self._monitor_worker(slot, worker)))
        # If the worker count changed across a restart, sessions whose ring
        # owner moved migrate to it now, with failover already armed.
        await self._rebalance()
        await self._listen()
        if self.checkpoint_interval is not None:
            self._timer_task = asyncio.create_task(self._checkpoint_timer())
        return self.address

    async def run_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`, then stop workers and listener."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()
        self._stopping = True
        for task in (self._timer_task, self._standby_task, *self._monitors):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._save_next_id()
        stops = [self._stop_worker(w) for w in self._workers.values()]
        if self._standby is not None:
            stops.append(self._stop_worker(self._standby))
        await asyncio.gather(*stops, return_exceptions=True)
        if self._owns_root:
            shutil.rmtree(self._root, ignore_errors=True)
        await self._unlisten()

    def emergency_kill(self) -> None:
        """SIGKILL every child (the last-resort cleanup on abnormal exit)."""
        self._stopping = True  # disarm failover: these kills are no worker deaths
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
        worker.let_go()

    # ----------------------------------------------------------- spawning

    async def _spawn(self, slot: str, *, checkpoint_dir: Path | None) -> _WorkerProc:
        """Start one worker child and connect to it."""
        argv = [
            sys.executable, "-m", "repro.service",
            "--serve", "127.0.0.1:0",
            "--inbox-limit", str(self.inbox_limit),
        ]
        if self.batch_linger:
            argv += ["--batch-linger", str(self.batch_linger)]
        if checkpoint_dir is not None:
            # No --checkpoint-interval: the router's fan-out is the fleet's
            # one timer, and the only one that covers a promoted standby.
            argv += ["--checkpoint-dir", str(checkpoint_dir)]
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
            worker = _WorkerProc(slot, proc, address, checkpoint_dir, log)
            # Open the pool's first link now: a worker that cannot speak
            # the binary wire fails its spawn, not a client's request.
            await worker.request({"op": "ping"})
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            raise
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
            worker.let_go()
            return
        self._standby = worker

    async def _take_standby(self) -> _WorkerProc:
        """The promotion candidate: the live standby, else a fresh spawn."""
        standby, self._standby = self._standby, None
        if standby is not None:
            if standby.proc.returncode is None:
                return standby
            standby.let_go()  # died while idle; replace it
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
        """Promote the standby into a dead worker's slot."""
        if self._workers.get(slot) is not dead:
            return  # already replaced (e.g. a stale monitor)
        t0 = _obs_clock()
        self._failing.add(slot)
        dead.let_go()
        try:
            print(f"fleet: worker {slot} (pid {dead.pid}) died; promoting standby",
                  file=sys.stderr, flush=True)
            replacement = await self._take_standby()
            try:
                reply = await replacement.request(
                    {"op": "restore", "dir": str(dead.checkpoint_dir)}
                )
                if not reply.get("ok"):
                    raise ServiceError(
                        f"standby could not restore {slot} from {dead.checkpoint_dir}: "
                        f"{reply.get('error')}"
                    )
            except BaseException:
                # Taken as the standby but never made a slot worker: no
                # shutdown would reach it, so it is stopped here.
                replacement.kill()
                replacement.let_go()
                raise
            replacement.slot = slot
            replacement.checkpoint_dir = dead.checkpoint_dir
            self._workers[slot] = replacement
            self._monitors.append(
                asyncio.create_task(self._monitor_worker(slot, replacement))
            )
            elapsed = _obs_clock() - t0
            self._failovers += 1
            self._failover_seconds += elapsed
            self._failover_seconds_max = max(self._failover_seconds_max, elapsed)
            if OBS.on:
                _OBS_FAILOVERS.inc()
                _OBS_FAILOVER_SECONDS.observe(elapsed)
                _obs_recorder.record(
                    "fleet.failover", slot=slot, ts=t0, dur_us=elapsed * 1e6,
                    pid=replacement.pid,
                )
            print(
                f"fleet: {slot} recovered on pid {replacement.pid} in "
                f"{elapsed * 1e3:.1f} ms ({int(reply['sessions'])} sessions restored)",
                file=sys.stderr, flush=True,
            )
        finally:
            self._failing.discard(slot)
            self._slot_changed(slot)
        if not self._stopping:
            self._standby_task = asyncio.create_task(self._spawn_standby())

    # ---------------------------------------------------------- exchange

    def _slot_changed(self, slot: str) -> None:
        """Wake everyone parked on this slot (its worker changed state)."""
        event = self._slot_events.get(slot)
        if event is not None:
            self._slot_events[slot] = asyncio.Event()
            event.set()

    async def _exchange(self, where: "str | _SessionRoute", message: dict,
                        recover=None) -> dict:
        """Send ``message`` to a slot's worker, across any failover.

        ``where`` is a slot name, or a session's route (its slot is read
        afresh on each try).  Returns the worker's reply, ``ok: false`` ones
        included.  When the worker dies with the request unanswered, this
        parks until the slot's replacement is up; then ``recover(worker)``
        returns the reply the lost request earned, or ``None`` to send
        ``message`` again, which is all that happens without ``recover``.
        A death during ``recover`` is handled like the first.
        """
        lost: _WorkerProc | None = None
        while True:
            slot = where if isinstance(where, str) else where.slot
            # Connection loss to a local child means the process died; its
            # monitor notices via ``proc.wait()`` and runs the failover,
            # whose completion flips the slot event.
            while slot in self._failing or (
                lost is not None and self._workers.get(slot) is lost
            ):
                await self._slot_events[slot].wait()
            worker = self._workers[slot]
            try:
                if lost is not None and recover is not None:
                    reply = await recover(worker)
                    if reply is not None:
                        return reply
                return await worker.request(message)
            except _WorkerLost:
                lost = worker

    async def _fan_out(self, message: dict) -> dict:
        """``{slot: reply}`` of every live worker that answers ``message`` ok.

        A slot mid-failover, or a worker lost under the request, is
        skipped: its monitor is (about to be) on it.
        """
        replies = {}
        for slot in self._ordered_slots():
            worker = self._workers.get(slot)
            if worker is None or slot in self._failing:
                continue
            try:
                reply = await worker.request(message)
            except _WorkerLost:
                continue
            if reply.get("ok"):
                replies[slot] = reply
        return replies

    # ------------------------------------------------------- router state

    def _save_next_id(self) -> None:
        """Write the session-id counter next to the worker checkpoint dirs.

        The workers' checkpoints hold every session, and each session's
        slot follows from its id; the counter is all that only the router
        knows, so a restarted router never hands out an id twice.
        """
        _atomic_write(
            self._root / _ROUTES_FILE,
            {"schema": _ROUTES_SCHEMA, "next_id": self._next_id},
        )

    def _load_next_id(self) -> None:
        """Resume the id counter of a previous run, if there was one.

        A file from an earlier release also maps each session to a
        routing group; the map is ignored, since sessions route by id.
        """
        path = self._root / _ROUTES_FILE
        if not path.exists():
            return
        data = json.loads(path.read_text())
        if data.get("schema") != _ROUTES_SCHEMA:
            raise ConfigurationError(
                f"unsupported fleet routing-table schema {data.get('schema')!r} at {path}"
            )
        self._next_id = int(data["next_id"])

    async def _rebuild_routes(self) -> None:
        """Re-adopt sessions the workers restored from their checkpoints.

        Each worker reports what it hosts and how many rows each session
        holds.  A session not on its ring owner (the worker count changed,
        or an earlier release placed it) moves in :meth:`_rebalance`.
        """
        found: list[tuple[str, _SessionRoute]] = []
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
                found.append((session_id, _SessionRoute(slot, received=_received(view))))
        # Stable adoption order: numeric for router-assigned ids, then name.
        def _order(item):
            sid = item[0]
            num = int(sid[1:]) if sid[1:].isdigit() and sid.startswith("s") else None
            return (0, num) if num is not None else (1, sid)
        for session_id, route in sorted(found, key=_order):
            self._sessions[session_id] = route

    # ------------------------------------------------- periodic checkpoint

    async def _checkpoint_timer(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            if self._stopping:
                return  # after an emergency kill, a tick would only write to dead links
            try:
                await self._checkpoint_fleet()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A failed round (e.g. a worker died mid-fan-out) is
                # retried next tick; the failover path owns recovery.
                traceback.print_exc()

    async def _checkpoint_fleet(self) -> int:
        """Fan a checkpoint out to every live worker; returns sessions saved."""
        replies = await self._fan_out({"op": "checkpoint"})
        total = sum(int(reply["sessions"]) for reply in replies.values())
        if OBS.on:
            _OBS_INFLIGHT_ROWS.set(self._inflight_rows)
        return total

    def _ordered_slots(self) -> list[str]:
        """Worker slots in stable (spawn) order: :meth:`resolve_slot`'s index space."""
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
        # Refuse what any worker would refuse before an id is taken, so a
        # refused create leaves the counter and router.json untouched.
        # Routing reads only the session id.
        check_create(int(request["n"]), int(request["k"]), seed=request.get("seed"),
                     engine=request.get("engine"))
        session_id = request.get("session")
        if session_id is None:
            # Skip ids a client already chose for a live session; one
            # router.json write covers however far the counter moved.
            while f"s{self._next_id}" in self._sessions:
                self._next_id += 1
            session_id = f"s{self._next_id}"
            self._next_id += 1
            self._save_next_id()
        else:
            _check_session_id(session_id)
        if session_id in self._sessions:
            raise ConfigurationError(f"session id {session_id!r} already exists")
        slot = self._ring.lookup(session_id)
        message = {"op": "create", "n": request["n"], "k": request["k"],
                   "session": session_id}
        for key in ("seed", "engine"):
            if key in request:
                message[key] = request[key]

        async def created(worker):
            # The worker checkpoints *before* acking a create, so after
            # failover the session either exists (created, ack lost) or
            # does not (never created — safe to send again).
            probe = await worker.request({"op": "query", "session": session_id})
            if probe.get("ok"):
                return {"ok": True, "session": session_id, "engine": probe["engine"]}
            return None

        reply = await self._exchange(slot, message, created)
        if not reply.get("ok"):
            raise Forwarded(reply)
        self._sessions[session_id] = _SessionRoute(slot)
        return {"session": session_id, "engine": reply.get("engine")}

    async def _op_feed(self, request: dict) -> dict:
        session_id = session_field(request)
        route = self._route(session_id)
        if "row" in request:
            rows = [request["row"]]
            message = {"op": "feed", "session": session_id, "row": request["row"]}
        else:
            # ``rows`` may be a decoded binary block (a 2-D numpy array),
            # forwarded as it is, so emptiness is len-based.
            rows = request.get("rows")
            if rows is None or len(rows) == 0:
                raise ServiceError("feed needs a 'row' or a non-empty 'rows' list")
            message = {"op": "feed", "session": session_id, "rows": rows}
        trace = request.get("trace")
        if OBS.on and trace is None:
            # Client pushed without a trace id (its obs is off): mint one
            # at the router so the hop is still traceable through a resend.
            trace = new_trace_id()
        if trace is not None:
            message["trace"] = trace
        async with route.lock:
            if self._sessions.get(session_id) is not route:
                raise ServiceError(f"unknown session {session_id!r}")
            if OBS.on:
                _obs_recorder.record("router.feed", trace=trace,
                                     session=session_id, slot=route.slot,
                                     rows=len(rows))
            self._inflight_rows += len(rows)
            try:
                reply = await self._forward_feed(session_id, route, rows, message)
            finally:
                self._inflight_rows -= len(rows)
            if OBS.on:
                _OBS_WORKER_ROWS.labels(slot=route.slot).inc(len(rows))
            return {"pending": int(reply["pending"]), "time": int(reply["time"])}

    async def _forward_feed(self, session_id: str, route: _SessionRoute, rows,
                            message: dict) -> dict:
        """Deliver one feed exactly once (caller holds the session lock).

        A worker logs each feed before acking it, so a replacement that
        restored a dead worker's directory holds every acknowledged row.
        When a worker death swallows the reply, the rows the replacement
        holds past ``route.received`` can therefore only be this feed's:
        it resends the rest, as a replay.  Returns the acknowledging reply
        (or, when nothing was left to resend, the replacement's view).
        """
        async def resend(worker):
            nonlocal rows, message
            view = await worker.request({"op": "query", "session": session_id})
            if not view.get("ok"):
                return view
            held = _received(view) - route.received
            if held < 0:
                raise ServiceError(
                    f"session {session_id!r}: the worker restored in "
                    f"{route.slot} holds {-held} fewer rows than were "
                    "acknowledged; cannot resume this feed"
                )
            route.received += held
            if held >= len(rows):
                return view  # the dead worker logged it; only the reply was lost
            rows = rows[held:]
            message = {**message, "replay": True}
            if held:
                message["rows"] = rows
            return await worker.request(message)

        reply = await self._exchange(route, message, resend)
        if not reply.get("ok"):
            raise Forwarded(reply)
        route.received = _received(reply)
        if message.get("replay"):
            self._rows_replayed += len(rows)
            if OBS.on:
                _OBS_ROWS_REPLAYED.inc(len(rows))
        return reply

    async def _op_query(self, request: dict) -> dict:
        session_id = session_field(request)
        message = {"op": "query", "session": session_id}
        if request.get("wait"):
            message["wait"] = True
        # Queries are idempotent: one lost with its worker is sent again.
        reply = await self._exchange(self._route(session_id), message)
        if not reply.get("ok"):
            raise Forwarded(reply)
        return {k: v for k, v in reply.items() if k not in ("ok", "id")}

    async def _op_close(self, request: dict) -> dict:
        session_id = session_field(request)
        route = self._route(session_id)

        async def closed(worker):
            # A worker checkpoints a close (pruning the session) before it
            # acks it: a replacement without the session lost only the ack.
            probe = await worker.request({"op": "query", "session": session_id})
            if "unknown session" in str(probe.get("error", "")):
                return {"ok": True, "session": session_id, "closed": True}
            return None

        async with route.lock:
            if self._sessions.get(session_id) is not route:
                raise ServiceError(f"unknown session {session_id!r}")
            reply = await self._exchange(route, {"op": "close", "session": session_id}, closed)
            if not reply.get("ok"):
                raise Forwarded(reply)
            del self._sessions[session_id]
            return {k: v for k, v in reply.items() if k not in ("ok", "id")}

    async def _op_checkpoint(self, request: dict) -> dict:
        return {"sessions": await self._checkpoint_fleet(), "dir": str(self._root)}

    async def _op_metrics(self, request: dict) -> dict:
        from repro.service.metrics import aggregate_snapshots

        per_worker = {
            slot: reply["metrics"]
            for slot, reply in (await self._fan_out({"op": "metrics"})).items()
        }
        aggregate = aggregate_snapshots(per_worker.values())
        failovers = self._failovers
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
                "count": failovers,
                "mean": round(self._failover_seconds / failovers * 1e3, 1) if failovers else 0.0,
                "max": round(self._failover_seconds_max * 1e3, 1),
            },
            "rows_replayed": self._rows_replayed,
            # Rows of feeds no worker has acknowledged yet: all the router
            # holds.  The field keeps its name for the metrics' readers.
            "journal_rows": self._inflight_rows,
            "per_worker": per_worker,
        }
        if OBS.on:
            _OBS_INFLIGHT_ROWS.set(self._inflight_rows)
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
        for slot, reply in (await self._fan_out({"op": "obs", "limit": limit})).items():
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

        Returns the new slot name.  Only the sessions the ring reassigns to
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
        return moved

    async def _rebalance(self) -> int:
        """Move every session to its ring owner; returns how many moved."""
        moved = 0
        for session_id, route in list(self._sessions.items()):
            target = self._ring.lookup(session_id)
            if target != route.slot:
                moved += await self._migrate(session_id, route, target)
        return moved

    async def _migrate(self, session_id: str, route: _SessionRoute, target: str) -> bool:
        """Live-move one session between workers via export/import.

        Returns whether it moved: a session closed, or already moved,
        while this waited for its lock stays as it is.  An import lost
        with its worker is sent again, from the payload the router holds,
        unless the replacement already holds the session.  An export lost
        with its worker is sent again if the replacement still holds the
        session; otherwise the payload died with the reply.
        """
        probe = {"op": "query", "session": session_id}

        async def exported(worker):
            if (await worker.request(probe)).get("ok"):
                return None
            raise ServiceError(
                f"session {session_id!r} was lost: worker {route.slot} died "
                "after detaching it for a move, before the router got it"
            )

        async def imported(worker):
            if (await worker.request(probe)).get("ok"):
                return {"ok": True, "session": session_id}
            return None

        async with route.lock:
            if self._sessions.get(session_id) is not route or route.slot == target:
                return False
            source = route.slot
            reply = await self._exchange(source, {"op": "export", "session": session_id},
                                         exported)
            if not reply.get("ok"):
                raise ServiceError(
                    f"export of {session_id} from {source} failed: {reply.get('error')}"
                )
            message = {"op": "import", "payload": reply["payload"]}
            reply = await self._exchange(target, message, imported)
            if not reply.get("ok"):
                # Never strand the payload: put it back where it came from.
                await self._exchange(source, message, imported)
                raise ServiceError(
                    f"import of {session_id} into {target} failed: {reply.get('error')}"
                )
            route.slot = target
            return True

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
        ``batch_linger``, ``checkpoint_dir``, ``checkpoint_interval``).

    Raises
    ------
    ServiceError
        If the router or any worker fails to start.
    """
    return FleetHandle.launch(lambda: FleetRouter(host, port, **options))
