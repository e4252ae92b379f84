"""The single-process front door: one manager behind the shared wire layer.

:class:`ServiceServer` is a :class:`~repro.service.protocol.Frontend`: the
listener, the connection loop (JSONL lines, the ``hello`` switch to binary
frames), the error envelope and the ``hello``/``ping``/``shutdown`` ops
live in :mod:`repro.service.protocol`, shared with the fleet router.  This
module holds what only a server has — the session manager, the stepper,
durability — and the op table that maps the wire ops onto them.

Durability: with ``checkpoint_dir`` set, the manager appends every
accepted feed to the feed log in that directory before the feed is
acknowledged (see :mod:`repro.service.manager`).  The server checkpoints
every live session — via
:meth:`repro.service.manager.SessionManager.checkpoint`, which compacts
the log — once at startup, before it listens (so the directory holds a
manifest before any request is answered), after
``create``/``close``/``export``/``import``, on the explicit ``checkpoint``
op, on the timer, on clean shutdown, and when the stepper drains to idle
with at least ``LOG_COMPACT_BYTES`` of log; on startup it first restores
the whole fleet from the directory, log included, if a checkpoint
exists.  A SIGKILLed ``--serve`` process therefore resumes its sessions
bit-identically with every acknowledged row.  Nothing is fsynced: the
files survive a killed process, not a power loss.

Concurrency model: all manager access happens on the event-loop thread.
Feeds enqueue rows and wake the single *stepper task*, which sweeps the
manager (`one row per session per sweep, batched across sessions
<repro.service.manager>`) and yields to the loop between sweeps so that
rows arriving from many connections pile into the *same* stacked sweep —
the server's whole reason to exist.  ``query`` with ``"wait": true`` parks
on a progress event the stepper flips after every sweep.

:func:`start_server` runs the same server on a daemon thread (through
:meth:`~repro.service.protocol.ServingHandle.launch`) and returns a
handle — the in-process form behind :func:`repro.serve`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import traceback
from pathlib import Path

from repro.errors import ConfigurationError, ServiceError
from repro.obs import OBS, RECORDER, obs_payload
from repro.service.manager import (
    DEFAULT_INBOX_LIMIT,
    SESSION_ENGINE,
    SessionManager,
    check_create,
)
from repro.service.protocol import Frontend, ServingHandle, session_field

__all__ = ["ServiceServer", "ServerHandle", "start_server"]

#: Feed-log size at which the stepper, on draining to idle, checkpoints to
#: compact it.  This bounds a restart's replay (at n=16 with u16 bodies,
#: about 512k rows) when the timer is off or slower than the feeds.
LOG_COMPACT_BYTES = 16 << 20


class ServiceServer(Frontend):
    """The session service: one listener, one manager, one stepper."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        manager: SessionManager | None = None,
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
        batch_linger: float = 0.0,
        checkpoint_dir: "str | os.PathLike | None" = None,
        checkpoint_interval: float | None = None,
    ):
        super().__init__(host, port, {
            "create": self._op_create,
            "feed": self._op_feed,
            "query": self._op_query,
            "close": self._op_close,
            "metrics": lambda request: {"metrics": self.manager.metrics_snapshot().as_dict()},
            "obs": self._op_obs,
            "sessions": lambda request: {"sessions": self.manager.session_ids()},
            "checkpoint": self._op_checkpoint,
            "restore": self._op_restore,
            "export": self._op_export,
            "import": self._op_import,
        })
        #: Durability root: sessions are checkpointed here and restored
        #: from here at startup (None disables persistence).
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        #: Seconds between timer checkpoints (None disables the timer).
        #: Acked feeds are in the feed log either way; each checkpoint
        #: compacts it, so the timer bounds the log's length and a
        #: restart's replay.  A fleet worker runs no timer: the router
        #: fans its checkpoints out instead.
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be > 0 seconds, got {checkpoint_interval}"
            )
        self.checkpoint_interval = checkpoint_interval
        if manager is not None:
            self.manager = manager
        else:
            restore = None
            if self.checkpoint_dir is not None and (self.checkpoint_dir / "manager.json").exists():
                restore = self.checkpoint_dir
            self.manager = SessionManager(inbox_limit=inbox_limit, restore=restore)
        #: Seconds the stepper lingers after waking from idle before its
        #: first sweep, letting feeds from many connections pile into the
        #: same stacked sweep — a tail-latency/batch-width trade-off.
        self.batch_linger = batch_linger
        self._stepper_task: asyncio.Task | None = None
        self._timer_task: asyncio.Task | None = None
        self._work: asyncio.Event | None = None
        self._progress: asyncio.Event | None = None

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind the listener and start the stepper; returns ``(host, port)``."""
        self._work = asyncio.Event()
        self._progress = asyncio.Event()
        self._stopped = asyncio.Event()
        # A directory with a manifest can be restored, so a fleet standby
        # can take over this server even before its first create.
        self._checkpoint()
        await self._listen()
        self._stepper_task = asyncio.create_task(self._stepper())
        if self.checkpoint_interval is not None and self.checkpoint_dir is not None:
            self._timer_task = asyncio.create_task(self._checkpoint_timer())
        return self.address

    async def run_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`, then shut everything down."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()
        self._stepper_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._stepper_task
        if self._timer_task is not None:
            self._timer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._timer_task
        self._checkpoint()  # clean shutdown persists the final state
        await self._unlisten()

    def record_wire(self, framing: str, rows: int, seconds: float) -> None:
        """Account codec seconds in the manager's metrics and the registry."""
        self.manager.metrics.record_wire(rows, seconds)
        super().record_wire(framing, rows, seconds)

    # ------------------------------------------------------------- stepper

    async def _stepper(self) -> None:
        try:
            while True:
                await self._work.wait()
                self._work.clear()
                if self.batch_linger > 0:
                    await asyncio.sleep(self.batch_linger)
                while self.manager.total_pending():
                    self.manager.step()
                    # Flip the progress event so parked waiters re-check, then
                    # yield once so freshly arrived feeds join the next sweep.
                    event, self._progress = self._progress, asyncio.Event()
                    event.set()
                    await asyncio.sleep(0)
                # Idle: every acked feed is already logged; compact only a
                # long log, so a drained block costs no file rewrite.
                if self.manager.log_bytes() >= LOG_COMPACT_BYTES:
                    self._checkpoint()
        except asyncio.CancelledError:
            raise
        except BaseException:
            # A dead stepper would leave a zombie server: feeds accepted,
            # nothing stepped, waiters parked forever.  Fail loudly instead.
            traceback.print_exc()
            print("service stepper crashed; shutting the server down", file=sys.stderr, flush=True)
            self.request_stop()

    def _checkpoint(self) -> None:
        """Persist the fleet if durability is on (no-op otherwise)."""
        if self.checkpoint_dir is not None:
            self.manager.checkpoint(self.checkpoint_dir)

    async def _checkpoint_timer(self) -> None:
        """Timer checkpoints: bound the feed log and a restart's replay.

        Acked feeds are logged, so a SIGKILL loses none of them; each tick
        compacts the log into the session files instead.  ``checkpoint()``
        only rewrites dirty sessions, and a tick with nothing fed since the
        last one touches no file.
        """
        try:
            while True:
                await asyncio.sleep(self.checkpoint_interval)
                self._checkpoint()
        except asyncio.CancelledError:
            raise
        except BaseException:
            # A dead timer silently voids the durability contract; surface
            # it the same way a stepper crash is surfaced.
            traceback.print_exc()
            print("service checkpoint timer crashed; shutting the server down",
                  file=sys.stderr, flush=True)
            self.request_stop()

    # ------------------------------------------------------------------ ops

    def _op_create(self, request: dict) -> dict:
        n, k, seed = int(request["n"]), int(request["k"]), request.get("seed")
        check_create(n, k, seed=seed, engine=request.get("engine"))
        session_id = self.manager.create(n, k, seed=seed, session_id=request.get("session"))
        self._checkpoint()  # a created-but-unfed session must survive a kill
        return {"session": session_id, "engine": SESSION_ENGINE}

    def _op_feed(self, request: dict) -> dict:
        session_id = session_field(request)
        if "row" in request:
            rows_fed = 1
            pending = self.manager.feed(session_id, request["row"])
        else:
            # ``rows`` may be a decoded binary batch (a 2-D numpy array),
            # so emptiness is len-based rather than truthiness-based.
            rows = request.get("rows")
            if rows is None or len(rows) == 0:
                raise ServiceError("feed needs a 'row' or a non-empty 'rows' list")
            rows_fed = len(rows)
            pending = self.manager.feed_many(session_id, rows)
        if OBS.on:
            RECORDER.record(
                "server.feed", trace=request.get("trace"), session=session_id,
                rows=rows_fed, replay=bool(request.get("replay")),
            )
        self._work.set()
        return {"pending": pending, "time": self.manager.time(session_id)}

    async def _op_query(self, request: dict) -> dict:
        session_id = session_field(request)
        if request.get("wait"):
            while self.manager.pending(session_id) > 0:
                self._work.set()
                event = self._progress
                await event.wait()
        return self.manager.query(session_id).as_dict()

    def _op_close(self, request: dict) -> dict:
        view = self.manager.close(session_field(request))
        self._checkpoint()  # a closed session must not resurrect on restore
        return {**view.as_dict(), "closed": True}

    def _op_checkpoint(self, request: dict) -> dict:
        if self.checkpoint_dir is None:
            raise ServiceError("server was started without a checkpoint dir (--checkpoint-dir)")
        count = self.manager.checkpoint(self.checkpoint_dir)
        return {"sessions": count, "dir": str(self.checkpoint_dir)}

    def _op_restore(self, request: dict) -> dict:
        # Fleet failover: a hot standby (spawned empty, no checkpoint dir
        # of its own yet) adopts a dead worker's checkpoint directory and
        # replays it.  The manager enforces emptiness, so a live worker
        # cannot be hijacked into doubling sessions.
        directory = request.get("dir")
        if not directory:
            raise ServiceError("restore needs a 'dir' field")
        count = self.manager.restore_from(directory)
        self.checkpoint_dir = Path(directory)
        if OBS.on:
            RECORDER.record("server.restore", sessions=count, dir=str(directory))
        self._work.set()  # restored inboxes may hold pending rows
        return {"sessions": count, "dir": str(self.checkpoint_dir)}

    def _op_export(self, request: dict) -> dict:
        # Fleet migration, donor side: detach the session and hand its full
        # checkpoint payload to the router.  Checkpoint afterwards so the
        # donor's directory stops claiming a session it no longer owns.
        payload = self.manager.export_session(session_field(request))
        self._checkpoint()
        return {"payload": payload}

    def _op_import(self, request: dict) -> dict:
        # Fleet migration, recipient side of `export`.
        payload = request.get("payload")
        if not isinstance(payload, dict):
            raise ServiceError("import needs a 'payload' object (from an export reply)")
        session_id = self.manager.import_session(payload)
        self._checkpoint()
        self._work.set()  # the imported inbox may hold pending rows
        return {"session": session_id, "engine": SESSION_ENGINE}

    def _op_obs(self, request: dict) -> dict:
        # A metrics snapshot publishes the service gauges: take one, so the
        # exposition reads this moment and not the last `metrics` op.
        self.manager.metrics_snapshot()
        limit = request.get("limit")
        return obs_payload(limit=int(limit) if limit is not None else None)


class ServerHandle(ServingHandle):
    """A service server running on a background thread.

    Returned by :func:`start_server` / :func:`repro.serve`; usable as a
    context manager.  ``close()`` requests a clean shutdown and joins the
    thread.
    """

    thread_name = "repro-service"
    label = "service server"
    start_timeout = 30.0
    join_timeout = 10.0

    @property
    def manager(self) -> SessionManager:
        """The server's session manager (inspect only from tests/benchmarks —
        it lives on the server thread)."""
        return self._frontend.manager


def start_server(host: str = "127.0.0.1", port: int = 0, **options) -> ServerHandle:
    """Run a :class:`ServiceServer` on a daemon thread; returns its handle.

    Args
    ----
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        ``handle.address``).
    options:
        Forwarded to :class:`ServiceServer` (``manager``, ``inbox_limit``,
        ``batch_linger``, ``checkpoint_dir``, ``checkpoint_interval``).

    Raises
    ------
    ServiceError
        If the server fails to bind (e.g. the port is taken).
    """
    return ServerHandle.launch(lambda: ServiceServer(host, port, **options))
