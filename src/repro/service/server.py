"""Asyncio JSONL-over-TCP front end for the session manager.

Wire format: one JSON object per line in each direction (see
``docs/architecture.md`` for the full op table and a worked trace).  Every
request carries an ``"op"``; replies carry ``"ok"`` plus op-specific
fields, and echo a client-chosen ``"id"`` when one was sent.  Failures
reply ``{"ok": false, "error": ..., "code": ...}`` — the connection stays
usable, mirroring how a coordinator survives a misbehaving node.

JSONL is the default and the debug path.  A connection can upgrade to
the length-prefixed binary framing of :mod:`repro.service.wire` via the
``hello`` op (``{"op": "hello", "wire": "binary", "version": 1}``): after
an accepting reply both sides switch to frames, feeds arrive as packed
int64 row batches and are acknowledged with struct-packed replies — no
``json.loads``/``json.dumps`` on the hot path.  Results are bit-identical
either way; the framing only changes how the bytes move.

Durability: with ``checkpoint_dir`` set, the manager appends every
accepted feed to the feed log in that directory before the feed is
acknowledged (see :mod:`repro.service.manager`).  The server checkpoints
every live session — via
:meth:`repro.service.manager.SessionManager.checkpoint`, which compacts
the log — after ``create``/``close``/``export``/``import``, on the
explicit ``checkpoint`` op, on the timer, on clean shutdown, and when the
stepper drains to idle with at least ``LOG_COMPACT_BYTES`` of log; on
startup it restores the whole fleet from the directory, log included, if
a checkpoint exists.  A SIGKILLed ``--serve`` process therefore resumes
its sessions bit-identically with every acknowledged row.  Nothing is
fsynced: the files survive a killed process, not a power loss.

Concurrency model: all manager access happens on the event-loop thread.
Feeds enqueue rows and wake the single *stepper task*, which sweeps the
manager (`one row per session per sweep, batched across sessions
<repro.service.manager>`) and yields to the loop between sweeps so that
rows arriving from many connections pile into the *same* stacked sweep —
the server's whole reason to exist.  ``query`` with ``"wait": true`` parks
on a progress event the stepper flips after every sweep.

:func:`start_server` runs the same server on a daemon thread and returns a
handle — the in-process form behind :func:`repro.serve`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
import threading
import traceback
from pathlib import Path

from repro.errors import BackpressureError, ConfigurationError, ReproError, ServiceError
from repro.obs import OBS, RECORDER, obs_payload
from repro.obs.registry import clock as _clock
from repro.service import wire
from repro.service.manager import DEFAULT_INBOX_LIMIT, DEFAULT_MAX_NODES, SessionManager

__all__ = ["ServiceServer", "ServerHandle", "new_event_loop", "start_server"]

#: Per-line read limit (a row of ~50k JSON-encoded int64s fits).
_LINE_LIMIT = 1 << 20

#: Feed-log size at which the stepper, on draining to idle, checkpoints to
#: compact it.  This bounds a restart's replay (at n=16 with u16 bodies,
#: about 512k rows) when the timer is off or slower than the feeds.
LOG_COMPACT_BYTES = 16 << 20


class ServiceServer:
    """The JSONL session service: one listener, one manager, one stepper."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        manager: SessionManager | None = None,
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
        max_nodes: int = DEFAULT_MAX_NODES,
        batch: bool = True,
        batch_linger: float = 0.0,
        checkpoint_dir: "str | os.PathLike | None" = None,
        checkpoint_interval: float | None = None,
        lookahead: bool = True,
    ):
        #: Durability root: sessions are checkpointed here and restored
        #: from here at startup (None disables persistence).
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        #: Seconds between timer checkpoints (None disables the timer).
        #: Acked feeds are in the feed log either way; each checkpoint
        #: compacts it, so the timer bounds the log's length and a
        #: restart's replay — and the fleet router trims its failover
        #: journal only at the checkpoints it fans out on the same period.
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
            self.manager = SessionManager(
                inbox_limit=inbox_limit, max_nodes=max_nodes, batch=batch,
                lookahead=lookahead, restore=restore,
            )
        #: Seconds the stepper lingers after waking from idle before its
        #: first sweep, letting feeds from many connections pile into the
        #: same stacked sweep — a tail-latency/batch-width trade-off.
        self.batch_linger = batch_linger
        self._host = host
        self._port = port
        self.address: tuple[str, int] | None = None
        self._server: asyncio.Server | None = None
        self._stepper_task: asyncio.Task | None = None
        self._timer_task: asyncio.Task | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._work: asyncio.Event | None = None
        self._progress: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind the listener and start the stepper; returns ``(host, port)``."""
        self._work = asyncio.Event()
        self._progress = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port, limit=_LINE_LIMIT
        )
        self.address = self._server.sockets[0].getsockname()[:2]
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
        self._server.close()
        await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        # Unpark any query still waiting on a progress event (its client
        # connection is gone) so the loop can wind down without orphans.
        current = asyncio.current_task()
        for task in asyncio.all_tasks():
            if task is not current and not task.done():
                task.cancel()

    async def serve(self) -> None:
        """``start`` + ``run_until_stopped`` in one call (the CLI entry)."""
        await self.start()
        await self.run_until_stopped()

    def request_stop(self) -> None:
        """Ask the server to shut down (safe to call from a loop callback)."""
        if self._stopped is not None:
            self._stopped.set()

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

    # ------------------------------------------------------------- clients

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            binary = False
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_encode({"ok": False, "error": "request line too long", "code": "bad_request"}))
                    await writer.drain()
                    break
                if not line:
                    break
                response, stop_after = await self._dispatch(line)
                writer.write(_encode(response))
                await writer.drain()
                if stop_after:
                    self.request_stop()
                    break
                if response.get("ok") and response.get("wire") == "binary":
                    # An accepted binary hello: everything after the reply
                    # speaks frames.  JSONL never emits a "wire" key
                    # otherwise, so this is the only switch point.
                    binary = True
                    break
            if binary:
                await self._serve_binary(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            # CancelledError included: shutdown cancels handlers that are
            # already in this finally, and the cancellation must not leak
            # into the stream protocol's done-callback as a logged error.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_binary(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """The framed loop a connection runs after a successful hello.

        Containment mirrors the JSONL contract: a payload-level failure
        (bad JSON inside ``KIND_JSON``, a malformed packed feed) costs one
        error reply and the connection survives; an untrustworthy header
        (wrong magic, absurd length) gets one ``bad_frame`` reply and the
        connection closes; EOF — between or inside frames — closes
        silently.
        """
        while True:
            try:
                kind, payload = await wire.read_frame(reader)
            except wire.FrameEOF:
                return
            except wire.FrameError as exc:
                writer.write(wire.encode_json(
                    {"ok": False, "error": str(exc), "code": "bad_frame"}
                ))
                await writer.drain()
                return
            stop_after = False
            if kind == wire.KIND_FEED:
                reply = await self._feed_frame(payload)
            else:
                # KIND_JSON carries any op; a stray KIND_ACK payload fails
                # JSON parsing and answers bad_json like garbage JSONL.
                response, stop_after = await self._dispatch(payload)
                reply = wire.encode_json(response)
            writer.write(reply)
            await writer.drain()
            if stop_after:
                self.request_stop()
                return

    async def _feed_frame(self, payload: bytes) -> bytes:
        """Decode one packed feed frame, apply it, pre-encode the ack.

        The hot path: ``np.frombuffer`` for the rows in, ``struct.pack``
        for the ack out — no JSON.  Failures reply with the same typed
        envelope (as a ``KIND_JSON`` frame) that the JSONL path uses.
        """
        t0 = _clock()
        try:
            batches, replay, trace = wire.decode_feed(payload)
        except wire.FramePayloadError as exc:
            return wire.encode_json({"ok": False, "error": str(exc), "code": "bad_frame"})
        decode_seconds = _clock() - t0
        acks = []
        rows_total = 0
        for session_id, rows in batches:
            request: dict = {"op": "feed", "session": session_id, "rows": rows}
            if trace is not None:
                request["trace"] = trace
            if replay:
                request["replay"] = True
            response, _ = await self._dispatch_request(request)
            if not response.get("ok"):
                return wire.encode_json(response)
            rows_total += len(rows)
            acks.append((int(response["pending"]), int(response["time"])))
        t1 = _clock()
        frame = wire.encode_ack(acks)
        codec_seconds = decode_seconds + (_clock() - t1)
        self.manager.metrics.record_wire(rows_total, codec_seconds)
        wire.observe("binary", rows_total, codec_seconds)
        return frame

    async def _dispatch(self, line: bytes) -> tuple[dict, bool]:
        t0 = _clock()
        try:
            request = json.loads(line)  # reprolint: disable=R4 — the JSONL debug path
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"malformed JSON: {exc}", "code": "bad_json"}, False
        except UnicodeDecodeError as exc:
            # Non-UTF-8 garbage (a port scanner, a corrupted frame) raises
            # UnicodeDecodeError — a ValueError that is NOT JSONDecodeError
            # — and must answer like any other malformed frame instead of
            # escaping into the reader task.
            return {"ok": False, "error": f"malformed frame: {exc}", "code": "bad_json"}, False
        decode_seconds = _clock() - t0
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object", "code": "bad_request"}, False
        response, stop_after = await self._dispatch_request(request)
        if request.get("op") == "feed" and response.get("ok"):
            rows = 1 if "row" in request else len(request.get("rows") or ())
            self.manager.metrics.record_wire(rows, decode_seconds)
            wire.observe("jsonl", rows, decode_seconds)
        return response, stop_after

    async def _dispatch_request(self, request: dict) -> tuple[dict, bool]:
        op = request.get("op")
        correlation = {"id": request["id"]} if "id" in request else {}
        stop_after = False
        try:
            if op == "create":
                payload = self._op_create(request)
            elif op == "feed":
                payload = self._op_feed(request)
            elif op == "query":
                payload = await self._op_query(request)
            elif op == "close":
                payload = self._op_close(request)
            elif op == "metrics":
                payload = {"metrics": self.manager.metrics_snapshot().as_dict()}
            elif op == "obs":
                limit = request.get("limit")
                payload = obs_payload(limit=int(limit) if limit is not None else None)
            elif op == "sessions":
                payload = {"sessions": self.manager.session_ids()}
            elif op == "checkpoint":
                payload = self._op_checkpoint()
            elif op == "restore":
                payload = self._op_restore(request)
            elif op == "export":
                payload = self._op_export(request)
            elif op == "import":
                payload = self._op_import(request)
            elif op == "hello":
                payload = self._op_hello(request)
            elif op == "ping":
                payload = {}
            elif op == "shutdown":
                payload = {}
                stop_after = True
            else:
                raise ServiceError(f"unknown op {op!r}")
        except BackpressureError as exc:
            return {
                "ok": False, "error": str(exc), "code": "backpressure",
                "limit": exc.limit, **correlation,
            }, False
        except ConfigurationError as exc:
            return {"ok": False, "error": str(exc), "code": "bad_request", **correlation}, False
        except ReproError as exc:
            return {"ok": False, "error": str(exc), "code": "error", **correlation}, False
        except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
            # Missing/ragged/mistyped/absurdly-sized request fields must
            # answer like any other bad request — the connection stays
            # usable (JSON even permits Infinity, which int() overflows on).
            detail = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            return {"ok": False, "error": f"bad request: {detail}", "code": "bad_request", **correlation}, False
        except Exception as exc:
            # Last-ditch guard: a bug in an op handler must fail the one
            # request, not the reader task (which would silently drop the
            # connection) — and never the server.
            traceback.print_exc()
            return {
                "ok": False, "error": f"internal error: {type(exc).__name__}: {exc}",
                "code": "internal", **correlation,
            }, False
        return {"ok": True, **payload, **correlation}, stop_after

    # ------------------------------------------------------------------ ops

    def _op_create(self, request: dict) -> dict:
        session_id = self.manager.create(
            int(request["n"]),
            int(request["k"]),
            seed=request.get("seed"),
            engine=request.get("engine"),
            session_id=request.get("session"),
        )
        self._checkpoint()  # a created-but-unfed session must survive a kill
        return {"session": session_id, "engine": self.manager.engine(session_id)}

    def _op_hello(self, request: dict) -> dict:
        """Negotiate the connection's framing (the JSONL side of the switch).

        Only an exact ``wire="binary"`` + matching version upgrades; any
        other ask is answered ``wire="jsonl"`` so unknown framings degrade
        to the debug path instead of erroring.
        """
        wanted = request.get("wire", "jsonl")
        try:
            version = int(request.get("version", wire.WIRE_VERSION))
        except (TypeError, ValueError):
            version = -1
        if wanted == "binary" and version == wire.WIRE_VERSION:
            return {"wire": "binary", "version": wire.WIRE_VERSION}
        return {"wire": "jsonl"}

    def _op_feed(self, request: dict) -> dict:
        session_id = _session_field(request)
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
            # One span per originating trace id: a normal push carries one
            # "trace", a failover replay chunk may merge rows from several
            # pushes and carries their ids as "traces" — recording each id
            # is what makes a replayed row attributable to its push.
            traces = request.get("traces") or [request.get("trace")]
            for trace in traces:
                RECORDER.record(
                    "server.feed", trace=trace, session=session_id,
                    rows=rows_fed, replay=bool(request.get("replay")),
                )
        self._work.set()
        return {"pending": pending, "time": self.manager.time(session_id)}

    async def _op_query(self, request: dict) -> dict:
        session_id = _session_field(request)
        if request.get("wait"):
            while self.manager.pending(session_id) > 0:
                self._work.set()
                event = self._progress
                await event.wait()
        return self.manager.query(session_id).as_dict()

    def _op_close(self, request: dict) -> dict:
        view = self.manager.close(_session_field(request))
        self._checkpoint()  # a closed session must not resurrect on restore
        return {**view.as_dict(), "closed": True}

    def _op_checkpoint(self) -> dict:
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
        payload = self.manager.export_session(_session_field(request))
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
        return {"session": session_id, "engine": self.manager.engine(session_id)}


def _session_field(request: dict) -> str:
    try:
        return request["session"]
    except KeyError:
        raise ServiceError("request is missing the 'session' field") from None


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def new_event_loop() -> asyncio.AbstractEventLoop:
    """A fresh event loop, on ``uvloop`` when it is importable.

    ``uvloop`` is a pure accelerator, never a dependency: CI and the
    baked toolchain run without it, and the stock asyncio loop is the
    always-correct fallback.  Every serving entry point (``start_server``,
    ``start_fleet``, ``python -m repro.service --serve``) builds its loop
    here so adopting uvloop is one import away everywhere at once.
    """
    try:
        import uvloop
    except ImportError:
        return asyncio.new_event_loop()
    return uvloop.new_event_loop()


class ServerHandle:
    """A service server running on a background thread.

    Returned by :func:`start_server` / :func:`repro.serve`; usable as a
    context manager.  ``close()`` requests a clean shutdown and joins the
    thread.
    """

    def __init__(self, server: ServiceServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread):
        self._server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is listening on."""
        return self._server.address

    @property
    def manager(self) -> SessionManager:
        """The server's session manager (inspect only from tests/benchmarks —
        it lives on the server thread)."""
        return self._server.manager

    def close(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._server.request_stop)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_server(host: str = "127.0.0.1", port: int = 0, **options) -> ServerHandle:
    """Run a :class:`ServiceServer` on a daemon thread; returns its handle.

    Args
    ----
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        ``handle.address``).
    options:
        Forwarded to :class:`ServiceServer` (``inbox_limit``, ``batch``,
        ``checkpoint_dir``, ``manager``).

    Raises
    ------
    ServiceError
        If the server fails to bind (e.g. the port is taken).
    """
    started = threading.Event()
    state: dict = {}

    def _run() -> None:
        loop = new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            server = ServiceServer(host, port, **options)
            state["server"] = server
            state["loop"] = loop

            async def _main() -> None:
                try:
                    await server.start()
                except OSError as exc:
                    state["error"] = exc
                    started.set()
                    return
                started.set()
                await server.run_until_stopped()

            loop.run_until_complete(_main())
        except Exception as exc:  # startup errors outside _main (bad options)
            state["error"] = exc
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if "error" in state:
        thread.join(timeout=10)
        raise ServiceError(f"service server failed to start: {state['error']}") from state["error"]
    if "server" not in state or state["server"].address is None:
        raise ServiceError("service server failed to start (thread did not report an address)")
    return ServerHandle(state["server"], state["loop"], thread)
