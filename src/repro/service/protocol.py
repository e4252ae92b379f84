"""One connection layer for both front doors of the session service.

:class:`Frontend` is the listener, the per-connection loop, the
packed-feed fan-out, the JSON decode and the error envelope of both
:class:`~repro.service.server.ServiceServer` and
:class:`~repro.service.fleet.FleetRouter`; each adds only its own state
and an op table, so clients cannot tell the two apart.

Wire format: one JSON object per line in each direction (see
``docs/architecture.md`` for the full op table and a worked trace).  Every
request carries an ``"op"``; replies carry ``"ok"`` plus op-specific
fields, and echo a client-chosen ``"id"`` when one was sent.  Failures
reply ``{"ok": false, "error": ..., "code": ...}`` — the connection stays
usable, mirroring how a coordinator survives a misbehaving node.

JSONL is the default and the debug path.  A connection can upgrade to
the length-prefixed binary framing of :mod:`repro.service.wire` via the
``hello`` op (``{"op": "hello", "wire": "binary", "version": 2}``): after
an accepting reply both sides switch to frames, feeds arrive as one
session's packed int64 rows and are acknowledged with struct-packed
replies — no ``json.loads``/``json.dumps`` on the hot path.  Results are bit-identical
either way; the framing only changes how the bytes move.

:meth:`ServingHandle.launch` runs a front door on a daemon thread with
its own event loop — the in-process form behind :func:`repro.serve`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import traceback

from repro.errors import BackpressureError, ConfigurationError, ReproError, ServiceError
from repro.obs.registry import clock as _clock
from repro.service import wire

__all__ = [
    "Forwarded", "Frontend", "LINE_LIMIT", "SHARED_OPS", "ServingHandle",
    "encode_line", "session_field",
]

#: Per-line read limit (a row of ~50k JSON-encoded int64s fits).
LINE_LIMIT = 1 << 20


class Forwarded(Exception):
    """Carries a worker's failure reply verbatim to the client."""

    def __init__(self, reply: dict):
        super().__init__(reply.get("error", "worker request failed"))
        self.reply = reply


def session_field(request: dict) -> str:
    """The request's ``session`` id; a missing one is a typed error."""
    try:
        return request["session"]
    except KeyError:
        raise ServiceError("request is missing the 'session' field") from None


def encode_line(payload: dict) -> bytes:
    """One JSONL line around a request or reply object."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def _op_hello(request: dict) -> dict:
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


def _op_ping(request: dict) -> dict:
    return {}


#: Ops every front door answers itself.  ``shutdown`` acks like ``ping``;
#: the connection loop stops the front door once the ack is written.
SHARED_OPS = {"hello": _op_hello, "ping": _op_ping, "shutdown": _op_ping}


class Frontend:
    """A front door's listener, connection loop and error envelope.

    Subclasses hand their op table to ``__init__`` and keep their own
    ``start``/``run_until_stopped``: ``start`` creates ``_stopped`` and
    binds with :meth:`_listen`; ``run_until_stopped`` waits on
    ``_stopped``, winds the subclass down and ends with :meth:`_unlisten`.
    """

    def __init__(self, host: str, port: int, ops: dict):
        #: The front door's own ops: name -> handler(request) returning the
        #: reply's payload fields as a dict, or an awaitable of that dict.
        #: :data:`SHARED_OPS` are answered besides these.
        self.ops = ops
        self._host = host
        self._port = port
        self.address: tuple[str, int] | None = None
        self._server: asyncio.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopped: asyncio.Event | None = None

    # ----------------------------------------------------------- lifecycle

    async def _listen(self) -> None:
        """Bind the client listener and record its ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port, limit=LINE_LIMIT
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    async def _unlisten(self) -> None:
        """Close the listener and every client connection, then cancel
        every other task still on the loop."""
        self._server.close()
        # Clients first: from Python 3.12.1 on, wait_closed() also waits
        # for every open connection, so a connected client would block it.
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        # Unpark any query still waiting on a progress event (its client
        # connection is gone) so the loop can wind down without orphans.
        current = asyncio.current_task()
        for task in asyncio.all_tasks():
            if task is not current and not task.done():
                task.cancel()

    def request_stop(self) -> None:
        """Ask the front door to shut down (safe to call from a loop callback)."""
        if self._stopped is not None:
            self._stopped.set()

    def emergency_kill(self) -> None:
        """Last-resort cleanup on abnormal exit: SIGKILL any child processes."""

    # ------------------------------------------------------------- clients

    async def _handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_line(
                        {"ok": False, "error": "request line too long", "code": "bad_request"}
                    ))
                    await writer.drain()
                    break
                if not line:
                    break
                response, stop_after = await self._dispatch(line)
                writer.write(encode_line(response))
                await writer.drain()
                if stop_after:
                    self.request_stop()
                    break
                if response.get("ok") and response.get("wire") == "binary":
                    # An accepted binary hello: everything after the reply
                    # speaks frames.  JSONL never emits a "wire" key
                    # otherwise, so this is the only switch point.
                    await self._serve_binary(reader, writer)
                    break
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

        Containment follows the JSONL contract: a payload-level failure
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

        The hot path: ``np.frombuffer`` for the rows in, one ``feed`` op,
        ``struct.pack`` for the ack out — no JSON.  A failure replies with
        the same typed envelope (as a ``KIND_JSON`` frame) that the JSONL
        path uses.
        """
        t0 = _clock()
        try:
            [(session_id, rows)], replay, trace = wire.decode_feed(payload)
        except wire.FramePayloadError as exc:
            return wire.encode_json({"ok": False, "error": str(exc), "code": "bad_frame"})
        decode_seconds = _clock() - t0
        request: dict = {"op": "feed", "session": session_id, "rows": rows}
        if trace is not None:
            request["trace"] = trace
        if replay:
            request["replay"] = True
        response, _ = await self._dispatch_request(request)
        if not response.get("ok"):
            return wire.encode_json(response)
        t1 = _clock()
        frame = wire.encode_ack([(int(response["pending"]), int(response["time"]))])
        self.record_wire("binary", len(rows), decode_seconds + (_clock() - t1))
        return frame

    def record_wire(self, framing: str, rows: int, seconds: float) -> None:
        """Account one acked feed exchange's codec seconds (the registry only)."""
        wire.observe(framing, rows, seconds)

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
            self.record_wire("jsonl", rows, decode_seconds)
        return response, stop_after

    async def _dispatch_request(self, request: dict) -> tuple[dict, bool]:
        """Run one request through the op tables; returns ``(reply, stop_after)``."""
        op = request.get("op")
        correlation = {"id": request["id"]} if "id" in request else {}
        try:
            # A non-string op (even an unhashable JSON list) is an unknown
            # op, never a TypeError out of the table lookup.
            handler = (self.ops.get(op) or SHARED_OPS.get(op)) if isinstance(op, str) else None
            if handler is None:
                raise ServiceError(f"unknown op {op!r}")
            payload = handler(request)
            if not isinstance(payload, dict):
                payload = await payload
        except Forwarded as exc:
            reply = {k: v for k, v in exc.reply.items() if k != "id"}
        except BackpressureError as exc:
            reply = {"ok": False, "error": str(exc), "code": "backpressure", "limit": exc.limit}
        except ConfigurationError as exc:
            reply = {"ok": False, "error": str(exc), "code": "bad_request"}
        except ReproError as exc:
            reply = {"ok": False, "error": str(exc), "code": "error"}
        except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
            # Missing/ragged/mistyped/absurdly-sized request fields must
            # answer like any other bad request — the connection stays
            # usable (JSON even permits Infinity, which int() overflows on).
            detail = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            reply = {"ok": False, "error": f"bad request: {detail}", "code": "bad_request"}
        except Exception as exc:
            # Last-ditch guard: a bug in an op handler must fail the one
            # request, not the reader task (which would silently drop the
            # connection) — and never the front door.
            traceback.print_exc()
            reply = {
                "ok": False, "error": f"internal error: {type(exc).__name__}: {exc}",
                "code": "internal",
            }
        else:
            return {"ok": True, **payload, **correlation}, op == "shutdown"
        return {**reply, **correlation}, False


class ServingHandle:
    """A front door running on a daemon thread with its own event loop.

    Built by :meth:`launch`; usable as a context manager.  ``close()``
    requests a clean shutdown and joins the thread.  Subclasses set the
    class attributes below.
    """

    #: Set by each subclass: the serving thread's name, what a start-up
    #: failure calls the front door, and the seconds :meth:`launch` waits
    #: for the bind and :meth:`close` for the thread.
    thread_name: str
    label: str
    start_timeout: float
    join_timeout: float

    def __init__(self, frontend: Frontend, loop: asyncio.AbstractEventLoop, thread: threading.Thread):
        self._frontend = frontend
        self._loop = loop
        self._thread = thread

    @classmethod
    def launch(cls, build) -> "ServingHandle":
        """Run the front door ``build()`` returns on a daemon thread.

        ``build`` runs on the new thread, so the front door is created
        next to the event loop that will serve it.  Raises
        :class:`~repro.errors.ServiceError` if building, binding or
        starting it fails.
        """
        started = threading.Event()
        state: dict = {}

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                frontend = build()
                state["frontend"] = frontend
                state["loop"] = loop

                async def _main() -> None:
                    try:
                        await frontend.start()
                    except (OSError, ReproError) as exc:
                        state["error"] = exc
                        frontend.emergency_kill()
                        started.set()
                        return
                    started.set()
                    await frontend.run_until_stopped()

                loop.run_until_complete(_main())
            except Exception as exc:  # startup errors outside _main (bad options)
                state["error"] = exc
                started.set()
            finally:
                if "frontend" in state:
                    state["frontend"].emergency_kill()
                loop.close()

        thread = threading.Thread(target=_run, name=cls.thread_name, daemon=True)
        thread.start()
        started.wait(timeout=cls.start_timeout)
        if "error" in state:
            thread.join(timeout=10)
            raise ServiceError(f"{cls.label} failed to start: {state['error']}") from state["error"]
        if "frontend" not in state or state["frontend"].address is None:
            raise ServiceError(f"{cls.label} failed to start (thread did not report an address)")
        return cls(state["frontend"], state["loop"], thread)

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the front door is listening on."""
        return self._frontend.address

    def close(self) -> None:
        """Shut the front door down and join its thread (idempotent)."""
        if self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._frontend.request_stop)
            self._thread.join(timeout=self.join_timeout)
        if self._thread.is_alive():  # wedged shutdown: never leak children
            self._frontend.emergency_kill()

    def __enter__(self) -> "ServingHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
