"""Blocking JSONL client for the streaming session service.

One :class:`ServiceClient` is one TCP connection with one request in
flight at a time (the server multiplexes many such connections into its
batched sweeps).  :class:`SessionHandle` wraps the per-session ops —
push-a-row, read-top-k, read-message-count — in the same shape as a local
:class:`~repro.core.monitor.OnlineSession`.

The client is deliberately synchronous (plain sockets, no asyncio): it is
what a sensor gateway, a shell script, or a test drives, and it needs no
event loop of its own.

Fault tolerance
---------------
Real gateways talk to the service over networks that drop and servers
that restart, so the client carries a :class:`RetryPolicy`:

* **connecting** retries with exponential backoff + jitter up to the
  policy's attempt budget, then raises the typed
  :class:`~repro.errors.ServiceConnectError` (each attempt bounded by
  ``connect_timeout``, each established connection by the per-op
  ``timeout``);
* **idempotent ops** (query/ping/sessions/metrics/checkpoint) that lose
  the connection mid-flight transparently reconnect and resend;
* **feeds** are *not* blindly resent — a lost reply leaves it unknown
  whether the server enqueued the rows.  :class:`SessionHandle` tracks
  the server's acknowledged row count (``time + 1 + pending`` from every
  reply), and on reconnect queries it back and resends only the suffix
  the server never received: exactly-once feeding across connection
  loss and ``--checkpoint-dir`` server restarts, from the client's own
  bookkeeping (single writer per session assumed).

Wire framing
------------
``ServiceClient(wire="binary")`` negotiates the packed framing of
:mod:`repro.service.wire` on every (re)connection via the ``hello`` op,
falling back to JSONL transparently when the server declines — results
are bit-identical either way.  :meth:`SessionHandle.feed` is one round
trip per row; :meth:`SessionHandle.feed_rows` sends a whole batch in one.
"""

from __future__ import annotations

import json
import random
import socket
import time as _time
from dataclasses import dataclass

import numpy as np

from repro.errors import BackpressureError, ServiceConnectError, ServiceError
from repro.obs import OBS, new_trace_id
from repro.service import wire as _wire

__all__ = ["RetryPolicy", "ServiceClient", "SessionHandle"]

#: Ops safe to resend verbatim after a lost connection: they read state
#: or trigger a convergent side effect (a double checkpoint is a no-op).
_IDEMPOTENT_OPS = frozenset({"query", "ping", "sessions", "metrics", "checkpoint", "fleet", "obs"})


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a :class:`ServiceClient` tries before giving up.

    ``attempts`` bounds both the initial connect and each transparent
    reconnect; between attempts the client sleeps
    ``min(backoff * 2**i, backoff_max)`` scaled by up to ``jitter``
    relative noise (decorrelating a fleet of clients reconnecting to a
    restarted server).  ``connect_timeout`` caps each TCP connect;
    the per-op deadline lives on :class:`ServiceClient` (``timeout``).
    """

    attempts: int = 3
    connect_timeout: float = 5.0
    backoff: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ServiceError(f"retry attempts must be >= 1, got {self.attempts}")
        if self.connect_timeout <= 0 or self.backoff < 0 or self.backoff_max < 0:
            raise ServiceError("retry timeouts/backoff must be positive")
        if not 0 <= self.jitter <= 1:
            raise ServiceError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        base = min(self.backoff * (2.0**attempt), self.backoff_max)
        return base * (1.0 + self.jitter * rng.random())


class _ConnectionLost(ServiceError):
    """The established connection died mid-request (internal marker)."""


def _parse_address(address) -> tuple[str, int]:
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ServiceError(f"address must be 'host:port' or (host, port), got {address!r}")
        return host, int(port)
    host, port = address
    return host, int(port)


class ServiceClient:
    """Connect to a running service; create and drive sessions over it.

    Args
    ----
    address:
        ``(host, port)`` tuple or ``"host:port"`` string — e.g. the
        ``address`` of a :class:`~repro.service.server.ServerHandle`.
    timeout:
        Socket timeout in seconds for each request/response round trip
        (waiting queries park server-side until the inbox drains, so keep
        this comfortably above the expected drain time).
    retry:
        Connect/reconnect behaviour; defaults to :class:`RetryPolicy`'s
        defaults.  ``RetryPolicy(attempts=1)`` restores fail-fast
        connects.
    wire:
        ``"jsonl"`` (default) or ``"binary"``.  Binary is negotiated per
        connection via the ``hello`` op and silently falls back to JSONL
        when the server declines; ``negotiated_wire`` reports the mode
        the *current* connection actually speaks.

    Raises
    ------
    ServiceConnectError
        When no connection could be established within the retry budget.
    """

    def __init__(
        self,
        address,
        *,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        wire: str = "jsonl",
    ):
        if wire not in ("jsonl", "binary"):
            raise ServiceError(f"wire must be 'jsonl' or 'binary', got {wire!r}")
        self._host, self._port = _parse_address(address)
        self._timeout = timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._wire = wire
        self._mode = "jsonl"  # what the *current* connection negotiated
        self._jitter_rng = random.Random(0x5EED ^ hash((self._host, self._port)))
        self._sock: socket.socket | None = None
        self._file = None
        self._connect()

    # ------------------------------------------------------------ plumbing

    @property
    def negotiated_wire(self) -> str:
        """Framing of the current connection (``"binary"`` or ``"jsonl"``)."""
        return self._mode

    def _connect(self) -> None:
        """Establish the TCP connection, retrying per the policy.

        The binary hello runs inside the attempt loop, so a connection
        that dies mid-negotiation counts as a failed attempt and every
        reconnect — including :class:`RetryPolicy` resumes mid-feed —
        renegotiates the framing before any op uses the link.
        """
        policy = self._retry
        last_error: Exception | None = None
        for attempt in range(policy.attempts):
            if attempt:
                _time.sleep(policy.delay(attempt - 1, self._jitter_rng))
            try:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=policy.connect_timeout
                )
            except OSError as exc:
                last_error = exc
                continue
            sock.settimeout(self._timeout)  # per-op deadline from here on
            file = sock.makefile("rwb")
            try:
                mode = self._negotiate(file) if self._wire == "binary" else "jsonl"
            except (OSError, ServiceError) as exc:
                last_error = exc
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            self._sock = sock
            self._file = file
            self._mode = mode
            return
        raise ServiceConnectError(self._host, self._port, policy.attempts, last_error)

    def _negotiate(self, file) -> str:
        """Run the binary hello on a fresh connection; returns the mode."""
        hello = _wire.hello_payload("binary")
        file.write((json.dumps(hello, separators=(",", ":")) + "\n").encode())
        file.flush()
        line = file.readline()
        if not line:
            raise ServiceError("connection closed during wire negotiation")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"malformed hello reply: {exc}") from exc
        return "binary" if _wire.accepts_binary(reply) else "jsonl"

    def reconnect(self) -> None:
        """Drop the current connection (if any) and establish a fresh one."""
        self._teardown()
        self._connect()

    def drop_connection(self) -> None:
        """Sever the TCP connection without closing the client.

        Fault-injection seam (``tools/service_smoke.py --fault-profile``):
        the next op observes a lost connection and takes the ordinary
        retry/resume path, exactly as if the network had cut the link.
        """
        self._teardown()

    def _teardown(self) -> None:
        try:
            if self._file is not None:
                self._file.close()
        except OSError:
            pass
        finally:
            self._file = None
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def _roundtrip(self, op: str, fields: dict) -> dict:
        if self._file is None:
            raise _ConnectionLost(f"no connection for {op!r} (link was severed)")
        payload = {"op": op, **fields}
        reply = (
            self._exchange_binary(op, payload)
            if self._mode == "binary"
            else self._exchange_jsonl(op, payload)
        )
        if not reply.get("ok"):
            if reply.get("code") == "backpressure":
                raise BackpressureError(fields.get("session", "?"), reply.get("limit", -1))
            raise ServiceError(reply.get("error", "service request failed"))
        return reply

    def _exchange_jsonl(self, op: str, payload: dict) -> dict:
        # Numpy batches go as lists; an oversized request raises before
        # any byte goes out.
        request = _wire.request_json(payload) + b"\n"
        try:
            self._file.write(request)
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise _ConnectionLost(f"service connection lost during {op!r}: {exc}") from exc
        if not line:
            raise _ConnectionLost(f"service closed the connection during {op!r}")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"malformed service reply: {exc}") from exc
        return reply

    def _exchange_binary(self, op: str, payload: dict) -> dict:
        # Plain feeds pack into one KIND_FEED frame and come back as a
        # struct-packed ack; everything else rides KIND_JSON frames.
        frame = _wire.encode_request(payload)
        try:
            self._file.write(frame)
            self._file.flush()
            kind, body = _wire.read_frame_blocking(self._file)
        except _wire.FrameEOF:
            raise _ConnectionLost(f"service closed the connection during {op!r}") from None
        except _wire.FrameError as exc:
            raise ServiceError(f"malformed service reply frame: {exc}") from exc
        except OSError as exc:
            raise _ConnectionLost(f"service connection lost during {op!r}: {exc}") from exc
        try:
            return _wire.decode_reply(kind, body)
        except _wire.FramePayloadError as exc:
            raise ServiceError(f"malformed service reply: {exc}") from exc

    def request(self, op: str, **fields) -> dict:
        """One raw round trip; returns the reply payload.

        Idempotent ops (query/ping/sessions/metrics/checkpoint) that lose
        the connection are transparently retried over a fresh one, within
        the retry policy's attempt budget.  Mutating ops (feed, create,
        close, shutdown) fail on the first connection loss — resending
        them blindly could double-apply; see :meth:`SessionHandle.feed`
        for the resumable path.

        Raises
        ------
        BackpressureError
            When the server refused a feed with ``code="backpressure"``.
        ServiceConnectError
            When reconnecting exhausted the retry budget.
        ServiceError
            For any other failure reply, a lost connection on a
            non-retryable op, or malformed server output.
        """
        attempts = self._retry.attempts if op in _IDEMPOTENT_OPS else 1
        last: ServiceError | None = None
        for attempt in range(attempts):
            if attempt:
                self.reconnect()  # ServiceConnectError propagates typed
            try:
                return self._roundtrip(op, fields)
            except _ConnectionLost as exc:
                last = exc
                if self._sock is not None:
                    self._teardown()
        raise last

    def close(self) -> None:
        """Close the connection (sessions stay alive server-side)."""
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------------- ops

    def create_session(self, n: int, k: int, *, seed=None) -> "SessionHandle":
        """Open a session on the server; returns its handle."""
        fields: dict = {"n": n, "k": k}
        if seed is not None:
            fields["seed"] = seed
        reply = self.request("create", **fields)
        return SessionHandle(self, reply["session"], acked=0)

    def session(self, session_id: str) -> "SessionHandle":
        """Handle for an existing server-side session id."""
        return SessionHandle(self, session_id)

    def session_ids(self) -> list[str]:
        """Ids of every live server-side session (e.g. the fleet a
        restarted ``--checkpoint-dir`` server restored)."""
        return list(self.request("sessions")["sessions"])

    def checkpoint(self) -> dict:
        """Force the server to persist all sessions *now*; returns
        ``{"sessions": count, "dir": path}``.

        A durable server logs every acked feed and also checkpoints on its
        own (create/close, its timer, a long feed log, clean shutdown) —
        this op is the synchronous barrier a client calls when it must know
        the session files alone hold the state, feed log compacted.  Fails
        if the server runs without ``--checkpoint-dir``.
        """
        reply = self.request("checkpoint")
        return {"sessions": reply["sessions"], "dir": reply["dir"]}

    def metrics(self) -> dict:
        """The server's metrics snapshot (see
        :class:`~repro.service.metrics.MetricsSnapshot`)."""
        return self.request("metrics")["metrics"]

    def fleet(self) -> dict:
        """Topology of a fleet router: workers, standby, failover counts.

        Only answered by ``repro.serve(workers=N)`` /
        ``python -m repro.service --serve --workers N`` (a single-process
        server rejects the op — which is also how a client can tell the
        two apart).
        """
        return self.request("fleet")["fleet"]

    def obs(self, *, limit: int | None = None) -> dict:
        """The target's observability payload: ``enabled``, Prometheus
        text (``prom``), the registry snapshot (``metrics``) and recent
        trace ``spans`` (capped at ``limit`` when given).  A fleet router
        merges its workers' spans in, tagged with their slot."""
        fields = {"limit": limit} if limit is not None else {}
        reply = self.request("obs", **fields)
        return {key: reply[key] for key in ("enabled", "prom", "metrics", "spans") if key in reply}

    def ping(self) -> bool:
        """Liveness round trip."""
        return bool(self.request("ping").get("ok"))

    def shutdown(self) -> None:
        """Ask the server to shut down cleanly (acknowledged first)."""
        self.request("shutdown")


class SessionHandle:
    """Client-side face of one server-side session.

    ``acked`` seeds the handle's record of how many rows the server has
    already received for this session (0 for a freshly created session,
    unknown — looked up lazily — for an adopted one); it is what makes
    :meth:`feed` resumable across connection loss and server restarts.
    """

    def __init__(self, client: ServiceClient, session_id: str, *, acked: int | None = None):
        self._client = client
        self.id = session_id
        self._acked = acked

    @staticmethod
    def _received(reply: dict) -> int:
        """Server-side total rows received, from any feed/query reply.

        ``time`` is the last *stepped* row index (-1 before the first) and
        ``pending`` the fed-but-unstepped depth, so their sum (+1) is the
        fed total regardless of how far the stepper has gotten.
        """
        return int(reply["time"]) + 1 + int(reply["pending"])

    def _sync_acked(self) -> int:
        """(Re)learn the server's received-row count for this session."""
        self._acked = self._received(self._client.request("query", session=self.id))
        return self._acked

    def _feed_resumable(self, rows: "list | np.ndarray", block: bool) -> dict:
        """Send one feed batch exactly once, resuming across lost links.

        On connection loss the reply is unknowable, so the handle
        reconnects, asks the server how many rows it has, and resends
        only what is missing.  A durable server logs every feed before
        acking it, so a restart on its checkpoint directory reports at
        least every acked row.  A server restarted without that log (an
        older copy of the directory, or no directory at all) can report
        fewer rows than were acked before this batch — rows this handle
        no longer holds — which is unrecoverable here and raised as such.
        """
        if self._acked is None:
            self._sync_acked()
        base = self._acked
        remaining = rows
        # With observability on, every push carries a trace id end to end:
        # a fleet router resends it with any rows a worker death lost, so
        # even rows replayed to a standby stay attributable to this push.
        trace = new_trace_id() if OBS.on else None
        while True:
            fields = {"session": self.id, "rows": remaining}
            if len(remaining) == 1:
                fields = {"session": self.id, "row": remaining[0]}
            if trace is not None:
                fields["trace"] = trace
            try:
                reply = self._client.request("feed", **fields)
                self._acked = self._received(reply)
                return reply
            except BackpressureError:
                if not block:
                    raise
                self._client.request("query", session=self.id, wait=True)
            except _ConnectionLost:
                self._client.reconnect()
                received = self._sync_acked()
                delivered = received - base
                if delivered < 0:
                    raise ServiceError(
                        f"session {self.id!r}: server lost {-delivered} previously "
                        "acknowledged rows (restarted from an older checkpoint); "
                        "cannot resume this feed"
                    ) from None
                if delivered >= len(rows):
                    # The whole batch landed; only the reply was lost.
                    return self._client.request("query", session=self.id)
                remaining = rows[delivered:]
                base = received

    def feed(self, row, *, block: bool = True) -> dict:
        """Push one observation row; returns ``{"pending", "time"}``.

        With ``block=True`` (default) a backpressure refusal waits for the
        server to drain this session and retries; with ``block=False`` the
        :class:`~repro.errors.BackpressureError` propagates.  A connection
        lost mid-feed is resumed exactly once over a fresh connection (see
        the class docstring).
        """
        return self._feed_resumable([np.asarray(row).tolist()], block)

    def feed_rows(self, rows, *, block: bool = True) -> dict:
        """Push several rows in one round trip (same backpressure and
        resume-on-loss policy as :meth:`feed`)."""
        # The binary wire packs an integer batch as it is; any other batch,
        # or framing, carries it as JSON lists, so server-side validation
        # answers identically.
        return self._feed_resumable(np.asarray(rows), block)

    def query(self, *, wait: bool = False) -> dict:
        """Full state: time, top-k, message count, pending depth.

        ``wait=True`` parks until every fed row has been stepped, so the
        answer reflects all of this handle's feeds.
        """
        return self._client.request("query", session=self.id, wait=wait)

    def topk(self, *, wait: bool = True) -> list[int]:
        """Current top-k node ids (ascending)."""
        return self.query(wait=wait)["topk"]

    def message_count(self, *, wait: bool = True) -> int:
        """Protocol messages this session has cost so far."""
        return self.query(wait=wait)["messages"]

    def pending(self) -> int:
        """Rows fed but not yet stepped server-side."""
        return self.query()["pending"]

    def close(self) -> dict:
        """Close the server-side session; returns its final state."""
        return self._client.request("close", session=self.id)
