"""Binary wire framing for the session service (the negotiated fast path).

The JSONL protocol (``docs/architecture.md``) stays the default and the
debug path; this module is the *codec* behind the ``hello``-negotiated
binary mode.  The motivating numbers: one batched sweep of 1000 sessions
costs ~2.4 ms while JSON encode/decode on the same drain costs ~140 ms —
>95% of serving wall time is serialization, and this codec removes it.

Frame format
------------
Every frame is a 6-byte header followed by a payload::

    header  = magic (u8 = 0xB1) | kind (u8) | length (u32, big-endian)
    payload = `length` bytes, layout per kind

Kinds:

``KIND_JSON`` (1)
    UTF-8 JSON object — the same request/reply shape as one JSONL line,
    minus the trailing newline.  Every non-feed op (and any feed the
    packed layout cannot express, e.g. ragged rows or an unknown field)
    travels this way, so the binary mode is a strict superset of the
    JSONL protocol.

``KIND_FEED`` (2)
    A packed feed request for one session.  Little-endian layout::

        flags (u8, bit0 = replay)
        id length (u16) | UTF-8 session id
        trace length (u16, 0 = none) | UTF-8 trace id
        row count R (u32) | row width n (u32)
        R x n int64 values, row-major

    The rows are one contiguous int64 matrix, so the whole batch decodes
    with a single ``np.frombuffer(...).reshape(R, n)``.

``KIND_ACK`` (3)
    A packed feed reply: ``count (u8)`` then ``count x (pending i64,
    time i64)`` pairs — the pre-encoded reply fast path (no
    ``json.dumps`` on the server's hot loop).  A server answers a packed
    feed with one pair, and :func:`decode_reply` refuses any other count.

Error containment mirrors the JSONL ``bad_json`` contract: a payload
that fails to *decode* (:class:`FramePayloadError`) costs one error
reply and the connection stays usable, because the length prefix kept
the framing intact.  A header that fails to *frame* — wrong magic,
unknown kind, or a declared length over :data:`FRAME_LIMIT`
(:class:`FrameError`) — gets one ``bad_frame`` reply and the connection
is closed, because the byte stream can no longer be trusted.  EOF
mid-frame (:class:`FrameEOF`) closes silently, like a dropped JSONL
connection.  On the sending side, a request too large for any frame
raises :class:`RequestTooLarge` before a byte is written, so its
connection stays usable.

Negotiation
-----------
Connections always start in JSONL.  A client that wants the binary mode
sends ``{"op": "hello", "wire": "binary", "version": 2}`` as an ordinary
JSONL line; the server answers ``{"ok": true, "wire": "binary",
"version": 2}`` and *both* sides switch to frames for everything after
that reply.  Any other answer (an old server erroring on the unknown op,
a version mismatch, ``"wire": "jsonl"``) leaves the connection JSONL —
the client falls back transparently, which is also what makes reconnect
renegotiation safe: :meth:`repro.service.client.ServiceClient.reconnect`
simply runs the hello again on the fresh socket.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np

from repro.errors import ServiceError
from repro.obs.registry import OBS, counter, histogram

__all__ = [
    "FRAME_LIMIT",
    "FrameEOF",
    "FrameError",
    "FramePayloadError",
    "HEADER_SIZE",
    "KIND_ACK",
    "KIND_FEED",
    "KIND_JSON",
    "MAGIC",
    "RequestTooLarge",
    "WIRE_VERSION",
    "accepts_binary",
    "decode_ack",
    "decode_feed",
    "decode_reply",
    "encode_ack",
    "encode_feed",
    "encode_json",
    "encode_request",
    "hello_payload",
    "negotiate",
    "observe",
    "read_frame",
    "read_frame_blocking",
    "request_json",
]

#: First byte of every frame header — rejects stray JSONL bytes fast
#: (no printable ASCII line can start with 0xB1).
MAGIC = 0xB1

#: Frame kinds (the header's second byte).
KIND_JSON = 1
KIND_FEED = 2
KIND_ACK = 3

_KINDS = frozenset({KIND_JSON, KIND_FEED, KIND_ACK})

#: Header codec: magic, kind, payload length.
_HEADER = struct.Struct(">BBI")
HEADER_SIZE = _HEADER.size

#: Hard cap on a declared payload length — same budget as the JSONL
#: line limit, so neither framing can be tricked into a giant allocation.
FRAME_LIMIT = 1 << 20

#: Protocol version carried by the ``hello`` op; bump on layout changes.
WIRE_VERSION = 2

_U16 = struct.Struct("<H")
_U32X2 = struct.Struct("<II")
_ACK = struct.Struct("<qq")

#: Feed-request fields the packed layout can express; a feed carrying
#: any other field falls back to ``KIND_JSON``.
_PACKED_FEED_KEYS = frozenset({"op", "session", "row", "rows", "trace", "replay"})


class FrameError(ServiceError):
    """The byte stream is not a valid frame — framing is lost, close."""


class FramePayloadError(ServiceError):
    """A well-framed payload failed to decode — the connection survives."""


class FrameEOF(ServiceError):
    """The peer went away between or inside frames — close silently."""


class RequestTooLarge(ServiceError):
    """A request fits in no frame; nothing was sent — split the batch."""


# Registry families for the wire level: rows moved and codec time spent,
# split by framing so the jsonl/binary twins are directly comparable.
_WIRE_ROWS = counter(
    "repro_wire_rows_total", "feed rows moved across the service wire", ("wire",)
)
_WIRE_ENCODE_SECONDS = histogram(
    "repro_wire_encode_seconds",
    "codec seconds per feed exchange (decode + reply encode; JSON decode on the JSONL path)",
    ("wire",),
)


def observe(wire: str, rows: int, seconds: float) -> None:
    """Publish one feed exchange's wire accounting (no-op with obs off)."""
    if OBS.on and rows > 0:
        _WIRE_ROWS.labels(wire=wire).inc(rows)
        _WIRE_ENCODE_SECONDS.labels(wire=wire).observe(seconds)


# ------------------------------------------------------------------ hello


def hello_payload(wire: str) -> dict:
    """The JSONL ``hello`` request asking for ``wire`` framing."""
    return {"op": "hello", "wire": wire, "version": WIRE_VERSION}


def accepts_binary(reply: dict) -> bool:
    """True when a ``hello`` reply switches the connection to frames."""
    return bool(reply.get("ok")) and reply.get("wire") == "binary"


async def negotiate(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> str:
    """Run the client side of the binary hello on fresh asyncio streams.

    Returns the negotiated mode (``"binary"`` or ``"jsonl"``); any
    non-acceptance — including an old server erroring on the unknown op —
    is the JSONL fallback, not a failure.
    """
    writer.write(json.dumps(hello_payload("binary"), separators=(",", ":")).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise FrameEOF("connection closed during wire negotiation")
    try:
        reply = json.loads(line)
    except ValueError as exc:
        raise FramePayloadError(f"malformed hello reply: {exc}") from exc
    return "binary" if accepts_binary(reply) else "jsonl"


# ------------------------------------------------------------------ encode


def encode_json(obj: dict) -> bytes:
    """One ``KIND_JSON`` frame around a request/reply object."""
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return _HEADER.pack(MAGIC, KIND_JSON, len(payload)) + payload


def request_json(payload: dict) -> bytes:
    """The JSON body of a request frame or line, numpy batches as lists.

    Raises :class:`RequestTooLarge` past :data:`FRAME_LIMIT` (also the
    JSONL line limit), before anything is sent.
    """
    body = json.dumps(payload, separators=(",", ":"), default=_as_list).encode()
    if len(body) > FRAME_LIMIT:
        raise RequestTooLarge(
            f"{payload.get('op')!r} request of {len(body)} JSON bytes exceeds the "
            f"{FRAME_LIMIT}-byte limit; split the batch"
        )
    return body


def _as_list(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def encode_feed(session_id, rows, *, replay: bool = False, trace: str | None = None) -> bytes:
    """Pack one session's ``rows`` into one ``KIND_FEED`` frame.

    ``rows`` must be a non-empty 2-D integer batch.  Raises
    :class:`ServiceError` for shapes the packed layout cannot express and
    :class:`RequestTooLarge` for a frame over :data:`FRAME_LIMIT`;
    :func:`encode_request` answers both by falling back to ``KIND_JSON``.
    """
    block = np.asarray(rows)
    if block.ndim != 2 or block.shape[0] == 0:
        raise ServiceError(f"feed rows for {session_id!r} must be a non-empty 2-D batch")
    if not np.issubdtype(block.dtype, np.integer):
        raise ServiceError(f"feed rows for {session_id!r} must be integer-typed")
    sid = str(session_id).encode()
    tid = (trace or "").encode()
    length = 5 + len(sid) + len(tid) + _U32X2.size + 8 * block.size  # flags, 2 x u16
    if length > FRAME_LIMIT:
        raise RequestTooLarge(
            f"feed frame of {length} bytes exceeds the {FRAME_LIMIT}-byte limit"
        )
    return b"".join((
        _HEADER.pack(MAGIC, KIND_FEED, length),
        bytes((1 if replay else 0,)), _U16.pack(len(sid)), sid, _U16.pack(len(tid)), tid,
        _U32X2.pack(*block.shape),
        np.ascontiguousarray(block, dtype="<i8"),
    ))


def encode_request(payload: dict) -> bytes:
    """Encode one request dict: packed when it is a plain feed, JSON otherwise.

    A feed the packed layout cannot express (ragged or non-integer rows,
    an id over 65535 bytes, an unknown field) or fit in one frame falls
    back to ``KIND_JSON``, so the server answers with the same validation
    error as over JSONL.  Raises :class:`RequestTooLarge` if the JSON
    frame does not fit either.
    """
    rows = payload.get("rows")
    if (
        payload.get("op") == "feed"
        and set(payload) <= _PACKED_FEED_KEYS
        # len(), not truthiness: rows may be a numpy batch.
        and ("row" in payload or (rows is not None and len(rows) > 0))
    ):
        rows = [payload["row"]] if "row" in payload else rows
        try:
            return encode_feed(
                payload["session"], rows,
                replay=bool(payload.get("replay")), trace=payload.get("trace"),
            )
        except (ServiceError, TypeError, ValueError, KeyError, OverflowError, struct.error):
            pass
    body = request_json(payload)
    return _HEADER.pack(MAGIC, KIND_JSON, len(body)) + body


def encode_ack(acks) -> bytes:
    """One ``KIND_ACK`` frame around ``[(pending, time), ...]`` pairs."""
    body = bytes([len(acks)]) + b"".join(_ACK.pack(int(p), int(t)) for p, t in acks)
    return _HEADER.pack(MAGIC, KIND_ACK, len(body)) + body


# ------------------------------------------------------------------ decode


def decode_feed(payload: bytes) -> tuple[list, bool, "str | None"]:
    """Unpack a ``KIND_FEED`` payload.

    Returns ``(batches, replay, trace)`` with ``batches`` the one pair
    ``[(session_id, rows)]``, ``rows`` a fresh ``(R, n)`` int64 array.  It
    is copied out of ``payload`` because a view would be misaligned
    whenever the id and trace lengths put the rows off an 8-byte boundary,
    which slows every numpy pass over the block.
    """
    try:
        (id_len,) = _U16.unpack_from(payload, 1)
        offset = 3 + id_len
        session_id = payload[3:offset].decode()
        (trace_len,) = _U16.unpack_from(payload, offset)
        offset += 2
        trace = payload[offset:offset + trace_len].decode() or None
        offset += trace_len
        count, width = _U32X2.unpack_from(payload, offset)
        offset += _U32X2.size
        expected = count * width * 8
        if len(payload) - offset != expected:
            raise ValueError(
                f"feed row block is {len(payload) - offset} bytes, expected {expected}"
            )
        rows = np.frombuffer(
            payload, dtype="<i8", count=count * width, offset=offset
        ).reshape(count, width).copy()
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise FramePayloadError(f"malformed feed frame: {exc}") from exc
    return [(session_id, rows)], bool(payload[0] & 1), trace


def decode_ack(payload: bytes) -> list:
    """Unpack a ``KIND_ACK`` payload into ``[(pending, time), ...]``."""
    try:
        count = payload[0]
        if len(payload) != 1 + count * _ACK.size:
            raise ValueError(f"ack frame of {len(payload)} bytes for {count} sessions")
        return [_ACK.unpack_from(payload, 1 + i * _ACK.size) for i in range(count)]
    except (IndexError, struct.error, ValueError) as exc:
        raise FramePayloadError(f"malformed ack frame: {exc}") from exc


def decode_reply(kind: int, payload: bytes) -> dict:
    """Parse any reply frame into the JSONL reply shape (a dict)."""
    if kind == KIND_ACK:
        acks = decode_ack(payload)
        if len(acks) != 1:
            # A packed feed carries one session, so its ack carries one pair.
            raise FramePayloadError(f"ack frame carries {len(acks)} pairs, expected 1")
        pending, time_ = acks[0]
        return {"ok": True, "pending": pending, "time": time_}
    try:
        reply = json.loads(payload)
    except ValueError as exc:
        raise FramePayloadError(f"malformed JSON reply payload: {exc}") from exc
    if not isinstance(reply, dict):
        raise FramePayloadError("reply payload must be a JSON object")
    return reply


# ------------------------------------------------------------------- read


def _check_header(header: bytes) -> tuple[int, int]:
    magic, kind, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:02x} (expected 0x{MAGIC:02x})")
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind}")
    if length > FRAME_LIMIT:
        raise FrameError(f"declared frame length {length} exceeds the {FRAME_LIMIT}-byte limit")
    return kind, length


async def read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Read one frame from asyncio streams; returns ``(kind, payload)``.

    Raises :class:`FrameEOF` on a clean close *or* a mid-frame
    disconnect, :class:`FrameError` on an untrustworthy header.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        raise FrameEOF("connection closed between frames") from exc
    kind, length = _check_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameEOF("connection closed mid-frame") from exc
    return kind, payload


def read_frame_blocking(stream) -> tuple[int, bytes]:
    """Read one frame from a blocking file object (the client side)."""
    kind, length = _check_header(_read_exact(stream, HEADER_SIZE))
    return kind, _read_exact(stream, length)


def _read_exact(stream, size: int) -> bytes:
    chunks = []
    missing = size
    while missing:
        chunk = stream.read(missing)
        if not chunk:
            raise FrameEOF(f"connection closed with {missing} of {size} frame bytes unread")
        chunks.append(chunk)
        missing -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)
