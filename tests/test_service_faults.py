"""Service layer under hostile conditions: garbage frames, dead servers,
severed connections, mid-stream restarts.

Three guarantees under test:

* a misbehaving *connection* (malformed, non-UTF-8, oversized, or slow
  frames — JSONL lines or binary frames alike; an op handler that throws)
  damages only that connection — the server, or a fleet router, answers
  a structured error and keeps serving everyone else;
* a client facing a dead or flaky server fails *typed* and within its
  retry budget (:class:`~repro.errors.ServiceConnectError`), while
  idempotent ops ride transparent reconnects (renegotiating binary
  framing on the way when that is what the client asked for);
* a feed interrupted by connection loss or a ``--checkpoint-dir`` server
  restart resumes exactly once — the final trajectory stays bit-identical
  to the offline monitor.
"""

from __future__ import annotations

import json
import socket
import struct
import time

import numpy as np
import pytest

import repro
from repro.core.monitor import TopKMonitor
from repro.errors import ServiceConnectError, ServiceError
from repro.service import ServiceClient, SessionManager, start_fleet, start_server
from repro.service import wire
from repro.service.client import RetryPolicy
from repro.streams import get_workload

N, K, STEPS = 6, 2, 40


def _values(seed: int = 11) -> np.ndarray:
    return get_workload("random_walk", N, STEPS, seed=seed).generate()


def _raw_exchange(address, frames):
    """Send raw wire frames on one connection; returns the parsed replies
    (None where the server closed instead of answering)."""
    with socket.create_connection(tuple(address), timeout=10) as sock:
        fh = sock.makefile("rwb")
        replies = []
        for frame in frames:
            data = frame if isinstance(frame, bytes) else (json.dumps(frame) + "\n").encode()
            try:
                fh.write(data)
                fh.flush()
                line = fh.readline()
            except OSError:
                replies.append(None)
                break
            replies.append(json.loads(line) if line else None)
        return replies


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="module")
def fleet():
    """One 2-worker fleet shared by every containment case run against
    the router (the connection layer is the same code as a server's)."""
    with start_fleet(workers=2) as handle:
        yield handle


class TestGarbageFrames:
    @pytest.fixture
    def front(self):
        with start_server() as server:
            yield server

    def test_malformed_frames_answer_structured_errors(self, front):
        non_utf8 = b"\xff\xfe\x00garbage\n"
        broken_json = b'{"op": "ping", \n'
        non_object = '"not an object"'
        replies = _raw_exchange(
            front.address, [non_utf8, broken_json, non_object, {"op": "ping"}]
        )
        assert replies[0]["code"] == "bad_json"
        assert replies[1]["code"] == "bad_json"
        assert replies[2]["code"] == "bad_request"
        # The same connection shrugs it all off.
        assert replies[3]["ok"] is True

    def test_oversized_frame_kills_only_that_connection(self, front):
        huge = b'{"op": "ping", "pad": "' + b"x" * (2 << 20) + b'"}\n'
        [reply] = _raw_exchange(front.address, [huge])
        assert reply is None or (reply["ok"] is False and reply["code"] == "bad_request")
        # The listener survives: a fresh client is served normally.
        with ServiceClient(front.address) as client:
            assert client.ping()

    def test_slow_partial_frame_is_just_a_slow_frame(self, front):
        with socket.create_connection(tuple(front.address), timeout=10) as sock:
            sock.sendall(b'{"op": "pi')
            time.sleep(0.2)
            sock.sendall(b'ng"}\n')
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is True

    def test_non_string_op_is_an_unknown_op(self, front):
        """An unhashable op (a JSON list or object) answers like any
        unknown op instead of failing the op-table lookup."""
        replies = _raw_exchange(
            front.address, [{"op": ["ping"], "id": 1}, {"op": {"x": 1}}, {"op": "ping"}]
        )
        assert replies[0] == {"ok": False, "error": "unknown op ['ping']", "code": "error", "id": 1}
        assert replies[1] == {"ok": False, "error": "unknown op {'x': 1}", "code": "error"}
        assert replies[2]["ok"] is True

    def test_create_naming_another_engine_is_refused(self, front):
        """Every session is the vectorized kernel: a create naming any
        other engine answers bad_request and creates nothing."""
        _check_engine_refusal(lambda requests: _raw_exchange(front.address, requests))

    def test_handler_bug_fails_the_request_not_the_server(self, capfd):
        """An exception escaping an op handler answers code="internal"."""

        class BrokenManager(SessionManager):
            def metrics_snapshot(self):
                raise RuntimeError("wired to fail")

        with start_server(manager=BrokenManager()) as server:
            replies = _raw_exchange(
                server.address,
                [{"op": "metrics", "id": "m1"}, {"op": "ping"}],
            )
            assert replies[0]["ok"] is False
            assert replies[0]["code"] == "internal"
            assert "RuntimeError" in replies[0]["error"]
            assert replies[0]["id"] == "m1"  # correlation id still echoed
            assert replies[1]["ok"] is True  # same connection still lives
            with ServiceClient(server.address) as client:
                with pytest.raises(ServiceError, match="internal error"):
                    client.metrics()
                assert client.ping()
        capfd.readouterr()  # swallow the server-side traceback print


class TestGarbageFramesOnFleet(TestGarbageFrames):
    """The same garbage, sent to a fleet router instead of a server."""

    @pytest.fixture
    def front(self, fleet):
        return fleet

    # Injects a broken SessionManager, which only a plain server hosts.
    test_handler_bug_fails_the_request_not_the_server = None


def _binary_handshake(sock):
    """Negotiate binary framing on a raw socket; returns the rw file."""
    fh = sock.makefile("rwb")
    hello = {"op": "hello", "wire": "binary", "version": wire.WIRE_VERSION}
    fh.write((json.dumps(hello) + "\n").encode())
    fh.flush()
    reply = json.loads(fh.readline())
    assert reply["ok"] is True and reply["wire"] == "binary"
    return fh


def _check_engine_refusal(exchange) -> None:
    """Creates naming ``faithful`` or ``fast`` answer bad_request and leave
    the session list as it was; ``vectorized`` or no engine both create."""
    create = {"op": "create", "n": N, "k": K}
    replies = exchange([
        {"op": "sessions"},
        {**create, "engine": "faithful"},
        {**create, "engine": "fast"},
        {"op": "sessions"},
    ])
    for reply, engine in zip(replies[1:3], ("faithful", "fast")):
        assert reply["ok"] is False and reply["code"] == "bad_request", reply
        assert repr(engine) in reply["error"]
    assert replies[3]["sessions"] == replies[0]["sessions"]
    replies = exchange([{**create, "engine": "vectorized"}, create])
    assert [(r["ok"], r["engine"]) for r in replies] == [(True, "vectorized")] * 2
    exchange([{"op": "close", "session": r["session"]} for r in replies])


def _header(kind: int, length: int, magic: int = wire.MAGIC) -> bytes:
    return struct.pack(">BBI", magic, kind, length)


class TestBinaryFraming:
    """The binary wire under hostile bytes: same containment contract as
    the JSONL ``bad_json`` path — a well-framed bad payload costs one
    error reply, a broken frame stream costs only that connection."""

    @pytest.fixture
    def front(self):
        with start_server() as server:
            yield server

    def test_truncated_length_prefix_closes_only_that_connection(self, front):
        with socket.create_connection(tuple(front.address), timeout=10) as sock:
            fh = _binary_handshake(sock)
            fh.write(_header(wire.KIND_JSON, 100)[:3])  # half a header
            fh.flush()
            sock.shutdown(socket.SHUT_WR)
            assert fh.read() == b""  # silent close, no error spray
        with ServiceClient(front.address) as client:
            assert client.ping()

    def test_oversized_declared_length_answers_bad_frame_then_closes(self, front):
        with socket.create_connection(tuple(front.address), timeout=10) as sock:
            fh = _binary_handshake(sock)
            fh.write(_header(wire.KIND_JSON, wire.FRAME_LIMIT + 1))
            fh.flush()
            kind, payload = wire.read_frame_blocking(fh)
            reply = wire.decode_reply(kind, payload)
            assert reply["ok"] is False and reply["code"] == "bad_frame"
            assert fh.read() == b""  # server hung up after the reply
        with ServiceClient(front.address) as client:
            assert client.ping()

    def test_garbage_bytes_mid_stream_answer_bad_frame(self, front):
        with socket.create_connection(tuple(front.address), timeout=10) as sock:
            fh = _binary_handshake(sock)
            # A valid ping first, then garbage where a header belongs.
            fh.write(wire.encode_json({"op": "ping"}))
            fh.flush()
            kind, payload = wire.read_frame_blocking(fh)
            assert wire.decode_reply(kind, payload)["ok"] is True
            fh.write(b"\xde\xad\xbe\xef\x00\x00\x00\x00")
            fh.flush()
            kind, payload = wire.read_frame_blocking(fh)
            reply = wire.decode_reply(kind, payload)
            assert reply["ok"] is False and reply["code"] == "bad_frame"
        with ServiceClient(front.address) as client:
            assert client.ping()

    def test_garbage_payload_in_valid_frame_survives_the_connection(self, front):
        """A well-framed undecodable feed mirrors bad_json: one error
        reply, same connection keeps serving."""
        # Declares R=2, n=4 (64 bytes of rows) but carries one row.
        short_rows = b"\x00" + struct.pack("<H", 2) + b"s1" + struct.pack("<HII", 0, 2, 4)
        short_rows += np.arange(4, dtype="<i8").tobytes()
        with socket.create_connection(tuple(front.address), timeout=10) as sock:
            fh = _binary_handshake(sock)
            for junk in (
                b"\x01\x02\x03",  # too short for any feed layout
                short_rows,
            ):
                fh.write(_header(wire.KIND_FEED, len(junk)) + junk)
                fh.flush()
                kind, payload = wire.read_frame_blocking(fh)
                reply = wire.decode_reply(kind, payload)
                assert reply["ok"] is False and reply["code"] == "bad_frame"
                fh.write(wire.encode_json({"op": "ping"}))
                fh.flush()
                kind, payload = wire.read_frame_blocking(fh)
                assert wire.decode_reply(kind, payload)["ok"] is True

    def test_create_naming_another_engine_is_refused(self, front):
        """The engine refusal answers the same over binary frames."""

        def exchange(requests):
            with socket.create_connection(tuple(front.address), timeout=10) as sock:
                fh = _binary_handshake(sock)
                replies = []
                for request in requests:
                    fh.write(wire.encode_json(request))
                    fh.flush()
                    replies.append(wire.decode_reply(*wire.read_frame_blocking(fh)))
                return replies

        _check_engine_refusal(exchange)

    def test_mid_frame_disconnect_contained(self, front):
        with socket.create_connection(tuple(front.address), timeout=10) as sock:
            fh = _binary_handshake(sock)
            body = wire.encode_json({"op": "ping"})
            fh.write(body[: len(body) - 2])  # frame promised more bytes
            fh.flush()
        # Connection dropped mid-frame; the listener shrugs.
        with ServiceClient(front.address) as client:
            assert client.ping()

    def test_reconnect_renegotiates_binary_before_resuming(self, front):
        """RetryPolicy reconnects re-run the hello: the resumed feed is
        exactly-once AND still binary-framed."""
        values = _values(seed=21)
        offline = TopKMonitor(n=N, k=K, seed=9).run(values)
        with ServiceClient(front.address, wire="binary") as client:
            assert client.negotiated_wire == "binary"
            session = client.create_session(n=N, k=K, seed=9)
            for t, row in enumerate(values):
                if t in (7, 23):  # sever mid-stream, twice
                    client.drop_connection()
                session.feed(row)
            assert client.negotiated_wire == "binary"  # renegotiated
            final = session.query(wait=True)
        assert final["topk"] == sorted(offline.topk_history[-1].tolist())
        assert final["messages"] == offline.total_messages
        assert final["time"] == STEPS - 1

    @pytest.mark.parametrize("version", [1, 999])
    def test_unknown_wire_version_degrades_to_jsonl(self, front, version):
        """Asking for a version the server doesn't speak answers
        ``wire="jsonl"`` and the connection stays line-framed — the
        forward-compatibility half of the negotiation contract.  Version 1
        is the retired multi-session packed feed."""
        with socket.create_connection(tuple(front.address), timeout=10) as sock:
            fh = sock.makefile("rwb")
            hello = {"op": "hello", "wire": "binary", "version": version}
            fh.write((json.dumps(hello) + "\n").encode())
            fh.flush()
            reply = json.loads(fh.readline())
            assert reply["ok"] is True and reply["wire"] == "jsonl"
            # Connection stays JSONL-usable.
            fh.write((json.dumps({"op": "ping"}) + "\n").encode())
            fh.flush()
            assert json.loads(fh.readline())["ok"] is True


class TestBinaryFramingOnFleet(TestBinaryFraming):
    """The same hostile frames, sent to a fleet router instead of a server."""

    @pytest.fixture
    def front(self, fleet):
        return fleet


@pytest.mark.parametrize("framing", ["jsonl", "binary"])
class TestOversizedFeed:
    """A batch too large for one packed frame: JSON carries it when that
    fits, and a request no frame can hold is refused before any byte is
    sent, so the connection stays usable."""

    def test_batch_over_the_packed_limit_rides_json(self, framing):
        rows = np.random.default_rng(5).integers(0, 10, size=(1100, 128))
        with start_server(inbox_limit=2048) as server:
            with ServiceClient(server.address, wire=framing) as client:
                session = client.create_session(n=128, k=3, seed=1)
                session.feed_rows(rows)
                assert session.query(wait=True)["time"] == 1099

    def test_request_no_frame_can_hold_is_refused_before_sending(self, framing):
        rows = np.random.default_rng(6).integers(2**61, 2**62, size=(3000, 128))
        with start_server(inbox_limit=4096) as server:
            with ServiceClient(server.address, wire=framing) as client:
                session = client.create_session(n=128, k=3, seed=1)
                with pytest.raises(wire.RequestTooLarge):
                    session.feed_rows(rows)
                assert client.ping()
                view = session.query()
                assert (view["time"], view["pending"]) == (-1, 0)


class TestCloseWithClientConnected:
    def test_close_returns_while_a_raw_client_stays_connected(self):
        """Shutdown closes client connections itself instead of waiting
        for them; from Python 3.12.1 on, ``Server.wait_closed()`` waits
        for every open connection."""
        server = start_server()
        with socket.create_connection(tuple(server.address), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(b'{"op": "ping"}\n')
            fh.flush()
            assert json.loads(fh.readline())["ok"] is True
            start = time.monotonic()
            server.close()
            assert time.monotonic() - start < server.join_timeout / 2
            assert fh.readline() == b""  # the server hung up on us


class TestConnectRetry:
    def test_dead_server_raises_typed_error_within_budget(self):
        port = _free_port()
        policy = RetryPolicy(attempts=3, connect_timeout=0.5, backoff=0.05, jitter=0.0)
        start = time.monotonic()
        with pytest.raises(ServiceConnectError) as excinfo:
            repro.connect(("127.0.0.1", port), retry=policy)
        elapsed = time.monotonic() - start
        err = excinfo.value
        assert (err.host, err.port, err.attempts) == ("127.0.0.1", port, 3)
        assert isinstance(err.last_error, OSError)
        # Two backoff sleeps happened: 0.05 + 0.10 (refused connects are
        # near-instant, so the floor is the sleeps alone).
        assert elapsed >= 0.14
        assert elapsed < 10.0

    def test_single_attempt_fails_fast(self):
        port = _free_port()
        start = time.monotonic()
        with pytest.raises(ServiceConnectError) as excinfo:
            ServiceClient(("127.0.0.1", port), retry=RetryPolicy(attempts=1))
        assert excinfo.value.attempts == 1
        assert time.monotonic() - start < 2.0

    def test_policy_validation(self):
        with pytest.raises(ServiceError):
            RetryPolicy(attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ServiceError):
            RetryPolicy(connect_timeout=0)

    def test_idempotent_ops_ride_reconnects(self):
        with start_server() as server:
            with ServiceClient(server.address) as client:
                assert client.ping()
                client.drop_connection()
                assert client.ping()  # transparently reconnected
                client.drop_connection()
                assert client.session_ids() == []

    def test_mutating_ops_fail_on_first_loss(self):
        """create/close must not be blindly resent (double-apply risk)."""
        with start_server() as server:
            with ServiceClient(server.address) as client:
                client.drop_connection()
                with pytest.raises(ServiceError, match="severed"):
                    client.request("create", n=4, k=2, seed=0)
                client.reconnect()
                assert client.ping()


class TestFeedResume:
    def test_feed_resumes_across_connection_loss_bit_identically(self):
        values = _values()
        offline = TopKMonitor(n=N, k=K, seed=3).run(values)
        with start_server() as server:
            with ServiceClient(server.address) as client:
                session = client.create_session(n=N, k=K, seed=3)
                for t, row in enumerate(values):
                    if t in (7, 23):  # sever mid-stream, twice
                        client.drop_connection()
                    session.feed(row)
                final = session.query(wait=True)
        assert final["topk"] == sorted(offline.topk_history[-1].tolist())
        assert final["messages"] == offline.total_messages
        assert final["time"] == STEPS - 1

    def test_batch_feed_resumes_across_loss(self):
        values = _values(seed=12)
        offline = TopKMonitor(n=N, k=K, seed=5).run(values)
        with start_server() as server:
            with ServiceClient(server.address) as client:
                session = client.create_session(n=N, k=K, seed=5)
                session.feed_rows(values[: STEPS // 2])
                client.drop_connection()
                session.feed_rows(values[STEPS // 2 :])
                final = session.query(wait=True)
        assert final["topk"] == sorted(offline.topk_history[-1].tolist())
        assert final["messages"] == offline.total_messages

    def test_fleet_crash_window_resumes_exactly_once(self):
        """A worker SIGKILLed between two halves of a stream, while
        clients keep feeding through a RetryPolicy.  The standby
        promotion plus the router's resend of any feed lost in flight
        must make the crash invisible: zero session loss, every
        trajectory bit-identical to a local SessionManager — i.e. each
        row applied exactly once.
        """
        rng = np.random.default_rng(41)
        retry = RetryPolicy(attempts=5, connect_timeout=2.0, backoff=0.05)
        with start_fleet(workers=3, checkpoint_interval=0.2) as fleet:
            with ServiceClient(fleet.address, retry=retry) as client:
                local = SessionManager()
                handles = {}
                for i in range(6):
                    handle = client.create_session(n=N, k=K, seed=600 + i)
                    local.create(N, K, seed=600 + i, session_id=handle.id)
                    handles[handle.id] = handle

                def _feed_rounds(count):
                    for _ in range(count):
                        for sid, handle in handles.items():
                            row = rng.integers(0, 100, size=N)
                            handle.feed(row)
                            local.feed(sid, row)

                _feed_rounds(15)
                fleet.kill_worker(0)
                # Park until the failover ran, so the second half of the
                # stream provably crosses it.
                deadline = time.monotonic() + 30
                while client.metrics()["fleet"]["failovers"] < 1:
                    assert time.monotonic() < deadline, "the worker was never failed over"
                    time.sleep(0.05)
                _feed_rounds(15)
                local.drain()

                assert sorted(client.session_ids()) == sorted(handles)
                for sid, handle in handles.items():
                    remote = handle.query(wait=True)
                    view = local.query(sid)
                    assert remote["time"] == view.time == 29, sid
                    assert remote["topk"] == list(view.topk), sid
                    assert remote["messages"] == view.message_count, sid
                assert client.metrics()["fleet"]["failovers"] == 1

    def test_server_restart_with_checkpoint_dir_is_transparent(self, tmp_path):
        """Kill the server mid-stream; a twin on the same port restored
        from the checkpoint dir finishes the stream bit-identically."""
        values = _values(seed=13)
        offline = TopKMonitor(n=N, k=K, seed=7).run(values)
        retry = RetryPolicy(attempts=10, connect_timeout=2.0, backoff=0.05)
        server = start_server(checkpoint_dir=tmp_path)
        try:
            host, port = server.address
            with ServiceClient((host, port), retry=retry) as client:
                session = client.create_session(n=N, k=K, seed=7)
                session.feed_rows(values[: STEPS // 2])
                client.checkpoint()  # durability barrier before the kill
                server.close()
                server = start_server(host=host, port=port, checkpoint_dir=tmp_path)
                session.feed_rows(values[STEPS // 2 :])
                final = session.query(wait=True)
                assert client.session_ids() == [session.id]
        finally:
            server.close()
        assert final["topk"] == sorted(offline.topk_history[-1].tolist())
        assert final["messages"] == offline.total_messages
        assert final["time"] == STEPS - 1
