"""End-to-end smoke of the streaming session service (the CI service job).

Drives a real ``python -m repro.service --serve`` subprocess the way a
deployment would:

1. start the server, attach a client, open ``--sessions`` concurrent
   sessions across the workload catalog;
2. stream ``--rows`` observations into every session (bulk preload plus a
   row-by-row tail), then assert every session's top-k answer *and*
   protocol message count are bit-identical to the offline
   ``TopKMonitor.run`` on the same values;
3. SIGKILL the server mid-service, assert clients observe the outage,
   restart, reconnect, and re-drive a batch on the fresh server;
4. durable mode: restart a ``--checkpoint-dir`` server after a SIGKILL and
   assert clients resume the *same* sessions — every resumed session's
   final top-k and message count bit-identical to an uninterrupted
   offline run over the full stream;
5. shut the server down via the wire ``shutdown`` op and assert a clean
   exit code.

``--fault-profile NAME`` (the CI chaos-smoke job) runs a hostile variant
instead: a durable server is garbage-framed (non-UTF-8 bytes, broken
JSON, an oversized line), client connections are dropped mid-stream on a
seeded schedule derived from the named
:func:`repro.faults.fault_profile`, and the server is SIGKILLed once
mid-stream and restarted on the same port.  The clients ride their
retry/resume path through all of it, and the run asserts **zero session
loss**: every session survives with its final top-k and message count
bit-identical to an uninterrupted offline run.

``--workers N`` (the CI fleet-smoke job) runs the multi-process fleet
variant instead: a ``--serve --workers N`` router subprocess shards the
sessions across N workers, and with ``--kill-worker`` the busiest worker
is SIGKILLed (by pid, from outside) mid-stream, under a feed it has not
answered — the hot standby must restore its checkpoint directory, the
router must resend that feed exactly once, and the run asserts zero
session loss plus bit-identical final answers and exactly one recorded
failover.

``--wire binary`` runs every phase over the negotiated binary framing
(``--wire jsonl``, the default, keeps the line-delimited debug path) —
the CI smoke jobs run both legs as a matrix, so every guarantee above is
proven per framing.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--sessions 100] [--rows 40]
    PYTHONPATH=src python tools/service_smoke.py --fault-profile lossy
    PYTHONPATH=src python tools/service_smoke.py --workers 3 --kill-worker
    PYTHONPATH=src python tools/service_smoke.py --wire binary

Every phase cross-checks the server-side ``rows_processed`` counter
against the rows the phase actually fed.  ``--trace-export FILE`` turns
observability on (``REPRO_OBS=1`` in every spawned server), harvests each
phase's spans over the ``obs`` wire op, and writes them to FILE as JSONL;
with ``--kill-worker`` it additionally asserts that replayed rows carry
the trace id of the client push that originally delivered them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.monitor import TopKMonitor  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.faults import FAULT_PROFILES, fault_profile  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.client import RetryPolicy  # noqa: E402
from repro.streams import get_workload, list_workloads  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

#: Set from ``--server-log-dir``: every spawned server's stderr (crash
#: tracebacks, asyncio errors) is written to ``server-NN.log`` in here so a
#: failing CI run can upload them as artifacts.  ``None`` keeps the old
#: behaviour (stderr on an unread pipe).
LOG_DIR: Path | None = None
_SERVER_SEQ = 0

#: Set from ``--trace-export``: observability is switched on (here and,
#: via ``REPRO_OBS``, in every spawned server) and each phase's spans are
#: harvested over the ``obs`` wire op into this JSONL file at exit.
TRACE_EXPORT: Path | None = None
_SPANS: list[dict] = []

#: Set from ``--wire``: the framing every phase's clients negotiate.
WIRE = "jsonl"


def make_client(address, **kwargs) -> ServiceClient:
    """A phase client on the smoke's selected wire framing."""
    return ServiceClient(address, wire=WIRE, **kwargs)


def check_rows_processed(metrics: dict, fed: int, *, exact: bool = True,
                         phase: str = "smoke") -> None:
    """Assert the server-side row counter matches what we actually fed.

    Phases that restart a server from a checkpoint use ``exact=False``:
    the restarted process only counts rows stepped since the restore, and
    retry/replay paths may legitimately step more than the minimum.
    """
    got = int(metrics["rows_processed"])
    if exact and got != fed:
        raise SystemExit(f"{phase}: rows_processed {got} != rows fed {fed}")
    if not exact and got < fed:
        raise SystemExit(f"{phase}: rows_processed {got} < minimum rows fed {fed}")
    relation = "==" if exact else ">="
    print(f"{phase}: rows_processed {got} {relation} rows fed {fed}")


def harvest_obs(client: ServiceClient, phase: str) -> dict | None:
    """Pull one obs payload when tracing; accumulates spans for export."""
    if TRACE_EXPORT is None:
        return None
    payload = client.obs()
    _SPANS.extend({**span, "smoke_phase": phase} for span in payload["spans"])
    return payload


def export_traces() -> None:
    if TRACE_EXPORT is None:
        return
    TRACE_EXPORT.parent.mkdir(parents=True, exist_ok=True)
    with TRACE_EXPORT.open("w", encoding="utf-8") as fh:
        for span in _SPANS:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    print(f"exported {len(_SPANS)} trace spans to {TRACE_EXPORT}")


def spawn_server(*extra: str, bind: str = "127.0.0.1:0") -> tuple[subprocess.Popen, str]:
    """Start a service subprocess (ephemeral port by default); returns its address."""
    global _SERVER_SEQ
    argv = [sys.executable, "-m", "repro.service", "--serve", bind,
            "--batch-linger", "0.02", *extra]
    stderr_target = subprocess.PIPE
    log_path = None
    if LOG_DIR is not None:
        LOG_DIR.mkdir(parents=True, exist_ok=True)
        _SERVER_SEQ += 1
        log_path = LOG_DIR / f"server-{_SERVER_SEQ:02d}.log"
        stderr_target = log_path.open("w")
        stderr_target.write(f"# argv: {' '.join(argv)}\n")
        stderr_target.flush()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=stderr_target,
        text=True,
        env=ENV,
    )
    if log_path is not None:
        stderr_target.close()  # the child owns the fd now
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on "):
        proc.kill()
        raise SystemExit(f"server did not announce an address (got {line!r})")
    address = line.removeprefix("listening on ")
    suffix = f" (stderr -> {log_path})" if log_path is not None else ""
    print(f"server pid={proc.pid} at {address}{suffix}")
    return proc, address


def drive_sessions(address: str, sessions: int, rows: int, n: int, k: int, seed0: int) -> None:
    """Open many sessions, stream the catalog into them, verify bit-identity."""
    catalog = list_workloads()
    with make_client(address, timeout=120) as client:
        cases = []
        for i in range(sessions):
            name = catalog[i % len(catalog)]
            values = get_workload(name, n, rows, seed=i).generate()
            handle = client.create_session(n=n, k=k, seed=seed0 + i)
            cases.append((handle, name, values))
        # Bulk preload half the stream, then the row-by-row tail.
        for handle, _, values in cases:
            handle.feed_rows(values[: rows // 2])
        for t in range(rows // 2, rows):
            for handle, _, values in cases:
                handle.feed(values[t])
        mismatches = 0
        for i, (handle, name, values) in enumerate(cases):
            offline = TopKMonitor(n=n, k=k, seed=seed0 + i).run(values)
            state = handle.query(wait=True)
            ok = (
                state["topk"] == offline.topk_history[-1].tolist()
                and state["messages"] == offline.total_messages
            )
            if not ok:
                mismatches += 1
                print(f"MISMATCH session {handle.id} ({name}): {state} vs "
                      f"{offline.topk_history[-1].tolist()}/{offline.total_messages}")
        metrics = client.metrics()
        print(
            f"verified {sessions} sessions x {rows} rows: "
            f"{metrics['rows_processed']} rows stepped "
            f"({metrics['rows_batched']} batched, {metrics['rows_lookahead']} lookahead, "
            f"{metrics['rows_quiet']} quiet), "
            f"{metrics['protocol_messages']} protocol messages, "
            f"p99 step latency {metrics['step_latency_p99_us']}us"
        )
        if mismatches:
            raise SystemExit(f"{mismatches} sessions diverged from the offline run")
        if sessions >= 2 and metrics["rows_batched"] + metrics["rows_lookahead"] == 0:
            raise SystemExit("neither the batched nor the lookahead stepping path engaged")
        check_rows_processed(metrics, sessions * rows, phase="drive")
        harvest_obs(client, "drive")


def checkpoint_restore_phase(sessions: int, rows: int, n: int, k: int, seed0: int) -> None:
    """Kill a ``--checkpoint-dir`` server mid-stream; resume on restart."""
    catalog = list_workloads()
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as ckpt_dir:
        proc, address = spawn_server("--checkpoint-dir", ckpt_dir)
        cases = []
        try:
            with make_client(address, timeout=120) as client:
                for i in range(sessions):
                    name = catalog[i % len(catalog)]
                    values = get_workload(name, n, rows, seed=1000 + i).generate()
                    handle = client.create_session(n=n, k=k, seed=seed0 + i)
                    cases.append((handle.id, name, values))
                for sid, _, values in cases:
                    client.session(sid).feed_rows(values[: rows // 2])
                for sid, _, _ in cases:
                    client.session(sid).query(wait=True)
                info = client.checkpoint()  # durability barrier before the kill
                print(f"checkpointed {info['sessions']} sessions to {info['dir']}")
            proc.kill()
            proc.wait(timeout=30)
            print("durable server killed (SIGKILL)")
        finally:
            if proc.poll() is None:
                proc.kill()

        proc, address = spawn_server("--checkpoint-dir", ckpt_dir)
        try:
            line = proc.stdout.readline().strip()
            if not line.startswith("restored "):
                raise SystemExit(f"restarted server did not announce a restore (got {line!r})")
            print(f"server: {line}")
            mismatches = 0
            with make_client(address, timeout=120) as client:
                resumed = set(client.session_ids())
                if resumed != {sid for sid, _, _ in cases}:
                    raise SystemExit(
                        f"restored session ids diverged: {len(resumed)} vs {len(cases)}"
                    )
                for i, (sid, name, values) in enumerate(cases):
                    handle = client.session(sid)
                    state = handle.query()
                    if state["time"] != rows // 2 - 1:
                        raise SystemExit(
                            f"session {sid} resumed at t={state['time']}, "
                            f"expected {rows // 2 - 1}"
                        )
                    handle.feed_rows(values[rows // 2 :])
                    state = handle.query(wait=True)
                    offline = TopKMonitor(n=n, k=k, seed=seed0 + i).run(values)
                    ok = (
                        state["topk"] == offline.topk_history[-1].tolist()
                        and state["messages"] == offline.total_messages
                    )
                    if not ok:
                        mismatches += 1
                        print(f"MISMATCH resumed session {sid} ({name}): {state} vs "
                              f"{offline.topk_history[-1].tolist()}/{offline.total_messages}")
                if mismatches:
                    raise SystemExit(f"{mismatches} resumed sessions diverged from offline runs")
                print(f"resumed {len(cases)} sessions across the kill: all bit-identical")
                # The restarted server stepped exactly the tails we fed it.
                check_rows_processed(
                    client.metrics(), len(cases) * (rows - rows // 2),
                    phase="checkpoint-restore",
                )
                harvest_obs(client, "checkpoint-restore")
                client.shutdown()
            code = proc.wait(timeout=30)
            if code != 0:
                raise SystemExit(f"durable server exited {code} after shutdown op")
        finally:
            if proc.poll() is None:
                proc.kill()


def garbage_frames(address: str) -> None:
    """Throw slow/partial/garbage/oversized frames at the server raw.

    Every frame must earn a structured error reply (or, for the oversized
    one, at worst a reply followed by *that connection* closing) — and the
    server must answer a healthy client afterwards.
    """
    host, _, port = address.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=30) as raw:
        f = raw.makefile("rwb")
        # Non-UTF-8 garbage: must answer bad_json, not kill the reader task.
        f.write(b"\xff\xfe\x00garbage\xff\n")
        f.flush()
        reply = json.loads(f.readline())
        assert not reply["ok"] and reply["code"] == "bad_json", reply
        # Broken JSON on the same (still healthy) connection.
        f.write(b"{this is not json\n")
        f.flush()
        reply = json.loads(f.readline())
        assert not reply["ok"] and reply["code"] == "bad_json", reply
        # Valid JSON, wrong shape.
        f.write(b'"not an object"\n')
        f.flush()
        reply = json.loads(f.readline())
        assert not reply["ok"] and reply["code"] == "bad_request", reply
        # A slow partial frame: a fragment, a pause, then the rest.
        f.write(b'{"op": "pi')
        f.flush()
        time.sleep(0.2)
        f.write(b'ng"}\n')
        f.flush()
        reply = json.loads(f.readline())
        assert reply["ok"], reply
        # Oversized frame (> the 1 MiB line limit): error reply, then the
        # server may close only this connection.
        try:
            f.write(b"[" + b"1," * (1 << 20) + b"1]\n")
            f.flush()
            line = f.readline()
            if line:
                reply = json.loads(line)
                assert not reply["ok"], reply
        except OSError:
            pass  # the server closed this connection mid-write: acceptable
    if WIRE == "binary":
        # The binary leg also garbage-frames the negotiated protocol:
        # bad magic must earn one bad_frame reply and cost only this
        # connection; a truncated frame must close silently.
        from repro.service import wire as _wire

        with socket.create_connection((host, int(port)), timeout=30) as raw:
            f = raw.makefile("rwb")
            f.write((json.dumps(_wire.hello_payload("binary")) + "\n").encode())
            f.flush()
            if not _wire.accepts_binary(json.loads(f.readline())):
                raise SystemExit("server refused binary hello in garbage phase")
            f.write(b"\xde\xad\xbe\xef\x00\x00\x00\x00")
            f.flush()
            kind, payload = _wire.read_frame_blocking(f)
            reply = _wire.decode_reply(kind, payload)
            assert not reply["ok"] and reply["code"] == "bad_frame", reply
        with socket.create_connection((host, int(port)), timeout=30) as raw:
            f = raw.makefile("rwb")
            f.write((json.dumps(_wire.hello_payload("binary")) + "\n").encode())
            f.flush()
            json.loads(f.readline())
            body = _wire.encode_json({"op": "ping"})
            f.write(body[:-2])  # frame promised two more bytes
            f.flush()
    # The server itself must have survived all of it.
    with make_client(address, timeout=30) as probe:
        if not probe.ping():
            raise SystemExit("server unhealthy after garbage frames")
    print("garbage frames: structured errors, connection-local damage only")


def fault_phase(profile: str, sessions: int, rows: int, n: int, k: int, seed0: int) -> None:
    """The chaos smoke: drops + garbage + one mid-stream worker kill.

    Connection drops follow a seeded schedule derived from the named fault
    profile's plan, so two runs inject identical chaos.  Success = zero
    session loss and bit-identical final answers.
    """
    plan = fault_profile(profile, n=n, steps=rows)
    rng = plan.rng()
    drop_p = max(plan.uplink.drop, 0.10)  # even 'clean' drops some links here
    catalog = list_workloads()
    kill_at = rows // 2
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as ckpt_dir:
        proc, address = spawn_server("--checkpoint-dir", ckpt_dir)
        port = address.rpartition(":")[2]
        retry = RetryPolicy(attempts=10, connect_timeout=5.0, backoff=0.2, backoff_max=2.0)
        client = make_client(address, timeout=120, retry=retry)
        try:
            garbage_frames(address)
            cases = []
            for i in range(sessions):
                name = catalog[i % len(catalog)]
                values = get_workload(name, n, rows, seed=2000 + i).generate()
                handle = client.create_session(n=n, k=k, seed=seed0 + i)
                cases.append((handle, name, values))
            created = {handle.id for handle, _, _ in cases}
            drops = kills = 0
            for t in range(rows):
                if t == kill_at:
                    client.checkpoint()  # durability barrier, then murder
                    proc.kill()
                    proc.wait(timeout=30)
                    proc, address = spawn_server(
                        "--checkpoint-dir", ckpt_dir, bind=f"127.0.0.1:{port}"
                    )
                    kills += 1
                elif rng.random() < drop_p:
                    client.drop_connection()  # next op rides retry/resume
                    drops += 1
                for handle, _, values in cases:
                    handle.feed(values[t])
            # Zero session loss: every created session is still live.
            survivors = set(client.session_ids())
            if survivors != created:
                raise SystemExit(
                    f"session loss: {len(created - survivors)} of {len(created)} "
                    f"sessions gone after the chaos run"
                )
            mismatches = 0
            for i, (handle, name, values) in enumerate(cases):
                state = handle.query(wait=True)
                offline = TopKMonitor(n=n, k=k, seed=seed0 + i).run(values)
                ok = (
                    state["topk"] == offline.topk_history[-1].tolist()
                    and state["messages"] == offline.total_messages
                )
                if not ok:
                    mismatches += 1
                    print(f"MISMATCH chaos session {handle.id} ({name}): {state} vs "
                          f"{offline.topk_history[-1].tolist()}/{offline.total_messages}")
            if mismatches:
                raise SystemExit(f"{mismatches} sessions diverged under profile {profile!r}")
            print(
                f"chaos profile {profile!r}: {sessions} sessions x {rows} rows survived "
                f"{drops} connection drops + {kills} worker kill(s): "
                f"zero session loss, all bit-identical"
            )
            # The post-kill server stepped at least every row past the
            # durability barrier (resume replays may step more).
            check_rows_processed(
                client.metrics(), sessions * (rows - kill_at),
                exact=False, phase=f"chaos[{profile}]",
            )
            harvest_obs(client, f"chaos[{profile}]")
            client.shutdown()
            code = proc.wait(timeout=30)
            if code != 0:
                raise SystemExit(f"server exited {code} after chaos shutdown")
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()


def _check_obs_top(address: str) -> None:
    """The acceptance view: ``repro.obs top --once`` against the live fleet
    must show the failover-latency metric the kill just produced."""
    out = subprocess.run(
        [sys.executable, "-m", "repro.obs", "top", address, "--once"],
        capture_output=True, text=True, timeout=120, env=ENV,
    )
    if out.returncode != 0:
        raise SystemExit(f"obs top failed: {out.stderr.strip()[-400:]}")
    if "failover latency mean" not in out.stdout:
        raise SystemExit("obs top did not show the failover latency metric")
    print("obs top --once: failover latency visible on the dashboard")


def _check_trace_continuity(spans: list[dict]) -> None:
    """Replayed rows must carry the trace id of their original push."""
    pushed = {s["trace"] for s in spans if s["name"] == "router.feed"}
    replayed = [
        s for s in spans
        if s["name"] == "server.feed" and s.get("attrs", {}).get("replay")
    ]
    if not replayed:
        raise SystemExit("no replayed feed spans recorded across the failover")
    if not any(s["trace"] in pushed for s in replayed):
        raise SystemExit("replayed spans lost their original push trace ids")
    kept = sum(1 for s in replayed if s["trace"] in pushed)
    print(f"trace continuity: {kept}/{len(replayed)} replayed span(s) "
          f"carry their original push trace id")


def fleet_phase(
    workers: int, sessions: int, rows: int, n: int, k: int,
    seed0: int, kill_worker: bool,
) -> None:
    """The fleet smoke: a ``--workers N`` router subprocess, optionally
    with one worker SIGKILLed (by pid, from outside) mid-stream.

    Success = the same bar as every other phase: zero session loss and
    final answers bit-identical to the offline monitor — plus, after a
    kill, exactly one recorded failover and a whole fleet again.
    """
    catalog = list_workloads()
    proc, address = spawn_server("--workers", str(workers))
    try:
        line = proc.stdout.readline().strip()
        if not line.startswith("fleet: "):
            raise SystemExit(f"router did not announce its fleet (got {line!r})")
        print(f"server: {line}")
        retry = RetryPolicy(attempts=10, connect_timeout=5.0, backoff=0.2, backoff_max=2.0)
        with make_client(address, timeout=120, retry=retry) as client:
            cases = []
            for i in range(sessions):
                name = catalog[i % len(catalog)]
                values = get_workload(name, n, rows, seed=3000 + i).generate()
                handle = client.create_session(n=n, k=k, seed=seed0 + i)
                cases.append((handle, name, values))
            created = {handle.id for handle, _, _ in cases}
            topology = client.fleet()
            busy = sum(1 for w in topology["workers"] if w["sessions"])
            print(f"fleet topology: {len(topology['workers'])} workers, "
                  f"{busy} hosting sessions, standby {'up' if topology['standby'] else 'DOWN'}")
            if busy < min(workers, 2):
                raise SystemExit("sharding failed: sessions did not spread across workers")
            kill_at = rows // 2 if kill_worker else None
            kills = 0

            def feed_step(t):
                for handle, _, values in cases:
                    handle.feed(values[t])

            for t in range(rows):
                if t != kill_at:
                    feed_step(t)
                    continue
                # Stop the victim, let this step's feeds run into it until
                # one stalls, then kill it under that feed: a feed lost in
                # flight, which the router must resend exactly once.
                victim = max(topology["workers"], key=lambda w: w["sessions"])
                os.kill(victim["pid"], signal.SIGSTOP)
                with ThreadPoolExecutor(max_workers=1) as pool:
                    step = pool.submit(feed_step, t)
                    futures_wait([step], timeout=1.0)
                    os.kill(victim["pid"], signal.SIGKILL)
                    step.result(timeout=120)
                kills += 1
                print(f"worker {victim['slot']} (pid {victim['pid']}, "
                      f"{victim['sessions']} sessions) killed (SIGKILL)")
            survivors = set(client.session_ids())
            if survivors != created:
                raise SystemExit(
                    f"session loss: {len(created - survivors)} of {len(created)} "
                    f"sessions gone after the fleet run"
                )
            mismatches = 0
            for i, (handle, name, values) in enumerate(cases):
                state = handle.query(wait=True)
                offline = TopKMonitor(n=n, k=k, seed=seed0 + i).run(values)
                ok = (
                    state["topk"] == offline.topk_history[-1].tolist()
                    and state["messages"] == offline.total_messages
                )
                if not ok:
                    mismatches += 1
                    print(f"MISMATCH fleet session {handle.id} ({name}): {state} vs "
                          f"{offline.topk_history[-1].tolist()}/{offline.total_messages}")
            if mismatches:
                raise SystemExit(f"{mismatches} fleet sessions diverged from offline runs")
            metrics = client.metrics()
            fleet = metrics["fleet"]
            if kill_worker:
                if fleet["failovers"] != 1:
                    raise SystemExit(f"expected exactly 1 failover, saw {fleet['failovers']}")
                latency = fleet["failover_latency_ms"]
                print(f"failover: {latency['count']} promotion(s), "
                      f"mean {latency['mean']}ms, {fleet['rows_replayed']} rows replayed")
            after = client.fleet()
            if len(after["workers"]) != workers:
                raise SystemExit(
                    f"fleet not whole: {len(after['workers'])} of {workers} workers up"
                )
            if kill_worker:
                # A promoted standby only counts rows stepped since its
                # restore, so the fleet aggregate is a lower bound.
                check_rows_processed(
                    metrics, sessions * (rows - kill_at), exact=False, phase="fleet-kill"
                )
                _check_obs_top(address)
            else:
                check_rows_processed(metrics, sessions * rows, phase="fleet")
            payload = harvest_obs(client, "fleet")
            if payload is not None and kill_worker:
                _check_trace_continuity(payload["spans"])
            print(
                f"fleet {workers}w: {sessions} sessions x {rows} rows, "
                f"{metrics['rows_processed']} rows stepped across the fleet, "
                f"{kills} worker kill(s): zero session loss, all bit-identical"
            )
            client.shutdown()
        code = proc.wait(timeout=60)
        if code != 0:
            raise SystemExit(f"router exited {code} after shutdown op")
        print("clean fleet shutdown: exit code 0")
    finally:
        if proc.poll() is None:
            proc.kill()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=100, help="concurrent sessions")
    parser.add_argument("--rows", type=int, default=40, help="rows per session")
    parser.add_argument("--n", type=int, default=8, help="nodes per session")
    parser.add_argument("--k", type=int, default=2, help="top-k size")
    parser.add_argument(
        "--wire", choices=("jsonl", "binary"), default="jsonl",
        help="framing every phase's clients negotiate (default jsonl, "
        "the debug path; binary exercises the packed frame protocol)",
    )
    parser.add_argument(
        "--fault-profile", choices=FAULT_PROFILES, default=None,
        help="run the chaos smoke under this fault profile instead of the standard phases",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run the fleet smoke against a --workers N router instead of "
        "the standard phases (default 1: standard single-server smoke)",
    )
    parser.add_argument(
        "--kill-worker", action="store_true",
        help="with --workers: SIGKILL the busiest worker mid-stream and "
        "require a clean failover (zero loss, bit-identical answers)",
    )
    parser.add_argument(
        "--server-log-dir", type=Path, default=None, metavar="DIR",
        help="write each spawned server's stderr to DIR/server-NN.log "
        "(CI uploads these as artifacts when the job fails)",
    )
    parser.add_argument(
        "--trace-export", type=Path, default=None, metavar="FILE",
        help="enable observability (REPRO_OBS=1 in every spawned server) and "
        "export each phase's trace spans to FILE as JSONL",
    )
    args = parser.parse_args()

    global LOG_DIR, TRACE_EXPORT, WIRE
    LOG_DIR = args.server_log_dir
    TRACE_EXPORT = args.trace_export
    WIRE = args.wire
    print(f"wire framing: {WIRE}")
    if TRACE_EXPORT is not None:
        from repro import obs

        obs.enable()  # clients mint trace ids for their pushes
        ENV["REPRO_OBS"] = "1"  # spawned servers/fleets record spans

    if args.fault_profile is not None:
        fault_phase(
            args.fault_profile, max(2, args.sessions // 10), args.rows,
            args.n, args.k, seed0=1700,
        )
        export_traces()
        print("service chaos smoke OK")
        return 0

    if args.workers > 1:
        fleet_phase(
            args.workers, max(2, args.sessions // 5), args.rows,
            args.n, args.k, seed0=3500, kill_worker=args.kill_worker,
        )
        export_traces()
        print("service fleet smoke OK")
        return 0

    # --- phase 1+2: full service drive ----------------------------------
    proc, address = spawn_server()
    try:
        drive_sessions(address, args.sessions, args.rows, args.n, args.k, seed0=500)

        # --- phase 3: kill -9, observe the outage, restart ---------------
        proc.kill()
        proc.wait(timeout=30)
        print("server killed (SIGKILL)")
        try:
            ServiceClient(address, timeout=3).ping()
            raise SystemExit("dead server still answered a ping")
        except ServiceError:
            print("outage observed by client (connection refused)")
    finally:
        if proc.poll() is None:
            proc.kill()

    proc, address = spawn_server()
    try:
        # Fresh server starts empty: sessions are in-memory, so gateways
        # re-create and re-drive (documented recovery model).
        drive_sessions(address, max(2, args.sessions // 4), args.rows, args.n, args.k, seed0=900)

        # --- phase 4: kill/restore with --checkpoint-dir ------------------
        checkpoint_restore_phase(
            max(2, args.sessions // 4), args.rows, args.n, args.k, seed0=1300
        )

        # --- phase 5: clean shutdown over the wire -----------------------
        with make_client(address) as client:
            client.shutdown()
        code = proc.wait(timeout=30)
        if code != 0:
            raise SystemExit(f"server exited {code} after shutdown op")
        print("clean shutdown: exit code 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            raise SystemExit("server had to be killed after shutdown request")
    export_traces()
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"(elapsed: {time.perf_counter() - start:.1f}s)")
    raise SystemExit(code)
