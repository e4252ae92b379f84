"""The multi-process failover fleet (repro/service/fleet).

Two load-bearing claims, tested end-to-end:

1. **Bit-identity**: a 4-worker fleet answers exactly like one
   single-process :class:`~repro.service.manager.SessionManager` — same
   top-k rows, same quietness decisions (visible as message counts), same
   times — on every catalog workload, wherever the ring places each
   session.
2. **Kill-anything durability**: SIGKILLing a worker mid-stream loses
   zero sessions and zero rows; the standby restores its checkpoint
   directory and feed log, the router resends a feed lost in flight
   exactly once, and the stream resumes bit-identically.

Plus hypothesis property tests for the consistent-hash ring the routing
rests on.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.monitor import TopKMonitor
from repro.errors import ConfigurationError, ServiceError
from repro.service import ServiceClient, SessionManager, start_fleet
from repro.service import fleet as fleet_module
from repro.service.fleet import HashRing, stable_hash
from repro.streams import get_workload, list_workloads

N, K, STEPS = 8, 3, 80


def _matrix(name: str, seed: int) -> np.ndarray:
    return get_workload(name, N, STEPS, seed=seed).generate()


# ----------------------------------------------------------------- ring


def _ids(draw_min=1, draw_max=40):
    return st.lists(
        st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=12),
        min_size=draw_min, max_size=draw_max, unique=True,
    )


class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        """The ring must not depend on Python's salted hash()."""
        # md5("abc")[:8] as big-endian — a constant forever.
        assert stable_hash("abc") == 0x900150983CD24FB0
        assert 0 <= stable_hash("w0#0") < 2**64

    def test_lookup_is_deterministic_and_total(self):
        ring = HashRing([f"w{i}" for i in range(4)])
        for key in ("a", "b", "12x3/0", "group"):
            assert ring.lookup(key) == ring.lookup(key)
            assert ring.lookup(key) in ring.slots

    def test_slot_management_errors(self):
        ring = HashRing(["w0"])
        with pytest.raises(ConfigurationError):
            ring.add("w0")
        with pytest.raises(ConfigurationError):
            ring.remove("w9")
        with pytest.raises(ConfigurationError):
            ring.remove("w0")  # never empty the ring
        with pytest.raises(ConfigurationError):
            HashRing([""])
        with pytest.raises(ConfigurationError):
            HashRing().lookup("anything")

    @given(ids=_ids(), workers=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_every_session_maps_to_exactly_one_live_worker(self, ids, workers):
        """Property (a): lookup is total and single-valued over live slots."""
        ring = HashRing([f"w{i}" for i in range(workers)])
        for session_id in ids:
            owner = ring.lookup(session_id)
            assert owner in ring.slots
            assert owner == ring.lookup(session_id)

    @given(
        ids=_ids(),
        workers=st.integers(min_value=2, max_value=8),
        victim=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_removing_one_worker_relocates_only_its_sessions(self, ids, workers, victim):
        """Property (b): consistent hashing — survivors keep their keys."""
        slots = [f"w{i}" for i in range(workers)]
        gone = slots[victim % workers]
        ring = HashRing(slots)
        before = {sid: ring.lookup(sid) for sid in ids}
        ring.remove(gone)
        for sid, owner in before.items():
            after = ring.lookup(sid)
            if owner == gone:
                assert after != gone  # relocated to a live worker
            else:
                assert after == owner  # untouched


# ----------------------------------------------------- fleet differential


@pytest.fixture(scope="class")
def fleet4():
    handle = start_fleet(workers=4)
    try:
        yield handle
    finally:
        handle.close()


class TestFleetDifferential:
    """Satellite: catalog-wide bit-identity of the 4-worker fleet."""

    def test_catalog_matches_single_process_manager(self, fleet4):
        """Every catalog workload, one session each, fed row-by-row into a
        4-worker fleet and into one local SessionManager: identical top-k,
        times, and message counts at every comparison point — and both
        equal the offline monitor."""
        client = ServiceClient(fleet4.address)
        local = SessionManager()
        cases = {}
        for i, name in enumerate(list_workloads()):
            values = _matrix(name, seed=3 + i)
            handle = client.create_session(n=N, k=K, seed=21 + i)
            local.create(N, K, seed=21 + i, session_id=handle.id)
            cases[handle.id] = (name, values, handle, 21 + i)

        for t in range(STEPS):
            for sid, (_, values, handle, _) in cases.items():
                handle.feed(values[t])
                local.feed(sid, values[t])
            if t % 16 == 15 or t == STEPS - 1:
                local.drain()
                for sid, (name, _, handle, _) in cases.items():
                    remote = handle.query(wait=True)
                    view = local.query(sid)
                    assert remote["time"] == view.time == t, (name, t)
                    assert remote["topk"] == list(view.topk), (name, t)
                    assert remote["messages"] == view.message_count, (name, t)

        for sid, (name, values, handle, seed) in cases.items():
            offline = TopKMonitor(n=N, k=K, seed=seed).run(values)
            final = handle.query(wait=True)
            assert final["topk"] == sorted(int(i) for i in offline.topk_history[-1]), name
            assert final["messages"] == offline.total_messages, name

        metrics = client.metrics()
        assert metrics["rows_processed"] == STEPS * len(cases)
        assert metrics["fleet"]["failovers"] == 0
        assert len(metrics["fleet"]["workers"]) == 4
        for sid, (_, _, handle, _) in cases.items():
            handle.close()
        client.close()

    def test_bulk_feeds_take_the_same_path(self, fleet4):
        """feed_rows (the deep-inbox lookahead lane worker-side) changes
        nothing observable."""
        client = ServiceClient(fleet4.address)
        local = SessionManager()
        values = _matrix("random_walk", seed=77)
        handle = client.create_session(n=N, k=K, seed=99)
        local.create(N, K, seed=99, session_id=handle.id)
        for start in range(0, STEPS, 20):
            chunk = values[start:start + 20]
            handle.feed_rows(chunk)
            local.feed_many(handle.id, chunk)
        local.drain()
        remote = handle.query(wait=True)
        view = local.query(handle.id)
        assert remote["topk"] == list(view.topk)
        assert remote["messages"] == view.message_count
        handle.close()
        client.close()

    def test_create_routes_by_session_id_only(self, fleet4):
        """A create cannot pin its session onto a worker: the router places
        every session on its id's ring owner, whatever else the request
        carries."""
        def sessions_per_slot():
            return {w["slot"]: w["sessions"] for w in fleet4.workers()["workers"]}

        ring = HashRing(sessions_per_slot())
        home = ring.lookup("pinned")
        elsewhere = next(g for g in map(str, range(100)) if ring.lookup(g) != home)
        before = sessions_per_slot()
        with ServiceClient(fleet4.address) as client:
            client.request("create", n=4, k=2, session="pinned", group=elsewhere)
            after = sessions_per_slot()
            client.request("close", session="pinned")
        assert {slot for slot in after if after[slot] != before[slot]} == {home}

    def test_fleet_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            repro.serve(workers=0)
        with pytest.raises(ServiceError):
            start_fleet(workers=-1)
        with pytest.raises(ServiceError):
            start_fleet(workers=2, checkpoint_interval=0.0)


# --------------------------------------------------------------- failover


def _pids(fleet) -> dict:
    """``{slot: pid}`` of the fleet's live workers."""
    return {w["slot"]: w["pid"] for w in fleet.workers()["workers"]}


def _lose_in_flight(fleet, session_id: str, feed) -> None:
    """Run ``feed`` so that the worker hosting ``session_id`` dies under it.

    The worker is stopped first, so the feed reaches it and stalls; the
    kill then swallows its reply.  Re-raises whatever ``feed`` raised.
    """
    pids = _pids(fleet)
    pid = pids[HashRing(pids).lookup(session_id)]
    os.kill(pid, signal.SIGSTOP)
    with ThreadPoolExecutor(max_workers=1) as pool:
        feeding = pool.submit(feed)
        futures_wait([feeding], timeout=1.0)
        os.kill(pid, signal.SIGKILL)
        feeding.result(timeout=120)


def _kill_before(monkeypatch, times: int, matches) -> list:
    """SIGKILL a worker just before the router sends it a request that
    ``matches(payload)``, the first ``times`` times; returns the killed
    requests' ops as they happen."""
    request = fleet_module._WorkerProc.request
    killed = []

    async def killing_request(worker, payload):
        if len(killed) < times and matches(payload):
            killed.append(payload["op"])
            worker.kill()
            await worker.proc.wait()
        return await request(worker, payload)

    monkeypatch.setattr(fleet_module._WorkerProc, "request", killing_request)
    return killed


def _assert_same(handles: dict, local: SessionManager) -> None:
    """Every remote session answers exactly like its local twin."""
    local.drain()
    for sid, handle in handles.items():
        remote = handle.query(wait=True)
        view = local.query(sid)
        assert remote["time"] == view.time, sid
        assert remote["topk"] == list(view.topk), sid
        assert remote["messages"] == view.message_count, sid


class TestFleetFailover:
    """Satellite: SIGKILL a worker — zero loss, exact resume via standby."""

    def test_sigkill_worker_loses_nothing(self):
        rng = np.random.default_rng(13)
        with start_fleet(workers=3, checkpoint_interval=0.2) as fleet:
            client = ServiceClient(fleet.address)
            local = SessionManager()
            handles = {}
            for i in range(12):
                handle = client.create_session(n=N, k=K, seed=300 + i)
                local.create(N, K, seed=300 + i, session_id=handle.id)
                handles[handle.id] = handle

            for _ in range(25):
                for sid, handle in handles.items():
                    row = rng.integers(0, 100, size=N)
                    handle.feed(row)
                    local.feed(sid, row)

            # Kill the worker hosting the most sessions — the worst case.
            topology = client.fleet()
            victim = max(topology["workers"], key=lambda w: w["sessions"])
            assert victim["sessions"] > 0
            fleet.kill_worker(victim["slot"])

            # Feeding continues right through the failover window.
            for _ in range(25):
                for sid, handle in handles.items():
                    row = rng.integers(0, 100, size=N)
                    handle.feed(row)
                    local.feed(sid, row)
            local.drain()

            # Zero session loss...
            assert sorted(client.session_ids()) == sorted(handles)
            # ...and bit-identical resume for every session.
            for sid, handle in handles.items():
                remote = handle.query(wait=True)
                view = local.query(sid)
                assert remote["time"] == view.time, sid
                assert remote["topk"] == list(view.topk), sid
                assert remote["messages"] == view.message_count, sid

            metrics = client.metrics()
            assert metrics["fleet"]["failovers"] == 1
            assert metrics["fleet"]["failover_latency_ms"]["count"] == 1
            # The fleet is whole again: the standby was promoted in place.
            after = client.fleet()
            assert len(after["workers"]) == 3
            assert {w["slot"] for w in after["workers"]} == {
                w["slot"] for w in topology["workers"]
            }
            client.close()

    def test_router_holds_no_acknowledged_rows(self):
        """A worker logs each feed before acking it, so once the feeds are
        acknowledged the router holds none of their rows."""
        rows = np.arange(30 * N, dtype=np.int64).reshape(30, N) % 11
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address) as client:
                for i in range(4):
                    client.create_session(n=N, k=K, seed=800 + i).feed_rows(rows)
                assert client.metrics()["fleet"]["journal_rows"] == 0

    def test_feed_lost_in_flight_is_resent_once(self):
        """A feed whose worker dies under it is resent to the replacement
        exactly once, and every trajectory stays bit-identical."""
        rng = np.random.default_rng(37)
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address, timeout=120) as client:
                local = SessionManager()
                handles = {}
                for i in range(4):
                    handle = client.create_session(n=N, k=K, seed=900 + i)
                    local.create(N, K, seed=900 + i, session_id=handle.id)
                    handles[handle.id] = handle
                for sid, handle in handles.items():
                    rows = rng.integers(0, 100, size=(10, N))
                    handle.feed_rows(rows)
                    local.feed_many(sid, rows)

                target = next(iter(handles))
                lost = rng.integers(0, 100, size=(7, N))
                _lose_in_flight(fleet, target, lambda: handles[target].feed_rows(lost))
                local.feed_many(target, lost)

                for sid, handle in handles.items():
                    rows = rng.integers(0, 100, size=(10, N))
                    handle.feed_rows(rows)
                    local.feed_many(sid, rows)
                local.drain()
                for sid, handle in handles.items():
                    remote = handle.query(wait=True)
                    view = local.query(sid)
                    assert remote["time"] == view.time, sid
                    assert remote["topk"] == list(view.topk), sid
                    assert remote["messages"] == view.message_count, sid
                fleet_metrics = client.metrics()["fleet"]
                assert fleet_metrics["failovers"] == 1
                assert fleet_metrics["rows_replayed"] == 7

    def test_hung_worker_is_failed_over(self, monkeypatch):
        """A worker that stops answering without exiting (SIGSTOP) is
        killed at the shared-link deadline and failed over: fleet-wide
        requests still answer, and every session resumes bit-identically."""
        monkeypatch.setattr(fleet_module, "WORKER_REQUEST_TIMEOUT", 2.0)
        rng = np.random.default_rng(53)
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address, timeout=120) as client:
                local = SessionManager()
                handles = {}
                for i in range(8):
                    handle = client.create_session(n=N, k=K, seed=960 + i)
                    local.create(N, K, seed=960 + i, session_id=handle.id)
                    handles[handle.id] = handle
                for sid, handle in handles.items():
                    rows = rng.integers(0, 100, size=(10, N))
                    handle.feed_rows(rows)
                    local.feed_many(sid, rows)

                victim = max(client.fleet()["workers"], key=lambda w: w["sessions"])
                assert victim["sessions"] > 0
                os.kill(victim["pid"], signal.SIGSTOP)
                assert "fleet" in client.metrics()
                deadline = time.monotonic() + 60
                while client.fleet()["failovers"] < 1:
                    assert time.monotonic() < deadline, "hung worker never failed over"
                    time.sleep(0.1)

                for sid, handle in handles.items():
                    rows = rng.integers(0, 100, size=(10, N))
                    handle.feed_rows(rows)
                    local.feed_many(sid, rows)
                local.drain()
                for sid, handle in handles.items():
                    remote = handle.query(wait=True)
                    view = local.query(sid)
                    assert remote["time"] == view.time, sid
                    assert remote["topk"] == list(view.topk), sid
                    assert remote["messages"] == view.message_count, sid
                assert client.fleet()["failovers"] == 1

    def test_restore_short_of_acked_rows_fails_loudly(self, tmp_path):
        """A replacement missing rows its predecessor acknowledged cannot
        resume a lost feed: the client gets an error naming the session
        instead of rows resent at the wrong index."""
        root = tmp_path / "fleet"
        rows = np.arange(10 * N, dtype=np.int64).reshape(10, N) % 13
        with start_fleet(workers=2, checkpoint_dir=str(root),
                         checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address, timeout=120) as client:
                handle = client.create_session(n=N, k=K, seed=950)
                handle.feed_rows(rows)
                slot = HashRing(_pids(fleet)).lookup(handle.id)
                (root / slot / "feeds.log").unlink()
                with pytest.raises(ServiceError, match=handle.id):
                    _lose_in_flight(fleet, handle.id, lambda: handle.feed_rows(rows[:7]))

    def test_live_rebalance_is_bit_identical(self):
        """add_worker / remove_worker migrate sessions via the checkpoint
        codec without disturbing their trajectories."""
        rng = np.random.default_rng(29)
        with start_fleet(workers=2) as fleet:
            client = ServiceClient(fleet.address)
            local = SessionManager()
            handles = {}
            for i in range(8):
                handle = client.create_session(n=N, k=K, seed=500 + i)
                local.create(N, K, seed=500 + i, session_id=handle.id)
                handles[handle.id] = handle
            for _ in range(15):
                for sid, handle in handles.items():
                    row = rng.integers(0, 100, size=N)
                    handle.feed(row)
                    local.feed(sid, row)
            new_slot = fleet.add_worker()
            assert new_slot == "w2"
            for _ in range(15):
                for sid, handle in handles.items():
                    row = rng.integers(0, 100, size=N)
                    handle.feed(row)
                    local.feed(sid, row)
            moved = fleet.remove_worker("w0")
            assert moved >= 0
            assert {w["slot"] for w in fleet.workers()["workers"]} == {"w1", "w2"}
            for _ in range(10):
                for sid, handle in handles.items():
                    row = rng.integers(0, 100, size=N)
                    handle.feed(row)
                    local.feed(sid, row)
            local.drain()
            for sid, handle in handles.items():
                remote = handle.query(wait=True)
                view = local.query(sid)
                assert remote["time"] == view.time, sid
                assert remote["topk"] == list(view.topk), sid
                assert remote["messages"] == view.message_count, sid
            client.close()

    def test_worker_death_during_migration_loses_nothing(self, monkeypatch):
        """A destination SIGKILLed just before the router sends it an
        ``import`` is failed over, and the router sends the payload it
        holds again, to the replacement: no session is lost."""
        rng = np.random.default_rng(61)
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address, timeout=120) as client:
                local = SessionManager()
                handles = {}
                for i in range(8):
                    handle = client.create_session(n=N, k=K, seed=1000 + i)
                    local.create(N, K, seed=1000 + i, session_id=handle.id)
                    handles[handle.id] = handle
                    rows = rng.integers(0, 100, size=(10, N))
                    handle.feed_rows(rows)
                    local.feed_many(handle.id, rows)

                killed = _kill_before(monkeypatch, 1, lambda p: p["op"] == "import")
                assert fleet.remove_worker("w0") > 0
                assert killed == ["import"]

                assert sorted(client.session_ids()) == sorted(handles)
                _assert_same(handles, local)
                assert client.fleet()["failovers"] == 1

    def test_worker_deaths_under_create_and_its_probe(self, monkeypatch):
        """A create whose worker dies under it, and whose replacement dies
        under the probe asking whether the create landed, is recovered
        like a single death: the session is created once."""
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address, timeout=120) as client:
                client.checkpoint()  # a standby restores only a checkpointed directory
                killed = _kill_before(monkeypatch, 2, lambda p: p.get("session") == "twice")
                reply = client.request("create", n=N, k=K, seed=5, session="twice")
                assert killed == ["create", "query"]
                assert reply["session"] == "twice"
                assert client.session_ids() == ["twice"]
                handle = client.session("twice")
                handle.feed_rows(_matrix("random_walk", seed=5))
                local = SessionManager()
                local.create(N, K, seed=5, session_id="twice")
                local.feed_many("twice", _matrix("random_walk", seed=5))
                _assert_same({"twice": handle}, local)
                assert client.fleet()["failovers"] == 2

    def test_worker_killed_before_its_first_checkpoint_is_failed_over(self):
        """A worker writes its manifest before it listens, so one killed
        before any create or fan-out checkpoint still has a directory the
        standby can restore."""
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            fleet.kill_worker(0)
            with ServiceClient(fleet.address, timeout=120) as client:
                deadline = time.monotonic() + 60
                while client.fleet()["failovers"] < 1:
                    assert time.monotonic() < deadline, "the worker was never failed over"
                    time.sleep(0.05)
                rows = _matrix("random_walk", seed=6)
                handle = client.create_session(n=N, k=K, seed=6)
                handle.feed_rows(rows)
                state = handle.query(wait=True)
                offline = repro.run(repro.RunSpec(rows, k=K, seed=6, engine="vectorized"))
                assert state["time"] == STEPS - 1
                assert state["topk"] == offline.topk_history[-1].tolist()
                assert state["messages"] == offline.total_messages
                assert client.fleet()["failovers"] == 1

    def test_close_during_a_live_rebalance(self):
        """A session closed while a ``remove_worker`` waits for its lock is
        skipped by the move: the removal finishes, counts only what moved,
        and every other session answers bit-identically."""
        rng = np.random.default_rng(67)
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address, timeout=120) as client:
                local = SessionManager()
                handles = {}
                for i in range(8):
                    handle = client.create_session(n=N, k=K, seed=1100 + i)
                    local.create(N, K, seed=1100 + i, session_id=handle.id)
                    handles[handle.id] = handle
                    rows = rng.integers(0, 100, size=(10, N))
                    handle.feed_rows(rows)
                    local.feed_many(handle.id, rows)
                router = fleet.router
                victim = "s2"
                slot = router._sessions[victim].slot
                hosted = sum(1 for r in router._sessions.values() if r.slot == slot)

                async def race():
                    lock = router._sessions[victim].lock
                    await lock.acquire()
                    try:
                        close = asyncio.create_task(
                            router._op_close({"op": "close", "session": victim})
                        )
                        remove = asyncio.create_task(router.remove_worker(slot))
                        await asyncio.sleep(0)  # both now wait behind the lock
                    finally:
                        lock.release()
                    return await close, await remove

                closed, moved = fleet._call(race())
                assert closed["closed"] is True and closed["session"] == victim
                assert moved == hosted - 1
                assert slot not in {w["slot"] for w in fleet.workers()["workers"]}
                with pytest.raises(ServiceError, match="unknown session"):
                    handles.pop(victim).query()
                local.close(victim)
                assert sorted(client.session_ids()) == sorted(handles)
                _assert_same(handles, local)


class TestFleetLinks:
    """The router's pool of binary links to each worker."""

    def test_parked_waits_share_links(self, monkeypatch):
        """Feeds each read back with ``query(wait=True)`` reuse pooled
        links: the router opens no connection per parked wait."""
        opened = []
        open_connection = asyncio.open_connection

        async def counting(*args, **kwargs):
            opened.append(args)
            return await open_connection(*args, **kwargs)

        rows = np.arange(4 * N, dtype=np.int64).reshape(4, N) % 7
        with start_fleet(workers=2, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address) as client:
                handles = [client.create_session(n=N, k=K, seed=40 + i) for i in range(4)]
                monkeypatch.setattr(asyncio, "open_connection", counting)
                for i in range(40):
                    handles[i % 4].feed_rows(rows)
                    assert handles[i % 4].query(wait=True)["pending"] == 0
        assert len(opened) <= fleet_module.IDLE_LINKS

    def test_parked_wait_holds_up_nothing_else(self):
        """A ``wait`` query parked on a worker whose batch lingers 2 s
        holds up no other client's feed or query on that worker."""
        rows = np.arange(4 * N, dtype=np.int64).reshape(4, N) % 7
        with start_fleet(workers=1, batch_linger=2.0, checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address, timeout=60) as waiter, \
                    ServiceClient(fleet.address, timeout=60) as other:
                parked = waiter.create_session(n=N, k=K, seed=1)
                busy = other.create_session(n=N, k=K, seed=2)
                parked.feed_rows(rows)
                with ThreadPoolExecutor(max_workers=1) as pool:
                    waiting = pool.submit(parked.query, wait=True)
                    time.sleep(0.2)  # time for the wait to park worker-side
                    start = time.monotonic()
                    busy.feed_rows(rows)
                    busy.query()
                    elapsed = time.monotonic() - start
                    assert not waiting.done()
                    assert waiting.result(timeout=60)["time"] == len(rows) - 1
        assert elapsed < 0.5


class TestFleetRouterState:
    """``router.json`` keeps only what no worker can be asked for."""

    def test_router_file_holds_only_the_id_counter(self, tmp_path):
        root = tmp_path / "fleet"
        with start_fleet(workers=2, checkpoint_dir=str(root), checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address) as client:
                handles = [client.create_session(n=N, k=K, seed=i) for i in range(3)]
                handles[1].close()
                running = json.loads((root / "router.json").read_text())
        assert running == {"schema": 1, "next_id": 4}
        assert json.loads((root / "router.json").read_text()) == running

    def test_refused_creates_take_no_id(self, tmp_path):
        """A create any worker would refuse is refused before the router
        takes an id: ``router.json`` stays unwritten, and the next create
        gets the first id."""
        root = tmp_path / "fleet"
        with start_fleet(workers=2, checkpoint_dir=str(root), checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address) as client:
                for fields in ({"n": N, "k": K, "engine": "faithful"},
                               {"n": N, "k": 99},
                               {"n": "x", "k": K}):
                    with pytest.raises(ServiceError):
                        client.request("create", **fields)
                assert not (root / "router.json").exists()
                assert client.create_session(n=N, k=K, seed=1).id == "s1"

    def test_automatic_id_skips_a_client_chosen_one(self, tmp_path):
        """Through the router an unnamed create never collides with an id
        a client chose, and ``router.json`` resumes past both."""
        root = tmp_path / "fleet"
        with start_fleet(workers=1, checkpoint_dir=str(root), checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address) as client:
                assert client.request("create", n=N, k=K, session="s1")["session"] == "s1"
                assert client.create_session(n=N, k=K).id == "s2"
                assert json.loads((root / "router.json").read_text())["next_id"] == 3
                assert sorted(client.session_ids()) == ["s1", "s2"]

    def test_restart_with_another_worker_count(self, tmp_path):
        """A root written by a 1-worker fleet restarts with 3 workers:
        every session moves to its id's ring owner, and each finishes its
        stream equal to the offline run."""
        root = tmp_path / "fleet"
        values = _matrix("random_walk", seed=17)
        seeds = {}
        with start_fleet(workers=1, checkpoint_dir=str(root), checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address) as client:
                for i in range(6):
                    handle = client.create_session(n=N, k=K, seed=90 + i)
                    handle.feed_rows(values[:30])
                    seeds[handle.id] = 90 + i

        with start_fleet(workers=3, checkpoint_dir=str(root), checkpoint_interval=60) as fleet:
            with ServiceClient(fleet.address) as client:
                assert sorted(client.session_ids()) == sorted(seeds)
                for sid, seed in seeds.items():
                    handle = client.session(sid)
                    handle.feed_rows(values[30:])
                    state = handle.query(wait=True)
                    offline = repro.run(repro.RunSpec(values, k=K, seed=seed,
                                                      engine="vectorized"))
                    assert state["time"] == len(values) - 1, sid
                    assert state["topk"] == offline.topk_history[-1].tolist(), sid
                    assert state["messages"] == offline.total_messages, sid

                async def hosts():
                    return {sid: route.slot for sid, route in fleet.router._sessions.items()}

                placed = fleet._call(hosts())
        ring = HashRing(["w0", "w1", "w2"])
        assert placed == {sid: ring.lookup(sid) for sid in seeds}

    def test_restart_from_a_3_0_router_file(self, tmp_path):
        """A root whose ``router.json`` still maps each session to its
        group, as 3.0.0 wrote it, restarts with every session placed on its
        id's ring owner, and the id counter resumes."""
        root = tmp_path / "fleet"
        values = _matrix("random_walk", seed=15)
        options = dict(workers=2, checkpoint_dir=str(root), checkpoint_interval=60)
        with start_fleet(**options) as fleet:
            with ServiceClient(fleet.address) as client:
                ids = []
                for i in range(4):
                    handle = client.create_session(n=N, k=K, seed=70 + i)
                    handle.feed_rows(values[:30])
                    ids.append(handle.id)
        (root / "router.json").write_text(json.dumps({
            "schema": 1, "next_id": 9,
            "sessions": {sid: f"{N}x{K}/{stable_hash(sid) % 16}" for sid in ids},
        }))

        with start_fleet(**options) as fleet:
            with ServiceClient(fleet.address) as client:
                assert sorted(client.session_ids()) == sorted(ids)
                for i, sid in enumerate(ids):
                    handle = client.session(sid)
                    handle.feed_rows(values[30:])
                    state = handle.query(wait=True)
                    offline = repro.run(repro.RunSpec(values, k=K, seed=70 + i,
                                                      engine="vectorized"))
                    assert state["time"] == len(values) - 1, sid
                    assert state["topk"] == offline.topk_history[-1].tolist(), sid
                    assert state["messages"] == offline.total_messages, sid
                assert client.create_session(n=N, k=K).id == "s9"
                placed = {w["slot"]: w["sessions"] for w in fleet.workers()["workers"]}
        ring = HashRing(placed)
        expected = dict.fromkeys(placed, 0)
        for sid in [*ids, "s9"]:
            expected[ring.lookup(sid)] += 1
        assert placed == expected


def _service_children() -> set:
    """Pids of this process's live children running ``repro.service``."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if ppid == os.getpid() and b"repro.service" in cmdline:
            found.add(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="lists child processes through /proc")
class TestFleetShutdown:
    def test_wedged_shutdown_leaves_no_worker_running(self, monkeypatch, caplog):
        """A router whose shutdown outlives ``close()`` has its children
        SIGKILLed, and they stay dead: no monitor takes the kills for
        worker deaths and respawns them, and no checkpoint tick writes
        to their dead links."""
        release = threading.Event()
        run_until_stopped = fleet_module.FleetRouter.run_until_stopped

        async def wedged(router):
            await router._stopped.wait()
            while not release.is_set():
                await asyncio.sleep(0.05)
            await run_until_stopped(router)

        monkeypatch.setattr(fleet_module.FleetRouter, "run_until_stopped", wedged)
        monkeypatch.setattr(fleet_module.FleetHandle, "join_timeout", 2.0)
        caplog.set_level(logging.WARNING, logger="asyncio")
        before = _service_children()  # e.g. a module-scoped fleet's workers
        fleet = start_fleet(workers=2, checkpoint_interval=0.1)
        try:
            with ServiceClient(fleet.address) as client:
                client.create_session(n=N, k=K, seed=1).feed_rows(
                    np.arange(4 * N, dtype=np.int64).reshape(4, N)
                )
            assert len(_service_children() - before) == 3  # two workers + standby
            fleet.close()
            time.sleep(3.0)  # time enough for a failover to respawn a worker
            assert _service_children() - before == set()
            assert not [
                record for record in caplog.records
                if "socket.send() raised exception" in record.getMessage()
            ]
        finally:
            release.set()
            fleet.close()


    def test_failed_failover_leaves_no_worker_running(self, tmp_path, capfd):
        """A failover whose restore fails still shuts the fleet down, and
        the standby it took is stopped too: no serving process outlives
        ``close()``."""
        root = tmp_path / "fleet"
        before = _service_children()
        fleet = start_fleet(workers=2, checkpoint_dir=str(root), checkpoint_interval=60)
        try:
            with ServiceClient(fleet.address) as client:
                handle = client.create_session(n=N, k=K, seed=2)
                handle.feed_rows(_matrix("random_walk", seed=2)[:10])
            slot = HashRing(_pids(fleet)).lookup(handle.id)
            assert len(_service_children() - before) == 3  # two workers + standby
            (root / slot / "manager.json").write_text('{"schema": 99}')
            fleet.kill_worker(slot)
            deadline = time.monotonic() + 60
            while fleet._thread.is_alive():  # the failed failover stops the router
                assert time.monotonic() < deadline, "the fleet outlived a failed failover"
                time.sleep(0.05)
        finally:
            fleet.close()
        assert f"failover of {slot} failed" in capfd.readouterr().err
        deadline = time.monotonic() + 10
        while _service_children() - before:
            assert time.monotonic() < deadline, "a serving process outlived close()"
            time.sleep(0.05)


class TestFleetBinaryWire:
    """Acceptance (PR 10): the catalog over the binary wire through a
    4-worker fleet — with a SIGKILL failover mid-stream — is bit-identical
    to a local SessionManager, hence to JSONL and to ``repro.run()``."""

    def test_catalog_binary_with_sigkill_matches_local(self):
        with start_fleet(workers=4, checkpoint_interval=0.2) as fleet:
            client = ServiceClient(fleet.address, wire="binary")
            assert client.negotiated_wire == "binary"
            local = SessionManager()
            handles = {}
            matrices = {}
            for i, name in enumerate(list_workloads()):
                handle = client.create_session(n=N, k=K, seed=700 + i)
                local.create(N, K, seed=700 + i, session_id=handle.id)
                handles[name] = handle
                matrices[name] = _matrix(name, seed=40 + i)

            half = STEPS // 2
            for name, handle in handles.items():
                handle.feed_rows(matrices[name][:half])
                local.feed_many(handle.id, matrices[name][:half])

            # SIGKILL the busiest worker mid-stream.
            topology = client.fleet()
            victim = max(topology["workers"], key=lambda w: w["sessions"])
            assert victim["sessions"] > 0
            fleet.kill_worker(victim["slot"])

            for name, handle in handles.items():
                handle.feed_rows(matrices[name][half:])
                local.feed_many(handle.id, matrices[name][half:])
            local.drain()

            assert sorted(client.session_ids()) == sorted(
                h.id for h in handles.values()
            )
            for name, handle in handles.items():
                remote = handle.query(wait=True)
                view = local.query(handle.id)
                assert remote["time"] == view.time == STEPS - 1, name
                assert remote["topk"] == list(view.topk), name
                assert remote["messages"] == view.message_count, name
            assert client.metrics()["fleet"]["failovers"] == 1
            assert client.negotiated_wire == "binary"
            client.close()
