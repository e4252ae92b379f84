"""The streaming session service (repro/service) and the kernel it hosts.

The load-bearing invariant mirrors the engine differential tests: for any
value sequence and seed,

    OnlineSession.observe row-by-row
 == TopKMonitor.run over the full matrix
 == IncrementalKernel stepped row-by-row
 == SessionManager's stepping lanes (batched, lookahead, per-row)

in top-k trajectory *and* message counts, on every catalog workload.  The
traffic shape picks a manager's lane: one row per session per ``step()``
reaches the stacked lane, ``LOOKAHEAD_MIN_DEPTH`` pending rows the block
lane, and a session alone in its manager the per-row lane.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.monitor import OnlineSession, TopKMonitor
from repro.engine.vectorized import IncrementalKernel, _run_vectorized
from repro.errors import BackpressureError, ConfigurationError, ServiceError
from repro.service import ServiceClient, SessionManager, start_server
from repro.service import manager as manager_module
from repro.service.manager import DEFAULT_MAX_NODES, LOOKAHEAD_MIN_DEPTH
from repro.streams import get_workload, list_workloads

N, K, STEPS = 10, 3, 120


def _matrix(name: str, seed: int = 5) -> np.ndarray:
    return get_workload(name, N, STEPS, seed=seed).generate()


class TestIncrementalKernel:
    def test_row_by_row_equals_batch_entry_point(self):
        values = _matrix("random_walk")
        kernel = IncrementalKernel(N, K, seed=9)
        history = np.stack([kernel.step(row) for row in values])
        batch = _run_vectorized(values, K, seed=9)
        assert np.array_equal(history, batch.topk_history)
        assert kernel.counts == batch.by_phase
        assert kernel.reset_times == batch.reset_times
        assert kernel.handler_times == batch.handler_times
        assert kernel.time == STEPS - 1

    def test_streaming_sessions_stay_bounded_in_memory(self):
        """Kernels the service creates must not grow per-row state forever."""
        values = _matrix("random_walk")
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=4)
        kernel = mgr._sessions[sid].stepper
        assert isinstance(kernel, IncrementalKernel)
        for row in values:
            mgr.feed(sid, row)
            mgr.step()
        assert kernel.resets > 0 and kernel.reset_times == []
        assert kernel.handler_calls > 0 and kernel.handler_times == []
        # ...while counters still agree with the instrumented run.
        offline = TopKMonitor(n=N, k=K, seed=4).run(values)
        assert kernel.message_count == offline.total_messages

    def test_track_times_off_keeps_no_time_lists(self):
        """Kernel memory under ``track_times=False``: a long churn stream
        fed in 512-row blocks leaves the per-step time lists empty while the
        counters count, for a bare kernel and for a manager's session."""
        n, k, block = 8, 3, 512
        values = get_workload("iid_uniform", n, 8 * block, seed=3).generate()
        tracked = IncrementalKernel(n, k, seed=6, track_times=True)
        bounded = IncrementalKernel(n, k, seed=6, track_times=False)
        mgr = SessionManager()
        sid = mgr.create(n, k, seed=6)
        session = mgr._sessions[sid].stepper
        tracked_history, bounded_history = [], []
        for a in range(0, len(values), block):
            rows = values[a : a + block]
            tracked_history.append(tracked.observe_many(rows))
            bounded_history.append(bounded.observe_many(rows))
            mgr.feed_many(sid, rows)
            assert mgr.step() == len(rows)
        assert np.array_equal(np.concatenate(bounded_history), np.concatenate(tracked_history))
        assert len(tracked.reset_times) == tracked.resets > 1000
        assert tracked.handler_times
        for kernel in (bounded, session):
            assert kernel.reset_times == kernel.handler_times == []
            assert kernel.resets == tracked.resets
            assert kernel.handler_calls == tracked.handler_calls
            assert kernel.counts == tracked.counts
            assert kernel.topk.tolist() == tracked.topk.tolist()

    def test_quiet_step_is_exact(self):
        """Externally proven-quiet steps may skip the per-step logic."""
        values = _matrix("lazy_walk")
        a = IncrementalKernel(N, K, seed=2)
        b = IncrementalKernel(N, K, seed=2)
        for row in values:
            a.step(row)
            if b.initialized and not b.filter.violates(row):
                b.quiet_step()
            else:
                b.step(row)
        assert np.array_equal(a.topk, b.topk)
        assert a.counts == b.counts
        assert a.time == b.time

    def test_validates_rows(self):
        kernel = IncrementalKernel(4, 2, seed=0)
        with pytest.raises(ConfigurationError):
            kernel.step([1, 2, 3])
        with pytest.raises(ConfigurationError):
            kernel.step([1.5, 2.0, 3.0, 4.0])

    def test_trivial_k_equals_n(self):
        kernel = IncrementalKernel(3, 3, seed=0)
        assert kernel.step([5, 1, 9]).tolist() == [0, 1, 2]
        assert kernel.message_count == 0


class TestDifferentialCatalog:
    """Satellite: bit-identity across the whole workload catalog."""

    @pytest.mark.parametrize("name", list_workloads())
    def test_online_session_matches_batch_run(self, name):
        values = _matrix(name)
        offline = TopKMonitor(n=N, k=K, seed=11).run(values)
        session = OnlineSession(N, K, seed=11)
        history = np.stack([session.observe(row) for row in values])
        assert np.array_equal(history, offline.topk_history)
        assert session.message_count == offline.total_messages

    def test_batched_service_matches_both_engines(self):
        """One manager hosting every catalog workload at once, stepped in
        batched sweeps, equals the offline faithful and vectorized runs
        session by session."""
        mgr = SessionManager()
        cases = {}
        for i, name in enumerate(list_workloads()):
            values = _matrix(name, seed=3 + i)
            sid = mgr.create(N, K, seed=21 + i)
            cases[sid] = (name, values, 21 + i)
        histories = {sid: [] for sid in cases}
        for t in range(STEPS):
            for sid, (_, values, _) in cases.items():
                mgr.feed(sid, values[t])
            mgr.step()
            for sid in cases:
                histories[sid].append(mgr.query(sid).topk)
        snap = mgr.metrics_snapshot()
        assert snap.rows_batched > 0, "the batched path never engaged"
        assert snap.rows_quiet > 0, "no session ever took the quiet lane"
        for sid, (name, values, seed) in cases.items():
            for engine in ("faithful", "vectorized"):
                offline = repro.run(repro.RunSpec(values, k=K, seed=seed, engine=engine))
                assert np.array_equal(np.array(histories[sid]), offline.topk_history), name
                assert mgr.query(sid).message_count == offline.total_messages, name

    def test_stacked_and_single_lanes_agree(self):
        """Bursty feeding into one shared manager (shallow sessions stack)
        and into one manager per session (a group of one steps alone)
        gives identical results."""
        workloads = [_matrix(name, seed=8) for name in ("random_walk", "iid_uniform", "bursty")]
        finals = []
        for shared in (True, False):
            managers = [SessionManager()] * len(workloads) if shared else [
                SessionManager() for _ in workloads
            ]
            sids = [mgr.create(N, K, seed=40 + i) for i, mgr in enumerate(managers)]
            cursors = [0] * len(sids)
            rng_local = np.random.default_rng(7)
            while any(c < STEPS for c in cursors):
                for i, (mgr, sid) in enumerate(zip(managers, sids)):
                    burst = int(rng_local.integers(0, LOOKAHEAD_MIN_DEPTH))
                    for _ in range(min(burst, STEPS - cursors[i])):
                        mgr.feed(sid, workloads[i][cursors[i]])
                        cursors[i] += 1
                for mgr in dict.fromkeys(managers):
                    mgr.drain()
            finals.append([(m.query(sid).topk, m.query(sid).message_count)
                           for m, sid in zip(managers, sids)])
            batched = sum(m.metrics_snapshot().rows_batched for m in dict.fromkeys(managers))
            assert (batched > 0) == shared
            assert not any(m.metrics_snapshot().rows_lookahead for m in managers)
        assert finals[0] == finals[1]

    @pytest.mark.parametrize("lookahead", [True, False])
    @pytest.mark.parametrize("batch", [True, False])
    def test_fed_blocks_are_pure_transport(self, batch, lookahead):
        """One stream fed four ways — per-row ``feed``, numpy blocks, uneven
        list-of-lists chunks, and a mix of all three — equals the offline
        run at every row a sweep exposes.  The traffic picks the lanes:
        under ``batch`` the four sessions share one manager, so shallow
        ones stack, else each is alone in its own; under ``lookahead`` the
        block arrives whole and chunks reach ``LOOKAHEAD_MIN_DEPTH``, else
        every session gets one row per ``step()``."""
        values = _matrix("random_walk", seed=12)
        offline = repro.run(repro.RunSpec(values, k=K, seed=4, engine="vectorized"))
        modes = ("rows", "block", "chunks", "mix")
        if batch:
            managers = dict.fromkeys(modes, SessionManager())
        else:
            managers = {mode: SessionManager() for mode in modes}
        sids = {mode: managers[mode].create(N, K, seed=4) for mode in modes}
        if lookahead:
            managers["block"].feed_many(sids["block"], values)
        rng = np.random.default_rng(3)
        t = 0
        while t < STEPS:
            chunk = values[t : t + (int(rng.integers(1, 7)) if lookahead else 1)]
            for row in chunk:
                managers["rows"].feed(sids["rows"], row)
            managers["chunks"].feed_many(sids["chunks"], chunk.tolist())
            if not lookahead:
                managers["block"].feed_many(sids["block"], chunk)
            if t % 3 == 0:
                managers["mix"].feed_many(sids["mix"], chunk)
            elif t % 3 == 1:
                for row in chunk.tolist():
                    managers["mix"].feed(sids["mix"], row)
            else:
                managers["mix"].feed_many(sids["mix"], chunk.tolist())
            t += len(chunk)
            for mgr in dict.fromkeys(managers.values()):
                mgr.step()
            for mode, sid in sids.items():
                view = managers[mode].query(sid)
                if view.time >= 0:
                    assert view.topk == tuple(offline.topk_history[view.time].tolist()), sid
        for mode, sid in sids.items():
            managers[mode].drain()
            view = managers[mode].query(sid)
            assert view.time == STEPS - 1 and view.pending == 0, sid
            assert view.topk == tuple(offline.topk_history[-1].tolist()), sid
            assert view.message_count == offline.total_messages, sid
        snaps = [mgr.metrics_snapshot() for mgr in dict.fromkeys(managers.values())]
        assert any(snap.rows_batched for snap in snaps) == batch
        assert any(snap.rows_lookahead for snap in snaps) == lookahead


class TestDeepInboxLookahead:
    """The kernel's scan_quiet drains deep inboxes without changing results."""

    def test_observe_many_equals_per_row_stepping(self):
        for name in list_workloads():
            values = _matrix(name)
            a = IncrementalKernel(N, K, seed=13)
            b = IncrementalKernel(N, K, seed=13)
            history_a = np.stack([a.step(row) for row in values])
            history_b = b.observe_many(values)
            assert np.array_equal(history_a, history_b), name
            assert a.counts == b.counts, name
            assert a.time == b.time, name

    def test_observe_many_in_slices(self):
        """Lookahead across arbitrary block boundaries stays exact."""
        values = _matrix("random_walk")
        ref = _run_vectorized(values, K, seed=6)
        kernel = IncrementalKernel(N, K, seed=6)
        pieces, t = [], 0
        rng = np.random.default_rng(0)
        while t < STEPS:
            size = int(rng.integers(1, 40))
            pieces.append(kernel.observe_many(values[t : t + size]))
            t += size
        assert np.array_equal(np.concatenate(pieces), ref.topk_history)
        assert kernel.counts == ref.by_phase

    def test_observe_many_validates(self):
        kernel = IncrementalKernel(4, 2, seed=0)
        with pytest.raises(ConfigurationError):
            kernel.observe_many([[1, 2, 3]])
        with pytest.raises(ConfigurationError):
            kernel.observe_many([[1.0, 2.0, 3.0, 4.0]])

    def test_lookahead_drain_matches_per_row_manager(self):
        """Deep inboxes drained by block scan == one row per session per
        sweep (the stacked lane) == offline, on every workload."""
        matrices = [_matrix(name, seed=9 + i) for i, name in enumerate(list_workloads())]
        finals = []
        for deep in (True, False):
            mgr = SessionManager()
            sids = [mgr.create(N, K, seed=60 + i) for i in range(len(matrices))]
            if deep:
                for sid, values in zip(sids, matrices):
                    mgr.feed_many(sid, values)
                mgr.drain()
            else:
                for t in range(STEPS):
                    for sid, values in zip(sids, matrices):
                        mgr.feed(sid, values[t])
                    assert mgr.step() == len(sids)
            finals.append(
                [(mgr.query(sid).topk, mgr.query(sid).message_count) for sid in sids]
            )
            snap = mgr.metrics_snapshot()
            assert snap.rows_lookahead == (STEPS * len(sids) if deep else 0)
            assert (snap.rows_batched > 0) != deep
        assert finals[0] == finals[1]
        for i, values in enumerate(matrices):
            offline = repro.run(repro.RunSpec(values, k=K, seed=60 + i, engine="fast"))
            assert finals[0][i] == (
                tuple(offline.topk_history[-1].tolist()), offline.total_messages
            )

    def test_shallow_inboxes_stay_on_the_batched_path(self):
        mgr = SessionManager()
        sids = [mgr.create(N, K, seed=70 + i) for i in range(8)]
        values = _matrix("random_walk")
        for t in range(6):
            for sid in sids:
                mgr.feed(sid, values[t])
            mgr.step()
        snap = mgr.metrics_snapshot()
        assert snap.rows_lookahead == 0  # depth 1 < LOOKAHEAD_MIN_DEPTH
        assert snap.rows_batched > 0


class TestManagerCheckpoint:
    """Satellite: kill/restore a manager mid-stream, bit-identically."""

    @pytest.mark.parametrize("name", list_workloads())
    def test_restore_resumes_bit_identically(self, name, tmp_path):
        """Checkpoint live sessions mid-stream, restore into a fresh
        manager, and drive the rest: the top-k trajectory and message
        counts must equal the uninterrupted run, session by session."""
        values = _matrix(name, seed=17)
        cut = STEPS // 2
        seeds = {"a": 33, "b": 34}  # one batch group of two
        trajectories = {sid: [] for sid in seeds}

        mgr = SessionManager()
        for sid, seed in seeds.items():
            mgr.create(N, K, seed=seed, session_id=sid)
        for t in range(cut):
            for sid in seeds:
                mgr.feed(sid, values[t])
            mgr.step()
            for sid in seeds:
                trajectories[sid].append(mgr.query(sid).topk)
        assert mgr.checkpoint(tmp_path) == len(seeds)

        restored = SessionManager(restore=tmp_path)
        assert restored.session_ids() == sorted(seeds)
        for t in range(cut, STEPS):
            for sid in seeds:
                restored.feed(sid, values[t])
            restored.step()
            for sid in seeds:
                trajectories[sid].append(restored.query(sid).topk)

        for sid, seed in seeds.items():
            offline = TopKMonitor(n=N, k=K, seed=seed).run(values)
            assert np.array_equal(np.array(trajectories[sid]), offline.topk_history), sid
            assert restored.query(sid).message_count == offline.total_messages, sid

    def test_pending_inbox_survives_the_checkpoint(self, tmp_path):
        values = _matrix("random_walk", seed=3)
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=5)
        mgr.feed_many(sid, values[:50])
        mgr.drain()
        mgr.feed_many(sid, values[50:80])  # left pending on purpose
        mgr.checkpoint(tmp_path)

        restored = SessionManager(restore=tmp_path)
        assert restored.pending(sid) == 30
        restored.feed_many(sid, values[80:])
        restored.drain()
        offline = TopKMonitor(n=N, k=K, seed=5).run(values)
        view = restored.query(sid)
        assert view.topk == tuple(offline.topk_history[-1].tolist())
        assert view.message_count == offline.total_messages
        assert restored.metrics_snapshot().sessions_restored == 1

    def test_partly_consumed_block_checkpoints_its_remaining_rows(self, tmp_path):
        """A 3-row block (below LOOKAHEAD_MIN_DEPTH) loses its head row to
        the batched lane; the checkpoint lists exactly the other two."""
        values = _matrix("random_walk", seed=14)
        mgr = SessionManager()
        sids = [mgr.create(N, K, seed=8 + i) for i in range(2)]
        for sid in sids:
            mgr.feed_many(sid, values[:1])
        mgr.step()  # the t=0 reset runs outside the batched lane
        for sid in sids:
            mgr.feed_many(sid, values[1:4])
        assert mgr.step() == 2
        assert mgr.metrics_snapshot().rows_batched == 2
        mgr.checkpoint(tmp_path)
        for sid in sids:
            data = json.loads((tmp_path / f"{sid}.json").read_text())
            assert data["inbox"] == values[2:4].tolist()

        restored = SessionManager(restore=tmp_path)
        for sid in sids:
            assert restored.pending(sid) == 2
            restored.feed_many(sid, values[4:])
        restored.drain()
        for i, sid in enumerate(sids):
            offline = repro.run(repro.RunSpec(values, k=K, seed=8 + i, engine="vectorized"))
            view = restored.query(sid)
            assert view.time == STEPS - 1
            assert view.topk == tuple(offline.topk_history[-1].tolist())
            assert view.message_count == offline.total_messages

    @pytest.mark.parametrize(
        "inbox",
        [[[1, 2, 3]], [[1, 2, 3, 4], [1, 2]], [[1.5, 2.0, 3.0, 4.0]], None],
        ids=["wrong-width", "ragged", "float", "missing"],
    )
    def test_corrupt_inbox_is_refused_at_restore(self, inbox, tmp_path):
        """A tampered or missing pending inbox (``None`` deletes the field)
        fails restore and import naming the session, instead of raising in
        the first sweep that reaches it."""
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=1)
        mgr.feed(sid, [4, 3, 2, 1])
        mgr.checkpoint(tmp_path)
        path = tmp_path / f"{sid}.json"
        data = json.loads(path.read_text())
        if inbox is None:
            del data["inbox"]
        else:
            data["inbox"] = inbox
        path.write_text(json.dumps(data))
        refused = f"session '{sid}' has a corrupt pending inbox"
        with pytest.raises(ConfigurationError, match=refused):
            SessionManager(restore=tmp_path)
        with pytest.raises(ConfigurationError, match=refused):
            SessionManager().import_session(data)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda state: state["filter"].update(sides="00"),
            lambda state: state["filter"].update(sides="3c00"),
            lambda state: state["filter"].update(sides="zz00"),
            lambda state: state["filter"].update(n=8),
            lambda state: state.update(t=-1),
            lambda state: state.pop("rng_state"),
            # A 7.x block that asks for an ablation the kernel does not run.
            lambda state: state.update(
                config={"skip_redundant_min": True, "charge_start_broadcast": True}
            ),
        ],
        ids=[
            "short-sides", "four-top", "non-hex-sides", "filter-n", "blank-with-top", "no-rng",
            "ablation-config",
        ],
    )
    def test_corrupt_kernel_snapshot_is_refused_at_restore(self, corrupt, tmp_path):
        """A tampered kernel snapshot fails restore and import naming the
        session, instead of answering a wrong top-k or failing in the
        first drain."""
        rows = np.arange(5 * 16).reshape(5, 16) * 7 % 23
        mgr = SessionManager()
        sid = mgr.create(16, 3, seed=1)
        mgr.feed_many(sid, rows)
        mgr.drain()
        mgr.checkpoint(tmp_path)
        path = tmp_path / f"{sid}.json"
        data = json.loads(path.read_text())
        corrupt(data["state"])
        path.write_text(json.dumps(data))
        match = f"session '{sid}' has a corrupt kernel snapshot"
        with pytest.raises(ConfigurationError, match=match):
            SessionManager(restore=tmp_path)
        with pytest.raises(ConfigurationError, match=match):
            SessionManager().import_session(data)

    def test_other_engine_is_refused_at_restore(self, tmp_path):
        """Every session is the vectorized kernel: a session file or an
        import payload naming another engine fails naming the session."""
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=1)
        mgr.feed(sid, [4, 3, 2, 1])
        mgr.checkpoint(tmp_path)
        path = tmp_path / f"{sid}.json"
        data = json.loads(path.read_text())
        assert data["engine"] == "vectorized"
        data["engine"] = "faithful"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=f"session '{sid}'.*'faithful'"):
            SessionManager(restore=tmp_path)
        with pytest.raises(ConfigurationError, match=f"session '{sid}'.*'faithful'"):
            SessionManager().import_session(data)

    def test_checkpoint_rewrites_only_changed_files(self, tmp_path):
        """File-level behaviour of incremental checkpoints: a fed session's
        file and the manifest are rewritten, every other file is left
        alone, a missing clean file is rewritten by the next checkpoint
        that is not a no-op, and a closed session's file is pruned."""

        def stats():
            return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in tmp_path.iterdir()}

        def rewritten(before, after):
            return {name for name in after if after[name] != before.get(name)}

        mgr = SessionManager()
        sids = [mgr.create(4, 2, seed=i) for i in range(4)]
        mgr.checkpoint(tmp_path)
        before = stats()
        assert set(before) == {f"{sid}.json" for sid in sids} | {"manager.json"}

        mgr.feed(sids[0], [1, 2, 3, 4])
        mgr.checkpoint(tmp_path)
        after = stats()
        assert set(after) == set(before)
        assert rewritten(before, after) == {f"{sids[0]}.json", "manager.json"}

        (tmp_path / f"{sids[1]}.json").unlink()
        mgr.checkpoint(tmp_path)  # nothing dirty: a no-op, the file stays gone
        assert f"{sids[1]}.json" not in stats()
        before = stats()
        mgr.feed(sids[2], [1, 2, 3, 4])
        mgr.checkpoint(tmp_path)
        after = stats()
        assert rewritten(before, after) == {
            f"{sids[1]}.json", f"{sids[2]}.json", "manager.json"
        }

        before = after
        mgr.close(sids[3])
        mgr.checkpoint(tmp_path)
        after = stats()
        assert set(after) == set(before) - {f"{sids[3]}.json"}
        assert rewritten(before, after) == {"manager.json"}
        assert SessionManager(restore=tmp_path).session_ids() == sids[:3]

    def test_closed_sessions_do_not_resurrect(self, tmp_path):
        mgr = SessionManager()
        keep = mgr.create(4, 2, seed=1)
        gone = mgr.create(4, 2, seed=2)
        mgr.checkpoint(tmp_path)
        mgr.close(gone)
        mgr.checkpoint(tmp_path)
        restored = SessionManager(restore=tmp_path)
        assert keep in restored and gone not in restored

    def test_session_id_counter_survives(self, tmp_path):
        mgr = SessionManager()
        first = mgr.create(4, 2, seed=1)
        mgr.checkpoint(tmp_path)
        restored = SessionManager(restore=tmp_path)
        assert restored.create(4, 2, seed=2) != first

    def test_restore_from_empty_dir_fails_loudly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no manager checkpoint"):
            SessionManager(restore=tmp_path)

    def test_session_ids_are_path_safe(self):
        """Ids become checkpoint filenames (and arrive over the wire), so
        traversal and manifest-shadowing ids are refused at create()."""
        mgr = SessionManager()
        for bad in ("../../evil", "a/b", "/abs", "manager", "manager.json", "", ".hidden"):
            with pytest.raises(ConfigurationError, match="invalid session id"):
                mgr.create(4, 2, session_id=bad)
        assert mgr.create(4, 2, session_id="gateway-7.east") == "gateway-7.east"

    def test_failed_manifest_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A checkpoint that dies writing the manifest leaves the previous
        one restorable: a closed session's file is pruned only after the
        new manifest no longer names it."""
        mgr = SessionManager()
        sids = [mgr.create(4, 2, seed=i) for i in range(2)]
        mgr.checkpoint(tmp_path)
        mgr.close(sids[1])
        write = manager_module._atomic_write

        def failing_manifest(path, payload):
            if path.name == "manager.json":
                raise OSError("disk full")
            write(path, payload)

        monkeypatch.setattr(manager_module, "_atomic_write", failing_manifest)
        with pytest.raises(OSError, match="disk full"):
            mgr.checkpoint(tmp_path)
        assert SessionManager(restore=tmp_path).session_ids() == sids

    def test_missing_session_file_is_refused_at_restore(self, tmp_path):
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=1)
        mgr.checkpoint(tmp_path)
        (tmp_path / f"{sid}.json").unlink()
        with pytest.raises(ConfigurationError, match=f"session '{sid}'.*missing"):
            SessionManager(restore=tmp_path)

    @staticmethod
    def _finish(directory, sid, values) -> int:
        """Restore ``directory``, feed ``values`` from the restored row count
        on, and check the end state against the offline run of a seed-6
        session; returns the restored row count."""
        restored = SessionManager(restore=directory)
        view = restored.query(sid)
        received = view.time + 1 + view.pending
        restored.feed_many(sid, values[received:])
        restored.drain()
        offline = repro.run(repro.RunSpec(values, k=K, seed=6, engine="vectorized"))
        view = restored.query(sid)
        assert view.time == len(values) - 1
        assert view.topk == tuple(offline.topk_history[-1].tolist())
        assert view.message_count == offline.total_messages
        return received

    @staticmethod
    def _logged(directory, values, cuts):
        """A session checkpointed empty, then fed ``values`` in blocks ending
        at ``cuts`` (each drained): every row lives only in the feed log.
        Returns the session id and the log's size after each block."""
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=6)
        mgr.checkpoint(directory)
        sizes, start = [], 0
        for cut in cuts:
            mgr.feed_many(sid, values[start:cut])
            mgr.drain()
            sizes.append((directory / "feeds.log").stat().st_size)
            start = cut
        return sid, sizes

    def test_log_replays_up_to_a_torn_last_record(self, tmp_path):
        """A log cut at every byte offset inside its last record restores
        every complete record, and the restored manager cuts the torn tail
        off before it appends: a second restore sees all its rows."""
        values = _matrix("random_walk", seed=21)
        sid, sizes = self._logged(tmp_path / "ckpt", values, [40, 100, 103])
        for cut in range(sizes[1], sizes[2]):
            case = tmp_path / f"cut{cut}"
            shutil.copytree(tmp_path / "ckpt", case)
            os.truncate(case / "feeds.log", cut)
            assert self._finish(case, sid, values) == 100
            assert self._finish(case, sid, values) == len(values)

    def test_corrupt_log_record_ends_the_replay(self, tmp_path):
        values = _matrix("random_walk", seed=22)
        sid, sizes = self._logged(tmp_path, values, [40, 100, 110])
        log = tmp_path / "feeds.log"
        data = bytearray(log.read_bytes())
        data[sizes[1] - 1] ^= 0x01  # the last body byte of the second record
        log.write_bytes(bytes(data))
        assert self._finish(tmp_path, sid, values) == 40
        assert self._finish(tmp_path, sid, values) == len(values)

    def test_stale_log_applies_nothing_twice(self, tmp_path):
        """A crash after a checkpoint's files but before its log unlink
        leaves a log whose rows the session files already hold."""
        values = _matrix("random_walk", seed=23)
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=6)
        mgr.checkpoint(tmp_path)
        mgr.feed_many(sid, values[:30])
        mgr.drain()
        mgr.feed_many(sid, values[30:60])  # left pending: 30 stepped rows, 30 queued
        stale = (tmp_path / "feeds.log").read_bytes()
        mgr.checkpoint(tmp_path)
        assert not (tmp_path / "feeds.log").exists()
        (tmp_path / "feeds.log").write_bytes(stale)
        assert self._finish(tmp_path, sid, values) == 60
        assert self._finish(tmp_path, sid, values) == len(values)

    def test_replay_skips_the_rows_a_session_file_holds(self, tmp_path):
        """A record whose first rows the session file already holds
        contributes only the rest."""
        values = _matrix("random_walk", seed=28)
        for directory, fed in ((tmp_path / "a", 30), (tmp_path / "b", 60)):
            mgr = SessionManager()
            sid = mgr.create(N, K, seed=6)
            mgr.checkpoint(directory)
            mgr.feed_many(sid, values[:fed])  # b: one 60-row record
        mgr = SessionManager(restore=tmp_path / "a")
        mgr.checkpoint(tmp_path / "a")  # a: a session file of 30 rows
        shutil.copy(tmp_path / "a" / f"{sid}.json", tmp_path / "b")
        assert self._finish(tmp_path / "b", sid, values) == 60

    def test_log_record_past_the_checkpoint_is_refused(self, tmp_path):
        values = _matrix("random_walk", seed=24)
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=6)
        mgr.checkpoint(tmp_path)
        empty = (tmp_path / f"{sid}.json").read_bytes()
        mgr.feed_many(sid, values[:30])
        mgr.checkpoint(tmp_path)
        mgr.feed_many(sid, values[30:50])  # logged as starting at row 30
        (tmp_path / f"{sid}.json").write_bytes(empty)  # a session file of 0 rows
        with pytest.raises(ConfigurationError, match=f"session '{sid}'.*row 30"):
            SessionManager(restore=tmp_path)

    def test_log_records_of_unlisted_sessions_are_skipped(self, tmp_path):
        values = _matrix("random_walk", seed=25)
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=6)
        mgr.checkpoint(tmp_path)
        late = mgr.create(N, K, seed=7)  # never checkpointed
        mgr.feed_many(late, values[:10])
        mgr.feed_many(sid, values[:10])
        restored = SessionManager(restore=tmp_path)
        assert restored.session_ids() == [sid]
        assert restored.pending(sid) == 10

    def test_replayed_rows_survive_the_next_checkpoint(self, tmp_path):
        """Compacting a restored manager writes the rows it replayed into
        the session file before it unlinks the log that held them."""
        values = _matrix("random_walk", seed=27)
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=6)
        mgr.checkpoint(tmp_path)
        mgr.feed_many(sid, values[:30])
        SessionManager(restore=tmp_path).checkpoint(tmp_path)
        assert not (tmp_path / "feeds.log").exists()
        assert self._finish(tmp_path, sid, values) == 30

    @pytest.mark.parametrize(
        "low, span, width",
        [
            (-7, 255, 1),
            (-300, 256, 2),
            (10**12, 65_535, 2),
            (-5, 2**32 - 1, 4),
            (-(2**31), 2**32, 8),
            (int(np.iinfo(np.int64).min), 2**64 - 1, 8),
        ],
        ids=["u8", "u16-edge", "u16", "u32", "int64", "int64-extremes"],
    )
    def test_log_body_round_trips(self, low, span, width, tmp_path):
        """Frame-of-reference bodies: the narrowest width that holds the
        block's span, exact values back (negative and int64 extremes)."""
        deltas = [[0, span, span // 3, 1], [span - 1, 2, 0, span // 2]]
        block = np.array([[low + d for d in row] for row in deltas], dtype=np.int64)
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=1)
        mgr.checkpoint(tmp_path)
        mgr.feed_many(sid, block)
        header = 34  # 8-byte length and CRC, then the 26-byte header
        assert (tmp_path / "feeds.log").stat().st_size == header + len(sid) + block.size * width
        mgr.feed(sid, block[1])
        restored = SessionManager(restore=tmp_path)
        assert restored.export_session(sid)["inbox"] == block.tolist() + [block[1].tolist()]

    @pytest.mark.parametrize("failure", ["short", "error"])
    def test_failed_log_write_queues_nothing(self, failure, tmp_path, monkeypatch):
        """A feed whose record is not written whole fails, queues nothing,
        and leaves the log at its last complete record."""
        values = _matrix("random_walk", seed=26)
        mgr = SessionManager()
        sid = mgr.create(N, K, seed=6)
        mgr.checkpoint(tmp_path)
        mgr.feed_many(sid, values[:20])
        good = (tmp_path / "feeds.log").stat().st_size

        def broken_writev(fd, parts):
            if failure == "error":
                raise OSError(28, "No space left on device")
            return os.write(fd, bytes(parts[0])[:5])

        with monkeypatch.context() as patch:
            patch.setattr(os, "writev", broken_writev)
            with pytest.raises(ServiceError, match="could not log"):
                mgr.feed_many(sid, values[20:40])
        assert mgr.pending(sid) == 20
        assert (tmp_path / "feeds.log").stat().st_size == good
        mgr.feed_many(sid, values[20:50])
        assert self._finish(tmp_path, sid, values) == 50

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_log_file_is_closed(self, tmp_path):
        """The log is closed at compaction, on a switch of directory, and
        when its manager is collected."""

        def open_logs():  # open, or unlinked but still open
            targets = []
            for fd in os.listdir("/proc/self/fd"):
                with contextlib.suppress(OSError):
                    targets.append(os.readlink(f"/proc/self/fd/{fd}"))
            return sum(target.startswith(str(tmp_path.resolve())) for target in targets)

        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=1)
        mgr.checkpoint(tmp_path / "a")
        mgr.feed(sid, [1, 2, 3, 4])
        assert open_logs() == 1
        mgr.checkpoint(tmp_path / "a")
        assert open_logs() == 0
        mgr.feed(sid, [1, 2, 3, 4])
        mgr.checkpoint(tmp_path / "b")
        assert open_logs() == 0
        mgr.feed(sid, [1, 2, 3, 4])
        del mgr
        gc.collect()
        assert open_logs() == 0

    def test_idle_checkpoint_is_a_no_op(self, tmp_path):
        """Re-checkpointing with nothing dirty must not rewrite files
        (the server's timer calls checkpoint() on every tick, fed or not)."""
        mgr = SessionManager()
        mgr.create(4, 2, seed=1)
        mgr.checkpoint(tmp_path)
        manifest = tmp_path / "manager.json"
        before = manifest.stat().st_mtime_ns
        assert mgr.checkpoint(tmp_path) == 1  # clean: early return
        assert manifest.stat().st_mtime_ns == before
        mgr.feed("s1", [1, 2, 3, 4])  # dirty again -> rewritten
        mgr.checkpoint(tmp_path)
        assert manifest.stat().st_mtime_ns > before

    def test_close_drain_metrics_report_the_real_path(self):
        """close() drains a pending inbox through the block lane and counts
        those rows as lookahead rows; rows stepped before it count in the
        lane that stepped them."""
        rows = [[1, 2, 3, 4]] * 10
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=0)
        for row in rows:  # one row per step(): a group of one, stepped alone
            mgr.feed(sid, row)
            mgr.step()
        mgr.close(sid)
        snap = mgr.metrics_snapshot()
        assert (snap.rows_processed, snap.rows_lookahead) == (10, 0)
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=0)
        mgr.feed_many(sid, rows)
        mgr.close(sid)
        assert mgr.metrics_snapshot().rows_lookahead == 10


class TestSessionManager:
    def test_lifecycle_and_views(self):
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=1)
        assert sid in mgr and len(mgr) == 1
        assert mgr.feed(sid, [4, 1, 3, 2]) == 1
        assert mgr.pending(sid) == 1
        mgr.drain()
        view = mgr.query(sid)
        assert view.time == 0 and view.pending == 0
        assert view.topk == (0, 2)
        final = mgr.close(sid)
        assert final.topk == (0, 2)
        assert sid not in mgr
        assert mgr.metrics_snapshot().sessions_closed == 1

    def test_close_drains_remaining_rows(self):
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=1)
        for row in ([4, 1, 3, 2], [4, 1, 3, 9], [4, 1, 3, 9]):
            mgr.feed(sid, row)
        final = mgr.close(sid)
        assert final.time == 2
        assert final.topk == (0, 3)

    def test_unknown_session(self):
        mgr = SessionManager()
        with pytest.raises(ServiceError, match="unknown session"):
            mgr.feed("nope", [1])
        with pytest.raises(ServiceError):
            mgr.query("nope")

    def test_duplicate_and_custom_ids(self):
        mgr = SessionManager()
        assert mgr.create(4, 2, session_id="mine") == "mine"
        with pytest.raises(ConfigurationError, match="already exists"):
            mgr.create(4, 2, session_id="mine")

    def test_backpressure(self):
        mgr = SessionManager(inbox_limit=2)
        sid = mgr.create(4, 2, seed=0)
        mgr.feed(sid, [1, 2, 3, 4])
        mgr.feed(sid, [1, 2, 3, 4])
        with pytest.raises(BackpressureError):
            mgr.feed(sid, [1, 2, 3, 4])
        assert mgr.metrics_snapshot().backpressure_rejections == 1
        mgr.drain()
        assert mgr.feed(sid, [1, 2, 3, 4]) == 1  # drained -> accepted again

    def test_feed_many_is_atomic_under_backpressure(self):
        mgr = SessionManager(inbox_limit=3)
        sid = mgr.create(4, 2, seed=0)
        mgr.feed(sid, [1, 2, 3, 4])
        with pytest.raises(BackpressureError):
            mgr.feed_many(sid, [[1, 2, 3, 4]] * 3)
        assert mgr.pending(sid) == 1  # refused batch left nothing behind
        with pytest.raises(ConfigurationError, match="exceeds the inbox limit"):
            mgr.feed_many(sid, [[1, 2, 3, 4]] * 4)

    def test_feed_validation(self):
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=0)
        with pytest.raises(ConfigurationError, match="shape"):
            mgr.feed(sid, [1, 2, 3])
        with pytest.raises(ConfigurationError, match="integer"):
            mgr.feed(sid, [1.0, 2.0, 3.0, 4.0])

    def test_feed_many_validation(self):
        """A malformed batch is refused whole and leaves the inbox as it
        was; ``[]`` is a no-op."""
        mgr = SessionManager()
        sid = mgr.create(4, 2, seed=0)
        mgr.feed_many(sid, [[4, 3, 2, 1], [4, 3, 2, 9]])
        for bad in (
            [1, 2, 3, 4],
            [[1, 2, 3, 4], [1, 2, 3]],
            [[1.0, 2.0, 3.0, 4.0]],
            np.ones((2, 4)),
            [[1, 2, 3]],
            np.ones((2, 5), dtype=np.int64),
        ):
            with pytest.raises(ConfigurationError):
                mgr.feed_many(sid, bad)
            assert mgr.pending(sid) == 2
        assert mgr.feed_many(sid, []) == 2
        mgr.drain()
        assert mgr.query(sid).time == 1
        assert mgr.query(sid).topk == (0, 3)

    def test_rejects_bad_inbox_limit(self):
        with pytest.raises(ConfigurationError):
            SessionManager(inbox_limit=0)

    def test_refused_create_takes_no_id(self):
        """A create refused for its k, n or seed hands out no session id."""
        mgr = SessionManager()
        too_wide = DEFAULT_MAX_NODES + 1
        for n, k, seed in ((8, 99, None), (8, 0, None), (too_wide, 3, None), (8, 3, -1)):
            with pytest.raises(ConfigurationError):
                mgr.create(n, k, seed=seed)
        assert mgr.create(8, 3) == "s1"

    def test_automatic_id_skips_a_client_chosen_one(self):
        """An unnamed create never collides with an id a client chose."""
        mgr = SessionManager()
        assert mgr.create(4, 2, session_id="s1") == "s1"
        assert mgr.create(4, 2) == "s2"
        assert mgr.create(4, 2) == "s3"


class TestServerClient:
    def test_round_trip_matches_offline(self):
        values = _matrix("sensor_field", seed=2)
        offline = TopKMonitor(n=N, k=K, seed=31).run(values)
        with start_server() as server:
            with ServiceClient(server.address) as client:
                assert client.ping()
                session = client.create_session(n=N, k=K, seed=31)
                session.feed_rows(values[: STEPS // 2])
                for row in values[STEPS // 2 :]:
                    session.feed(row)
                query = session.query(wait=True)
                assert query["topk"] == offline.topk_history[-1].tolist()
                assert query["messages"] == offline.total_messages
                assert query["pending"] == 0
                metrics = client.metrics()
                assert metrics["rows_processed"] == STEPS
                assert metrics["sessions_live"] == 1
                final = session.close()
                assert final["closed"] and final["time"] == STEPS - 1

    @pytest.mark.parametrize("wire", ["binary", "jsonl"])
    def test_int64_edge_rows_keep_the_server_up(self, wire):
        """A value of 2^62 doubles past int64 and the extremes negate to
        themselves: the served answer equals offline, on every engine, and
        the server keeps answering."""
        values = np.array(
            [[10, 0], [10, 2**62], [-(2**63), 2**63 - 1], [2**63 - 1, -(2**63)]], dtype=np.int64
        )
        offline = [repro.run(repro.RunSpec(values, k=1, seed=5), engine=engine)
                   for engine in ("faithful", "vectorized", "fast")]
        with start_server() as server:
            with ServiceClient(server.address, wire=wire) as client:
                session = client.create_session(n=2, k=1, seed=5)
                session.feed_rows(values)
                answer = session.query(wait=True)
                assert client.ping()
        for result in offline:
            assert result.topk_history.ravel().tolist() == [0, 1, 1, 0]
            assert answer["topk"] == [0] and answer["messages"] == result.total_messages

    def test_hundred_concurrent_sessions(self):
        """The CI smoke shape: 100 live sessions, every answer correct."""
        # The linger makes the first sweep wait out the preload loop, so
        # many sessions are pending at once and the stacked path engages.
        with start_server(batch_linger=0.05) as server:
            with ServiceClient(server.address) as client:
                cases = []
                for i in range(100):
                    name = list_workloads()[i % len(list_workloads())]
                    values = get_workload(name, 8, 40, seed=i).generate()
                    handle = client.create_session(n=8, k=2, seed=100 + i)
                    cases.append((handle, values, 100 + i))
                for handle, values, _ in cases:
                    handle.feed_rows(values)
                for handle, values, seed in cases:
                    offline = TopKMonitor(n=8, k=2, seed=seed).run(values)
                    query = handle.query(wait=True)
                    assert query["topk"] == offline.topk_history[-1].tolist()
                    assert query["messages"] == offline.total_messages
                metrics = client.metrics()
                assert metrics["sessions_live"] == 100
                assert metrics["rows_processed"] == 100 * 40
                # Bulk-preloaded inboxes are deep, so the lookahead lane
                # (not the one-row-per-sweep batch) does the heavy lifting.
                assert metrics["rows_lookahead"] > 0

    def test_wire_backpressure(self):
        with start_server(inbox_limit=2) as server:
            with ServiceClient(server.address) as client:
                session = client.create_session(n=4, k=2, seed=0)
                with pytest.raises((BackpressureError, ServiceError)):
                    # Non-blocking feeds eventually outrun the stepper; an
                    # oversized batch is refused outright.
                    session.feed_rows([[1, 2, 3, 4]] * 5, block=False)
                # Blocking feeds ride out backpressure and finish.
                for _ in range(10):
                    session.feed([4, 3, 2, 1], block=True)
                assert session.query(wait=True)["time"] == 9

    def test_error_codes(self):
        with start_server() as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(ServiceError, match="unknown session"):
                    client.session("ghost").query()
                with pytest.raises(ServiceError, match="unknown op"):
                    client.request("frobnicate")
                with pytest.raises(ServiceError, match="shape"):
                    client.create_session(n=4, k=2).feed([1, 2, 3], block=False)
                reply = client.request("ping", id="corr-7")
                assert reply["id"] == "corr-7"

    def test_malformed_requests_keep_connection_usable(self):
        """Missing/ragged/mistyped fields answer bad_request, never kill
        the connection (the documented wire contract)."""
        with start_server() as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(ServiceError, match="missing field"):
                    client.request("create", k=2)  # no n
                with pytest.raises(ServiceError, match="bad request"):
                    client.request("create", n="many", k=2)
                with pytest.raises(ServiceError, match="bad request"):
                    client.request("create", n=float("inf"), k=2)  # JSON Infinity
                with pytest.raises(ServiceError, match="node cap"):
                    client.request("create", n=10**18, k=2)  # O(n) alloc refused
                session = client.create_session(n=4, k=2, seed=0)
                with pytest.raises(ServiceError):
                    client.request("feed", session=session.id, row=[[1, 2], [3]])
                session.feed([4, 3, 2, 1])  # same connection still works
                assert session.topk(wait=True) == [0, 1]

    def test_backpressure_reply_carries_limit(self):
        with start_server(inbox_limit=1) as server:
            with ServiceClient(server.address) as client:
                session = client.create_session(n=4, k=2, seed=0)
                caught = None
                for _ in range(50):  # outrun the stepper
                    try:
                        session.feed([1, 2, 3, 4], block=False)
                    except BackpressureError as exc:
                        caught = exc
                        break
                if caught is not None:  # timing-dependent, but when it
                    assert caught.limit == 1  # fires the limit is real

    def test_sessions_survive_client_reconnect(self):
        with start_server() as server:
            client = ServiceClient(server.address)
            session = client.create_session(n=4, k=2, seed=1)
            session.feed([4, 1, 3, 2])
            sid = session.id
            client.close()
            with ServiceClient(server.address) as fresh:
                assert fresh.session(sid).topk(wait=True) == [0, 2]

    def test_server_checkpoint_restart_resumes_sessions(self, tmp_path):
        """Kill a checkpointing server; a new one on the same dir serves
        the same sessions, and finishing the stream matches offline."""
        values = _matrix("sensor_field", seed=4)
        cut = STEPS // 2
        with start_server(checkpoint_dir=tmp_path) as server:
            with ServiceClient(server.address) as client:
                session = client.create_session(n=N, k=K, seed=41)
                sid = session.id
                session.feed_rows(values[:cut])
                session.query(wait=True)
                info = client.checkpoint()  # explicit durability barrier
                assert info["sessions"] == 1
        # `with` closed the server; the fleet lives on in tmp_path.
        with start_server(checkpoint_dir=tmp_path) as server:
            with ServiceClient(server.address) as client:
                assert client.session_ids() == [sid]
                session = client.session(sid)
                assert session.query()["time"] == cut - 1
                session.feed_rows(values[cut:])
                state = session.query(wait=True)
        offline = TopKMonitor(n=N, k=K, seed=41).run(values)
        assert state["topk"] == offline.topk_history[-1].tolist()
        assert state["messages"] == offline.total_messages

    def test_checkpoint_op_requires_configured_dir(self):
        with start_server() as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(ServiceError, match="checkpoint"):
                    client.checkpoint()
                assert client.session_ids() == []

    def test_repro_serve_connect_api(self):
        with repro.serve() as server:
            with repro.connect(server.address) as client:
                session = client.create_session(n=4, k=2, seed=3)
                session.feed([40, 10, 30, 20])
                assert session.topk(wait=True) == [0, 2]


class TestServiceCli:
    def _spawn(self, *extra: str) -> tuple[subprocess.Popen, str]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--serve", "127.0.0.1:0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        line = proc.stdout.readline().strip()
        assert line.startswith("listening on "), line
        return proc, line.removeprefix("listening on ")

    @staticmethod
    def _stop(proc: subprocess.Popen) -> None:
        """Kill the server if it still runs, then reap it and close its pipes."""
        if proc.poll() is None:
            proc.kill()
        proc.communicate(timeout=10)

    def test_serve_shutdown_roundtrip(self):
        proc, address = self._spawn()
        try:
            with ServiceClient(address) as client:
                session = client.create_session(n=4, k=2, seed=1)
                session.feed([9, 1, 5, 3])
                assert session.topk(wait=True) == [0, 2]
                client.shutdown()
            assert proc.wait(timeout=10) == 0  # clean exit after shutdown op
        finally:
            self._stop(proc)

    def test_kill_and_restart(self):
        """A killed server loses its sessions; clients reconnect and redrive."""
        proc, address = self._spawn()
        try:
            with ServiceClient(address) as client:
                client.create_session(n=4, k=2, seed=1).feed([9, 1, 5, 3])
            proc.kill()
            proc.wait(timeout=10)
            with pytest.raises(ServiceError):
                ServiceClient(address, timeout=2).ping()
        finally:
            self._stop(proc)
        # Fresh server: re-create and re-drive from scratch.
        proc, address = self._spawn()
        try:
            with ServiceClient(address) as client:
                session = client.create_session(n=4, k=2, seed=1)
                session.feed([9, 1, 5, 3])
                assert session.topk(wait=True) == [0, 2]
                client.shutdown()
            assert proc.wait(timeout=10) == 0
        finally:
            self._stop(proc)

    def test_kill_dash_nine_with_checkpoint_dir_resumes(self, tmp_path):
        """SIGKILL (no shutdown hook runs) after an explicit checkpoint:
        the restarted CLI server restores the fleet bit-identically."""
        values = _matrix("random_walk", seed=12)
        cut = STEPS // 2
        proc, address = self._spawn("--checkpoint-dir", str(tmp_path))
        try:
            with ServiceClient(address) as client:
                session = client.create_session(n=N, k=K, seed=77)
                sid = session.id
                session.feed_rows(values[:cut])
                session.query(wait=True)
                client.checkpoint()
            proc.kill()
            proc.wait(timeout=10)
        finally:
            self._stop(proc)

        proc, address = self._spawn("--checkpoint-dir", str(tmp_path))
        try:
            restored_line = proc.stdout.readline().strip()
            assert restored_line == f"restored 1 sessions from {tmp_path}"
            with ServiceClient(address) as client:
                session = client.session(sid)
                session.feed_rows(values[cut:])
                state = session.query(wait=True)
                client.shutdown()
            assert proc.wait(timeout=10) == 0
        finally:
            self._stop(proc)
        offline = TopKMonitor(n=N, k=K, seed=77).run(values)
        assert state["topk"] == offline.topk_history[-1].tolist()
        assert state["messages"] == offline.total_messages

    def test_kill_dash_nine_loses_no_acked_row(self, tmp_path):
        """SIGKILL with no checkpoint op after four acked feeds: the
        restarted server replays its feed log and holds every acked row."""
        values = get_workload("random_walk", N, 2400, seed=12).generate()
        proc, address = self._spawn("--checkpoint-dir", str(tmp_path))
        try:
            with ServiceClient(address) as client:
                session = client.create_session(n=N, k=K, seed=78)
                sid = session.id
                for start in range(0, 2000, 500):
                    session.feed_rows(values[start:start + 500])
        finally:
            proc.kill()  # no checkpoint op, no shutdown hook
            proc.communicate(timeout=10)

        proc, address = self._spawn("--checkpoint-dir", str(tmp_path))
        try:
            with ServiceClient(address) as client:
                session = client.session(sid)
                state = session.query()
                assert state["time"] + 1 + state["pending"] == 2000
                session.feed_rows(values[2000:])
                state = session.query(wait=True)
                client.shutdown()
            assert proc.wait(timeout=10) == 0
        finally:
            self._stop(proc)
        offline = repro.run(repro.RunSpec(values, k=K, seed=78, engine="vectorized"))
        assert state["time"] == len(values) - 1
        assert state["topk"] == offline.topk_history[-1].tolist()
        assert state["messages"] == offline.total_messages

    def test_fleet_restart_restores_sessions(self, tmp_path):
        """A --workers fleet shut down over the wire restarts on the same
        --checkpoint-dir with its sessions and finishes the stream
        bit-identically."""
        values = _matrix("random_walk", seed=14)
        argv = ("--workers", "2", "--checkpoint-dir", str(tmp_path))

        def stop(proc):
            if proc.poll() is None:
                # SIGINT, not SIGKILL: the router's cleanup kills its workers.
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
            proc.communicate(timeout=10)

        proc, address = self._spawn(*argv)
        try:
            assert proc.stdout.readline().strip() == "fleet: 2 workers + standby"
            with ServiceClient(address) as client:
                session = client.create_session(n=N, k=K, seed=79)
                sid = session.id
                session.feed_rows(values[:40])
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            stop(proc)

        proc, address = self._spawn(*argv)
        try:
            assert proc.stdout.readline().strip() == "fleet: 2 workers + standby"
            assert proc.stdout.readline().strip() == f"restored 1 sessions from {tmp_path}"
            with ServiceClient(address) as client:
                session = client.session(sid)
                session.feed_rows(values[40:])
                state = session.query(wait=True)
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            stop(proc)
        offline = repro.run(repro.RunSpec(values, k=K, seed=79, engine="vectorized"))
        assert state["time"] == len(values) - 1
        assert state["topk"] == offline.topk_history[-1].tolist()
        assert state["messages"] == offline.total_messages

    def test_metrics_mode(self):
        proc, address = self._spawn()
        try:
            out = subprocess.run(
                [sys.executable, "-m", "repro.service", "--metrics", address],
                capture_output=True, text=True, timeout=30,
            )
            assert out.returncode == 0
            assert '"sessions_live": 0' in out.stdout
            subprocess.run(
                [sys.executable, "-m", "repro.service", "--shutdown", address],
                capture_output=True, text=True, timeout=30, check=True,
            )
            assert proc.wait(timeout=10) == 0
        finally:
            self._stop(proc)


class TestWireCodec:
    """Unit coverage for repro/service/wire.py: packed frames round-trip
    and every decode failure is a typed, contained error."""

    def test_feed_frame_round_trip(self):
        from repro.service import wire

        rows = np.arange(12, dtype=np.int64).reshape(3, 4)
        frame = wire.encode_feed("alpha", rows, replay=True, trace="tr-1")
        kind, payload = wire.read_frame_blocking(_BytesStream(frame))
        assert kind == wire.KIND_FEED
        batches, replay, trace = wire.decode_feed(payload)
        assert replay is True and trace == "tr-1"
        assert [sid for sid, _ in batches] == ["alpha"]
        np.testing.assert_array_equal(batches[0][1], rows)

    def test_ack_frame_round_trip(self):
        from repro.service import wire

        frame = wire.encode_ack([(3, 41)])
        kind, payload = wire.read_frame_blocking(_BytesStream(frame))
        reply = wire.decode_reply(kind, payload)
        assert reply == {"ok": True, "pending": 3, "time": 41}

    def test_json_frame_round_trip(self):
        from repro.service import wire

        obj = {"op": "query", "session": "s0", "wait": True}
        frame = wire.encode_json(obj)
        kind, payload = wire.read_frame_blocking(_BytesStream(frame))
        assert kind == wire.KIND_JSON
        import json as _json

        assert _json.loads(payload) == obj

    def test_inexpressible_feed_falls_back_to_json(self):
        """Floats, ragged rows, empty rows, unknown fields: encode_request
        must fall back to KIND_JSON so server-side validation answers
        identically."""
        from repro.service import wire

        for payload in (
            {"op": "feed", "session": "s", "rows": [[1.5, 2.0]]},
            {"op": "feed", "session": "s", "rows": [[1, 2], [3]]},
            {"op": "feed", "session": "s", "rows": []},
            {"op": "feed", "session": "s", "rows": [[1, 2]], "extra": 1},
            {"op": "feed", "session": "s" * 70000, "rows": [[1, 2]]},
        ):
            frame = wire.encode_request(payload)
            kind = frame[1]
            assert kind == wire.KIND_JSON, payload

        packed = wire.encode_request({"op": "feed", "session": "s", "rows": [[1, 2]]})
        assert packed[1] == wire.KIND_FEED

    def test_decode_rejects_garbage(self):
        from repro.service import wire

        with pytest.raises(wire.FramePayloadError):
            wire.decode_feed(b"\x00")
        two_acks = wire.encode_ack([(0, 1), (2, 3)])
        with pytest.raises(wire.FramePayloadError):
            wire.decode_reply(wire.KIND_ACK, two_acks[wire.HEADER_SIZE:])
        with pytest.raises(wire.FrameError):
            wire.read_frame_blocking(_BytesStream(b"\xff" * 16))
        with pytest.raises(wire.FrameEOF):
            wire.read_frame_blocking(_BytesStream(b""))


class _BytesStream:
    """Minimal blocking .read(n) adapter over an in-memory frame."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, n: int) -> bytes:
        chunk = self._data[self._pos : self._pos + n]
        self._pos += len(chunk)
        return chunk


class TestBinaryWireDifferential:
    """Acceptance: every catalog workload over the binary wire is
    bit-identical to JSONL and to the offline monitor."""

    def test_catalog_binary_equals_jsonl_equals_offline(self):
        with start_server() as server:
            with ServiceClient(server.address, wire="binary") as bin_client, \
                 ServiceClient(server.address) as json_client:
                assert bin_client.negotiated_wire == "binary"
                assert json_client.negotiated_wire == "jsonl"
                for i, name in enumerate(list_workloads()):
                    values = _matrix(name, seed=50 + i)
                    offline = TopKMonitor(n=N, k=K, seed=900 + i).run(values)
                    answers = []
                    for client in (bin_client, json_client):
                        session = client.create_session(n=N, k=K, seed=900 + i)
                        session.feed_rows(values[: STEPS // 2])
                        for row in values[STEPS // 2 :]:
                            session.feed(row)
                        state = session.query(wait=True)
                        answers.append(
                            (state["topk"], state["messages"], state["time"])
                        )
                        session.close()
                    expected = (
                        offline.topk_history[-1].tolist(),
                        offline.total_messages,
                        STEPS - 1,
                    )
                    assert answers[0] == answers[1] == expected, name

    def test_wire_metrics_surface_in_snapshot(self):
        values = _matrix("bursty", seed=9)
        with start_server() as server:
            with ServiceClient(server.address, wire="binary") as client:
                session = client.create_session(n=N, k=K, seed=4)
                session.feed_rows(values)
                session.query(wait=True)
                metrics = client.metrics()
        assert metrics["wire_rows_per_sec"] > 0
        assert metrics["wire_encode_p99_us"] > 0

    def test_backpressure_envelope_identical_across_framings(self):
        codes = []
        for mode in ("jsonl", "binary"):
            with start_server(inbox_limit=4, batch_linger=5.0) as server:
                with ServiceClient(server.address, wire=mode) as client:
                    session = client.create_session(n=N, k=K, seed=1)
                    with pytest.raises(BackpressureError) as excinfo:
                        for t in range(50):
                            session.feed(
                                np.arange(N) + t, block=False
                            )
                    codes.append(str(excinfo.value))
        assert codes[0] == codes[1]

    def test_validation_errors_identical_across_framings(self):
        """Inexpressible feeds ride KIND_JSON, so the server's validator
        answers the same envelope either way."""
        errors = []
        for mode in ("jsonl", "binary"):
            with start_server() as server:
                with ServiceClient(server.address, wire=mode) as client:
                    session = client.create_session(n=N, k=K, seed=2)
                    with pytest.raises(ServiceError) as excinfo:
                        client.request(
                            "feed", session=session.id, rows=[[1.5] * N]
                        )
                    errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
