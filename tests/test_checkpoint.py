"""Tests for session checkpoint / restore (bit-identical resumption).

Covers both session codecs — the faithful :class:`OnlineSession` (via
``save_session``/``restore_session``) and the counting
:class:`IncrementalKernel` (via ``snapshot``/``from_snapshot``, the form
the streaming service checkpoints).
"""

import json

import numpy as np
import pytest

from repro.core.checkpoint import restore_session, save_session
from repro.core.monitor import MonitorConfig, OnlineSession
from repro.engine.vectorized import IncrementalKernel
from repro.errors import ConfigurationError
from repro.streams import random_walk


def _drive(session: OnlineSession, values: np.ndarray, start: int, end: int):
    trajectory = []
    for t in range(start, end):
        trajectory.append(tuple(int(i) for i in session.observe(values[t])))
    return trajectory


class TestCheckpointRoundtrip:
    @pytest.fixture
    def values(self):
        return random_walk(10, 400, seed=1, step_size=5, spread=25).generate()

    def test_resume_matches_uninterrupted_run(self, values):
        # Uninterrupted reference.
        ref = OnlineSession(10, 3, seed=7)
        ref_traj = _drive(ref, values, 0, 400)
        ref.finish()

        # Interrupted at t=200: checkpoint, "crash", restore, resume.
        first = OnlineSession(10, 3, seed=7)
        traj_a = _drive(first, values, 0, 200)
        msgs_first = first.ledger.total
        state = save_session(first)
        resumed = restore_session(state)
        traj_b = _drive(resumed, values, 200, 400)
        resumed.finish()

        assert traj_a + traj_b == ref_traj
        # RNG state restored => identical coin flips => identical costs.
        assert msgs_first + resumed.ledger.total == ref.ledger.total

    def test_checkpoint_is_json_serializable(self, values):
        session = OnlineSession(10, 3, seed=3)
        _drive(session, values, 0, 50)
        state = save_session(session)
        restored = restore_session(json.loads(json.dumps(state)))
        a = _drive(restored, values, 50, 120)
        # compare against a second resume from the same state
        restored2 = restore_session(json.loads(json.dumps(state)))
        b = _drive(restored2, values, 50, 120)
        assert a == b

    def test_counters_carried_over(self, values):
        session = OnlineSession(10, 3, seed=5)
        _drive(session, values, 0, 150)
        state = save_session(session)
        resumed = restore_session(state)
        assert resumed.resets == session.resets
        assert resumed.handler_calls == session.handler_calls
        assert resumed.time == session.time
        assert set(resumed.topk.tolist()) == set(session.topk.tolist())

    def test_algorithmic_config_preserved(self, values):
        cfg = MonitorConfig(skip_redundant_min=True)
        session = OnlineSession(10, 3, seed=5, config=cfg)
        _drive(session, values, 0, 50)
        resumed = restore_session(save_session(session))
        assert resumed.config.skip_redundant_min is True

    def test_instrumentation_override_allowed(self, values):
        session = OnlineSession(10, 3, seed=5)
        _drive(session, values, 0, 50)
        resumed = restore_session(
            save_session(session), config=MonitorConfig(track_series=True)
        )
        assert resumed.ledger.track_series is True

    def test_pre_init_checkpoint(self):
        session = OnlineSession(6, 2, seed=1)
        state = save_session(session)
        resumed = restore_session(state)
        values = random_walk(6, 20, seed=2).generate()
        traj = _drive(resumed, values, 0, 20)
        ref = OnlineSession(6, 2, seed=1)
        assert traj == _drive(ref, values, 0, 20)

    def test_schema_rejection(self):
        session = OnlineSession(4, 2, seed=0)
        state = save_session(session)
        state["schema"] = 99
        with pytest.raises(ConfigurationError):
            restore_session(state)

    def test_rng_guard(self):
        session = OnlineSession(4, 2, seed=0)
        state = save_session(session)
        state["rng_state"]["bit_generator"] = "MT19937"
        with pytest.raises(ConfigurationError):
            restore_session(state)


class TestKernelCheckpoint:
    """The vectorized engine's codec: counters and coin flips carry over."""

    @pytest.fixture
    def values(self):
        return random_walk(10, 400, seed=4, step_size=5, spread=25).generate()

    def test_resume_matches_uninterrupted_run(self, values):
        ref = IncrementalKernel(10, 3, seed=9)
        ref_hist = np.stack([ref.step(row) for row in values])

        first = IncrementalKernel(10, 3, seed=9)
        hist_a = np.stack([first.step(row) for row in values[:200]])
        state = json.loads(json.dumps(first.snapshot()))  # wire-safe
        resumed = IncrementalKernel.from_snapshot(state)
        hist_b = np.stack([resumed.step(row) for row in values[200:]])

        assert np.array_equal(np.concatenate([hist_a, hist_b]), ref_hist)
        # Counters carry inside the snapshot (unlike the faithful ledger):
        # the resumed kernel reports the same running totals as the
        # uninterrupted one, coin flips included.
        assert resumed.counts == ref.counts
        assert resumed.resets == ref.resets
        assert resumed.time == ref.time

    def test_lookahead_after_restore_is_exact(self, values):
        """observe_many on a restored kernel (the service's deep-inbox
        drain after a server restart) matches per-row stepping."""
        first = IncrementalKernel(10, 3, seed=2)
        first.observe_many(values[:150])
        resumed = IncrementalKernel.from_snapshot(first.snapshot())
        hist = resumed.observe_many(values[150:])
        ref = IncrementalKernel(10, 3, seed=2)
        ref_hist = np.stack([ref.step(row) for row in values])
        assert np.array_equal(hist, ref_hist[150:])
        assert resumed.counts == ref.counts

    def test_config_round_trips(self, values):
        """A 7.x snapshot carries the default ``config`` block: it restores
        and continues bit-identically, and a fresh snapshot has none."""
        kernel = IncrementalKernel(10, 3, seed=1)
        kernel.observe_many(values[:150])
        state = kernel.snapshot()
        assert "config" not in state
        state["config"] = {"skip_redundant_min": False, "charge_start_broadcast": True}
        resumed = IncrementalKernel.from_snapshot(json.loads(json.dumps(state)))
        assert np.array_equal(resumed.observe_many(values[150:]), kernel.observe_many(values[150:]))
        assert resumed.counts == kernel.counts

    @pytest.mark.parametrize(
        "config",
        [
            {"skip_redundant_min": True, "charge_start_broadcast": True},
            {"skip_redundant_min": False, "charge_start_broadcast": False},
        ],
    )
    def test_ablation_config_is_refused(self, values, config):
        kernel = IncrementalKernel(10, 3, seed=1)
        kernel.observe_many(values[:50])
        state = {**kernel.snapshot(), "config": config}
        with pytest.raises(ConfigurationError, match="faithful"):
            IncrementalKernel.from_snapshot(state)

    def test_trivial_kernel_round_trips(self):
        kernel = IncrementalKernel(3, 3, seed=0)
        kernel.step([5, 1, 9])
        resumed = IncrementalKernel.from_snapshot(kernel.snapshot())
        assert resumed.step([2, 8, 4]).tolist() == [0, 1, 2]
        assert resumed.time == 1

    def test_schema_rejection(self):
        kernel = IncrementalKernel(4, 2, seed=0)
        state = kernel.snapshot()
        state["schema"] = 99
        with pytest.raises(ConfigurationError):
            IncrementalKernel.from_snapshot(state)
