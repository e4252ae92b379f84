"""Checkpoint / restore for live Algorithm-1 sessions.

A coordinator process monitoring real streams must survive restarts without
re-contacting every node (which would cost n messages — exactly what the
algorithm exists to avoid).  A session's entire algorithmic state is tiny:
the :class:`~repro.engine.kernel.FilterState` (side partition, doubled
bound, running extremes — captured by its ``snapshot()``/``from_snapshot``
pair), the step counter, and the protocol RNG state.  This module
serializes it to a plain dict (JSON-compatible) and restores a session that
behaves **bit-identically** to one that never stopped — including future
coin flips, hence future message counts.

:func:`save_session` / :func:`restore_session` are the codec for the
faithful :class:`~repro.core.monitor.OnlineSession`.  The coin-flip stream
goes through the PCG64 state codec in :mod:`repro.util.seeding`
(:func:`~repro.util.seeding.encode_rng_state` /
:func:`~repro.util.seeding.decode_rng_state`, still importable from here),
which the counting kernel's own codec,
:meth:`~repro.engine.vectorized.IncrementalKernel.snapshot` /
``from_snapshot``, shares, so RNG persistence cannot drift between
engines.  The streaming service checkpoints its sessions with the kernel's
codec (``SessionManager.checkpoint(dir)`` / ``SessionManager(restore=dir)``)
and never loads this module.

Message ledgers and event logs are *instrumentation*, not algorithmic
state; they restart empty by design (a restarted coordinator begins new
books).  Tests assert trajectory and post-restore message equality.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import MonitorConfig
from repro.core.monitor import OnlineSession
from repro.engine.kernel import FilterState
from repro.errors import ConfigurationError
from repro.util.seeding import decode_rng_state, encode_rng_state

__all__ = [
    "save_session",
    "restore_session",
    "encode_rng_state",
    "decode_rng_state",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 2


def save_session(session: OnlineSession) -> dict[str, Any]:
    """Capture a session's algorithmic state as a plain dict."""
    return {
        "schema": SCHEMA_VERSION,
        "n": session.n,
        "k": session.k,
        "t": session._t,
        "initialized": session._initialized,
        "filter": session._filter.snapshot(),
        "resets": session.resets,
        "handler_calls": session.handler_calls,
        "rng_state": encode_rng_state(session._rng),
        "config": {
            "audit": session.config.audit,
            "skip_redundant_min": session.config.skip_redundant_min,
            "always_reset": session.config.always_reset,
        },
    }


def restore_session(state: dict[str, Any], *, config: MonitorConfig | None = None) -> OnlineSession:
    """Reconstruct a session from :func:`save_session` output.

    ``config`` may override instrumentation switches (tracking, recording);
    the algorithmic switches stored in the checkpoint win over the override
    to prevent accidentally resuming with different semantics.
    """
    if state.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported session checkpoint schema {state.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    base = config or MonitorConfig()
    cfg = MonitorConfig(
        audit=state["config"]["audit"],
        skip_redundant_min=state["config"]["skip_redundant_min"],
        always_reset=state["config"]["always_reset"],
        protocol=base.protocol,
        track_series=base.track_series,
        record_messages=base.record_messages,
        collect_events=base.collect_events,
    )
    session = OnlineSession(state["n"], state["k"], seed=0, config=cfg)
    session._t = int(state["t"])
    session._initialized = bool(state["initialized"])
    session._filter = FilterState.from_snapshot(state["filter"])
    session.resets = int(state["resets"])
    session.handler_calls = int(state["handler_calls"])
    session._rng = decode_rng_state(state["rng_state"], session._rng)
    return session

