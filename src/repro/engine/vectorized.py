"""The counting engines: Algorithm 1 in flat NumPy (no transports).

Independent from :mod:`repro.core.monitor` by design: the protocol round
loop, violation detection, handler and reset logic are all re-derived here
from the paper, in flat NumPy, with plain integer counters instead of
transports.  Differential testing between the two implementations (see
:mod:`repro.engine.compare`) is the strongest correctness check in this
reproduction — any semantic drift in either breaks exact equality of
trajectories *and* message counts.

Both counting engines are one :class:`IncrementalKernel`:

* ``vectorized`` runs the kernel's per-row ``_step`` over the matrix;
* ``fast`` is one :meth:`IncrementalKernel.observe_many` call over the
  whole matrix.  Between communication events the filters are static, so
  :meth:`~repro.engine.kernel.FilterState.scan_quiet` finds the next
  violating row in geometrically growing chunks, each tested whole by one
  reduction per side, the quiet rows before it are filled by slice
  assignment, and the violation handler runs only at the rows it finds —
  the paper's point that filter-based monitoring makes almost every step
  quiet.

The filter state itself — partition, doubled bound, quietness decision —
lives one layer down in :mod:`repro.engine.kernel` (:class:`FilterState`),
which this module shares with the faithful monitor and the streaming
service: the ``2·v`` vs ``M2`` comparison is implemented exactly once,
there.

Randomness convention (shared with the faithful and distributed engines,
see :func:`repro.engine.kernel.first_send_table`): every protocol
execution draws ``rng.random(size=#participants)`` once, at its start, over
the participants in ascending node-id order; each uniform fixes the round
of that participant's first coin success.  A reset's ``k+1`` sweeps draw
in sweep order, so one call over all of them is the same stream.  Quiet
steps consume no randomness, so both engines are bit-identical to each
other and to the faithful engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.kernel import PHASES as _PHASES
from repro.engine.kernel import (
    FilterState,
    protocol_run as _protocol_run,
    reset_sweeps as _reset_sweeps,
)
from repro.engine.registry import CAP_COUNTING, CAP_TRAJECTORY, register_engine
from repro.engine.results import RunResult
from repro.errors import ConfigurationError
from repro.obs.registry import OBS, counter as _obs_counter
from repro.util.seeding import decode_rng_state, derive_rng, encode_rng_state
from repro.util.validation import check_k, check_matrix

__all__ = ["VectorizedResult", "IncrementalKernel"]

#: Schema tag for :meth:`IncrementalKernel.snapshot` payloads.
KERNEL_SCHEMA_VERSION = 1

# The protocol settings a 7.x snapshot recorded: the kernel runs only these.
_SNAPSHOT_CONFIG = {"skip_redundant_min": False, "charge_start_broadcast": True}

# Registry families (repro/obs): the fast engine's segment-skip hit rate is
# skipped/(skipped+violation) over these two series; published once per
# run, so the lookahead itself carries no instrumentation cost.
_OBS_SEG_ROWS = _obs_counter(
    "repro_engine_segment_rows_total",
    "rows classified by the fast engine's segment scanner",
    ("outcome",),
)
_OBS_VIOLATIONS = _obs_counter(
    "repro_engine_violations_total", "violation events handled by the fast engine"
)


@dataclass
class VectorizedResult:
    """Counters and trajectory of one counting-engine run."""

    n: int
    k: int
    steps: int
    topk_history: np.ndarray
    by_phase: dict[str, int] = field(default_factory=dict)
    resets: int = 0
    handler_calls: int = 0
    reset_times: list[int] = field(default_factory=list)
    handler_times: list[int] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        """Sum over all phases."""
        return sum(self.by_phase.values())


class IncrementalKernel:
    """The counting engines in stateful, row-at-a-time form.

    One kernel is one Algorithm-1 coordinator: :meth:`step` consumes the
    next observation row and returns the current top-k ids, exactly like
    :meth:`repro.core.monitor.OnlineSession.observe` but with the counting
    engines' flat-NumPy internals.  The kernel *is* both counting engines:
    ``vectorized`` is a plain per-row loop over it and ``fast`` one
    :meth:`observe_many` call over the whole matrix, so the differential
    tests that hold those entry points bit-identical to the faithful engine
    cover the incremental path by construction.  Both paths run the one
    violation handler, :meth:`_violation`.

    The kernel is also the unit the streaming service batches and
    checkpoints: it exposes its :class:`~repro.engine.kernel.FilterState`
    as :attr:`filter` (so a caller can decide quietness for many sessions
    in one stacked comparison and apply it via :meth:`quiet_step`), drains
    proven-quiet *blocks* via :meth:`observe_many` (one
    :meth:`~repro.engine.kernel.FilterState.scan_quiet` lookahead instead
    of row-at-a-time sweeps), and round-trips its full state through
    :meth:`snapshot` / :meth:`from_snapshot`.  Quiet steps consume no
    randomness, so batched or lookahead stepping stays bit-identical to a
    per-row loop.

    The kernel runs the paper's protocol as listed: every
    coordinator-initiated run pays its start broadcast, and a handler
    whose BOTTOM side violated re-runs the minimum over the whole TOP
    side.  The ablations A1–A3 run on the faithful engine.
    """

    def __init__(self, n: int, k: int, *, seed=None, track_times: bool = True):
        self.k, self.n = check_k(k, n)
        # ``track_times=False`` keeps indefinitely-lived streaming sessions
        # O(1) in memory: the reset/handler *time lists* (one entry per
        # violation step) stay empty while the counters keep counting.
        self._track_times = track_times
        self._rng = derive_rng(seed, 0)
        self.counts = {p: 0 for p in _PHASES}
        self.resets = 0
        self.handler_calls = 0
        # Diagnostics, deliberately not in the checkpoint codec: restored
        # kernels always run track_times=False (streaming sessions), so the
        # violation-time lists would be empty either way.
        self.reset_times: list[int] = []  # reprolint: disable=R5
        self.handler_times: list[int] = []  # reprolint: disable=R5
        # Derived from n / k — rebuilt by __init__ on restore.
        self.trivial = self.k == self.n  # reprolint: disable=R5
        #: The shared filter state (partition + doubled bound + extremes);
        #: read by batch schedulers and the lookahead scan.
        self.filter = FilterState.blank(self.n, all_top=self.trivial)
        self._t = -1

    # ------------------------------------------------------------------ API

    @property
    def time(self) -> int:
        """Index of the last observed step (-1 before the first)."""
        return self._t

    @property
    def topk(self) -> np.ndarray:
        """Current top-k node ids (ascending id order)."""
        return self.filter.top_ids

    @property
    def initialized(self) -> bool:
        """Whether the t=0 initialization reset has run."""
        return self._t >= 0

    @property
    def message_count(self) -> int:
        """Total unit-cost messages over all phases so far."""
        return sum(self.counts.values())

    def step(self, row) -> np.ndarray:
        """Process one observation row; returns the (new) top-k ids.

        Validates shape and integer dtype like
        :meth:`~repro.core.monitor.OnlineSession.observe`; the first call
        plays the t=0 initialization reset.
        """
        row = np.asarray(row)
        if row.shape != (self.n,):
            raise ConfigurationError(f"row must have shape ({self.n},), got {row.shape}")
        if not np.issubdtype(row.dtype, np.integer):
            raise ConfigurationError(f"row must be integer-typed, got dtype {row.dtype}")
        return self._step(row.astype(np.int64, copy=False))

    def quiet_step(self) -> np.ndarray:
        """Advance one step the caller proved violates no filter.

        The per-step logic of :meth:`step` changes no state on a quiet row
        (and consumes no randomness), so skipping it is exact — this is the
        batched stepping path's fast lane.
        """
        self._t += 1
        return self.filter.top_ids

    def observe_many(self, rows) -> np.ndarray:
        """Process a block of rows with quiet-prefix lookahead; returns the
        ``(B, k)`` top-k history over the block.

        Between communication events the filters are static, so one
        :meth:`~repro.engine.kernel.FilterState.scan_quiet` block scan
        finds the next violating row and everything before it advances as
        quiet steps — the deep-inbox fast lane of the streaming service.
        Bit-identical to calling :meth:`step` per row (quiet steps consume
        no randomness).
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ConfigurationError(
                f"rows must be a 2-D (B, {self.n}) array, got shape {rows.shape}"
            )
        if not np.issubdtype(rows.dtype, np.integer):
            raise ConfigurationError(f"rows must be integer-typed, got dtype {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        B = rows.shape[0]
        history = np.empty((B, self.k), dtype=np.int64)
        if self.trivial:
            self._t += B
            history[:] = self.filter.top_ids
            return history
        t = 0
        if not self.initialized and B:
            history[0] = self._step(rows[0])
            t = 1
        while t < B:
            v = self.filter.scan_quiet(rows, t)
            if v > t:  # quiet prefix: the partition is frozen, fill by slice
                history[t:v] = self.filter.top_ids
            self._t += v - t
            if v == B:
                break
            self._t += 1
            self._violation(rows[v])  # the scan already proved row v violating
            history[v] = self.filter.top_ids
            t = v + 1
        return history

    # ------------------------------------------------------- Algorithm 1

    def _step(self, row: np.ndarray) -> np.ndarray:
        """Unvalidated step: ``row`` must already be int64 of shape (n,)."""
        self._t += 1
        state = self.filter
        if self.trivial:
            return state.top_ids
        if self._t == 0:
            self._filter_reset(row)
        elif state.violates(row):
            self._violation(row)
        return state.top_ids

    def _violation(self, row: np.ndarray) -> None:
        """The violation handler at step ``_t``, on a row known to violate.

        Runs the violators' protocols, completes the extremes with a
        coordinator-initiated run where one side stayed silent, then either
        resets the filters (the top-k set changed) or broadcasts the halved
        midpoint.
        """
        state = self.filter
        viol_top, viol_bot = state.violators(row)
        top_bound = max(1, self.k)
        bottom_bound = max(1, self.n - self.k)
        min_out = self._protocol(viol_top, row, top_bound, -1, "violation_min", False)
        max_out = self._protocol(viol_bot, row, bottom_bound, +1, "violation_max", False)
        self.handler_calls += 1
        if self._track_times:
            self.handler_times.append(self._t)
        if max_out is None:
            max_out = self._protocol(state.bot_ids, row, bottom_bound, +1, "handler_max", True)
        else:
            min_out = self._protocol(state.top_ids, row, top_bound, -1, "handler_min", True)
        assert min_out is not None and max_out is not None
        if state.absorb(min_out[1], max_out[1]):
            self._filter_reset(row)
            if self._track_times:
                self.handler_times.pop()  # reclassified as a reset step
        else:
            state.rebound()
            self.counts["midpoint_broadcast"] += 1

    def _protocol(self, participants, row, upper, sign, phase, initiated):
        return _protocol_run(
            participants, row, upper, sign, phase, initiated, self.counts, self._rng
        )

    def _filter_reset(self, row: np.ndarray) -> None:
        self.resets += 1
        if self._track_times:
            self.reset_times.append(self._t)
        winners, winner_vals = _reset_sweeps(row, self.k, self.counts, self._rng)
        self.counts["reset_broadcast"] += 1
        self.filter.install(winners[: self.k], winner_vals[self.k - 1], winner_vals[self.k])

    # ---------------------------------------------------------- persistence

    def snapshot(self) -> dict[str, Any]:
        """Capture the kernel's full algorithmic state as a plain dict.

        JSON-compatible; includes the RNG state, so a restored kernel's
        future coin flips (hence message counts) are bit-identical to one
        that never stopped.  Inverse of :meth:`from_snapshot`; the
        streaming service's checkpoint and migration payloads carry it.
        """
        return {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "incremental_kernel",
            "n": self.n,
            "k": self.k,
            "t": self._t,
            "filter": self.filter.snapshot(),
            "counts": dict(self.counts),
            "resets": self.resets,
            "handler_calls": self.handler_calls,
            "rng_state": encode_rng_state(self._rng),
        }

    @classmethod
    def from_snapshot(cls, state: dict[str, Any]) -> "IncrementalKernel":
        """Reconstruct a kernel captured by :meth:`snapshot`.

        Raises
        ------
        ConfigurationError
            For another schema, a ``config`` block other than the default
            a 7.x snapshot carries (an ablation the kernel does not run), or
            a filter state no kernel of this shape can hold: a partition
            over another ``n``, or a TOP side that is not ``k`` nodes (none
            before the first row, unless ``k == n``).  Such a kernel would
            answer a wrong top-k, or fail in its first block scan.
        """
        if state.get("schema") != KERNEL_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported kernel checkpoint schema {state.get('schema')!r} "
                f"(expected {KERNEL_SCHEMA_VERSION})"
            )
        if state.get("config", _SNAPSHOT_CONFIG) != _SNAPSHOT_CONFIG:
            raise ConfigurationError(
                f"kernel snapshot runs protocol config {state['config']!r}; the counting "
                f"kernel runs only {_SNAPSHOT_CONFIG!r} (ablations run on engine='faithful')"
            )
        # Restored kernels serve streaming sessions.
        kernel = cls(int(state["n"]), int(state["k"]), seed=0, track_times=False)
        kernel._t = int(state["t"])
        kernel.filter = FilterState.from_snapshot(state["filter"])
        if kernel.filter.n != kernel.n:
            raise ConfigurationError(
                f"kernel snapshot holds a filter over {kernel.filter.n} nodes, not n={kernel.n}"
            )
        top = kernel.filter.top_ids.size
        expected = kernel.k if kernel.initialized or kernel.trivial else 0
        if top != expected:
            raise ConfigurationError(
                f"kernel snapshot has {top} TOP nodes where k={kernel.k}, t={kernel._t} "
                f"needs {expected}"
            )
        kernel.counts = {p: int(state["counts"].get(p, 0)) for p in _PHASES}
        kernel.resets = int(state["resets"])
        kernel.handler_calls = int(state["handler_calls"])
        # Into the generator the constructor built: no second one to discard.
        kernel._rng = decode_rng_state(state["rng_state"], kernel._rng)
        return kernel


def _counting_result(kernel: IncrementalKernel, history: np.ndarray) -> VectorizedResult:
    """A finished run's trajectory with the kernel's counters."""
    return VectorizedResult(
        n=kernel.n,
        k=kernel.k,
        steps=history.shape[0],
        topk_history=history,
        by_phase=kernel.counts,
        resets=kernel.resets,
        handler_calls=kernel.handler_calls,
        reset_times=kernel.reset_times,
        handler_times=kernel.handler_times,
    )


def _run_vectorized(values: np.ndarray, k: int, *, seed=None) -> VectorizedResult:
    """Run Algorithm 1 over a ``(T, n)`` matrix, one kernel step per row."""
    values = check_matrix(values)
    T, n = values.shape
    kernel = IncrementalKernel(n, k, seed=seed)
    history = np.empty((T, kernel.k), dtype=np.int64)
    for t in range(T):
        history[t] = kernel._step(values[t])
    return _counting_result(kernel, history)


def check_counting_config(config, engine: str) -> None:
    """Reject :class:`~repro.core.monitor.MonitorConfig` requests a counting
    engine cannot honour.  ``collect_events``/``track_series`` defaults pass
    silently (absent capabilities, not errors); explicit instrumentation or
    ablation requests (A1 ``always_reset``, A2 ``skip_redundant_min``,
    an uncharged start broadcast) fail loudly and point at the faithful
    engine, and A3's every-round broadcast is not implemented here."""
    flags = ("audit", "always_reset", "skip_redundant_min", "record_messages", "track_series")
    refused = [f"{flag}=True" for flag in flags if getattr(config, flag)]
    if not config.protocol.charge_start_broadcast:
        refused.append("charge_start_broadcast=False")
    if refused:
        raise ConfigurationError(
            f"the {engine!r} engine does not support {refused[0]}; "
            f"use engine='faithful' for instrumented or ablation runs"
        )
    if config.protocol.broadcast_every_round:
        raise NotImplementedError(
            "the counting engines implement the default broadcast-on-improvement "
            "policy only; use the faithful engine for ablation A3"
        )


def _engine_runner(values: np.ndarray, k: int, *, seed, config) -> RunResult:
    check_counting_config(config, "vectorized")
    result = _run_vectorized(values, k, seed=seed)
    return RunResult.from_counting(result, engine="vectorized")


def _fast_runner(values: np.ndarray, k: int, *, seed, config) -> RunResult:
    """The ``fast`` engine: one :meth:`IncrementalKernel.observe_many` call
    over the whole matrix, so per-row work is paid only at violating rows."""
    check_counting_config(config, "fast")
    values = check_matrix(values)
    T, n = values.shape
    kernel = IncrementalKernel(n, k, seed=seed)
    history = kernel.observe_many(values)
    if OBS.on and not kernel.trivial:
        # Row 0 is the initialization reset; every other non-event row was
        # skipped as part of a quiet segment.
        _OBS_SEG_ROWS.labels(outcome="violation").inc(kernel.handler_calls + 1)
        _OBS_SEG_ROWS.labels(outcome="skipped").inc(T - 1 - kernel.handler_calls)
        _OBS_VIOLATIONS.inc(kernel.handler_calls)
    return RunResult.from_counting(_counting_result(kernel, history), engine="fast")


register_engine(
    "vectorized",
    description="flat-NumPy per-step counting engine: trajectory + per-phase counters",
    capabilities={CAP_TRAJECTORY, CAP_COUNTING},
    runner=_engine_runner,
)
register_engine(
    "fast",
    description="segment-skipping event-driven counting engine (quiet steps cost ~0)",
    capabilities={CAP_TRAJECTORY, CAP_COUNTING},
    runner=_fast_runner,
)
