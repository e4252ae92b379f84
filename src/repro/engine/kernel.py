"""The filter kernel: one implementation of the paper's central object.

Algorithm 1's coordinator state is a *filter state* — the TOP/BOTTOM side
partition and the shared doubled bound ``M2 = T+ + T-`` — and its central
decision is *quietness*: "does this observation row violate any filter?"
A TOP node violates when ``2·v < M2`` (it fell below the midpoint), a
BOTTOM node when ``2·v > M2``.  Before this module existed that comparison
was re-derived in four places (the faithful monitor, the vectorized
kernel, the fast engine's lookahead reductions, and the service manager's
stacked sweep); now every layer calls one of the three entry points here:

* :meth:`FilterState.violates` — the scalar per-row check (and
  :meth:`FilterState.violators`, the id-producing form handlers need);
* :func:`violates_stacked` — many sessions' rows decided in one stacked
  comparison (the service manager's batched sweep);
* :meth:`FilterState.scan_quiet` — cross-row lookahead over a ``(B, n)``
  block in geometrically growing chunks, returning the first violating
  row index.  It is the one lookahead: ``IncrementalKernel.observe_many``
  runs it, for the fast engine over a whole matrix and for the service's
  deep-inbox drain over a block.

The exact-arithmetic convention (see :mod:`repro.core.monitor`): ``M`` is
a half-integer, so the doubled bound keeps everything in int64.  For the
block scans the doubled comparisons fold into integer thresholds on the
raw reductions — ``2·v < M2  ⇔  v < ceil(M2/2)`` and ``2·v > M2  ⇔
v > floor(M2/2)`` — exact for any sign.

The module also hosts the shared *round loop* (Algorithm 2 with message
accounting: :func:`protocol_run`, :func:`reset_sweeps`) so the protocol
semantics cannot drift between the counting engines, and the
:meth:`FilterState.snapshot` / :meth:`FilterState.from_snapshot` pair the
checkpoint layer (:mod:`repro.core.checkpoint`) builds session
checkpoint/restore on.

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.service` — it is the layer below all of them.  The one
upward-looking exception is :mod:`repro.obs` (itself a leaf): when
``OBS.on`` the round loop publishes per-phase run/message/timer series
into the unified metrics registry, and when it is off (the default) the
only cost is one boolean attribute load per protocol execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.registry import OBS, clock as _obs_clock, counter as _obs_counter
from repro.util.intmath import ceil_log2

__all__ = [
    "FilterState",
    "violates_stacked",
    "violates_value",
    "protocol_run",
    "reset_sweeps",
    "PHASES",
]

# Phase keys mirrored from repro.model.message.Phase (plain strings — the
# counting engines deliberately avoid importing the object model).
PHASES = (
    "violation_min",
    "violation_max",
    "handler_max",
    "handler_min",
    "protocol_start",
    "protocol_round",
    "reset_protocol",
    "reset_broadcast",
    "midpoint_broadcast",
)

# Chunked lookahead: start small so churn-heavy inputs only ever reduce a
# few rows past the current step, grow geometrically so long quiet segments
# are covered in few chunks.  A quiet chunk costs one ``min`` over its TOP
# columns and one ``max`` over its BOTTOM columns; per-row reductions run
# only in the chunk that holds the first violation.  A side whose ids are
# not contiguous still costs one gather per chunk.
_SCAN_CHUNK_MIN = 16
_SCAN_CHUNK_MAX = 8192

_FILTER_SCHEMA = 1


def _thresholds(m2: int) -> tuple[int, int]:
    """Integer thresholds equivalent to the doubled comparisons.

    ``2·v < m2  ⇔  v < lo`` with ``lo = ceil(m2/2)``, and
    ``2·v > m2  ⇔  v > hi`` with ``hi = floor(m2/2)`` — exact for any sign.
    """
    return -((-m2) // 2), m2 // 2


def _selector(ids: np.ndarray):
    """A column selector for ``ids``: a view-producing slice when the ids
    are contiguous (common when node base levels order the top-k), else the
    index array itself (fancy-indexed gather)."""
    if ids.size and int(ids[-1]) - int(ids[0]) + 1 == ids.size:
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return ids


def violates_value(value: int, is_top: bool, m2: int) -> bool:
    """The node-local scalar form of the filter check.

    A real sensor evaluates exactly this against its last broadcast bound
    (:class:`~repro.distributed.node.NodeAgent` does); it is the same
    comparison :meth:`FilterState.violates` vectorizes over a row.
    """
    doubled = 2 * int(value)
    return doubled < m2 if is_top else doubled > m2


@dataclass(eq=False)
class FilterState:
    """One coordinator's filter state: partition, bound, running extremes.

    ``sides``
        The TOP/BOTTOM partition (``True`` = TOP), shape ``(n,)`` bool.
    ``m2``
        The doubled filter bound ``2·M = T+ + T-``.
    ``t_plus`` / ``t_minus``
        The reset bookkeeping: running min over TOP / max over BOTTOM
        observed since the last reset (Lemma 3.2's certificates).
    ``top_ids`` / ``bot_ids``
        Cached ascending id vectors of each side, refreshed by
        :meth:`install` (they change only at resets).  The mask-based
        checks below read ``sides`` directly, so external mutation of the
        partition (failure-injection tests corrupt it on purpose) is
        always observed; only the block scans rely on the cache.
    """

    sides: np.ndarray
    m2: int = 0
    t_plus: int = 0
    t_minus: int = 0
    top_ids: np.ndarray = field(init=False, repr=False)
    bot_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sides = np.asarray(self.sides, dtype=bool)
        self.refresh_cache()

    @classmethod
    def blank(cls, n: int, *, all_top: bool = False) -> "FilterState":
        """A pre-initialization state (everything BOTTOM, or TOP for the
        trivial ``k == n`` monitor whose answer never changes)."""
        return cls(sides=np.full(n, all_top, dtype=bool))

    @property
    def n(self) -> int:
        """Number of nodes in the partition."""
        return self.sides.size

    def refresh_cache(self) -> None:
        """Rebuild ``top_ids``/``bot_ids`` from ``sides``."""
        self.top_ids = np.flatnonzero(self.sides).astype(np.int64, copy=False)
        self.bot_ids = np.flatnonzero(~self.sides).astype(np.int64, copy=False)

    # ------------------------------------------------------ the quietness check

    def violates(self, row: np.ndarray) -> bool:
        """Scalar entry point: does any node's value leave its filter?"""
        doubled = 2 * row
        return bool(
            ((self.sides & (doubled < self.m2)) | (~self.sides & (doubled > self.m2))).any()
        )

    def violators(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Violating node ids ``(top, bottom)``, each ascending.

        TOP nodes violate below the bound, BOTTOM nodes above it — the
        id-producing form the violation handler feeds to the protocols.
        """
        doubled = 2 * row
        viol_top = np.flatnonzero(self.sides & (doubled < self.m2))
        viol_bot = np.flatnonzero(~self.sides & (doubled > self.m2))
        return viol_top, viol_bot

    @staticmethod
    def violates_banded(
        row: np.ndarray, bands: "dict[int, tuple[int | None, int | None]]"
    ) -> list[int]:
        """Per-member band form of the quietness check: ids whose doubled
        value leaves their ``(lo2, hi2)`` interval (``None`` = unbounded
        side), in ``bands``'s iteration order.

        This is the same ``2·v`` vs doubled-bound comparison as
        :meth:`violates`, generalized from the single partition bound to
        one band per member — the ordered-top-k extension's internal rank
        filters reduce to it, which is why it lives here (R1: the
        quietness comparison has exactly one home).
        """
        out: list[int] = []
        for member, (lo2, hi2) in bands.items():
            doubled = 2 * int(row[member])
            if (lo2 is not None and doubled < lo2) or (hi2 is not None and doubled > hi2):
                out.append(member)
        return out

    def scan_quiet(self, block: np.ndarray, start: int = 0) -> int:
        """Lookahead entry point: first row index ``>= start`` of ``block``
        that violates a filter, or ``len(block)`` if the whole suffix is
        quiet.

        The filters are static between communication events, so quietness
        of each row is a pure function of the input.  Scanning proceeds in
        geometrically growing chunks, each first tested as a whole: if the
        ``min`` over its TOP columns and the ``max`` over its BOTTOM
        columns stay inside the filter, every row of the chunk is quiet.
        So a quiet chunk costs those two reductions, and the per-row
        reductions that locate a violation run only in the chunk that
        holds the first one.  Churn-heavy blocks never pay for lookahead
        they don't use.  TOP or BOTTOM ids that are not contiguous still
        cost one gather of that side per chunk.

        Requires a non-trivial installed partition (both sides non-empty)
        and a fresh id cache.

        >>> state = FilterState.blank(4)
        >>> state.install([0, 1], 40, 30)  # TOP = {0, 1}, M2 = 70
        >>> block = np.array([[50, 40, 30, 20]] * 100 + [[50, 40, 45, 20]])
        >>> state.scan_quiet(block)  # rows 0-79 pass as two whole chunks
        100
        >>> state.scan_quiet(block, 101)
        101
        """
        lo, hi = _thresholds(self.m2)
        top_sel = _selector(self.top_ids)
        bot_sel = _selector(self.bot_ids)
        T = block.shape[0]
        pos = start
        span = _SCAN_CHUNK_MIN
        while pos < T:
            chunk = block[pos : min(T, pos + span)]
            top = chunk[:, top_sel]
            bot = chunk[:, bot_sel]
            if top.min() < lo or bot.max() > hi:
                window = (top.min(axis=1) < lo) | (bot.max(axis=1) > hi)
                return pos + int(window.argmax())
            pos += chunk.shape[0]
            span = min(span * 4, _SCAN_CHUNK_MAX)
        return T

    # ------------------------------------------------------- state transitions

    def absorb(self, min_value: int, max_value: int) -> bool:
        """Fold a handler's completed extremes into ``T+``/``T-``.

        Returns ``True`` when ``T+ < T-`` — the top-k set provably changed
        and the caller must run a :meth:`install`-ing filter reset; else
        the caller broadcasts the halved midpoint from :meth:`rebound`.
        """
        self.t_plus = min(self.t_plus, min_value)
        self.t_minus = max(self.t_minus, max_value)
        return self.t_plus < self.t_minus

    def rebound(self) -> int:
        """Install the new midpoint ``M2 = T+ + T-`` (which at least halves
        the tracked gap — the Theorem 3.3 mechanism); returns it."""
        self.m2 = self.t_plus + self.t_minus
        return self.m2

    def install(self, top_members: Sequence[int], v_k: int, v_k1: int) -> None:
        """A filter reset's bookkeeping: new TOP side, fresh bound/extremes.

        ``top_members`` are the k reset-sweep winners; ``v_k``/``v_k1`` the
        k-th and (k+1)-st values whose midpoint becomes the new bound.
        """
        self.sides[:] = False
        self.sides[np.asarray(top_members, dtype=np.int64)] = True
        self.refresh_cache()
        self.t_plus = int(v_k)
        self.t_minus = int(v_k1)
        self.m2 = self.t_plus + self.t_minus

    # ------------------------------------------------------------- persistence

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe capture; inverse of :meth:`from_snapshot`."""
        return {
            "schema": _FILTER_SCHEMA,
            "sides": np.packbits(self.sides).tobytes().hex(),
            "n": int(self.n),
            "m2": int(self.m2),
            "t_plus": int(self.t_plus),
            "t_minus": int(self.t_minus),
        }

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "FilterState":
        """Rebuild a state captured by :meth:`snapshot` (cache refreshed).

        Raises
        ------
        ConfigurationError
            For another schema, or packed ``sides`` that are not exactly
            ``ceil(n/8)`` bytes (unpacking would pad a short string with
            BOTTOM nodes and drop the tail of a long one).
        """
        if data.get("schema") != _FILTER_SCHEMA:
            raise ConfigurationError(
                f"unsupported filter-state schema {data.get('schema')!r}"
            )
        n = int(data["n"])
        packed = np.frombuffer(bytes.fromhex(data["sides"]), dtype=np.uint8)
        if packed.size != (n + 7) // 8:
            raise ConfigurationError(
                f"filter-state sides hold {packed.size} bytes; n={n} needs {(n + 7) // 8}"
            )
        sides = np.unpackbits(packed, count=n).astype(bool)
        return cls(
            sides=sides,
            m2=int(data["m2"]),
            t_plus=int(data["t_plus"]),
            t_minus=int(data["t_minus"]),
        )


def violates_stacked(rows: np.ndarray, states: Sequence[FilterState]) -> np.ndarray:
    """The stacked entry point: quietness for many sessions in one shot.

    ``rows`` is a ``(B, n)`` matrix of one pending row per session and
    ``states`` the matching filter states (all the same ``n``).  Returns a
    ``(B,)`` bool vector — ``True`` where the session's row violates a
    filter — computed with exactly the per-row comparison
    :meth:`FilterState.violates` runs, batched:

        noisy[b] = any(sides[b] & (2·row[b] < m2[b]) |
                      ~sides[b] & (2·row[b] > m2[b]))
    """
    sides = np.stack([s.sides for s in states])
    m2 = np.array([s.m2 for s in states], dtype=np.int64)[:, None]
    doubled = 2 * rows
    return ((sides & (doubled < m2)) | (~sides & (doubled > m2))).any(axis=1)


# --------------------------------------------------------------------------
# The shared round loop: Algorithm 2 with unit-cost message accounting.
# --------------------------------------------------------------------------

# Memoized per-upper-bound send-probability schedules.  Entries are computed
# with the exact expression ``2.0**r / upper_bound`` so the coin comparisons
# stay bit-identical to the faithful engine's per-round computation.
_SCHEDULES: dict[int, tuple[float, ...]] = {}


def _schedule(upper_bound: int) -> tuple[float, ...]:
    sched = _SCHEDULES.get(upper_bound)
    if sched is None:
        n_rounds = ceil_log2(upper_bound) + 1 if upper_bound > 1 else 1
        sched = tuple((2.0**r) / upper_bound for r in range(n_rounds))
        _SCHEDULES[upper_bound] = sched
    return sched


def _round_loop(
    ids: np.ndarray,
    keyed: np.ndarray,
    upper_bound: int,
    rng: np.random.Generator,
) -> tuple[int, int, int, int]:
    """One Algorithm-2 execution over ``sign``-keyed values.

    ``ids``/``keyed`` must already be in ascending-id order.  Returns
    ``(winner_id, keyed_value, node_messages, round_broadcasts)``.
    """
    sched = _schedule(upper_bound)
    rand = rng.random
    if ids.size == 1:
        # Scalar fast path: a single participant keeps flipping its coin
        # (consuming one draw per round, exactly like the array path) until
        # it sends; its first message is always an improvement broadcast.
        wid = int(ids[0])
        val = int(keyed[0])
        for p in sched:
            if rand() < p:
                return wid, val, 1, 1
        raise AssertionError("final round forces sends")
    act_ids = ids
    act_keyed = keyed
    best: int | None = None
    best_id = -1
    node_msgs = 0
    bcasts = 0
    for p in sched:
        m = act_ids.size
        if m == 0:
            break
        # The draw happens every round over the active set in ascending id
        # order — the shared randomness convention; never skip it.
        draws = rand(m)
        if p < 1.0:
            sid = (draws < p).nonzero()[0]  # integer gathers: senders are few
            s = sid.size
            if s == 0:
                continue  # nobody sent; nothing changes this round
        else:
            sid = None  # forced round: everyone still active sends
            s = m
        node_msgs += s
        if sid is None:
            j = int(act_keyed.argmax())  # first max = lowest id among senders
            round_best = int(act_keyed[j])
            round_best_id = int(act_ids[j])
        elif s == 1:
            i0 = int(sid[0])
            round_best = int(act_keyed[i0])
            round_best_id = int(act_ids[i0])
        else:
            sk = act_keyed[sid]
            j = int(sk.argmax())
            round_best = int(sk[j])
            round_best_id = int(act_ids[sid[j]])
        improved = best is None or round_best > best
        if improved:
            best = round_best
            best_id = round_best_id
        elif round_best == best and round_best_id < best_id:
            best_id = round_best_id
        if improved:
            bcasts += 1
            # The broadcast deactivates every node below the new maximum;
            # senders deactivate regardless.
            keep = act_keyed >= best
            if sid is not None:
                keep[sid] = False
            act_ids = act_ids[keep]
            act_keyed = act_keyed[keep]
        elif sid is not None:
            keep = np.ones(m, dtype=bool)
            keep[sid] = False
            act_ids = act_ids[keep]
            act_keyed = act_keyed[keep]
        else:
            break  # forced round with no improvement: nobody remains
    assert best is not None, "final round forces sends"
    return best_id, best, node_msgs, bcasts


# Unified-registry families the round loop publishes into when ``OBS.on``
# (see repro/obs): executions, node messages and improvement broadcasts
# per phase, plus a per-phase wall-time account.  Declared here, at import,
# like every other self-registering family.
_OBS_RUNS = _obs_counter(
    "repro_engine_protocol_runs_total", "Algorithm-2 protocol executions", ("phase",)
)
_OBS_MSGS = _obs_counter(
    "repro_engine_protocol_messages_total", "node messages sent in protocol rounds", ("phase",)
)
_OBS_ROUNDS = _obs_counter(
    "repro_engine_round_broadcasts_total", "improvement round broadcasts", ("phase",)
)
_OBS_SECONDS = _obs_counter(
    "repro_engine_phase_seconds_total", "wall seconds spent in protocol runs", ("phase",)
)

# Per-phase series memo: ``labels()`` validates and key-builds on every
# call, which is too slow for the per-violation path (the <3% overhead
# gate in benchmarks/bench_service.py).  Phases are a tiny fixed set, so
# resolve each once and keep the concrete series.  ``reset_metrics``
# zeroes series in place, so cached objects stay live across resets.
_OBS_PHASE_SERIES: dict[str, tuple] = {}


def _obs_phase_series(phase: str) -> tuple:
    series = _OBS_PHASE_SERIES.get(phase)
    if series is None:
        series = _OBS_PHASE_SERIES[phase] = (
            _OBS_SECONDS.labels(phase=phase),
            _OBS_RUNS.labels(phase=phase),
            _OBS_MSGS.labels(phase=phase),
            _OBS_ROUNDS.labels(phase=phase),
        )
    return series


def protocol_run(
    participants: np.ndarray,
    row: np.ndarray,
    upper: int,
    sign: int,
    phase: str,
    initiated: bool,
    counts: dict[str, int],
    rng: np.random.Generator,
    start_charge: int,
):
    """One accounted protocol execution, shared by the counting engines.

    Returns ``(winner_id, value)`` or ``None`` when there are no
    participants; message/broadcast counters accumulate into ``counts``.
    """
    if participants.size == 0:
        return None
    if initiated:
        counts["protocol_start"] += start_charge
    keyed = row[participants] if sign > 0 else -row[participants]
    if OBS.on:
        t0 = _obs_clock()
        wid, best, msgs, bcasts = _round_loop(participants, keyed, upper, rng)
        secs, runs, pmsgs, prounds = _obs_phase_series(phase)
        secs.value += _obs_clock() - t0
        runs.value += 1.0
        pmsgs.value += msgs
        prounds.value += bcasts
    else:
        wid, best, msgs, bcasts = _round_loop(participants, keyed, upper, rng)
    counts[phase] += msgs
    counts["protocol_round"] += bcasts
    return wid, sign * best


def reset_sweeps(ids: np.ndarray, row: np.ndarray, n: int, k: int, protocol_run):
    """The ``k+1`` coordinator-initiated max sweeps of a ``FilterReset``.

    Shared by the counting engines so the reset protocol semantics cannot
    drift between them (invariant I4).  Returns ``(winners, winner_vals)``
    ordered by rank.
    """
    remaining = np.ones(n, dtype=bool)
    winners: list[int] = []
    winner_vals: list[int] = []
    for _ in range(k + 1):
        part = ids[remaining]
        out = protocol_run(part, row, n, +1, "reset_protocol", True)
        assert out is not None
        winners.append(out[0])
        winner_vals.append(out[1])
        remaining[out[0]] = False
    return winners, winner_vals
