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
a half-integer, so the bound is kept doubled, as the exact integer ``M2``.
The array checks fold the doubled comparison into integer thresholds on
the raw values — ``2·v < M2  ⇔  v < ceil(M2/2)`` and ``2·v > M2  ⇔
v > floor(M2/2)`` — exact for any sign, and never doubling a value, so no
int64 row wraps (:func:`_thresholds`); the scalar forms double Python
ints, which cannot wrap.

The module also prices Algorithm 2 for the counting engines
(:func:`protocol_run` for one execution, :func:`reset_sweeps` for a
reset's ``k+1`` sweeps at once) so the protocol semantics cannot drift
between them, and it holds the randomness convention all three engines
share: one uniform per participant per execution, drawn in ascending id
order when the execution starts, fixes the round of the participant's
first coin success (:func:`first_send_table`, :func:`first_send_rounds`).
The faithful protocol and the distributed runtime clock rounds one by one
with those coins; here a whole execution is a few array passes.  It also
hosts the :meth:`FilterState.snapshot` / :meth:`FilterState.from_snapshot`
pair the checkpoint layer (:mod:`repro.core.checkpoint`) builds session
checkpoint/restore on.

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.service` — it is the layer below all of them.  The one
upward-looking exception is :mod:`repro.obs` (itself a leaf): when
``OBS.on`` the protocol executions publish per-phase run/message/timer
series into the unified metrics registry, and when it is off (the
default) the only cost is one boolean attribute load per execution.
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
    "first_send_table",
    "first_send_rounds",
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


def _thresholds(m2):
    """Integer thresholds equivalent to the doubled comparisons.

    ``2·v < m2  ⇔  v < lo`` with ``lo = ceil(m2/2)``, and
    ``2·v > m2  ⇔  v > hi`` with ``hi = floor(m2/2)`` — exact for any sign.
    ``m2`` is a Python int or an int64 array; a shift and a parity bit
    never wrap, and both thresholds of a sum of two int64 values fit in
    int64.

    >>> _thresholds(-7), _thresholds(8)
    ((-3, -4), (4, 4))
    """
    hi = m2 >> 1
    return hi + (m2 & 1), hi


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
        lo, hi = _thresholds(self.m2)
        return bool(((self.sides & (row < lo)) | (~self.sides & (row > hi))).any())

    def violators(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Violating node ids ``(top, bottom)``, each ascending.

        TOP nodes violate below the bound, BOTTOM nodes above it — the
        id-producing form the violation handler feeds to the protocols.
        """
        lo, hi = _thresholds(self.m2)
        viol_top = np.flatnonzero(self.sides & (row < lo))
        viol_bot = np.flatnonzero(~self.sides & (row > hi))
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

        noisy[b] = any(sides[b] & (row[b] < lo[b]) |
                      ~sides[b] & (row[b] > hi[b]))

    with ``lo, hi = _thresholds(m2)`` over the column of bounds.  A bound
    past int64 (two extremes near the same edge) takes exact per-state
    Python thresholds instead.
    """
    sides = np.stack([s.sides for s in states])
    bounds = [s.m2 for s in states]
    try:
        lo, hi = _thresholds(np.array(bounds, dtype=np.int64)[:, None])
    except OverflowError:
        lo, hi = np.array([_thresholds(m2) for m2 in bounds], dtype=np.int64).T[:, :, None]
    return ((sides & (rows < lo)) | (~sides & (rows > hi))).any(axis=1)


# --------------------------------------------------------------------------
# Algorithm 2 priced in array passes, with unit-cost message accounting.
# --------------------------------------------------------------------------

# Memoized per-upper-bound first-send tables (see :func:`first_send_table`).
_FIRST_SEND: dict[int, np.ndarray] = {}

# The running maximum of an execution before its first non-empty round.
# Every int64 is ``>=`` it, so a participant of that round passes the send
# test against it whatever its value; the strict broadcast test cannot
# rely on it and reads presence instead.
_EMPTY = np.iinfo(np.int64).min

# Reset sweeps are priced in groups of at most this many participants (and
# at least one sweep), so a reset's working memory stays bounded at any n.
_PRICE_CAP = 1 << 16

# ``starts`` of a lone execution, for :func:`_price`.
_ONE_EXECUTION = np.zeros(1, dtype=np.intp)


def first_send_table(upper_bound: int) -> np.ndarray:
    """Cumulative first-send probabilities of Algorithm 2 for bound ``N``.

    Round ``r = 0..ceil(log2 N)`` has send probability ``p_r = min(1,
    2^r/N)``; row ``r`` holds ``F_r = 1 − ∏_{s≤r}(1 − p_s)``, the chance a
    participant's coin has come up by round ``r``, and the last row is
    exactly 1 (the forced round).  A participant whose uniform ``u`` draws
    the smallest ``r`` with ``u < F_r`` sends in round ``r`` if it is still
    active then — the same law as a fresh coin in every round, with one
    uniform per participant per execution.  One read-only ``(rounds, 1)``
    column per ``N``, shared by all three engines; ``table.size`` is the
    round count.

    >>> first_send_table(4).ravel().tolist()
    [0.25, 0.625, 1.0]
    """
    table = _FIRST_SEND.get(upper_bound)
    if table is None:
        n_rounds = ceil_log2(upper_bound) + 1 if upper_bound > 1 else 1
        silent = np.cumprod([1.0 - min(1.0, (2.0**r) / upper_bound) for r in range(n_rounds)])
        table = (1.0 - silent)[:, None]
        table[-1] = 1.0
        table.flags.writeable = False
        _FIRST_SEND[upper_bound] = table
    return table


def first_send_rounds(draws: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each draw's first-send round: the smallest ``r`` with ``u < F_r``.

    Compares every draw with every row of ``table`` (the last, 1, never
    passes) and counts the thresholds passed — ``int8`` suffices for the
    at most 64 rounds of an int64 bound.
    """
    return np.add.reduce(draws >= table, axis=0, dtype=np.int8)


def _price(keyed: np.ndarray, cell: np.ndarray, starts: np.ndarray, n_rounds: int) -> tuple[int, int]:
    """Node messages and round broadcasts of executions laid end to end.

    Execution ``s`` holds the participants from ``starts[s]`` to the next
    start; ``keyed`` is each participant's keyed value and ``cell`` its
    ``s · (n_rounds + 1) + first-send round``.  Row ``s`` of ``upto``
    gets, in column ``c``, the largest value among the execution's
    participants of rounds ``< c``.  The largest value of the earlier
    rounds was always sent (no broadcast exceeds it), so a participant is
    still active in its round — and sends — iff its value is ``>=`` that
    column (``_EMPTY`` when no earlier round had a participant, which
    every value passes).  An execution's first non-empty round, found by
    presence, broadcasts; a later round broadcasts iff it raises ``upto``.
    """
    width = n_rounds + 1
    upto = np.empty(starts.size * width, dtype=np.int64)
    upto.fill(_EMPTY)
    np.maximum.at(upto[1:], cell, keyed)  # round r's maximum lands in column r + 1
    rows = upto.reshape(-1, width)
    np.maximum.accumulate(rows, axis=1, out=rows)
    node_msgs = np.count_nonzero(keyed >= upto[cell])
    # Rises never cross rows: a row starts at _EMPTY, which exceeds nothing.
    rises = upto[1:] > upto[:-1]
    first = np.minimum.reduceat(cell, starts)  # cell of each first non-empty round
    bcasts = starts.size + np.count_nonzero(rises) - np.count_nonzero(rises[first])
    return int(node_msgs), int(bcasts)


def _ranked(row: np.ndarray, m: int) -> np.ndarray:
    """Ids of the ``m`` largest values, by value descending then id
    ascending — the winners of ``m`` repeated max sweeps, in sweep order.
    A partition finds the ``m``-th value; only the ids at or above it are
    sorted, keyed by ``~v`` (order-reversing like ``-v``, but exact at the
    int64 minimum, which negation wraps)."""
    cut = np.partition(row, row.size - m)[row.size - m]
    ids = np.flatnonzero(row >= cut)
    return ids[np.argsort(~row[ids], kind="stable")[:m]]


# Unified-registry families the protocol executions publish into when
# ``OBS.on`` (see repro/obs): executions, node messages and improvement
# broadcasts per phase, plus a per-phase wall-time account.  Declared here,
# at import, like every other self-registering family.
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


def _obs_publish(phase: str, runs: int, msgs: int, bcasts: int, seconds: float) -> None:
    series = _OBS_PHASE_SERIES.get(phase)
    if series is None:
        series = _OBS_PHASE_SERIES[phase] = (
            _OBS_SECONDS.labels(phase=phase),
            _OBS_RUNS.labels(phase=phase),
            _OBS_MSGS.labels(phase=phase),
            _OBS_ROUNDS.labels(phase=phase),
        )
    secs, total_runs, total_msgs, total_bcasts = series
    secs.value += seconds
    total_runs.value += runs
    total_msgs.value += msgs
    total_bcasts.value += bcasts


def protocol_run(
    participants: np.ndarray,
    row: np.ndarray,
    upper: int,
    sign: int,
    phase: str,
    initiated: bool,
    counts: dict[str, int],
    rng: np.random.Generator,
):
    """One accounted protocol execution, shared by the counting engines.

    ``participants`` must ascend.  Draws one uniform per participant
    (:func:`first_send_rounds`) and prices the execution in one
    :func:`_price` pass; a coordinator-``initiated`` run also pays its
    start broadcast.  A minimum run maximizes ``~v``, which orders int64
    exactly as ``-v`` does without wrapping at the minimum.  Returns
    ``(winner_id, value)`` — the lowest id among the extreme values — or
    ``None`` when there are no participants; message/broadcast counters
    accumulate into ``counts``.
    """
    m = participants.size
    if m == 0:
        return None
    if initiated:
        counts["protocol_start"] += 1
    keyed = row[participants] if sign > 0 else ~row[participants]
    t0 = _obs_clock() if OBS.on else 0.0
    if m == 1:
        rng.random()  # its coin; a lone participant sends, and that is news
        j, msgs, bcasts = 0, 1, 1
    else:
        j = int(keyed.argmax())  # first maximum: the lowest id
        table = first_send_table(upper)
        rounds = first_send_rounds(rng.random(m), table)
        msgs, bcasts = _price(keyed, rounds, _ONE_EXECUTION, table.size)
    if OBS.on:
        _obs_publish(phase, 1, msgs, bcasts, _obs_clock() - t0)
    counts[phase] += msgs
    counts["protocol_round"] += bcasts
    value = int(keyed[j])
    return int(participants[j]), value if sign > 0 else ~value


def reset_sweeps(
    row: np.ndarray,
    k: int,
    counts: dict[str, int],
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """The ``k+1`` coordinator-initiated max sweeps of a ``FilterReset``.

    Sweep ``j`` runs over every node but the ``j`` earlier winners, in
    ascending id order, so its winner is the ``j``-th ranked node whatever
    the coins (Las Vegas); the coins only price it.  The sweeps are priced
    together: one ``rng.random`` call per group of sweeps — the same
    stream as one call per sweep — and one :func:`_price` pass per group.
    Each sweep pays its start broadcast.
    Shared by the counting engines so the reset protocol semantics cannot
    drift between them (invariant I4).  Returns ``(winners, winner_vals)``
    ordered by rank.
    """
    n = row.size
    t0 = _obs_clock() if OBS.on else 0.0
    winners = _ranked(row, k + 1)
    rank = np.full(n, k + 1, dtype=np.int64)
    rank[winners] = np.arange(k + 1)
    table = first_send_table(n)
    width = table.size + 1
    per_group = max(1, _PRICE_CAP // n)
    msgs = bcasts = 0
    for first in range(0, k + 1, per_group):
        sweeps = np.arange(first, min(k + 1, first + per_group))
        # Sweep j's participants, in ascending id order, are the nodes
        # ranked j or lower.
        member = rank >= sweeps[:, None]
        grid = np.empty(member.shape, dtype=np.int64)
        grid[:] = row
        keyed = grid[member]
        sizes = n - sweeps
        rounds = first_send_rounds(rng.random(keyed.size), table)
        cell = np.repeat(np.arange(0, sweeps.size * width, width), sizes) + rounds
        group_msgs, group_bcasts = _price(keyed, cell, np.cumsum(sizes) - sizes, table.size)
        msgs += group_msgs
        bcasts += group_bcasts
    if OBS.on:
        _obs_publish("reset_protocol", k + 1, msgs, bcasts, _obs_clock() - t0)
    counts["protocol_start"] += k + 1
    counts["reset_protocol"] += msgs
    counts["protocol_round"] += bcasts
    return winners.tolist(), row[winners].tolist()
