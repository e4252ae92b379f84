"""Algorithm 1: filter-based Top-k-Position Monitoring.

The coordinator partitions nodes into a TOP side (the current top-k) and a
BOTTOM side, separated by one shared filter boundary ``M``: TOP nodes hold
filter ``[M, +inf)``, BOTTOM nodes ``(-inf, M]`` (Lemma 2.2).  Per
observation step:

1. TOP nodes whose value dropped below ``M`` run the MinimumProtocol (their
   minimum equals the minimum over the *whole* TOP side, since every
   non-violator is >= M); BOTTOM violators symmetrically run the
   MaximumProtocol.
2. If anything was communicated, the coordinator completes its picture
   (running the missing protocol over the whole other side), updates the
   running extremes ``T+`` (min over TOP since the last reset) and ``T-``
   (max over BOTTOM since the last reset).
3. If ``T+ >= T-`` the top-k set provably did not change (Lemma 3.2): the
   coordinator broadcasts the new midpoint of ``[T-, T+]``, which at least
   halves the tracked gap — hence at most ``O(log Δ)`` handler calls per
   OPT segment (Theorem 3.3).  Otherwise the top-k changed: a full
   ``FilterReset`` re-selects the top-(k+1) via ``k+1`` MaximumProtocol
   sweeps and installs fresh filters around the midpoint of the k-th and
   (k+1)-st values.

Exact arithmetic: ``T+`` and ``T-`` are always *observed integer values*
(the protocols return integers), so the only non-integer quantity is the
midpoint ``M``, a half-integer.  We store the **doubled bound**
``M2 = T+ + T-`` and compare ``2·v`` against it — all arithmetic stays in
int64 and the ``log Δ`` halving count is exact.  The filter state and that
comparison are the shared :class:`~repro.engine.kernel.FilterState` — one
implementation across this monitor, the counting engines, and the
streaming service.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.core.config import MonitorConfig
from repro.core.events import MonitorResult, StepEvent, StepKind, valid_topk_set
from repro.core.filters import FilterSet, filters_from_sides
from repro.core.protocols import maximum_protocol, minimum_protocol
from repro.core.selection import select_top_k
from repro.engine.kernel import FilterState
from repro.errors import ConfigurationError, InvariantViolation
from repro.model.ledger import MessageLedger
from repro.model.message import Phase
from repro.model.transport import CountingTransport, RecordingTransport, Transport
from repro.types import ValueMatrix, ValueRow
from repro.util.seeding import derive_rng
from repro.util.validation import check_k, check_matrix

__all__ = ["MonitorConfig", "TopKMonitor", "OnlineSession"]


class OnlineSession:
    """Streaming interface: feed observation rows one at a time.

    This is the deployment-shaped API — a sensor-network gateway would call
    :meth:`observe` once per sampling tick and read :attr:`topk` between
    ticks.  :class:`TopKMonitor.run` is a thin batch wrapper around it.
    """

    def __init__(self, n: int, k: int, *, seed=None, config: MonitorConfig | None = None):
        self.k, self.n = check_k(k, n)
        self.config = config or MonitorConfig()
        self._rng = derive_rng(seed, 0)
        self.ledger = MessageLedger(track_series=self.config.track_series)
        self.transport: Transport = (
            RecordingTransport(self.ledger) if self.config.record_messages else CountingTransport(self.ledger)
        )
        self._ids = np.arange(self.n, dtype=np.int64)
        # Partition + doubled bound + running extremes, in the shared
        # filter-state object (valid once initialized).
        self._filter = FilterState.blank(self.n)
        self._t = -1
        self._initialized = False
        self.events: list[StepEvent] = []
        self.resets = 0
        self.handler_calls = 0
        self.audit_failures = 0
        self._trivial = self.k == self.n

    # ----------------------------------------------------- state delegation
    # The private names predate the shared kernel; tests (notably the
    # failure-injection suite) corrupt them directly, so they stay as
    # read/write views onto the FilterState.

    @property
    def _sides(self) -> np.ndarray:
        return self._filter.sides

    @property
    def _m2(self) -> int:
        return self._filter.m2

    @_m2.setter
    def _m2(self, value: int) -> None:
        self._filter.m2 = int(value)

    @property
    def _t_plus(self) -> int:
        return self._filter.t_plus

    @_t_plus.setter
    def _t_plus(self, value: int) -> None:
        self._filter.t_plus = int(value)

    @property
    def _t_minus(self) -> int:
        return self._filter.t_minus

    @_t_minus.setter
    def _t_minus(self, value: int) -> None:
        self._filter.t_minus = int(value)

    # ------------------------------------------------------------------ API

    @property
    def time(self) -> int:
        """Index of the last observed step (-1 before the first)."""
        return self._t

    @property
    def topk(self) -> np.ndarray:
        """Current top-k node ids (ascending id order)."""
        if self._trivial:
            return self._ids.copy()
        return np.flatnonzero(self._sides).astype(np.int64, copy=False)

    @property
    def boundary(self) -> Fraction:
        """The current filter bound ``M`` (exact)."""
        return Fraction(self._m2, 2)

    @property
    def message_count(self) -> int:
        """Total unit-cost messages exchanged so far (the ledger total)."""
        return self.ledger.total

    def filter_set(self) -> FilterSet:
        """Materialize the implied filter set (for validation / display)."""
        from repro.core.filters import Filter

        if self._trivial:
            return FilterSet([Filter.unbounded() for _ in range(self.n)])
        from repro.types import Side

        sides = [Side.TOP if s else Side.BOTTOM for s in self._sides]
        return filters_from_sides(sides, Fraction(self._m2, 2))

    def observe(self, row: ValueRow) -> np.ndarray:
        """Process one observation step; returns the (new) top-k ids.

        The first call plays the role of the t=0 initialization (line 1 of
        Algorithm 1): a full filter reset on the initial values.
        """
        row = np.asarray(row)
        if row.shape != (self.n,):
            raise ConfigurationError(f"row must have shape ({self.n},), got {row.shape}")
        if not np.issubdtype(row.dtype, np.integer):
            raise ConfigurationError(f"row must be integer-typed, got dtype {row.dtype}")
        row = row.astype(np.int64, copy=False)
        self._t += 1
        self.transport.set_time(self._t)
        if self._trivial:
            return self.topk
        before = self.ledger.total
        if not self._initialized:
            self._filter_reset(row)
            self._initialized = True
            self._record_event(StepKind.INIT_RESET, 0, 0, before)
        else:
            self._step(row)
        if self.config.audit:
            if not valid_topk_set(row, self.topk, self.k):
                self.audit_failures += 1
                raise InvariantViolation(
                    f"t={self._t}: reported set {sorted(self.topk.tolist())} is not a valid "
                    f"top-{self.k} set"
                )
        return self.topk

    def observe_many(self, rows: ValueMatrix) -> np.ndarray:
        """Process several observation rows; returns the ``(T, k)`` top-k
        history over those rows (ascending id order per row)."""
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ConfigurationError(f"rows must be a 2-D (T, n) array, got shape {rows.shape}")
        history = np.empty((rows.shape[0], self.k), dtype=np.int64)
        for t in range(rows.shape[0]):
            history[t] = self.observe(rows[t])
        return history

    def finish(self) -> None:
        """Flush instrumentation at the end of a run."""
        self.ledger.end_run()

    # ------------------------------------------------------- Algorithm 1

    def _step(self, row: ValueRow) -> None:
        before = self.ledger.total
        # The quietness decision and the violator ids come from the shared
        # kernel; both read ``sides`` directly (not a cache), so injected
        # state corruption is always observed and healed.
        if not self._filter.violates(row):
            return  # quiet step: every value inside its filter
        viol_top, viol_bot = self._filter.violators(row)

        if self.config.always_reset:
            # Ablation A1: no handler, no halving — straight to a reset.
            self.handler_calls += 1
            self._filter_reset(row)
            self._record_event(StepKind.HANDLER_RESET, viol_top.size, viol_bot.size, before)
            return

        bottom_bound = max(1, self.n - self.k)
        # Lines 2-10: violators spontaneously run the min/max protocols.
        min_out = minimum_protocol(
            viol_top,
            row[viol_top],
            max(1, self.k),
            self._rng,
            self.transport,
            phase=Phase.VIOLATION_MIN,
            config=self.config.protocol,
        )
        max_out = maximum_protocol(
            viol_bot,
            row[viol_bot],
            bottom_bound,
            self._rng,
            self.transport,
            phase=Phase.VIOLATION_MAX,
            config=self.config.protocol,
        )

        # Lines 15-28: the FilterViolationHandler completes min/max.
        self.handler_calls += 1
        if max_out is None:
            bottom_ids = np.flatnonzero(~self._sides)
            max_out = maximum_protocol(
                bottom_ids,
                row[bottom_ids],
                bottom_bound,
                self._rng,
                self.transport,
                phase=Phase.HANDLER_MAX,
                coordinator_initiated=True,
                config=self.config.protocol,
            )
        elif not (self.config.skip_redundant_min and min_out is not None):
            top_ids = np.flatnonzero(self._sides)
            min_out = minimum_protocol(
                top_ids,
                row[top_ids],
                max(1, self.k),
                self._rng,
                self.transport,
                phase=Phase.HANDLER_MIN,
                coordinator_initiated=True,
                config=self.config.protocol,
            )
        assert min_out is not None and max_out is not None

        # Lines 29-34: reset if the top-k set provably changed, else halve.
        if self._filter.absorb(min_out.value, max_out.value):
            self._filter_reset(row)
            self._record_event(StepKind.HANDLER_RESET, viol_top.size, viol_bot.size, before)
        else:
            self.transport.broadcast(("midpoint", self._filter.rebound()), Phase.MIDPOINT_BROADCAST)
            self._record_event(StepKind.HANDLER_MIDPOINT, viol_top.size, viol_bot.size, before)

    def _filter_reset(self, row: ValueRow) -> None:
        """Lines 36-42: re-select the top-(k+1), install fresh filters."""
        self.resets += 1
        sel = select_top_k(
            self._ids,
            row,
            self.k + 1,
            self._rng,
            self.transport,
            upper_bound=self.n,
            phase=Phase.RESET_PROTOCOL,
            config=self.config.protocol,
        )
        v_k = sel.values[self.k - 1]
        v_k1 = sel.values[self.k]
        # Fresh partition + doubled midpoint between k-th and (k+1)-st.
        self._filter.install(sel.winners[: self.k], v_k, v_k1)
        self.transport.broadcast(("reset", self._m2), Phase.RESET_BROADCAST)

    # ------------------------------------------------------------ records

    def _record_event(self, kind: StepKind, vt: int, vb: int, messages_before: int) -> None:
        if not self.config.collect_events:
            return
        gap = None if kind in (StepKind.HANDLER_RESET, StepKind.INIT_RESET) else Fraction(
            self._t_plus - self._t_minus
        )
        self.events.append(
            StepEvent(
                time=self._t,
                kind=kind,
                top_violators=vt,
                bottom_violators=vb,
                messages=self.ledger.total - messages_before,
                gap=gap,
            )
        )


class TopKMonitor:
    """Batch front-end for Algorithm 1.

    >>> import numpy as np
    >>> from repro.core.monitor import TopKMonitor
    >>> values = np.cumsum(np.random.default_rng(0).integers(-2, 3, (500, 16)), axis=0) + 1000
    >>> result = TopKMonitor(n=16, k=3, seed=7).run(values)
    >>> result.total_messages < 500 * 16  # far less than the naive algorithm
    True
    """

    def __init__(self, n: int, k: int, *, seed=None, config: MonitorConfig | None = None):
        self.k, self.n = check_k(k, n)
        self.seed = seed
        self.config = config or MonitorConfig()

    def session(self) -> OnlineSession:
        """Start a streaming session."""
        return OnlineSession(self.n, self.k, seed=self.seed, config=self.config)

    def run(self, values: ValueMatrix) -> MonitorResult:
        """Monitor a full ``(T, n)`` value matrix; return aggregated results."""
        values = check_matrix(values, n=self.n)
        T = values.shape[0]
        session = self.session()
        history = session.observe_many(values)
        session.finish()
        return MonitorResult(
            n=self.n,
            k=self.k,
            steps=T,
            topk_history=history,
            ledger=session.ledger,
            events=session.events,
            resets=session.resets,
            handler_calls=session.handler_calls,
            audit_failures=session.audit_failures,
        )
