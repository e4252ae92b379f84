"""Lam et al. midpoint dominance tracking, specialized to one dimension.

Section 3.1 of the paper: "One solution to the Top-k-Position Monitoring
problem is to use the online dominance tracking algorithm by Lam et al. ...
However, it would no longer provide a c-competitive algorithm for any c.
This is due to the fact that a lot of messages might be sent because of
changing values of nodes that do not lead to a change in top-k."

The algorithm maintains the **full** sorted order of all n nodes: between
every pair of rank-adjacent nodes it places a filter boundary at the
midpoint of their last-reported values (the "mid-point strategy" shown
O(d log U)-competitive for dominance tracking — for tracking the *order*,
not the top-k).  A node whose value leaves its personal interval reports
it; the coordinator re-sorts its estimates, recomputes the affected
midpoints, and sends refreshed intervals to every node whose interval
changed.  Repeat within the step until no filter is violated (each
iteration replaces stale estimates with ground truth, so it terminates).

Experiment E8 uses this monitor to reproduce the paper's argument: churn
strictly below the boundary costs this algorithm messages every step while
Algorithm 1 (and OPT) stay silent.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import MonitorResult, valid_topk_set
from repro.model.ledger import MessageLedger
from repro.model.message import MessageKind, Phase
from repro.util.validation import check_k, check_matrix

__all__ = ["DominanceTrackingMonitor"]


class DominanceTrackingMonitor:
    """Full-order midpoint tracking; answers top-k queries as a side effect."""

    def __init__(self, n: int, k: int):
        self.k, self.n = check_k(k, n)

    def run(self, values: np.ndarray) -> MonitorResult:
        """Monitor a ``(T, n)`` matrix; returns per-step top-k + message costs."""
        values = check_matrix(values, n=self.n)
        T, n = values.shape
        ledger = MessageLedger()
        history = np.empty((T, self.k), dtype=np.int64)
        audit_failures = 0

        # Initialization: every node reports once; full order established.
        est = values[0].astype(np.int64).copy()
        ledger.charge(MessageKind.NODE_TO_COORD, Phase.BASELINE, n)
        order = self._sort(est)
        bounds = self._midpoints(est, order)
        ledger.charge(MessageKind.COORD_TO_NODE, Phase.BASELINE, n)  # install filters
        history[0] = np.sort(order[: self.k])

        for t in range(1, T):
            row = values[t]
            # Fix-point loop: report violators, re-sort, refresh intervals.
            for _ in range(n + 1):
                lo, hi = self._intervals_of(bounds, order, n)
                doubled = 2 * row
                viol = np.flatnonzero((doubled < lo) | (doubled > hi))  # reprolint: disable=R1 — Lam et al.'s own dominance test against its lo/hi envelope: through FilterState the baseline would measure our kernel instead of theirs
                if viol.size == 0:
                    break
                ledger.charge(MessageKind.NODE_TO_COORD, Phase.BASELINE, int(viol.size))
                est[viol] = row[viol]
                new_order = self._sort(est)
                new_bounds = self._midpoints(est, new_order)
                changed = self._changed_nodes(order, bounds, new_order, new_bounds, n)
                ledger.charge(MessageKind.COORD_TO_NODE, Phase.BASELINE, int(changed))
                order, bounds = new_order, new_bounds
            else:  # pragma: no cover - loop always terminates within n rounds
                raise AssertionError("dominance fix-point failed to terminate")
            topk = np.sort(order[: self.k])
            history[t] = topk
            if not valid_topk_set(row, topk, self.k):
                audit_failures += 1
        ledger.end_run()
        return MonitorResult(
            n=self.n,
            k=self.k,
            steps=T,
            topk_history=history,
            ledger=ledger,
            events=[],
            resets=0,
            handler_calls=0,
            audit_failures=audit_failures,
        )

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _sort(est: np.ndarray) -> np.ndarray:
        """Descending order of estimates, ties toward lower id."""
        n = est.size
        return np.lexsort((np.arange(n), -est)).astype(np.int64)

    @staticmethod
    def _midpoints(est: np.ndarray, order: np.ndarray) -> np.ndarray:
        """Doubled midpoints between rank-adjacent estimates (length n-1).

        ``bounds[r] = est[order[r]] + est[order[r+1]]`` — the doubled
        boundary between ranks r and r+1 (same doubling trick as the core
        monitor, keeping everything in int64).
        """
        ranked = est[order]
        return (ranked[:-1] + ranked[1:]).astype(np.int64)

    @staticmethod
    def _intervals_of(bounds: np.ndarray, order: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-node doubled interval ``[lo_i, hi_i]`` implied by the bounds."""
        NEG = np.int64(np.iinfo(np.int64).min // 4)
        POS = np.int64(np.iinfo(np.int64).max // 4)
        lo = np.empty(n, dtype=np.int64)
        hi = np.empty(n, dtype=np.int64)
        # rank r node: upper bound = bounds[r-1] (or +inf), lower = bounds[r]
        hi_ranked = np.concatenate(([POS], bounds))
        lo_ranked = np.concatenate((bounds, [NEG]))
        lo[order] = lo_ranked
        hi[order] = hi_ranked
        return lo, hi

    @staticmethod
    def _changed_nodes(
        old_order: np.ndarray,
        old_bounds: np.ndarray,
        new_order: np.ndarray,
        new_bounds: np.ndarray,
        n: int,
    ) -> int:
        """How many nodes' intervals changed (each costs one unicast)."""
        old_lo, old_hi = DominanceTrackingMonitor._intervals_of(old_bounds, old_order, n)
        new_lo, new_hi = DominanceTrackingMonitor._intervals_of(new_bounds, new_order, n)
        return int(np.count_nonzero((old_lo != new_lo) | (old_hi != new_hi)))
