"""Differential testing between the faithful, vectorized and fast engines.

All three engines implement Algorithm 1 from the paper and follow the same
documented randomness convention, so for the same seed their behaviour must
match **exactly**:

* top-k trajectory (every step),
* reset times and non-reset handler times,
* per-phase message counts.

The faithful and vectorized engines are fully independent implementations.
The fast engine shares the vectorized engine's kernel, violation handler
included, and differs from it only in the lookahead: it finds violating
rows with :meth:`~repro.engine.kernel.FilterState.scan_quiet` block scans
instead of one quietness check per row.  The three-way comparison therefore
pins the protocol semantics (faithful vs vectorized) and the lookahead
(vectorized vs fast).  Any mismatch indicates a semantic bug; the
:class:`DifferentialReport` pinpoints the first diverging quantity.

Since the unified-run redesign every engine is exercised through
``repro.run(spec, engine=...)`` and compared on the common
:class:`~repro.engine.results.RunResult` shape — the differential check
therefore also covers the registry dispatch and the result adapters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DifferentialReport", "differential_check"]


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one differential run."""

    equal: bool
    detail: str
    faithful_messages: int
    vectorized_messages: int
    fast_messages: int = -1

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equal


def _compare_counting_results(a, b) -> str | None:
    """First difference between two results, or ``None`` when equal.

    Works on any pair sharing the counting-result field layout —
    native ``VectorizedResult`` objects or unified
    :class:`~repro.engine.results.RunResult` adapters — and compares
    field-by-field exact equality.
    """
    name_a = getattr(a, "engine", "a")
    name_b = getattr(b, "engine", "b")
    if not np.array_equal(a.topk_history, b.topk_history):
        t = int(np.argmax((a.topk_history != b.topk_history).any(axis=1)))
        return (
            f"top-k trajectories diverge first at t={t}: "
            f"{name_a}={a.topk_history[t].tolist()} {name_b}={b.topk_history[t].tolist()}"
        )
    if a.reset_times != b.reset_times:
        return f"reset times differ: {name_a}={a.reset_times} {name_b}={b.reset_times}"
    if a.handler_times != b.handler_times:
        return f"handler times differ: {name_a}={a.handler_times} {name_b}={b.handler_times}"
    if a.by_phase != b.by_phase:
        keys = sorted(set(a.by_phase) | set(b.by_phase))
        diffs = [
            f"{key}: {name_a}={a.by_phase.get(key, 0)} {name_b}={b.by_phase.get(key, 0)}"
            for key in keys
            if a.by_phase.get(key, 0) != b.by_phase.get(key, 0)
        ]
        return "per-phase message counts differ: " + "; ".join(diffs)
    if a.resets != b.resets or a.handler_calls != b.handler_calls:
        return (
            f"counters differ: resets {a.resets} vs {b.resets}, "
            f"handlers {a.handler_calls} vs {b.handler_calls}"
        )
    return None


def differential_check(values: np.ndarray, k: int, *, seed=0) -> DifferentialReport:
    """Run all three engines on the same instance and compare everything.

    Every engine runs through the unified ``repro.run`` path under the
    default config, so this also pins the registry dispatch and the
    ``RunResult`` adapters.
    """
    from repro.api import RunSpec, run

    spec = RunSpec(values, k=k, seed=seed)
    faithful = run(spec, engine="faithful")
    vector = run(spec, engine="vectorized")
    fast = run(spec, engine="fast")

    totals = (faithful.total_messages, vector.total_messages, fast.total_messages)
    detail = _compare_counting_results(vector, fast)
    if detail is not None:
        return DifferentialReport(False, "vectorized vs fast: " + detail, *totals)
    detail = _compare_counting_results(faithful, vector)
    if detail is not None:
        return DifferentialReport(False, "faithful vs vectorized: " + detail, *totals)
    return DifferentialReport(True, "exact match", *totals)
