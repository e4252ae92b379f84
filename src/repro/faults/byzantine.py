"""Byzantine senders and the adversary search.

A Byzantine node lies *within its current filter bounds*: whenever it is
polled it claims a value ``v`` with ``2·v ≥ m2`` (TOP) or ``2·v ≤ m2``
(BOTTOM), and it never reports a spontaneous violation.  Such a node is
undetectable by design — every message it sends is consistent with a
correct node whose value happens to sit where the liar claims — so the
protocol's self-healing reset path never triggers on its account.  What
the lies *can* do is distort the coordinator's running extremes ``T+``/
``T-`` (forcing spurious resets → message inflation) and steal or vacate
reset-sweep wins (top-k set errors), which is exactly what experiment
``e10`` measures.

The adversary search hunts for the fault plan + lying strategy that
maximizes protocol message count on a fixed workload:

* :func:`adversary_search` — a seeded random search (no dependencies);
  used by ``e10`` and the CLI.
* :func:`plan_strategy` — a `hypothesis <https://hypothesis.readthedocs.io>`_
  strategy over fault plans, used by the property-based search in
  ``tests/test_faults.py`` (bounded examples in CI), with
  ``hypothesis.target()`` steering generation toward message-maximizing
  plans.  Both tie back to E3: inflation is reported relative to the clean
  run, whose cost the Ω(log n) bound already pins from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.kernel import _thresholds
from repro.faults.plan import CrashWindow, FaultPlan, LinkFaults

__all__ = [
    "BYZANTINE_STRATEGIES",
    "lie",
    "AdversaryReport",
    "adversary_search",
    "plan_strategy",
]

#: ``strategy(true_value, is_top, m2, initialized) -> claimed_value``.
#: Claims are clamped to the node's filter afterwards (see :func:`lie`),
#: so a strategy only chooses *where inside the allowed half-line* to lie.
Strategy = Callable[[int, bool, int, bool], int]


def _top_floor(m2: int) -> int:
    """Smallest value a TOP node may claim (``2·v >= m2``): the filter
    kernel's TOP threshold."""
    return _thresholds(m2)[0]


def _bottom_ceiling(m2: int) -> int:
    """Largest value a BOTTOM node may claim (``2·v <= m2``): the filter
    kernel's BOTTOM threshold."""
    return _thresholds(m2)[1]


def _boundary(value: int, is_top: bool, m2: int, initialized: bool) -> int:
    """Hug the bound M from the legal side: squeezes ``[T-, T+]`` to a
    point, so any real movement forces a reset — pure message inflation."""
    if not initialized:
        return value
    return _top_floor(m2) if is_top else _bottom_ceiling(m2)


def _understate(value: int, is_top: bool, m2: int, initialized: bool) -> int:
    """Claim as little as allowed: a TOP liar sinks to the bound, a BOTTOM
    liar halves its claim — keeps the liar out of sweep wins (vacancy
    errors in the reported top-k)."""
    if not initialized:
        return value
    if is_top:
        return _top_floor(m2)
    return min(value, value - abs(value) // 2, _bottom_ceiling(m2))


def _overstate(value: int, is_top: bool, m2: int, initialized: bool) -> int:
    """Claim as much as allowed: a BOTTOM liar rises to the bound, a TOP
    liar doubles its claim — steals reset-sweep wins (impostor errors)."""
    if not initialized:
        return value
    if is_top:
        return value + abs(value) + 1
    return _bottom_ceiling(m2)


#: Registry of lying strategies referenced by ``FaultPlan.byzantine``.
BYZANTINE_STRATEGIES: dict[str, Strategy] = {
    "boundary": _boundary,
    "understate": _understate,
    "overstate": _overstate,
}


def lie(strategy: str, value: int, is_top: bool, m2: int, initialized: bool) -> int:
    """The value a Byzantine node claims, clamped into its filter.

    The clamp is what makes the lie undetectable: whatever the strategy
    returns, the claim stays on the legal side of the bound.
    """
    claimed = BYZANTINE_STRATEGIES[strategy](int(value), is_top, int(m2), initialized)
    if not initialized:
        return int(claimed)
    if is_top:
        return max(int(claimed), _top_floor(m2))
    return min(int(claimed), _bottom_ceiling(m2))


# --------------------------------------------------------------- search


@dataclass(frozen=True)
class AdversaryReport:
    """Outcome of one adversary search."""

    best_plan: FaultPlan
    best_messages: int
    clean_messages: int
    trials: int

    @property
    def inflation(self) -> float:
        """Message-count ratio of the worst plan found vs the clean run."""
        if self.clean_messages == 0:
            return float("inf") if self.best_messages else 1.0
        return self.best_messages / self.clean_messages


def _candidate(rng, n: int, steps: int, trial: int) -> FaultPlan:
    """One random plan: probabilities, a possible crash, possible liars."""
    uplink = LinkFaults(
        drop=round(float(rng.uniform(0.0, 0.3)), 3),
        duplicate=round(float(rng.uniform(0.0, 0.1)), 3),
        delay=round(float(rng.uniform(0.0, 0.3)), 3),
        max_delay=int(rng.integers(1, 4)),
    )
    downlink = LinkFaults(drop=round(float(rng.uniform(0.0, 0.2)), 3))
    crashes: tuple[CrashWindow, ...] = ()
    if steps >= 6 and rng.random() < 0.5:
        down = int(rng.integers(1, max(2, steps // 2)))
        up = int(rng.integers(down + 1, steps))
        crashes = (CrashWindow(node=int(rng.integers(0, n)), down_at=down, up_at=up),)
    byzantine: list[tuple[int, str]] = []
    names = sorted(BYZANTINE_STRATEGIES)
    for node in range(n):
        if rng.random() < 0.2:
            byzantine.append((node, names[int(rng.integers(0, len(names)))]))
    return FaultPlan(
        seed=trial,
        uplink=uplink,
        downlink=downlink,
        crashes=crashes,
        byzantine=tuple(byzantine),
    )


def adversary_search(
    values,
    k: int,
    *,
    seed: int = 0,
    trials: int = 16,
    protocol_seed: int = 0,
) -> AdversaryReport:
    """Random search for the fault plan maximizing message count.

    Runs the clean distributed engine once for the baseline, then
    ``trials`` seeded random plans through the faulty runtime, keeping the
    plan with the highest total message count.  Deterministic for a fixed
    ``seed``; the E3 lower bound gives the floor the clean baseline
    already sits near, so ``report.inflation`` reads as "how far above
    the necessary cost the adversary can push the protocol".
    """
    import numpy as np

    from repro.distributed import run_distributed
    from repro.faults.runtime import run_faulty

    values = np.asarray(values)
    steps, n = values.shape
    clean = run_distributed(values, k, seed=protocol_seed)
    rng = FaultPlan(seed=seed).rng()
    best_plan = FaultPlan(seed=seed)
    best_messages = clean.total_messages
    for trial in range(trials):
        plan = _candidate(rng, n, steps, trial)
        result = run_faulty(values, k, seed=protocol_seed, plan=plan)
        if result.total_messages > best_messages:
            best_messages = result.total_messages
            best_plan = plan
    return AdversaryReport(
        best_plan=best_plan,
        best_messages=best_messages,
        clean_messages=clean.total_messages,
        trials=trials,
    )


def plan_strategy(n: int, steps: int):
    """A hypothesis strategy drawing arbitrary (valid) fault plans.

    Lives here so the property-based adversary search in the test suite
    and any future fuzzing share one definition.  Imports hypothesis
    lazily — the library itself never requires it.
    """
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - CI always has hypothesis
        raise ImportError("plan_strategy requires the 'hypothesis' package") from exc

    probs = st.floats(min_value=0.0, max_value=0.35)
    links = st.builds(
        LinkFaults,
        drop=probs,
        duplicate=st.floats(min_value=0.0, max_value=0.15),
        delay=probs,
        max_delay=st.integers(min_value=1, max_value=3),
    )
    crash = st.builds(
        lambda node, down, length: CrashWindow(node=node, down_at=down, up_at=down + length),
        node=st.integers(min_value=0, max_value=n - 1),
        down=st.integers(min_value=1, max_value=max(1, steps - 2)),
        length=st.integers(min_value=1, max_value=max(1, steps // 2)),
    )
    liar = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.sampled_from(sorted(BYZANTINE_STRATEGIES)),
    )
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**16),
        uplink=links,
        downlink=st.builds(LinkFaults, drop=st.floats(min_value=0.0, max_value=0.2)),
        crashes=st.lists(crash, max_size=1).map(tuple),
        byzantine=st.lists(liar, max_size=2, unique_by=lambda t: t[0]).map(tuple),
    )
