"""Seeded fault plans: *what* goes wrong, decided reproducibly.

A :class:`FaultPlan` is the single description of a hostile network that
every fault-injection surface consumes:

* :class:`repro.faults.runtime.FaultyRuntime` applies it at the round
  level (distributed layer), including node crash/recovery windows and
  Byzantine senders,
* the adversary search (:mod:`repro.faults.byzantine`) mutates plans to
  hunt for worst cases.

Plans are frozen dataclasses; all randomness flows through
:meth:`FaultPlan.rng`, a stream derived from ``plan.seed`` — two runs under
the same plan make identical drop/delay/duplicate decisions.  A plan with
all probabilities zero and no schedules is *null*: every consumer
fast-paths it, which is what keeps the fault-layer-disabled engines
bit-identical to the clean code (the differential tests enforce it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import ConfigurationError
from repro.util.seeding import derive_rng

__all__ = [
    "LinkFaults",
    "CrashWindow",
    "FaultPlan",
    "FaultStats",
    "fault_profile",
    "FAULT_PROFILES",
]


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {p}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-message fault probabilities for one direction of a link.

    ``drop``/``duplicate``/``delay`` are independent per-message coin
    weights; a delayed message arrives up to ``max_delay`` rounds late,
    which is also how reordering arises.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: int = 2

    def __post_init__(self) -> None:
        for f in ("drop", "duplicate", "delay"):
            _check_prob(f, getattr(self, f))
        if self.max_delay < 1:
            raise ConfigurationError(f"max_delay must be >= 1, got {self.max_delay}")

    @property
    def is_null(self) -> bool:
        """True when this link is perfect."""
        return self.drop == self.duplicate == self.delay == 0.0

    def fate(self, rng: np.random.Generator) -> tuple[int, int]:
        """Fate of one message on this link: ``(copies, delay)``.

        ``copies`` is 0 (dropped), 1, or 2 (duplicated); ``delay`` applies
        to every copy.  Null links answer ``(1, 0)`` without consuming
        randomness — the bit-identity fast path.
        """
        if self.is_null:
            return 1, 0
        if self.drop and rng.random() < self.drop:
            return 0, 0
        copies = 2 if self.duplicate and rng.random() < self.duplicate else 1
        delay = 0
        if self.delay and rng.random() < self.delay:
            delay = int(rng.integers(1, self.max_delay + 1))
        return copies, delay


@dataclass(frozen=True)
class CrashWindow:
    """Node ``node`` is dead during ``[down_at, up_at)`` and rejoins at
    ``up_at`` (resynchronizing via the reset path, charged to the ledger)."""

    node: int
    down_at: int
    up_at: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(f"crash node must be >= 0, got {self.node}")
        if not 0 <= self.down_at < self.up_at:
            raise ConfigurationError(
                f"crash window needs 0 <= down_at < up_at, got [{self.down_at}, {self.up_at})"
            )


@dataclass(frozen=True)
class FaultPlan:
    """One hostile-network scenario: link faults, crashes, liars, schedules.

    Args
    ----
    seed:
        Root of the plan's private decision stream (independent of the
        protocol's coin-flip seed).
    uplink:
        Faults on node → coordinator replies.
    downlink:
        Faults on coordinator broadcasts, decided *per receiving node*
        in the runtime (a node can miss a broadcast others hear).
    crashes:
        Deterministic crash/recovery windows.
    byzantine:
        ``(node_id, strategy_name)`` pairs; see
        :data:`repro.faults.byzantine.BYZANTINE_STRATEGIES`.
    drop_at:
        Deterministic schedule of forced uplink drops, as ``(time,
        node_id)`` pairs — the reproducible counterpart of ``uplink.drop``.
    max_retries:
        How often the faulty runtime re-polls an empty side / re-runs an
        empty reset sweep before accepting degradation.
    """

    seed: int = 0
    uplink: LinkFaults = field(default_factory=LinkFaults)
    downlink: LinkFaults = field(default_factory=LinkFaults)
    crashes: tuple[CrashWindow, ...] = ()
    byzantine: tuple[tuple[int, str], ...] = ()
    drop_at: tuple[tuple[int, int], ...] = ()
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(
            self, "byzantine", tuple((int(n), str(s)) for n, s in self.byzantine)
        )
        object.__setattr__(
            self, "drop_at", tuple((int(t), int(n)) for t, n in self.drop_at)
        )
        seen = set()
        for node, _ in self.byzantine:
            if node in seen:
                raise ConfigurationError(f"node {node} has two Byzantine strategies")
            seen.add(node)
        from repro.faults.byzantine import BYZANTINE_STRATEGIES  # cycle-free: lazy

        for node, strategy in self.byzantine:
            if strategy not in BYZANTINE_STRATEGIES:
                raise ConfigurationError(
                    f"unknown Byzantine strategy {strategy!r} for node {node}; "
                    f"known: {', '.join(sorted(BYZANTINE_STRATEGIES))}"
                )

    # ------------------------------------------------------------- queries

    @property
    def is_null(self) -> bool:
        """True when this plan changes nothing (the bit-identity guard)."""
        return (
            self.uplink.is_null
            and self.downlink.is_null
            and not self.crashes
            and not self.byzantine
            and not self.drop_at
        )

    def rng(self) -> np.random.Generator:
        """The plan's private decision stream (fresh from the seed)."""
        return derive_rng(self.seed, 0xFA17)

    def down_set(self, t: int) -> frozenset[int]:
        """Ids of nodes dead at step ``t``."""
        return frozenset(w.node for w in self.crashes if w.down_at <= t < w.up_at)

    def liars(self) -> dict[int, str]:
        """Byzantine assignment as a dict."""
        return dict(self.byzantine)

    # ------------------------------------------------------------ decisions

    def uplink_fate(self, rng: np.random.Generator, t: int, node: int) -> tuple[int, int]:
        """Fate of one node → coordinator reply: ``(copies, delay)``.

        ``copies`` is 0 (dropped), 1 or 2 (duplicated); ``delay`` is in
        rounds and applies to every copy.  Scheduled ``drop_at``
        entries force a drop without consuming randomness.
        """
        if (t, node) in self.drop_at:
            return 0, 0
        return self.uplink.fate(rng)

    def drops_broadcast(self, rng: np.random.Generator, node: int) -> bool:
        """Does this node miss the current coordinator broadcast?"""
        link = self.downlink
        return bool(link.drop) and rng.random() < link.drop


@dataclass
class FaultStats:
    """What actually happened during one faulty run."""

    sent: int = 0
    dropped_uplink: int = 0
    dropped_downlink: int = 0
    duplicated: int = 0
    delayed: int = 0
    lost_in_flight: int = 0
    crashes: int = 0
    resyncs: int = 0
    sweep_retries: int = 0
    aborted_handlers: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (tables, JSON)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def faults_injected(self) -> int:
        """Total individual fault events."""
        return (
            self.dropped_uplink + self.dropped_downlink + self.duplicated
            + self.delayed + self.crashes
        )


#: Named profiles accepted by ``--fault-profile`` flags and :func:`fault_profile`.
FAULT_PROFILES = ("clean", "lossy", "chaotic", "byzantine")


def fault_profile(
    name: str, *, n: int | None = None, steps: int | None = None, seed: int = 0
) -> FaultPlan:
    """A named, ready-made :class:`FaultPlan`.

    ``clean`` is the null plan; ``lossy`` models a congested but sane
    network; ``chaotic`` adds heavy loss, long delays and (when ``n`` and
    ``steps`` are given) a mid-run crash/recovery of the last node;
    ``byzantine`` combines mild loss with a boundary-hugging liar on
    node 0.
    """
    if name == "clean":
        return FaultPlan(seed=seed)
    if name == "lossy":
        return FaultPlan(
            seed=seed,
            uplink=LinkFaults(drop=0.05, duplicate=0.02, delay=0.10, max_delay=2),
            downlink=LinkFaults(drop=0.03),
        )
    if name == "chaotic":
        crashes: tuple[CrashWindow, ...] = ()
        if n is not None and steps is not None and n >= 2 and steps >= 6:
            crashes = (CrashWindow(node=n - 1, down_at=steps // 3, up_at=steps // 2),)
        return FaultPlan(
            seed=seed,
            uplink=LinkFaults(drop=0.15, duplicate=0.05, delay=0.25, max_delay=3),
            downlink=LinkFaults(drop=0.10),
            crashes=crashes,
        )
    if name == "byzantine":
        return FaultPlan(
            seed=seed,
            uplink=LinkFaults(drop=0.02),
            byzantine=((0, "boundary"),),
        )
    raise ConfigurationError(
        f"unknown fault profile {name!r}; known: {', '.join(FAULT_PROFILES)}"
    )
