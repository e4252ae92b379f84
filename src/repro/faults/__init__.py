"""Fault injection: hostile networks, crashes, and Byzantine senders.

This package turns the perfect carriers of the simulation into a
configurable hostile world, described once by a seeded
:class:`~repro.faults.plan.FaultPlan` and consumed at two layers:

* distributed layer — :class:`~repro.faults.runtime.FaultyRuntime` /
  :func:`~repro.faults.runtime.run_faulty` clock full monitoring runs
  with drops, delays, duplicates, crash/recovery and in-filter liars;
* adversary layer — :mod:`~repro.faults.byzantine` searches for the
  plans and lying strategies that hurt the protocol most.

The contract throughout: a null plan changes nothing, bit for bit.
"""

from repro.faults.byzantine import (
    BYZANTINE_STRATEGIES,
    AdversaryReport,
    adversary_search,
    lie,
    plan_strategy,
)
from repro.faults.plan import (
    FAULT_PROFILES,
    CrashWindow,
    FaultPlan,
    FaultStats,
    LinkFaults,
    fault_profile,
)
from repro.faults.runtime import FaultyResult, FaultyRuntime, run_faulty, topk_error_count

__all__ = [
    "AdversaryReport",
    "BYZANTINE_STRATEGIES",
    "CrashWindow",
    "FAULT_PROFILES",
    "FaultPlan",
    "FaultStats",
    "FaultyResult",
    "FaultyRuntime",
    "LinkFaults",
    "adversary_search",
    "fault_profile",
    "lie",
    "plan_strategy",
    "run_faulty",
    "topk_error_count",
]
