"""Registry adapter for the faithful object engine.

The faithful engine is :class:`~repro.core.monitor.TopKMonitor` — the
transport/ledger/event implementation of Algorithm 1.  It is the only
engine that supports per-step auditing, message recording, and the A1/A3
ablations, which is why the counting engines point at it in their error
messages.  The core module stays registry-agnostic; this adapter is the
only place that binds it to the engine seam.
"""

from __future__ import annotations

import numpy as np

from repro.core.monitor import MonitorConfig, TopKMonitor
from repro.engine.registry import (
    CAP_ABLATIONS,
    CAP_AUDIT,
    CAP_EVENTS,
    CAP_MESSAGES,
    CAP_TRAJECTORY,
    register_engine,
)
from repro.engine.results import RunResult

__all__ = []


def _run_faithful(values: np.ndarray, k: int, *, seed, config: MonitorConfig) -> RunResult:
    result = TopKMonitor(n=values.shape[1], k=k, seed=seed, config=config).run(values)
    return RunResult.from_monitor(result, engine="faithful")


register_engine(
    "faithful",
    description="object-model monitor: transports, ledger, events; audit + all ablations",
    capabilities={CAP_TRAJECTORY, CAP_EVENTS, CAP_MESSAGES, CAP_AUDIT, CAP_ABLATIONS},
    runner=_run_faithful,
)
