"""The paper's primary contribution.

* :mod:`repro.core.filters` — filter intervals and the Lemma 2.2 validity
  predicate,
* :mod:`repro.core.protocols` — Algorithm 2 (MaximumProtocol) and its
  minimum twin,
* :mod:`repro.core.selection` — repeated-max top-k selection used by
  ``FilterReset``,
* :mod:`repro.core.monitor` — Algorithm 1, the filter-based
  Top-k-Position monitor,
* :mod:`repro.core.events` — step-level result/event records,
* :mod:`repro.core.config` — the monitor's and the protocols' config
  dataclasses (imports only :mod:`dataclasses`, so the counting engines
  and the service read them without loading the monitor or the message
  model),
* :mod:`repro.core.checkpoint` — save/restore of a live
  :class:`~repro.core.monitor.OnlineSession`.

The names below load on first access (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover — static names for type checkers
    from repro.core.checkpoint import restore_session, save_session
    from repro.core.config import MonitorConfig, ProtocolConfig
    from repro.core.events import MonitorResult, StepEvent, StepKind
    from repro.core.filters import Filter, FilterSet, filters_from_sides
    from repro.core.monitor import TopKMonitor
    from repro.core.protocols import ProtocolOutcome, maximum_protocol, minimum_protocol
    from repro.core.selection import select_top_k

__all__ = [
    "Filter",
    "FilterSet",
    "filters_from_sides",
    "ProtocolConfig",
    "ProtocolOutcome",
    "maximum_protocol",
    "minimum_protocol",
    "select_top_k",
    "MonitorResult",
    "save_session",
    "restore_session",
    "StepEvent",
    "StepKind",
    "MonitorConfig",
    "TopKMonitor",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.checkpoint": ("restore_session", "save_session"),
        "repro.core.config": ("MonitorConfig", "ProtocolConfig"),
        "repro.core.events": ("MonitorResult", "StepEvent", "StepKind"),
        "repro.core.filters": ("Filter", "FilterSet", "filters_from_sides"),
        "repro.core.monitor": ("TopKMonitor",),
        "repro.core.protocols": ("ProtocolOutcome", "maximum_protocol", "minimum_protocol"),
        "repro.core.selection": ("select_top_k",),
    },
)
