"""Communication-model substrate: messages, cost ledger, transports.

This package implements the paper's Section 2 model exactly:

* nodes send unicast messages to the coordinator,
* the coordinator sends unicast messages to single nodes,
* the coordinator broadcasts messages received by all nodes at once,
* every message costs one unit, delivery is instantaneous, and a full
  protocol may run between two consecutive observation times.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover — static names for type checkers
    from repro.model.ledger import LedgerSnapshot, MessageLedger
    from repro.model.message import Message, MessageKind, Phase
    from repro.model.timeline import render_phase_summary, render_timeline
    from repro.model.transport import CountingTransport, RecordingTransport, Transport

__all__ = [
    "Message",
    "MessageKind",
    "Phase",
    "MessageLedger",
    "LedgerSnapshot",
    "Transport",
    "render_timeline",
    "render_phase_summary",
    "CountingTransport",
    "RecordingTransport",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.model.ledger": ("LedgerSnapshot", "MessageLedger"),
        "repro.model.message": ("Message", "MessageKind", "Phase"),
        "repro.model.timeline": ("render_phase_summary", "render_timeline"),
        "repro.model.transport": ("CountingTransport", "RecordingTransport", "Transport"),
    },
)
