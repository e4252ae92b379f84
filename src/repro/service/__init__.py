"""Streaming session service: many live top-k monitors behind one server.

This package turns the repo's offline replay machinery into a *serving*
subsystem (the paper's actual deployment shape — values arrive over time,
answers must be current):

* :class:`~repro.service.manager.SessionManager` — thousands of concurrent
  live coordinators, each an
  :class:`~repro.engine.vectorized.IncrementalKernel`, stepped in
  batched sweeps that decide quietness for whole groups of sessions with
  one stacked kernel comparison
  (:func:`repro.engine.kernel.violates_stacked`), draining deep inboxes
  with the kernel's cross-row lookahead, and persisting/restoring whole
  fleets via :meth:`~repro.service.manager.SessionManager.checkpoint` —
  all bit-identical to per-session stepping.
* :class:`~repro.service.server.ServiceServer` — an asyncio JSONL-over-TCP
  front end (``python -m repro.service --serve host:port``, durable with
  ``--checkpoint-dir``) with bounded per-session inboxes (backpressure)
  and a metrics endpoint.
* :class:`~repro.service.protocol.Frontend` — the connection layer both
  front doors share (the listener, the JSONL and binary-frame loops, the
  error envelope; each front door adds only its state and an op table),
  with :class:`~repro.service.protocol.ServingHandle`, the thread-and-loop
  helper behind :func:`start_server` / :func:`start_fleet`.
* :class:`~repro.service.client.ServiceClient` — the blocking client:
  push-a-row / read-top-k / read-message-count / checkpoint.
* :class:`~repro.service.fleet.FleetRouter` — the multi-process form
  (``repro.serve(workers=N)``): N worker processes behind one
  consistent-hashing router with a hot standby, failover that restores a
  dead worker's checkpoint directory and feed log, and live migration —
  same wire protocol, bit-identical results.

Quickstart (in one process; :func:`repro.serve` / :func:`repro.connect`
are the api-level spellings):

>>> from repro.service import ServiceClient, start_server
>>> server = start_server()
>>> client = ServiceClient(server.address)
>>> session = client.create_session(n=4, k=2, seed=1)
>>> session.feed([40, 10, 30, 20])["pending"] >= 0
True
>>> session.topk(wait=True)
[0, 2]
>>> client.close(); server.close()

Every session is the ``vectorized`` engine's kernel, bit-identical to
every engine's offline run on the same rows; a ``create`` that names any
other engine is refused.  The instrumented in-process form of a live
session is :class:`~repro.core.monitor.OnlineSession`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover — static names for type checkers
    from repro.service.client import ServiceClient, SessionHandle
    from repro.service.fleet import FleetHandle, FleetRouter, HashRing, start_fleet
    from repro.service.manager import (
        DEFAULT_INBOX_LIMIT,
        DEFAULT_MAX_NODES,
        SessionManager,
        SessionView,
    )
    from repro.service.metrics import MetricsRecorder, MetricsSnapshot, aggregate_snapshots
    from repro.service.server import ServerHandle, ServiceServer, start_server

__all__ = [
    "SessionManager",
    "SessionView",
    "MetricsRecorder",
    "MetricsSnapshot",
    "aggregate_snapshots",
    "ServiceServer",
    "ServerHandle",
    "start_server",
    "FleetRouter",
    "FleetHandle",
    "start_fleet",
    "HashRing",
    "ServiceClient",
    "SessionHandle",
    "DEFAULT_INBOX_LIMIT",
    "DEFAULT_MAX_NODES",
]

# Lazy, so a worker (``python -m repro.service --serve``) loads neither the
# client nor the fleet router it never runs.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.service.client": ("ServiceClient", "SessionHandle"),
        "repro.service.fleet": ("FleetHandle", "FleetRouter", "HashRing", "start_fleet"),
        "repro.service.manager": (
            "DEFAULT_INBOX_LIMIT",
            "DEFAULT_MAX_NODES",
            "SessionManager",
            "SessionView",
        ),
        "repro.service.metrics": ("MetricsRecorder", "MetricsSnapshot", "aggregate_snapshots"),
        "repro.service.server": ("ServerHandle", "ServiceServer", "start_server"),
    },
)
