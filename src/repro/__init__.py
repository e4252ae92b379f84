"""topkmon — Online Top-k-Position Monitoring of Distributed Data Streams.

Reproduction of Mäcker, Malatyali, Meyer auf der Heide (IPDPS 2015,
arXiv:1410.7912): a coordinator continuously tracks which ``k`` of ``n``
distributed nodes currently observe the largest values, while minimizing the
number of exchanged messages.

Quickstart
----------
Describe a run with a :class:`RunSpec`, execute it with :func:`run`:

>>> import repro
>>> spec = repro.RunSpec("random_walk", k=4, n=32, steps=2000, seed=2)
>>> result = repro.run(spec)            # default engine: "fast"
>>> result.total_messages < 32 * 2000   # far below the naive algorithm
True

Engines are registered implementations of Algorithm 1 and are bit-identical
for equal seeds — pick by need, not by fear of drift:

>>> faithful = repro.run(spec, engine="faithful")   # ledger, events, audit
>>> faithful.total_messages == result.total_messages
True
>>> [e.name for e in repro.list_engines()]
['faithful', 'fast', 'vectorized']

``RunSpec`` also takes a raw integer ``(T, n)`` matrix in place of the
catalog name, and a :class:`MonitorConfig` for audit/ablation knobs (those
run on the faithful engine).  For deployment-shaped streaming use
:class:`OnlineSession` directly; ``python -m repro --list-engines`` and
``--list-workloads`` show what is registered.

Public surface
--------------
* :func:`run` / :class:`RunSpec` / :class:`RunResult` — the unified run API.
* :func:`serve` / :func:`connect` — the streaming session service
  (:mod:`repro.service`): thousands of live monitors behind one batched
  JSONL-over-TCP serving layer.
* :func:`register_engine` / :func:`get_engine` / :func:`list_engines` — the
  engine registry (pluggable Algorithm-1 implementations).
* :class:`TopKMonitor` / :class:`OnlineSession` — Algorithm 1, object form.
* :func:`maximum_protocol` / :func:`minimum_protocol` — Algorithm 2.
* :mod:`repro.streams` — workload generators and the named catalog.
* :mod:`repro.baselines` — naive / classical / offline-OPT / Lam /
  Babcock–Olston comparators.
* :mod:`repro.analysis` — theoretical bounds, competitive ratios, sweeps
  and their pluggable execution backends (serial/thread/process and the
  distributed work-queue ``queue`` backend with checkpoint/resume).
* :mod:`repro.experiments` — the E1–E9 reproduction harness.

See ``README.md`` for the quickstart and registry tables, and
``docs/architecture.md`` for the registry/message-protocol architecture.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover — static names for type checkers
    from repro.api import RunSpec, connect, run, serve
    from repro.core.checkpoint import restore_session, save_session
    from repro.core.config import MonitorConfig, ProtocolConfig
    from repro.core.events import MonitorResult, StepEvent, StepKind
    from repro.core.filters import Filter, FilterSet
    from repro.core.monitor import OnlineSession, TopKMonitor
    from repro.core.protocols import ProtocolOutcome, maximum_protocol, minimum_protocol
    from repro.core.selection import select_top_k
    from repro.engine.registry import EngineInfo, get_engine, list_engines, register_engine
    from repro.engine.results import RunResult
    from repro.errors import (
        ConfigurationError,
        ExperimentError,
        InvariantViolation,
        ProtocolError,
        RegistryError,
        ReproError,
        WorkloadError,
    )

__version__ = "8.0.0"

__all__ = [
    "run",
    "RunSpec",
    "serve",
    "connect",
    "RunResult",
    "EngineInfo",
    "register_engine",
    "get_engine",
    "list_engines",
    "TopKMonitor",
    "OnlineSession",
    "MonitorConfig",
    "MonitorResult",
    "StepEvent",
    "StepKind",
    "Filter",
    "FilterSet",
    "ProtocolConfig",
    "ProtocolOutcome",
    "maximum_protocol",
    "minimum_protocol",
    "select_top_k",
    "save_session",
    "restore_session",
    "ReproError",
    "ConfigurationError",
    "RegistryError",
    "WorkloadError",
    "ProtocolError",
    "InvariantViolation",
    "ExperimentError",
    "__version__",
]

#: Subpackages resolved on first access (and advertised by ``dir()``).
_LAZY_SUBMODULES = (
    "analysis",
    "baselines",
    "engine",
    "experiments",
    "extensions",
    "model",
    "obs",
    "service",
    "streams",
    "util",
)

# Every public name loads on first access (see repro._lazy), so a process
# imports only the layers it runs: a served process never loads the
# faithful monitor, a ``fast`` run never loads the message model.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.api": ("RunSpec", "connect", "run", "serve"),
        "repro.core.checkpoint": ("restore_session", "save_session"),
        "repro.core.config": ("MonitorConfig", "ProtocolConfig"),
        "repro.core.events": ("MonitorResult", "StepEvent", "StepKind"),
        "repro.core.filters": ("Filter", "FilterSet"),
        "repro.core.monitor": ("OnlineSession", "TopKMonitor"),
        "repro.core.protocols": ("ProtocolOutcome", "maximum_protocol", "minimum_protocol"),
        "repro.core.selection": ("select_top_k",),
        "repro.engine.registry": ("EngineInfo", "get_engine", "list_engines", "register_engine"),
        "repro.engine.results": ("RunResult",),
        "repro.errors": (
            "ConfigurationError",
            "ExperimentError",
            "InvariantViolation",
            "ProtocolError",
            "RegistryError",
            "ReproError",
            "WorkloadError",
        ),
    },
    _LAZY_SUBMODULES,
)
