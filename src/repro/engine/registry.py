"""Engine registry: the pluggable seam for Algorithm-1 implementations.

Three engines ship with the package and self-register on first lookup:

* ``faithful`` — the object-model monitor (transports, ledger, events;
  audit and every ablation knob).
* ``vectorized`` — the flat-NumPy per-step counting engine.
* ``fast`` — the segment-skipping counting engine: the same kernel,
  stepped by its quiet-row lookahead instead of row by row.

All three follow the shared randomness convention, so for equal seeds their
:class:`~repro.engine.results.RunResult` output is bit-identical — new
engines that claim the same are held to it by the differential tests.

A new engine registers itself from its own module and becomes reachable by
name everywhere (``repro.run(spec, engine="myengine")``, the CLI's
``--engine`` / ``--list-engines``) with no changes to any other file::

    from repro.engine.registry import CAP_COUNTING, CAP_TRAJECTORY, register_engine
    from repro.engine.results import RunResult

    def _runner(values, k, *, seed, config):
        ...
        return RunResult(...)

    register_engine(
        "myengine",
        description="one line for --list-engines",
        capabilities={CAP_TRAJECTORY, CAP_COUNTING},
        runner=_runner,
    )

Capability flags are advisory metadata: they tell callers (and the CLI
listing) what a result will contain, while unsupported *requests* (e.g.
``audit=True`` on a counting engine) fail loudly inside the runner.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError, RegistryError

__all__ = [
    "CAP_TRAJECTORY",
    "CAP_COUNTING",
    "CAP_EVENTS",
    "CAP_MESSAGES",
    "CAP_AUDIT",
    "CAP_ABLATIONS",
    "CAP_STREAMING",
    "CAP_CHECKPOINT",
    "EngineInfo",
    "ENGINES",
    "register_engine",
    "get_engine",
    "get_session_factory",
    "get_session_codec",
    "list_engines",
]

#: Per-step top-k trajectory in the result.
CAP_TRAJECTORY = "trajectory"
#: Counter-only accounting (no transports or message objects).
CAP_COUNTING = "counting"
#: Per-step :class:`~repro.core.events.StepEvent` records.
CAP_EVENTS = "events"
#: Full message-object recording (``record_messages=True``).
CAP_MESSAGES = "messages"
#: Per-step ground-truth auditing (``audit=True``).
CAP_AUDIT = "audit"
#: Ablation knobs (``always_reset``, ``broadcast_every_round``).
CAP_ABLATIONS = "ablations"
#: Incremental row-at-a-time stepping (``session_factory`` registered);
#: required to host live sessions in :mod:`repro.service`.
CAP_STREAMING = "streaming"
#: Session checkpoint/restore (``session_snapshot``/``session_restore``
#: registered); required for the service's ``--checkpoint-dir`` survival.
CAP_CHECKPOINT = "checkpoint"

#: ``runner(values, k, *, seed, config) -> RunResult``
EngineRunner = Callable[..., Any]
#: ``session_factory(n, k, *, seed, config) -> stepper`` where the stepper
#: exposes ``step(row) -> topk``, ``time``, ``topk`` and ``message_count``
#: (the contract :mod:`repro.service` builds on).
SessionFactory = Callable[..., Any]
#: ``session_snapshot(stepper) -> dict`` — JSON-safe full algorithmic
#: state, bit-identically invertible by the paired ``session_restore``.
SessionSnapshot = Callable[[Any], dict]
#: ``session_restore(state) -> stepper`` — inverse of ``session_snapshot``.
SessionRestore = Callable[[dict], Any]


@dataclass(frozen=True)
class EngineInfo:
    """One registered engine: identity, capabilities, and entry points."""

    name: str
    description: str
    capabilities: frozenset[str]
    runner: EngineRunner
    session_factory: SessionFactory | None = None
    session_snapshot: SessionSnapshot | None = None
    session_restore: SessionRestore | None = None

    def supports(self, capability: str) -> bool:
        """Whether this engine advertises ``capability``."""
        return capability in self.capabilities


ENGINES: dict[str, EngineInfo] = {}

# Built-in engines live in their own modules and self-register at import;
# they are imported lazily so `import repro` stays cheap and so third-party
# engines can register before, after, or instead of them.
_BUILTIN_MODULES = (
    "repro.engine.faithful",
    "repro.engine.vectorized",  # registers both counting engines
)
_builtins_loaded = False


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def register_engine(
    name: str,
    *,
    description: str,
    capabilities=(),
    runner: EngineRunner,
    session_factory: SessionFactory | None = None,
    session_snapshot: SessionSnapshot | None = None,
    session_restore: SessionRestore | None = None,
) -> EngineInfo:
    """Register an engine under ``name``.

    Args
    ----
    name:
        Registry key, as passed to ``repro.run(spec, engine=name)`` and
        the CLI's ``--engine``.
    description:
        One line for ``--list-engines`` and the README engine table.
    capabilities:
        Iterable of the ``CAP_*`` flags the engine's results support.
    runner:
        ``runner(values, k, *, seed, config) -> RunResult``.
    session_factory:
        Optional ``(n, k, *, seed, config) -> stepper`` constructor for
        incremental row-at-a-time sessions; registering one is what makes
        the engine usable by the streaming service (advertise it with
        :data:`CAP_STREAMING`).
    session_snapshot / session_restore:
        Optional checkpoint codec for the engine's steppers: ``snapshot``
        captures a stepper's full algorithmic state as a JSON-safe dict
        and ``restore`` rebuilds a stepper that behaves bit-identically —
        including future coin flips.  Registering the pair is what lets
        :meth:`repro.service.SessionManager.checkpoint` persist sessions
        hosted on this engine (advertise with :data:`CAP_CHECKPOINT`).

    Returns
    -------
    The stored :class:`EngineInfo`.

    Raises
    ------
    ConfigurationError
        If ``name`` is already registered.
    RegistryError
        If a declared capability is not backed by its seam: ``streaming``
        without a ``session_factory``, or ``checkpoint`` without the full
        ``session_snapshot``/``session_restore`` codec.  (The static
        linter's R3 rule checks the same contract — and its converse —
        at review time; this is the runtime backstop for engines
        registered from outside the repo.)
    """
    if name in ENGINES:
        raise ConfigurationError(f"engine {name!r} is already registered")
    caps = frozenset(capabilities)
    if (session_snapshot is None) != (session_restore is None):
        raise RegistryError(
            f"engine {name!r} must register session_snapshot and session_restore "
            f"together (a one-sided checkpoint codec cannot round-trip)"
        )
    if CAP_STREAMING in caps and session_factory is None:
        raise RegistryError(
            f"engine {name!r} declares the {CAP_STREAMING!r} capability but registers "
            f"no session_factory; the streaming service would accept sessions it "
            f"cannot host — register a factory or drop the capability"
        )
    if CAP_CHECKPOINT in caps and (session_snapshot is None or session_restore is None):
        raise RegistryError(
            f"engine {name!r} declares the {CAP_CHECKPOINT!r} capability but registers "
            f"no session_snapshot/session_restore codec; checkpoints of its sessions "
            f"could never be taken — register the codec pair or drop the capability"
        )
    info = EngineInfo(
        name=name,
        description=description,
        capabilities=caps,
        runner=runner,
        session_factory=session_factory,
        session_snapshot=session_snapshot,
        session_restore=session_restore,
    )
    ENGINES[name] = info
    return info


def get_engine(name: str) -> EngineInfo:
    """Look up a registered engine by name.

    Args
    ----
    name:
        A registered engine name (built-ins load on first lookup).

    Returns
    -------
    The engine's :class:`EngineInfo`.

    Raises
    ------
    ConfigurationError
        If no engine of that name is registered.

    Example
    -------
    >>> get_engine("fast").supports(CAP_COUNTING)
    True
    """
    _load_builtins()
    try:
        return ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: {', '.join(sorted(ENGINES))}"
        ) from None


def get_session_factory(name: str) -> SessionFactory:
    """The streaming-session constructor of a registered engine.

    Args
    ----
    name:
        A registered engine name.

    Returns
    -------
    The engine's ``session_factory``.

    Raises
    ------
    ConfigurationError
        If the engine exists but registered no session factory (it cannot
        host live sessions), or if no engine of that name is registered.

    Example
    -------
    >>> stepper = get_session_factory("vectorized")(4, 2, seed=0)
    >>> stepper.step([30, 10, 20, 40]).tolist()
    [0, 3]
    """
    info = get_engine(name)
    if info.session_factory is None:
        streaming = sorted(e.name for e in ENGINES.values() if e.session_factory is not None)
        raise ConfigurationError(
            f"engine {name!r} does not support streaming sessions; "
            f"streaming engines: {', '.join(streaming)}"
        )
    return info.session_factory


def get_session_codec(name: str) -> tuple[SessionSnapshot, SessionRestore]:
    """The checkpoint codec of a registered engine.

    Args
    ----
    name:
        A registered engine name.

    Returns
    -------
    The engine's ``(session_snapshot, session_restore)`` pair.

    Raises
    ------
    ConfigurationError
        If the engine registered no checkpoint codec (its sessions cannot
        be persisted), or if no engine of that name is registered.

    Example
    -------
    >>> snapshot, restore = get_session_codec("vectorized")
    >>> stepper = get_session_factory("vectorized")(4, 2, seed=0)
    >>> _ = stepper.step([30, 10, 20, 40])
    >>> restore(snapshot(stepper)).topk.tolist()
    [0, 3]
    """
    info = get_engine(name)
    if info.session_snapshot is None or info.session_restore is None:
        supported = sorted(e.name for e in ENGINES.values() if e.session_snapshot is not None)
        raise ConfigurationError(
            f"engine {name!r} does not support session checkpointing; "
            f"checkpointable engines: {', '.join(supported)}"
        )
    return info.session_snapshot, info.session_restore


def list_engines() -> list[EngineInfo]:
    """All registered engines in name order (built-ins loaded on demand).

    >>> [info.name for info in list_engines()]
    ['faithful', 'fast', 'vectorized']
    """
    _load_builtins()
    return [ENGINES[name] for name in sorted(ENGINES)]
