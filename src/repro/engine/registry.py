"""Engine registry: the pluggable seam for Algorithm-1 implementations.

Three engines ship with the package.  Each registers itself when its module
is imported, and a lookup by name imports only that engine's module (see
``_BUILTIN_MODULES``), so a ``fast`` run never loads the faithful monitor:

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

Registration reaches offline replay only.  The streaming service
(:mod:`repro.service`) hosts one kind of live session, the counting
kernel :class:`~repro.engine.vectorized.IncrementalKernel`, which it
builds and checkpoints directly.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "CAP_TRAJECTORY",
    "CAP_COUNTING",
    "CAP_EVENTS",
    "CAP_MESSAGES",
    "CAP_AUDIT",
    "CAP_ABLATIONS",
    "EngineInfo",
    "ENGINES",
    "register_engine",
    "get_engine",
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

#: ``runner(values, k, *, seed, config) -> RunResult``
EngineRunner = Callable[..., Any]


@dataclass(frozen=True)
class EngineInfo:
    """One registered engine: identity, capabilities, and its runner."""

    name: str
    description: str
    capabilities: frozenset[str]
    runner: EngineRunner

    def supports(self, capability: str) -> bool:
        """Whether this engine advertises ``capability``."""
        return capability in self.capabilities


ENGINES: dict[str, EngineInfo] = {}

# Built-in engine name -> the module that registers it on import.  A lookup
# imports only the module of the name it asks for, so `import repro` and a
# `fast` run stay cheap.  Third-party engines can register before or after
# the built-ins load, but never under a built-in name.
_BUILTIN_MODULES = {
    "faithful": "repro.engine.faithful",
    "fast": "repro.engine.vectorized",
    "vectorized": "repro.engine.vectorized",
}


def _load_builtin(name: str) -> None:
    """Import the module that registers built-in engine ``name``, if any."""
    module = _BUILTIN_MODULES.get(name)
    if module is not None and name not in ENGINES:
        importlib.import_module(module)


def register_engine(
    name: str,
    *,
    description: str,
    capabilities=(),
    runner: EngineRunner,
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

    Returns
    -------
    The stored :class:`EngineInfo`.

    Raises
    ------
    ConfigurationError
        If ``name`` is already registered, or is a built-in name (taken
        even before its module has loaded).
    """
    builtin = _BUILTIN_MODULES.get(name)
    # A built-in name may be registered only while its own module loads,
    # i.e. once that module is in ``sys.modules``.
    if name in ENGINES or (builtin is not None and builtin not in sys.modules):
        raise ConfigurationError(f"engine {name!r} is already registered")
    info = EngineInfo(
        name=name,
        description=description,
        capabilities=frozenset(capabilities),
        runner=runner,
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
    _load_builtin(name)
    try:
        return ENGINES[name]
    except KeyError:
        known = sorted(set(ENGINES) | set(_BUILTIN_MODULES))
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: {', '.join(known)}"
        ) from None


def list_engines() -> list[EngineInfo]:
    """All registered engines in name order (built-ins loaded on demand).

    >>> [info.name for info in list_engines()]
    ['faithful', 'fast', 'vectorized']
    """
    for name in _BUILTIN_MODULES:
        _load_builtin(name)
    return [ENGINES[name] for name in sorted(ENGINES)]
