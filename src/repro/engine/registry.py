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

Registration reaches offline replay only.  The streaming service
(:mod:`repro.service`) hosts one kind of live session, the counting
kernel :class:`~repro.engine.vectorized.IncrementalKernel`, which it
builds and checkpoints directly.
"""

from __future__ import annotations

import importlib
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
        If ``name`` is already registered.
    """
    if name in ENGINES:
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
    _load_builtins()
    try:
        return ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: {', '.join(sorted(ENGINES))}"
        ) from None


def list_engines() -> list[EngineInfo]:
    """All registered engines in name order (built-ins loaded on demand).

    >>> [info.name for info in list_engines()]
    ['faithful', 'fast', 'vectorized']
    """
    _load_builtins()
    return [ENGINES[name] for name in sorted(ENGINES)]
