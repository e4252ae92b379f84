"""Pluggable execution backends for :func:`repro.analysis.sweeps.run_sweep`.

A backend turns a flat list of measurement jobs into samples.  The sweep
harness derives all seeds up front and indexes every job, so a backend may
complete jobs in **any order** — results are placed by index, and any
worker count yields identical sweeps.

Built-ins:

* ``serial`` — in-process loop (the ``workers=1`` path).
* ``thread`` — :class:`~concurrent.futures.ThreadPoolExecutor`; works with
  closures and benefits NumPy-heavy measures (which release the GIL).
* ``process`` — :class:`~concurrent.futures.ProcessPoolExecutor`; true
  parallelism for pure-Python measures, requires a picklable module-level
  ``measure``.
* ``queue`` — the distributed work-queue coordinator
  (:mod:`repro.analysis.distributed_backend`): worker processes pull job
  chunks from a ``multiprocessing.Manager`` queue, optionally served over
  a socket so workers attach from other hosts.

Both pool backends collect futures with
:func:`~concurrent.futures.as_completed`, so one slow early sample never
serializes result collection.

A new backend plugs in the same way the built-ins do — register from its
own module::

    from repro.analysis.backends import register_backend

    @register_backend("cluster", description="fan jobs out over the host pool")
    def _cluster(measure, jobs, workers):
        ...
        yield job_index, sample

Example::

    >>> from repro.analysis.backends import get_backend, list_backends
    >>> [info.name for info in list_backends()]
    ['process', 'queue', 'serial', 'thread']
    >>> get_backend("serial").description
    'in-process loop; no pool overhead (workers ignored)'
"""

from __future__ import annotations

import importlib
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "BackendInfo",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "list_backends",
]

#: ``runner(measure, jobs, workers)`` yields ``(job_index, sample)`` pairs,
#: in any order; ``jobs`` holds the keyword arguments of each measure call.
BackendRunner = Callable[
    [Callable[..., float], Sequence[Mapping[str, Any]], int],
    Iterator[tuple[int, float]],
]


@dataclass(frozen=True)
class BackendInfo:
    """One registered execution backend."""

    name: str
    description: str
    runner: BackendRunner


BACKENDS: dict[str, BackendInfo] = {}

# Built-in backend name -> the module that registers it on import, as in
# the engine registry.  The queue backend lives in its own module (it drags
# multiprocessing machinery along); the other built-ins register below, as
# this module loads.  Third-party backends can register before or after
# the queue backend loads, but never under its name.
_BUILTIN_MODULES = {"queue": "repro.analysis.distributed_backend"}


def _load_builtin(name: str) -> None:
    """Import the module that registers built-in backend ``name``, if any."""
    module = _BUILTIN_MODULES.get(name)
    if module is not None and name not in BACKENDS:
        importlib.import_module(module)


def register_backend(name: str, *, description: str):
    """Decorator registering a :data:`BackendRunner` under ``name``.

    Args
    ----
    name:
        Registry key, as passed to ``run_sweep(..., backend=name)``.
    description:
        One line for listings (README tables, ``list_backends``).

    Returns
    -------
    The decorator; it returns the runner unchanged.

    Raises
    ------
    ConfigurationError
        If ``name`` is already registered, or is a built-in name (taken
        even before its module has loaded).
    """
    builtin = _BUILTIN_MODULES.get(name)
    # A built-in name may be registered only while its own module loads,
    # i.e. once that module is in ``sys.modules``.
    if name in BACKENDS or (builtin is not None and builtin not in sys.modules):
        raise ConfigurationError(f"backend {name!r} is already registered")

    def deco(fn: BackendRunner) -> BackendRunner:
        if name in BACKENDS:
            raise ConfigurationError(f"backend {name!r} is already registered")
        BACKENDS[name] = BackendInfo(name=name, description=description, runner=fn)
        return fn

    return deco


def get_backend(name: str) -> BackendInfo:
    """Look up a registered backend by name.

    Args
    ----
    name:
        A registered backend name (``serial``, ``thread``, ``process``,
        ``queue``, or anything registered by third-party code).

    Returns
    -------
    The backend's :class:`BackendInfo`.

    Raises
    ------
    ConfigurationError
        If no backend of that name is registered.
    """
    _load_builtin(name)
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor backend {name!r}; registered backends: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None


def list_backends() -> list[BackendInfo]:
    """All registered backends in name order (built-ins loaded on demand)."""
    for name in _BUILTIN_MODULES:
        _load_builtin(name)
    return [BACKENDS[name] for name in sorted(BACKENDS)]


@register_backend("serial", description="in-process loop; no pool overhead (workers ignored)")
def _serial(measure, jobs, workers) -> Iterator[tuple[int, float]]:
    for idx, kwargs in enumerate(jobs):
        yield idx, float(measure(**kwargs))


def _pool(pool_cls, measure, jobs, workers) -> Iterator[tuple[int, float]]:
    with pool_cls(max_workers=workers) as pool:
        futures = {pool.submit(measure, **kwargs): idx for idx, kwargs in enumerate(jobs)}
        for future in as_completed(futures):
            yield futures[future], float(future.result())


@register_backend("thread", description="thread pool; closures ok, NumPy measures release the GIL")
def _thread(measure, jobs, workers) -> Iterator[tuple[int, float]]:
    yield from _pool(ThreadPoolExecutor, measure, jobs, workers)


@register_backend("process", description="process pool; true parallelism, measure must pickle")
def _process(measure, jobs, workers) -> Iterator[tuple[int, float]]:
    yield from _pool(ProcessPoolExecutor, measure, jobs, workers)
