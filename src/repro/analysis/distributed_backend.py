"""The ``queue`` execution backend: a coordinator + worker-pool work queue.

This is the third leg of the scaling architecture (after the engine
registry and the unified run API): a backend for
:func:`repro.analysis.sweeps.run_sweep` where a **coordinator** process
shards the flat job list into chunks, feeds them to ``N`` worker processes
over a :class:`multiprocessing.Manager` queue, and collects
``(job_index, sample)`` pairs as they complete.  Because the sweep harness
precomputes every per-grid-point seed up front and places samples by index,
results are **bit-identical** to the ``serial`` backend at any worker
count and any chunking.

Two transport modes:

* **local** (default) — queues live in a :func:`multiprocessing.Manager`
  and workers are forked/spawned by the coordinator; the measure function
  is handed to the workers directly.
* **served** — set :func:`set_queue_options` (or the
  :func:`queue_options` context manager) with an ``address``; the
  coordinator serves the task/result queues on that TCP address via a
  :class:`~multiprocessing.managers.BaseManager`, and workers on *other
  hosts* attach with::

      python -m repro.analysis.distributed_backend \\
          --connect HOST:PORT --authkey SECRET

  Served tasks name the measure by its ``module:qualname`` import path, so
  in this mode the measure must be a module-level callable importable on
  every worker host (same repo checkout, same PYTHONPATH).

Checkpoint/resume is **not** implemented here: the sweep harness journals
completed job indices itself (see
:class:`repro.experiments.persist.SweepJournal`), so every backend —
including this one — gets ``run_sweep(..., checkpoint=..., resume=True)``
for free.

Example (single host)::

    >>> from repro.analysis.sweeps import run_sweep
    >>> def measure(rng_seed, x):
    ...     return float(rng_seed % 7 + x)
    >>> res = run_sweep("demo", [{"x": 1}], measure, repetitions=2,
    ...                 workers=2, backend="queue")
    >>> len(res.points)
    1
"""

from __future__ import annotations

import argparse
import importlib
import multiprocessing
import multiprocessing.managers
import queue as queue_mod
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.analysis.backends import register_backend
from repro.errors import ConfigurationError, ExperimentError
from repro.obs.registry import (
    OBS,
    clock as _obs_clock,
    counter as _obs_counter,
    gauge as _obs_gauge,
    histogram as _obs_histogram,
)
from repro.util.optionstate import OptionState

if __name__ == "__main__":
    # `python -m repro.analysis.distributed_backend` executes this module as
    # __main__; alias the canonical name before "queue" registers below, so
    # the registry sees the built-in's own module, and so that importing the
    # worker's measure (whose module may import this one, directly or
    # through the backend registry) does not re-execute the body.
    sys.modules.setdefault("repro.analysis.distributed_backend", sys.modules[__name__])

__all__ = [
    "QueueOptions",
    "set_queue_options",
    "queue_options",
    "current_queue_options",
    "main",
]


@dataclass(frozen=True)
class QueueOptions:
    """Tuning and transport knobs for the ``queue`` backend.

    Attributes
    ----------
    chunk_size:
        Jobs per task chunk.  ``None`` auto-sizes to roughly four chunks
        per worker (small enough for progress/checkpoint granularity,
        large enough to amortize queue round-trips).
    address:
        ``None`` for local Manager queues, or a ``(host, port)`` pair /
        ``"host:port"`` string to *serve* the queues over TCP so remote
        workers can attach.  Port 0 binds an ephemeral port (see
        ``on_listening``).
    authkey:
        Shared secret for the served manager (HMAC challenge, not
        encryption — run on a trusted network).
    remote_workers:
        How many externally attached workers to account for when served:
        the coordinator enqueues one shutdown sentinel per local *and*
        remote worker.
    on_listening:
        Optional callback invoked with the actual ``(host, port)`` once
        the served manager is listening — the hook scripts/tests use to
        launch workers against an ephemeral port.
    """

    chunk_size: int | None = None
    address: tuple[str, int] | str | None = None
    authkey: bytes = b"repro-sweep"
    remote_workers: int = 0
    on_listening: Callable[[tuple[str, int]], None] | None = None


_OPTIONS: OptionState[QueueOptions] = OptionState(QueueOptions(), "queue option")


def current_queue_options() -> QueueOptions:
    """The options the next ``queue``-backend run will use."""
    return _OPTIONS.current()


def set_queue_options(**overrides: Any) -> QueueOptions:
    """Replace fields of the module-wide :class:`QueueOptions`.

    Returns the new options.  Raises :class:`ConfigurationError` for an
    unknown field name.
    """
    return _OPTIONS.set(**overrides)


def queue_options(**overrides: Any):
    """Temporarily override queue options (restored on exit)."""
    return _OPTIONS.override(**overrides)


# --------------------------------------------------------------------------
# shared plumbing


def _parse_address(address: tuple[str, int] | str) -> tuple[str, int]:
    """Normalize ``"host:port"`` / ``(host, port)`` to a tuple."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"address {address!r} is not of the form host:port")
        return host, int(port)
    host, port = address
    return str(host), int(port)


def _chunk(jobs: Sequence[Mapping[str, Any]], chunk_size: int | None, workers: int):
    """Shard indexed jobs into ``(chunk_id, [(job_index, kwargs), ...])`` tasks."""
    indexed = list(enumerate(jobs))
    if chunk_size is None:
        chunk_size = max(1, -(-len(indexed) // max(1, workers * 4)))
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (cid, indexed[lo : lo + chunk_size])
        for cid, lo in enumerate(range(0, len(indexed), chunk_size))
    ]


def _measure_path(measure: Callable[..., float]) -> str:
    """The ``module:qualname`` import path of a served-mode measure."""
    module = getattr(measure, "__module__", None)
    qualname = getattr(measure, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or module == "__main__":
        raise ConfigurationError(
            "served queue mode needs a module-level measure importable on every "
            f"worker host; got {measure!r} (module={module!r}, qualname={qualname!r})"
        )
    return f"{module}:{qualname}"


def _resolve_measure(path: str) -> Callable[..., float]:
    """Inverse of :func:`_measure_path` (runs on the worker)."""
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _run_chunk(measure, chunk) -> list[tuple[int, float]]:
    return [(idx, float(measure(**kwargs))) for idx, kwargs in chunk]


def _local_worker(task_q, result_q, measure) -> None:
    """Local worker loop: chunks in, ``("done", cid, pairs)`` out."""
    while True:
        task = task_q.get()
        if task is None:
            return
        cid, chunk = task
        try:
            result_q.put(("done", cid, _run_chunk(measure, chunk)))
        except BaseException as exc:  # surfaced (with traceback) by the coordinator
            result_q.put(("error", cid, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
            return


def _served_worker(task_q, result_q) -> int:
    """Served worker loop: tasks carry the measure's import path."""
    done = 0
    while True:
        task = task_q.get()
        if task is None:
            return done
        cid, measure_path, chunk = task
        try:
            measure = _resolve_measure(measure_path)
            result_q.put(("done", cid, _run_chunk(measure, chunk)))
            done += 1
        except BaseException as exc:
            result_q.put(("error", cid, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
            return done


def _attach_worker(host: str, port: int, authkey: bytes) -> int:
    """Connect to a served coordinator and work until the shutdown sentinel."""
    manager = _client_manager(host, port, authkey)
    return _served_worker(manager.get_task_queue(), manager.get_result_queue())


# The served queues live in the *server process*: the registered callables
# below run there (never in the coordinator, which talks through a client
# proxy like every worker).  Module-level singletons — not closures — so the
# registry survives pickling under the spawn start method (macOS/Windows).
_served_queues: dict[str, queue_mod.Queue] = {}


def _get_served_task_queue() -> queue_mod.Queue:
    return _served_queues.setdefault("task", queue_mod.Queue())


def _get_served_result_queue() -> queue_mod.Queue:
    return _served_queues.setdefault("result", queue_mod.Queue())


class _ServerManager(multiprocessing.managers.BaseManager):
    """Server side: owns the queues (one fresh server process per sweep)."""


_ServerManager.register("get_task_queue", callable=_get_served_task_queue)
_ServerManager.register("get_result_queue", callable=_get_served_result_queue)


class _ClientManager(multiprocessing.managers.BaseManager):
    """Client side: proxies to a served coordinator's queues."""


_ClientManager.register("get_task_queue")
_ClientManager.register("get_result_queue")


def _client_manager(host: str, port: int, authkey: bytes) -> _ClientManager:
    manager = _ClientManager(address=(host, port), authkey=authkey)
    manager.connect()
    return manager


# Registry families (repro/obs): chunk progress and straggler lag — the
# gap between successive chunk completions, whose tail is exactly the
# time the coordinator sat waiting on its slowest worker.
_OBS_CHUNKS = _obs_counter(
    "repro_sweep_chunks_total", "sweep chunks collected by the queue backend"
)
_OBS_OUTSTANDING = _obs_gauge(
    "repro_sweep_chunks_outstanding", "sweep chunks dispatched but not yet collected"
)
_OBS_STRAGGLER = _obs_histogram(
    "repro_sweep_chunk_gap_seconds",
    "gap between successive chunk completions (straggler lag)",
)


def _collect(result_q, n_chunks: int, procs: list) -> Iterator[tuple[int, float]]:
    """Drain ``n_chunks`` results, watching for dead workers and errors."""
    outstanding = n_chunks
    last_done = _obs_clock() if OBS.on else 0.0
    while outstanding:
        try:
            kind, cid, payload = result_q.get(timeout=1.0)
        except queue_mod.Empty:
            if procs and not any(p.is_alive() for p in procs):
                raise ExperimentError(
                    "queue backend: all local workers exited with "
                    f"{outstanding} chunk(s) outstanding"
                ) from None
            continue
        if kind == "error":
            raise ExperimentError(f"queue backend: worker failed on chunk {cid}:\n{payload}")
        outstanding -= 1
        if OBS.on:
            now = _obs_clock()
            _OBS_STRAGGLER.observe(now - last_done)
            last_done = now
            _OBS_CHUNKS.inc()
            _OBS_OUTSTANDING.set(outstanding)
        yield from payload


@register_backend(
    "queue",
    description="coordinator + worker processes over a Manager work queue; multi-host via --connect",
)
def _queue_backend(measure, jobs, workers) -> Iterator[tuple[int, float]]:
    """Run ``jobs`` through the work-queue coordinator (see module docs)."""
    opts = _OPTIONS.current()
    if opts.address is None:
        yield from _run_local(measure, jobs, workers, opts)
    else:
        yield from _run_served(measure, jobs, workers, opts)


def _run_local(measure, jobs, workers, opts: QueueOptions) -> Iterator[tuple[int, float]]:
    if workers < 1:
        raise ConfigurationError(
            "queue backend: workers=0 is only valid in served mode "
            "(queue_options(address=...)) where remote workers attach"
        )
    tasks = _chunk(jobs, opts.chunk_size, workers)
    with multiprocessing.Manager() as manager:
        task_q, result_q = manager.Queue(), manager.Queue()
        for task in tasks:
            task_q.put(task)
        for _ in range(workers):
            task_q.put(None)
        procs = [
            multiprocessing.Process(
                target=_local_worker, args=(task_q, result_q, measure), daemon=True
            )
            for _ in range(workers)
        ]
        for p in procs:
            p.start()
        try:
            yield from _collect(result_q, len(tasks), procs)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5)


def _run_served(measure, jobs, workers, opts: QueueOptions) -> Iterator[tuple[int, float]]:
    if workers + opts.remote_workers < 1:
        raise ConfigurationError(
            "served queue mode needs at least one worker (local workers + remote_workers)"
        )
    measure_path = _measure_path(measure)
    host, port = _parse_address(opts.address)
    manager = _ServerManager(address=(host, port), authkey=opts.authkey)
    manager.start()
    try:
        actual = manager.address
        if opts.on_listening is not None:
            opts.on_listening(actual)
        total_workers = workers + opts.remote_workers
        tasks = _chunk(jobs, opts.chunk_size, total_workers)
        client = _client_manager(actual[0], actual[1], opts.authkey)
        served_task_q, served_result_q = client.get_task_queue(), client.get_result_queue()
        for cid, chunk in tasks:
            served_task_q.put((cid, measure_path, chunk))
        for _ in range(total_workers):
            served_task_q.put(None)
        procs = [
            multiprocessing.Process(
                target=_attach_worker, args=(actual[0], actual[1], opts.authkey), daemon=True
            )
            for _ in range(workers)
        ]
        for p in procs:
            p.start()
        try:
            # Liveness supervision only makes sense when the local workers
            # are the *only* workers: with remote workers attached, a local
            # worker that drains its sentinel and exits is healthy, not a
            # stall — and remote progress is invisible to us anyway.
            supervised = procs if opts.remote_workers == 0 else []
            yield from _collect(served_result_q, len(tasks), supervised)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5)
    finally:
        manager.shutdown()


# --------------------------------------------------------------------------
# worker CLI


def build_parser() -> argparse.ArgumentParser:
    """Construct the worker CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.distributed_backend",
        description="Attach a sweep worker to a served queue-backend coordinator.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address the coordinator is serving its queues on",
    )
    parser.add_argument(
        "--authkey",
        default="repro-sweep",
        help="shared secret of the served manager (default: repro-sweep)",
    )
    parser.add_argument(
        "--retry-seconds",
        type=float,
        default=0.0,
        help="keep retrying the connection this long before giving up",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Worker entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    host, port = _parse_address(args.connect)
    deadline = time.monotonic() + args.retry_seconds
    while True:
        try:
            done = _attach_worker(host, port, args.authkey.encode())
            break
        except ConnectionError:
            if time.monotonic() >= deadline:
                print(f"error: cannot connect to {host}:{port}", file=sys.stderr)
                return 2
            time.sleep(0.2)
        except multiprocessing.AuthenticationError:
            print(f"error: authkey rejected by {host}:{port}", file=sys.stderr)
            return 2
        except EOFError:
            # The coordinator finished its sweep and shut the manager down
            # between our connect and the next queue op: nothing left to do.
            print("coordinator gone; exiting", file=sys.stderr)
            return 0
    print(f"worker done: {done} chunk(s) processed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
