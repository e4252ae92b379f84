"""Generic parameter-sweep harness.

Every experiment is a sweep: for each point of a parameter grid, run a
measurement function over several independent seeds and summarize.  This
module factors the repetition/seeding/summary plumbing out of the
individual experiment modules.

Seeding note: per-repetition ``rng_seed`` values are drawn directly from
the :class:`~repro.util.seeding.SeedStream` children via
``SeedSequence.generate_state`` (top 31 bits of the first word).  Earlier
versions built a throwaway ``np.random.Generator`` per repetition just to
draw one integer; dropping that round-trip changed the emitted seed values
once, here, in v1.1 — sweeps are still fully deterministic in the sweep
seed, but do not compare raw samples against pre-v1.1 runs.

Parallelism: ``run_sweep(..., workers=N)`` fans the (point, repetition)
samples out over a registered execution backend
(:mod:`repro.analysis.backends`): ``serial``, ``thread``, ``process``, and
the distributed work-queue ``queue`` backend built in, others pluggable.
All seeds are derived up front in grid order and every sample is placed by
its (point, repetition) index, so results are **identical** for any
backend and worker count.

Checkpoint/resume: ``run_sweep(..., checkpoint=path)`` journals every
completed job to ``path`` (a :class:`~repro.experiments.persist.SweepJournal`)
as results stream in; rerunning with ``resume=True`` replays the journaled
samples and computes only the jobs that never finished.  Because the
journal stores raw samples by job index, a resumed sweep is bit-identical
to an uninterrupted one — on any backend.

:func:`sweep_defaults` / :func:`set_sweep_defaults` install process-wide
defaults for ``backend``/``workers``/checkpointing, which is how the
experiment CLI's ``--backend``, ``--workers`` and ``--resume`` flags reach
every sweep an experiment runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.backends import get_backend
from repro.analysis.stats import SummaryStats, summarize
from repro.errors import ConfigurationError
from repro.util.optionstate import OptionState
from repro.util.seeding import SeedStream

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepDefaults",
    "run_sweep",
    "set_sweep_defaults",
    "sweep_defaults",
    "current_sweep_defaults",
]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: parameters, per-seed samples, and their summary."""

    params: Mapping[str, Any]
    samples: tuple[float, ...]
    summary: SummaryStats

    def __getitem__(self, key: str) -> Any:
        return self.params[key]


@dataclass
class SweepResult:
    """All grid points of one sweep."""

    name: str
    points: list[SweepPoint] = field(default_factory=list)

    def column(self, key: str) -> list[Any]:
        """Parameter values across points (in grid order).

        >>> res = run_sweep("s", [{"x": 3}, {"x": 1}],
        ...                 lambda rng_seed, x: float(x), repetitions=1)
        >>> res.column("x")
        [3, 1]
        """
        return [p.params[key] for p in self.points]

    def means(self) -> list[float]:
        """Mean sample per point (in grid order)."""
        return [p.summary.mean for p in self.points]

    def find(self, **conditions: Any) -> SweepPoint:
        """The unique point matching all given parameter values.

        Raises
        ------
        ConfigurationError
            When zero or several points match ``conditions``.
        """
        matches = [
            p for p in self.points if all(p.params.get(k) == v for k, v in conditions.items())
        ]
        if len(matches) != 1:
            raise ConfigurationError(f"{len(matches)} points match {conditions} in sweep {self.name!r}")
        return matches[0]


@dataclass(frozen=True)
class SweepDefaults:
    """Process-wide fallbacks applied when ``run_sweep`` callers omit them.

    ``backend``/``workers`` of ``None`` mean "keep the built-in default"
    (``thread`` / 1).  ``checkpoint_dir`` of ``None`` disables implicit
    checkpointing; when set, every named sweep journals to
    ``<checkpoint_dir>/<name>.sweep.jsonl`` unless the call passes its own
    ``checkpoint``.
    """

    backend: str | None = None
    workers: int | None = None
    checkpoint_dir: str | Path | None = None
    resume: bool = False


_DEFAULTS: OptionState[SweepDefaults] = OptionState(SweepDefaults(), "sweep default")


def current_sweep_defaults() -> SweepDefaults:
    """The defaults the next ``run_sweep`` call will fall back to."""
    return _DEFAULTS.current()


def set_sweep_defaults(**overrides: Any) -> SweepDefaults:
    """Replace fields of the process-wide :class:`SweepDefaults`.

    Args
    ----
    overrides:
        Any of ``backend``, ``workers``, ``checkpoint_dir``, ``resume``.

    Returns
    -------
    The new defaults.

    Raises
    ------
    ConfigurationError
        For an unknown field name.
    """
    return _DEFAULTS.set(**overrides)


def sweep_defaults(**overrides: Any):
    """Temporarily install sweep defaults (restored on exit).

    >>> from repro.analysis.sweeps import run_sweep, sweep_defaults
    >>> with sweep_defaults(backend="serial"):
    ...     res = run_sweep("d", [{"x": 1}], lambda rng_seed, x: float(x), repetitions=2)
    >>> res.means()
    [1.0]
    """
    return _DEFAULTS.override(**overrides)


def _child_seed(stream: SeedStream) -> int:
    """One 31-bit repetition seed straight from the next stream child.

    No intermediate ``Generator`` is constructed; the child
    ``SeedSequence``'s own output stream is already uniform.
    """
    child = stream.next_seed()
    return int(child.generate_state(1, np.uint64)[0] >> 33)


def _slug(name: str) -> str:
    """A filesystem-safe version of a sweep name."""
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name) or "sweep"


def _sweep_fingerprint(
    name: str,
    jobs: Sequence[Mapping[str, Any]],
    repetitions: int,
    seed: int,
    measure: Callable[..., float],
) -> dict[str, Any]:
    """The identity a checkpoint journal is pinned to.

    Hashes the fully expanded job list (grid parameters *and* derived
    seeds), so editing a grid value — not just its shape — invalidates a
    stale journal instead of silently replaying the old sweep's samples.
    The measure is identified by qualname: renaming it invalidates the
    journal (safe, loud), while an edit to its body is undetectable — the
    journal trusts that samples were produced by the measure named here.
    """
    payload = json.dumps([dict(job) for job in jobs], sort_keys=True, default=str)
    return {
        "name": name,
        "jobs": len(jobs),
        "repetitions": repetitions,
        "seed": seed,
        "grid": hashlib.sha256(payload.encode()).hexdigest()[:16],
        "measure": getattr(measure, "__qualname__", None) or repr(measure),
    }


def run_sweep(
    name: str,
    grid: Iterable[Mapping[str, Any]],
    measure: Callable[..., float],
    *,
    repetitions: int = 10,
    seed: int = 0,
    confidence: float = 0.95,
    workers: int | None = None,
    backend: str | None = None,
    checkpoint: str | Path | None = None,
    resume: bool | None = None,
) -> SweepResult:
    """Run ``measure(rng_seed=..., **params)`` over a grid.

    ``measure`` receives every grid parameter as a keyword argument plus a
    ``rng_seed`` (an integer derived deterministically from the sweep seed,
    the point index, and the repetition index) and returns one float
    sample.  Repetitions are independent; points are independent.

    Args
    ----
    name:
        Sweep identity — shows up in results, errors, and the checkpoint
        fingerprint.
    grid:
        Mappings of grid parameters, one per point, evaluated in order.
    measure:
        ``measure(rng_seed=..., **params) -> float``.  Must be picklable
        (module-level) for the ``process`` and ``queue`` backends.
    repetitions:
        Independent samples per grid point (>= 1).
    seed:
        Root of the deterministic per-job seed derivation.
    confidence:
        Confidence level of each point's summary interval.
    workers:
        Parallel worker count (default 1, or the installed
        :class:`SweepDefaults`).  With 1 worker the pool backends shortcut
        to ``serial``; an explicitly requested ``queue`` backend is always
        honoured, and may take ``workers=0`` in served mode (all work done
        by remotely attached workers).
    backend:
        Execution backend name (see :func:`repro.analysis.backends.list_backends`;
        default ``thread``).
    checkpoint:
        Path of a :class:`~repro.experiments.persist.SweepJournal`.  Every
        completed job is journaled as results stream in; pass the same path
        with ``resume=True`` to continue a killed sweep without recomputing
        finished jobs.
    resume:
        Allow loading an existing journal at ``checkpoint``.  Without it, a
        pre-existing checkpoint file is an error (refusing to silently mix
        two sweeps).

    Returns
    -------
    A :class:`SweepResult` with one :class:`SweepPoint` per grid entry, in
    grid order.  Identical for every backend, worker count, and
    kill/resume schedule (the determinism invariant the backend tests
    enforce).

    Raises
    ------
    ConfigurationError
        For invalid repetitions/workers, an unknown backend, a reserved
        ``rng_seed`` grid key, an un-``resume``-d existing checkpoint, or a
        checkpoint written by a different sweep.

    Example
    -------
    >>> res = run_sweep("square", [{"x": 2}, {"x": 3}],
    ...                 lambda rng_seed, x: float(x * x), repetitions=2)
    >>> res.means()
    [4.0, 9.0]
    """
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    defaults = _DEFAULTS.current()
    backend_name = backend or defaults.backend or "thread"
    if workers is None:
        workers = defaults.workers if defaults.workers is not None else 1
    if workers < 1 and not (workers == 0 and backend_name == "queue"):
        # queue alone accepts 0 local workers: served mode can run entirely
        # on remotely attached ones.
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    info = get_backend(backend_name)  # validate the name even when serial
    if workers == 1 and backend_name in ("thread", "process"):
        info = get_backend("serial")  # no pool overhead for a lone worker
    grid_list = [dict(params) for params in grid]
    for params in grid_list:
        if "rng_seed" in params:
            raise ConfigurationError(
                "'rng_seed' is reserved for the derived per-repetition seed "
                "and cannot be a grid parameter"
            )
    stream = SeedStream(seed)
    seeds = [[_child_seed(stream) for _ in range(repetitions)] for _ in grid_list]

    jobs = [
        {"rng_seed": seeds[point_idx][rep], **params}
        for point_idx, params in enumerate(grid_list)
        for rep in range(repetitions)
    ]

    if checkpoint is None and defaults.checkpoint_dir is not None:
        checkpoint = Path(defaults.checkpoint_dir) / f"{_slug(name)}.sweep.jsonl"
    if resume is None:
        resume = defaults.resume
    journal = None
    if checkpoint is not None:
        from repro.experiments.persist import SweepJournal

        fingerprint = _sweep_fingerprint(name, jobs, repetitions, seed, measure)
        path = Path(checkpoint)
        if path.exists():
            if not resume:
                raise ConfigurationError(
                    f"checkpoint {path} already exists; pass resume=True (CLI: --resume) "
                    "to continue it, or remove the file to start over"
                )
            journal = SweepJournal.resume(path, fingerprint)
        else:
            journal = SweepJournal.create(path, fingerprint)

    all_samples: list[list[float]] = [[0.0] * repetitions for _ in grid_list]

    def _place(idx: int, sample: float) -> None:
        point_idx, rep = divmod(idx, repetitions)
        all_samples[point_idx][rep] = sample

    try:
        completed = journal.completed if journal is not None else {}
        for idx, sample in completed.items():
            _place(idx, sample)
        pending = [idx for idx in range(len(jobs)) if idx not in completed]
        if pending:
            for local_idx, sample in info.runner(measure, [jobs[i] for i in pending], workers):
                idx = pending[local_idx]
                if journal is not None:
                    journal.record(idx, sample)  # journal first: a crash here re-runs the job
                _place(idx, sample)
    finally:
        if journal is not None:
            journal.close()

    result = SweepResult(name=name)
    for params, samples in zip(grid_list, all_samples):
        result.points.append(
            SweepPoint(
                params=params,  # grid_list entries are fresh dicts, never reused
                samples=tuple(samples),
                summary=summarize(samples, confidence),
            )
        )
    return result
