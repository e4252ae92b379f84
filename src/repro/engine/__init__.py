"""Engines for Algorithm 1 and the registry that makes them pluggable.

:mod:`repro.engine.registry` is the seam: every implementation of
Algorithm 1 registers a name, capability flags, and a runner, and becomes
reachable through ``repro.run(spec, engine=name)``, the CLI, and the
benchmarks without changes anywhere else.  Built-ins:

* ``faithful`` (:mod:`repro.engine.faithful` wrapping
  :class:`~repro.core.monitor.TopKMonitor`) — transports, ledger, events;
  audit and every ablation.
* ``vectorized`` (:mod:`repro.engine.vectorized`) — the monitor re-derived
  in pure array operations with counter-only accounting, stepped row by
  row through :class:`~repro.engine.vectorized.IncrementalKernel`.
* ``fast`` (same module) — the same kernel's ``observe_many`` over the
  whole matrix: block reductions locate the next violating step, quiet
  segments are filled by slice assignment; typically ≥10× faster again on
  the quiet-heavy workloads the algorithm targets.

All engines return the unified :class:`~repro.engine.results.RunResult`
and follow the randomness convention documented in
:mod:`repro.core.protocols`, so for equal seeds their *entire* output —
top-k trajectory, reset times, per-phase message counts — must be
bit-identical (invariant I4).  :mod:`repro.engine.compare` enforces this
three ways through the unified run path.

The package namespace is lazy: the layer-zero kernel
(:mod:`repro.engine.kernel`) is importable from :mod:`repro.core` without
dragging the engines (and their ``repro.core`` imports) in circularly.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover — static names for type checkers
    from repro.engine.compare import DifferentialReport, differential_check
    from repro.engine.registry import (
        ENGINES,
        EngineInfo,
        get_engine,
        list_engines,
        register_engine,
    )
    from repro.engine.results import RunResult
    from repro.engine.vectorized import VectorizedResult

__all__ = [
    "EngineInfo",
    "ENGINES",
    "register_engine",
    "get_engine",
    "list_engines",
    "RunResult",
    "VectorizedResult",
    "DifferentialReport",
    "differential_check",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.engine.compare": ("DifferentialReport", "differential_check"),
        "repro.engine.registry": (
            "ENGINES",
            "EngineInfo",
            "get_engine",
            "list_engines",
            "register_engine",
        ),
        "repro.engine.results": ("RunResult",),
        "repro.engine.vectorized": ("VectorizedResult",),
    },
)
