"""The unified front door: describe a run with :class:`RunSpec`, execute it
with :func:`run`.

This is the single seam through which every caller — experiments, CLI,
benchmarks, examples — executes Algorithm 1::

    >>> import repro
    >>> spec = repro.RunSpec("random_walk", k=4, n=32, steps=2000, seed=2)
    >>> result = repro.run(spec)                     # default: fast engine
    >>> slow = repro.run(spec, engine="faithful")    # same messages, richer result
    >>> slow.total_messages == result.total_messages
    True

A :class:`RunSpec` bundles the workload (a catalog name or a raw ``(T, n)``
matrix), the monitoring parameters ``k``/``seed``, the engine choice, and
the config knobs.  :func:`run` resolves the workload, dispatches through
the engine registry (:mod:`repro.engine.registry`) and always returns a
:class:`~repro.engine.results.RunResult`, whatever the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.core.config import MonitorConfig
from repro.engine.registry import get_engine
from repro.engine.results import RunResult
from repro.errors import ConfigurationError
from repro.util.validation import check_k, check_matrix

__all__ = ["RunSpec", "run", "serve", "connect"]


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Everything needed to reproduce one monitoring run.

    Attributes
    ----------
    workload:
        Either a workload-catalog name (see
        :func:`repro.streams.list_workloads`) or a raw integer ``(T, n)``
        value matrix.
    k:
        Size of the monitored top-k set.
    n / steps:
        Matrix dimensions.  Required for named workloads; derived (and, if
        given, cross-checked) for raw matrices.
    seed:
        Engine/protocol seed.  All registered engines are bit-identical in
        it, so results compare across engines at fixed ``seed``.
    workload_seed:
        Seed for the workload generator; defaults to ``seed``.  Ignored for
        raw matrices.
    engine:
        Default engine name, overridable per call via ``run(spec, engine=...)``.
    workload_params:
        Extra keyword overrides for the workload factory (e.g.
        ``{"spread": 200}``).
    config:
        Optional :class:`~repro.core.monitor.MonitorConfig`.  The
        ablations (A1 ``always_reset``, A2 ``skip_redundant_min``, A3
        ``protocol.broadcast_every_round``, and an uncharged
        ``protocol.charge_start_broadcast``) and the instrumentation flags
        run on the faithful engine only; the counting engines refuse them.
    """

    workload: Any
    k: int = 4
    n: int | None = None
    steps: int | None = None
    seed: int = 0
    workload_seed: int | None = None
    engine: str = "fast"
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    config: MonitorConfig | None = None

    def resolve_values(self) -> np.ndarray:
        """Materialize the ``(T, n)`` value matrix this spec describes.

        Returns
        -------
        The integer value matrix: row ``t`` holds all nodes' observations
        at time ``t``.

        Raises
        ------
        ConfigurationError
            For a named workload without explicit ``n``/``steps``, or a
            raw matrix whose shape contradicts the given ``n``/``steps``.
        WorkloadError
            If the named workload rejects its parameters.

        Example
        -------
        >>> RunSpec("staircase", k=2, n=6, steps=4).resolve_values().shape
        (4, 6)
        """
        if isinstance(self.workload, str):
            if self.n is None or self.steps is None:
                raise ConfigurationError(
                    f"RunSpec(workload={self.workload!r}) needs explicit n and steps"
                )
            from repro.streams import get_workload

            seed = self.seed if self.workload_seed is None else self.workload_seed
            spec = get_workload(
                self.workload, self.n, self.steps, seed=seed, **dict(self.workload_params)
            )
            return spec.generate()
        values = check_matrix(np.asarray(self.workload))
        T, n = values.shape
        if self.n is not None and self.n != n:
            raise ConfigurationError(f"RunSpec.n={self.n} but the matrix has n={n} columns")
        if self.steps is not None and self.steps != T:
            raise ConfigurationError(f"RunSpec.steps={self.steps} but the matrix has T={T} rows")
        return values

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        workload = self.workload if isinstance(self.workload, str) else "<matrix>"
        return (
            f"RunSpec(workload={workload!r}, k={self.k}, n={self.n}, steps={self.steps}, "
            f"seed={self.seed}, engine={self.engine!r})"
        )


def run(spec: RunSpec, *, engine: str | None = None) -> RunResult:
    """Execute ``spec`` on a registered engine; return the unified result.

    Args
    ----
    spec:
        The run description (workload, ``k``, seed, engine, config).
    engine:
        Optional engine-name override of ``spec.engine``.

    Returns
    -------
    A :class:`~repro.engine.results.RunResult`.  For any fixed spec and
    seed, all built-in engines return bit-identical trajectories, reset
    times, and per-phase message counts (the differential-test
    invariant I4).

    Raises
    ------
    ConfigurationError
        For an unknown engine name, an invalid ``k``, an unresolvable
        workload, or config knobs the chosen engine rejects.

    Example
    -------
    >>> result = run(RunSpec("staircase", k=2, n=6, steps=50, seed=1))
    >>> result.steps
    50
    """
    values = spec.resolve_values()
    k, _ = check_k(spec.k, values.shape[1])
    info = get_engine(spec.engine if engine is None else engine)
    config = MonitorConfig() if spec.config is None else spec.config
    result = info.runner(values, k, seed=spec.seed, config=config)
    # The attached spec must reproduce *this* run, including an override.
    result.spec = spec if info.name == spec.engine else replace(spec, engine=info.name)
    return result


def serve(host: str = "127.0.0.1", port: int = 0, *, workers: int = 1, **options):
    """Start a streaming session service on a background thread.

    The deployment-shaped counterpart of :func:`run`: instead of replaying
    a full ``(T, n)`` matrix, the service keeps live
    :class:`~repro.core.monitor.OnlineSession`-shaped monitors resident
    and steps them in batched sweeps as rows arrive over TCP (JSONL wire
    format, see ``docs/architecture.md``).

    Args
    ----
    host / port:
        Bind address; the default ephemeral port is read back from the
        returned handle's ``address``.
    workers:
        ``1`` (default) runs one in-process server.  ``N >= 2`` shards
        sessions across N worker *processes* behind a consistent-hashing
        :class:`~repro.service.fleet.FleetRouter` with a hot standby:
        same wire protocol, bit-identical results, parallel stepping, and
        automatic failover when a worker dies.
    options:
        Forwarded to :class:`~repro.service.server.ServiceServer` or
        :class:`~repro.service.fleet.FleetRouter` (``inbox_limit``,
        ``batch_linger``, ``checkpoint_dir``, ``checkpoint_interval``, ...).

    Returns
    -------
    A :class:`~repro.service.server.ServerHandle` or
    :class:`~repro.service.fleet.FleetHandle` (both context managers;
    ``close()`` shuts the service down).

    Example
    -------
    >>> import repro
    >>> with repro.serve() as server:
    ...     with repro.connect(server.address) as client:
    ...         session = client.create_session(n=4, k=2, seed=3)
    ...         _ = session.feed([40, 10, 30, 20])
    ...         session.topk(wait=True)
    [0, 2]
    """
    if workers < 1:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"serve() needs workers >= 1, got {workers}")
    if workers > 1:
        from repro.service.fleet import start_fleet

        return start_fleet(host, port, workers=workers, **options)
    from repro.service import start_server

    return start_server(host, port, **options)


def connect(address, **options):
    """Connect to a running session service.

    Args
    ----
    address:
        ``(host, port)`` or ``"host:port"`` — e.g. ``server.address`` from
        :func:`serve`, or the address printed by
        ``python -m repro.service --serve``.
    options:
        Forwarded to :class:`~repro.service.client.ServiceClient`
        (``timeout``, ``retry``, ``wire="binary"`` for the packed frame
        protocol).

    Returns
    -------
    A :class:`~repro.service.client.ServiceClient` (context manager).
    """
    from repro.service import ServiceClient

    return ServiceClient(address, **options)
