"""The unified metrics registry: counters, gauges and histograms.

Every layer that has something to count — the engine's protocol runs, the
distributed runtime, the sweep backends, the session service, the fleet
router — declares its metric *families* at import time with
:func:`counter` / :func:`gauge` / :func:`histogram`, the same
self-registering idiom as the engine and lint registries.  A family has a
name (``repro_<layer>_<what>[_total|_seconds]``), a help string and an
optional tuple of label names; ``family.labels(phase="handler_max")``
returns the concrete series for one label combination.

Two hard rules keep this layer honest:

* **Zero overhead when off.**  Instrument objects are always real (no
  swapping games), but hot paths must guard every touch with the plain
  module-level boolean ``OBS.on`` — one attribute load, no call — so the
  default-off configuration costs nothing measurable.  The gate lives in
  ``benchmarks/bench_service.py``.
* **The monotonic clock lives here.**  :data:`clock` is the package's one
  sanctioned ``time.perf_counter`` (reprolint R2 confines the raw call to
  ``repro/obs/``); every other module that needs elapsed wall time
  imports this name.
"""

from __future__ import annotations

import os
import re
import threading
import time
from typing import Iterator, Mapping

from repro.errors import RegistryError

__all__ = [
    "OBS",
    "clock",
    "counter",
    "gauge",
    "histogram",
    "get_family",
    "list_families",
    "registry_snapshot",
    "render_prometheus",
    "reset_metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
]

#: The package's one monotonic clock (see the module docstring).
clock = time.perf_counter


class _ObsState:
    """Process-wide observability switch.

    ``OBS.on`` is a plain attribute, deliberately not a property: hot
    paths read it millions of times and a descriptor call would not be
    free.  ``REPRO_OBS=1`` in the environment enables it at import,
    which is how fleet worker subprocesses (spawned with a copy of
    ``os.environ``) inherit the setting for free.
    """

    __slots__ = ("on",)

    def __init__(self) -> None:
        self.on = os.environ.get("REPRO_OBS", "").strip() not in ("", "0")

    def enable(self) -> None:
        self.on = True

    def disable(self) -> None:
        self.on = False


OBS = _ObsState()

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_REGISTRY: dict[str, "MetricFamily"] = {}
_LOCK = threading.Lock()  # guards family/series creation, never increments

#: Default histogram bucket upper bounds, in seconds (latency-shaped).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def _reset(self) -> None:
        self.value = 0.0

    def _sample(self) -> float:
        return self.value


class Gauge:
    """A series that can go up and down (set to the current level)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0.0

    def _sample(self) -> float:
        return self.value


class Histogram:
    """A distribution: per-bucket counts plus running count and sum."""

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # trailing slot is +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def _sample(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {_fmt(b): c for b, c in zip(self.buckets, self.counts)},
            "inf": self.counts[-1],
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its per-label-combination series.

    Families are created through :func:`counter` / :func:`gauge` /
    :func:`histogram`, never directly.  A family with no label names has
    exactly one series, reachable without the :meth:`labels` hop through
    the ``default`` attribute.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_series", "default")

    def __init__(self, name: str, kind: str, help: str, labelnames: tuple[str, ...],
                 buckets: tuple[float, ...]) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._series: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        # Built directly, not via labels(): __init__ runs under _LOCK and
        # the lock is not reentrant.
        self.default = self._series.setdefault((), self._make()) if not labelnames else None

    def _make(self) -> Counter | Gauge | Histogram:
        if self.kind == "histogram":
            return Histogram(self.buckets)
        return _KINDS[self.kind]()

    def labels(self, **labels: object):
        """The concrete series for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise RegistryError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[ln]) for ln in self.labelnames)
        series = self._series.get(key)
        if series is None:
            with _LOCK:
                series = self._series.setdefault(key, self._make())
        return series

    def series(self) -> Iterator[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        """Iterate ``(labels_dict, series)`` pairs, insertion-ordered."""
        for key, series in list(self._series.items()):
            yield dict(zip(self.labelnames, key)), series

    # Convenience pass-throughs for label-less families.
    def inc(self, amount: float = 1.0) -> None:
        self.default.inc(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self.default.set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self.default.observe(value)  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self.default.value  # type: ignore[union-attr]


def _declare(name: str, kind: str, help: str, labels: tuple[str, ...],
             buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> MetricFamily:
    if not _NAME_RE.match(name):
        raise RegistryError(f"metric name {name!r} is not snake_case")
    labels = tuple(labels)
    with _LOCK:
        existing = _REGISTRY.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != labels:
                raise RegistryError(
                    f"metric {name!r} already registered as {existing.kind}"
                    f"{existing.labelnames}, cannot redeclare as {kind}{labels}"
                )
            return existing  # idempotent redeclare (module reloads, tests)
        family = MetricFamily(name, kind, help, labels, buckets)
        _REGISTRY[name] = family
        return family


def counter(name: str, help: str, labels: tuple[str, ...] = ()) -> MetricFamily:
    """Declare (or fetch) a counter family."""
    return _declare(name, "counter", help, labels)


def gauge(name: str, help: str, labels: tuple[str, ...] = ()) -> MetricFamily:
    """Declare (or fetch) a gauge family."""
    return _declare(name, "gauge", help, labels)


def histogram(name: str, help: str, labels: tuple[str, ...] = (),
              buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> MetricFamily:
    """Declare (or fetch) a histogram family."""
    return _declare(name, "histogram", help, labels, buckets)


def get_family(name: str) -> MetricFamily:
    """Look up a registered family; :class:`RegistryError` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RegistryError(f"no metric family named {name!r} is registered") from None


def list_families() -> list[MetricFamily]:
    """Every registered family, sorted by name (docs/exposition order)."""
    return sorted(_REGISTRY.values(), key=lambda f: f.name)


def reset_metrics() -> None:
    """Zero every series (tests isolate themselves with this)."""
    for family in _REGISTRY.values():
        for _, series in family.series():
            series._reset()


# ---------------------------------------------------------------- exposition


def _fmt(value: float) -> str:
    """Prometheus-style number: integral floats render bare."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _labelstr(labels: Mapping[str, str], extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*labels.items(), *extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus() -> str:
    """The registry in Prometheus text exposition format (v0.0.4)."""
    out: list[str] = []
    for family in list_families():
        out.append(f"# HELP {family.name} {family.help}")
        out.append(f"# TYPE {family.name} {family.kind}")
        for labels, series in family.series():
            if isinstance(series, Histogram):
                acc = 0
                for bound, count in zip(series.buckets, series.counts):
                    acc += count
                    out.append(
                        f"{family.name}_bucket"
                        f"{_labelstr(labels, (('le', _fmt(bound)),))} {acc}"
                    )
                out.append(
                    f'{family.name}_bucket{_labelstr(labels, (("le", "+Inf"),))} '
                    f"{series.count}"
                )
                out.append(f"{family.name}_sum{_labelstr(labels)} {_fmt(series.sum)}")
                out.append(f"{family.name}_count{_labelstr(labels)} {series.count}")
            else:
                out.append(f"{family.name}{_labelstr(labels)} {_fmt(series.value)}")
    return "\n".join(out) + "\n"


def registry_snapshot() -> dict:
    """JSON-safe dump of every family (the ``obs`` wire op's payload)."""
    snap: dict[str, dict] = {}
    for family in list_families():
        snap[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "labels": list(family.labelnames),
            "series": [
                {"labels": labels, "value": series._sample()}
                for labels, series in family.series()
            ],
        }
    return snap
