"""Structured trace spans: a ring-buffered, JSONL-exportable recorder.

A *span* is one timed event with causal identity: a ``trace`` id shared
by every span describing the same logical operation (one client push and
every hop it takes — router, worker, failover replay), a unique ``span``
id, an optional ``parent`` span id, a monotonic ``ts`` start stamp, a
``dur_us`` duration and free-form ``attrs``.  Trace ids ride the JSONL
wire protocol as an optional ``"trace"`` field on ``feed`` requests; a
feed the fleet router resends after a failover keeps its push's id, which
is what makes a replayed row attributable to the client push that
originally carried it.

Ids are ``<pid hex>-<counter hex>`` — unique within a process for its
lifetime, collision-free across the fleet's worker processes via the pid
prefix, and cheap enough to mint on the feed hot path.  They are *not*
drawn from the seeded experiment RNGs (reprolint R2 does not scope this
package) and never influence protocol results.

The recorder is a bounded deque: at most ``capacity`` recent spans are
kept, old ones fall off, and recording is O(1) with no allocation beyond
the span dict itself.  Everything is guarded by ``OBS.on`` at the call
sites — with observability off, no span is ever constructed.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from typing import Iterator

from repro.obs.registry import OBS, clock

__all__ = [
    "SpanRecorder",
    "RECORDER",
    "span",
    "new_trace_id",
    "new_span_id",
]

_COUNTER = itertools.count(1)


def _mint(prefix: str) -> str:
    return f"{prefix}{os.getpid():x}-{next(_COUNTER):x}"


def new_trace_id() -> str:
    """A fresh trace id (``t<pid>-<seq>``)."""
    return _mint("t")


def new_span_id() -> str:
    """A fresh span id (``s<pid>-<seq>``)."""
    return _mint("s")


class SpanRecorder:
    """A ring buffer of recent spans, exportable as JSONL."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._spans: deque[dict] = deque(maxlen=capacity)

    def record(self, name: str, *, trace: str | None = None, parent: str | None = None,
               ts: float | None = None, dur_us: float | None = None,
               **attrs: object) -> dict:
        """Append one finished span; returns the span dict just stored."""
        entry: dict = {
            "name": name,
            "trace": trace if trace is not None else new_trace_id(),
            "span": new_span_id(),
            "ts": round(clock() if ts is None else ts, 6),
        }
        if parent is not None:
            entry["parent"] = parent
        if dur_us is not None:
            entry["dur_us"] = round(float(dur_us), 1)
        if attrs:
            entry["attrs"] = attrs
        self._spans.append(entry)
        return entry

    def extend(self, spans: Iterator[dict] | list[dict]) -> None:
        """Absorb already-built span dicts (fleet merges worker spans)."""
        self._spans.extend(spans)

    def spans(self, limit: int | None = None) -> list[dict]:
        """The most recent ``limit`` spans (all of them by default)."""
        out = list(self._spans)
        return out[-limit:] if limit is not None else out

    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Write every buffered span as one JSON object per line.

        Returns the number of spans written.
        """
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for entry in spans:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return len(spans)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


#: The process-wide recorder every layer records into (and the ``obs``
#: wire op reads from).
RECORDER = SpanRecorder()


class _Span:
    """Context manager that records one timed span on exit."""

    __slots__ = ("name", "trace", "parent", "attrs", "_t0")

    def __init__(self, name: str, trace: str | None, parent: str | None,
                 attrs: dict) -> None:
        self.name = name
        self.trace = trace
        self.parent = parent
        self.attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = clock()
        return self

    def __exit__(self, *exc) -> None:
        RECORDER.record(
            self.name, trace=self.trace, parent=self.parent, ts=self._t0,
            dur_us=(clock() - self._t0) * 1e6, **self.attrs,
        )


class _NoopSpan:
    """The off-switch twin: no clock reads, no dict, nothing recorded."""

    __slots__ = ("trace", "attrs")

    def __init__(self) -> None:
        self.trace = None
        self.attrs: dict = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, *, trace: str | None = None, parent: str | None = None,
         **attrs: object):
    """Time a block and record it — or do nothing at all when obs is off.

    >>> from repro.obs import OBS, span
    >>> with span("demo.block", items=3):  # no-op unless OBS.on
    ...     pass
    """
    if not OBS.on:
        return _NOOP
    return _Span(name, trace, parent, attrs)
