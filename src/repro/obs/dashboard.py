"""The curses-free live dashboard behind ``python -m repro.obs top``.

Renders one screenful of text per poll from the ``metrics`` and ``obs``
wire ops of a running server or fleet router — plain ANSI (clear-screen +
home), no curses, so it works in CI logs, ``--once`` snapshots and dumb
terminals alike.  Against a fleet the ``metrics`` reply carries the
``fleet`` aggregate and per-worker snapshots, which become the worker
table and the failover-latency line the kill-worker acceptance run reads.

This module talks *to* the service, so unlike the rest of
:mod:`repro.obs` it imports the client layer — lazily, inside the fetch
function, to keep ``repro.obs`` itself a leaf that ``engine/kernel.py``
may import.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["fetch", "render", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def fetch(address: str, *, timeout: float = 30.0, spans: int | None = 40) -> dict:
    """One poll: ``metrics`` plus ``obs`` (spans capped for the wire)."""
    from repro.service.client import ServiceClient

    with ServiceClient(address, timeout=timeout) as client:
        metrics = client.metrics()
        obs = client.obs(limit=spans)
    return {"metrics": metrics, "obs": obs}


def _fmt_num(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,}" if isinstance(value, int) else str(value)


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render(poll: dict, *, address: str = "", now: Callable[[], float] = time.monotonic) -> str:
    """One screenful of dashboard text for a ``fetch`` result."""
    metrics = poll.get("metrics", {})
    obs = poll.get("obs", {})
    fleet = metrics.get("fleet")
    lines: list[str] = []
    state = "on" if obs.get("enabled") else "off"
    lines.append(f"topkmon obs top — {address}  (obs {state})")
    lines.append("")
    window = metrics.get("window_rows", 0)
    lines.append(
        "service   "
        f"rows {_fmt_num(metrics.get('rows_processed', 0))}"
        f"  rate {_fmt_num(metrics.get('rows_per_sec', 0.0))}/s"
        f"  sessions {_fmt_num(metrics.get('sessions_live', 0))} live"
        f" / {_fmt_num(metrics.get('sessions_created', 0))} created"
    )
    lines.append(
        "latency   "
        f"p50 {_fmt_num(metrics.get('step_latency_p50_us', 0.0))}us"
        f"  p99 {_fmt_num(metrics.get('step_latency_p99_us', 0.0))}us"
        f"  over window of {_fmt_num(window)} rows"
    )
    lines.append(
        "lanes     "
        f"batched {_fmt_num(metrics.get('rows_batched', 0))}"
        f"  quiet {_fmt_num(metrics.get('rows_quiet', 0))}"
        f"  lookahead {_fmt_num(metrics.get('rows_lookahead', 0))}"
        f"  backpressure {_fmt_num(metrics.get('backpressure_rejections', 0))}"
    )
    if fleet:
        lat = fleet.get("failover_latency_ms", {})
        standby = "with" if fleet.get("standby") else "no"
        lines.append("")
        lines.append(
            "fleet     "
            f"{len(fleet.get('workers', {}))} workers ({standby} standby)"
            f"  failovers {fleet.get('failovers', 0)}"
            f"  failover latency mean {_fmt_num(lat.get('mean', 0.0))}ms"
            f" max {_fmt_num(lat.get('max', 0.0))}ms"
            f"  rows replayed {_fmt_num(fleet.get('rows_replayed', 0))}"
        )
        lines.append(
            "in flight "
            f"depth {_fmt_num(fleet.get('journal_rows', 0))} rows"
        )
        workers = fleet.get("per_worker", {})
        if workers:
            total_rate = sum(w.get("rows_per_sec", 0.0) for w in workers.values()) or 1.0
            lines.append("")
            lines.append("  slot   rows/s        rows    sessions  share")
            # Slots are "w0", "w1", ... — numeric order, names last.
            def _slot_key(slot: str):
                return (0, int(slot[1:])) if slot[1:].isdigit() else (1, slot)

            for slot in sorted(workers, key=_slot_key):
                w = workers[slot]
                rate = w.get("rows_per_sec", 0.0)
                lines.append(
                    f"  {slot:>4}  {rate:>8.1f}  {int(w.get('rows_processed', 0)):>10,}"
                    f"  {int(w.get('sessions_live', 0)):>10,}"
                    f"  {_bar(rate / total_rate)}"
                )
    spans = obs.get("spans", [])
    if spans:
        lines.append("")
        lines.append(f"spans     {len(spans)} recent")
        for entry in spans[-8:]:
            dur = entry.get("dur_us")
            dur_txt = f" {dur:>9.1f}us" if isinstance(dur, (int, float)) else " " * 11
            attrs = entry.get("attrs", {})
            attr_txt = " ".join(f"{k}={v}" for k, v in list(attrs.items())[:4])
            lines.append(
                f"  {entry.get('name', '?'):<22}{dur_txt}  trace {entry.get('trace', '-')}"
                + (f"  {attr_txt}" if attr_txt else "")
            )
    return "\n".join(lines) + "\n"


def run_top(address: str, *, interval: float = 1.0, iterations: int | None = None,
            clear: bool = True, out: Callable[[str], None] = print,
            sleep: Callable[[float], None] = time.sleep) -> int:
    """Poll-and-render loop; returns the number of successful polls.

    ``iterations=None`` runs until interrupted; ``iterations=1`` is the
    ``--once`` snapshot mode the smoke test and CI use.
    """
    done = 0
    while iterations is None or done < iterations:
        poll = fetch(address)
        screen = render(poll, address=address)
        out((_CLEAR + screen) if clear else screen)
        done += 1
        if iterations is not None and done >= iterations:
            break
        sleep(interval)
    return done
