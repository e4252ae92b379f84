"""CLI for the streaming session service.

Examples::

    python -m repro.service --serve 127.0.0.1:7787
    python -m repro.service --serve 127.0.0.1:0 --inbox-limit 256 --batch-linger 0.002
    python -m repro.service --serve 127.0.0.1:7787 --checkpoint-dir .sessions
    python -m repro.service --serve 127.0.0.1:7787 --workers 4 --checkpoint-dir .sessions
    python -m repro.service --metrics 127.0.0.1:7787
    python -m repro.service --shutdown 127.0.0.1:7787

``--serve`` prints ``listening on HOST:PORT`` once bound (port 0 picks an
ephemeral port) and runs until SIGINT or a client ``shutdown`` op; both
end in a clean exit.  With ``--checkpoint-dir`` the server logs every
acked feed there, checkpoints every live session there (on create/close,
on the ``checkpoint`` op, on clean shutdown, and on idle once the log is
long) and restores the whole fleet from it at startup — a killed server
resumes its sessions bit-identically, acked rows included;
``--checkpoint-interval`` adds timer checkpoints, which bound the log's
length and a restart's replay.  ``--workers N`` (N >= 2) serves a
:class:`~repro.service.fleet.FleetRouter` instead: N worker processes
behind one consistent-hashing router with a hot standby — same wire
protocol, automatic failover.  ``--metrics`` and ``--shutdown`` are thin
client calls against a running server (or router).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.errors import ServiceError
from repro.service.manager import DEFAULT_INBOX_LIMIT
from repro.service.server import ServiceServer


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve (or query) the streaming top-k session service.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--serve", metavar="HOST:PORT", help="run a service server on this address")
    mode.add_argument("--metrics", metavar="HOST:PORT", help="print a running server's metrics snapshot")
    mode.add_argument("--shutdown", metavar="HOST:PORT", help="ask a running server to shut down")
    parser.add_argument(
        "--inbox-limit",
        type=int,
        default=DEFAULT_INBOX_LIMIT,
        help="max pending rows per session before backpressure (default %(default)s)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist live sessions to this directory and restore them at startup",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also checkpoint on a timer, bounding the feed log's length and "
        "a restart's replay (needs --checkpoint-dir; default: off)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard sessions across N worker processes behind a failover "
        "router (default 1: a single in-process server)",
    )
    parser.add_argument(
        "--batch-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="linger this long after idle before sweeping, widening batches "
        "at the cost of tail latency (default 0)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable observability (metrics registry + trace spans; same as "
        "REPRO_OBS=1) — served via the 'obs' wire op and python -m repro.obs",
    )
    return parser


def _split_address(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"error: expected HOST:PORT, got {value!r}")
    return host, int(port)


async def _serve(args: argparse.Namespace, host: str, port: int) -> None:
    options = dict(
        inbox_limit=args.inbox_limit, batch_linger=args.batch_linger,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.workers > 1:
        from repro.service.fleet import DEFAULT_CHECKPOINT_INTERVAL, FleetRouter

        interval = args.checkpoint_interval
        frontend = FleetRouter(
            host, port, workers=args.workers, **options,
            checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL if interval is None else interval,
        )
    else:
        frontend = ServiceServer(
            host, port, checkpoint_interval=args.checkpoint_interval, **options
        )
    try:
        await frontend.start()
        bound_host, bound_port = frontend.address
        print(f"listening on {bound_host}:{bound_port}", flush=True)
        if args.workers > 1:
            print(f"fleet: {args.workers} workers + standby", flush=True)
        restored = frontend.describe()["sessions"] if args.workers > 1 else len(frontend.manager)
        if restored:
            print(f"restored {restored} sessions from {args.checkpoint_dir}", flush=True)
        await frontend.run_until_stopped()
        print("service stopped", flush=True)
    finally:
        # SIGINT/cancellation must never orphan a fleet's worker children.
        frontend.emergency_kill()


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.obs:
        import os

        from repro import obs

        obs.enable()
        # Fleet workers are separate processes: the env var is how the
        # switch reaches them (FleetRouter._spawn copies os.environ).
        os.environ["REPRO_OBS"] = "1"
    if args.serve:
        host, port = _split_address(args.serve)
        if args.workers < 1:
            print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
            return 2
        try:
            asyncio.run(_serve(args, host, port))
        except KeyboardInterrupt:
            print("service stopped", flush=True)
        except (OSError, ServiceError) as exc:
            print(f"error: cannot serve on {args.serve}: {exc}", file=sys.stderr)
            return 2
        return 0

    from repro.service.client import ServiceClient

    address = args.metrics or args.shutdown
    try:
        with ServiceClient(_split_address(address)) as client:
            if args.metrics:
                print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            else:
                client.shutdown()
                print("shutdown requested")
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
