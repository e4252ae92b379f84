"""Serve a fleet router in front of a single worker (plus its standby).

``python -m repro.service --serve --workers N`` starts a router only for
N >= 2.  The benchmark times the router hop as a one-worker fleet against a
plain server doing the same work, so it starts that fleet through the
public ``FleetRouter`` API instead::

    PYTHONPATH=src python perfbench/router.py --checkpoint-dir DIR --checkpoint-interval 0.5

Prints ``listening on HOST:PORT`` once bound, like the service CLI.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.service.fleet import FleetRouter


async def _serve(checkpoint_dir: str, checkpoint_interval: float) -> None:
    router = FleetRouter("127.0.0.1", 0, workers=1, checkpoint_dir=checkpoint_dir,
                         checkpoint_interval=checkpoint_interval)
    try:
        await router.start()
        host, port = router.address
        print(f"listening on {host}:{port}", flush=True)
        await router.run_until_stopped()
    finally:
        router.emergency_kill()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkpoint-dir", required=True)
    parser.add_argument("--checkpoint-interval", type=float, required=True)
    args = parser.parse_args()
    asyncio.run(_serve(args.checkpoint_dir, args.checkpoint_interval))


if __name__ == "__main__":
    main()
