"""A minimal asyncio echo server: the benchmark's reference for round trips.

Each request is a 4-byte big-endian length and a body; each reply is the
2-byte body ``ok`` behind the same kind of header.  Timing closed-loop round
trips to it measures how fast the box currently wakes processes and moves
small frames over loopback, with none of the program's code involved::

    python3 perfbench/echo.py

Prints ``listening on HOST:PORT`` once bound, like the service CLI.
"""

from __future__ import annotations

import asyncio

REPLY = (2).to_bytes(4, "big") + b"ok"


async def _handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            size = int.from_bytes(await reader.readexactly(4), "big")
            await reader.readexactly(size)
            writer.write(REPLY)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _serve() -> None:
    server = await asyncio.start_server(_handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"listening on {host}:{port}", flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_serve())
