"""Box-speed calibration for the timed metrics.

Shared 2-vCPU boxes change speed by up to 2x within a minute (neighbouring
tenants, frequency changes), far more than any bound a benchmark can
afford.  A run therefore times fixed loops that do not touch the program,
interleaved with its own work, and scales every time it reports by
``reference / measured`` for those loops: a box running at half speed
doubles both the work and the loops, and the scaled figure stays put.

Each workload is scaled by the loops that resemble its own work, since a
slowdown hits interpreter-bound and array-bound code differently:

* ``interp`` — a pure-Python loop of dict and integer operations;
* ``small_array`` — a Python loop of NumPy operations on 64-element arrays;
* ``matrix`` — column-group reductions over a 4096 x 64 integer matrix,
  the size and shape of the segment scanner's input;
* ``echo`` — closed-loop round trips of 300-byte frames to a bare asyncio
  echo server in its own process (``echo.py``): the process wake-ups and
  loopback sockets a served workload pays on every request.  It also
  scales every workload's ``setup_s``, since starting a process is kernel
  work of the same kind.

Each workload keeps only loops shown to cut the spread of its figures over
seeds (README.md, "Calibration").

``REFERENCE_S`` holds each loop's time on the 2-vCPU Xeon box the benchmark
was tuned on, in its faster state, so scaled figures read close to that
box's raw ones.  Both raw and scaled figures are printed.
"""

from __future__ import annotations

import socket
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from procs import Service, child_env

_RNG = np.random.default_rng(20_261_016)
_SMALL = _RNG.integers(0, 1000, size=64)
_MATRIX = _RNG.integers(0, 1000, size=(4096, 64))


def _interp() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(30_000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    return acc


def _small_array() -> int:
    acc = 0
    for i in range(3_000):
        acc += int(_SMALL[_SMALL > i % 1000].size) + int(_SMALL.argmax())
    return acc


def _matrix() -> int:
    acc = 0
    for _ in range(6):
        acc += int(_MATRIX[:, :8].min(axis=1).sum()) + int(_MATRIX[:, 8:].max(axis=1).sum())
    return acc


LOOPS = {"interp": _interp, "small_array": _small_array, "matrix": _matrix}
REFERENCE_S = {"interp": 0.0027, "small_array": 0.0048, "matrix": 0.0024, "echo": 40e-6}


class _Echo:
    """Closed-loop round trips to ``echo.py`` in its own process."""

    FRAME = (300).to_bytes(4, "big") + bytes(300)
    TRIPS = 300

    def __init__(self, src: Path, tmp: Path, log: Path):
        self.service = Service.launch([sys.executable, str(Path(__file__).with_name("echo.py"))],
                                      child_env(src, tmp), log)
        self.sock = socket.create_connection(self.service.address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def __call__(self) -> float:
        """Median seconds per round trip."""
        times = []
        for _ in range(self.TRIPS):
            t0 = time.perf_counter()
            self.sock.sendall(self.FRAME)
            reply = b""
            while len(reply) < 6:
                chunk = self.sock.recv(64)
                if not chunk:
                    raise ConnectionError("the echo server closed the connection")
                reply += chunk
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def close(self) -> None:
        self.sock.close()
        self.service.kill()


class Calibration:
    """Samples of one workload's calibration loops over a run.

    ``paths`` (the run's ``workloads.Paths``) places the echo server's
    sources, temp files and log; it is needed only when ``loops`` names
    ``echo``.  Use as a context manager so the echo server is stopped.
    """

    def __init__(self, loops: tuple[str, ...], paths=None):
        self.loops = loops
        self.reference = sum(REFERENCE_S[name] for name in loops)
        self.samples: list[float] = []
        self._echo = None
        if "echo" in loops:
            self._echo = _Echo(paths.src, paths.tmp, paths.work / "echo.log")

    def __enter__(self) -> "Calibration":
        return self

    def __exit__(self, *exc) -> None:
        if self._echo is not None:
            self._echo.close()

    def sample(self) -> float:
        """Time the loops now: in-process loops best of three, to shed
        scheduler blips; echo as the median of its round trips."""
        total = 0.0
        for name in self.loops:
            if name == "echo":
                total += self._echo()
                continue
            loop = LOOPS[name]
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                loop()
                times.append(time.perf_counter() - t0)
            total += min(times)
        self.samples.append(total)
        return total

    def scale(self, before: float, after: float) -> float:
        """Factor turning raw times measured between two samples into
        reference-speed times."""
        return self.reference / ((before + after) / 2.0)

    def box_speed(self) -> float:
        """Median box speed over the run, 1.0 = the reference box."""
        return self.scale(statistics.median(self.samples), statistics.median(self.samples))
