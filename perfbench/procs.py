"""Service processes for the benchmark: launch, set-up timing, RSS, teardown.

Every server or fleet the benchmark starts runs in its own process group
(``start_new_session``), and the fleet router's workers and standby inherit
that group, so one ``killpg`` stops the whole tree.  The benchmark process
also makes itself a child subreaper, so orphaned workers are reparented to
it and can be waited for.  :func:`stop_all` runs on every exit path
(``finally`` in ``run.py``, ``atexit`` and SIGTERM), so a crashed run never
leaves workers behind to skew the next one.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

_LIVE: list["Service"] = []
_PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """A failed operation: error reply, exception, timeout or wrong answer."""


def install_cleanup() -> None:
    """Reap orphaned workers ourselves and stop every service on exit."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: killpg still stops the tree, we just cannot wait on orphans
    atexit.register(stop_all)

    def _on_term(signum, frame):
        stop_all()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _on_term)


def stop_all() -> None:
    """Kill every service still running, then wait for every child (idempotent)."""
    while _LIVE:
        _LIVE.pop().kill()
    deadline = time.monotonic() + 10.0
    while True:  # orphans of a killed tree are reparented to this subreaper
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                raise BenchError("child processes still alive 10s after SIGKILL")
            time.sleep(0.01)


def serve_cmd(argv: list[str]) -> list[str]:
    """The service CLI on an ephemeral port."""
    return [sys.executable, "-m", "repro.service", "--serve", "127.0.0.1:0", *argv]


def child_env(src: Path, tmp: Path, *, obs: bool = False) -> dict:
    """Environment for a program process: sources from the checkout, temp
    files inside it, observability only when asked for."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(tmp)
    if obs:
        env["REPRO_OBS"] = "1"
    return env


class Service:
    """One served process tree: a server, or a router with its workers."""

    def __init__(self, proc: subprocess.Popen, address: tuple[str, int], log: Path):
        self.proc = proc
        self.address = address
        self.log = log
        self.pids = [proc.pid]  # grows with fleet worker/standby pids

    @classmethod
    def launch(cls, cmd: list[str], env: dict, log: Path, timeout: float = 60.0) -> "Service":
        """Start ``cmd`` and wait for its ``listening on HOST:PORT`` line."""
        with open(log, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                    start_new_session=True)
        service = cls(proc, ("", 0), log)
        _LIVE.append(service)
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    service.kill()
                    raise BenchError(f"service did not bind within {timeout}s: {cmd}")
                line = proc.stdout.readline().decode(errors="replace").strip()
                if not line:
                    service.kill()
                    raise BenchError(f"service exited before binding (see {log})")
                if line.startswith("listening on "):
                    host, _, port = line.removeprefix("listening on ").rpartition(":")
                    service.address = (host, int(port))
                    return service

    def adopt_fleet_pids(self, fleet: dict) -> None:
        """Record worker and standby pids from a ``fleet`` op reply."""
        self.pids += [w["pid"] for w in fleet["workers"]]
        if fleet.get("standby"):
            self.pids.append(fleet["standby"]["pid"])

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) summed over the tree's processes."""
        total_kb = 0
        for pid in self.pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError as exc:
                raise BenchError(f"process {pid} vanished before its RSS was read") from exc
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until every member ended."""
        if self in _LIVE:
            _LIVE.remove(self)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        for pid in self.pids[1:]:
            _wait_gone(pid)


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    """Wait for an orphaned worker: reap it if it is ours, else poll /proc."""
    try:
        os.waitpid(pid, 0)
        return
    except ChildProcessError:
        pass
    deadline = time.monotonic() + timeout
    stat = Path(f"/proc/{pid}/stat")
    while time.monotonic() < deadline:
        try:
            if stat.read_text().split(") ", 1)[1].startswith("Z"):
                return
        except (OSError, IndexError):
            return
        time.sleep(0.01)
    raise BenchError(f"worker {pid} still alive {timeout}s after SIGKILL")
