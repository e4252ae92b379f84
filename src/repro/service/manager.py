"""Session manager: thousands of live Algorithm-1 monitors in one process.

A :class:`SessionManager` owns a registry of named *sessions* — each one a
streaming Algorithm-1 coordinator, the counting engines'
:class:`~repro.engine.vectorized.IncrementalKernel` built with
``track_times=False`` (so it keeps no per-row state).  Rows are *fed* into
a bounded per-session inbox and *stepped* by sweeps; queries read the
current top-k, time, and protocol message count.

The inbox
---------
The unit of the inbox is the fed batch: ``feed_many`` checks a batch once —
2-D, width ``n``, integer dtype, whether it is a decoded binary-wire array or
a JSONL list of lists — and queues it whole as one ``(b, n)`` int64 block
(``feed`` queues a ``(1, n)`` view).  The bound is still counted in rows:
backpressure, :meth:`SessionManager.pending` and the lookahead threshold all
see the number of pending rows, and a batch that does not fit is refused
whole.

The batched stepping path
-------------------------
``step()`` does not loop sessions naively: initialized kernels of equal
``(n, k)`` are grouped, the next row of each one's head block stacked into
one ``(B, n)`` matrix, and quietness — "does this row violate any
filter?" — is decided for the whole group with one stacked comparison,
:func:`repro.engine.kernel.violates_stacked` over the kernels' shared
:class:`~repro.engine.kernel.FilterState` objects.  Quiet sessions (the
regime the paper's filters create) advance via ``quiet_step()`` — no
per-session Python protocol logic, no randomness consumed — so batched
stepping is **bit-identical** to stepping each session alone.  Traffic
shape alone picks the lane: a session with fewer than
``LOOKAHEAD_MIN_DEPTH`` rows pending joins a stacked group when another
initialized session of its shape is pending too, so feeding one row per
session per ``step()`` keeps a workload here.

The deep-inbox lookahead
------------------------
A session whose inbox is deep (``>= LOOKAHEAD_MIN_DEPTH`` pending rows,
e.g. after a bulk ``feed_rows`` or while draining) skips the sweep loop
entirely: its whole backlog is handed to the kernel's ``observe_many``
(the queued block itself, concatenated only when several are waiting),
which uses the kernel's cross-row ``scan_quiet`` block scan to drain every
quiet prefix at two whole-chunk reductions per chunk instead of B per-row
sweeps.  Exactness is the kernel's segment-skip invariant, so this too is
bit-identical — and it is the fast lane behind :meth:`drain` and
:meth:`close`.

Checkpoint / restore
--------------------
:meth:`checkpoint` persists every live session — the engine name, the
kernel's full algorithmic state (:meth:`IncrementalKernel.snapshot
<repro.engine.vectorized.IncrementalKernel.snapshot>`), and the pending
inbox as a flat list of rows — as one JSON file per session plus a
manifest, written atomically.  Each call that is not a no-op lists the
directory once, writes the dirty sessions and any session whose file is
missing, rewrites the manifest, then prunes the files of closed sessions.
``SessionManager(restore=dir)`` rebuilds the whole fleet, bit-identically:
restored sessions produce the same future trajectories, coin flips, and
message counts as if the process had never died.

The feed log
------------
Between checkpoints, durability costs one append per feed: once the
manager has a checkpoint directory (after :meth:`checkpoint` or a
restore), every accepted ``feed``/``feed_many`` appends one record to
``feeds.log`` there before it returns, so an acknowledged feed is a logged
one.  A record is ``u32 length | u32 crc32 | u16 id length | i64 index of
the block's first row | u32 rows | u32 (n << 4 | value width) | i64
reference | id | body``, little-endian; the CRC covers everything after
itself, and the body stores ``value - reference`` (the reference is the
block's minimum) in the narrowest of u8/u16/u32 that holds the block's
span, or the signed int64 values themselves (reference 0) when the span
does not fit in u32.  :meth:`checkpoint` is the compaction point: its
session files hold every logged row, so it unlinks the log last.  Restore
reads the session files, then replays the log into the inboxes, skipping
rows a session already holds, so a log that survived its compaction
applies nothing twice; it stops at the first short or corrupt record and
truncates the file there.  Nothing is fsynced: the log, like the JSON
files, survives a killed process, not a power loss.

The manager is deliberately single-threaded: the asyncio server
(:mod:`repro.service.server`) confines it to the event-loop thread, and
direct users (benchmarks, tests) drive it inline.
"""

from __future__ import annotations

import json
import os
import re
import struct
import weakref
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.engine.kernel import violates_stacked
from repro.engine.vectorized import IncrementalKernel
from repro.errors import BackpressureError, ConfigurationError, ServiceError
from repro.service.metrics import MetricsRecorder, MetricsSnapshot
from repro.util.seeding import normalize_seed
from repro.util.validation import check_k

__all__ = [
    "SessionManager",
    "SessionView",
    "SESSION_ENGINE",
    "DEFAULT_INBOX_LIMIT",
    "DEFAULT_MAX_NODES",
    "LOOKAHEAD_MIN_DEPTH",
    "check_create",
]

#: The engine name every session carries: replies, session files and
#: ``import`` payloads name it, and a ``create`` request or a payload that
#: names another engine is refused.
SESSION_ENGINE = "vectorized"

#: Default bound on pending rows per session (the backpressure threshold).
DEFAULT_INBOX_LIMIT = 1024

#: Cap on a session's node count: one `create` allocates O(n) arrays, so
#: a shared server must bound what a single request can ask for.
DEFAULT_MAX_NODES = 1_000_000

#: Inbox depth at which a session leaves the sweep loop and drains via one
#: ``observe_many`` block scan instead.  Below it the stacked batch
#: comparison is already optimal (one row per session).
LOOKAHEAD_MIN_DEPTH = 4

#: Manifest filename inside a checkpoint directory.
_MANIFEST = "manager.json"

#: Feed log filename inside a checkpoint directory (see "The feed log").
_FEED_LOG = "feeds.log"

_CHECKPOINT_SCHEMA = 1

# A feed-log record: (length, crc32) of everything after them, then the
# header, the session id and the body.
_RECORD_PREFIX = struct.Struct("<II")
_RECORD_HEADER = struct.Struct("<HqIIq")  # id length, first, rows, n << 4 | width, reference
# Body dtype by value width: frame-of-reference widths, then raw int64.
_BODY_DTYPES = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<i8")}

# Session ids become checkpoint *filenames* (and arrive over the wire), so
# they are restricted to a path-safe charset and must not shadow the
# manifest.  Enforced at create() and again at restore (untrusted dir).
_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def _check_session_id(session_id: str) -> str:
    if (
        not isinstance(session_id, str)
        or not _SESSION_ID_RE.fullmatch(session_id)
        or session_id.startswith("manager.")
        or session_id == "manager"
    ):
        raise ConfigurationError(
            f"invalid session id {session_id!r}: ids must match "
            f"{_SESSION_ID_RE.pattern} and not be reserved ('manager')"
        )
    return session_id


def check_create(n: int, k: int, *, seed=None, engine: str | None = None) -> None:
    """Refuse a create that cannot succeed, before anything is taken for it.

    A create needs ``1 <= k <= n <= DEFAULT_MAX_NODES``, a seed the kernel
    accepts, and no ``engine`` but :data:`SESSION_ENGINE`.  The manager
    checks this before it hands out a session id, the server for each
    ``create`` request, and a fleet router before it takes an id of its
    own, so a refused create consumes no id anywhere.

    Raises
    ------
    ConfigurationError
        Naming the first precondition that fails.
    """
    if engine not in (None, SESSION_ENGINE):
        raise ConfigurationError(
            f"engine {engine!r} cannot host a live session; "
            f"every session runs the {SESSION_ENGINE!r} kernel"
        )
    if not 1 <= n <= DEFAULT_MAX_NODES:
        raise ConfigurationError(
            f"n must be in [1, {DEFAULT_MAX_NODES}] (the session node cap), got {n}"
        )
    check_k(k, n)
    if seed is not None:
        normalize_seed(seed)


@dataclass(frozen=True)
class SessionView:
    """Immutable query snapshot of one session."""

    session_id: str
    engine: str
    n: int
    k: int
    time: int
    topk: tuple[int, ...]
    message_count: int
    pending: int

    def as_dict(self) -> dict:
        """JSON-safe shape used by the wire protocol's query reply."""
        return {
            "session": self.session_id,
            "engine": self.engine,
            "n": self.n,
            "k": self.k,
            "time": self.time,
            "topk": list(self.topk),
            "messages": self.message_count,
            "pending": self.pending,
        }


class _Session:
    """One live session: its kernel and the bounded inbox.

    ``inbox`` holds validated ``(b, n)`` int64 blocks, oldest first, with
    no empty block; ``pending`` is the number of rows across them.
    """

    __slots__ = ("session_id", "stepper", "inbox", "pending")

    def __init__(self, session_id: str, stepper: IncrementalKernel):
        self.session_id = session_id
        self.stepper = stepper
        self.inbox: deque[np.ndarray] = deque()
        self.pending = 0

    @property
    def received(self) -> int:
        """Rows fed so far: stepped (``time + 1``) plus pending."""
        return self.stepper.time + 1 + self.pending

    def push(self, block: np.ndarray) -> int:
        """Queue a validated block; returns the new pending row count."""
        if len(block):
            self.inbox.append(block)
            self.pending += len(block)
        return self.pending

    def pop_row(self) -> np.ndarray:
        """Take the oldest pending row off the head block."""
        block = self.inbox[0]
        if len(block) == 1:
            self.inbox.popleft()
        else:
            self.inbox[0] = block[1:]
        self.pending -= 1
        return block[0]

    def pop_all(self) -> np.ndarray:
        """Take every pending row as one block (no copy when one is queued)."""
        inbox = self.inbox
        block = inbox[0] if len(inbox) == 1 else np.concatenate(inbox)
        inbox.clear()
        self.pending = 0
        return block


class SessionManager:
    """Create/feed/query/close live monitoring sessions by id.

    Args
    ----
    inbox_limit:
        Maximum pending (fed but unstepped) rows per session; feeding
        beyond it raises :class:`~repro.errors.BackpressureError`.
    restore:
        Checkpoint directory to rebuild a previously persisted manager
        from (see :meth:`checkpoint`).  Raises
        :class:`~repro.errors.ConfigurationError` if the directory holds
        no manifest.
    """

    def __init__(
        self,
        *,
        inbox_limit: int = DEFAULT_INBOX_LIMIT,
        restore: str | os.PathLike | None = None,
    ):
        if inbox_limit < 1:
            raise ConfigurationError(f"inbox_limit must be >= 1, got {inbox_limit}")
        self.inbox_limit = inbox_limit
        self.metrics = MetricsRecorder()
        self._sessions: dict[str, _Session] = {}
        self._next_id = 1
        # Dirty tracking for incremental checkpoints: ids whose state or
        # inbox changed since the last checkpoint() into the log's
        # directory, plus whether any session closed (its file must be
        # pruned).
        self._dirty: set[str] = set()
        self._closed_since_checkpoint = False
        # The checkpoint directory's feed log (None until checkpoint/restore).
        self._log: _FeedLog | None = None
        if restore is not None:
            self.restore_from(restore)

    # ----------------------------------------------------------- lifecycle

    def create(self, n: int, k: int, *, seed=None, session_id: str | None = None) -> str:
        """Open a new session; returns its id.

        The session is ``IncrementalKernel(n, k, seed=seed,
        track_times=False)``: its counters count, but it keeps no list
        that grows per row, so a stream that never ends stays bounded.

        Raises
        ------
        ConfigurationError
            For invalid ``n``/``k``/``seed`` (see :func:`check_create`; no
            id is taken then) or a duplicate ``session_id``.
        """
        check_create(n, k, seed=seed)
        if session_id is None:
            # Skip ids a client already chose for a live session.
            while f"s{self._next_id}" in self._sessions:
                self._next_id += 1
            session_id = f"s{self._next_id}"
            self._next_id += 1
        else:
            _check_session_id(session_id)
        if session_id in self._sessions:
            raise ConfigurationError(f"session id {session_id!r} already exists")
        stepper = IncrementalKernel(n, k, seed=seed, track_times=False)
        self._sessions[session_id] = _Session(session_id, stepper)
        self._dirty.add(session_id)
        self.metrics.sessions_created += 1
        return session_id

    def close(self, session_id: str) -> SessionView:
        """Drain a session's remaining inbox, retire it, return the final view."""
        session = self._get(session_id)
        if session.pending:
            t0 = self.metrics.clock()
            rows = self._drain_session(session)
            self.metrics.record_sweep(rows, self.metrics.clock() - t0, lookahead=rows)
        view = self._view(session)
        self.metrics.record_close(view.message_count)
        del self._sessions[session_id]
        self._dirty.discard(session_id)
        self._closed_since_checkpoint = True
        return view

    # -------------------------------------------------------------- feeding

    def feed(self, session_id: str, row) -> int:
        """Enqueue one observation row; returns the new inbox depth.

        Raises
        ------
        ServiceError
            For an unknown session id, or when the feed log cannot be
            written (the row is then not queued).
        BackpressureError
            When the session's inbox is at ``inbox_limit``.
        ConfigurationError
            For a row of the wrong shape or a non-integer dtype.
        """
        session = self._get(session_id)
        if session.pending >= self.inbox_limit:
            self.metrics.record_backpressure()
            raise BackpressureError(session_id, self.inbox_limit)
        n = session.stepper.n
        row = np.asarray(row)
        if row.shape != (n,):
            raise ConfigurationError(f"row must have shape ({n},), got {row.shape}")
        if not np.issubdtype(row.dtype, np.integer):
            raise ConfigurationError(f"row must be integer-typed, got dtype {row.dtype}")
        return self._accept(session, row.astype(np.int64, copy=False).reshape(1, n))

    def feed_many(self, session_id: str, rows) -> int:
        """Enqueue several rows atomically; returns the new inbox depth.

        ``rows`` is a ``(B, n)`` integer array or a list of ``B`` integer
        rows (``[]`` queues nothing).  The batch is validated and
        capacity-checked as a whole *before* it is queued as one block, so
        a refused batch leaves the inbox untouched — which is what makes a
        client-side retry after backpressure safe.

        Raises
        ------
        ConfigurationError
            For a batch that is not 2-D of width ``n``, is ragged or not
            integer-typed, or holds more rows than ``inbox_limit``.
        BackpressureError
            When the batch does not fit in the inbox's free rows.
        ServiceError
            For an unknown session id, or when the feed log cannot be
            written (the batch is then not queued).
        """
        session = self._get(session_id)
        block = _as_block(rows, session.stepper.n)
        if len(block) > self.inbox_limit:
            # Not retryable by draining — fail loudly instead of letting a
            # blocking client spin on backpressure forever.
            raise ConfigurationError(
                f"batch of {len(block)} rows exceeds the inbox limit ({self.inbox_limit})"
            )
        if session.pending + len(block) > self.inbox_limit:
            self.metrics.record_backpressure()
            raise BackpressureError(session_id, self.inbox_limit)
        return self._accept(session, block)

    def _accept(self, session: _Session, block: np.ndarray) -> int:
        """Log a validated block when durable, then queue it.

        A feed whose record cannot be written raises
        :class:`~repro.errors.ServiceError` and queues nothing, so an
        acknowledged feed is always a logged one.
        """
        if self._log is not None and len(block):
            self._log.append(session.session_id, session.received, block)
        self._dirty.add(session.session_id)
        return session.push(block)

    # ------------------------------------------------------------- stepping

    def step(self) -> int:
        """One sweep: advance every session with pending rows.

        Returns the number of rows processed.  Three lanes, fastest first,
        chosen by inbox depth and group width alone: deep inboxes drain
        whole via an ``observe_many`` block scan; initialized kernels are
        grouped by ``(n, k)`` and their quietness decided in one stacked
        comparison; a session's first row, a ``k = n`` session and a group
        of one advance one row individually.  All three lanes are
        bit-identical (see the module docstring).
        """
        t0 = self.metrics.clock()
        singles: list[_Session] = []
        deep: list[_Session] = []
        groups: dict[tuple[int, int], list[_Session]] = {}
        for session in self._sessions.values():
            if not session.pending:
                continue
            stepper = session.stepper
            if session.pending >= LOOKAHEAD_MIN_DEPTH:
                deep.append(session)
            elif stepper.initialized and not stepper.trivial:
                groups.setdefault((stepper.n, stepper.k), []).append(session)
            else:
                singles.append(session)

        looked = quiet = 0
        for session in deep:
            stepper = session.stepper
            # Noisy rows = handler invocations during the block (+ the t=0
            # initialization reset, which bypasses the handler).
            handlers_before = stepper.handler_calls
            had_init = not stepper.initialized
            n_rows = self._drain_session(session)
            noisy = stepper.handler_calls - handlers_before + (1 if had_init else 0)
            quiet += n_rows - noisy
            looked += n_rows

        batched = 0
        for members in groups.values():
            if len(members) == 1:
                singles.append(members[0])
                continue
            rows = [m.pop_row() for m in members]
            noisy = violates_stacked(np.stack(rows), [m.stepper.filter for m in members])
            for member, row, is_noisy in zip(members, rows, noisy):
                if is_noisy:
                    member.stepper.step(row)
                else:
                    member.stepper.quiet_step()
                    quiet += 1
            batched += len(members)

        for session in singles:
            session.stepper.step(session.pop_row())

        processed = looked + batched + len(singles)
        if processed:
            self.metrics.record_sweep(
                processed, self.metrics.clock() - t0,
                batched=batched, quiet=quiet, lookahead=looked,
            )
        return processed

    def drain(self) -> int:
        """Sweep until no session has pending rows; returns rows processed."""
        total = 0
        while True:
            processed = self.step()
            if not processed:
                return total
            total += processed

    def _drain_session(self, session: _Session) -> int:
        """Drain one session's non-empty inbox through the kernel's
        lookahead ``observe_many`` (the deep-inbox fast lane); returns the
        rows stepped."""
        count = session.pending
        session.stepper.observe_many(session.pop_all())
        self._dirty.add(session.session_id)
        return count

    # -------------------------------------------------------------- queries

    def query(self, session_id: str) -> SessionView:
        """Current state of one session (top-k as of the last stepped row)."""
        return self._view(self._get(session_id))

    def pending(self, session_id: str) -> int:
        """Rows fed but not yet stepped for one session."""
        return self._get(session_id).pending

    def time(self, session_id: str) -> int:
        """Index of a session's last stepped row (-1 before the first).

        Cheaper than :meth:`query` — the wire feed path calls this per row.
        """
        return self._get(session_id).stepper.time

    def total_pending(self) -> int:
        """Rows fed but not yet stepped, over all sessions."""
        return sum(s.pending for s in self._sessions.values())

    def log_bytes(self) -> int:
        """Bytes of feed log written since the last checkpoint (0 when not durable)."""
        return self._log.length if self._log is not None else 0

    def session_ids(self) -> list[str]:
        """Ids of all live sessions, in creation order."""
        return list(self._sessions)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Service counters plus live-session aggregates."""
        return self.metrics.snapshot(
            sessions_live=len(self._sessions),
            live_messages=sum(s.stepper.message_count for s in self._sessions.values()),
        )

    # ----------------------------------------------------------- migration

    def export_session(self, session_id: str) -> dict:
        """Detach one live session as a portable checkpoint payload.

        The payload has the same schema as a checkpoint file (engine name,
        kernel snapshot, message total, pending inbox) and is
        bit-identically re-hostable anywhere via :meth:`import_session` —
        the primitive behind live session migration in the fleet router
        (:mod:`repro.service.fleet`).  The session is removed from this
        manager *without draining*: its pending rows travel in the payload.

        Raises
        ------
        ServiceError
            For an unknown session id.
        """
        session = self._get(session_id)
        payload = self._session_payload(session)
        del self._sessions[session_id]
        self._dirty.discard(session_id)
        self._closed_since_checkpoint = True  # prune its checkpoint file
        return payload

    def import_session(self, payload: dict) -> str:
        """Adopt a session exported by :meth:`export_session`; returns its id.

        The inverse of :meth:`export_session`: the rebuilt session produces
        the same future trajectories, coin flips, and message counts as if
        it had never moved.  Counts toward ``sessions_restored`` in the
        metrics (a migration *is* a restore of one session).

        Raises
        ------
        ConfigurationError
            For an unsupported schema, an invalid or duplicate session id,
            an engine other than :data:`SESSION_ENGINE`, a corrupt kernel
            snapshot, or a pending inbox that is not a ``(B, n)`` integer
            batch.
        """
        if not isinstance(payload, dict) or payload.get("schema") != _CHECKPOINT_SCHEMA:
            raise ConfigurationError(
                f"unsupported session payload schema "
                f"{payload.get('schema') if isinstance(payload, dict) else payload!r}"
            )
        session_id = _check_session_id(payload["session"])
        if session_id in self._sessions:
            raise ConfigurationError(f"session id {session_id!r} already exists")
        self._sessions[session_id] = self._session_from_payload(session_id, payload)
        self._dirty.add(session_id)
        self.metrics.sessions_restored += 1
        return session_id

    # ---------------------------------------------------------- persistence

    def _session_payload(self, session: _Session) -> dict:
        """The JSON-safe checkpoint/migration form of one live session."""
        return {
            "schema": _CHECKPOINT_SCHEMA,
            "session": session.session_id,
            "engine": SESSION_ENGINE,
            "messages": session.stepper.message_count,
            "state": session.stepper.snapshot(),
            "inbox": [row for block in session.inbox for row in block.tolist()],
        }

    @staticmethod
    def _session_from_payload(session_id: str, data: dict) -> _Session:
        """Rebuild a live session from its checkpoint/migration payload.

        Raises
        ------
        ConfigurationError
            If the payload names an engine other than
            :data:`SESSION_ENGINE` (a session of another engine cannot be
            hosted), if its kernel snapshot is missing a field or does not
            decode to a valid kernel, or if its pending inbox is missing or
            not a ``(B, n)`` integer batch — refused here, naming the session,
            rather than by the first query or sweep that reaches it.
        """
        if data.get("engine") != SESSION_ENGINE:
            raise ConfigurationError(
                f"session {session_id!r} runs engine {data.get('engine')!r}; "
                f"only {SESSION_ENGINE!r} sessions can be hosted"
            )
        try:
            stepper = IncrementalKernel.from_snapshot(data["state"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"session {session_id!r} has a corrupt kernel snapshot: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        session = _Session(session_id, stepper)
        try:
            if "inbox" not in data:
                raise ConfigurationError("the payload has no inbox")
            session.push(_as_block(data["inbox"], stepper.n))
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"session {session_id!r} has a corrupt pending inbox: {exc}"
            ) from None
        return session

    def checkpoint(self, directory: str | os.PathLike) -> int:
        """Persist every live session under ``directory``; returns the count.

        One ``<session_id>.json`` per session (engine name, the kernel's
        state snapshot, message total, pending inbox rows)
        plus a ``manager.json`` manifest.  Every file is written to a temp
        name and atomically renamed, so a kill mid-checkpoint leaves the
        previous checkpoint intact.  Writes are incremental: one listing
        of the directory finds the session files present; only sessions
        that changed since the last checkpoint into the same directory, or
        whose file is missing, are rewritten; the manifest is rewritten on
        every call that is not a no-op; then the files of closed sessions
        are pruned — only once no manifest names them — and the feed log,
        whose rows the session files now hold, is unlinked.
        """
        directory = Path(directory)
        if self._log is None or directory != self._log.directory:
            # First checkpoint into this directory: everything is dirty.
            self._use_directory(directory)
            self._dirty = set(self._sessions)
            self._closed_since_checkpoint = True  # force a full pass
        elif not self._dirty and not self._closed_since_checkpoint and not self._log.length:
            # Nothing changed since the last checkpoint here: the no-op
            # must be free of directory I/O.
            return len(self._sessions)
        directory.mkdir(parents=True, exist_ok=True)
        present = set(os.listdir(directory))
        for session_id, session in self._sessions.items():
            name = f"{session_id}.json"
            if session_id in self._dirty or name not in present:
                _atomic_write(directory / name, self._session_payload(session))
                self._dirty.discard(session_id)
        _atomic_write(
            directory / _MANIFEST,
            {
                "schema": _CHECKPOINT_SCHEMA,
                "next_id": self._next_id,
                "sessions": sorted(self._sessions),
            },
        )
        if self._closed_since_checkpoint:
            for name in present - {_MANIFEST}:
                if name.endswith(".json") and name.removesuffix(".json") not in self._sessions:
                    os.unlink(directory / name)  # prune closed sessions
            self._closed_since_checkpoint = False
        self._log.remove()
        return len(self._sessions)

    def restore_from(self, directory: str | os.PathLike) -> int:
        """Load a whole checkpoint directory into this (empty) manager.

        The runtime form of ``SessionManager(restore=dir)``: a hot-standby
        process starts empty, and on takeover *replays the dead worker's
        checkpoint dir* through this hook (the fleet router's ``restore``
        wire op).  After the session files, the feed log is replayed: each
        record's rows that its session does not hold yet join the inbox
        (which may then exceed ``inbox_limit``); records of sessions the
        manifest does not list are skipped, and replay stops at the first
        short or corrupt record.  Future :meth:`checkpoint` calls into the
        same directory continue incrementally from the restored state, and
        feeds append to its log.  Returns the number of sessions restored.

        Raises
        ------
        ConfigurationError
            If this manager already hosts sessions (a merge would risk id
            collisions between two live fleets — use
            :meth:`import_session` to move individual sessions), if the
            directory holds no valid manifest, if a session file the
            manifest lists is missing, names an engine other than
            :data:`SESSION_ENGINE`, holds a corrupt kernel snapshot or a
            pending inbox that is not a ``(B, n)`` integer batch, or if a
            feed-log record skips rows its session never received.
        """
        if self._sessions:
            raise ConfigurationError(
                f"restore_from requires an empty manager; this one hosts "
                f"{len(self._sessions)} sessions (migrate individual sessions "
                f"with import_session instead)"
            )
        directory = Path(directory)
        manifest_path = directory / _MANIFEST
        if not manifest_path.exists():
            raise ConfigurationError(
                f"no manager checkpoint found at {directory} (missing {_MANIFEST})"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("schema") != _CHECKPOINT_SCHEMA:
            raise ConfigurationError(
                f"unsupported manager checkpoint schema {manifest.get('schema')!r}"
            )
        self._next_id = int(manifest["next_id"])
        for session_id in manifest["sessions"]:
            _check_session_id(session_id)  # a tampered manifest must not traverse
            path = directory / f"{session_id}.json"
            try:
                data = json.loads(path.read_text())
            except FileNotFoundError:
                raise ConfigurationError(
                    f"checkpoint at {directory} lists session {session_id!r}, "
                    f"but its file {path.name} is missing"
                ) from None
            self._sessions[session_id] = self._session_from_payload(session_id, data)
        self._use_directory(directory)
        self._dirty.clear()
        self._closed_since_checkpoint = False
        self._replay_log()
        self.metrics.sessions_restored += len(self._sessions)
        return len(self._sessions)

    def _use_directory(self, directory: Path) -> None:
        """Make ``directory`` the checkpoint directory, closing the old log."""
        if self._log is not None:
            self._log.close()
        self._log = _FeedLog(directory)

    def _replay_log(self) -> None:
        """Queue the logged rows each restored session does not hold yet."""
        for session_id, first, block in self._log.replay():
            session = self._sessions.get(session_id)
            if session is None:
                continue  # not in the manifest: created after the checkpoint
            received = session.received
            if first > received:
                raise ConfigurationError(
                    f"session {session_id!r}: a feed-log record starts at row {first}, "
                    f"but the checkpoint holds only {received} rows"
                )
            if first + len(block) <= received:
                continue  # already in the session file
            try:
                session.push(_as_block(block[received - first:], session.stepper.n))
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"session {session_id!r} has a corrupt feed-log record: {exc}"
                ) from None
            self._dirty.add(session_id)

    # ------------------------------------------------------------ internals

    def _get(self, session_id: str) -> _Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ServiceError(f"unknown session {session_id!r}") from None

    @staticmethod
    def _view(session: _Session) -> SessionView:
        stepper = session.stepper
        return SessionView(
            session_id=session.session_id,
            engine=SESSION_ENGINE,
            n=stepper.n,
            k=stepper.k,
            time=stepper.time,
            topk=tuple(int(i) for i in stepper.topk),
            message_count=stepper.message_count,
            pending=session.pending,
        )


def _as_block(rows, n: int) -> np.ndarray:
    """Check a batch once; returns it as a ``(B, n)`` int64 block.

    ``rows`` is a 2-D integer array (a decoded binary-wire feed) or a list
    of integer rows (a JSONL feed, a checkpoint's inbox); ``[]`` is the
    empty batch.  int64 input is returned without a copy.
    """
    try:
        block = np.asarray(rows)
    except ValueError:  # ragged nested lists
        raise ConfigurationError(f"rows must form a (B, {n}) array, got ragged rows") from None
    if block.shape == (0,):
        return np.empty((0, n), dtype=np.int64)
    if block.ndim != 2 or block.shape[1] != n:
        raise ConfigurationError(f"rows must have shape (B, {n}), got {block.shape}")
    if not np.issubdtype(block.dtype, np.integer):
        raise ConfigurationError(f"rows must be integer-typed, got dtype {block.dtype}")
    return block.astype(np.int64, copy=False)


def _atomic_write(path: Path, payload: dict) -> None:
    """Write JSON via a temp file + rename (kill-safe at file granularity)."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, separators=(",", ":")))
    os.replace(tmp, path)


def _encode_body(block: np.ndarray) -> tuple[int, np.ndarray]:
    """Frame-of-reference encoding of a block: ``(reference, body)``.

    The body holds ``value - min`` in the narrowest of u8/u16/u32 that
    fits the block's span, or the int64 values (reference 0) otherwise.
    """
    low = int(block.min())
    span = int(block.max()) - low
    for width in (1, 2, 4):
        if span >> (8 * width) == 0:
            body = np.empty(block.shape, _BODY_DTYPES[width])
            np.subtract(block, low, out=body, casting="unsafe")
            return low, body
    return 0, np.ascontiguousarray(block, _BODY_DTYPES[8])


class _FeedLog:
    """The append-only feed log of one checkpoint directory.

    The file is opened on the first append and closed at compaction, when
    the manager moves to another directory, or when the log is collected.
    ``length`` counts the bytes of complete records; opening the file cuts
    it back to that length, so a torn tail never precedes a new record.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.path = directory / _FEED_LOG
        self.length = 0
        self._fd: int | None = None
        self._close: weakref.finalize | None = None

    def append(self, session_id: str, first: int, block: np.ndarray) -> None:
        """Write one record with one ``writev``, or raise having written none."""
        reference, body = _encode_body(block)
        sid = session_id.encode()
        rows, n = block.shape
        head = _RECORD_HEADER.pack(len(sid), first, rows, n << 4 | body.itemsize, reference)
        crc = zlib.crc32(body, zlib.crc32(sid, zlib.crc32(head)))
        size = len(head) + len(sid) + body.nbytes
        parts = (_RECORD_PREFIX.pack(size, crc), head, sid, body)
        size += _RECORD_PREFIX.size
        try:
            if self._fd is None:
                self._open()
            written = os.writev(self._fd, parts)
            if written != size:
                raise OSError(f"short write: {written} of {size} bytes")
        except OSError as exc:
            if self._fd is not None:
                try:
                    os.ftruncate(self._fd, self.length)
                except OSError:
                    self.close()  # reopening truncates
            raise ServiceError(f"could not log the feed to session {session_id!r}: {exc}") from None
        self.length += size

    def _open(self) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.ftruncate(fd, self.length)
        except OSError:
            os.close(fd)
            raise
        self._fd = fd
        self._close = weakref.finalize(self, os.close, fd)

    def close(self) -> None:
        if self._close is not None:
            self._close()
            self._fd = self._close = None

    def remove(self) -> None:
        """Close and unlink the log: a checkpoint now holds its rows."""
        self.close()
        self.path.unlink(missing_ok=True)
        self.length = 0

    def replay(self) -> Iterator[tuple[str, int, np.ndarray]]:
        """Yield ``(session_id, first, block)`` for each complete record.

        Stops at the first short or corrupt record, with ``length`` set to
        the bytes before it.
        """
        try:
            data = memoryview(self.path.read_bytes())
        except FileNotFoundError:
            return
        offset = 0
        while offset + _RECORD_PREFIX.size <= len(data):
            size, crc = _RECORD_PREFIX.unpack_from(data, offset)
            start = offset + _RECORD_PREFIX.size
            end = start + size
            if end > len(data) or size < _RECORD_HEADER.size or zlib.crc32(data[start:end]) != crc:
                return
            id_len, first, rows, packed, reference = _RECORD_HEADER.unpack_from(data, start)
            n, width = packed >> 4, packed & 0xF
            body = start + _RECORD_HEADER.size + id_len
            if width not in _BODY_DTYPES or end - body != rows * n * width:
                return
            session_id = str(data[start + _RECORD_HEADER.size:body], "utf-8", "replace")
            block = np.frombuffer(data, _BODY_DTYPES[width], rows * n, body).astype(np.int64)
            block += reference
            self.length = offset = end
            yield session_id, first, block.reshape(rows, n)
