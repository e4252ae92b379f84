"""Algorithm 2: the randomized maximum / minimum protocols.

A set of participants (a subset of the ``n`` nodes), each holding a fixed
value, must communicate the maximum (resp. minimum) of their values to the
coordinator.  The protocol proceeds in rounds ``r = 0, 1, ..., ceil(log2 N)``
for an upper bound ``N`` on the participant count:

1. every still-*active* participant whose value exceeds the last broadcast
   running maximum flips an independent coin with success probability
   ``min(1, 2^r / N)``;
2. on success it sends ``(id, value)`` to the coordinator and deactivates;
3. the coordinator broadcasts the running maximum when it learned a strictly
   larger value, which deactivates every participant at or below it.

In the final round the send probability reaches 1, so the protocol is Las
Vegas: it *always* returns the exact maximum, only the number of messages is
random — Theorem 4.2 shows ``E[messages] <= 2 log2 N + 1`` and ``O(log N)``
w.h.p.; Theorem 4.3 shows ``Ω(log n)`` is necessary.

Randomness convention (important for differential testing): a fresh coin
per round that stops at its first success is the same law as drawing, once,
the round of that first success.  So each execution draws
``rng.random(size=#participants)`` once, at its start, over the
participants in ascending node-id order, and maps each uniform ``u`` to the
smallest round ``r`` with ``u < F_r``, where ``F_r`` is the chance of a
success by round ``r`` (:func:`repro.engine.kernel.first_send_table`).  A
participant sends in that round if it is still active then.  Any
implementation following this convention produces bit-identical message
counts for the same seed; winners never depend on the coins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import ProtocolConfig
from repro.engine.kernel import first_send_rounds, first_send_table
from repro.errors import ConfigurationError, ProtocolError
from repro.model.message import Phase
from repro.model.transport import Transport

__all__ = [
    "ProtocolConfig",
    "ProtocolOutcome",
    "maximum_protocol",
    "minimum_protocol",
]


@dataclass(frozen=True)
class ProtocolOutcome:
    """Result of one protocol execution.

    ``winner``/``value`` identify the extremum (ties broken by lowest id);
    ``node_messages`` is the Theorem 4.2 quantity; ``broadcasts`` counts
    coordinator round broadcasts (excluding any start broadcast);
    ``rounds`` is the number of coin-flip rounds executed.
    """

    winner: int
    value: int
    node_messages: int
    broadcasts: int
    rounds: int

    @property
    def total_messages(self) -> int:
        """Node messages plus coordinator round broadcasts."""
        return self.node_messages + self.broadcasts


def _extremum_protocol(
    ids: Sequence[int] | np.ndarray,
    values: Sequence[int] | np.ndarray,
    upper_bound: int,
    rng: np.random.Generator,
    transport: Transport | None,
    *,
    sign: int,
    phase: Phase = Phase.OTHER,
    coordinator_initiated: bool = False,
    config: ProtocolConfig | None = None,
) -> ProtocolOutcome | None:
    """Shared engine for max (``sign=+1``) and min (``sign=-1``).

    Internally maximizes ``value`` or ``~value``; ``~`` orders int64 as
    negation does, without wrapping at the minimum, and is its own
    inverse, so reported values are ``unkey(key)``.
    """
    config = config or ProtocolConfig()
    ids_arr = np.asarray(ids, dtype=np.int64)
    vals_arr = np.asarray(values, dtype=np.int64)
    if ids_arr.shape != vals_arr.shape or ids_arr.ndim != 1:
        raise ConfigurationError("ids and values must be 1-D arrays of equal length")
    m = int(ids_arr.size)
    if m == 0:
        return None
    if len(np.unique(ids_arr)) != m:
        raise ConfigurationError("participant ids must be distinct")
    upper_bound = int(upper_bound)
    if upper_bound < m:
        raise ConfigurationError(f"upper_bound N={upper_bound} smaller than participant count {m}")

    # Canonical ascending-id order (randomness convention).
    order = np.argsort(ids_arr, kind="stable")
    ids_arr = ids_arr[order]
    keyed = vals_arr[order] if sign > 0 else ~vals_arr[order]

    def unkey(key) -> int:
        return int(key) if sign > 0 else ~int(key)

    if transport is not None and coordinator_initiated and config.charge_start_broadcast:
        transport.broadcast(("protocol_start", phase.value), Phase.PROTOCOL_START)

    # One uniform per participant, in ascending id order, fixes the round
    # of its first coin success (randomness convention).
    table = first_send_table(upper_bound)
    first_round = first_send_rounds(rng.random(m), table)
    active = np.ones(m, dtype=bool)
    best_key: int | None = None  # last *broadcast* running extremum
    coord_best_key: int | None = None  # best the coordinator has received
    best_id: int = -1
    node_messages = 0
    broadcasts = 0
    rounds_run = 0

    for r in range(table.size):
        if not active.any():
            break
        # Deactivation by the last broadcast value (strict comparison: ties
        # stay active, which is what makes the tie-broken winner exact).
        if best_key is not None:
            active &= keyed >= best_key
            if not active.any():
                break
        rounds_run += 1
        senders = np.flatnonzero(active & (first_round == r))
        round_got_message = senders.size > 0
        improved = False
        for j in senders:
            node_messages += 1
            if transport is not None:
                transport.node_to_coord(int(ids_arr[j]), (int(ids_arr[j]), unkey(keyed[j])), phase)
            key = int(keyed[j])
            if coord_best_key is None or key > coord_best_key or (key == coord_best_key and int(ids_arr[j]) < best_id):
                if coord_best_key is None or key > coord_best_key:
                    improved = True
                coord_best_key = key
                best_id = int(ids_arr[j])
        active[senders] = False
        if (round_got_message and improved) or (
            config.broadcast_every_round and coord_best_key is not None
        ):
            broadcasts += 1
            if transport is not None:
                transport.broadcast(unkey(coord_best_key), Phase.PROTOCOL_ROUND)
            best_key = coord_best_key

    if coord_best_key is None:
        raise ProtocolError("protocol terminated without any message; final round must force sends")

    # Sanity: Las Vegas exactness.
    true_key = int(keyed.max())
    if coord_best_key != true_key:
        raise ProtocolError(
            f"protocol returned key {coord_best_key} but true extremum key is {true_key}"
        )

    return ProtocolOutcome(
        winner=best_id,
        value=unkey(coord_best_key),
        node_messages=node_messages,
        broadcasts=broadcasts,
        rounds=rounds_run,
    )


def maximum_protocol(
    ids: Sequence[int] | np.ndarray,
    values: Sequence[int] | np.ndarray,
    upper_bound: int,
    rng: np.random.Generator,
    transport: Transport | None = None,
    *,
    phase: Phase = Phase.OTHER,
    coordinator_initiated: bool = False,
    config: ProtocolConfig | None = None,
) -> ProtocolOutcome | None:
    """Run Algorithm 2 over the given participants; returns the maximum.

    ``upper_bound`` is the paper's ``N`` — an upper bound on how many nodes
    *might* participate (e.g. ``n - k`` when the BOTTOM side runs it), which
    the participants know even though the actual violator count is unknown.
    Returns ``None`` when the participant set is empty (no violators ⇒ the
    coordinator hears nothing, Alg. 1 lines 11-12).
    """
    return _extremum_protocol(
        ids,
        values,
        upper_bound,
        rng,
        transport,
        sign=+1,
        phase=phase,
        coordinator_initiated=coordinator_initiated,
        config=config,
    )


def minimum_protocol(
    ids: Sequence[int] | np.ndarray,
    values: Sequence[int] | np.ndarray,
    upper_bound: int,
    rng: np.random.Generator,
    transport: Transport | None = None,
    *,
    phase: Phase = Phase.OTHER,
    coordinator_initiated: bool = False,
    config: ProtocolConfig | None = None,
) -> ProtocolOutcome | None:
    """The symmetric MinimumProtocol (maximize the negated values)."""
    return _extremum_protocol(
        ids,
        values,
        upper_bound,
        rng,
        transport,
        sign=-1,
        phase=phase,
        coordinator_initiated=coordinator_initiated,
        config=config,
    )
