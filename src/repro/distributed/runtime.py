"""The simulation runtime clocking the distributed state machines.

The runtime plays the role of the physical world: it delivers observations,
clocks protocol rounds, carries messages, and supplies each participant's
coin (following the shared randomness convention — one uniform per
participant per execution fixes its first-send round — so results are
bit-comparable with the other two engines).  All *decisions* live in the
agents; grep this file for ``node.`` / ``coordinator.`` calls to verify the
runtime never peeks at values beyond delivering them.

Fault seams
-----------
The physical world is not always kind, so every point where the runtime
*carries* something — an observation, a node reply, a broadcast — goes
through a small overridable hook (``_observe``, ``_deliver_reply``,
``_control_broadcast``, ...).  The default implementations deliver
perfectly and instantly; :class:`repro.faults.runtime.FaultyRuntime`
overrides them to drop, duplicate, delay and corrupt under a seeded
:class:`~repro.faults.plan.FaultPlan`.  With no fault layer attached, this
module's behaviour is bit-identical to the other engines (the three-way
differential tests enforce it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.distributed.coordinator import CoordinatorAgent, ProtocolBook
from repro.distributed.node import NodeAgent
from repro.engine.kernel import first_send_rounds, first_send_table
from repro.model.ledger import MessageLedger
from repro.model.message import MessageKind, Phase
from repro.obs.registry import OBS, counter as _obs_counter
from repro.obs.trace import span as _obs_span
from repro.types import Side
from repro.util.seeding import derive_rng
from repro.util.validation import check_k, check_matrix

__all__ = ["DistributedResult", "run_distributed"]

# Registry families (repro/obs).  Per-node uplink counts are published at
# the reply seam (`_deliver_reply`, also overridden by the faulty
# runtime), per-phase totals once per run from the ledger — both behind
# ``OBS.on``, so a default-off run carries one boolean load per reply.
_OBS_NODE_MSGS = _obs_counter(
    "repro_distributed_node_messages_total",
    "uplink replies delivered to the coordinator, by node id",
    ("node",),
)
_OBS_PHASE_MSGS = _obs_counter(
    "repro_distributed_messages_total",
    "messages charged by distributed runs, by protocol phase",
    ("phase",),
)
_OBS_RUNS = _obs_counter(
    "repro_distributed_runs_total", "completed distributed runtime executions"
)


@dataclass
class DistributedResult:
    """Output of a distributed run (mirrors the other engines' results)."""

    n: int
    k: int
    steps: int
    topk_history: np.ndarray
    ledger: MessageLedger
    resets: int = 0
    handler_calls: int = 0
    reset_times: list[int] = field(default_factory=list)
    handler_times: list[int] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        """Total unit-cost messages."""
        return self.ledger.total


class _Runtime:
    def __init__(self, n: int, k: int, seed):
        self.nodes = [NodeAgent(i, n, k) for i in range(n)]
        self.coordinator = CoordinatorAgent(n, k)
        self.rng = derive_rng(seed, 0)
        self.ledger = MessageLedger()

    # ------------------------------------------------------- message taxes

    def _charge_node(self, phase: Phase) -> None:
        self.ledger.charge(MessageKind.NODE_TO_COORD, phase)

    def _charge_broadcast(self, phase: Phase) -> None:
        self.ledger.charge(MessageKind.BROADCAST, phase)

    # --------------------------------------------------------- fault seams
    #
    # Each hook is one thing the runtime physically carries.  Overriding
    # them (see repro.faults.runtime) injects loss/delay/lies without
    # touching the agents or the protocol logic below.

    def _alive(self) -> list[NodeAgent]:
        """Nodes currently part of the world (crashed nodes drop out)."""
        return self.nodes

    def _observe(self, node: NodeAgent, value: int) -> None:
        """Deliver one observation to one node."""
        node.observe(value)

    def _violation(self, node: NodeAgent) -> Side | None:
        """Ask a node whether it spontaneously joins a protocol."""
        return node.violation()

    def _deliver_reply(self, book: ProtocolBook, node: NodeAgent, msg: tuple[int, int],
                       phase: Phase, round_index: int) -> bool:
        """Carry one node reply to the coordinator's book.

        Returns whether the book's running extremum improved (which obliges
        a round broadcast).  The message cost is charged here: a faulty
        carrier still charges for copies it loses in flight.
        """
        self._charge_node(phase)
        if OBS.on:
            _OBS_NODE_MSGS.labels(node=node.id).inc()
        return book.receive(*msg)

    def _flush_delayed(self, book: ProtocolBook, phase: Phase,
                       round_index: int) -> tuple[int, bool]:
        """Deliver in-flight replies maturing at this round.

        Returns ``(count delivered, any improved)``.  The perfect carrier
        has no in-flight messages.
        """
        return 0, False

    def _protocol_end(self) -> None:
        """A protocol execution finished; in-flight replies are lost."""

    def _control_broadcast(self, phase: Phase, nodes: list[NodeAgent],
                           deliver: Callable[[NodeAgent], None]) -> None:
        """One coordinator broadcast, delivered to every listed node."""
        self._charge_broadcast(phase)
        for nd in nodes:
            deliver(nd)

    # --------------------------------------------------------- protocols

    def run_protocol(self, participants: list[NodeAgent], sign: int, upper_bound: int, phase: Phase) -> ProtocolBook:
        """Clock one max/min protocol over already-armed participants.

        Participants must be armed; rounds follow Algorithm 2 with the
        shared randomness convention: one uniform per participant, drawn
        in ascending id order when the execution starts, fixes the round
        of its first coin success (:func:`~repro.engine.kernel.first_send_rounds`),
        and in each round every still-active node is handed its coin.
        """
        book = ProtocolBook(sign)
        participants = sorted(participants, key=lambda nd: nd.id)
        table = first_send_table(upper_bound)
        first_round = first_send_rounds(self.rng.random(len(participants)), table).tolist()
        for r in range(table.size):
            active = [(nd, fr) for nd, fr in zip(participants, first_round) if nd.protocol_active]
            if not active:
                break
            matured, improved_this_round = self._flush_delayed(book, phase, r)
            got_message = matured > 0
            for nd, fr in active:
                msg = nd.coin(fr == r)
                if msg is not None:
                    got_message = True
                    if self._deliver_reply(book, nd, msg, phase, r):
                        improved_this_round = True
            if got_message and improved_this_round:
                keyed = book.announce()
                self._control_broadcast(
                    Phase.PROTOCOL_ROUND, participants,
                    lambda nd: nd.hear_round_broadcast(keyed),
                )
        for nd in participants:
            nd.disarm()
        self._protocol_end()
        return book

    def start_side_protocol(self, side: Side, sign: int, upper_bound: int, phase: Phase) -> ProtocolBook:
        """Coordinator-initiated run over one whole side (handler lines 23/25)."""
        self._control_broadcast(
            Phase.PROTOCOL_START, self._alive(), lambda nd: nd.hear_start(side, sign)
        )
        participants = [nd for nd in self._alive() if nd.protocol_active]
        return self.run_protocol(participants, sign, upper_bound, phase)

    def _reset_sweep(self, previous_winner: int | None, sweep_index: int) -> ProtocolBook:
        """One of FilterReset's k+1 broadcast-initiated max sweeps."""
        self._control_broadcast(
            Phase.PROTOCOL_START, self._alive(),
            lambda nd: nd.hear_sweep_start(previous_winner, sweep_index),
        )
        participants = [nd for nd in self._alive() if nd.protocol_active]
        return self.run_protocol(participants, +1, len(self.nodes), Phase.RESET_PROTOCOL)

    def filter_reset(self, t: int, result: DistributedResult) -> None:
        """Lines 36-42 as k+1 broadcast-initiated sweeps."""
        winners: list[int] = []
        winner_values: list[int] = []
        k = self.coordinator.k
        for sweep in range(1, k + 2):
            previous = winners[-1] if winners else None
            book = self._reset_sweep(previous, sweep)
            winners.append(book.best_id)
            winner_values.append(book.best_keyed if book.heard_anything else 0)
        m2 = self.coordinator.finish_reset(winners, winner_values)
        self._control_broadcast(
            Phase.RESET_BROADCAST, self._alive(),
            lambda nd: nd.hear_reset_bound(m2, winners[-1]),
        )
        result.reset_times.append(t)

    # -------------------------------------------------------------- steps

    def _handler(self, t: int, min_book: ProtocolBook | None, max_book: ProtocolBook | None,
                 result: DistributedResult) -> None:
        """The violation handler (lines 22-33); split out so a faulty
        runtime can retry empty side polls or abort a hopeless step."""
        coord = self.coordinator
        n, k = coord.n, coord.k
        coord.handler_calls += 1
        if coord.missing_side(max_book) is Side.BOTTOM:
            max_book = self.start_side_protocol(Side.BOTTOM, +1, max(1, n - k), Phase.HANDLER_MAX)
        else:
            min_book = self.start_side_protocol(Side.TOP, -1, max(1, k), Phase.HANDLER_MIN)
        assert min_book is not None and max_book is not None
        coord.absorb_extremes(min_book.value, max_book.value)
        if coord.must_reset():
            self.filter_reset(t, result)
        else:
            m2 = coord.new_midpoint()
            self._control_broadcast(
                Phase.MIDPOINT_BROADCAST, self._alive(), lambda nd: nd.hear_midpoint(m2)
            )
            result.handler_times.append(t)

    def step(self, t: int, row: np.ndarray, result: DistributedResult) -> None:
        self.ledger.begin_step(t)
        for nd, v in zip(self.nodes, row):
            self._observe(nd, int(v))
        if t == 0:
            self.filter_reset(0, result)
            return
        coord = self.coordinator
        n, k = coord.n, coord.k

        # Lines 2-10: violators arm themselves and run their protocols.
        min_violators = [nd for nd in self._alive() if self._violation(nd) is Side.TOP]
        max_violators = [nd for nd in self._alive() if self._violation(nd) is Side.BOTTOM]
        min_book = None
        max_book = None
        if min_violators:
            for nd in min_violators:
                nd.arm(-1)
            min_book = self.run_protocol(min_violators, -1, max(1, k), Phase.VIOLATION_MIN)
        if max_violators:
            for nd in max_violators:
                nd.arm(+1)
            max_book = self.run_protocol(max_violators, +1, max(1, n - k), Phase.VIOLATION_MAX)

        if not coord.needs_handler(min_book, max_book):
            return
        self._handler(t, min_book, max_book, result)


def run_distributed(values: np.ndarray, k: int, *, seed=None) -> DistributedResult:
    """Run the distributed state-machine implementation on a value matrix.

    Supports the default configuration of the other engines (verbatim
    handler, broadcast-on-improvement); trajectories and message counts are
    bit-identical to theirs for equal seeds.  For runs under network
    faults, crashes and Byzantine senders see
    :func:`repro.faults.runtime.run_faulty`.
    """
    values = check_matrix(values)
    T, n = values.shape
    k, n = check_k(k, n)
    if k == n:
        history = np.tile(np.arange(n, dtype=np.int64), (T, 1))
        return DistributedResult(n=n, k=k, steps=T, topk_history=history, ledger=MessageLedger())
    rt = _Runtime(n, k, seed)
    history = np.empty((T, k), dtype=np.int64)
    result = DistributedResult(n=n, k=k, steps=T, topk_history=history, ledger=rt.ledger)
    with _obs_span("distributed.run", n=n, k=k, steps=T):
        for t in range(T):
            rt.step(t, values[t], result)
            history[t] = rt.coordinator.topk
    rt.ledger.end_run()
    result.resets = rt.coordinator.resets
    result.handler_calls = rt.coordinator.handler_calls
    if OBS.on:
        _OBS_RUNS.inc()
        for phase, count in rt.ledger.by_phase.items():
            _OBS_PHASE_MSGS.labels(phase=phase.name.lower()).inc(count)
    return result
