"""The config dataclasses of Algorithm 1 and Algorithm 2.

:class:`ProtocolConfig` sets the protocols' message accounting and round
policy; :class:`MonitorConfig` the monitor's behavioural switches, ablations
and instrumentation.  Every engine reads them, and ``repro.run`` and the
counting engines build them on every call, so this module imports only
:mod:`dataclasses`: reading a config loads neither the faithful monitor
nor the message model.  :mod:`repro.core.protocols` and
:mod:`repro.core.monitor` still export them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ProtocolConfig", "MonitorConfig"]


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables for message accounting and round policy.

    ``charge_start_broadcast``
        Charge one broadcast when the *coordinator* initiates a protocol run
        (handler lines 23/25 and each ``FilterReset`` sweep need an
        announcement; violation-triggered runs are node-initiated and free).
    ``broadcast_every_round``
        If True, the coordinator broadcasts its running maximum after
        *every* round once it has seen at least one value — the verbatim
        line 18 of the listing ("coordinator broadcasts maximum max_r of
        all seen values").  If False (default) it broadcasts only when the
        running maximum strictly improved, which transmits exactly the same
        information (a node below the last broadcast is already inactive).
        Both choices keep all bounds; the delta is measured by ablation A3.
    """

    charge_start_broadcast: bool = True
    broadcast_every_round: bool = False


@dataclass(frozen=True)
class MonitorConfig:
    """Behavioural switches for :class:`TopKMonitor`.

    The ablations below (``always_reset``, ``skip_redundant_min``, and the
    ``protocol`` settings off their defaults) and the instrumentation
    flags run on the ``faithful`` engine only: the counting engines
    (``fast``, ``vectorized``) and the session service run the default
    protocol and refuse the rest, naming ``faithful``.

    ``audit``
        Verify after every step that the reported set is a valid top-k set;
        raise :class:`~repro.errors.InvariantViolation` otherwise.  Costs
        one ``O(n)`` pass per step.
    ``skip_redundant_min``
        Ablation A2: when both sides violated, the paper's listing re-runs
        the MinimumProtocol over the whole TOP side even though the min is
        already known from the violators (every TOP violator is < M <= every
        TOP non-violator).  Setting this skips the redundant run.
    ``always_reset``
        Ablation A1: disable the T+/T− midpoint-halving mechanism and run a
        full ``FilterReset`` on *every* violation step.  This is the
        strawman Algorithm 1 improves on; the log Δ term of Theorem 3.3
        exists precisely because halving avoids most resets.
    ``protocol``
        Accounting/round policy for the embedded Algorithm 2 runs.
    ``track_series`` / ``record_messages``
        Instrumentation: per-step message series; full message objects.
    ``collect_events``
        Keep per-step :class:`~repro.core.events.StepEvent` records.
    """

    audit: bool = False
    skip_redundant_min: bool = False
    always_reset: bool = False
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    track_series: bool = False
    record_messages: bool = False
    collect_events: bool = True
