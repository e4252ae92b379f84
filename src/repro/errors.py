"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to distinguish configuration problems from runtime
protocol failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "RegistryError",
    "WorkloadError",
    "ProtocolError",
    "InvariantViolation",
    "ExperimentError",
    "ServiceError",
    "ServiceConnectError",
    "BackpressureError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a user supplies invalid parameters.

    Derives from :class:`ValueError` so generic callers that validate
    arguments with ``except ValueError`` keep working.
    """


class RegistryError(ConfigurationError):
    """Raised when a metric family is declared or used inconsistently.

    The observability registry (:mod:`repro.obs.registry`) raises it for a
    metric name that is not snake_case, a redeclaration with another kind
    or other labels, labels that do not match the family's, and a lookup
    of a family nobody declared.

    Derives from :class:`ConfigurationError` (hence :class:`ValueError`)
    so existing ``except ConfigurationError`` callers keep working.
    """


class WorkloadError(ReproError, ValueError):
    """Raised when a stream/workload specification is malformed."""


class ProtocolError(ReproError, RuntimeError):
    """Raised when a distributed protocol reaches an impossible state.

    This signals a bug in the simulation (e.g. a Las-Vegas protocol
    terminating without a winner), never a user error.
    """


class InvariantViolation(ReproError, AssertionError):
    """Raised by audit hooks when a correctness invariant is broken.

    The monitor can run with ``audit=True``, in which case the coordinator's
    answer is checked against ground truth after every step; a mismatch
    raises this exception.  Tests rely on it.
    """


class ExperimentError(ReproError, RuntimeError):
    """Raised by the experiment harness (unknown ids, bad sweep specs)."""


class ServiceError(ReproError, RuntimeError):
    """Raised by the streaming session service (:mod:`repro.service`).

    Covers unknown session ids, protocol violations on the wire, and
    server-reported request failures surfaced by the client.
    """


class ServiceConnectError(ServiceError):
    """Raised when a TCP connection to the service cannot be established.

    Carries the target address and how many attempts the client's
    :class:`~repro.service.client.RetryPolicy` allowed before giving up —
    a dead or unreachable server, distinguishable from a request that
    failed on a healthy connection.
    """

    def __init__(self, host: str, port: int, attempts: int, last_error: Exception | None = None):
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(
            f"cannot connect to service at {host}:{port} "
            f"after {attempts} attempt{'s' if attempts != 1 else ''}{detail}"
        )
        self.host = host
        self.port = port
        self.attempts = attempts
        self.last_error = last_error


class BackpressureError(ServiceError):
    """Raised when a session's bounded inbox is full.

    The service refuses the row instead of queueing unboundedly; callers
    should let the stepper drain (e.g. a waiting query) and retry.
    """

    def __init__(self, session_id: str, limit: int):
        super().__init__(
            f"session {session_id!r}: inbox full ({limit} pending rows); "
            "drain before feeding more"
        )
        self.session_id = session_id
        self.limit = limit
