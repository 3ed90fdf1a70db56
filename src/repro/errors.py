"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing protocol-level failures (verification, relaxation)
from programming errors (bad parameters).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """A low-level cryptographic operation failed or was misused."""


class GroupMismatchError(CryptoError):
    """An operation combined elements of different groups or backends."""


class DeserializationError(CryptoError):
    """A byte string could not be decoded into a group element."""


class PolicyError(ReproError):
    """An access policy is malformed or cannot be processed."""


class PolicyParseError(PolicyError):
    """A policy expression string could not be parsed.

    Carries the offending ``token`` text and its character ``offset``
    into the source string (both ``None`` when they do not apply, e.g.
    for empty input), so tooling can point at the exact failure site.
    """

    def __init__(self, message: str, *, token: str | None = None,
                 offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.token = token
        self.offset = offset


class RelaxationError(ReproError):
    """ABS.Relax was attempted on an incompatible predicate/attribute set.

    Raised when the condition ``policy(universe - kept_attrs) == 0`` does
    not hold, i.e. the signature cannot be relaxed to the requested super
    policy without enabling a satisfying set the original policy denies.
    """


class VerificationError(ReproError):
    """A signature or verification object failed to verify."""


class SoundnessError(VerificationError):
    """A result set contains a tampered, fake, or inaccessible record."""


class StaleEpochError(VerificationError):
    """A response carried a genuinely-signed freshness token that is too old.

    Distinct from forgery: the replica is *lagging* (it missed one or
    more epoch rotations), not Byzantine.  Cluster clients treat this as
    a degraded-replica condition — fail over and let the DO's update
    stream catch the replica up — rather than a tamper quarantine (see
    :func:`repro.net.client.is_tamper_error`).
    """


class CompletenessError(VerificationError):
    """A verification object does not cover the full query range."""


class AccessDeniedError(ReproError):
    """Decryption was attempted with attributes that do not satisfy the policy."""


class WorkloadError(ReproError):
    """A workload/generator was configured inconsistently."""


class TransportError(ReproError):
    """A request/response exchange with the SP failed at the byte layer.

    Covers dropped or unanswerable requests, mismatched response ids
    (duplicate/replayed frames), and server-side error frames that the
    client classifies as transient.  Transport errors are the retryable
    failure class: :class:`repro.net.client.ResilientClient` retries them
    with backoff before giving up.
    """


class OverloadedError(TransportError):
    """The SP shed the request under admission control (or while draining).

    Carries the server's ``retry_after`` hint (seconds, possibly ``None``)
    so clients can wait exactly as long as the SP asked instead of
    hammering an already-saturated replica.  Retryable: the overload is
    transient by definition.
    """

    def __init__(self, message: str = "", retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(TransportError):
    """A request (including its retries) ran past its per-request deadline."""


class CircuitOpenError(TransportError):
    """The client's circuit breaker is open: failing fast without calling
    the SP after too many consecutive failures."""


class ProcessWorkerError(ReproError):
    """A process-pool worker failed in a way the parent cannot inspect.

    Raised when a worker's exception cannot be pickled back across the
    pool boundary (the formatted remote traceback is embedded in the
    message), or when the pool itself breaks mid-batch.
    """
