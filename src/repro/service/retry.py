"""Bounded, jittered retries for the service clients.

A :class:`RetryPolicy` makes client-side failure handling explicit and
bounded: how many attempts, how long between them (exponential backoff with
jitter, so a thundering herd of clients does not resynchronise), and which
failures are worth retrying at all.

Retryability is deliberately narrow:

* :class:`~repro.service.protocol.ServiceProtocolError` — transport-level
  breakage (timeout, reset, torn frame).  The connection was closed, the
  next attempt reconnects.  Safe for queries (read-only) **and** for owner
  updates: an ``UpdateRequest`` frame is canonical bytes, and a server that
  already applied it recognises the resubmission by frame digest and returns
  the original outcome instead of double-applying (see
  :meth:`repro.service.router.ShardRouter.remember_applied_update`).
* :class:`~repro.service.protocol.RemoteError` with a code in
  :attr:`RetryPolicy.retryable_codes` — an explicitly transient server state
  (``ServerBusy``).  Every other typed server error — stale updates, bad
  signatures, unknown manifests — is a *semantic* answer and retrying it
  verbatim would just repeat it.

Exhaustion is a typed :class:`RetriesExhausted` carrying the attempt count
and the last underlying error, so callers can distinguish "the server kept
refusing" from "the network kept failing" without string-matching.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional, Tuple

from repro.service.protocol import (
    RemoteError,
    ServiceError,
    ServiceProtocolError,
)

__all__ = ["RetryPolicy", "RetriesExhausted", "DEFAULT_RETRYABLE_CODES"]

#: Server error codes that describe a transient condition worth retrying.
DEFAULT_RETRYABLE_CODES: FrozenSet[str] = frozenset({"ServerBusy"})


class RetriesExhausted(ServiceError):
    """Every attempt a :class:`RetryPolicy` allowed has failed.

    ``last_error`` is the error the final attempt raised (also chained as
    ``__cause__``); ``attempts`` how many attempts ran.
    """

    def __init__(self, message: str, attempts: int, last_error: Exception) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    Parameters
    ----------
    max_attempts:
        Total attempts, the first one included (so ``1`` disables retrying).
    base_delay:
        Backoff before the second attempt, in seconds; attempt ``n`` waits
        ``base_delay * multiplier**(n-2)``, capped at ``max_delay``.
    max_delay:
        Ceiling on any single backoff.
    multiplier:
        Exponential growth factor.
    jitter:
        Fraction of each delay that is randomised: the actual sleep is
        uniform in ``[delay * (1 - jitter), delay]``.  0 disables jitter.
    attempt_timeout:
        Socket timeout (seconds) applied to each attempt when set; every
        attempt reconnects, so this bounds one attempt end to end.  ``None``
        keeps the connection's own timeout.
    retryable_codes:
        :class:`~repro.service.protocol.RemoteError` codes considered
        transient.
    deadline:
        Total wall-clock budget in seconds across *all* attempts (their
        backoff included).  Once the budget cannot fit another backoff +
        attempt start, the policy stops early and raises
        :class:`RetriesExhausted` — ``max_attempts`` bounds work, the
        deadline bounds latency, and whichever is hit first wins.  ``None``
        (the default) keeps the historical attempts-only behaviour.
    no_retry_errors:
        Error types that are *never* retried even when their base class is
        retryable.  This is how a failover-aware caller makes
        :class:`~repro.service.protocol.ConnectionRefusedTransportError`
        (nobody is listening — fail over now) skip the backoff loop while
        timeouts and resets (possibly transient) still retry.
    clock:
        Monotonic-seconds source for the deadline; injectable so the budget
        is deterministically testable (same pattern as
        :class:`~repro.service.config.FreshnessPolicy`).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    attempt_timeout: Optional[float] = None
    retryable_codes: FrozenSet[str] = field(default_factory=lambda: DEFAULT_RETRYABLE_CODES)
    deadline: Optional[float] = None
    no_retry_errors: Tuple[type, ...] = ()
    clock: Callable[[], float] = field(default=time.monotonic, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError("the backoff multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter is a fraction of the delay (0..1)")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("the retry deadline must be a positive number of seconds")
        if not callable(self.clock):
            raise ValueError("clock must be a callable returning monotonic seconds")

    # -- classification ------------------------------------------------------

    def retryable(self, error: Exception) -> bool:
        """Whether ``error`` describes a transient failure (see module doc)."""
        if self.no_retry_errors and isinstance(error, self.no_retry_errors):
            return False
        if isinstance(error, RemoteError):
            return error.code in self.retryable_codes
        return isinstance(error, ServiceProtocolError)

    # -- backoff -------------------------------------------------------------

    def backoff(self, attempt: int, rand: Callable[[], float] = random.random) -> float:
        """Sleep before attempt ``attempt`` (attempts count from 1)."""
        if attempt <= 1:
            return 0.0
        delay = min(self.base_delay * self.multiplier ** (attempt - 2), self.max_delay)
        if self.jitter:
            delay *= 1 - self.jitter * rand()
        return delay

    # -- execution -----------------------------------------------------------

    def run(
        self,
        operation: Callable[[], object],
        sleep: Callable[[float], None] = time.sleep,
        rand: Callable[[], float] = random.random,
    ):
        """Run ``operation`` under this policy.

        Non-retryable errors propagate unchanged on any attempt; retryable
        ones are re-tried after backoff until :attr:`max_attempts` — or the
        wall-clock :attr:`deadline` — is spent, then wrapped in a typed
        :class:`RetriesExhausted`.
        """
        last_error: Optional[Exception] = None
        started = self.clock() if self.deadline is not None else 0.0
        attempts = 0
        for attempt in range(1, self.max_attempts + 1):
            delay = self.backoff(attempt, rand)
            if self.deadline is not None and attempt > 1:
                # The budget must still fit the backoff; an attempt that
                # could not even start in time is not attempted at all.
                if (self.clock() - started) + delay >= self.deadline:
                    break
            if delay:
                sleep(delay)
            attempts = attempt
            try:
                return operation()
            except Exception as error:  # noqa: BLE001 - classified right below
                if not self.retryable(error):
                    raise
                last_error = error
        assert last_error is not None
        budget = (
            ""
            if self.deadline is None or attempts == self.max_attempts
            else f" within the {self.deadline}s retry budget"
        )
        raise RetriesExhausted(
            f"{attempts} attempt(s) failed{budget}; last error: {last_error}",
            attempts=attempts,
            last_error=last_error,
        ) from last_error
