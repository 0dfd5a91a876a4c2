"""Health-checked failover and hedged reads across a verifiable replica group.

The paper's trust model does the heavy lifting: every endpoint is an
*untrusted* publisher whose answers carry cryptographic proofs, so routing a
read to a different replica never weakens the guarantee — a lying replica is
caught by the verifier, a lagging one by the
:class:`~repro.service.config.FreshnessPolicy`.  Failover therefore treats a
:class:`~repro.service.protocol.StaleAnswerError` exactly like a transport
error: a replica serving provably stale answers is just another unhealthy
endpoint.

:class:`EndpointPool` tracks per-endpoint health with a consecutive-failure
circuit breaker: ``failure_threshold`` consecutive failures open the circuit,
an open endpoint is skipped for ``open_seconds``, then re-admitted via a
single half-open probe (probes are tried *first*, so a recovered endpoint
rejoins the rotation after one successful call — and a still-broken one costs
exactly one failed attempt before the pool falls back to healthy endpoints).

:class:`FailoverClient` wraps one lazily built
:class:`~repro.service.client.VerifyingClient` per endpoint.  All per-endpoint
clients share one anti-rollback floor (the ``(sequence, epoch)`` each
relation was last verified at), so an answer accepted from replica A can never
be rolled back by replica B.  Reads rotate across the pool; writes and
attestations stay pinned to the primary (``endpoints[0]`` — see
:meth:`FailoverClient.owner_client`).  With ``hedge=True`` a read that
outlives an adaptive p95-based deadline is raced against a second replica and
the first *verified* answer wins.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import VerificationError
from repro.service.client import VerifyingClient
from repro.service.protocol import (
    RemoteError,
    ServiceError,
    ServiceProtocolError,
    StaleAnswerError,
)
from repro.service.retry import RetriesExhausted, RetryPolicy
from repro.wire.errors import WireFormatError

__all__ = ["EndpointPool", "FailoverClient", "FailoverExhausted"]

#: RemoteError codes that mean "this endpoint, right now" rather than "this
#: query": worth trying elsewhere.
FAILOVER_REMOTE_CODES = frozenset({"ServerBusy"})

#: Hedge deadline when no latency samples exist yet (seconds).
_HEDGE_COLD_DEADLINE = 0.05

#: Floor on the adaptive hedge deadline, so a burst of cache-hit latencies
#: does not make every read hedge.
_HEDGE_MIN_DEADLINE = 0.01


class FailoverExhausted(ServiceError):
    """Every candidate endpoint failed the same call.

    ``failures`` holds ``((host, port), error)`` per attempted endpoint, in
    attempt order; the last error is also chained as ``__cause__``.
    """

    def __init__(
        self, message: str, failures: Sequence[Tuple[Tuple[str, int], Exception]]
    ) -> None:
        super().__init__(message)
        self.failures = list(failures)


class _Health:
    __slots__ = ("failures", "state", "opened_at", "probing_at")

    def __init__(self) -> None:
        self.failures = 0
        self.state = "closed"  # "closed" | "open" (half-open is derived)
        self.opened_at = 0.0
        #: When a half-open probe was handed out (None = no probe in flight).
        #: Cleared by record_success/record_failure; a probe whose outcome is
        #: never recorded (e.g. an abandoned hedge racer) expires after
        #: open_seconds so the endpoint cannot get stuck unprobeable.
        self.probing_at: Optional[float] = None


class EndpointPool:
    """Circuit-breaker health tracking over an ordered endpoint list.

    ``clock`` is injectable (monotonic seconds) so open-window expiry and
    half-open probing are deterministically testable.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        failure_threshold: int = 3,
        open_seconds: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not endpoints:
            raise ValueError("an endpoint pool needs at least one endpoint")
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if open_seconds <= 0:
            raise ValueError("open_seconds must be > 0")
        self.endpoints = [(host, int(port)) for host, port in endpoints]
        self.failure_threshold = failure_threshold
        self.open_seconds = open_seconds
        self.clock = clock
        self._health = [_Health() for _ in self.endpoints]
        self._rotation = 0
        self._lock = threading.Lock()

    def state(self, index: int) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (probe window reached)."""
        with self._lock:
            health = self._health[index]
            if health.state == "closed":
                return "closed"
            if self.clock() - health.opened_at >= self.open_seconds:
                return "half-open"
            return "open"

    def candidates(self) -> List[int]:
        """Endpoint indices in try-order for one call.

        Half-open probes first (one cheap failure at most, instant
        re-admission on success), then closed endpoints in round-robin
        rotation.  Probes are **single-flight**: handing out a half-open
        index claims it, so concurrent readers do not all pile onto a
        still-broken endpoint — they skip it and go straight to the healthy
        rotation while one caller pays for the probe.  When *everything* is
        open and inside its window (or claimed), all endpoints are returned
        anyway: refusing to try at all would turn a transient outage into a
        self-inflicted one.
        """
        with self._lock:
            now = self.clock()
            probes: List[int] = []
            closed: List[int] = []
            for index, health in enumerate(self._health):
                if health.state == "closed":
                    closed.append(index)
                elif now - health.opened_at >= self.open_seconds:
                    if (
                        health.probing_at is not None
                        and now - health.probing_at < self.open_seconds
                    ):
                        continue  # another caller's probe is in flight
                    health.probing_at = now
                    probes.append(index)
            if closed:
                turn = self._rotation % len(closed)
                self._rotation += 1
                closed = closed[turn:] + closed[:turn]
            order = probes + closed
            if not order:
                order = list(range(len(self.endpoints)))
            return order

    def record_success(self, index: int) -> None:
        with self._lock:
            health = self._health[index]
            health.failures = 0
            health.state = "closed"
            health.probing_at = None

    def record_failure(self, index: int) -> None:
        with self._lock:
            health = self._health[index]
            health.failures += 1
            health.probing_at = None
            if health.failures >= self.failure_threshold:
                health.state = "open"
                health.opened_at = self.clock()


class FailoverClient:
    """A verifying client over a replica group: failover, hedging, pinned writes.

    ``endpoints[0]`` is the primary (the only endpoint that accepts owner
    updates and attestation pushes); every endpoint serves verified reads.
    Constructor pass-throughs (``policy``, ``trusted_manifests``,
    ``expected_ids``, ``freshness`` …) match
    :class:`~repro.service.client.VerifyingClient`.

    The default ``retry_policy`` keeps per-endpoint retrying short and skips
    it entirely for refused connections (nobody is listening — fail over
    now); pass an explicit policy to tune it, or ``None``-out retrying with
    ``RetryPolicy(max_attempts=1)``.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        policy=None,
        timeout: float = 10.0,
        trusted_manifests=None,
        expected_ids=None,
        retry_policy: Optional[RetryPolicy] = ...,  # type: ignore[assignment]
        freshness=None,
        failure_threshold: int = 3,
        open_seconds: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        hedge: bool = False,
        hedge_after: Optional[float] = None,
        pool: Optional[EndpointPool] = None,
    ) -> None:
        if not endpoints:
            raise ValueError("a failover client needs at least one endpoint")
        self.endpoints = [(host, int(port)) for host, port in endpoints]
        self.pool = pool or EndpointPool(
            self.endpoints,
            failure_threshold=failure_threshold,
            open_seconds=open_seconds,
            clock=clock,
        )
        if retry_policy is ...:
            from repro.service.protocol import ConnectionRefusedTransportError

            retry_policy = RetryPolicy(
                max_attempts=2,
                base_delay=0.02,
                no_retry_errors=(ConnectionRefusedTransportError,),
            )
        self.retry_policy = retry_policy
        self.timeout = timeout
        self.hedge = hedge
        self.hedge_after = hedge_after
        self._clock = clock
        self._policy = policy
        self._trusted_manifests = trusted_manifests
        self._expected_ids = expected_ids
        self._freshness = freshness
        #: One anti-rollback floor for the whole group: relation name ->
        #: highest verified (sequence, epoch), shared by reference — along
        #: with the lock that makes its compare-and-advance atomic — with
        #: every per-endpoint VerifyingClient.
        self._freshness_seen: Dict[str, Tuple[int, int]] = {}
        self._freshness_lock = threading.Lock()
        self._clients: Dict[int, VerifyingClient] = {}
        self._client_locks = [threading.Lock() for _ in self.endpoints]
        self._lock = threading.Lock()
        self._latencies: deque = deque(maxlen=64)
        # Monotonic counters, incremented under self._lock: '+=' is not
        # atomic, and concurrent hedged reads would otherwise lose counts
        # that bench/chaos assertions read back.
        self.failovers = 0
        self.hedges_fired = 0
        self.hedge_wins = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def primary_address(self) -> Tuple[str, int]:
        return self.endpoints[0]

    def owner_client(self, signature_scheme, **kwargs):
        """An :class:`~repro.service.owner.OwnerClient` pinned to the primary.

        Replicas refuse mutations (``ReadOnlyReplica``) by construction, so
        writes and attestations never rotate across the pool.
        """
        from repro.service.owner import OwnerClient

        host, port = self.endpoints[0]
        return OwnerClient(host, port, signature_scheme, **kwargs)

    def close(self) -> None:
        with self._lock:
            clients, self._clients = self._clients, {}
        for client in clients.values():
            client.close()

    def __enter__(self) -> "FailoverClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = (self.failovers, self.hedges_fired, self.hedge_wins)
        return {
            "failovers": counters[0],
            "hedges_fired": counters[1],
            "hedge_wins": counters[2],
            "endpoint_states": {
                self.endpoints[index]: self.pool.state(index)
                for index in range(len(self.endpoints))
            },
        }

    # -- the read path -------------------------------------------------------

    def execute(self, spec):
        return self._read(lambda client: client.execute(spec))

    def execute_many(self, specs):
        return self._read(lambda client: client.execute_many(specs))

    def relations(self):
        return self._read(lambda client: client.relations())

    def fetch_manifest(self, relation_name: str):
        return self._read(lambda client: client.fetch_manifest(relation_name))

    # -- internals -----------------------------------------------------------

    def _client(self, index: int) -> VerifyingClient:
        with self._lock:
            client = self._clients.get(index)
            if client is None:
                host, port = self.endpoints[index]
                client = VerifyingClient(
                    host,
                    port,
                    policy=self._policy,
                    timeout=self.timeout,
                    trusted_manifests=self._trusted_manifests,
                    expected_ids=self._expected_ids,
                    retry_policy=self.retry_policy,
                    freshness=self._freshness,
                )
                client._freshness_seen = self._freshness_seen
                client._freshness_lock = self._freshness_lock
                self._clients[index] = client
            return client

    def _attempt(self, index: int, operation):
        client = self._client(index)
        started = self._clock()
        with self._client_locks[index]:
            result = operation(client)
        with self._lock:
            self._latencies.append(self._clock() - started)
        return result

    @staticmethod
    def _should_failover(error: Exception) -> bool:
        """Transport breakage, provable staleness, or a lying endpoint.

        Semantic errors (unknown manifest, refused scheme, access control)
        describe the *query* and would repeat identically elsewhere — they
        propagate.  A :class:`~repro.core.errors.VerificationError` means this
        endpoint served a proof that does not verify: the paper's model says
        distrust the endpoint, not the query.
        """
        if isinstance(error, RetriesExhausted):
            error = error.last_error
        if isinstance(
            error,
            (ServiceProtocolError, WireFormatError, StaleAnswerError, VerificationError),
        ):
            return True
        return isinstance(error, RemoteError) and error.code in FAILOVER_REMOTE_CODES

    def _hedge_deadline(self) -> float:
        with self._lock:
            samples = sorted(self._latencies)
        if not samples:
            return _HEDGE_COLD_DEADLINE
        p95 = samples[min(len(samples) - 1, int(0.95 * len(samples)))]
        return max(_HEDGE_MIN_DEADLINE, 1.5 * p95)

    def _read(self, operation):
        candidates = self.pool.candidates()
        if self.hedge and len(candidates) > 1:
            return self._read_hedged(operation, candidates)
        failures: List[Tuple[Tuple[str, int], Exception]] = []
        for index in candidates:
            try:
                result = self._attempt(index, operation)
            except Exception as error:  # noqa: BLE001 - classified right below
                if self._should_failover(error):
                    self.pool.record_failure(index)
                    failures.append((self.endpoints[index], error))
                    with self._lock:
                        self.failovers += 1
                    continue
                # A semantic answer from a healthy endpoint.
                self.pool.record_success(index)
                raise
            self.pool.record_success(index)
            return result
        raise FailoverExhausted(
            f"all {len(candidates)} endpoint(s) failed; last error: "
            f"{failures[-1][1]}",
            failures,
        ) from failures[-1][1]

    def _read_hedged(self, operation, candidates: List[int]):
        """Race a backup endpoint once the lead attempt outlives the deadline.

        The first verified answer wins; a failed racer is recorded against
        its endpoint and, while another racer is still in flight, simply
        waited out.  Never launches more than one attempt per endpoint.
        """
        outcomes: "queue.Queue" = queue.Queue()

        def runner(index: int) -> None:
            try:
                outcomes.put((index, None, self._attempt(index, operation)))
            except Exception as error:  # noqa: BLE001 - classified by the consumer
                outcomes.put((index, error, None))

        launched: List[int] = []

        def launch(index: int) -> None:
            launched.append(index)
            threading.Thread(
                target=runner, args=(index,), daemon=True, name=f"hedge-{index}"
            ).start()

        deadline = (
            self.hedge_after if self.hedge_after is not None else self._hedge_deadline()
        )
        launch(candidates[0])
        next_candidate = 1
        failures: List[Tuple[Tuple[str, int], Exception]] = []
        while True:
            hedge_pending = len(launched) == 1 and next_candidate < len(candidates)
            try:
                index, error, result = outcomes.get(
                    timeout=deadline if hedge_pending else None
                )
            except queue.Empty:
                with self._lock:
                    self.hedges_fired += 1
                launch(candidates[next_candidate])
                next_candidate += 1
                continue
            if error is None:
                self.pool.record_success(index)
                if len(launched) > 1 and index != launched[0]:
                    with self._lock:
                        self.hedge_wins += 1
                return result
            if not self._should_failover(error):
                self.pool.record_success(index)
                raise error
            self.pool.record_failure(index)
            failures.append((self.endpoints[index], error))
            with self._lock:
                self.failovers += 1
            if len(launched) - len(failures) > 0:
                continue  # another racer is still in flight
            if next_candidate < len(candidates):
                launch(candidates[next_candidate])
                next_candidate += 1
                continue
            raise FailoverExhausted(
                f"all {len(launched)} endpoint(s) failed; last error: {error}",
                failures,
            ) from error
