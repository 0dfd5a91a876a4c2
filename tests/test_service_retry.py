"""Client-side retries and server-side idempotent update resubmission.

The two halves of at-most-once-applied, at-least-once-delivered updates:

* :class:`~repro.service.retry.RetryPolicy` — bounded attempts, jittered
  exponential backoff, narrow retryability (transport breakage and
  explicitly transient server codes only), typed
  :class:`~repro.service.retry.RetriesExhausted` on giving up.
* The router's applied-update registry — a resubmitted, byte-identical
  ``UpdateRequest`` frame is answered with its *original* outcome instead
  of being applied twice, which is what makes resending updates safe.

The integration tests run a live server with the ``conn-mid-frame``
failpoint armed, so the first response is torn mid-frame exactly the way a
crashed or partitioned server would tear it.
"""

from __future__ import annotations

import pytest

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    OwnerClient,
    PublicationServer,
    QuerySpec,
    VerifyingClient,
    build_demo_world,
)
from repro.service.handler import RequestHandler
from repro.service.owner import build_update_request
from repro.service.protocol import RemoteError, ServiceProtocolError
from repro.service.retry import (
    DEFAULT_RETRYABLE_CODES,
    RetriesExhausted,
    RetryPolicy,
)
from repro.wire import decode, encode
from repro.wire.updates import RecordDelta

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)

FAST = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


# -- policy construction and classification ------------------------------------


def test_policy_rejects_impossible_parameters():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_retryability_is_narrow():
    policy = RetryPolicy()
    assert policy.retryable(ServiceProtocolError("torn frame"))
    for code in DEFAULT_RETRYABLE_CODES:
        assert policy.retryable(RemoteError(code, "busy", "try again"))
    assert not policy.retryable(RemoteError("StaleUpdate", "stale", "resign"))
    assert not policy.retryable(RemoteError("BadSignature", "forged", "no"))
    assert not policy.retryable(ValueError("not a service failure at all"))


# -- backoff -------------------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0)
    delays = [policy.backoff(attempt) for attempt in range(1, 7)]
    assert delays == [0.0, 0.1, 0.2, 0.4, 0.5, 0.5]


def test_backoff_jitter_stays_inside_the_declared_window():
    policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
    assert policy.backoff(2, rand=lambda: 0.0) == pytest.approx(0.1)
    assert policy.backoff(2, rand=lambda: 1.0) == pytest.approx(0.05)


# -- run() ---------------------------------------------------------------------


def test_run_returns_the_first_success():
    calls = []
    result = FAST.run(lambda: calls.append(1) or "answer", sleep=lambda _: None)
    assert result == "answer"
    assert len(calls) == 1


def test_run_retries_transient_failures_then_succeeds():
    attempts = []
    slept = []

    def operation():
        attempts.append(1)
        if len(attempts) < 3:
            raise ServiceProtocolError("connection reset")
        return "recovered"

    assert FAST.run(operation, sleep=slept.append) == "recovered"
    assert len(attempts) == 3
    assert len(slept) == 2 and all(delay > 0 for delay in slept)


def test_run_wraps_exhaustion_in_a_typed_error():
    failure = ServiceProtocolError("the network stayed down")

    def operation():
        raise failure

    with pytest.raises(RetriesExhausted) as excinfo:
        FAST.run(operation, sleep=lambda _: None)
    assert excinfo.value.attempts == FAST.max_attempts
    assert excinfo.value.last_error is failure
    assert excinfo.value.__cause__ is failure


def test_run_propagates_semantic_errors_unchanged():
    failure = RemoteError("StaleUpdate", "stale", "re-fetch and re-sign")

    def operation():
        raise failure

    with pytest.raises(RemoteError) as excinfo:
        FAST.run(operation, sleep=lambda _: None)
    assert excinfo.value is failure


# -- the applied-update registry (server half of safe resends) -----------------


@pytest.fixture()
def world():
    return build_demo_world(key_bits=512, seed=11)


def _signed_insert(world, index: int) -> bytes:
    manifest = world.router.manifest_by_name("employees")
    delta = RecordDelta(
        kind="insert",
        values={
            "emp_id": f"retry-{index}",
            "name": f"Resubmitted {index}",
            "salary": 45_000 + index,
            "dept": 1,
            "photo": b"\x07" * 4,
        },
    )
    return encode(
        build_update_request(world.owner.signature_scheme, manifest, (delta,))
    )


def test_resubmitted_update_returns_the_original_outcome(world):
    handler = RequestHandler(world.router, response_cache=False)
    frame = _signed_insert(world, 0)
    first = handler.handle_frame(frame)
    assert not first.is_error, decode(first.payload)
    assert handler.updates_applied == 1
    again = handler.handle_frame(frame)
    assert again.payload == first.payload
    assert handler.updates_applied == 1, "the batch must not apply twice"


# -- live-wire integration: torn responses and transparent resends -------------


def test_query_retries_through_a_torn_response(world):
    from repro.storage.faults import FaultRegistry

    faults = FaultRegistry()
    with PublicationServer(world.router, faults=faults) as server:
        host, port = server.address
        with VerifyingClient(
            host,
            port,
            trusted_manifests=dict(world.manifests),
            retry_policy=FAST,
        ) as client:
            baseline = client.execute(QuerySpec(SALARY_RANGE))
            faults.arm("conn-mid-frame", "drop")
            retried = client.execute(QuerySpec(SALARY_RANGE))
            assert retried.rows == baseline.rows
            assert faults.hits.get("conn-mid-frame", 0) >= 1


def test_query_without_a_policy_surfaces_the_torn_response(world):
    from repro.storage.faults import FaultRegistry

    faults = FaultRegistry()
    with PublicationServer(world.router, faults=faults) as server:
        host, port = server.address
        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests)
        ) as client:
            client.execute(QuerySpec(SALARY_RANGE))
            faults.arm("conn-mid-frame", "drop")
            with pytest.raises(ServiceProtocolError):
                client.execute(QuerySpec(SALARY_RANGE))


def test_update_resend_after_lost_ack_applies_once(world):
    """The full at-most-once story over a real socket.

    The server applies the insert, then the response frame is torn mid-send.
    The owner's retry reconnects and resends the byte-identical frame; the
    registry answers with the original outcome, and the relation holds the
    row exactly once.
    """
    from repro.storage.faults import FaultRegistry

    faults = FaultRegistry()
    with PublicationServer(world.router, faults=faults) as server:
        host, port = server.address
        with OwnerClient(
            host,
            port,
            signature_scheme=world.owner.signature_scheme,
            retry_policy=FAST,
        ) as owner_client:
            faults.arm("conn-mid-frame", "drop")
            receipt = owner_client.insert(
                "employees",
                {
                    "emp_id": "resend-1",
                    "name": "sent twice, applied once",
                    "salary": 41_000,
                    "dept": 3,
                    "photo": b"\x01" * 4,
                },
            )
            assert receipt.entries_affected
        assert server.handler.updates_applied == 1
        assert faults.hits.get("conn-mid-frame", 0) >= 1
        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests)
        ) as client:
            rows = client.execute(QuerySpec.point("employees", "salary", 41_000)).rows
        assert [row["emp_id"] for row in rows] == ["resend-1"]


def test_stalled_server_times_out_into_a_bounded_retry(world, monkeypatch):
    """A silent half-open stream costs one stall window, not forever.

    The server freezes mid-frame, so the client's read is governed by the
    protocol's mid-frame stall bound (shrunk here so the test is fast)
    rather than the between-frames socket timeout; once it trips, the retry
    reconnects and completes.
    """
    from repro.service import protocol
    from repro.storage.faults import FaultRegistry

    monkeypatch.setattr(protocol, "MID_FRAME_STALL_SECONDS", 0.3)
    faults = FaultRegistry()
    policy = RetryPolicy(max_attempts=2, base_delay=0.01, attempt_timeout=0.5)
    with PublicationServer(world.router, faults=faults) as server:
        host, port = server.address
        with VerifyingClient(
            host,
            port,
            trusted_manifests=dict(world.manifests),
            retry_policy=policy,
        ) as client:
            baseline = client.execute(QuerySpec(SALARY_RANGE))
            faults.arm("conn-mid-frame", "stall")
            retried = client.execute(QuerySpec(SALARY_RANGE))
            assert retried.rows == baseline.rows
