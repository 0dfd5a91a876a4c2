"""Health-checked failover and hedged reads over a verifiable replica group.

The pool is a plain circuit breaker, so its unit suites drive it with an
injected clock.  The client suites run real servers: a dead endpoint fails
over to a live replica, a *provably stale* replica is treated exactly like a
dead one (the satellite scenario — ``StaleAnswerError`` opens the circuit,
the repaired replica is re-admitted through a half-open probe), semantic
errors never fail over, and a trickle-fed read is hedged to a healthy
replica that wins the race.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.publisher import Publisher
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    AttestationAck,
    AttestationPush,
    EndpointPool,
    FailoverClient,
    FailoverExhausted,
    FreshnessPolicy,
    OwnerClient,
    PublicationServer,
    QuerySpec,
    ServerConfig,
    ServiceError,
    ShardRouter,
    build_attestation,
)
from repro.service.chaos import ChaosProxy, ChaosRegistry
from repro.service.protocol import recv_frame, send_message
from repro.wire import decode

ALL_SALARIES = Query(
    "employees", Conjunction((RangeCondition("salary", 0, 10_000_000),))
)

#: Deterministic base instant, far from the wall clock (see
#: tests/test_service_freshness.py).
T0 = 4_102_444_800.0


class _Clock:
    def __init__(self, now: float = T0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _dead_port() -> int:
    """A port that was just bound and released — nothing listens on it."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- the pool, under an injected clock ----------------------------------------


def test_pool_validation():
    with pytest.raises(ValueError):
        EndpointPool([])
    with pytest.raises(ValueError):
        EndpointPool([("h", 1)], failure_threshold=0)
    with pytest.raises(ValueError):
        EndpointPool([("h", 1)], open_seconds=0.0)


def test_pool_opens_at_the_threshold_and_half_opens_after_the_window():
    clock = _Clock(0.0)
    pool = EndpointPool(
        [("a", 1), ("b", 2)], failure_threshold=3, open_seconds=5.0, clock=clock
    )
    pool.record_failure(0)
    pool.record_failure(0)
    assert pool.state(0) == "closed"  # two strikes are not an outage
    pool.record_failure(0)
    assert pool.state(0) == "open"
    clock.advance(4.9)
    assert pool.state(0) == "open"
    clock.advance(0.2)
    assert pool.state(0) == "half-open"
    pool.record_success(0)
    assert pool.state(0) == "closed"


def test_pool_success_resets_the_failure_count():
    clock = _Clock(0.0)
    pool = EndpointPool([("a", 1)], failure_threshold=2, clock=clock)
    pool.record_failure(0)
    pool.record_success(0)
    pool.record_failure(0)
    # The earlier failure was wiped: still below the threshold.
    assert pool.state(0) == "closed"


def test_pool_candidates_probe_half_open_endpoints_first():
    clock = _Clock(0.0)
    pool = EndpointPool(
        [("a", 1), ("b", 2), ("c", 3)],
        failure_threshold=1,
        open_seconds=5.0,
        clock=clock,
    )
    pool.record_failure(1)
    # Inside the window the open endpoint is skipped entirely.
    assert 1 not in pool.candidates()
    clock.advance(5.0)
    assert pool.candidates()[0] == 1  # the probe goes first


def test_pool_round_robins_closed_endpoints():
    pool = EndpointPool([("a", 1), ("b", 2), ("c", 3)], clock=_Clock(0.0))
    first = [pool.candidates()[0] for _ in range(3)]
    assert first == [0, 1, 2]  # each call rotates the lead endpoint


def test_pool_returns_everything_when_all_circuits_are_open():
    clock = _Clock(0.0)
    pool = EndpointPool(
        [("a", 1), ("b", 2)], failure_threshold=1, open_seconds=60.0, clock=clock
    )
    pool.record_failure(0)
    pool.record_failure(1)
    # Refusing to try at all would turn a transient outage into an outage
    # of the pool's own making.
    assert pool.candidates() == [0, 1]


def test_pool_half_open_probe_is_single_flight():
    """One caller claims the half-open probe; concurrent callers skip the
    still-suspect endpoint instead of stampeding it."""
    clock = _Clock(0.0)
    pool = EndpointPool(
        [("a", 1), ("b", 2)], failure_threshold=1, open_seconds=5.0, clock=clock
    )
    pool.record_failure(0)
    clock.advance(5.0)
    assert pool.candidates()[0] == 0  # the first caller claims the probe
    assert pool.candidates() == [1]  # concurrent callers leave it alone
    pool.record_failure(0)  # the probe failed: the circuit re-opens...
    clock.advance(5.0)
    assert pool.candidates()[0] == 0  # ...and the claim was released


def test_pool_abandoned_probe_claim_expires():
    """A racer that never reports an outcome (an abandoned hedge losing its
    race) must not wedge the endpoint out of rotation forever: the claim
    ages out after another open window."""
    clock = _Clock(0.0)
    pool = EndpointPool(
        [("a", 1), ("b", 2)], failure_threshold=1, open_seconds=5.0, clock=clock
    )
    pool.record_failure(0)
    clock.advance(5.0)
    assert pool.candidates()[0] == 0
    clock.advance(5.0)  # the claim expires with no recorded outcome
    assert pool.candidates()[0] == 0


# -- the failover client over live servers ------------------------------------


@pytest.fixture()
def group(owner):
    """Two live servers publishing the same signed relation.

    Separate routers mean separate attestation state: the pair can model a
    fresh primary next to a stale (or repaired) replica.
    """
    relation = workload.generate_employees(12, seed=31, photo_bytes=8)
    database = owner.publish_database({"employees": relation})
    servers = []
    routers = []
    for _ in range(2):
        router = ShardRouter({"hr": Publisher(database.relations)})
        server = PublicationServer(router, config=ServerConfig(max_workers=6))
        server.start()
        routers.append(router)
        servers.append(server)
    yield {
        "owner": owner,
        "manifests": database.manifests,
        "routers": routers,
        "addresses": [server.address for server in servers],
    }
    for server in servers:
        server.stop()


def _push_attestation(address, scheme, manifest, epoch, clock):
    """Push an owner-signed attestation straight to one endpoint."""
    attestation = build_attestation(
        scheme, manifest, epoch, int(clock() * 1000), 3_600_000
    )
    with socket.create_connection(address, timeout=10) as sock:
        send_message(sock, AttestationPush(attestation))
        ack = decode(recv_frame(sock))
    assert isinstance(ack, AttestationAck)
    return attestation


def test_reads_fail_over_from_a_dead_endpoint(group):
    dead = ("127.0.0.1", _dead_port())
    with FailoverClient(
        [dead, group["addresses"][0]],
        trusted_manifests=dict(group["manifests"]),
        failure_threshold=1,
    ) as client:
        result = client.execute(QuerySpec(ALL_SALARIES))
        assert result.report is not None
        assert len(result.rows) == 12
        stats = client.stats()
        assert stats["failovers"] == 1
        assert stats["endpoint_states"][dead] == "open"
        # With the dead endpoint's circuit open, the next read goes straight
        # to the live replica: no new failover is recorded.
        client.execute(QuerySpec(ALL_SALARIES))
        assert client.stats()["failovers"] == 1


def test_exhaustion_reports_every_endpoint_failure():
    endpoints = [("127.0.0.1", _dead_port()), ("127.0.0.1", _dead_port())]
    with FailoverClient(endpoints, failure_threshold=1) as client:
        with pytest.raises(FailoverExhausted) as excinfo:
            client.relations()
    assert [address for address, _ in excinfo.value.failures] == endpoints


def test_semantic_errors_propagate_without_failover(group):
    with FailoverClient(
        group["addresses"], trusted_manifests=dict(group["manifests"])
    ) as client:
        with pytest.raises(ServiceError, match="does not list"):
            client.fetch_manifest("no-such-relation")
        stats = client.stats()
        assert stats["failovers"] == 0
        # The endpoint answered (with a refusal): it is healthy.
        assert set(stats["endpoint_states"].values()) == {"closed"}


def test_stale_replica_drives_failover_then_half_open_readmission(group):
    """The satellite scenario: freshness failure == endpoint failure.

    Endpoint A serves no attestation, B a fresh one.  A freshness-enforcing
    read fails over A → B (opening A's circuit), the owner repairs A, the
    open window expires, and the next read re-admits A via its half-open
    probe — all under one injected clock.
    """
    clock = _Clock()
    scheme = group["owner"].signature_scheme
    stale_address, fresh_address = group["addresses"]
    manifest = group["routers"][1].manifest_by_name("employees")
    host, port = fresh_address
    with OwnerClient(host, port, scheme, clock=clock) as owner_client:
        assert owner_client.attest("employees", lifetime=3600.0).epoch == 1

    policy = FreshnessPolicy(max_staleness=3600.0, clock=clock)
    with FailoverClient(
        [stale_address, fresh_address],
        trusted_manifests=dict(group["manifests"]),
        freshness=policy,
        failure_threshold=1,
        open_seconds=30.0,
        clock=clock,
    ) as client:
        result = client.execute(QuerySpec(ALL_SALARIES))
        assert result.attestation is not None
        assert result.attestation.epoch == 1
        assert client.stats()["failovers"] == 1
        assert client.pool.state(0) == "open"

        # The owner repairs the stale endpoint (a later epoch clears the
        # group-wide anti-rollback floor), and the open window runs out.
        _push_attestation(stale_address, scheme, manifest, 2, clock)
        clock.advance(31.0)
        assert client.pool.state(0) == "half-open"

        result = client.execute(QuerySpec(ALL_SALARIES))
        assert result.attestation.epoch == 2  # the probe answered
        assert client.pool.state(0) == "closed"
        assert client.stats()["failovers"] == 1  # no new failure recorded


def test_hedged_read_wins_on_a_slow_endpoint(group):
    """A trickle-fed endpoint outlives the hedge deadline; the healthy
    replica's answer wins the race and both answers stay verified."""
    registry = ChaosRegistry()
    registry.arm("latency", 0.4)
    slow_host, slow_port = group["addresses"][0]
    with ChaosProxy(slow_host, slow_port, faults=registry) as proxy:
        with FailoverClient(
            [proxy.address, group["addresses"][1]],
            trusted_manifests=dict(group["manifests"]),
            hedge=True,
            hedge_after=0.05,
        ) as client:
            started = time.perf_counter()
            result = client.execute(QuerySpec(ALL_SALARIES))
            elapsed = time.perf_counter() - started
            assert result.report is not None
            assert len(result.rows) == 12
            stats = client.stats()
            assert stats["hedges_fired"] >= 1
            assert stats["hedge_wins"] >= 1
            # The win is the point: the read returned well before the slow
            # endpoint could have answered (>= 2 x 0.4s of injected latency).
            assert elapsed < 0.8
            # Wait out the slow racer before tearing the proxy down, so its
            # connection teardown is orderly.
            time.sleep(1.0)


def test_endpoint_clients_share_one_freshness_floor_and_lock(group):
    """Every per-endpoint client advances the same anti-rollback floor under
    the same lock — hedged racers on two endpoints cannot interleave the
    check-then-set and roll an accepted ``(sequence, epoch)`` backwards."""
    with FailoverClient(group["addresses"]) as client:
        first = client._client(0)
        second = client._client(1)
        assert first._freshness_seen is second._freshness_seen
        assert first._freshness_lock is second._freshness_lock
        assert first._freshness_lock is client._freshness_lock


def test_writes_stay_pinned_to_the_primary(group):
    with FailoverClient(group["addresses"]) as client:
        assert client.primary_address == group["addresses"][0]
        with client.owner_client(group["owner"].signature_scheme) as owner_client:
            assert (owner_client.host, owner_client.port) == group["addresses"][0]
