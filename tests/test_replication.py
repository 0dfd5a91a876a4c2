"""Verifiable replica groups, in-process: bootstrap, catch-up, observability.

A replica needs no trust establishment — it replays the primary's
owner-signed WAL frames through the same signature-verified pipeline crash
recovery uses, so these suites check the replication *mechanics*: snapshot
bootstrap, continuous catch-up of updates and freshness attestations,
byte-identical served answers, the read-only write fence, the
compaction-gap resync signal, and the ``walctl inspect --replication``
offline view of the applied mark.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import socket
import stat
import time
from contextlib import redirect_stdout

import pytest

from repro.core.publisher import Publisher
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    FailoverClient,
    FreshnessPolicy,
    OwnerClient,
    PublicationServer,
    QuerySpec,
    RemoteError,
    ReplicationStatus,
    ReplicationStatusRequest,
    ServerConfig,
    ShardRouter,
    VerifyingClient,
)
from repro.service.protocol import QueryRequest, recv_frame, send_message
from repro.service.replication import (
    ReplicationError,
    ReplicationFollower,
    bootstrap_replica_root,
)
from repro.storage import open_publication_storage, walctl

FULL_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 0, 10_000_000),))
)


def _refuse_bootstrap() -> ShardRouter:
    raise AssertionError(
        "a replica root must exist after bootstrap; the factory must not run"
    )


def _wait(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _raw_answer(address, identifier: bytes, query: Query = FULL_RANGE) -> bytes:
    """The raw answer frame — the byte-identity comparison surface."""
    with socket.create_connection(address, timeout=10) as sock:
        send_message(sock, QueryRequest(manifest_id=identifier, query=query))
        frame = recv_frame(sock)
    assert frame is not None
    return frame


def _status(address, name: str = "employees") -> ReplicationStatus:
    with socket.create_connection(address, timeout=10) as sock:
        send_message(sock, ReplicationStatusRequest(relation_name=name))
        reply = recv_frame(sock)
    from repro.wire import decode

    status = decode(reply)
    assert isinstance(status, ReplicationStatus)
    return status


@pytest.fixture()
def primary(owner, tmp_path):
    """A durable primary server over a fresh employees relation."""
    relation = workload.generate_employees(12, seed=23, photo_bytes=8)

    def build() -> ShardRouter:
        database = owner.publish_database({"employees": relation})
        return ShardRouter({"hr": Publisher(database.relations)})

    router, storage = open_publication_storage(
        str(tmp_path / "primary"), build, fsync="off"
    )
    server = PublicationServer(
        router,
        storage=storage,
        config=ServerConfig(max_workers=16, serve_replication=True),
    )
    host, port = server.start()
    yield {
        "router": router,
        "storage": storage,
        "server": server,
        "address": (host, port),
        "root": str(tmp_path / "primary"),
        "scheme": owner.signature_scheme,
    }
    server.stop()
    storage.close()


def _spawn_replica(primary_world, root: str, poll_interval: float = 0.02):
    host, port = primary_world["address"]
    bootstrap_replica_root(host, port, root, keys_from=primary_world["root"])
    router, storage = open_publication_storage(root, _refuse_bootstrap, fsync="off")
    server = PublicationServer(
        router, storage=storage, config=ServerConfig(max_workers=16, read_only=True)
    )
    server.start()
    follower = ReplicationFollower(
        server, host, port, poll_interval=poll_interval
    ).start()
    return {
        "router": router,
        "storage": storage,
        "server": server,
        "address": server.address,
        "root": root,
        "follower": follower,
    }


def _stop_replica(replica) -> None:
    replica["follower"].stop()
    replica["server"].stop()
    replica["storage"].close()


def _sequences_match(primary_world, replica) -> bool:
    return (
        replica["router"].manifest_by_name("employees").sequence
        == primary_world["router"].manifest_by_name("employees").sequence
    )


def _row(salary: int, tag: str):
    return {
        "salary": salary,
        "emp_id": f"rep-{tag}",
        "name": str(tag),
        "dept": 3,
        "photo": bytes([salary % 251]) * 8,
    }


def test_bootstrap_recovers_and_serves_byte_identical(primary, tmp_path):
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    try:
        # Same manifest id on both sides: recovery re-derived the primary's
        # signed state from the shipped root, signatures re-checked.
        identifier = primary["router"].current_id("employees")
        assert replica["router"].current_id("employees") == identifier
        assert _raw_answer(replica["address"], identifier) == _raw_answer(
            primary["address"], identifier
        )
    finally:
        _stop_replica(replica)


def test_bootstrap_mid_stream_ships_the_store_ahead_of_its_checkpoint(
    primary, tmp_path
):
    """A join while the primary's store is ahead of its checkpoint.

    No checkpoint has been taken since genesis, so the applied updates exist
    only in the relation store and the WAL.  The snapshot is one consistent
    cut of both: the replica attaches to the shipped store, skips the WAL
    frames it already holds, serves the primary's bytes, and follows on.
    """
    host, port = primary["address"]
    with OwnerClient(host, port, primary["scheme"]) as owner_client:
        for index in range(3):
            owner_client.insert("employees", _row(3_000 + index, f"m{index}"))
        assert primary["storage"].checkpoints_written == 0
        replica = _spawn_replica(primary, str(tmp_path / "replica"))
        try:
            identifier = primary["router"].current_id("employees")
            assert replica["router"].current_id("employees") == identifier
            assert replica["router"].manifest_by_name("employees").sequence == 3
            assert _raw_answer(replica["address"], identifier) == _raw_answer(
                primary["address"], identifier
            )
            owner_client.insert("employees", _row(3_100, "after-join"))
            assert _wait(lambda: _sequences_match(primary, replica))
            assert replica["follower"].last_error is None
            identifier = primary["router"].current_id("employees")
            assert _raw_answer(replica["address"], identifier) == _raw_answer(
                primary["address"], identifier
            )
        finally:
            _stop_replica(replica)


def test_snapshot_over_the_frame_cap_is_refused_by_the_primary(
    primary, tmp_path, monkeypatch
):
    """A snapshot is one frame: a root that cannot fit is refused up front,
    typed, naming both numbers — not sent for the peer's length check."""
    from repro.service import replication

    monkeypatch.setattr(replication, "MAX_FRAME_BYTES", 4096)
    with pytest.raises(ReplicationError) as excinfo:
        replication.answer_replica_snapshot(primary["router"], primary["storage"])
    assert excinfo.value.reason == "snapshot-too-large"
    assert "4096-byte cap" in str(excinfo.value)
    host, port = primary["address"]
    with pytest.raises(RemoteError) as excinfo:
        bootstrap_replica_root(
            host, port, str(tmp_path / "replica"), keys_from=primary["root"]
        )
    assert excinfo.value.reason == "snapshot-too-large"
    assert not os.path.exists(str(tmp_path / "replica"))


def test_bootstrap_is_idempotent_on_an_existing_root(primary, tmp_path):
    root = str(tmp_path / "replica")
    host, port = primary["address"]
    assert bootstrap_replica_root(host, port, root, keys_from=primary["root"]) is True
    # An existing root returns False without touching the network, so the
    # out-of-band keys are not needed again.
    assert bootstrap_replica_root(host, port, root) is False


def test_snapshot_never_ships_signing_keys(primary, tmp_path):
    """The snapshot answer must not contain ``keys.json`` — the private
    owner signing keys would let any network peer forge owner updates — and
    a bootstrapped replica gets its keys from the trusted ``keys_from``
    path instead, installed with mode 0600."""
    from repro.service.replication import answer_replica_snapshot

    snapshot = answer_replica_snapshot(primary["router"], primary["storage"])
    assert snapshot.files  # the snapshot still ships the data files
    assert all(
        os.path.basename(relative) != "keys.json"
        for relative, _ in snapshot.files
    )
    root = str(tmp_path / "replica")
    host, port = primary["address"]
    assert bootstrap_replica_root(host, port, root, keys_from=primary["root"])
    key_path = os.path.join(root, "shards", "hr", "keys.json")
    source_path = os.path.join(primary["root"], "shards", "hr", "keys.json")
    with open(source_path, "rb") as handle:
        expected = handle.read()
    with open(key_path, "rb") as handle:
        assert handle.read() == expected
    assert stat.S_IMODE(os.stat(key_path).st_mode) == 0o600


def test_bootstrap_requires_out_of_band_keys(primary, tmp_path):
    host, port = primary["address"]
    with pytest.raises(ReplicationError) as excinfo:
        bootstrap_replica_root(host, port, str(tmp_path / "replica"))
    assert excinfo.value.reason == "keys-required"


def test_bootstrap_refuses_a_snapshot_that_delivers_keys(
    primary, tmp_path, monkeypatch
):
    """A primary (or an impostor answering as one) that ships a key file in
    its snapshot is refused — replica keys arrive out-of-band only."""
    from repro.service import replication
    from repro.service.protocol import ReplicaSnapshot

    monkeypatch.setattr(
        replication.ServiceConnection,
        "_request",
        lambda self, message, expect: ReplicaSnapshot(
            files=(("shards/hr/keys.json", b"{}"),)
        ),
    )
    host, port = primary["address"]
    with pytest.raises(ReplicationError) as excinfo:
        bootstrap_replica_root(
            host, port, str(tmp_path / "replica"), keys_from=primary["root"]
        )
    assert excinfo.value.reason == "snapshot-delivers-keys"


def test_replication_feed_is_an_explicit_opt_in(primary, tmp_path):
    """A server not started with ``serve_replication=True`` refuses frame
    and snapshot requests (replicas qualify: they serve reads, not the
    feed), while the observability-only status request still answers."""
    from repro.service.protocol import (
        ReplicaFramesRequest,
        ReplicaSnapshotRequest,
    )
    from repro.wire import decode

    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    try:
        for request in (
            ReplicaFramesRequest(relation_name="employees", after_sequence=0),
            ReplicaSnapshotRequest(),
        ):
            with socket.create_connection(replica["address"], timeout=10) as sock:
                send_message(sock, request)
                reply = decode(recv_frame(sock))
            assert reply.code == "ReplicationError"
            assert reply.reason == "replication-disabled"
        assert _status(replica["address"]).relation_name == "employees"
    finally:
        _stop_replica(replica)


def test_live_updates_replicate_and_answers_stay_byte_identical(
    primary, tmp_path
):
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    host, port = primary["address"]
    try:
        with OwnerClient(host, port, primary["scheme"]) as owner_client:
            for index in range(5):
                owner_client.insert("employees", _row(5_000 + index, f"u{index}"))
        assert _wait(lambda: _sequences_match(primary, replica))
        assert replica["follower"].applied_frames >= 5
        assert replica["follower"].last_error is None
        identifier = primary["router"].current_id("employees")
        assert _raw_answer(replica["address"], identifier) == _raw_answer(
            primary["address"], identifier
        )
        # The replicated rows are served verified to a real client.
        with VerifyingClient(*replica["address"]) as client:
            rows = client.execute(QuerySpec(FULL_RANGE)).rows
        assert any(row["emp_id"] == "rep-u4" for row in rows)
    finally:
        _stop_replica(replica)


def test_replica_response_cache_follows_replicated_updates(primary, tmp_path):
    """The follower thread writes the replica's touched-key log, its event
    loop reads it: answers cached on the replica before a run of replicated
    updates are afterwards the primary's bytes — rebuilt where an update
    touched their chain window, served from the cache where none did."""
    salaries = sorted(
        record.key
        for record in primary["router"].shards["hr"].signed_relation("employees").relation
    )
    pool = [
        Query("employees", Conjunction((RangeCondition("salary", low, high),)))
        for low, high in [
            (salaries[0], salaries[2]),
            (salaries[3], salaries[3]),
            (salaries[-3], salaries[-1]),
        ]
    ]
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    host, port = primary["address"]
    try:
        genesis = primary["router"].current_id("employees")
        for query in pool:
            _raw_answer(replica["address"], genesis, query)
        with OwnerClient(host, port, primary["scheme"]) as owner_client:
            for index in range(6):  # every insert lands inside the first range
                owner_client.insert(
                    "employees", _row(salaries[0] + 1 + index, f"c{index}")
                )
        assert _wait(lambda: _sequences_match(primary, replica))
        identifier = primary["router"].current_id("employees")
        for query in pool:
            assert _raw_answer(replica["address"], identifier, query) == _raw_answer(
                primary["address"], identifier, query
            )
        stats = replica["server"].cache_stats()["responses"]
        assert (stats["hits"], stats["window_invalidations"]) == (2, 1)
        assert stats["size"] == len(pool)
    finally:
        _stop_replica(replica)


def test_replication_status_is_observable_over_the_wire(primary, tmp_path):
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    host, port = primary["address"]
    try:
        before = _status(replica["address"])
        assert before.epoch == 0
        with OwnerClient(host, port, primary["scheme"]) as owner_client:
            owner_client.insert("employees", _row(7_500, "status"))
            owner_client.attest("employees", lifetime=3600.0)
        assert _wait(
            lambda: _status(replica["address"])
            == _status(primary["address"])
        )
        after = _status(replica["address"])
        assert after.sequence > before.sequence
        assert after.epoch == 1
        assert replica["follower"].status()["employees"] == (
            after.sequence,
            after.epoch,
        )
    finally:
        _stop_replica(replica)


def test_replicated_attestations_satisfy_freshness_clients(primary, tmp_path):
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    host, port = primary["address"]
    try:
        with OwnerClient(host, port, primary["scheme"]) as owner_client:
            owner_client.attest("employees", lifetime=3600.0)
        assert _wait(lambda: _status(replica["address"]).epoch == 1)
        policy = FreshnessPolicy(max_staleness=3600.0)
        with VerifyingClient(*replica["address"], freshness=policy) as client:
            result = client.execute(QuerySpec(FULL_RANGE))
        assert result.attestation is not None
        assert result.attestation.epoch == 1
    finally:
        _stop_replica(replica)


def test_same_host_replica_shares_the_read_load(primary, tmp_path):
    """More read capacity is one more publisher: a replica behind one client.

    Reads rotate over both servers and every answer is verified.  After an
    update the replica either serves the new sequence or — while it lags — is
    refused as stale against the group's freshness floor and the read fails
    over; a lagging replica's answer is never returned.
    """
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    host, port = primary["address"]
    servers = (primary["server"], replica["server"])
    spec = QuerySpec(FULL_RANGE)
    try:
        with OwnerClient(host, port, primary["scheme"]) as owner_client, FailoverClient(
            [primary["address"], replica["address"]],
            freshness=FreshnessPolicy(max_staleness=3600.0),
            open_seconds=0.05,
        ) as client:
            owner_client.attest("employees", lifetime=3600.0)
            assert _wait(lambda: _status(replica["address"]).epoch == 1)
            before = [server.requests_served for server in servers]
            results = [client.execute(spec) for _ in range(40)]
            assert all(result.report is not None for result in results)
            assert all(
                server.requests_served > served
                for server, served in zip(servers, before)
            )
            assert client.failovers == 0

            replica["follower"].stop()  # the replica lags from here on
            owner_client.insert("employees", _row(7_000, "scaled"))
            sequence = primary["router"].manifest_by_name("employees").sequence
            # The first answer at the new sequence lifts the group's floor ...
            assert _wait(lambda: client.execute(spec).manifest_sequence == sequence)
            # ... and from then on the lagging replica is refused, not served.
            results = [client.execute(spec) for _ in range(6)]
            assert all(result.report is not None for result in results)
            assert {result.manifest_sequence for result in results} == {sequence}
            assert client.failovers > 0

            replica["follower"] = ReplicationFollower(
                replica["server"], host, port, poll_interval=0.02
            ).start()
            assert _wait(lambda: _sequences_match(primary, replica))
            time.sleep(0.1)  # past open_seconds: the replica is probed again
            served, failovers = replica["server"].requests_served, client.failovers
            results = [client.execute(spec) for _ in range(6)]
            assert {result.manifest_sequence for result in results} == {sequence}
            assert all(result.report is not None for result in results)
            assert replica["server"].requests_served > served
            assert client.failovers == failovers
    finally:
        _stop_replica(replica)


def test_replica_refuses_direct_writes(primary, tmp_path):
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    try:
        with OwnerClient(
            *replica["address"], signature_scheme=primary["scheme"]
        ) as owner_client:
            with pytest.raises(RemoteError) as excinfo:
                owner_client.insert("employees", _row(9_999, "fenced"))
            assert excinfo.value.code == "ReadOnlyReplica"
            with pytest.raises(RemoteError) as excinfo:
                owner_client.attest("employees", retry_stale=False)
            assert excinfo.value.code == "ReadOnlyReplica"
    finally:
        _stop_replica(replica)


def test_catchup_after_follower_disconnect(primary, tmp_path):
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    host, port = primary["address"]
    try:
        replica["follower"].stop()  # the replica goes dark
        with OwnerClient(host, port, primary["scheme"]) as owner_client:
            for index in range(4):
                owner_client.insert("employees", _row(6_000 + index, f"d{index}"))
        assert not _sequences_match(primary, replica)
        # A fresh follower catches up from where the replica stopped — no
        # special mode, catch-up IS the poll loop.
        replica["follower"] = ReplicationFollower(
            replica["server"], host, port, poll_interval=0.02
        ).start()
        assert _wait(lambda: _sequences_match(primary, replica))
        identifier = primary["router"].current_id("employees")
        assert _raw_answer(replica["address"], identifier) == _raw_answer(
            primary["address"], identifier
        )
    finally:
        _stop_replica(replica)


def test_compaction_gap_demands_resync(primary, tmp_path):
    replica = _spawn_replica(primary, str(tmp_path / "replica"))
    host, port = primary["address"]
    router, storage = primary["router"], primary["storage"]
    try:
        replica["follower"].stop()
        with OwnerClient(host, port, primary["scheme"]) as owner_client:
            for index in range(3):
                owner_client.insert("employees", _row(8_000 + index, f"g{index}"))
        # Checkpoint + compact the primary's WAL: the update frames the
        # stalled replica still needs are gone.
        # rotation()/attestation_for() take target.lock themselves — fetch
        # them before holding it (the lock is not reentrant).
        rotation = router.rotation("employees")
        attestation = router.attestation_for("employees")
        target = router.route(router.current_id("employees"))
        with target.lock:
            storage.checkpoint_now(target, rotation, attestation)
        follower = ReplicationFollower(
            replica["server"], host, port, poll_interval=0.02
        )
        replica["follower"] = follower
        follower.start()
        assert _wait(lambda: follower.needs_resync)
        assert isinstance(follower.last_error, ReplicationError)
        assert follower.last_error.reason == "replication-gap"
        # The operator's remedy: re-bootstrap from a fresh snapshot.
        follower.stop()
        replica["server"].stop()
        replica["storage"].close()
        shutil.rmtree(replica["root"])
        fresh = _spawn_replica(primary, replica["root"])
        replica.update(fresh)
        assert _wait(lambda: _sequences_match(primary, replica))
    finally:
        _stop_replica(replica)


def test_walctl_inspect_reports_the_replication_mark(primary, tmp_path):
    host, port = primary["address"]
    with OwnerClient(host, port, primary["scheme"]) as owner_client:
        owner_client.insert("employees", _row(4_321, "mark"))
        owner_client.attest("employees", lifetime=3600.0)
    primary["storage"].sync()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = walctl.main(["inspect", primary["root"], "--replication"])
    assert code == 0
    report = json.loads(buffer.getvalue())
    mark = report["shards"]["hr"]["employees"]["replication"]
    assert mark["applied_sequence"] == (
        primary["router"].manifest_by_name("employees").sequence
    )
    assert mark["epoch"] == 1
    # Without the flag the key is absent — the report shape is unchanged.
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        walctl.main(["inspect", primary["root"]])
    assert "replication" not in json.loads(buffer.getvalue())["shards"]["hr"]["employees"]
