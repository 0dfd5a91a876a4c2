"""Readers query while the owner streams updates: no torn snapshots.

The acceptance scenario of the live-update pipeline: one owner pushes ≥ 50
mixed insert/delete/update deltas to a live server while several
:class:`~repro.service.client.VerifyingClient` threads query concurrently.
Checked:

* every answer *verifies* against the manifest the client held;
* every answer equals the owner's shadow model **at exactly the sequence the
  answer reports** — a torn snapshot (rows from one version, id from
  another) or a desynced frame would break the match or the verification;
* clients transparently re-pin across rotations (the trust-root refresh);
* the final state verifies, and forged or replayed updates are rejected
  with typed errors.
"""

import threading

import pytest

pytestmark = pytest.mark.concurrency

from repro.core.publisher import Publisher
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.relation import Relation
from repro.service import (
    OwnerClient,
    PublicationServer,
    QuerySpec,
    RecordDelta,
    RemoteError,
    ServerConfig,
    ShardRouter,
    VerifyingClient,
    build_update_request,
    delta_sequence_cost,
)

READERS = 4
DELTA_BATCHES = 52  # some batches carry several deltas: > 60 deltas total

FULL_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 0, 100_000),))
)


def _row(salary, tag):
    return {
        "salary": salary,
        "emp_id": f"c-{tag}",
        "name": str(tag),
        "dept": 1 + (salary % 5),
        "photo": bytes([salary % 251]) * 8,
    }


def _delta_batches(initial_rows):
    """A deterministic stream of ≥ 50 batches of mixed deltas."""
    rows = [dict(row) for row in initial_rows]
    batches = []
    next_salary = 11
    for step in range(DELTA_BATCHES):
        batch = []
        action = step % 4
        if action == 0 or len(rows) < 3:
            row = _row(next_salary, f"i{step}")
            next_salary += 89
            rows.append(row)
            batch.append(RecordDelta(kind="insert", values=row))
            if step % 8 == 0:  # occasionally a multi-delta batch
                extra = _row(next_salary, f"j{step}")
                next_salary += 89
                rows.append(extra)
                batch.append(RecordDelta(kind="insert", values=extra))
        elif action == 1:
            victim = rows.pop(step % len(rows))
            batch.append(RecordDelta(kind="delete", values=victim))
        elif action == 2:
            old = rows.pop(step % len(rows))
            new = dict(old, name=old["name"] + "*")
            rows.append(new)
            batch.append(RecordDelta(kind="update", values=new, old_values=old))
        else:
            old = rows.pop(step % len(rows))
            new = dict(old, dept=(old["dept"] % 5) + 1)
            rows.append(new)
            batch.append(RecordDelta(kind="update", values=new, old_values=old))
            victim = rows.pop((step * 7) % len(rows))
            batch.append(RecordDelta(kind="delete", values=victim))
        batches.append(tuple(batch))
    return batches


def test_streaming_owner_with_concurrent_verified_readers(owner):
    relation = workload.generate_employees(30, seed=21, photo_bytes=8)
    initial_rows = [record.as_dict() for record in relation.records]
    database = owner.publish_database({"employees": relation})
    signed = database["employees"]
    router = ShardRouter({"hr": Publisher(database.relations)})

    # The owner's shadow model, advanced *before* each push so that any
    # sequence a reader can possibly observe already has its snapshot.
    shadow = Relation.from_rows(signed.schema, initial_rows)
    snapshots = {0: [record.as_dict() for record in shadow.records]}
    snapshots_lock = threading.Lock()

    batches = _delta_batches(initial_rows)
    total_deltas = sum(len(batch) for batch in batches)
    assert total_deltas >= 50

    observations = []  # (sequence, rows) per verified reader answer
    errors = []
    done = threading.Event()

    with PublicationServer(
        router, config=ServerConfig(max_workers=READERS + 2)
    ) as server:
        host, port = server.address

        def reader():
            try:
                with VerifyingClient(
                    host, port, trusted_manifests=dict(database.manifests)
                ) as client:
                    local = []
                    while not done.is_set():
                        result = client.execute(QuerySpec(FULL_RANGE))
                        assert result.report is not None
                        local.append((result.manifest_sequence, result.rows))
                    # One final look at the settled state.
                    result = client.execute(QuerySpec(FULL_RANGE))
                    local.append((result.manifest_sequence, result.rows))
                    observations.append(local)
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)
                done.set()

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()

        try:
            with OwnerClient(host, port, owner.signature_scheme) as owner_client:
                sequence = 0
                for batch in batches:
                    for delta in batch:
                        if delta.kind == "insert":
                            shadow.insert(dict(delta.values))
                        elif delta.kind == "delete":
                            shadow.delete(
                                Relation.from_rows(
                                    signed.schema, [dict(delta.values)]
                                ).records[0]
                            )
                        else:
                            shadow.delete(
                                Relation.from_rows(
                                    signed.schema, [dict(delta.old_values)]
                                ).records[0]
                            )
                            shadow.insert(dict(delta.values))
                    sequence += delta_sequence_cost(batch)
                    with snapshots_lock:
                        snapshots[sequence] = [
                            record.as_dict() for record in shadow.records
                        ]
                    response = owner_client.push("employees", batch)
                    assert response.rotation.manifest.sequence == sequence
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)

    assert not errors, errors
    assert len(observations) == READERS

    # Every verified answer must match the shadow model at exactly the
    # sequence the answer was attributed to — no torn snapshots.
    checked = 0
    sequences_seen = set()
    for local in observations:
        for sequence, rows in local:
            expected = snapshots[sequence]
            assert [dict(row) for row in rows] == expected, (
                f"answer at sequence {sequence} does not match the shadow model"
            )
            sequences_seen.add(sequence)
            checked += 1
    assert checked >= READERS  # every reader produced at least its final answer
    assert max(sequences_seen) == sequence, "no reader observed the final state"
    assert len(sequences_seen) > 1, "readers never observed a rotation"

    # The settled relation still self-verifies owner-side.
    assert signed.version == sequence
    assert signed.verify_internal_consistency()


def test_forged_and_replayed_updates_rejected_while_live(owner, forged_scheme):
    """Typed rejection of forged / stale updates; replays answer idempotently."""
    relation = workload.generate_employees(12, seed=22, photo_bytes=8)
    database = owner.publish_database({"employees": relation})
    router = ShardRouter({"hr": Publisher(database.relations)})
    with PublicationServer(router) as server:
        host, port = server.address
        with OwnerClient(host, port, owner.signature_scheme) as owner_client:
            manifest = owner_client.manifest("employees")
            batch = (RecordDelta(kind="insert", values=_row(17, "genuine")),)

            forged = build_update_request(forged_scheme, manifest, batch)
            with pytest.raises(RemoteError) as excinfo:
                owner_client._request(forged, object)
            assert excinfo.value.code == "OwnerAuthError"

            genuine = build_update_request(
                owner.signature_scheme, manifest, batch
            )
            first = owner_client._request(genuine, object)
            assert first.rotation.manifest.sequence == 1

            # Replaying the byte-identical frame is idempotent: the server
            # answers the original receipt from its applied-update registry
            # without re-applying (this is what makes lost-ack resends safe).
            replayed = owner_client._request(genuine, object)
            assert replayed == first
            assert database["employees"].version == 1

            # A *different* update signed against the superseded manifest is
            # still a typed stale-update rejection, not a silent re-anchor.
            stale = build_update_request(
                owner.signature_scheme,
                manifest,
                (RecordDelta(kind="insert", values=_row(19, "stale")),),
            )
            with pytest.raises(RemoteError) as excinfo:
                owner_client._request(stale, object)
            assert excinfo.value.code == "StaleManifestError"
            assert excinfo.value.reason == "stale-update"

    assert database["employees"].version == 1
