"""The live owner→publisher update pipeline, end to end.

Covers the tentpole contract of the update wire format: a genuine signed
delta batch lands and rotates the manifest; a stale client transparently
re-pins and retries; forged, replayed and invalid updates are rejected with
typed errors while leaving the relation untouched; and — the receipt
regression — receipts replayed through the wire round-trip reproduce exactly
the digest/signature/chain-message accounting of the in-process path.
"""

import dataclasses

import pytest

from repro.core.errors import UpdateApplicationError
from repro.core.publisher import Publisher
from repro.core.relational import UpdateReceipt
from repro.db import workload
from repro.db.query import Conjunction, JoinQuery, Query, RangeCondition
from repro.service import (
    JoinRequest,
    OwnerClient,
    PublicationServer,
    QueryRequest,
    QuerySpec,
    RecordDelta,
    RemoteError,
    ServerConfig,
    RotationRequest,
    ServiceError,
    ShardRouter,
    StaleManifestError,
    VerifyingClient,
    build_update_request,
)
from repro.wire import decode, encode, manifest_id
from repro.wire.updates import ManifestRotated, manifest_signing_message

ALL_SALARIES = Query(
    "employees", Conjunction((RangeCondition("salary", 0, 100_000),))
)


def _build_relation():
    return workload.generate_employees(24, seed=11, photo_bytes=8)


def _row(salary, tag, dept=1):
    """A schema-complete employee row."""
    return {
        "salary": salary,
        "emp_id": f"t-{tag}",
        "name": str(tag),
        "dept": dept,
        "photo": bytes([salary % 251]) * 8,
    }


@pytest.fixture()
def world(owner):
    """A fresh signed relation behind a live server, torn down per test."""
    relation = _build_relation()
    database = owner.publish_database({"employees": relation})
    router = ShardRouter({"hr": Publisher(database.relations)})
    with PublicationServer(router, config=ServerConfig(max_workers=6)) as server:
        yield {
            "owner": owner,
            "relation": relation,
            "signed": database["employees"],
            "manifests": database.manifests,
            "router": router,
            "server": server,
            "address": server.address,
        }


def _owner_client(world):
    host, port = world["address"]
    return OwnerClient(host, port, world["owner"].signature_scheme)


def _verifying_client(world):
    host, port = world["address"]
    return VerifyingClient(
        host, port, trusted_manifests=dict(world["manifests"])
    )


def _mixed_deltas(relation, count):
    """A deterministic stream of insert/delete/update deltas (each a batch)."""
    rows = [record.as_dict() for record in relation.records]
    deltas = []
    next_salary = 100
    for step in range(count):
        action = step % 3
        if action == 0 or not rows:
            row = _row(next_salary, f"new-{step}", dept=1 + step % 4)
            next_salary += 97
            rows.append(row)
            deltas.append(RecordDelta(kind="insert", values=row))
        elif action == 1:
            victim = rows.pop(step % len(rows))
            deltas.append(RecordDelta(kind="delete", values=victim))
        else:
            old = rows.pop(step % len(rows))
            new = dict(old, name=old["name"] + "*")
            rows.append(new)
            deltas.append(
                RecordDelta(kind="update", values=new, old_values=old)
            )
    return deltas


# -- the happy path -----------------------------------------------------------


def test_owner_pushes_and_client_follows(world):
    with _owner_client(world) as owner_client, _verifying_client(world) as client:
        before = client.execute(QuerySpec(ALL_SALARIES))
        assert before.manifest_sequence == 0

        row = _row(123, "newcomer")
        receipt = owner_client.insert("employees", row)
        assert receipt.signatures_recomputed == 3
        assert receipt.digests_recomputed == 1

        after = client.execute(QuerySpec(ALL_SALARIES))
        assert after.report is not None
        assert after.manifest_sequence == 1
        assert client.rotations_observed == {"employees": 1}
        assert len(after.rows) == len(before.rows) + 1
        assert any(r["name"] == "newcomer" for r in after.rows)


def test_batched_deltas_apply_atomically(world):
    with _owner_client(world) as owner_client, _verifying_client(world) as client:
        victim = world["relation"].records[0].as_dict()
        replaced = world["relation"].records[1].as_dict()
        batch = (
            RecordDelta(kind="delete", values=victim),
            RecordDelta(
                kind="insert",
                values=_row(7, "a"),
            ),
            RecordDelta(
                kind="update",
                values=dict(replaced, name="renamed"),
                old_values=replaced,
            ),
        )
        response = owner_client.push("employees", batch)
        # delete (1) + insert (1) + update (2) chain mutations
        assert response.rotation.manifest.sequence == 4
        result = client.execute(QuerySpec(ALL_SALARIES))
        assert result.manifest_sequence == 4
        names = {row["name"] for row in result.rows}
        assert "renamed" in names and "a" in names
        assert victim["name"] != replaced["name"]  # sanity on the fixture data
        # -1 delete, +1 insert, update is size-neutral: still 24 records.
        assert len(result.rows) == 24


def test_sequence_tracks_across_many_batches(world):
    deltas = _mixed_deltas(_build_relation(), 12)
    with _owner_client(world) as owner_client, _verifying_client(world) as client:
        for delta in deltas:
            owner_client.push("employees", (delta,))
        expected = sum(2 if d.kind == "update" else 1 for d in deltas)
        assert owner_client.sequence("employees") == expected
        result = client.execute(QuerySpec(ALL_SALARIES))
        assert result.manifest_sequence == expected
        assert result.report is not None


def test_verifier_digest_memos_survive_rotations(world):
    """A rotation changes ``sequence`` only, so it costs the client no re-hashing.

    The chain digests a verifier memoises depend on (scheme kind, base, hash,
    domain) — exactly what a validated rotation leaves unchanged.  After every
    rotation the fixed query pool must verify for the warm hash count, not the
    cold one it paid on first sight.
    """
    pool = [
        Query("employees", Conjunction((RangeCondition("salary", low, high),)))
        for low, high in [(20_000, 50_000), (58_000, 80_000), (82_000, 95_000)]
    ]
    with _owner_client(world) as owner_client, _verifying_client(world) as client:
        cold = [client.execute(QuerySpec(query)).report.hash_operations for query in pool]
        warm = [client.execute(QuerySpec(query)).report.hash_operations for query in pool]
        assert all(w < c for w, c in zip(warm, cold))
        verifier = client.verifier
        for step in range(4):
            # Far below every pooled range and its boundary records.
            owner_client.insert("employees", _row(100 + step, f"rot-{step}"))
            after = [
                client.execute(QuerySpec(query)).report.hash_operations
                for query in pool
            ]
            assert client.rotations_observed == {"employees": step + 1}
            assert after == warm
        assert client.verifier is verifier
        assert verifier.manifest("employees").sequence == 4


def test_response_cache_keeps_one_entry_per_question_across_rotations(world):
    """The cache is keyed on the question, not on the manifest id it was asked
    under: 50 rotations leave exactly one entry per pooled query, and only
    the asks whose chain window an insert touched are rebuilt."""
    pool = [
        Query("employees", Conjunction((RangeCondition("salary", low, high),)))
        for low, high in [(0, 30_000), (20_000, 50_000), (58_000, 80_000), (82_000, 95_000)]
    ]
    server = world["server"]
    with _owner_client(world) as owner_client, _verifying_client(world) as client:
        for step in range(50):
            # Every insert lands inside the first pooled range and below the
            # windows of the other three.
            owner_client.insert("employees", _row(100 + step, f"rot-{step}"))
            for _ in range(2):
                for query in pool:
                    assert client.execute(QuerySpec(query)).report is not None
            assert server.cache_stats()["responses"]["size"] == len(pool)
        stats = server.cache_stats()["responses"]
        # Per step: the first ask of the touched range is rebuilt, the other
        # seven asks are served from the cache.
        assert stats["window_invalidations"] == 49
        assert stats["misses"] == len(pool) + 49
        assert stats["hits"] == 100 * len(pool) - stats["misses"]
        assert stats["log_overruns"] == stats["evictions"] == 0
        assert stats["weight"] < 64 * 1024


def test_rotation_request_serves_genesis_and_latest(world):
    with _owner_client(world) as owner_client, _verifying_client(world) as client:
        client.fetch_manifest("employees")
        # Genesis rotation: empty previous id, signature over the initial manifest.
        from repro.service.protocol import RotationRequest

        genesis = client._request(RotationRequest("employees"), ManifestRotated)
        assert genesis.previous_id == b""
        assert genesis.manifest.sequence == 0
        old_id = manifest_id(genesis.manifest)

        owner_client.insert(
            "employees",
            _row(55, "z", dept=2),
        )
        latest = client._request(RotationRequest("employees"), ManifestRotated)
        assert latest.previous_id == old_id
        assert latest.manifest.sequence == 1


# -- rejection paths ----------------------------------------------------------


def test_forged_owner_signature_is_typed_error(world, forged_scheme):
    host, port = world["address"]
    manifest = world["signed"].manifest
    forged = build_update_request(
        forged_scheme,
        manifest,
        (
            RecordDelta(
                kind="insert",
                values=_row(9, "evil"),
            ),
        ),
    )
    with VerifyingClient(host, port) as raw:
        with pytest.raises(RemoteError) as excinfo:
            raw._request(forged, object)
    assert excinfo.value.code == "OwnerAuthError"
    assert excinfo.value.reason == "bad-owner-signature"
    assert world["signed"].version == 0  # nothing was applied


def test_replayed_update_request_is_idempotent_stale_is_typed_error(world):
    with _owner_client(world) as owner_client:
        manifest = owner_client.manifest("employees")
        batch = (
            RecordDelta(
                kind="insert",
                values=_row(11, "once"),
            ),
        )
        request = build_update_request(
            world["owner"].signature_scheme, manifest, batch
        )
        first = owner_client._request(request, object)
        assert first.rotation.manifest.sequence == 1
        # Replaying the captured byte-identical request answers the original
        # receipt from the applied-update registry without re-applying — the
        # idempotency that makes lost-ack resends safe.
        assert owner_client._request(request, object) == first
        assert world["signed"].version == 1  # applied exactly once
        # A *different* batch signed against the superseded manifest is still
        # a typed stale-update rejection.
        stale = build_update_request(
            world["owner"].signature_scheme,
            manifest,
            (RecordDelta(kind="insert", values=_row(13, "late")),),
        )
        with pytest.raises(RemoteError) as excinfo:
            owner_client._request(stale, object)
    assert excinfo.value.code == "StaleManifestError"
    assert excinfo.value.reason == "stale-update"
    assert world["signed"].version == 1  # applied exactly once


def test_invalid_delta_batch_is_all_or_nothing(world):
    existing = world["relation"].records[0].as_dict()
    with _owner_client(world) as owner_client:
        batch = (
            RecordDelta(
                kind="insert",
                values=_row(21, "ok"),
            ),
            RecordDelta(kind="insert", values=existing),  # exact duplicate
        )
        with pytest.raises(RemoteError) as excinfo:
            owner_client.push("employees", batch)
    assert excinfo.value.code == "UpdateApplicationError"
    assert excinfo.value.reason == "invalid-delta"
    # The valid first delta must not have been applied either.
    assert world["signed"].version == 0
    assert len(world["relation"]) == 24


def test_delete_of_missing_record_is_typed_error(world):
    with _owner_client(world) as owner_client:
        with pytest.raises(RemoteError) as excinfo:
            owner_client.delete(
                "employees",
                _row(99_999, "ghost"),
            )
    assert excinfo.value.code == "UpdateApplicationError"
    assert world["signed"].version == 0


def test_malformed_delta_values_are_typed_error(world):
    with _owner_client(world) as owner_client:
        with pytest.raises(RemoteError) as excinfo:
            owner_client.insert("employees", {"salary": 31, "name": "short"})
    assert excinfo.value.code == "UpdateApplicationError"
    assert world["signed"].version == 0


def test_owner_client_refuses_foreign_relation(world, forged_scheme):
    host, port = world["address"]
    with OwnerClient(host, port, forged_scheme) as impostor:
        with pytest.raises(ServiceError):
            impostor.refresh_manifest("employees")


def test_client_rejects_forged_and_replayed_rotations(world, forged_scheme):
    """The trust-root policy on re-pin: key continuity + signature + sequence."""
    with _owner_client(world) as owner_client, _verifying_client(world) as client:
        pinned = client.fetch_manifest("employees")
        owner_client.insert(
            "employees",
            _row(77, "w", dept=3),
        )
        genuine_manifest = world["signed"].manifest
        previous = manifest_id(pinned)

        # Forged: signed under a key that is not the pinned owner key.
        forged = ManifestRotated(
            manifest=genuine_manifest,
            previous_id=previous,
            owner_signature=forged_scheme.sign(
                manifest_signing_message(genuine_manifest, previous)
            ),
        )
        with pytest.raises(StaleManifestError) as excinfo:
            client._validate_rotation("employees", pinned, forged)
        assert excinfo.value.reason == "rotation-forged"

        # Replayed: a genuine but non-advancing rotation (genesis re-presented).
        replayed = ManifestRotated(
            manifest=pinned,
            previous_id=b"",
            owner_signature=world["owner"].signature_scheme.sign(
                manifest_signing_message(pinned, b"")
            ),
        )
        with pytest.raises(StaleManifestError) as excinfo:
            client._validate_rotation("employees", pinned, replayed)
        assert excinfo.value.reason == "rotation-replayed"

        # The genuine rotation is accepted and re-pins.
        refreshed = client.refresh_rotated_manifest("employees")
        assert refreshed.sequence == 1


@pytest.mark.parametrize(
    "field, reason",
    [
        ("public_key", "rotation-key-mismatch"),
        ("schema", "rotation-scheme-mismatch"),
        ("scheme_kind", "rotation-scheme-mismatch"),
        ("base", "rotation-scheme-mismatch"),
        ("hash_name", "rotation-scheme-mismatch"),
    ],
)
def test_a_signed_rotation_must_keep_the_chain_parameters(
    world, forged_scheme, field, reason
):
    """A data update may only advance the sequence: a rotation that changes
    anything a verifier reads is refused even when correctly signed — by the
    key it names, which for ``public_key`` is the new one."""
    with _verifying_client(world) as client:
        pinned = client.fetch_manifest("employees")
        changed = {
            "public_key": forged_scheme.verifier,
            "schema": workload.stock_schema(),
            "scheme_kind": "conceptual",
            "base": 3,
            "hash_name": "sha1",
        }[field]
        manifest = dataclasses.replace(
            pinned, sequence=pinned.sequence + 1, **{field: changed}
        )
        signer = forged_scheme if field == "public_key" else world["owner"].signature_scheme
        previous = manifest_id(pinned)
        rotation = ManifestRotated(
            manifest=manifest,
            previous_id=previous,
            owner_signature=signer.sign(manifest_signing_message(manifest, previous)),
        )
        with pytest.raises(StaleManifestError) as excinfo:
            client._validate_rotation("employees", pinned, rotation)
        assert excinfo.value.reason == reason
        # the same rotation, parameters kept, is accepted
        kept = dataclasses.replace(pinned, sequence=pinned.sequence + 1)
        client._validate_rotation(
            "employees",
            pinned,
            ManifestRotated(
                manifest=kept,
                previous_id=previous,
                owner_signature=world["owner"].signature_scheme.sign(
                    manifest_signing_message(kept, previous)
                ),
            ),
        )


def test_id_only_pinned_client_survives_rotations(world):
    """A client pinned via expected_ids (no manifest object) connects *after*
    the relation rotated past its pinned id: it bootstraps the historical
    manifest by hash, follows the rotation chain, and queries verified."""
    host, port = world["address"]
    genesis_id = manifest_id(world["signed"].manifest)
    with _owner_client(world) as owner_client:
        owner_client.insert("employees", _row(61, "early"))
        owner_client.insert("employees", _row(67, "later"))
    with VerifyingClient(
        host, port, expected_ids={"employees": genesis_id}
    ) as client:
        result = client.execute(QuerySpec(ALL_SALARIES))
        assert result.report is not None
        assert result.manifest_sequence == 2
        assert {"early", "later"} <= {row["name"] for row in result.rows}
        # The pin moved along the authenticated chain, not to a raw fetch.
        assert client.rotations_observed == {"employees": 2}


def test_superseded_history_is_bounded(world, monkeypatch):
    """Rotation history is evicted beyond the per-relation cap: a client
    pinned before the retained window gets a typed error, recent pins still
    resolve, and server memory stays bounded."""
    import repro.service.router as router_module

    monkeypatch.setattr(router_module, "MAX_SUPERSEDED_PER_RELATION", 3)
    router = world["router"]
    genesis_id = manifest_id(world["signed"].manifest)
    with _owner_client(world) as owner_client:
        for i in range(5):
            owner_client.insert("employees", _row(300 + i * 7, f"evict-{i}"))
    assert len(router._superseded) == 3  # genesis + first rotation evicted
    with pytest.raises(ServiceError):
        router.route(genesis_id)
    with pytest.raises(ServiceError):
        router.manifest_by_id(genesis_id)
    # A recent superseded id (one batch old) still routes and serves.
    recent = router._superseded_order["employees"][-1]
    assert router.route(recent).relation_name == "employees"
    assert router.manifest_by_id(recent).sequence == 4


def test_update_against_unknown_manifest_id(world):
    with _owner_client(world) as owner_client:
        manifest = owner_client.manifest("employees")
        bogus = build_update_request(
            world["owner"].signature_scheme,
            manifest,
            (
                RecordDelta(
                    kind="insert",
                    values=_row(41, "x"),
                ),
            ),
        )
        from dataclasses import replace

        wrong = replace(bogus, manifest_id=bytes(32))
        with pytest.raises(RemoteError) as excinfo:
            owner_client._request(wrong, object)
    assert excinfo.value.code == "UnknownManifestError"


# -- the receipt-accounting regression ---------------------------------------


def test_receipts_survive_wire_roundtrip_exactly(world):
    """decode(encode(receipt)) is the receipt, for every mutation kind."""
    twin = world["owner"].publish_relation(_build_relation())
    rows = [record.as_dict() for record in _build_relation().records]
    receipts = [
        twin.insert_record(
            _row(201, "r")
        ),
        twin.delete_record(twin.relation.records[0]),
        twin.update_record(
            twin.relation.records[0],
            dict(rows[1], name="renamed"),
        ),
    ]
    for receipt in receipts:
        assert decode(encode(receipt)) == receipt
        assert receipt.chain_messages_recomputed == receipt.signatures_recomputed
        assert len(receipt.entries_affected) == receipt.signatures_recomputed


def test_wire_receipts_match_in_process_accounting(world):
    """The regression: receipts coming back over the wire reproduce the exact
    counts (``chain_messages_recomputed`` included) of applying the same
    deltas in-process, because both paths merge through
    :meth:`UpdateReceipt.merge`."""
    deltas = _mixed_deltas(_build_relation(), 9)
    # In-process twin: same records (deterministic generator), same key.
    twin = Publisher(
        {"employees": world["owner"].publish_relation(_build_relation())}
    )
    with _owner_client(world) as owner_client:
        for delta in deltas:
            wire_receipt = owner_client.push("employees", (delta,)).receipt
            local_receipt = twin.apply_deltas("employees", (delta,))
            assert wire_receipt == local_receipt
            assert (
                wire_receipt.chain_messages_recomputed
                == local_receipt.chain_messages_recomputed
            )
            # ... and the receipt survives a second explicit round-trip.
            assert decode(encode(wire_receipt)) == local_receipt


def test_update_record_uses_merged_accounting(owner):
    """update_record accounts for the merged window of its delete and its
    insert once, and leaves the chain the two separate steps leave."""
    twin_a = owner.publish_relation(_build_relation())
    twin_b = owner.publish_relation(_build_relation())
    old = twin_a.relation.records[3]
    new = dict(old.as_dict(), name="moved", salary=old.key + 1)

    merged = twin_a.update_record(old, new)
    parts = UpdateReceipt.merge(
        (twin_b.delete_record(twin_b.relation.records[3]), twin_b.insert_record(new))
    )
    assert merged.digests_recomputed == parts.digests_recomputed == 1
    assert merged.signatures_recomputed == len(set(merged.entries_affected))
    assert 3 <= merged.signatures_recomputed < parts.signatures_recomputed == 5
    assert twin_a.signatures == twin_b.signatures
    assert twin_a.manifest == twin_b.manifest


def test_drifted_receipt_is_rejected_at_decode(world):
    """A receipt whose counts drifted can never silently round-trip."""
    from repro.wire.errors import WireFormatError

    good = UpdateReceipt(
        signatures_recomputed=3,
        digests_recomputed=1,
        entries_affected=(4, 5, 6),
        chain_messages_recomputed=3,
    )
    blob = encode(good)
    assert decode(blob) == good
    drifted = UpdateReceipt(
        signatures_recomputed=3,
        digests_recomputed=1,
        entries_affected=(4, 5, 6),
        chain_messages_recomputed=2,
    )
    with pytest.raises(WireFormatError) as excinfo:
        decode(encode(drifted))
    assert excinfo.value.reason == "invalid-artifact"
    short = UpdateReceipt(
        signatures_recomputed=2,
        digests_recomputed=1,
        entries_affected=(4, 5, 6),
        chain_messages_recomputed=2,
    )
    with pytest.raises(WireFormatError):
        decode(encode(short))


def test_publisher_apply_deltas_is_typed_in_process(owner):
    """The in-process API raises UpdateApplicationError directly."""
    publisher = Publisher({"employees": owner.publish_relation(_build_relation())})
    with pytest.raises(UpdateApplicationError):
        publisher.apply_deltas("employees", ())
    with pytest.raises(UpdateApplicationError):
        publisher.apply_deltas(
            "employees",
            (RecordDelta(kind="insert", values={"salary": "not-an-int"}),),
        )


# -- one attribution policy, three read shapes --------------------------------
#
# A single read, a pipelined batch and a join attribute their answers to a
# snapshot through the same routine, so every scenario below must end the
# same way whatever the shape: same snapshot, same follow-up frames, same
# typed refusal.  Nothing races: the rotations are scripted between one of the
# server's responses and the client's next frame.

ORDERS = Query("orders", Conjunction((RangeCondition("customer_id", 0, 1_000),)))
ORDERS_JOIN = JoinQuery("orders", "customers", "customer_id", "customer_id")


class _ScriptedClient(VerifyingClient):
    """Logs each round trip and runs ``script(kind)`` once it is answered.

    A round trip's kind is ``"ask"`` for a query, a join or a pipelined batch
    of queries, the request's class name otherwise.
    """

    frames = ()
    script = staticmethod(lambda kind: None)
    rewrite_rotation = None

    def _round_trip(self, kind, exchange):
        self.frames = [*self.frames, kind]
        response = exchange()
        self.script(kind)
        return response

    def _request(self, message, expect):
        is_ask = isinstance(message, (QueryRequest, JoinRequest))
        response = self._round_trip(
            "ask" if is_ask else type(message).__name__,
            lambda: VerifyingClient._request(self, message, expect),
        )
        if isinstance(message, RotationRequest) and self.rewrite_rotation:
            response = self.rewrite_rotation(response)
        return response

    def _request_pipeline(self, messages):
        return self._round_trip(
            "ask", lambda: VerifyingClient._request_pipeline(self, messages)
        )


def _read(client, shape):
    """One read of ``shape``: the (manifest id, sequence) of each orders answer."""
    if shape == "join":
        result = client.execute(QuerySpec(ORDERS_JOIN))
        assert result.report is not None
        assert result.right_manifest_sequence == 0  # customers never rotate
        return [(result.left_manifest_id, result.left_manifest_sequence)]
    if shape == "single":
        results = [client.execute(QuerySpec(ORDERS))]
    else:
        results = client.execute_many([QuerySpec(ORDERS)] * 3)
    assert all(result.report is not None for result in results)
    return [(result.manifest_id, result.manifest_sequence) for result in results]


@pytest.mark.parametrize("shape", ["single", "batch", "join"])
@pytest.mark.parametrize(
    "scenario, attributed, follow_ups, refusal",
    [
        ("pinned", 0, [], None),
        ("rotated-once", 1, ["RotationRequest"], None),
        # A streaming owner: the relation rotates again before the refresh
        # lands, and again before anything the client could send next.
        ("rotated-twice", 1, ["RotationRequest", "ManifestByIdRequest"], None),
        # The stamp falls out of the server's history before the refresh.
        ("stamp-evicted", 4, ["RotationRequest", "ManifestByIdRequest"], None),
        ("forged-rotation", None, ["RotationRequest"], "rotation-forged"),
        # Correctly signed, but the rotated manifest changes the chain's base.
        ("parameter-swap", None, ["RotationRequest"], "rotation-scheme-mismatch"),
    ],
)
def test_one_attribution_policy_for_every_read_shape(
    owner, forged_scheme, monkeypatch, shape, scenario, attributed, follow_ups, refusal
):
    import repro.service.router as router_module

    customers, orders = workload.generate_customers_and_orders(6, 10, seed=3)
    database = owner.publish_database({"customers": customers, "orders": orders})
    signed = database["orders"]
    router = ShardRouter({"sales": Publisher(database.relations)})
    if scenario == "stamp-evicted":
        monkeypatch.setattr(router_module, "MAX_SUPERSEDED_PER_RELATION", 1)
    with PublicationServer(router, config=ServerConfig(max_workers=4)) as server:
        host, port = server.address
        with OwnerClient(
            host, port, owner.signature_scheme
        ) as owner_client, _ScriptedClient(
            host, port, trusted_manifests=dict(database.manifests)
        ) as client:
            ids = [manifest_id(signed.manifest)]

            def rotate():
                owner_client.insert(
                    "orders",
                    {
                        "customer_id": customers.records[0].key,
                        "order_id": f"late-{len(ids)}",
                        "amount": len(ids),
                        "status": "open",
                    },
                )
                ids.append(manifest_id(signed.manifest))

            def script(kind):
                if scenario == "rotated-twice" and kind != "ManifestByIdRequest":
                    rotate()
                elif scenario == "stamp-evicted" and len(ids) == 2:
                    for _ in range(3):
                        rotate()

            def resign(rotation, manifest, scheme):
                return ManifestRotated(
                    manifest=manifest,
                    previous_id=rotation.previous_id,
                    owner_signature=scheme.sign(
                        manifest_signing_message(manifest, rotation.previous_id)
                    ),
                )

            if scenario == "forged-rotation":
                client.rewrite_rotation = lambda rotation: resign(
                    rotation, rotation.manifest, forged_scheme
                )
            elif scenario == "parameter-swap":
                client.rewrite_rotation = lambda rotation: resign(
                    rotation,
                    dataclasses.replace(rotation.manifest, base=3),
                    owner.signature_scheme,
                )
            if scenario != "pinned":
                rotate()  # the answer will be stamped 1; the client pins 0
            client.script = script

            answers = 3 if shape == "batch" else 1
            if refusal is not None:
                with pytest.raises(StaleManifestError) as excinfo:
                    _read(client, shape)
                assert excinfo.value.reason == refusal
                assert client.frames == ["ask"] + follow_ups
                pinned = 0
            else:
                assert _read(client, shape) == [(ids[attributed], attributed)] * answers
                # A refreshed pin that matches the stamp settles the rest of
                # the batch too; an answer the pin has overtaken is followed
                # up on its own, and only an evicted stamp is asked for again.
                overtaken = answers if "ManifestByIdRequest" in follow_ups else 1
                re_ask = ["ask"] if scenario == "stamp-evicted" else []
                assert client.frames == ["ask"] + follow_ups * overtaken + re_ask
                pinned = 1 + overtaken if scenario == "rotated-twice" else attributed
            assert client._manifests["orders"].sequence == pinned
            assert client.rotations_observed == ({"orders": pinned} if pinned else {})
