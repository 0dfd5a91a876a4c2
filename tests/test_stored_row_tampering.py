"""A restart never launders an edited row into a verified answer.

The publisher stores the owner's chain signatures next to the rows and never
re-signs stored content, so a row edited in ``relstore.db`` behind the
server's back has no signature that covers it (short of the editor wielding
the signing key itself).  Each test edits one stored
row of a chain root — the payload alone (the fingerprint it is filed under
no longer matches), or payload and fingerprint together (the store is
self-consistent again, only the owner's signature is not) — and asserts the
edit is refused when the row is read, or fails verification at the
client.  It is never returned as a verified answer; that holds for a root
edited offline and for a replica bootstrapped from a snapshot that was
edited in flight.  A deleted row fares no better: deleted offline, the
client refuses the answer around the gap; deleted behind a server that has
already attached, the read of the span that held it is refused by name.

The same goes for the other stored artifact a row carries: the Section 5.1
representation-tree roots the server hands out as the row's entry assists and
re-derives its ``g`` from.  A flipped root is served as it is found — the
server never recomputes one — and every answer the row takes part in, as a
result row or as either boundary, fails the client's recomputation.
"""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.core.errors import VerificationError
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.records import Record
from repro.service import (
    PublicationServer,
    QuerySpec,
    RemoteError,
    ServerConfig,
    ShardRouter,
    VerifyingClient,
)
from repro.service import replication
from repro.service.protocol import ReplicaSnapshot
from repro.storage import open_publication_storage
from repro.wire import decode, encode
from repro.wire.updates import RecordDelta

FULL_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", None, None),))
)
FORGED_NAME = "FORGED BY THE DISK"


def _build_router(signature_scheme) -> ShardRouter:
    relation = workload.generate_employees(12, seed=31, photo_bytes=8)
    return ShardRouter(
        {"hr": Publisher({"employees": SignedRelation(relation, signature_scheme)})}
    )


def _must_not_rebuild() -> ShardRouter:
    raise AssertionError("the root exists; it must be recovered, not rebuilt")


def _forge_stored_row(db_path: str, schema, fix_fingerprint: bool) -> None:
    """Rename one stored employee, optionally re-filing it under its new fingerprint."""
    connection = sqlite3.connect(db_path)
    try:
        key, fingerprint, payload = connection.execute(
            "SELECT key, fingerprint, payload FROM entries"
            " WHERE relation='employees' AND kind='record'"
            " ORDER BY key LIMIT 1 OFFSET 5"
        ).fetchone()
        values = dict(decode(payload, expect=RecordDelta).values)
        values["name"] = FORGED_NAME
        forged = Record(schema, values)
        assert forged.key == key and forged.fingerprint() != fingerprint
        connection.execute(
            "UPDATE entries SET payload=?, fingerprint=?"
            " WHERE relation='employees' AND kind='record' AND key=? AND fingerprint=?",
            (
                encode(RecordDelta(kind="insert", values=values)),
                forged.fingerprint() if fix_fingerprint else fingerprint,
                key,
                fingerprint,
            ),
        )
        connection.commit()
    finally:
        connection.close()


def _flip_stored_roots(db_path: str, schema=None) -> None:
    """Flip one bit in both stored roots of the employee ``_forge_stored_row`` edits."""
    connection = sqlite3.connect(db_path)
    try:
        key, fingerprint, stored = connection.execute(
            "SELECT key, fingerprint, digest FROM entries"
            " WHERE relation='employees' AND kind='record'"
            " ORDER BY key LIMIT 1 OFFSET 5"
        ).fetchone()
        assert len(stored) == 96  # upper_root | lower_root | attribute_root
        flipped = bytes([stored[0] ^ 1]) + stored[1:32] + bytes([stored[32] ^ 1]) + stored[33:]
        connection.execute(
            "UPDATE entries SET digest=?"
            " WHERE relation='employees' AND kind='record' AND key=? AND fingerprint=?",
            (flipped, key, fingerprint),
        )
        connection.commit()
    finally:
        connection.close()


def _assert_flipped_roots_are_never_verified(root: str) -> None:
    """The tampered row as a result row, as the lower and as the upper boundary."""
    router, storage = open_publication_storage(root, _must_not_rebuild)
    try:
        keys = [record.key for record in workload.generate_employees(12, seed=31, photo_bytes=8)]
        victim = keys[5]
        queries = [
            FULL_RANGE,
            Query("employees", Conjunction((RangeCondition("salary", victim, victim),))),
            Query("employees", Conjunction((RangeCondition("salary", victim + 1, keys[8]),))),
            Query("employees", Conjunction((RangeCondition("salary", keys[2], victim - 1),))),
        ]
        with PublicationServer(router, storage=storage) as server:
            with VerifyingClient(*server.address) as client:
                for query in queries:
                    with pytest.raises(VerificationError):
                        client.execute(QuerySpec(query))
                untouched = Query(
                    "employees", Conjunction((RangeCondition("salary", keys[7], keys[10]),))
                )
                assert len(client.execute(QuerySpec(untouched)).rows) == 4
    finally:
        storage.close()


def _assert_forged_row_is_never_verified(root: str, fix_fingerprint: bool) -> None:
    router, storage = open_publication_storage(root, _must_not_rebuild)
    try:
        with PublicationServer(router, storage=storage) as server:
            with VerifyingClient(*server.address) as client:
                if fix_fingerprint:
                    # The store is self-consistent, so the row is served —
                    # next to a chain signature the owner made over the
                    # original row.  The client's recomputation refuses it.
                    with pytest.raises(VerificationError):
                        client.execute(QuerySpec(FULL_RANGE))
                else:
                    # The row no longer matches the identity it is filed
                    # under: the server refuses to fault it in at all.
                    with pytest.raises(RemoteError) as excinfo:
                        client.execute(QuerySpec(FULL_RANGE))
                    assert "does not match the fingerprint" in str(excinfo.value)
    finally:
        storage.close()


@pytest.mark.parametrize("fix_fingerprint", [False, True])
def test_row_edited_offline_is_never_served_verified(
    tmp_path, signature_scheme, fix_fingerprint
):
    root = str(tmp_path / "pub")
    router, storage = open_publication_storage(
        root, lambda: _build_router(signature_scheme)
    )
    schema = router.manifest_by_name("employees").schema
    storage.close()
    _forge_stored_row(
        os.path.join(root, "shards", "hr", "relstore.db"), schema, fix_fingerprint
    )
    _assert_forged_row_is_never_verified(root, fix_fingerprint)


def _delete_stored_row(db_path: str) -> None:
    """Delete the employee ``_forge_stored_row`` edits: mid-span for ``FULL_RANGE``."""
    connection = sqlite3.connect(db_path)
    try:
        connection.execute(
            "DELETE FROM entries WHERE rowid = (SELECT rowid FROM entries"
            " WHERE relation='employees' AND kind='record' ORDER BY key LIMIT 1 OFFSET 5)"
        )
        connection.commit()
    finally:
        connection.close()


@pytest.mark.parametrize("attached", [False, True], ids=["offline", "behind-an-attached-server"])
def test_row_deleted_from_the_store_is_never_served_verified(
    tmp_path, signature_scheme, attached
):
    """A row deleted from ``relstore.db``, from the middle of the span an
    answer reads.  Deleted offline, the store is self-consistent and the
    client refuses an answer its neighbours' signatures no longer cover.
    Deleted after the server attached, the read no longer lines up with the
    identity index and is refused with a typed error naming the relation —
    never an ``IndexError``, never a misaligned answer."""
    root = str(tmp_path / "pub")
    _, storage = open_publication_storage(root, lambda: _build_router(signature_scheme))
    storage.close()
    db_path = os.path.join(root, "shards", "hr", "relstore.db")
    if not attached:
        _delete_stored_row(db_path)
    router, storage = open_publication_storage(root, _must_not_rebuild)
    try:
        if attached:
            _delete_stored_row(db_path)
        with PublicationServer(router, storage=storage) as server:
            with VerifyingClient(*server.address) as client:
                with pytest.raises(RemoteError if attached else VerificationError) as excinfo:
                    client.execute(QuerySpec(FULL_RANGE))
        if attached:
            message = str(excinfo.value)
            assert "StorageError" in message and "relation 'employees'" in message
            assert "identity index" in message
    finally:
        storage.close()


def test_root_flipped_offline_is_never_served_verified(tmp_path, signature_scheme):
    root = str(tmp_path / "pub")
    _, storage = open_publication_storage(root, lambda: _build_router(signature_scheme))
    storage.close()
    _flip_stored_roots(os.path.join(root, "shards", "hr", "relstore.db"))
    _assert_flipped_roots_are_never_verified(root)


@pytest.mark.parametrize("fix_fingerprint", [False, True])
def test_row_edited_in_a_snapshot_in_flight_is_never_served_verified(
    tmp_path, signature_scheme, monkeypatch, fix_fingerprint
):
    replica_root = _replica_from_forged_snapshot(
        tmp_path,
        signature_scheme,
        monkeypatch,
        lambda path, schema: _forge_stored_row(path, schema, fix_fingerprint),
    )
    _assert_forged_row_is_never_verified(replica_root, fix_fingerprint)


def test_root_flipped_in_a_snapshot_in_flight_is_never_served_verified(
    tmp_path, signature_scheme, monkeypatch
):
    replica_root = _replica_from_forged_snapshot(
        tmp_path, signature_scheme, monkeypatch, _flip_stored_roots
    )
    _assert_flipped_roots_are_never_verified(replica_root)


def _replica_from_forged_snapshot(tmp_path, signature_scheme, monkeypatch, forge) -> str:
    """Bootstrap a replica whose ``relstore.db`` ``forge(path, schema)`` edited in flight."""
    primary_root = str(tmp_path / "primary")
    router, storage = open_publication_storage(
        primary_root, lambda: _build_router(signature_scheme)
    )
    schema = router.manifest_by_name("employees").schema
    genuine_request = replication.ServiceConnection._request

    def forging_request(self, message, expect):
        snapshot = genuine_request(self, message, expect)
        files = []
        for relative, payload in snapshot.files:
            if os.path.basename(relative) == "relstore.db":
                scratch = str(tmp_path / "in-flight.db")
                with open(scratch, "wb") as handle:
                    handle.write(payload)
                forge(scratch, schema)
                with open(scratch, "rb") as handle:
                    payload = handle.read()
            files.append((relative, payload))
        return ReplicaSnapshot(files=tuple(files))

    replica_root = str(tmp_path / "replica")
    try:
        with PublicationServer(
            router, storage=storage, config=ServerConfig(serve_replication=True)
        ) as server:
            monkeypatch.setattr(
                replication.ServiceConnection, "_request", forging_request
            )
            assert replication.bootstrap_replica_root(
                *server.address, replica_root, keys_from=primary_root
            )
            monkeypatch.undo()
    finally:
        storage.close()
    return replica_root
