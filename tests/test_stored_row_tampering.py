"""A restart never launders an edited row into a verified answer.

The publisher stores the owner's chain signatures next to the rows and never
re-signs stored content, so a row edited in ``relstore.db`` behind the
server's back has no signature that covers it (short of the editor wielding
the signing key itself).  Each test edits one stored
row of a chain root — the payload alone (the fingerprint it is filed under
no longer matches), or payload and fingerprint together (the store is
self-consistent again, only the owner's signature is not) — and asserts the
edit is refused when the row is faulted in, or fails verification at the
client.  It is never returned as a verified answer; that holds for a root
edited offline and for a replica bootstrapped from a snapshot that was
edited in flight.
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


@pytest.mark.parametrize("fix_fingerprint", [False, True])
def test_row_edited_in_a_snapshot_in_flight_is_never_served_verified(
    tmp_path, signature_scheme, monkeypatch, fix_fingerprint
):
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
                _forge_stored_row(scratch, schema, fix_fingerprint)
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
    _assert_forged_row_is_never_verified(replica_root, fix_fingerprint)
