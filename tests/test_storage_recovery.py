"""In-process crash recovery: store + WAL replay == the pre-crash server.

The contract under test is byte-identity: a router recovered from disk must
be indistinguishable from the one that served before the "crash" — same
32-byte manifest ids, same rotation history, same proof bytes on the same
queries, same applied-update registry.  The relation store keeps the owner's
signatures next to the rows and FDH-RSA determinism makes replayed updates
reproduce theirs, which is what makes this possible; the owner-signed WAL is
what makes it safe: tampered or gapped logs are refused with typed
:class:`~repro.storage.errors.RecoveryError` reasons instead of being
partially served.

Also covers the ``walctl`` offline tool against the same roots.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.service.handler import RequestHandler
from repro.service.owner import OwnerClient, build_update_request
from repro.service.router import ShardRouter
from repro.service.server import PublicationServer
from repro.storage import (
    PublicationStorage,
    RecoveryError,
    StorageError,
    open_publication_storage,
    recover_router,
)
from repro.storage.store import STORAGE_FORMAT, check_storage_format
from repro.storage.checkpoint import save_keys
from repro.storage.errors import CheckpointCorruptError
from repro.storage.faults import FaultInjected
from repro.storage.relstore import (
    RelationStore,
    StoredSignedRelation,
    build_stored_chain,
)
from repro.storage.wal import encode_record, iter_wal_records
from repro.storage.walctl import main as walctl
from repro.wire import decode, encode, manifest_id
from repro.wire.updates import RecordDelta, UpdateRequest, UpdateResponse

SALARIES = Query(
    "employees", Conjunction((RangeCondition("salary", None, None),))
)


def _build_router(signature_scheme) -> ShardRouter:
    relation = workload.generate_employees(14, seed=19, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    return ShardRouter({"hr": Publisher({"employees": signed})})


def _insert_frame(signature_scheme, manifest, index: int) -> bytes:
    delta = RecordDelta(
        kind="insert",
        values={
            "emp_id": f"rec-{index}",
            "name": f"Recovered {index}",
            "salary": 77_000 + index,
            "dept": 2,
            "photo": bytes([index % 251]) * 8,
        },
    )
    return encode(build_update_request(signature_scheme, manifest, (delta,)))


def _serve_updates(signature_scheme, router, storage, count=3):
    """Push ``count`` single-insert batches through the live handler path."""
    handler = RequestHandler(router, response_cache=False, storage=storage)
    responses = []
    for index in range(count):
        frame = _insert_frame(
            signature_scheme, router.manifest_by_name("employees"), index
        )
        handled = handler.handle_frame(frame)
        assert not handled.is_error, decode(handled.payload)
        responses.append((frame, handled.payload))
    return handler, responses


def _open_world(tmp_path, signature_scheme, **options):
    """A freshly bootstrapped root, served the one way there is: through recovery."""
    return open_publication_storage(
        str(tmp_path / "pub"), lambda: _build_router(signature_scheme), **options
    )


@pytest.fixture()
def durable_world(tmp_path, signature_scheme):
    """A bootstrapped root with three applied updates, storage still open."""
    router, storage = _open_world(tmp_path, signature_scheme)
    handler, responses = _serve_updates(signature_scheme, router, storage)
    return router, storage, handler, responses


def _state_fingerprint(router: ShardRouter):
    target = router.route(router.current_id("employees"))
    with target.lock:
        answer = target.publisher.answer(SALARIES)
    return {
        "manifest_id": router.current_id("employees"),
        "rotation": router.rotation("employees"),
        "rows": answer.rows,
        "proof": answer.proof,
    }


# -- the byte-identity contract ------------------------------------------------


def test_recovery_reproduces_the_crashed_server_exactly(durable_world, tmp_path):
    router, storage, _, _ = durable_world
    before = _state_fingerprint(router)
    storage.close()  # simulated crash point: everything acked is on disk

    recovered_router, recovered_storage = open_publication_storage(
        str(tmp_path / "pub"), lambda: pytest.fail("must recover, not rebuild")
    )
    try:
        after = _state_fingerprint(recovered_router)
        assert after["manifest_id"] == before["manifest_id"]
        assert after["rotation"] == before["rotation"]
        assert after["rows"] == before["rows"]
        assert after["proof"] == before["proof"]
        assert recovered_storage.origin == "recovered"
    finally:
        recovered_storage.close()


def test_recovery_without_any_updates_keeps_the_genesis_rotation(
    tmp_path, signature_scheme
):
    router = _build_router(signature_scheme)
    PublicationStorage.create(str(tmp_path / "pub"), router)
    genesis = router.rotation("employees")
    recovered = recover_router(PublicationStorage.open(str(tmp_path / "pub")))
    assert recovered.rotation("employees") == genesis
    assert recovered.current_id("employees") == router.current_id("employees")


def test_recovery_rebuilds_the_applied_update_registry(durable_world, tmp_path):
    router, storage, _, responses = durable_world
    storage.close()
    recovered = recover_router(PublicationStorage.open(str(tmp_path / "pub")))
    for frame, payload in responses:
        replayed = recovered.replayed_update_response(frame)
        assert replayed == payload, (
            "a resubmitted pre-crash batch must receive its original outcome"
        )


def test_recovered_handler_resumes_the_update_sequence(
    durable_world, tmp_path, signature_scheme
):
    router, storage, handler, _ = durable_world
    storage.close()
    recovered_router, recovered_storage = open_publication_storage(
        str(tmp_path / "pub"), lambda: pytest.fail("must recover, not rebuild")
    )
    try:
        recovered_handler = RequestHandler(
            recovered_router, response_cache=False, storage=recovered_storage
        )
        frame = _insert_frame(
            signature_scheme, recovered_router.manifest_by_name("employees"), 99
        )
        handled = recovered_handler.handle_frame(frame)
        assert not handled.is_error, decode(handled.payload)
        response = decode(handled.payload, expect=UpdateResponse)
        assert response.rotation.manifest.sequence == 4  # 3 replayed + 1 new
    finally:
        recovered_storage.close()


def test_relstore_wal_sidecar_stays_bounded_under_updates(tmp_path, signature_scheme):
    """sqlite's ``-wal`` sidecar plateaus once autocheckpoints start.

    Nothing may hold a read snapshot of the store open across updates: a
    pinned reader stops every checkpoint from resetting the sidecar, which
    then grows by each update's pages for as long as the server runs.
    """
    router, storage = _open_world(tmp_path, signature_scheme, fsync="off")
    sidecar = tmp_path / "pub" / "shards" / "hr" / "relstore.db-wal"
    autocheckpoint_bytes = 1_000 * 4_096  # sqlite's default threshold, in pages
    row = {"emp_id": "wal-0", "name": "w", "salary": 77_000, "dept": 2, "photo": b"\x01" * 8}
    try:
        with PublicationServer(router, storage=storage) as server, OwnerClient(
            *server.address, signature_scheme
        ) as owner:
            owner.insert("employees", row)

            def update() -> None:
                nonlocal row
                new = dict(row, salary=row["salary"] + 1)
                owner.push("employees", (RecordDelta("update", new, old_values=row),))
                row = new

            updates = 0
            while sidecar.stat().st_size < autocheckpoint_bytes:
                update()
                updates += 1
                assert updates < 2_000, "the sidecar never reached the threshold"
            first = sidecar.stat().st_size
            for _ in range(updates):
                update()
            assert sidecar.stat().st_size <= 1.1 * first
    finally:
        storage.close()


# -- tampered and damaged logs -------------------------------------------------


def _rewrite_wal(storage_root: str, frames):
    path = os.path.join(storage_root, "shards", "hr", "employees.wal")
    with open(path, "wb") as handle:
        for frame in frames:
            handle.write(encode_record(frame))
    return path


def _read_wal(storage_root: str):
    path = os.path.join(storage_root, "shards", "hr", "employees.wal")
    return list(iter_wal_records(path))


def test_forged_wal_record_is_refused(durable_world, tmp_path):
    _, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    frames = _read_wal(root)
    # Re-sign nothing: just increment the owner signature of the first update
    # frame and re-frame it with a *valid* CRC, so only the signature check
    # can catch it.
    request = decode(frames[0], expect=UpdateRequest)
    forged = replace(request, owner_signature=request.owner_signature + 1)
    frames[0] = encode(forged)
    _rewrite_wal(root, frames)
    with pytest.raises(RecoveryError) as excinfo:
        recover_router(PublicationStorage.open(root))
    assert excinfo.value.reason == "forged-record"


def test_wal_gap_is_refused(durable_world, tmp_path, signature_scheme):
    """An owner-signed frame *ahead* of the store, its predecessor missing."""
    router, storage, _, _ = durable_world
    manifest = router.manifest_by_name("employees")
    storage.close()
    root = str(tmp_path / "pub")
    # The store committed sequences 0..2 and stands at 3.  A genuine frame
    # for sequence 4 (the owner pipelines against predicted manifests) whose
    # sequence-3 predecessor never reached the log cannot be applied.
    ahead = replace(manifest, sequence=manifest.sequence + 1)
    _rewrite_wal(root, _read_wal(root) + [_insert_frame(signature_scheme, ahead, 4)])
    with pytest.raises(RecoveryError) as excinfo:
        recover_router(PublicationStorage.open(root))
    assert excinfo.value.reason == "sequence-gap"


def test_dropped_committed_frames_are_verified_and_skipped(durable_world, tmp_path):
    """Losing log records the store already holds is not a gap.

    The first update and its rotation vanish from the log; the store
    committed them before the "crash", so replay verifies the frames that
    remain against the relation's history, skips them, and serves the same
    bytes.
    """
    router, storage, _, _ = durable_world
    before = _state_fingerprint(router)
    storage.close()
    root = str(tmp_path / "pub")
    _rewrite_wal(root, _read_wal(root)[2:])
    recovered = recover_router(PublicationStorage.open(root))
    assert _state_fingerprint(recovered) == before


def test_foreign_wal_record_is_refused(durable_world, tmp_path):
    _, storage, _, responses = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    frames = _read_wal(root)
    frames.append(responses[0][1])  # an UpdateResponse does not belong in a log
    _rewrite_wal(root, frames)
    with pytest.raises(RecoveryError) as excinfo:
        recover_router(PublicationStorage.open(root))
    assert excinfo.value.reason == "foreign-record"


def test_swapped_signing_key_is_refused(durable_world, tmp_path, forged_scheme):
    """A key file that does not match the checkpointed manifest is refused.

    The persisted key signs every later update's chain window and rotation,
    so it must be the one the owner-signed manifest names.
    """
    _, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    save_keys(
        os.path.join(root, "shards", "hr", "keys.json"),
        {"employees": forged_scheme},
    )
    with pytest.raises(RecoveryError) as excinfo:
        recover_router(PublicationStorage.open(root))
    assert excinfo.value.reason == "key-mismatch"


def test_tampered_checkpoint_header_is_refused(durable_world, tmp_path):
    """The header's plain-JSON sequence cannot contradict the signed manifest."""
    router, storage, _, _ = durable_world
    target = router.route(router.current_id("employees"))
    storage.checkpoint_now(target, router.rotation("employees"))
    storage.close()
    root = str(tmp_path / "pub")
    path = os.path.join(root, "shards", "hr", "employees.ckpt")
    records = list(iter_wal_records(path))
    header = json.loads(records[0].decode("utf-8"))
    header["sequence"] += 1
    records[0] = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        for record in records:
            handle.write(encode_record(record))
    with pytest.raises(CheckpointCorruptError, match="contradicts"):
        PublicationStorage.open(root).load_relation_checkpoint("hr", "employees")


# -- checkpoints and compaction ------------------------------------------------


def test_automatic_checkpoint_compacts_and_recovers(tmp_path, signature_scheme):
    router, storage = _open_world(tmp_path, signature_scheme, checkpoint_every=2)
    _serve_updates(signature_scheme, router, storage, count=5)
    assert storage.checkpoints_written == 2
    # 5 updates, checkpoint after the 2nd and 4th: one update+rotation pair
    # remains in the compacted log.
    assert storage.relation("employees").wal.records == 2
    before = _state_fingerprint(router)
    storage.close()
    recovered = recover_router(PublicationStorage.open(str(tmp_path / "pub")))
    assert _state_fingerprint(recovered) == before


def test_crash_between_checkpoint_and_compaction_recovers(
    tmp_path, signature_scheme
):
    """checkpoint written, log not yet compacted: replay skips the prefix."""
    root = str(tmp_path / "pub")
    router, storage = _open_world(tmp_path, signature_scheme)
    _serve_updates(signature_scheme, router, storage, count=3)
    wal_path = os.path.join(root, "shards", "hr", "employees.wal")
    with open(wal_path, "rb") as handle:
        full_log = handle.read()
    target = router.route(router.current_id("employees"))
    storage.checkpoint_now(target, router.rotation("employees"))
    before = _state_fingerprint(router)
    storage.close()
    # Undo the compaction only: the checkpoint stays, the full log returns —
    # exactly the state a crash between the two writes leaves behind.
    with open(wal_path, "wb") as handle:
        handle.write(full_log)
    recovered = recover_router(PublicationStorage.open(root))
    assert _state_fingerprint(recovered) == before


# -- what a stored chain holds, and the roots this build refuses ---------------


def test_crash_between_the_two_edits_of_an_update_recovers_whole(
    tmp_path, signature_scheme, monkeypatch
):
    """An update dies after its delete, before its insert: the store stays at
    the previous update boundary and replay lands the whole update."""
    twin, twin_storage = open_publication_storage(
        str(tmp_path / "twin"), lambda: _build_router(signature_scheme)
    )
    router, storage = _open_world(tmp_path, signature_scheme)
    victim = router.route(router.current_id("employees")).publisher.answer(SALARIES).rows[4]
    moved = dict(victim, salary=victim["salary"] + 1, name="Moved")
    frame = encode(
        build_update_request(
            signature_scheme,
            router.manifest_by_name("employees"),
            (RecordDelta(kind="update", values=moved, old_values=victim),),
        )
    )

    def die(self, record):
        raise FaultInjected("between-the-edits")

    with monkeypatch.context() as patch:
        patch.setattr(StoredSignedRelation, "_insert_entry", die)
        handled = RequestHandler(router, response_cache=False, storage=storage).handle_frame(frame)
        assert handled.is_error
    storage.close()

    store = RelationStore(str(tmp_path / "pub" / "shards" / "hr" / "relstore.db"))
    try:  # neither edit landed: 14 rows at sequence 0, the old row among them
        assert store.chain_state("employees").sequence == 0
        assert victim in list(store.iter_row_values("employees"))
        assert store.count_records("employees") == 14
    finally:
        store.close()

    expected = RequestHandler(twin, response_cache=False, storage=twin_storage).handle_frame(frame)
    assert not expected.is_error
    recovered_storage = PublicationStorage.open(str(tmp_path / "pub"))
    try:
        recovered = recover_router(recovered_storage)
        assert _state_fingerprint(recovered) == _state_fingerprint(twin)
        assert recovered.manifest_by_name("employees").sequence == 2
    finally:
        recovered_storage.close()
        twin_storage.close()


@pytest.mark.parametrize("found", [1, 2, 4, None, "3"])
def test_every_other_format_is_refused_with_the_remedy(found):
    """Older, newer, missing or mistyped: one typed refusal naming the fix."""
    check_storage_format("/srv/pub", STORAGE_FORMAT)
    with pytest.raises(StorageError, match=rf"format {found!r}; .*republish"):
        check_storage_format("/srv/pub", found)


def test_parent_format_root_is_refused_with_the_remedy(
    durable_world, tmp_path, signature_scheme, capsys
):
    """Format 2 kept a ``NOT NULL`` scheme column in ``chain_state`` that
    format 3 does not write — refused by the typed format check, reported by
    ``inspect``."""
    _, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    manifest_path = os.path.join(root, "storage.json")
    with open(manifest_path) as handle:
        document = json.load(handle)
    assert document["format"] == 3
    document["format"] = 2
    with open(manifest_path, "w") as handle:
        json.dump(document, handle)
    with pytest.raises(StorageError, match="format 2.*republish"):
        PublicationStorage.open(root)
    with pytest.raises(StorageError, match="republish"):
        open_publication_storage(root, lambda: pytest.fail("must not rebuild"))
    assert walctl(["inspect", root]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format"] == 2 and "republish" in report["format_error"]
    assert report["shards"]["hr"]["employees"]["store"] == {"rows": 17, "sequence": 3}


def test_conceptual_chain_is_refused_by_the_store(tmp_path, signature_scheme):
    """A conceptual chain has no representation-tree roots to store."""
    relation = workload.generate_employees(6, seed=19, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme, scheme_kind="conceptual")
    router = ShardRouter({"hr": Publisher({"employees": signed})})
    with pytest.raises(StorageError, match="'conceptual' chain"):
        PublicationStorage.create(str(tmp_path / "pub"), router)
    store = RelationStore(str(tmp_path / "relstore.db"))
    try:
        with pytest.raises(StorageError, match="'conceptual' chain"):
            build_stored_chain(
                store, "employees", relation.schema, relation, signature_scheme,
                scheme_kind="conceptual",
            )
        build_stored_chain(store, "employees", relation.schema, relation, signature_scheme)
        with pytest.raises(StorageError, match="'conceptual' chain"):
            StoredSignedRelation(store, "employees", signed.manifest, signature_scheme)
    finally:
        store.close()


# -- walctl --------------------------------------------------------------------


def test_walctl_inspect_and_verify_clean_root(durable_world, tmp_path, capsys):
    _, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    assert walctl(["inspect", root]) == 0
    report = capsys.readouterr().out
    assert '"records": 6' in report  # 3 updates + 3 rotations
    # The genesis checkpoint stands at sequence 0; the store committed the
    # three single-row inserts on top of the 14 published rows.
    assert json.loads(report)["format"] == 3 and "format_error" not in report
    entry = json.loads(report)["shards"]["hr"]["employees"]
    assert entry["checkpoint"]["sequence"] == 0
    assert entry["store"] == {"rows": 17, "sequence": 3}
    assert walctl(["verify", root]) == 0
    assert "OK 1 relation(s) verified" in capsys.readouterr().out


def test_walctl_verify_catches_forgery(durable_world, tmp_path, capsys):
    _, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    frames = _read_wal(root)
    request = decode(frames[0], expect=UpdateRequest)
    frames[0] = encode(replace(request, owner_signature=request.owner_signature + 1))
    _rewrite_wal(root, frames)
    assert walctl(["verify", root]) == 1
    assert "owner signature does not verify" in capsys.readouterr().out


def test_walctl_repair_torn_tail_without_force(durable_world, tmp_path, capsys):
    _, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    wal_path = os.path.join(root, "shards", "hr", "employees.wal")
    with open(wal_path, "ab") as handle:
        handle.write(b"\x00\x00\x01")  # three bytes of a record that never was
    assert walctl(["repair", root]) == 0
    out = capsys.readouterr().out
    assert "REPAIRED hr/employees" in out
    assert os.path.exists(wal_path + ".bak")
    assert walctl(["verify", root]) == 0


def test_walctl_repair_corruption_requires_force(durable_world, tmp_path, capsys):
    _, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    wal_path = os.path.join(root, "shards", "hr", "employees.wal")
    with open(wal_path, "r+b") as handle:
        handle.seek(10)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x10]))
    assert walctl(["repair", root]) == 1
    assert "pass --force" in capsys.readouterr().out
    assert walctl(["repair", root, "--force"]) == 0
    capsys.readouterr()
    # What remains is a consistent (here: empty) verified prefix of history.
    assert walctl(["verify", root]) == 0


def test_recovered_root_manifest_ids_match_walctl_view(durable_world, tmp_path):
    router, storage, _, _ = durable_world
    storage.close()
    root = str(tmp_path / "pub")
    recovered_storage = PublicationStorage.open(root)
    checkpoint = recovered_storage.load_relation_checkpoint("hr", "employees")
    recovered = recover_router(recovered_storage)
    # The checkpoint holds the genesis rotation; replay advances past it to
    # the same current id the live router reports.
    assert checkpoint.sequence == 0
    assert recovered.current_id("employees") == router.current_id("employees")
    assert manifest_id(recovered.rotation("employees").manifest) == (
        recovered.current_id("employees")
    )
