"""Crash recovery: relation store + WAL replay → the same serving state.

Recovery rebuilds a :class:`~repro.service.router.ShardRouter` that is
indistinguishable — manifest ids, rotation history, query answers, applied-
update registry — from the router that was serving before the crash:

1. **The relation store** holds each relation at its last committed update
   boundary.  Every relation *attaches* to it: rows, stored roots and the
   owner's signatures are served as stored, nothing is re-signed, and the
   attached manifest's 32-byte id must lie on the history of the
   checkpoint's owner-signed one.
2. **WAL replay** pushes every
   :class:`~repro.wire.updates.UpdateRequest` frame the store has not yet
   committed through the *same*
   ``apply_deltas`` path the live server uses — after re-verifying the
   owner's signature over ``(manifest id, sequence, deltas)`` under the
   public key the manifest carries.  A record that fails the signature, the
   sequence chain, or application is a typed
   :class:`~repro.storage.errors.RecoveryError`: a tampered log refuses to
   serve instead of serving forged history.  Frames the store already
   holds are signature-verified against the rotation chain and skipped.
3. Each replayed batch re-derives its original
   :class:`~repro.wire.updates.UpdateResponse` (receipts and rotation
   signatures are deterministic) and re-registers it in the router's
   applied-update registry — so an owner resubmitting a batch that was
   applied just before the crash still receives the *original* outcome
   instead of a stale-update error or a double apply.

The trust argument is the paper's own: every replayed mutation is owner-
signed, so whoever controls the disk can at worst *truncate* history (lose
un-fsynced suffixes), never extend or alter it — and under
``fsync="always"`` truncation cannot reach any acknowledged update.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.core.publisher import Publisher
from repro.service.router import ShardRouter, ShardTarget
from repro.storage.checkpoint import Checkpoint
from repro.storage.errors import RecoveryError
from repro.storage.relstore import StoredSignedRelation, stored_current_rotation
from repro.storage.store import PublicationStorage
from repro.service.protocol import ServiceError
from repro.wire import decode, encode, manifest_id
from repro.wire.updates import (
    FreshnessAttestation,
    ManifestRotated,
    UpdateRequest,
    UpdateResponse,
    attestation_signing_message,
    manifest_signing_message,
    update_signing_message,
)

__all__ = ["recover_router", "rebuild_stored_publication"]


def rebuild_stored_publication(
    storage: PublicationStorage, shard: str, checkpoint: Checkpoint, signature_scheme
):
    """One relation served from its shard's relation store.

    The relation *attaches*: the identity index loads from SQLite, rows,
    stored roots and signatures are read lazily, and nothing is re-signed — the
    stored signatures are the owner's chain, so peak memory is a few dozen
    bytes per row instead of the rows themselves.  The store may be *ahead*
    of the checkpoint (it commits every update batch; checkpoints are
    periodic): the publication resumes at the store's sequence, and the
    checkpoint's owner-signed manifest id must still lie on the same history.
    """
    name = checkpoint.relation_name
    manifest = checkpoint.rotation.manifest
    if manifest.public_key != signature_scheme.verifier:
        raise RecoveryError(
            f"relation {name!r}: the persisted signing key does not match "
            "the checkpointed manifest's public key",
            reason="key-mismatch",
        )
    store = storage.relation_store(shard)
    state = store.chain_state(name)
    if state is None:
        raise RecoveryError(
            f"relation {name!r}: the shard's relation store holds no chain "
            "state for it",
            reason="store-missing",
        )
    if state.sequence < manifest.sequence:
        raise RecoveryError(
            f"relation {name!r}: the relation store stopped at sequence "
            f"{state.sequence}, behind its own checkpoint at "
            f"{manifest.sequence}",
            reason="store-behind-checkpoint",
        )
    publication = StoredSignedRelation(store, name, manifest, signature_scheme)
    publication.restore_sequence(state.sequence)
    expected = replace(publication.manifest, sequence=manifest.sequence)
    if manifest_id(expected) != manifest_id(manifest):
        raise RecoveryError(
            f"relation {name!r}: the relation rebuilt from its store does "
            "not reproduce the checkpointed manifest id",
            reason="checkpoint-divergence",
        )
    return publication


def _build_shard(
    storage: PublicationStorage, shard: str, names
) -> Dict[str, StoredSignedRelation]:
    keys = storage.load_shard_keys(shard)
    publications = {}
    for name in names:
        signature_scheme = keys.get(name)
        if signature_scheme is None:
            raise RecoveryError(
                f"shard {shard!r} has no persisted signing key for relation {name!r}",
                reason="key-missing",
            )
        checkpoint = storage.load_relation_checkpoint(shard, name)
        if checkpoint.relation_name != name:
            raise RecoveryError(
                f"checkpoint for {name!r} names relation "
                f"{checkpoint.relation_name!r}",
                reason="checkpoint-mislabelled",
            )
        publications[name] = rebuild_stored_publication(
            storage, shard, checkpoint, signature_scheme
        )
    return publications


def recover_router(storage: PublicationStorage) -> ShardRouter:
    """Rebuild the full router from an opened storage root (see module doc)."""
    by_shard = {
        shard: _build_shard(storage, shard, names)
        for shard, names in storage.layout.items()
    }
    router = ShardRouter(
        {shard: Publisher(publications) for shard, publications in by_shard.items()}
    )
    # Seed rotation history first: a relation whose WAL is empty must still
    # answer RotationRequest with the rotation it had (its true previous id)
    # rather than a re-derived genesis-style one.  The store may be ahead of
    # the checkpoint, so its own stored (or re-derived) rotation wins.
    for shard, publications in by_shard.items():
        store = storage.relation_store(shard)
        for name, publication in publications.items():
            router.restore_rotation(
                name, stored_current_rotation(store, name, publication)
            )
            # The store tracks the latest (possibly rotation re-stamped)
            # freshness attestation in chain state; seed it before WAL
            # replay so replayed updates re-stamp the same chain the live
            # server was carrying.
            state = store.chain_state(name)
            if state is not None and state.attestation:
                _restore_attestation(router, name, state.attestation)
    for shard, names in storage.layout.items():
        for name in names:
            _replay_relation(router, storage, name)
    # The applied-update registry survives in the store (the replay above
    # only re-registers frames the store had not yet committed); reload it
    # so resubmitted batches from before the last checkpoint still get
    # their original acknowledgement.
    for shard, names in storage.layout.items():
        store = storage.relation_store(shard)
        for name in names:
            for frame, response in store.applied_updates(name):
                router.remember_applied_update(frame, response)
    return router


def _restore_attestation(router: ShardRouter, name: str, blob: bytes) -> None:
    """Decode and restore one persisted attestation; typed errors only."""
    try:
        attestation = decode(blob, expect=FreshnessAttestation)
    except Exception as error:
        raise RecoveryError(
            f"relation {name!r}: the stored freshness attestation does not "
            f"decode: {error}",
            reason="undecodable-attestation",
        ) from error
    try:
        router.restore_attestation(name, attestation)
    except ServiceError as error:
        raise RecoveryError(
            f"relation {name!r}: the stored freshness attestation does not "
            f"verify against the recovered state: {error}",
            reason="forged-attestation",
        ) from error


def _replay_relation(router: ShardRouter, storage: PublicationStorage, name: str) -> None:
    entry = storage.relation(name)
    target = router.route(router.current_id(name))
    for frame in entry.wal.replay():
        try:
            artifact = decode(frame)
        except Exception as error:
            raise RecoveryError(
                f"relation {name!r}: WAL record does not decode: {error}",
                reason="undecodable-record",
            ) from error
        if isinstance(artifact, UpdateRequest):
            _replay_update(router, storage, target, entry, artifact, frame)
        elif isinstance(artifact, ManifestRotated):
            _replay_rotation(router, target, artifact)
        elif isinstance(artifact, FreshnessAttestation):
            _replay_attestation(router, target, artifact)
        else:
            raise RecoveryError(
                f"relation {name!r}: WAL holds a {type(artifact).__name__} "
                "frame; only update requests, rotations and freshness "
                "attestations belong in the log",
                reason="foreign-record",
            )


def _replay_update(
    router: ShardRouter,
    storage: PublicationStorage,
    target: ShardTarget,
    entry,
    request: UpdateRequest,
    frame: bytes,
) -> None:
    name = target.relation_name
    signed = target.publisher.signed_relation(name)
    version = signed.version
    if request.sequence < version:
        # Already applied: the relation store committed it before the
        # crash.  Verify it belongs to this relation's history — the
        # manifest at that sequence differs from the current one only in the
        # sequence field — then skip.
        historical = replace(signed.manifest, sequence=request.sequence)
        _verify_update_signature(name, historical, request)
        # Count it, so the periodic checkpoint cadence is unchanged.
        entry.updates_since_checkpoint += 1
        return
    if request.sequence > version:
        raise RecoveryError(
            f"relation {name!r}: WAL record expects sequence "
            f"{request.sequence} but replay reached {version}; the log has "
            "a gap (lost or reordered records)",
            reason="sequence-gap",
        )
    if request.manifest_id != manifest_id(signed.manifest):
        raise RecoveryError(
            f"relation {name!r}: WAL record at sequence {request.sequence} "
            "addresses a manifest id that is not this relation's",
            reason="manifest-mismatch",
        )
    _verify_update_signature(name, signed.manifest, request)
    # Same atomicity as the live path: the re-applied batch and its
    # re-derived acknowledgement commit to the store in one transaction.
    with storage.applied_update_scope(target):
        try:
            with storage.update_batch(target):
                receipt = target.publisher.apply_deltas(name, request.deltas)
        except Exception as error:
            raise RecoveryError(
                f"relation {name!r}: a logged, owner-signed batch fails to "
                f"apply during replay: {error}",
                reason="replay-apply-failed",
            ) from error
        rotation = router.record_rotation(target)
        entry.updates_since_checkpoint += 1
        # Re-derive the original acknowledgement (receipts and FDH signatures
        # are deterministic) so a post-restart resubmission of this exact
        # frame returns the byte-identical outcome instead of double-applying.
        response_payload = encode(UpdateResponse(receipt=receipt, rotation=rotation))
        router.remember_applied_update(frame, response_payload)
        storage.persist_replayed_update(
            target,
            rotation,
            request,
            frame,
            response_payload,
            attestation=router.attestation_for(name),
        )


def _verify_update_signature(name: str, manifest, request: UpdateRequest) -> None:
    if manifest_id(manifest) != request.manifest_id:
        raise RecoveryError(
            f"relation {name!r}: WAL record at sequence {request.sequence} "
            "does not chain to this relation's manifest history",
            reason="manifest-mismatch",
        )
    message = update_signing_message(
        request.manifest_id, request.sequence, request.deltas
    )
    if not manifest.public_key.verify(message, request.owner_signature):
        raise RecoveryError(
            f"relation {name!r}: WAL record at sequence {request.sequence} "
            "is not signed by the data owner — the log was tampered with",
            reason="forged-record",
        )


def _replay_attestation(
    router: ShardRouter, target: ShardTarget, attestation: FreshnessAttestation
) -> None:
    """Replay one owner-pushed freshness attestation from the WAL.

    An attestation at the replayed-to version (and ahead of any already
    seeded freshness state) is restored through the router's own
    validation — id match, sequence match, owner signature.  One behind
    the version or behind the seeded state was superseded (by a later
    update the store absorbed, or by the chain state recovery seeded):
    it is signature-verified against the relation's manifest history and
    skipped, exactly like pre-checkpoint update leftovers.  One *ahead*
    of the version cannot exist in an untampered log.
    """
    name = target.relation_name
    signed = target.publisher.signed_relation(name)
    version = signed.version
    if attestation.sequence > version:
        raise RecoveryError(
            f"relation {name!r}: WAL holds a freshness attestation for "
            f"sequence {attestation.sequence} without the update that "
            "produced it",
            reason="attestation-without-update",
        )
    current = router.attestation_state(name)
    if attestation.sequence < version or (
        current is not None
        and (attestation.sequence, attestation.epoch) <= current
    ):
        historical = replace(signed.manifest, sequence=attestation.sequence)
        if manifest_id(historical) != attestation.manifest_id:
            raise RecoveryError(
                f"relation {name!r}: a logged freshness attestation does "
                "not chain to this relation's manifest history",
                reason="attestation-mismatch",
            )
        message = attestation_signing_message(
            attestation.manifest_id,
            attestation.sequence,
            attestation.epoch,
            attestation.issued_at_ms,
            attestation.not_after_ms,
        )
        if not signed.manifest.public_key.verify(
            message, attestation.owner_signature
        ):
            raise RecoveryError(
                f"relation {name!r}: a logged freshness attestation is not "
                "signed by the data owner — the log was tampered with",
                reason="forged-attestation",
            )
        return
    try:
        router.restore_attestation(name, attestation)
    except ServiceError as error:
        raise RecoveryError(
            f"relation {name!r}: a logged freshness attestation does not "
            f"verify against the recovered state: {error}",
            reason="forged-attestation",
        ) from error


def _replay_rotation(
    router: ShardRouter, target: ShardTarget, rotation: ManifestRotated
) -> None:
    name = target.relation_name
    signed = target.publisher.signed_relation(name)
    if rotation.sequence > signed.version:
        raise RecoveryError(
            f"relation {name!r}: WAL holds a rotation to sequence "
            f"{rotation.sequence} without the update that caused it",
            reason="rotation-without-update",
        )
    expected = replace(signed.manifest, sequence=rotation.sequence)
    if manifest_id(rotation.manifest) != manifest_id(expected):
        raise RecoveryError(
            f"relation {name!r}: a logged rotation does not match the "
            "relation's manifest history",
            reason="rotation-mismatch",
        )
    message = manifest_signing_message(rotation.manifest, rotation.previous_id)
    if not rotation.manifest.public_key.verify(message, rotation.owner_signature):
        raise RecoveryError(
            f"relation {name!r}: a logged rotation is not signed by the data "
            "owner — the log was tampered with",
            reason="forged-rotation",
        )
    if rotation.sequence == signed.version:
        router.restore_rotation(name, rotation)
