"""Manifest-id shard routing: one server fronting several relations.

A *shard* is one publisher — the chain scheme's
:class:`~repro.core.publisher.Publisher` or any registered scheme's
:class:`~repro.schemes.base.SchemePublisher` (the router is
scheme-polymorphic: it consumes only the shared
:class:`~repro.schemes.base.PublisherProtocol` surface, and each
hosted relation's manifest carries its scheme tag inside the bytes the
32-byte id commits to).  The router indexes every hosted relation by the
:func:`repro.wire.manifest_id` of its manifest and dispatches incoming
requests to the owning shard.  Addressing by manifest id rather than by name
means a client always talks about the exact signed artefact it verified the
manifest of — renaming or re-hosting a relation can never silently redirect
its queries, and re-publishing a relation under a different scheme changes
every id a client could pin.

Live updates rotate manifests: every applied delta batch bumps the relation's
manifest ``sequence`` and therefore its id.  The router keeps every
*superseded* id resolvable (an in-flight query against a just-rotated id is
answered under the new snapshot, whose id the response carries, so the client
detects the rotation), while owner updates must address the *current* id —
a delta batch against a superseded id is exactly a replayed or raced update
and is refused with a typed :class:`~repro.service.protocol.StaleManifestError`.

Each shard carries a lock; proof construction fills the relation's lazily
faulted columns and memos and updates mutate the chain itself, so the lock
makes every answer an atomic snapshot: concurrent queries see the relation
entirely before or entirely after a delta batch, never a mix.  The id index
has its own small lock — rotations of one shard must not block lookups for
another.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional, Tuple

from repro.cache import BoundedCache
from repro.core.relational import RelationManifest
from repro.db.query import JoinQuery
from repro.schemes.base import PublisherProtocol
from repro.service.protocol import (
    OwnerAuthError,
    ServiceError,
    StaleAnswerError,
    StaleManifestError,
)
from repro.wire import manifest_id
from repro.wire.updates import (
    FreshnessAttestation,
    ManifestRotated,
    attestation_signing_message,
)

__all__ = [
    "ShardTarget",
    "ShardRouter",
    "UnknownManifestError",
    "EvictedManifestError",
]

#: How many superseded manifest ids (and their manifests) are kept resolvable
#: per relation.  Bounds server memory under a long update stream; a client
#: pinned further back than this many rotations gets a typed
#: EvictedManifestError and must re-obtain a trust root out of band.
MAX_SUPERSEDED_PER_RELATION = 64

#: How many *evicted* superseded ids are still remembered (id only, no
#: manifest) per relation.  Costs 32 bytes + a name reference each, and turns
#: "I have never heard of this id" into the honest, actionable "this id
#: existed but rotated out of the served window" for clients that pinned an
#: id-only trust root long ago.  Beyond this window the router genuinely no
#: longer knows the id and answers unknown-manifest.
MAX_EVICTED_REMEMBERED = 1024

#: How many applied update batches the router remembers (frame digest ->
#: encoded UpdateResponse).  An owner that times out waiting for an ack and
#: resubmits the *identical* signed frame gets the original outcome back
#: instead of a stale-update error or a double apply; beyond this window a
#: resubmission falls through to the typed stale-update path, which is safe
#: (it is refused, never re-applied).
MAX_APPLIED_UPDATES_REMEMBERED = 256


class UnknownManifestError(ServiceError):
    """No hosted relation matches the requested manifest id or name."""


class EvictedManifestError(UnknownManifestError):
    """A manifest id that *did* exist but rotated out of the served window.

    Subclasses :class:`UnknownManifestError` so existing handling still
    treats it as a routing failure, but carries the machine-readable reason
    ``"superseded-evicted"``: the client's pinned id is not bogus, it is
    merely older than the :data:`MAX_SUPERSEDED_PER_RELATION` most recent
    rotations, and the fix is to re-obtain a trust root (a newer manifest or
    id) out of band rather than to suspect a mis-routed request.
    """

    reason = "superseded-evicted"


@dataclass(frozen=True)
class ShardTarget:
    """Where a manifest id lives: the shard, its publisher and hosting name."""

    shard_name: str
    relation_name: str
    publisher: PublisherProtocol
    lock: threading.Lock = field(compare=False)


class ShardRouter:
    """Routes manifest ids to the shard publisher hosting them."""

    def __init__(self, shards: Mapping[str, PublisherProtocol]) -> None:
        if not shards:
            raise ValueError("a shard router needs at least one shard")
        self.shards: Dict[str, PublisherProtocol] = dict(shards)
        self._index_lock = threading.Lock()
        self._by_id: Dict[bytes, ShardTarget] = {}
        self._by_name: Dict[str, ShardTarget] = {}
        self._current_ids: Dict[str, bytes] = {}
        # Superseded manifest id -> hosting name, so a client that pinned a
        # recent historical id gets an answer (carrying the current id)
        # instead of an unexplained unknown-manifest error.  Bounded per
        # relation by MAX_SUPERSEDED_PER_RELATION (oldest evicted first).
        self._superseded: Dict[bytes, str] = {}
        self._superseded_order: Dict[str, Deque[bytes]] = {}
        # Ids evicted from the superseded window: id -> hosting name, bounded
        # per relation by MAX_EVICTED_REMEMBERED.  Lets lookups answer the
        # typed EvictedManifestError instead of a generic unknown-manifest.
        self._evicted: Dict[bytes, str] = {}
        self._evicted_order: Dict[str, Deque[bytes]] = {}
        self._rotations: Dict[str, ManifestRotated] = {}
        # Hosting name -> the latest owner-signed freshness attestation; the
        # relation simply has none until the owner first pushes one.
        self._attestations: Dict[str, FreshnessAttestation] = {}
        # id -> the manifest that hashes to it (current and retained
        # superseded).  A manifest is self-authenticating relative to its id,
        # so serving historical manifests lets id-only-pinned clients
        # bootstrap their trust root after rotations.
        self._manifests_by_id: Dict[bytes, RelationManifest] = {}
        # Frame digest -> encoded UpdateResponse, for idempotent owner
        # resubmission (see remember_applied_update).  FIFO-bounded.
        self._applied_updates = BoundedCache(max_size=MAX_APPLIED_UPDATES_REMEMBERED)
        for shard_name, publisher in self.shards.items():
            lock = threading.Lock()
            for relation_name in publisher.database:
                signed = publisher.signed_relation(relation_name)
                target = ShardTarget(shard_name, relation_name, publisher, lock)
                identifier = manifest_id(signed.manifest)
                if relation_name in self._by_name:
                    raise ValueError(
                        f"relation name {relation_name!r} is hosted by both shard "
                        f"{self._by_name[relation_name].shard_name!r} and shard "
                        f"{shard_name!r}; hosting names must be unique"
                    )
                self._by_id[identifier] = target
                self._by_name[relation_name] = target
                self._current_ids[relation_name] = identifier
                self._manifests_by_id[identifier] = signed.manifest

    # -- lookups ------------------------------------------------------------

    def listing(self) -> Tuple[Tuple[str, bytes], ...]:
        """(hosting name, *current* manifest id) for every hosted relation."""
        with self._index_lock:
            return tuple(sorted(self._current_ids.items()))

    def manifest_by_name(self, relation_name: str) -> RelationManifest:
        target = self._by_name.get(relation_name)
        if target is None:
            raise UnknownManifestError(
                f"no hosted relation is named {relation_name!r}"
            )
        with target.lock:
            # Under the shard lock: a multi-delta batch bumps the version once
            # per delta, and a lock-free read could materialise a *mid-batch*
            # manifest whose id is never registered anywhere — a client
            # pinning it would be stranded.  The lock guarantees the manifest
            # returned is a registered (pre- or post-batch) state.
            return target.publisher.signed_relation(target.relation_name).manifest

    def manifest_by_id(self, identifier: bytes) -> RelationManifest:
        """The manifest hashing to ``identifier`` — current *or* superseded."""
        key = bytes(identifier)
        with self._index_lock:
            manifest = self._manifests_by_id.get(key)
            evicted_name = self._evicted.get(key) if manifest is None else None
        if manifest is None:
            if evicted_name is not None:
                raise EvictedManifestError(
                    f"manifest id {key.hex()[:16]}… of relation "
                    f"{evicted_name!r} rotated out of the served history "
                    f"window ({MAX_SUPERSEDED_PER_RELATION} rotations); "
                    "re-obtain a newer trust root"
                )
            raise UnknownManifestError(
                f"no hosted relation ever had manifest id {key.hex()[:16]}…"
            )
        return manifest

    def current_id(self, relation_name: str) -> bytes:
        """The current manifest id of one hosted relation."""
        with self._index_lock:
            identifier = self._current_ids.get(relation_name)
        if identifier is None:
            raise UnknownManifestError(
                f"no hosted relation is named {relation_name!r}"
            )
        return identifier

    def stamp(self, relation_name: str) -> Tuple[bytes, Optional[FreshnessAttestation]]:
        """What every answer over a relation ends with: its current manifest
        id and latest stored attestation, read in one index-lock section."""
        with self._index_lock:
            identifier = self._current_ids.get(relation_name)
            attestation = self._attestations.get(relation_name)
        if identifier is None:
            raise UnknownManifestError(
                f"no hosted relation is named {relation_name!r}"
            )
        return identifier, attestation

    def route(self, identifier: bytes) -> ShardTarget:
        """Resolve a manifest id — current or superseded — to its shard.

        Queries resolve superseded ids on purpose: the answer is built under
        the current snapshot and carries the current id, which is what tells
        the querying client to refresh its pinned manifest.
        """
        key = bytes(identifier)
        with self._index_lock:
            target = self._by_id.get(key)
            if target is None:
                name = self._superseded.get(key)
                if name is not None:
                    target = self._by_name.get(name)
            evicted_name = self._evicted.get(key) if target is None else None
        if target is None:
            if evicted_name is not None:
                raise EvictedManifestError(
                    f"manifest id {key.hex()[:16]}… of relation "
                    f"{evicted_name!r} rotated out of the served history "
                    "window; re-obtain a newer trust root"
                )
            raise UnknownManifestError(
                f"no hosted relation has manifest id {key.hex()[:16]}…"
            )
        return target

    def route_for_update(self, identifier: bytes) -> ShardTarget:
        """Resolve a manifest id for a mutation: *current* ids only.

        A superseded id here means the owner's delta batch was signed against
        a data version that no longer exists — a replayed capture, or a race
        with another update — and applying it would fork history, so it is
        refused with a typed error instead.
        """
        key = bytes(identifier)
        with self._index_lock:
            target = self._by_id.get(key)
            stale_name = self._superseded.get(key)
            evicted_name = self._evicted.get(key)
        if target is not None:
            return target
        if stale_name is not None:
            raise StaleManifestError(
                f"manifest id {key.hex()[:16]}… of relation {stale_name!r} was "
                "superseded by a rotation; re-fetch the manifest and re-sign "
                "the update",
                reason="stale-update",
            )
        if evicted_name is not None:
            raise EvictedManifestError(
                f"manifest id {key.hex()[:16]}… of relation {evicted_name!r} "
                "rotated out of the served history window; re-fetch the "
                "manifest and re-sign the update"
            )
        raise UnknownManifestError(
            f"no hosted relation has manifest id {key.hex()[:16]}…"
        )

    # -- rotation ------------------------------------------------------------

    def rotation(self, relation_name: str) -> ManifestRotated:
        """The latest owner-signed rotation of ``relation_name``.

        For a relation that never rotated this is the *genesis* rotation — an
        owner signature over the initial manifest with an empty previous id —
        built lazily and cached.
        """
        target = self._by_name.get(relation_name)
        if target is None:
            raise UnknownManifestError(
                f"no hosted relation is named {relation_name!r}"
            )
        with target.lock:
            rotation = self._rotations.get(relation_name)
            if rotation is None:
                signed = target.publisher.signed_relation(target.relation_name)
                rotation = ManifestRotated(
                    manifest=signed.manifest,
                    previous_id=b"",
                    owner_signature=signed.sign_rotation(b""),
                )
                self._rotations[relation_name] = rotation
            return rotation

    def record_rotation(self, target: ShardTarget) -> ManifestRotated:
        """Re-index a relation after a mutation; returns the rotation artifact.

        Must be called with ``target.lock`` held, immediately after the
        mutation: the old id is marked superseded, the new id becomes current,
        and the owner signature over (old id, new manifest) is produced so
        clients can authenticate the rotation.
        """
        name = target.relation_name
        signed = target.publisher.signed_relation(name)
        new_manifest = signed.manifest
        new_id = manifest_id(new_manifest)
        with self._index_lock:
            old_id = self._current_ids[name]
            # Every applied batch carries >= 1 delta and the sequence is part
            # of the manifest encoding, so the id necessarily changed.
            assert old_id != new_id, "record_rotation called without a mutation"
            self._superseded[old_id] = name
            self._by_id[new_id] = target
            del self._by_id[old_id]
            self._current_ids[name] = new_id
            self._manifests_by_id[new_id] = new_manifest
            order = self._superseded_order.setdefault(name, deque())
            order.append(old_id)
            while len(order) > MAX_SUPERSEDED_PER_RELATION:
                evicted = order.popleft()
                self._superseded.pop(evicted, None)
                self._manifests_by_id.pop(evicted, None)
                # Remember the evicted id (32 bytes, no manifest) so lookups
                # can answer the typed superseded-evicted error instead of
                # claiming the id never existed.
                self._evicted[evicted] = name
                evicted_order = self._evicted_order.setdefault(name, deque())
                evicted_order.append(evicted)
                while len(evicted_order) > MAX_EVICTED_REMEMBERED:
                    self._evicted.pop(evicted_order.popleft(), None)
            attestation = self._attestations.get(name)
        rotation = ManifestRotated(
            manifest=new_manifest,
            previous_id=old_id,
            owner_signature=signed.sign_rotation(old_id),
        )
        self._rotations[name] = rotation
        if attestation is not None:
            # Re-bind the in-force attestation to the rotated manifest so the
            # freshness chain survives updates without an owner round trip.
            # Epoch and the validity window are carried over verbatim — the
            # publisher can keep freshness *continuous* across rotations it
            # was authorized to apply (the owner signed the update), but can
            # never extend the owner-granted window.  FDH-RSA signing is
            # deterministic, so WAL replay re-derives re-stamps byte-for-byte.
            restamped = FreshnessAttestation(
                manifest_id=new_id,
                sequence=new_manifest.sequence,
                epoch=attestation.epoch,
                issued_at_ms=attestation.issued_at_ms,
                not_after_ms=attestation.not_after_ms,
                owner_signature=signed.signature_scheme.sign(
                    attestation_signing_message(
                        new_id,
                        new_manifest.sequence,
                        attestation.epoch,
                        attestation.issued_at_ms,
                        attestation.not_after_ms,
                    )
                ),
            )
            with self._index_lock:
                self._attestations[name] = restamped
        return rotation

    def restore_rotation(self, relation_name: str, rotation: ManifestRotated) -> None:
        """Seed the latest rotation of a *recovered* relation.

        Recovery rebuilds publications from checkpoints, so a relation's
        publisher state is current — but the lazily built genesis rotation in
        :meth:`rotation` would carry an empty previous id where the real
        history has one.  Storage replay calls this with the owner-signed
        rotation it loaded (checkpoint) or verified (WAL) so rotation answers
        resume exactly where they left off.  The rotation must describe the
        relation's *current* manifest.
        """
        target = self._by_name.get(relation_name)
        if target is None:
            raise UnknownManifestError(
                f"no hosted relation is named {relation_name!r}"
            )
        with target.lock:
            signed = target.publisher.signed_relation(target.relation_name)
            if manifest_id(rotation.manifest) != manifest_id(signed.manifest):
                raise ServiceError(
                    f"restored rotation for {relation_name!r} does not describe "
                    "the relation's current manifest"
                )
            self._rotations[relation_name] = rotation

    # -- freshness attestations ----------------------------------------------

    def attestation_for(self, relation_name: str) -> Optional[FreshnessAttestation]:
        """The latest stored attestation of a relation, or ``None``."""
        with self._index_lock:
            return self._attestations.get(relation_name)

    def attestation_state(self, relation_name: str) -> Optional[Tuple[int, int]]:
        """The stored attestation's ``(sequence, epoch)``, or ``None``.

        Freshness advances lexicographically over this pair: recovery and
        the replication feed compare it to tell which side is ahead.
        """
        with self._index_lock:
            attestation = self._attestations.get(relation_name)
        if attestation is None:
            return None
        return (attestation.sequence, attestation.epoch)

    def _validate_attestation(
        self, target: ShardTarget, attestation: FreshnessAttestation
    ) -> None:
        """Check an attestation against the relation's *current* state.

        Must be called with ``target.lock`` held.  Verifies that the
        attestation addresses the current manifest id and sequence and that
        the owner signature holds under the relation's pinned key.  No clock
        is consulted — expiry is the *client's* judgement; the server's job is
        only to never serve a claim the owner key did not make.
        """
        name = target.relation_name
        signed = target.publisher.signed_relation(name)
        current = manifest_id(signed.manifest)
        if bytes(attestation.manifest_id) != current:
            raise StaleManifestError(
                f"attestation for {name!r} addresses manifest id "
                f"{bytes(attestation.manifest_id).hex()[:16]}…, but the current "
                f"id is {current.hex()[:16]}…; re-fetch the manifest and "
                "re-attest",
                reason="stale-attestation",
            )
        if attestation.sequence != signed.manifest.sequence:
            raise StaleManifestError(
                f"attestation for {name!r} claims sequence "
                f"{attestation.sequence}, but the current manifest is at "
                f"sequence {signed.manifest.sequence}",
                reason="stale-attestation",
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
            raise OwnerAuthError(
                f"attestation for {name!r} is not signed by the relation's "
                "owner key",
                reason="bad-attestation-signature",
            )

    def store_attestation(
        self, target: ShardTarget, attestation: FreshnessAttestation
    ) -> bool:
        """Validate and store an owner-pushed attestation; ``True`` if stored.

        Must be called with ``target.lock`` held.  Returns ``False`` for a
        byte-identical re-push (an owner retrying an unacked push) — already
        stored, nothing to log.  A push that does not strictly
        advance the stored ``(sequence, epoch)`` order is refused with a
        typed :class:`StaleAnswerError` so a captured old attestation can
        never roll freshness back.
        """
        self._validate_attestation(target, attestation)
        name = target.relation_name
        with self._index_lock:
            stored = self._attestations.get(name)
            if stored is not None:
                if stored == attestation:
                    return False
                new_key = (attestation.sequence, attestation.epoch)
                old_key = (stored.sequence, stored.epoch)
                if new_key <= old_key:
                    raise StaleAnswerError(
                        f"attestation for {name!r} at (sequence, epoch) "
                        f"{new_key} does not advance the stored {old_key}",
                        reason="attestation-regressed",
                    )
            self._attestations[name] = attestation
        return True

    def restore_attestation(
        self, relation_name: str, attestation: FreshnessAttestation
    ) -> None:
        """Seed the attestation of a *recovered* relation.

        Like :meth:`restore_rotation`: recovery calls this with the
        attestation it loaded from durable state (or replayed from the WAL),
        after the publisher was rebuilt, so the attestation must describe the
        relation's current manifest and verify under the owner key.
        """
        target = self._by_name.get(relation_name)
        if target is None:
            raise UnknownManifestError(
                f"no hosted relation is named {relation_name!r}"
            )
        with target.lock:
            self._validate_attestation(target, attestation)
            with self._index_lock:
                self._attestations[relation_name] = attestation

    # -- idempotent owner resubmission ---------------------------------------

    @staticmethod
    def _update_frame_key(frame: bytes) -> bytes:
        return hashlib.sha256(frame).digest()

    def remember_applied_update(self, frame: bytes, response_payload: bytes) -> None:
        """Record the outcome of an applied update frame (by frame digest).

        ``frame`` is the canonical encoded ``UpdateRequest`` exactly as it
        arrived (and as it was WAL-logged); ``response_payload`` the encoded
        ``UpdateResponse`` it produced.  Both the live apply path and WAL
        replay call this, so resubmitting a batch that was applied just
        before a crash still returns the original, byte-identical outcome.
        """
        self._applied_updates.put(
            self._update_frame_key(frame), bytes(response_payload)
        )

    def replayed_update_response(self, frame: bytes) -> Optional[bytes]:
        """The remembered outcome of ``frame``, or ``None`` if never applied
        (or evicted from the bounded window)."""
        return self._applied_updates.get(self._update_frame_key(frame))

    def route_join(
        self, left_id: bytes, right_id: bytes, join: JoinQuery
    ) -> ShardTarget:
        """Resolve a join: both sides must live on the same shard.

        Cross-shard joins would need a distributed proof plan; the router
        rejects them explicitly instead of producing an unverifiable answer.
        """
        left = self.route(left_id)
        right = self.route(right_id)
        if left.publisher is not right.publisher:
            raise ServiceError(
                f"join spans shards {left.shard_name!r} and {right.shard_name!r}; "
                "both relations must be hosted by one shard"
            )
        if left.relation_name != join.left_relation:
            raise ServiceError(
                f"left manifest id resolves to {left.relation_name!r}, but the "
                f"join names {join.left_relation!r}"
            )
        if right.relation_name != join.right_relation:
            raise ServiceError(
                f"right manifest id resolves to {right.relation_name!r}, but the "
                f"join names {join.right_relation!r}"
            )
        return left
