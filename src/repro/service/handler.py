"""Request handling for the event-loop server and the replication follower.

A :class:`RequestHandler` owns everything about turning one decoded request
into one response — routing, locking, proof construction, owner-update
authentication — with no knowledge of sockets.  The
:class:`~repro.service.server.PublicationServer` event loop calls it inline,
and a replica's :class:`~repro.service.replication.ReplicationFollower`
applies the primary's owner-signed frames through the same pipeline.

The handler also maintains the **encoded-response cache**: for query and join
frames, the canonical wire bytes of the *request* key the canonical wire
bytes of the *response*.  The wire format is canonical (one byte string per
artifact), so two clients asking the same hot question hit the same slot; a
cached response is only served while the manifest ids it was built under are
still current, so a manifest rotation invalidates every response built before
it without any bookkeeping on the update path — the server's one invalidation
rule.  A request frame embeds the manifest id, so what a rotation stales can
never be asked for again: each insert first drops such entries from the
cache's old end.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Optional, Tuple

from repro.cache import BoundedCache
from repro.core.errors import ReproError
from repro.core.publisher import plan_deltas, simulate_deltas
from repro.service.protocol import (
    AttestationAck,
    AttestationPush,
    AttestationRequest,
    ErrorResponse,
    JoinRequest,
    JoinResponse,
    ListRelationsRequest,
    ManifestByIdRequest,
    ManifestRequest,
    ManifestResponse,
    OwnerAuthError,
    QueryRequest,
    QueryResponse,
    RelationListing,
    ReplicaFramesRequest,
    ReplicaSnapshotRequest,
    ReplicationStatusRequest,
    RotationRequest,
    ServiceProtocolError,
    StaleAnswerError,
    StaleManifestError,
)
from repro.service.router import ShardRouter
from repro.wire import decode, encode
from repro.wire.errors import WireFormatError
from repro.wire.updates import (
    FreshnessAttestation,
    UpdateRequest,
    UpdateResponse,
    update_signing_message,
)

__all__ = ["RequestHandler", "HandledFrame"]

#: Bounds on the encoded-response cache (FIFO; see RequestHandler):
#: entry count and, because encoded responses vary from a few hundred bytes
#: to hundreds of kilobytes, an accumulated-bytes ceiling so the cache is an
#: actual memory bound.
_RESPONSE_CACHE_MAX = 4096
_RESPONSE_CACHE_MAX_BYTES = 64 * 1024 * 1024


class HandledFrame:
    """The outcome of serving one frame: payload plus connection policy."""

    __slots__ = ("payload", "is_error", "close_after")

    def __init__(
        self, payload: bytes, is_error: bool = False, close_after: bool = False
    ) -> None:
        self.payload = payload
        self.is_error = is_error
        self.close_after = close_after


class RequestHandler:
    """Serves decoded protocol requests against a shard router."""

    def __init__(
        self,
        router: ShardRouter,
        response_cache: bool = True,
        storage=None,
        faults=None,
        read_only: bool = False,
        serve_replication: bool = False,
    ) -> None:
        self.router = router
        self._response_cache: Optional[BoundedCache] = (
            BoundedCache(_RESPONSE_CACHE_MAX, max_weight=_RESPONSE_CACHE_MAX_BYTES)
            if response_cache
            else None
        )
        #: Optional :class:`~repro.storage.store.PublicationStorage`: when
        #: set, every accepted update batch is WAL-logged (and fsynced per
        #: the storage's policy) *before* it is applied or acknowledged.
        self.storage = storage
        #: Optional failpoint registry (crash testing); see
        #: :mod:`repro.storage.faults`.
        self.faults = faults
        #: Read replicas refuse direct mutations; their state advances only
        #: through :meth:`apply_replicated_frame` (the replication follower).
        self.read_only = read_only
        #: Serving the replication feed (WAL frames, storage snapshots) is
        #: an explicit opt-in; see ServerConfig.serve_replication.
        self.serve_replication = serve_replication
        self.updates_applied = 0

    # -- frame-level entry point --------------------------------------------

    def handle_frame(self, frame: bytes) -> HandledFrame:
        """Serve one raw frame payload; never raises.

        Every failure is answered with a typed
        :class:`~repro.service.protocol.ErrorResponse`; a frame that does not
        even decode additionally asks the caller to drop the connection
        (after a framing violation the peer's stream offset cannot be
        trusted).
        """
        cache = self._response_cache
        if cache is not None:
            cached = cache.get(frame)
            if cached is not None:
                payload, guards = cached
                if self._guards_current(guards):
                    return HandledFrame(payload)
        try:
            request = decode(frame)
        except (WireFormatError, ServiceProtocolError) as error:
            return HandledFrame(self._error_payload(error), True, close_after=True)
        if self.read_only and isinstance(request, (UpdateRequest, AttestationPush)):
            # A replica's state advances only through the replication
            # follower; a direct mutation here would fork it from the
            # primary's owner-signed history.
            return HandledFrame(
                encode(
                    ErrorResponse(
                        code="ReadOnlyReplica",
                        reason="read-only-replica",
                        message=(
                            "this server is a read replica; send updates and "
                            "attestations to the primary"
                        ),
                    )
                ),
                True,
            )
        if isinstance(request, UpdateRequest):
            # Idempotent resubmission: a batch this router already applied
            # (same canonical frame bytes — the owner signature covers them)
            # is answered with its original outcome, never applied twice.
            replayed = self.router.replayed_update_response(frame)
            if replayed is not None:
                return HandledFrame(replayed)
        try:
            response = self.dispatch(request, frame=frame)
        except ReproError as error:
            return HandledFrame(self._error_payload(error), True)
        except Exception as error:  # noqa: BLE001 - never leak a traceback
            return HandledFrame(
                self._error_payload(error, code="InternalError", reason="internal-error"),
                True,
            )
        payload = encode(response)
        if cache is not None:
            guards = self._guards_for(request, response)
            if guards is not None:
                cache.evict_while(lambda entry: not self._guards_current(entry[1]))
                cache.put(frame, (payload, guards), weight=len(payload) + len(frame))
        if isinstance(request, UpdateRequest):
            # The durable twin of this registry entry (if storage is
            # attached) was already written inside the apply's atomic store transaction —
            # see _answer_update; the wire encoding is canonical, so the
            # payload persisted there is byte-identical to this one.
            self.router.remember_applied_update(frame, payload)
        return HandledFrame(payload)

    def _error_payload(
        self,
        error: Exception,
        code: Optional[str] = None,
        reason: Optional[str] = None,
    ) -> bytes:
        return encode(
            ErrorResponse(
                code=code or type(error).__name__,
                reason=reason or getattr(error, "reason", "error"),
                message=str(error),
            )
        )

    # -- response cache -----------------------------------------------------

    @staticmethod
    def _attestation_key(
        attestation: Optional[FreshnessAttestation],
    ) -> Optional[Tuple[int, int]]:
        return (
            None
            if attestation is None
            else (attestation.sequence, attestation.epoch)
        )

    def _guards_for(self, request, response) -> Optional[Tuple[tuple, ...]]:
        """The (relation, manifest id, attestation state) triples a cached
        response depends on.

        Only query/join answers are cached: they are the hot path, they are
        deterministic for a given snapshot, and their staleness is exactly
        "the manifest id (or freshness attestation) the answer was stamped
        with is no longer current".  The attestation state is part of the
        guard because an owner epoch refresh changes the stamp without
        rotating the manifest — a cached pre-refresh answer must not keep
        serving the older attestation.
        """
        if isinstance(request, QueryRequest) and isinstance(response, QueryResponse):
            return (
                (
                    request.query.relation_name,
                    response.manifest_id,
                    self._attestation_key(response.attestation),
                ),
            )
        if isinstance(request, JoinRequest) and isinstance(response, JoinResponse):
            return (
                (
                    request.join.left_relation,
                    response.left_manifest_id,
                    self._attestation_key(response.left_attestation),
                ),
                (
                    request.join.right_relation,
                    response.right_manifest_id,
                    self._attestation_key(response.right_attestation),
                ),
            )
        return None

    def _guards_current(self, guards: Tuple[tuple, ...]) -> bool:
        router = self.router
        try:
            return all(
                router.current_id(name) == identifier
                and router.attestation_state(name) == attestation_key
                for name, identifier, attestation_key in guards
            )
        except ReproError:
            return False

    def cache_stats(self) -> Dict[str, object]:
        """Counters of the encoded-response cache (empty dict when disabled)."""
        if self._response_cache is None:
            return {}
        return {"responses": self._response_cache.stats()}

    # -- request dispatch ---------------------------------------------------

    def dispatch(self, request, frame: Optional[bytes] = None):
        if isinstance(request, QueryRequest):
            return self._answer_query(request)
        if isinstance(request, JoinRequest):
            return self._answer_join(request)
        if isinstance(request, ListRelationsRequest):
            return RelationListing(entries=self.router.listing())
        if isinstance(request, ManifestRequest):
            return ManifestResponse(
                manifest=self.router.manifest_by_name(request.relation_name)
            )
        if isinstance(request, ManifestByIdRequest):
            return ManifestResponse(
                manifest=self.router.manifest_by_id(request.manifest_id)
            )
        if isinstance(request, UpdateRequest):
            return self._answer_update(request, frame=frame)
        if isinstance(request, RotationRequest):
            return self.router.rotation(request.relation_name)
        if isinstance(request, AttestationPush):
            return self._answer_attestation_push(request)
        if isinstance(request, AttestationRequest):
            attestation = self.router.attestation_for(request.relation_name)
            if attestation is None:
                # Raises the typed unknown-manifest error for a bogus name;
                # a known relation the owner never attested gets the typed
                # freshness miss instead.
                self.router.current_id(request.relation_name)
                raise StaleAnswerError(
                    f"relation {request.relation_name!r} has no stored "
                    "freshness attestation",
                    reason="no-attestation",
                )
            return attestation
        if isinstance(request, ReplicationStatusRequest):
            from repro.service.replication import answer_replication_status

            return answer_replication_status(self.router, request)
        if isinstance(request, ReplicaFramesRequest):
            self._require_replication_serving()
            from repro.service.replication import answer_replica_frames

            return answer_replica_frames(self.router, self.storage, request)
        if isinstance(request, ReplicaSnapshotRequest):
            self._require_replication_serving()
            from repro.service.replication import answer_replica_snapshot

            return answer_replica_snapshot(self.router, self.storage)
        raise ServiceProtocolError(
            f"{type(request).__name__} is not a request message"
        )

    def _require_replication_serving(self) -> None:
        """Refuse replication-feed requests unless the operator opted in.

        The snapshot is the entire storage root and the frame feed is every
        relation's full update history; neither passes through the per-query
        controls, so serving them must be a deliberate
        ``ServerConfig(serve_replication=True)`` decision — never something
        any unauthenticated peer can trigger on any server.
        """
        if not self.serve_replication:
            from repro.service.replication import ReplicationError

            raise ReplicationError(
                "this server does not serve the replication feed; start the "
                "primary with ServerConfig(serve_replication=True) (or "
                "--serve-replication) to opt in",
                reason="replication-disabled",
            )

    def _answer_query(self, request: QueryRequest) -> QueryResponse:
        target = self.router.route(request.manifest_id)
        if request.query.relation_name != target.relation_name:
            raise ServiceProtocolError(
                f"manifest id resolves to {target.relation_name!r}, but the "
                f"query names {request.query.relation_name!r}"
            )
        with target.lock:
            # The answer and the id it was built under are captured inside
            # one lock section: an update rotating this relation either
            # happened entirely before (new rows, new id) or entirely after
            # (old rows, old id) — a client can attribute every answer to
            # exactly one snapshot.
            result = target.publisher.answer(request.query, role=request.role)
            current_id = self.router.current_id(target.relation_name)
            attestation = self.router.attestation_for(target.relation_name)
        return QueryResponse(
            rows=tuple(dict(row) for row in result.rows),
            proof=result.proof,
            manifest_id=current_id,
            attestation=attestation,
        )

    def _answer_join(self, request: JoinRequest) -> JoinResponse:
        target = self.router.route_join(
            request.left_manifest_id, request.right_manifest_id, request.join
        )
        with target.lock:
            result = target.publisher.answer_join(request.join, role=request.role)
            left_id = self.router.current_id(request.join.left_relation)
            right_id = self.router.current_id(request.join.right_relation)
            left_attestation = self.router.attestation_for(request.join.left_relation)
            right_attestation = self.router.attestation_for(request.join.right_relation)
        return JoinResponse(
            rows=tuple(dict(row) for row in result.rows),
            left_rows=tuple(dict(row) for row in result.left_rows),
            proof=result.proof,
            left_manifest_id=left_id,
            right_manifest_id=right_id,
            left_attestation=left_attestation,
            right_attestation=right_attestation,
        )

    def _answer_update(
        self, request: UpdateRequest, frame: Optional[bytes] = None
    ) -> UpdateResponse:
        """Verify, log, apply and acknowledge one owner delta batch.

        The whole pipeline — signature check, sequence check, WAL append,
        application, manifest rotation — runs under the shard's write lock,
        so every concurrent query on this shard sees the relation entirely
        before or entirely after the batch.

        With durable storage attached the ordering is write-ahead: the batch
        is *pre-simulated* (a frame that cannot apply is refused before it is
        logged — a logged frame must always replay), then the owner-signed
        frame is appended and fsynced per the storage policy, and only then
        applied.  Under ``fsync="always"``, by the time the owner sees the
        acknowledgement the mutation is on disk: a crash at any point either
        loses an *unacknowledged* batch (the owner retries) or recovers an
        acknowledged one.
        """
        target = self.router.route_for_update(request.manifest_id)
        storage = self.storage
        with target.lock:
            signed = target.publisher.signed_relation(target.relation_name)
            if request.sequence != signed.version:
                raise StaleManifestError(
                    f"update signed for sequence {request.sequence}, but "
                    f"relation {target.relation_name!r} is at sequence "
                    f"{signed.version}",
                    reason="stale-update",
                )
            message = update_signing_message(
                request.manifest_id, request.sequence, request.deltas
            )
            if not signed.manifest.public_key.verify(
                message, request.owner_signature
            ):
                raise OwnerAuthError(
                    f"update for {target.relation_name!r} is not signed by "
                    "the data owner"
                )
            if frame is None:
                frame = encode(request)
            if storage is not None:
                plan = plan_deltas(signed.schema, request.deltas)
                simulate_deltas(signed.relation, plan)
                storage.log_update(target, frame)
            # One atomic store transaction for the whole applied update:
            # batch rows, rotation chain state and the durable original-ack
            # either all commit or all roll back (see applied_update_scope).
            outer_scope = (
                storage.applied_update_scope(target)
                if storage is not None
                else nullcontext()
            )
            with outer_scope:
                batch_scope = (
                    storage.update_batch(target)
                    if storage is not None
                    else nullcontext()
                )
                with batch_scope:
                    receipt = target.publisher.apply_deltas(
                        target.relation_name, request.deltas
                    )
                rotation = self.router.record_rotation(target)
                response = UpdateResponse(receipt=receipt, rotation=rotation)
                if storage is not None:
                    # The rotation re-stamped the relation's freshness
                    # attestation (if one is in force); persist them together
                    # so recovery resumes the freshness chain.
                    attestation = self.router.attestation_for(
                        target.relation_name
                    )
                    storage.log_rotation(target, rotation, attestation)
                    storage.remember_applied_response(
                        target.relation_name,
                        request.sequence,
                        frame,
                        encode(response),
                    )
            if storage is not None:
                storage.maybe_checkpoint(target, rotation, attestation)
        self.updates_applied += 1
        if self.faults is not None:
            # "update-after-apply": the batch is applied and durable, but the
            # acknowledgement never reaches the owner.
            self.faults.hit("update-after-apply")
        return response

    def apply_replicated_frame(self, frame: bytes):
        """Apply one replicated owner frame through the live verified path.

        The replication follower's entry point: the exact pipeline
        :meth:`handle_frame` runs for a primary's owner traffic — signature
        verification, WAL logging, delta application, rotation — but with the
        read-only refusal bypassed (the follower *is* the replica's one
        writer) and without touching the encoded-response cache, which has no
        internal lock and belongs to the event-loop thread.  Raises the same
        typed errors the primary would have raised; an already-applied frame
        returns its original outcome via the applied-update registry.
        """
        request = decode(frame)
        if isinstance(request, UpdateRequest):
            replayed = self.router.replayed_update_response(frame)
            if replayed is not None:
                return decode(replayed)
            response = self._answer_update(request, frame=frame)
            self.router.remember_applied_update(frame, encode(response))
            return response
        if isinstance(request, AttestationPush):
            return self._answer_attestation_push(request)
        raise ServiceProtocolError(
            f"{type(request).__name__} is not a replicable frame"
        )

    def _answer_attestation_push(self, request: AttestationPush) -> AttestationAck:
        """Validate, store and durably log one owner freshness attestation.

        A byte-identical re-push is acknowledged without logging anything.  The
        acknowledgement is only produced after the WAL append returns, so an
        acked attestation survives a crash (same durable-before-ack contract
        as updates); the re-stamped attestations produced by rotations are
        *derived* state and deliberately not logged — deterministic signing
        re-derives them byte-identically during replay.
        """
        attestation = request.attestation
        target = self.router.route(attestation.manifest_id)
        storage = self.storage
        with target.lock:
            applied = self.router.store_attestation(target, attestation)
            if applied and storage is not None:
                storage.log_attestation(target, attestation)
        return AttestationAck(
            relation_name=target.relation_name,
            sequence=attestation.sequence,
            epoch=attestation.epoch,
        )
