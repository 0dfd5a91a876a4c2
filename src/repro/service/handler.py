"""Request handling for the event-loop server and the replication follower.

A :class:`RequestHandler` owns everything about turning one decoded request
into one response — routing, locking, proof construction, owner-update
authentication — with no knowledge of sockets.  The
:class:`~repro.service.server.PublicationServer` event loop calls it inline,
and a replica's :class:`~repro.service.replication.ReplicationFollower`
applies the primary's owner-signed frames through the same pipeline.

The handler also maintains the **encoded-response cache**, keyed on what a
query or join frame *asks* — its canonical bytes with the manifest id(s) cut
out — so a hot answer outlives the rotations that do not concern it.  An
entry holds the encoded ``rows | proof`` prefix of the response and the key
interval of the chain window the answer read; every applied update logs the
sort keys it touched, and an entry is served while no update since its last
check touched a key inside its interval (Section 6.3's update locality: a
mutation re-signs its neighbours and nothing else).  The tail — current
manifest id and attestation — is taken under the shard lock at serve time and
spliced on, so every payload is byte-identical to what a cache-less handler
builds at that instant.  An answer that reports no window (a vacuous range)
and both sides of a join are guarded by the whole key domain.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.cache import BoundedCache
from repro.core.errors import ReproError
from repro.core.publisher import Publisher, plan_deltas, simulate_deltas
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
from repro.wire.codec import cut_leading_bytes, encode_tail, frame_header
from repro.wire.errors import WireFormatError
from repro.wire.updates import (
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

#: Applied batches each relation's touched-key log remembers; a cached answer
#: not asked for within this many updates is rebuilt.
_TOUCHED_LOG_MAX = 256
#: Cacheable request frames: header -> how many manifest-id fields lead the body.
_ID_FIELDS = {frame_header(QueryRequest): 1, frame_header(JoinRequest): 2}
#: Per response type, the first field of the uncached tail (ids, attestations).
_TAIL_FROM = {QueryResponse: "manifest_id", JoinResponse: "left_manifest_id"}


@dataclass
class _Window:
    """A cached answer's dependence on one relation: the closed sort-key
    interval ``[low, high]`` of the chain entries it read, untouched by every
    update up to relation sequence ``checked``."""

    publisher: Publisher
    relation: str
    low: int
    high: int
    checked: int


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
        #: Relation -> (sequence before, sequence after, sort keys touched) of
        #: its latest applied batches.  Written by whichever thread applies an
        #: update, read by the event loop; both hold the shard lock.
        self._touched: Dict[str, Deque[Tuple[int, int, frozenset]]] = {
            name: deque(maxlen=_TOUCHED_LOG_MAX) for name, _ in router.listing()
        }
        #: Relation names -> (their (id, attestation) stamps, the encoded response tail).
        self._tails: Dict[Tuple[str, ...], Tuple[tuple, bytes]] = {}
        self.window_invalidations = self.log_overruns = 0

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
        key = None
        id_fields = _ID_FIELDS.get(frame[:4]) if cache is not None else None
        cut = cut_leading_bytes(frame, id_fields) if id_fields else None
        if cut is not None:
            payload, key = self._serve_cached(*cut)
            if payload is not None:
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
        guards = None
        try:
            if isinstance(request, QueryRequest):
                response, guards = self._answer_query(request)
            elif isinstance(request, JoinRequest):
                response, guards = self._answer_join(request)
            else:
                response = self.dispatch(request, frame=frame)
        except ReproError as error:
            return HandledFrame(self._error_payload(error), True)
        except Exception as error:  # noqa: BLE001 - never leak a traceback
            return HandledFrame(
                self._error_payload(error, code="InternalError", reason="internal-error"),
                True,
            )
        payload = encode(response)
        if key is not None and guards is not None:
            tail = encode_tail(response, _TAIL_FROM[type(response)])
            cache.put(
                key,
                (payload[: len(payload) - len(tail)], guards),
                weight=len(payload) + len(key[0]),
            )
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

    def _serve_cached(
        self, ids: Tuple[bytes, ...], identity: bytes
    ) -> Tuple[Optional[bytes], Optional[tuple]]:
        """``(payload, key)`` for a read frame cut into its ids and the rest.

        The payload is the cached answer if still exact, else ``None`` and the
        rebuilt answer goes under ``key``.  The ids are resolved on every call:
        one the router refuses gets no key (the uncached path answers the
        typed error), and the names they resolve to are part of the key, so
        another relation's id never meets this question's entry.
        """
        try:
            targets = [self.router.route(identifier) for identifier in ids]
        except ReproError:
            return None, None
        names = tuple(target.relation_name for target in targets)
        key = (identity, names)
        cache = self._response_cache
        entry = cache.get(key)
        if entry is None:
            return None, key
        prefix, guards = entry
        # Guard check and tail in one lock section, as on the uncached path:
        # the bytes served belong to exactly one snapshot.  (A cached join
        # passed route_join, so both its sides share this lock.)
        with targets[0].lock:
            if all(map(self._window_untouched, guards)):
                return prefix + self._tail(names), key
        cache.hits -= 1  # found but stale: a miss to whoever asked
        cache.misses += 1
        return None, key

    def _window_untouched(self, guard: _Window) -> bool:
        """Whether no update since ``guard.checked`` touched a key in its window.

        Walks the touched-key log from its newest record back to the guard's
        sequence; on success the guard advances, so the next probe reads only
        what is new.  A log that no longer reaches that far proves nothing.
        """
        version = guard.publisher.signed_relation(guard.relation).version
        if version == guard.checked:
            return True
        expected = version
        for before, after, keys in reversed(self._touched[guard.relation]):
            if expected <= guard.checked or after != expected:
                break
            if any(guard.low <= key <= guard.high for key in keys):
                self.window_invalidations += 1
                return False
            expected = before
        if expected != guard.checked:
            self.log_overruns += 1
            return False
        guard.checked = version
        return True

    def _tail(self, names: Tuple[str, ...]) -> bytes:
        """The encoded current ids and attestations of ``names``: what a
        response ends with.  Encoded once per rotation or attestation push."""
        stamps = tuple(map(self.router.stamp, names))
        memo = self._tails.get(names)
        if memo is None or memo[0] != stamps:
            ids, attestations = zip(*stamps)
            shape = (
                QueryResponse((), None, *ids, *attestations)
                if len(names) == 1
                else JoinResponse((), (), None, *ids, *attestations)
            )
            memo = self._tails[names] = (stamps, encode_tail(shape, _TAIL_FROM[type(shape)]))
        return memo[1]

    @staticmethod
    def _guard(target, name: str, window: Optional[Tuple[int, int]] = None) -> _Window:
        """The guard of an answer just built over ``name`` (lock held); with
        no chain window it spans the key domain: any update invalidates it."""
        signed = target.publisher.signed_relation(name)
        low, high = window or (signed.domain.lower, signed.domain.upper)
        return _Window(target.publisher, name, low, high, signed.version)

    def cache_stats(self) -> Dict[str, object]:
        """Counters of the encoded-response cache (empty dict when disabled)."""
        if self._response_cache is None:
            return {}
        stats = self._response_cache.stats()
        stats["window_invalidations"] = self.window_invalidations
        stats["log_overruns"] = self.log_overruns
        return {"responses": stats}

    # -- request dispatch ---------------------------------------------------

    def dispatch(self, request, frame: Optional[bytes] = None):
        """Answer any request but the two cacheable reads (see handle_frame)."""
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

    def _answer_query(self, request: QueryRequest) -> Tuple[QueryResponse, tuple]:
        """The answer, and the guards under which it may be served again."""
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
            current_id, attestation = self.router.stamp(target.relation_name)
            guards = (self._guard(target, target.relation_name, result.window),)
        response = QueryResponse(
            rows=tuple(dict(row) for row in result.rows),
            proof=result.proof,
            manifest_id=current_id,
            attestation=attestation,
        )
        return response, guards

    def _answer_join(self, request: JoinRequest) -> Tuple[JoinResponse, tuple]:
        target = self.router.route_join(
            request.left_manifest_id, request.right_manifest_id, request.join
        )
        with target.lock:
            result = target.publisher.answer_join(request.join, role=request.role)
            left_id, left_attestation = self.router.stamp(request.join.left_relation)
            right_id, right_attestation = self.router.stamp(request.join.right_relation)
            # One window per point proof would cost more than it saves:
            # both sides are guarded by their whole key domain.
            guards = (
                self._guard(target, request.join.left_relation),
                self._guard(target, request.join.right_relation),
            )
        response = JoinResponse(
            rows=tuple(dict(row) for row in result.rows),
            left_rows=tuple(dict(row) for row in result.left_rows),
            proof=result.proof,
            left_manifest_id=left_id,
            right_manifest_id=right_id,
            left_attestation=left_attestation,
            right_attestation=right_attestation,
        )
        return response, guards

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
                touched = frozenset(
                    values[signed.schema.key]
                    for delta in request.deltas
                    for values in (delta.values, delta.old_values)
                    if values is not None
                )
                self._touched[target.relation_name].append(
                    (request.sequence, signed.version, touched)
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
        internal lock and belongs to the event-loop thread (the touched-key
        log this thread does write, the event loop reads: both under the
        shard lock).  Raises the same typed errors the primary would have raised; an already-applied frame
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
