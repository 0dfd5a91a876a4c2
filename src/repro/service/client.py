"""The verifying client: decodes wire bytes and trusts nothing else.

A :class:`VerifyingClient` holds only what the paper's user holds — relation
manifests (whose 32-byte ids it cross-checks against the server's listing)
and, through them, the owner's public key.  Every query answer arrives as
canonical wire bytes, is decoded with the strict codec and is then verified
locally before rows are handed to the caller.  The client has no access to
publisher state: a genuine result verifies, and a tampered, truncated or
incomplete one raises a typed error
(:class:`~repro.wire.errors.WireFormatError` at the codec layer,
:class:`~repro.core.errors.VerificationError` at the proof layer, or
:class:`~repro.service.protocol.ServiceError` at the transport layer).

Every relation is a signature chain, so one
:class:`~repro.core.verifier.ResultVerifier` over every pinned manifest
verifies every answer, joins included; a rotation that changes the chain's
parameters — however well signed — is refused with a typed
``rotation-scheme-mismatch``.

**Live updates.**  A publisher that applies owner deltas rotates the
relation's manifest (its ``sequence`` bumps, so its 32-byte id changes).
Query answers carry the id they were built under; when it differs from the
client's pinned id, the client fetches the latest
:class:`~repro.wire.updates.ManifestRotated`, authenticates it against the
trust root it already holds (same owner key, valid rotation signature,
strictly increasing sequence), re-pins, and verifies the answer it already
has — so a caller just sees a verified answer, attributed via
:attr:`VerifiedResult.manifest_sequence` to the data version it reflects.

**Bounded staleness.**  Chain signatures prove authenticity and completeness
but never bind *when*: a publisher replaying a captured pre-rotation answer
under the current manifest id used to present stale-but-genuine data as
current.  A client constructed with a
:class:`~repro.service.config.FreshnessPolicy` closes that hole: every
verified answer must carry an owner-signed
:class:`~repro.wire.updates.FreshnessAttestation` binding the attributed
``(manifest_id, sequence)`` plus a freshness epoch and validity window, and
the client refuses — with a typed
:class:`~repro.service.protocol.StaleAnswerError` — answers whose
attestation is missing, mismatched, forged, expired, older than the policy's
``max_staleness``, or regressed behind a ``(sequence, epoch)`` this client
already accepted.  The policy's clock is injectable, and the guarantee is
honest about its limits: it is bounded by clock skew against the owner, and
an *active* in-path attacker who splices the live current attestation onto a
stale answer frame is not stopped (binding every answer to its attestation
would require the owner to re-sign the data itself per epoch).
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.relational import RelationManifest
from repro.core.report import VerificationReport
from repro.core.verifier import ResultVerifier
from repro.db.access_control import AccessControlPolicy
from repro.db.query import Conjunction, JoinQuery, Query, RangeCondition
from repro.service.config import FreshnessPolicy
from repro.service.protocol import (
    ConnectionRefusedTransportError,
    ErrorResponse,
    JoinRequest,
    JoinResponse,
    ListRelationsRequest,
    ManifestByIdRequest,
    ManifestRequest,
    ManifestResponse,
    QueryRequest,
    QueryResponse,
    RelationListing,
    RemoteError,
    ResetTransportError,
    RotationRequest,
    ServiceError,
    ServiceProtocolError,
    StaleAnswerError,
    StaleManifestError,
    TimeoutTransportError,
    UnreachableTransportError,
    recv_message,
    send_message,
)
from repro.service.retry import RetriesExhausted, RetryPolicy
from repro.wire import manifest_id
from repro.wire.errors import WireFormatError
from repro.wire.updates import (
    FreshnessAttestation,
    ManifestRotated,
    attestation_signing_message,
    manifest_signing_message,
)

__all__ = [
    "QuerySpec",
    "ServiceConnection",
    "VerifiedResult",
    "VerifiedJoinResult",
    "VerifyingClient",
]

#: How many times one call asks the server before giving up.  An answer is
#: asked for again only when the server no longer serves the manifest it was
#: stamped with, so hitting the bound means the relation rotates faster than
#: its history is retained — surfacing that beats looping forever.
MAX_ROTATIONS_PER_CALL = 8


class ServiceConnection:
    """One framed request/response connection to a publication server.

    Shared plumbing of :class:`VerifyingClient` and
    :class:`~repro.service.owner.OwnerClient`: lazy connect, context-manager
    lifecycle, and the strict one-request/one-response exchange with typed
    errors.

    With a ``retry_policy`` every exchange is retried under it (bounded
    attempts, jittered backoff; see :mod:`repro.service.retry`).  Resending
    is safe across the protocol: queries and manifest fetches are read-only,
    and an ``UpdateRequest`` frame that was already applied is recognised by
    the server's applied-update registry and answered with its original
    outcome instead of being applied twice.  A ``retry_policy`` with an
    ``attempt_timeout`` overrides the connection timeout, bounding each
    attempt individually (every retry reconnects).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry_policy = retry_policy
        if retry_policy is not None and retry_policy.attempt_timeout is not None:
            timeout = retry_policy.attempt_timeout
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    # -- connection management ----------------------------------------------

    def connect(self) -> "ServiceConnection":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except socket.timeout:
                raise TimeoutTransportError(
                    f"timed out after {self.timeout}s connecting to "
                    f"{self.host}:{self.port}"
                ) from None
            except (ConnectionRefusedError, ConnectionAbortedError) as error:
                raise ConnectionRefusedTransportError(
                    f"connection to {self.host}:{self.port} refused: {error}"
                ) from None
            except socket.gaierror as error:
                raise UnreachableTransportError(
                    f"cannot resolve {self.host!r}: {error}"
                ) from None
            except OSError as error:
                # ENETUNREACH, EHOSTUNREACH, EACCES and friends: the host was
                # never reached, which is a different (and possibly
                # transient) condition than a live host refusing — keep it
                # retryable instead of opening circuits on resolver hiccups.
                raise UnreachableTransportError(
                    f"cannot connect to {self.host}:{self.port}: {error}"
                ) from None
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, message, expect: type):
        """One exchange, retried under :attr:`retry_policy` when one is set."""
        if self.retry_policy is None:
            return self._request_once(message, expect)
        return self.retry_policy.run(lambda: self._request_once(message, expect))

    def _exchange(self, exchange):
        """Run ``exchange(sock)``, one attempt's sends and receives; typed errors only.

        Any transport-level failure — timeout, connection reset, a frame that
        fails to decode — closes the socket, because a half-consumed exchange
        leaves the stream unusable: a late response to *this* request must
        never be read as the answer to the *next* one.  The following request
        transparently reconnects.
        """
        if self._sock is None:
            self.connect()
        assert self._sock is not None
        try:
            return exchange(self._sock)
        except socket.timeout:
            self.close()
            raise TimeoutTransportError(
                f"timed out after {self.timeout}s waiting for the server"
            ) from None
        except (ServiceProtocolError, WireFormatError):
            self.close()
            raise
        except (ConnectionResetError, BrokenPipeError) as error:
            self.close()
            raise ResetTransportError(f"connection reset: {error}") from None
        except OSError as error:
            self.close()
            raise ServiceProtocolError(f"connection failed: {error}") from None

    def _request_once(self, message, expect: type):
        """One request/response exchange (see :meth:`_exchange`)."""

        def exchange(sock):
            send_message(sock, message)
            response = recv_message(sock)
            if response is None:
                raise ResetTransportError("server closed the connection")
            return response

        return self._typed(self._exchange(exchange), expect)

    def _typed(self, response, expect: type):
        """``response`` if it is an ``expect``; the typed error it is otherwise."""
        if isinstance(response, ErrorResponse):
            raise RemoteError(response.code, response.reason, response.message)
        if not isinstance(response, expect):
            self.close()
            raise ServiceProtocolError(
                f"expected a {expect.__name__}, got {type(response).__name__}"
            )
        return response

    def _request_pipeline(self, messages) -> list:
        """Pipelined exchange, retried whole under :attr:`retry_policy`.

        A transport failure anywhere in the batch resends the *entire* batch:
        queries are read-only and update frames are idempotent server-side
        (applied-update registry), so a batch interrupted after the server
        processed a prefix completes with the original outcomes on retry.
        """
        if self.retry_policy is None:
            return self._request_pipeline_once(messages)
        return self.retry_policy.run(lambda: self._request_pipeline_once(messages))

    def _request_pipeline_once(self, messages) -> list:
        """Send many requests in one write; read the responses in order.

        The server answers a connection's frames strictly in request order,
        so the whole batch costs one network round trip instead of one per
        request.  Every response is read before any is interpreted — a typed
        error for request *k* must not leave responses *k+1..n* stranded in
        the stream.  Returns the decoded responses (``ErrorResponse`` objects
        included — callers decide whether one failure poisons the batch).
        """
        # Looked up per call, like send_message's own use of it, so whatever
        # instruments protocol.encode_frame sees pipelined frames too.
        from repro.service.protocol import encode_frame

        if not messages:
            return []

        def exchange(sock):
            sock.sendall(b"".join(encode_frame(m) for m in messages))
            responses = []
            for _ in messages:
                response = recv_message(sock)
                if response is None:
                    raise ResetTransportError(
                        "server closed the connection mid-pipeline"
                    )
                responses.append(response)
            return responses

        return self._exchange(exchange)


@dataclass(frozen=True)
class QuerySpec:
    """One verifiable request, whatever its shape: range, point or join.

    The single value object behind :meth:`VerifyingClient.execute` /
    :meth:`~VerifyingClient.execute_many`.
    """

    query: Union[Query, JoinQuery]
    role: Optional[str] = None
    verify: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.query, (Query, JoinQuery)):
            raise TypeError(
                f"QuerySpec.query must be a Query or JoinQuery, "
                f"not {type(self.query).__name__}"
            )

    @property
    def is_join(self) -> bool:
        return isinstance(self.query, JoinQuery)

    # -- constructors for the common shapes ----------------------------------

    @classmethod
    def range(
        cls,
        relation_name: str,
        attribute: str,
        low: Optional[int] = None,
        high: Optional[int] = None,
        **options,
    ) -> "QuerySpec":
        """A closed-range selection ``low <= attribute <= high`` (None = open)."""
        return cls(
            query=Query(
                relation_name, Conjunction((RangeCondition(attribute, low, high),))
            ),
            **options,
        )

    @classmethod
    def point(
        cls, relation_name: str, attribute: str, value: int, **options
    ) -> "QuerySpec":
        """A point selection ``attribute == value`` (a degenerate range)."""
        return cls.range(relation_name, attribute, value, value, **options)

    @classmethod
    def join(cls, join_query: JoinQuery, **options) -> "QuerySpec":
        """A PK-FK join request."""
        return cls(query=join_query, **options)


@dataclass(frozen=True)
class VerifiedResult:
    """A query answer that passed (or skipped, if so asked) verification.

    ``manifest_id`` / ``manifest_sequence`` name the manifest the answer was
    verified against.  Chain signatures alone leave that attribution
    advisory — they prove authenticity and completeness of the rows but do
    not bind the sequence.  A client configured with a
    :class:`~repro.service.config.FreshnessPolicy` upgrades it to a bounded
    guarantee: ``attestation`` then holds the owner-signed
    :class:`~repro.wire.updates.FreshnessAttestation` that bound this exact
    ``(manifest_id, sequence)`` within the policy's staleness window, and a
    replayed pre-rotation answer is refused with a typed
    :class:`~repro.service.protocol.StaleAnswerError` instead of being
    returned.  The bound is as good as the skew between the policy clock and
    the owner's; without a policy (or with ``verify=False``) no freshness is
    checked and ``attestation`` is whatever the server stamped.
    """

    rows: Tuple[Dict[str, object], ...]
    report: Optional[VerificationReport]
    proof: object = None
    manifest_id: bytes = b""
    manifest_sequence: int = 0
    attestation: Optional[FreshnessAttestation] = None


@dataclass(frozen=True)
class VerifiedJoinResult:
    """Like :class:`VerifiedResult`, with per-side snapshot attribution and
    per-side freshness attestations (each side is bounded independently when
    a :class:`~repro.service.config.FreshnessPolicy` is configured)."""

    rows: Tuple[Dict[str, object], ...]
    left_rows: Tuple[Dict[str, object], ...]
    report: Optional[VerificationReport]
    proof: object = None
    left_manifest_id: bytes = b""
    right_manifest_id: bytes = b""
    left_manifest_sequence: int = 0
    right_manifest_sequence: int = 0
    left_attestation: Optional[FreshnessAttestation] = None
    right_attestation: Optional[FreshnessAttestation] = None


class VerifyingClient(ServiceConnection):
    """Queries a :class:`~repro.service.server.PublicationServer` and verifies.

    **Trust model.**  The paper distributes manifests (and with them the
    owner's public key) through an *authenticated channel*; the publisher is
    untrusted.  Pass ``trusted_manifests`` (full manifests obtained out of
    band) or ``expected_ids`` (their canonical 32-byte ids) to pin that trust
    root: everything the server sends is then checked against the pinned
    values, and a hostile server that re-signs fabricated data under its own
    key is rejected.  Without pinning, the client trusts the first listing the
    server returns (trust-on-first-use): verification still catches every
    in-transit tamperer and any publisher misbehaviour *relative to the
    fetched manifests*, but not a publisher that controls the manifests
    themselves.

    A *rotated* manifest (live update) is accepted only by continuity from
    the pinned one: identical owner key and scheme parameters, an owner
    signature over (superseded id, new manifest bytes), and a strictly
    increasing sequence — so neither a forged nor a replayed rotation can
    move the trust root.

    Parameters
    ----------
    host, port:
        The publication server's address.
    policy:
        The access-control policy, if the client queries under a role (the
        verifier re-applies the same query rewriting the publisher must).
    timeout:
        Socket timeout in seconds for connect and each response.
    trusted_manifests:
        Relation name -> manifest, obtained through an authenticated channel.
        Used directly for verification; never re-fetched from the server.
    expected_ids:
        Relation name -> pinned manifest id.  Fetched manifests must hash to
        the pinned id (stronger than trusting the server's own listing).
    retry_policy:
        Retry transport failures and transient server errors under this
        policy (see :class:`~repro.service.retry.RetryPolicy`); with a policy
        set, a rotation-chase that exhausts its bound also surfaces as a
        typed :class:`~repro.service.retry.RetriesExhausted` carrying the
        underlying stale-manifest error.
    freshness:
        A :class:`~repro.service.config.FreshnessPolicy` enabling bounded
        staleness: every verified answer must then carry an owner-signed
        freshness attestation for the attributed manifest, issued within
        ``freshness.max_staleness`` seconds by ``freshness.clock``'s
        judgement, or the answer raises a typed
        :class:`~repro.service.protocol.StaleAnswerError`.  ``None``
        (the default) keeps the paper's original advisory-freshness model.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[AccessControlPolicy] = None,
        timeout: float = 10.0,
        trusted_manifests: Optional[Dict[str, RelationManifest]] = None,
        expected_ids: Optional[Dict[str, bytes]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        freshness: Optional[FreshnessPolicy] = None,
    ) -> None:
        super().__init__(host, port, timeout=timeout, retry_policy=retry_policy)
        self.policy = policy
        self.freshness = freshness
        #: Highest (sequence, epoch) this client accepted per relation: a
        #: later answer may never present an older freshness state, even
        #: inside the staleness window (anti-rollback).  A FailoverClient
        #: shares one dict (and its lock) across every per-endpoint client,
        #: so the floor is monotonic for the whole replica group even under
        #: concurrent hedged reads.
        self._freshness_seen: Dict[str, Tuple[int, int]] = {}
        self._freshness_lock = threading.Lock()
        #: Attestation signatures this client already verified, keyed by the
        #: full signed tuple + owner key.  The same attestation rides every
        #: answer until the owner re-attests, so re-running the RSA verify
        #: per answer is pure waste; only the (deterministic) signature check
        #: is memoized — the expiry/staleness/rollback decisions below read
        #: the clock and floor every time.  Bounded FIFO.
        self._attestations_verified: Dict[Tuple, bool] = {}
        self._listing: Optional[Dict[str, bytes]] = None
        self._manifests: Dict[str, RelationManifest] = dict(trusted_manifests or {})
        self._pinned_ids: Dict[str, bytes] = {
            name: manifest_id(manifest)
            for name, manifest in self._manifests.items()
        }
        for name, identifier in (expected_ids or {}).items():
            pinned = self._pinned_ids.get(name)
            if pinned is not None and pinned != bytes(identifier):
                raise ServiceError(
                    f"expected_ids[{name!r}] contradicts the trusted manifest"
                )
            self._pinned_ids[name] = bytes(identifier)
        self._verifier: Optional[ResultVerifier] = None
        #: Rotations this client accepted: relation name -> sequence, for
        #: observability (tests assert the refresh path actually ran).
        self.rotations_observed: Dict[str, int] = {}

    # -- manifests -----------------------------------------------------------

    def relations(self) -> Dict[str, bytes]:
        """Hosting name -> manifest id, as listed by the server (cached)."""
        if self._listing is None:
            listing: RelationListing = self._request(
                ListRelationsRequest(), RelationListing
            )
            self._listing = listing.as_dict()
        return dict(self._listing)

    def fetch_manifest(self, relation_name: str) -> RelationManifest:
        """Fetch and pin one relation's manifest.

        A manifest pinned via ``trusted_manifests`` is returned as-is (the
        server is never asked).  Otherwise the fetched manifest's canonical
        id must equal the pinned ``expected_ids`` entry when one exists, or
        the id the server listed for the name; a mismatch means the metadata
        is inconsistent (or hostile) and is rejected before anything is
        verified against it.
        """
        pinned_manifest = self._manifests.get(relation_name)
        if pinned_manifest is not None and relation_name in self._pinned_ids:
            return pinned_manifest
        is_pinned = relation_name in self._pinned_ids
        for attempt in range(2):
            expected = self._pinned_ids.get(relation_name)
            if expected is None:
                expected = self.relations().get(relation_name)
                if expected is None:
                    raise ServiceError(
                        f"server does not list relation {relation_name!r}"
                    )
            response: ManifestResponse = self._request(
                ManifestRequest(relation_name), ManifestResponse
            )
            manifest = response.manifest
            if manifest_id(manifest) == expected:
                break
            if is_pinned:
                # The relation rotated past the pinned id (live updates).  The
                # manifest *hashing to the pinned id* is self-authenticating,
                # so fetch it by id to bootstrap the trust root, then follow
                # the rotation chain under the normal continuity policy.
                return self._bootstrap_pinned_manifest(relation_name, expected)
            if attempt == 0:
                # The expectation came from the cached listing, which a live
                # update may have rotated out from under us between the two
                # requests: refresh the listing once and try again.
                self._listing = None
                continue
            raise ServiceError(
                f"manifest for {relation_name!r} does not match its listed id"
            )
        self._manifests[relation_name] = manifest
        self._pinned_ids.setdefault(relation_name, manifest_id(manifest))
        self._verifier = None  # rebuilt lazily over the new manifest set
        return manifest

    def _bootstrap_pinned_manifest(
        self, relation_name: str, pinned_id: bytes
    ) -> RelationManifest:
        """Recover the trust root of an id-only pin after rotations.

        Fetches the (historical) manifest whose SHA-256 is the pinned id —
        authenticated by the hash itself, exactly like the out-of-band channel
        that delivered the id — pins it, then advances along the rotation
        chain with :meth:`refresh_rotated_manifest` (key continuity, rotation
        signature, increasing sequence).
        """
        response: ManifestResponse = self._request(
            ManifestByIdRequest(pinned_id), ManifestResponse
        )
        historical = response.manifest
        if manifest_id(historical) != pinned_id:
            raise ServiceError(
                f"manifest served for the pinned id of {relation_name!r} "
                "does not hash to it"
            )
        self._manifests[relation_name] = historical
        self._verifier = None
        return self.refresh_rotated_manifest(relation_name)

    def _ensure_manifest(self, relation_name: str) -> bytes:
        if relation_name not in self._manifests:
            self.fetch_manifest(relation_name)
        return self._pinned_ids[relation_name]  # fetch/init always record the id

    @property
    def verifier(self) -> ResultVerifier:
        """The local verifier over every manifest pinned so far (joins span two)."""
        if self._verifier is None:
            self._verifier = ResultVerifier(dict(self._manifests), policy=self.policy)
        return self._verifier

    # -- freshness -----------------------------------------------------------

    def _check_freshness(
        self,
        relation_name: str,
        manifest: RelationManifest,
        identifier: bytes,
        attestation: Optional[FreshnessAttestation],
    ) -> None:
        """Enforce the configured :class:`FreshnessPolicy` on one answer.

        ``manifest`` / ``identifier`` are the snapshot the answer is being
        attributed to; the attestation must bind exactly that
        ``(manifest_id, sequence)``, verify under the owner key the trust
        root pins, sit inside its own validity window *and* the policy's
        staleness bound by the policy clock, and never regress behind a
        ``(sequence, epoch)`` this client already accepted for the relation.
        Every decision reads time through ``policy.clock`` only.
        """
        policy = self.freshness
        if policy is None:
            return
        if attestation is None:
            raise StaleAnswerError(
                f"answer for {relation_name!r} carries no freshness "
                "attestation; the publisher has not proven the snapshot is "
                "current",
                reason="no-attestation",
            )
        if attestation.manifest_id != identifier:
            raise StaleAnswerError(
                f"freshness attestation for {relation_name!r} binds a "
                "different manifest id than the answer is attributed to",
                reason="attestation-mismatch",
            )
        if attestation.sequence != manifest.sequence:
            raise StaleAnswerError(
                f"freshness attestation for {relation_name!r} names sequence "
                f"{attestation.sequence}, but the attributed manifest is at "
                f"{manifest.sequence}",
                reason="attestation-mismatch",
            )
        signature_key = (
            attestation.manifest_id,
            attestation.sequence,
            attestation.epoch,
            attestation.issued_at_ms,
            attestation.not_after_ms,
            attestation.owner_signature,
            manifest.public_key.modulus,
            manifest.public_key.exponent,
        )
        if not self._attestations_verified.get(signature_key):
            message = attestation_signing_message(
                attestation.manifest_id,
                attestation.sequence,
                attestation.epoch,
                attestation.issued_at_ms,
                attestation.not_after_ms,
            )
            if not manifest.public_key.verify(message, attestation.owner_signature):
                raise StaleAnswerError(
                    f"freshness attestation for {relation_name!r} is not signed "
                    "by the pinned owner key",
                    reason="attestation-forged",
                )
            # Only successful verifications are memoized, so a forged
            # attestation is re-checked (and re-rejected) every time.
            if len(self._attestations_verified) >= 64:
                self._attestations_verified.pop(
                    next(iter(self._attestations_verified))
                )
            self._attestations_verified[signature_key] = True
        now_ms = policy.now_ms()
        if now_ms > attestation.not_after_ms:
            raise StaleAnswerError(
                f"freshness attestation for {relation_name!r} expired "
                f"{now_ms - attestation.not_after_ms}ms ago; the owner has "
                "not re-attested the snapshot",
                reason="attestation-expired",
            )
        age_ms = now_ms - attestation.issued_at_ms
        if age_ms > policy.max_staleness_ms:
            raise StaleAnswerError(
                f"freshness attestation for {relation_name!r} was issued "
                f"{age_ms}ms ago, beyond this client's "
                f"{policy.max_staleness_ms}ms staleness bound",
                reason="attestation-stale",
            )
        state = (attestation.sequence, attestation.epoch)
        # Compare-and-advance under the floor's lock: with the dict shared
        # across a replica group's clients (and hedged reads racing on two
        # threads), an unsynchronized check-then-set could let a lower state
        # overwrite a higher one — exactly the rollback the floor forbids.
        with self._freshness_lock:
            seen = self._freshness_seen.get(relation_name)
            if seen is not None and state < seen:
                raise StaleAnswerError(
                    f"freshness attestation for {relation_name!r} regressed to "
                    f"(sequence, epoch) {state} behind the already-accepted "
                    f"{seen}",
                    reason="attestation-regressed",
                )
            self._freshness_seen[relation_name] = state

    # -- manifest rotation ---------------------------------------------------

    def refresh_rotated_manifest(self, relation_name: str) -> RelationManifest:
        """Fetch, authenticate and re-pin the latest rotation of a relation.

        The rotation is accepted only by continuity from the currently pinned
        manifest: same owner key and scheme parameters, a valid owner
        signature over (superseded id, new manifest bytes), and a strictly
        larger sequence.  A forged rotation fails the signature check; a
        replayed (older) one fails the sequence check — both raise a typed
        :class:`~repro.service.protocol.ServiceError`.
        """
        pinned = self._manifests.get(relation_name)
        if pinned is None:
            return self.fetch_manifest(relation_name)
        rotation: ManifestRotated = self._request(
            RotationRequest(relation_name), ManifestRotated
        )
        self._validate_rotation(relation_name, pinned, rotation)
        manifest = rotation.manifest
        self._manifests[relation_name] = manifest
        self._pinned_ids[relation_name] = manifest_id(manifest)
        self._listing = None  # the server's listing moved with the rotation
        # The verifier keys its digest memos by the scheme parameters
        # _validate_rotation just proved unchanged: re-pin it, keep the memos.
        if self._verifier is not None and relation_name in self._verifier.manifests:
            self._verifier.manifests[relation_name] = manifest
        self.rotations_observed[relation_name] = manifest.sequence
        return manifest

    def _validate_rotation(
        self,
        relation_name: str,
        pinned: RelationManifest,
        rotation: ManifestRotated,
    ) -> None:
        manifest = rotation.manifest
        if manifest.public_key != pinned.public_key:
            raise StaleManifestError(
                f"rotated manifest for {relation_name!r} is signed under a "
                "different owner key",
                reason="rotation-key-mismatch",
            )
        if (
            manifest.schema != pinned.schema
            or manifest.scheme_kind != pinned.scheme_kind
            or manifest.base != pinned.base
            or manifest.hash_name != pinned.hash_name
        ):
            raise StaleManifestError(
                f"rotated manifest for {relation_name!r} changes scheme "
                "parameters; data updates must preserve them",
                reason="rotation-scheme-mismatch",
            )
        if manifest.sequence <= pinned.sequence:
            raise StaleManifestError(
                f"rotation for {relation_name!r} does not advance the "
                f"sequence ({manifest.sequence} <= {pinned.sequence}); "
                "stale or replayed rotation",
                reason="rotation-replayed",
            )
        message = manifest_signing_message(manifest, rotation.previous_id)
        if not pinned.public_key.verify(message, rotation.owner_signature):
            raise StaleManifestError(
                f"rotation for {relation_name!r} is not signed by the "
                "pinned owner key",
                reason="rotation-forged",
            )

    # -- queries -------------------------------------------------------------

    def execute(self, spec: QuerySpec) -> Union[VerifiedResult, VerifiedJoinResult]:
        """Issue one :class:`QuerySpec` — range, point or join — and verify.

        The single entry point for reads: a single-relation spec is a batch
        of one through :meth:`execute_many` and returns a
        :class:`VerifiedResult`; a join returns a :class:`VerifiedJoinResult`.
        """
        if isinstance(spec.query, JoinQuery):
            return self._execute_join(spec.query, role=spec.role, verify=spec.verify)
        return self.execute_many([spec])[0]

    def execute_many(self, specs: Sequence[QuerySpec]) -> List[VerifiedResult]:
        """Ask, attribute, verify: the read loop for single-relation specs.

        All specs must share role and verify (one exchange, one verification
        policy) and none may be a join (:meth:`execute` serves those).  The
        asks go out in one round trip — one frame, or many written
        back-to-back and answered in order, each still an atomic snapshot —
        and results come back in spec order.

        Every answer is attributed to a snapshot by :meth:`_attribute`,
        checked against the freshness policy and verified by
        :attr:`verifier`.  Only the answers whose stamped snapshot the server
        no longer serves are asked again, at most
        :data:`MAX_ROTATIONS_PER_CALL` times.

        ``verify=False`` skips freshness and verification and returns the raw
        decoded rows — for measurement and relaying only; a consuming client
        should never disable it.
        """
        specs = list(specs)
        if not specs:
            return []
        head = specs[0]
        queries = [spec.query for spec in specs]
        for spec in specs:
            if spec.is_join:
                raise ValueError(
                    "execute_many serves single-relation specs; send joins "
                    "through execute()"
                )
            if (spec.role, spec.verify) != (head.role, head.verify):
                raise ValueError("execute_many specs must share role and verify")
        results: List[Optional[VerifiedResult]] = [None] * len(specs)
        unsettled = list(range(len(specs)))
        for _ in range(MAX_ROTATIONS_PER_CALL):
            requests = [
                QueryRequest(
                    manifest_id=self._ensure_manifest(queries[index].relation_name),
                    query=queries[index],
                    role=head.role,
                )
                for index in unsettled
            ]
            if len(requests) == 1:
                responses = [self._request(requests[0], QueryResponse)]
            else:
                # One pipelined write; a typed server error for any request
                # raises only after the whole exchange has been drained.
                responses = [
                    self._typed(response, QueryResponse)
                    for response in self._request_pipeline(requests)
                ]
            asked, unsettled = unsettled, []
            for index, response in zip(asked, responses):
                query = queries[index]
                name = query.relation_name
                identifier = response.manifest_id or self._pinned_ids[name]
                manifest = self._attribute(name, identifier)
                if manifest is None:
                    unsettled.append(index)
                    continue
                report = None
                if head.verify:
                    self._check_freshness(
                        name, manifest, identifier, response.attestation
                    )
                    report = self.verifier.verify(
                        query, response.rows, response.proof, role=head.role
                    )
                results[index] = VerifiedResult(
                    rows=response.rows,
                    report=report,
                    proof=response.proof,
                    manifest_id=identifier,
                    manifest_sequence=manifest.sequence,
                    attestation=response.attestation,
                )
            if not unsettled:
                return results
        names = sorted({queries[index].relation_name for index in unsettled})
        self._chase_exhausted(f"answers for {names}")

    def _attribute(
        self, relation_name: str, identifier: bytes
    ) -> Optional[RelationManifest]:
        """The manifest an answer stamped ``identifier`` is attributed to.

        The one snapshot-attribution policy, shared by single, pipelined and
        joined reads:

        * the pinned id: the pinned manifest.
        * otherwise the relation rotated: authenticate the latest rotation
          against the trust root and re-pin.  The answer was built under the
          snapshot current when it was answered (superseded ids route on
          purpose), so when the refreshed pin matches the stamp it verifies
          as-is.  A batch can carry several answers stamped with an id the
          client has *already* chased past; the refresh then finds a rotation
          that does not advance the pin — not a replay attack (nothing is
          accepted), just "already current" — and the pin is kept.
        * if the stamp still differs, the relation is rotating faster than
          the client can re-pin (a streaming owner), which must not starve
          the reader: rotations cannot change the owner key or any chain
          parameter (:meth:`_validate_rotation`), so the answer is exactly as
          verifiable under the refreshed trust root.  Fetch the stamped
          manifest by id, check that it hashes to the stamp and keeps those
          parameters, and attribute to it *without* pinning it (the pin keeps
          following the rotation chain).

        ``None`` means the server no longer serves the stamp's manifest
        (evicted history, or one that fails those checks): ask again.
        """
        if identifier == self._pinned_ids[relation_name]:
            return self._manifests[relation_name]
        try:
            self.refresh_rotated_manifest(relation_name)
        except StaleManifestError as error:
            if error.reason != "rotation-replayed":
                raise
        pinned = self._manifests[relation_name]
        if identifier == self._pinned_ids[relation_name]:
            return pinned
        try:
            stamped = self._request(
                ManifestByIdRequest(identifier), ManifestResponse
            ).manifest
        except (RemoteError, ServiceProtocolError):
            return None
        if manifest_id(stamped) == identifier and _same_parameters(stamped, pinned):
            return stamped
        return None

    def _chase_exhausted(self, what: str) -> None:
        """Surface a read loop that ran out of asks; typed either way.

        The read loop is bounded like any other retry loop: with a
        :attr:`retry_policy` configured the exhaustion is reported as a
        :class:`~repro.service.retry.RetriesExhausted` (same type callers
        already handle for transport retries, carrying the underlying
        stale-manifest error); without one, the stale-manifest error itself
        is raised.
        """
        error = StaleManifestError(
            f"{what} stayed unattributable to a snapshot the server still "
            f"serves for {MAX_ROTATIONS_PER_CALL} asks within one call"
        )
        if self.retry_policy is not None:
            raise RetriesExhausted(
                f"rotation chase exhausted: {error}",
                attempts=MAX_ROTATIONS_PER_CALL,
                last_error=error,
            ) from error
        raise error

    def _execute_join(
        self, join: JoinQuery, role: Optional[str] = None, verify: bool = True
    ) -> VerifiedJoinResult:
        """Issue a PK-FK join query and verify completeness + authenticity.

        The read loop of :meth:`execute_many` with two sides: each side is
        attributed by :meth:`_attribute` and bounded by the freshness policy
        independently, and the join is asked again only when a side's stamp
        was evicted.
        """
        left, right = join.left_relation, join.right_relation
        for _ in range(MAX_ROTATIONS_PER_CALL):
            left_pin = self._ensure_manifest(left)
            right_pin = self._ensure_manifest(right)
            response: JoinResponse = self._request(
                JoinRequest(
                    left_manifest_id=left_pin,
                    right_manifest_id=right_pin,
                    join=join,
                    role=role,
                ),
                JoinResponse,
            )
            left_id = response.left_manifest_id or left_pin
            right_id = response.right_manifest_id or right_pin
            left_manifest = self._attribute(left, left_id)
            right_manifest = self._attribute(right, right_id)
            if left_manifest is None or right_manifest is None:
                continue
            report = None
            if verify:
                self._check_freshness(
                    left, left_manifest, left_id, response.left_attestation
                )
                self._check_freshness(
                    right, right_manifest, right_id, response.right_attestation
                )
                report = self.verifier.verify_join(
                    join, response.rows, response.proof, response.left_rows, role=role
                )
            return VerifiedJoinResult(
                rows=response.rows,
                left_rows=response.left_rows,
                report=report,
                proof=response.proof,
                left_manifest_id=left_id,
                right_manifest_id=right_id,
                left_manifest_sequence=left_manifest.sequence,
                right_manifest_sequence=right_manifest.sequence,
                left_attestation=response.left_attestation,
                right_attestation=response.right_attestation,
            )
        self._chase_exhausted(f"join {left!r}/{right!r}")


def _same_parameters(a: RelationManifest, b: RelationManifest) -> bool:
    """Whether two manifests agree on everything a rotation must preserve."""
    return (
        a.public_key == b.public_key
        and a.schema == b.schema
        and a.scheme_kind == b.scheme_kind
        and a.base == b.base
        and a.hash_name == b.hash_name
    )
