"""The publication protocol: framed request/response messages over a socket.

Transport framing is a big-endian u32 payload length followed by the payload;
every payload is one wire artifact (:mod:`repro.wire`), so the protocol
inherits the codec's strict validation and versioning.  Requests address
relations by **manifest id** (the 32-byte commitment of
:func:`repro.wire.manifest_id`), which is what lets one server front several
shards: the id names the exact signed artefact the client intends to query,
independent of hosting names.

The message set:

====================  =======================================================
``ListRelationsRequest``  enumerate hosted relations and their manifest ids
``RelationListing``       the listing
``ManifestRequest``       fetch one relation's manifest by hosting name
``ManifestResponse``      the manifest (client cross-checks its id)
``QueryRequest``          a select-project(-multipoint) query + optional role
``QueryResponse``         result rows plus the range VO and the manifest id
                          the answer was built under
``JoinRequest``           a PK-FK join query + optional role
``JoinResponse``          joined rows, left-side rows, the join VO and both
                          manifest ids
``UpdateRequest``         a signed owner delta batch (:mod:`repro.wire.updates`)
``UpdateResponse``        merged receipt + the manifest rotation it caused
``RotationRequest``       fetch the latest authenticated rotation of a relation
``ManifestRotated``       the rotation notification (owner-signed)
``AttestationPush``       an owner-signed freshness attestation for a relation
``AttestationAck``        the publisher's confirmation of a stored attestation
``AttestationRequest``    fetch the latest stored attestation of a relation
``ErrorResponse``         typed failure (code / reason / message)
====================  =======================================================

Live updates rotate manifests: every applied ``UpdateRequest`` bumps the
relation's manifest ``sequence`` and therefore its 32-byte id.  Query answers
carry the id they were built under, which is how a client detects that its
pinned manifest went stale (see
:meth:`~repro.service.client.VerifyingClient.execute`).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.proof import JoinQueryProof, RangeQueryProof
from repro.core.relational import RelationManifest
from repro.db.query import JoinQuery, Query
from repro.wire import codec, decode, encode
from repro.wire.primitives import MAX_FIELD_BYTES
from repro.wire.updates import (  # noqa: F401 - re-exported protocol messages
    MANIFEST_ID_SIZE,
    FreshnessAttestation,
    ManifestRotated,
    RecordDelta,
    UpdateRequest,
    UpdateResponse,
)

__all__ = [
    "MANIFEST_ID_BYTES",
    "MAX_FRAME_BYTES",
    "ServiceError",
    "ServiceProtocolError",
    "TransportError",
    "ConnectionRefusedTransportError",
    "UnreachableTransportError",
    "ResetTransportError",
    "TimeoutTransportError",
    "StaleManifestError",
    "StaleAnswerError",
    "OwnerAuthError",
    "RemoteError",
    "ListRelationsRequest",
    "RelationListing",
    "ManifestRequest",
    "ManifestByIdRequest",
    "ManifestResponse",
    "QueryRequest",
    "QueryResponse",
    "JoinRequest",
    "JoinResponse",
    "UpdateRequest",
    "UpdateResponse",
    "RecordDelta",
    "ManifestRotated",
    "RotationRequest",
    "FreshnessAttestation",
    "AttestationPush",
    "AttestationAck",
    "AttestationRequest",
    "ReplicationStatusRequest",
    "ReplicationStatus",
    "ReplicaFramesRequest",
    "ReplicaFrames",
    "ReplicaSnapshotRequest",
    "ReplicaSnapshot",
    "ErrorResponse",
    "encode_frame",
    "send_message",
    "recv_message",
]

#: Size of a manifest id (SHA-256); the wire layer owns the definition.
MANIFEST_ID_BYTES = MANIFEST_ID_SIZE

#: Upper bound on one frame: the wire layer's per-field cap, so the framing
#: layer never accepts a frame whose fields the codec would reject.
MAX_FRAME_BYTES = MAX_FIELD_BYTES

#: How long a peer may stall *mid-frame* before the connection is declared
#: broken.  Idle time between frames is governed by the caller's socket
#: timeout instead; only a frame cut off in the middle is bounded here.
MID_FRAME_STALL_SECONDS = 30.0


class ServiceError(ReproError):
    """Base class for publication-service failures."""


class ServiceProtocolError(ServiceError):
    """The byte stream violated the framing/protocol contract."""


class TransportError(ServiceProtocolError):
    """A classified transport-level failure (see subclasses).

    Subclassing :class:`ServiceProtocolError` keeps every existing caller and
    :class:`~repro.service.retry.RetryPolicy` working unchanged; the value of
    the subclasses is that a failover-aware caller can tell *retry this
    endpoint* (a timeout may be a transient stall) from *fail over now* (a
    refused connect means nobody is listening there).
    """


class ConnectionRefusedTransportError(TransportError):
    """Nobody is listening at the endpoint (ECONNREFUSED / ECONNABORTED)."""


class UnreachableTransportError(TransportError):
    """The endpoint could not be reached at all — DNS failure, unroutable
    network, or a kindred transient :class:`OSError` on connect.

    Distinct from :class:`ConnectionRefusedTransportError` on purpose: a
    refused connect proves a reachable host with nobody listening (retrying
    the same endpoint is pointless), while a resolver hiccup or an
    ENETUNREACH may clear on the next attempt — so this class stays
    retryable under the default policies.
    """


class ResetTransportError(TransportError):
    """The peer reset or closed the connection mid-exchange."""


class TimeoutTransportError(TransportError):
    """The peer accepted the request but never answered within the timeout."""


class StaleManifestError(ServiceError):
    """The addressed manifest id was superseded by a rotation.

    Raised for owner updates pushed against an old data version (``reason``
    ``"stale-update"`` — also the replay rejection: a captured
    ``UpdateRequest`` re-sent later addresses a superseded id), and available
    to clients that want queries against rotated ids refused rather than
    answered under the new id.
    """

    def __init__(self, message: str, reason: str = "stale-manifest") -> None:
        super().__init__(message)
        self.reason = reason


class StaleAnswerError(ServiceError):
    """An answer failed the bounded-staleness freshness check.

    Raised client-side when a :class:`VerifyingClient` configured with a
    :class:`~repro.service.config.FreshnessPolicy` receives an answer whose
    freshness attestation is missing (``"no-attestation"``), addresses a
    different manifest id or sequence than the answer was attributed to
    (``"attestation-mismatch"`` — the stale-replay case), fails the owner
    signature (``"attestation-forged"``), expired (``"attestation-expired"``),
    was issued longer ago than the client's bound (``"attestation-stale"``),
    or regressed behind a previously accepted ``(sequence, epoch)``
    (``"attestation-regressed"``).  Raised server-side for attestation pushes
    that do not advance the stored freshness epoch.
    """

    def __init__(self, message: str, reason: str = "stale-answer") -> None:
        super().__init__(message)
        self.reason = reason


class OwnerAuthError(ServiceError):
    """An update's owner signature did not verify under the relation's key."""

    def __init__(self, message: str, reason: str = "bad-owner-signature") -> None:
        super().__init__(message)
        self.reason = reason


class RemoteError(ServiceError):
    """The server answered with a typed :class:`ErrorResponse`."""

    def __init__(self, code: str, reason: str, message: str) -> None:
        super().__init__(f"{code} ({reason}): {message}")
        self.code = code
        self.reason = reason
        self.remote_message = message


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ListRelationsRequest:
    """Ask the server which relations it fronts."""


@dataclass(frozen=True)
class RelationListing:
    """(hosting name, manifest id) for every relation behind the server."""

    entries: Tuple[Tuple[str, bytes], ...]

    def as_dict(self) -> Dict[str, bytes]:
        return dict(self.entries)


@dataclass(frozen=True)
class ManifestRequest:
    """Fetch the manifest of one hosted relation."""

    relation_name: str


@dataclass(frozen=True)
class ManifestByIdRequest:
    """Fetch the manifest with one exact (possibly superseded) id.

    Manifests are self-authenticating relative to an out-of-band id — the id
    *is* the SHA-256 of the manifest bytes — so serving historical manifests
    lets a client that pinned only an id (``expected_ids``) bootstrap its
    trust root even after the relation rotated past that id.
    """

    manifest_id: bytes


@dataclass(frozen=True)
class ManifestResponse:
    manifest: RelationManifest


@dataclass(frozen=True)
class QueryRequest:
    """A select-project(-multipoint) query against one manifest id."""

    manifest_id: bytes
    query: Query
    role: Optional[str] = None


@dataclass(frozen=True)
class QueryResponse:
    """Rows plus the verification object; ``proof`` is None only for vacuous ranges.

    ``proof`` is the chain scheme's :class:`~repro.core.proof.RangeQueryProof`,
    embedded as a body of that one type: a frame carrying any other VO does
    not decode.

    ``manifest_id`` is the id of the manifest the answer was built under,
    captured atomically with the answer (same shard lock).  A client whose
    pinned id differs knows the relation rotated underneath it and refreshes
    before trusting the rows to any snapshot.  Empty means the server predates
    live updates (legacy), in which case staleness detection is unavailable.

    ``attestation`` is the relation's latest owner-signed freshness
    attestation, captured under the same lock; ``None`` when the owner never
    attested.  Freshness-enforcing clients require it to match
    ``manifest_id`` exactly — that is what stops a captured pre-rotation
    answer from being re-served under the current id.
    """

    rows: Tuple[Dict[str, object], ...]
    proof: Optional[RangeQueryProof]
    manifest_id: bytes = b""
    attestation: Optional[FreshnessAttestation] = None


@dataclass(frozen=True)
class JoinRequest:
    """A PK-FK join; both manifest ids must resolve to the same shard."""

    left_manifest_id: bytes
    right_manifest_id: bytes
    join: JoinQuery
    role: Optional[str] = None


@dataclass(frozen=True)
class JoinResponse:
    """Join answer; carries the manifest ids both sides were answered under."""

    rows: Tuple[Dict[str, object], ...]
    left_rows: Tuple[Dict[str, object], ...]
    proof: Optional[JoinQueryProof]
    left_manifest_id: bytes = b""
    right_manifest_id: bytes = b""
    left_attestation: Optional[FreshnessAttestation] = None
    right_attestation: Optional[FreshnessAttestation] = None


@dataclass(frozen=True)
class RotationRequest:
    """Fetch the latest owner-signed manifest rotation of one relation.

    Sent by a client that detected a manifest-id mismatch on an answer; the
    response is a :class:`~repro.wire.updates.ManifestRotated` whose signature
    the client checks against the public key it already pinned.
    """

    relation_name: str


@dataclass(frozen=True)
class AttestationPush:
    """An owner pushing a fresh :class:`FreshnessAttestation` to the publisher.

    The attestation must address the relation's *current* manifest id and
    sequence, verify under the relation's owner key, and strictly advance the
    stored ``(sequence, epoch)`` order — otherwise the push is refused with a
    typed error and the stored attestation is untouched.
    """

    attestation: FreshnessAttestation


@dataclass(frozen=True)
class AttestationAck:
    """Confirmation that a pushed attestation is now the one being served."""

    relation_name: str
    sequence: int
    epoch: int


@dataclass(frozen=True)
class AttestationRequest:
    """Fetch the latest stored attestation of one relation.

    Lets a restarted owner learn the epoch it must exceed, and lets auditors
    check what freshness claim a publisher currently serves.  Answered with
    the :class:`FreshnessAttestation` itself, or a typed ``"no-attestation"``
    error when the owner never attested this relation.
    """

    relation_name: str


@dataclass(frozen=True)
class ErrorResponse:
    """A typed failure: ``code`` is the error class, ``reason`` a short tag."""

    code: str
    reason: str = "error"
    message: str = ""


# -- replication messages (see repro.service.replication) -------------------
#
# Replicas need no trust establishment: everything a primary ships below is
# either owner-signed wire frames (which the replica re-verifies through the
# same path crash recovery uses) or raw storage files whose contents are
# themselves owner-signed checkpoints and WAL frames.  A lying primary can
# only produce a replica that fails verification — never one that serves a
# forged answer.


@dataclass(frozen=True)
class ReplicationStatusRequest:
    """Ask a server for one relation's applied ``(sequence, epoch)``.

    Works against primaries and replicas alike; comparing the two is how
    replication lag is observed (and what the chaos tests poll to decide a
    replica has caught up).
    """

    relation_name: str


@dataclass(frozen=True)
class ReplicationStatus:
    """A relation's applied high-water mark: manifest sequence + freshness epoch.

    ``epoch`` is 0 when the owner never attested the relation.
    """

    relation_name: str
    sequence: int
    epoch: int


@dataclass(frozen=True)
class ReplicaFramesRequest:
    """Ask a primary for the owner-signed WAL frames from ``after_sequence`` on.

    ``after_sequence`` is the requesting replica's applied sequence; the
    primary answers with every retained update frame at or beyond it (plus
    freshness attestations, which carry no sequence cost).
    """

    relation_name: str
    after_sequence: int


@dataclass(frozen=True)
class ReplicaFrames:
    """The primary's WAL suffix as raw owner-signed frames.

    ``base_sequence`` is the earliest sequence the primary can still replay
    from its WAL (its checkpoint floor).  A replica whose applied sequence is
    *below* it cannot catch up incrementally — the primary has compacted past
    it — and must re-bootstrap from a fresh snapshot.
    """

    relation_name: str
    base_sequence: int
    frames: Tuple[bytes, ...]


@dataclass(frozen=True)
class ReplicaSnapshotRequest:
    """Ask a primary for a full storage snapshot (fresh-join bootstrap).

    Served only when the primary was started with
    ``ServerConfig(serve_replication=True)`` — snapshot shipping is an
    explicit operator opt-in, never an ambient capability of every server.
    """


@dataclass(frozen=True)
class ReplicaSnapshot:
    """A storage root as ``(relative path, bytes)`` pairs.

    Checkpoints and WAL files are owner-signed content the replica re-verifies
    during recovery, and the relation-store copy carries the owner's chain
    signatures next to the rows, so nothing in the snapshot is trusted as-is.
    The per-relation owner *signing* keys (``keys.json``) never travel on
    this channel: they are provisioned out-of-band (see
    :func:`~repro.service.replication.bootstrap_replica_root`), and a
    snapshot that names a key file is refused by the receiving side.
    """

    files: Tuple[Tuple[str, bytes], ...]


_ROW = codec.MapField(codec.STR, codec.SCALAR)

codec.register_artifact(0x40, ListRelationsRequest, [])
codec.register_artifact(
    0x41,
    RelationListing,
    [("entries", codec.TupleField(codec.PairField(codec.STR, codec.BYTES)))],
)
codec.register_artifact(0x42, ManifestRequest, [("relation_name", codec.STR)])
codec.register_artifact(
    0x43, ManifestResponse, [("manifest", codec.NestedField(RelationManifest))]
)
codec.register_artifact(
    0x44,
    QueryRequest,
    [
        ("manifest_id", codec.BYTES),
        ("query", codec.NestedField(Query)),
        ("role", codec.OptionalField(codec.STR)),
    ],
)
codec.register_artifact(
    0x45,
    QueryResponse,
    [
        ("rows", codec.TupleField(_ROW)),
        ("proof", codec.OptionalField(codec.NestedField(RangeQueryProof))),
        ("manifest_id", codec.BYTES),
        ("attestation", codec.OptionalField(codec.NestedField(FreshnessAttestation))),
    ],
)
codec.register_artifact(
    0x46,
    JoinRequest,
    [
        ("left_manifest_id", codec.BYTES),
        ("right_manifest_id", codec.BYTES),
        ("join", codec.NestedField(JoinQuery)),
        ("role", codec.OptionalField(codec.STR)),
    ],
)
codec.register_artifact(
    0x47,
    JoinResponse,
    [
        ("rows", codec.TupleField(_ROW)),
        ("left_rows", codec.TupleField(_ROW)),
        ("proof", codec.OptionalField(codec.NestedField(JoinQueryProof))),
        ("left_manifest_id", codec.BYTES),
        ("right_manifest_id", codec.BYTES),
        ("left_attestation", codec.OptionalField(codec.NestedField(FreshnessAttestation))),
        ("right_attestation", codec.OptionalField(codec.NestedField(FreshnessAttestation))),
    ],
)
codec.register_artifact(
    0x48,
    ErrorResponse,
    [("code", codec.STR), ("reason", codec.STR), ("message", codec.STR)],
)
codec.register_artifact(
    0x49, RotationRequest, [("relation_name", codec.STR)]
)
codec.register_artifact(
    0x4A, ManifestByIdRequest, [("manifest_id", codec.BYTES)]
)
codec.register_artifact(
    0x4B,
    AttestationPush,
    [("attestation", codec.NestedField(FreshnessAttestation))],
)
codec.register_artifact(
    0x4C,
    AttestationAck,
    [
        ("relation_name", codec.STR),
        ("sequence", codec.INT),
        ("epoch", codec.INT),
    ],
)
codec.register_artifact(
    0x4D, AttestationRequest, [("relation_name", codec.STR)]
)
codec.register_artifact(
    0x4E, ReplicationStatusRequest, [("relation_name", codec.STR)]
)
codec.register_artifact(
    0x4F,
    ReplicationStatus,
    [
        ("relation_name", codec.STR),
        ("sequence", codec.INT),
        ("epoch", codec.INT),
    ],
)
codec.register_artifact(
    0x53,
    ReplicaFramesRequest,
    [("relation_name", codec.STR), ("after_sequence", codec.INT)],
)
codec.register_artifact(
    0x54,
    ReplicaFrames,
    [
        ("relation_name", codec.STR),
        ("base_sequence", codec.INT),
        ("frames", codec.TupleField(codec.BYTES)),
    ],
)
codec.register_artifact(0x55, ReplicaSnapshotRequest, [])
codec.register_artifact(
    0x56,
    ReplicaSnapshot,
    [("files", codec.TupleField(codec.PairField(codec.STR, codec.BYTES)))],
)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(message) -> bytes:
    """The length-prefixed wire frame of one message.

    Exposed separately from :func:`send_message` so pipelining clients can
    concatenate many frames into a single ``sendall`` — one syscall and one
    network round trip for a whole batch of requests.
    """
    payload = encode(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise ServiceProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return len(payload).to_bytes(4, "big") + payload


def send_message(sock: socket.socket, message) -> None:
    """Encode ``message`` and write it as one length-prefixed frame."""
    sock.sendall(encode_frame(message))


def _recv_exactly(
    sock: socket.socket, count: int, mid_frame: bool = False
) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary.

    A socket timeout with **zero** bytes read (and ``mid_frame`` False) means
    the peer is idle between frames: the timeout propagates and no data is
    lost.  A timeout after part of the data arrived — or anywhere once a
    frame has begun — must *not* discard the partial bytes (that would
    desynchronise the stream), so the read keeps resuming until the peer has
    been silent mid-frame for :data:`MID_FRAME_STALL_SECONDS`.
    """
    chunks = []
    received = 0
    stall_deadline = None
    while received < count:
        try:
            chunk = sock.recv(count - received)
        except socket.timeout:
            if received == 0 and not mid_frame:
                raise  # idle between frames; nothing consumed, nothing lost
            now = time.monotonic()
            if stall_deadline is None:
                stall_deadline = now + MID_FRAME_STALL_SECONDS
            elif now >= stall_deadline:
                raise ServiceProtocolError(
                    f"peer stalled mid-frame ({received}/{count} bytes)"
                ) from None
            continue
        stall_deadline = None
        if not chunk:
            if received == 0 and not mid_frame:
                return None
            raise ServiceProtocolError(
                f"connection closed mid-frame ({received}/{count} bytes)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one raw frame payload; None on clean EOF."""
    header = _recv_exactly(sock, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ServiceProtocolError(
            f"announced frame of {length} bytes exceeds the cap"
        )
    return _recv_exactly(sock, length, mid_frame=True)


def recv_message(sock: socket.socket):
    """Read and decode one message; None on clean EOF.

    Decoding errors surface as :class:`~repro.wire.errors.WireFormatError`
    (a subclass of :class:`~repro.core.errors.ReproError`), never as raw
    exceptions.
    """
    payload = recv_frame(sock)
    if payload is None:
        return None
    return decode(payload)
