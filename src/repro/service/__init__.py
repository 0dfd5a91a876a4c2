"""Publication service: an async pipelined server, a verifying client, a live owner.

This package turns the in-process owner/publisher/user pipeline into the
actual client/server deployment of the paper's Figure 3: a
:class:`PublicationServer` (a ``selectors`` event loop accepting pipelined
frames) fronts one or more shards of signed relations and ships query
answers plus verification objects as canonical wire bytes (:mod:`repro.wire`);
a :class:`VerifyingClient` decodes and verifies them with no access to
publisher state; an :class:`OwnerClient` authenticates as the data owner and
streams signed insert/delete/update deltas, rotating each relation's manifest
so querying clients can follow the data as it changes.
"""

from repro.service.chaos import (
    CHAOS_FAULTS,
    ChaosProxy,
    ChaosRegistry,
    chaos_registry_from_env,
)
from repro.service.client import (
    QuerySpec,
    ServiceConnection,
    VerifiedJoinResult,
    VerifiedResult,
    VerifyingClient,
)
from repro.service.config import FreshnessPolicy, ServerConfig, StorageConfig
from repro.service.demo import build_demo_router, build_demo_world
from repro.service.failover import EndpointPool, FailoverClient, FailoverExhausted
from repro.service.handler import RequestHandler
from repro.service.owner import (
    OwnerClient,
    build_attestation,
    build_update_request,
    delta_sequence_cost,
)
from repro.service.protocol import (
    AttestationAck,
    AttestationPush,
    AttestationRequest,
    ConnectionRefusedTransportError,
    ErrorResponse,
    FreshnessAttestation,
    JoinRequest,
    JoinResponse,
    ListRelationsRequest,
    ManifestByIdRequest,
    ManifestRequest,
    ManifestResponse,
    ManifestRotated,
    OwnerAuthError,
    QueryRequest,
    QueryResponse,
    RecordDelta,
    RelationListing,
    RemoteError,
    ReplicaFrames,
    ReplicaFramesRequest,
    ReplicaSnapshot,
    ReplicaSnapshotRequest,
    ReplicationStatus,
    ReplicationStatusRequest,
    ResetTransportError,
    RotationRequest,
    ServiceError,
    ServiceProtocolError,
    StaleAnswerError,
    StaleManifestError,
    TimeoutTransportError,
    TransportError,
    UnreachableTransportError,
    UpdateRequest,
    UpdateResponse,
)
from repro.service.replication import (
    ReplicationError,
    ReplicationFollower,
    bootstrap_replica_root,
)
from repro.service.retry import RetriesExhausted, RetryPolicy
from repro.service.router import (
    EvictedManifestError,
    ShardRouter,
    ShardTarget,
    UnknownManifestError,
)
from repro.service.server import PublicationServer

__all__ = [
    "AttestationAck",
    "AttestationPush",
    "AttestationRequest",
    "CHAOS_FAULTS",
    "ChaosProxy",
    "ChaosRegistry",
    "ConnectionRefusedTransportError",
    "EndpointPool",
    "ErrorResponse",
    "EvictedManifestError",
    "FailoverClient",
    "FailoverExhausted",
    "FreshnessAttestation",
    "FreshnessPolicy",
    "JoinRequest",
    "JoinResponse",
    "ListRelationsRequest",
    "ManifestByIdRequest",
    "ManifestRequest",
    "ManifestResponse",
    "ManifestRotated",
    "OwnerAuthError",
    "OwnerClient",
    "PublicationServer",
    "QueryRequest",
    "QuerySpec",
    "RequestHandler",
    "QueryResponse",
    "RecordDelta",
    "RelationListing",
    "RemoteError",
    "ReplicaFrames",
    "ReplicaFramesRequest",
    "ReplicaSnapshot",
    "ReplicaSnapshotRequest",
    "ReplicationError",
    "ReplicationFollower",
    "ReplicationStatus",
    "ReplicationStatusRequest",
    "ResetTransportError",
    "RetriesExhausted",
    "RetryPolicy",
    "RotationRequest",
    "ServerConfig",
    "ServiceConnection",
    "ServiceError",
    "ServiceProtocolError",
    "ShardRouter",
    "ShardTarget",
    "StaleAnswerError",
    "StaleManifestError",
    "StorageConfig",
    "TimeoutTransportError",
    "TransportError",
    "UnreachableTransportError",
    "UnknownManifestError",
    "UpdateRequest",
    "UpdateResponse",
    "VerifiedJoinResult",
    "VerifiedResult",
    "VerifyingClient",
    "bootstrap_replica_root",
    "build_attestation",
    "build_demo_router",
    "build_demo_world",
    "build_update_request",
    "chaos_registry_from_env",
    "delta_sequence_cost",
]
