"""Verifiable replica groups: replicas as continuous recovery from the network.

The paper's trust model makes replication almost free of machinery: clients
verify authenticity and completeness cryptographically, so a read replica
needs no trust establishment at all — any node that can replay the
owner-signed update stream can serve, and a lying or lagging replica is
caught by the existing verifier + :class:`~repro.service.config.FreshnessPolicy`
rather than by fencing or consensus.

Concretely, a replica is a normal read-only
:class:`~repro.service.server.PublicationServer` over its own durable storage
root, plus a :class:`ReplicationFollower` thread that polls the primary for
the exact owner-signed wire frames the primary already WAL-logs
(``UpdateRequest`` / ``FreshnessAttestation``) and applies them through
:meth:`~repro.service.handler.RequestHandler.apply_replicated_frame` — the
same signature-verified update pipeline crash recovery replays, which is what
makes a replica literally *continuous recovery from the network*:

* a forged or tampered frame fails the owner-signature check and is refused,
* manifest rotations are not shipped at all — the replica re-derives them
  (deterministic FDH signing makes the re-stamp byte-identical),
* catch-up after a disconnect is just the next poll (the primary serves its
  WAL suffix from any ``after_sequence`` at or above its checkpoint floor),
* a fresh join ships the primary's storage root once — checkpoints, WALs
  and a consistent copy of each shard's relation store
  (:func:`bootstrap_replica_root`) — and recovers it locally through
  :func:`~repro.storage.recovery.recover_router`: the replica attaches to
  the owner's stored signatures, and what it serves is checked by every
  verifying client exactly as the primary's answers are.

Two things deliberately stay *out* of band of this protocol.  Serving frames
and snapshots is an operator opt-in
(``ServerConfig(serve_replication=True)``), not an ambient capability: a
snapshot is the primary's entire storage root, so handing it to any peer
that asks would sidestep every per-query control.  And the per-relation
owner *signing* keys (``shards/<shard>/keys.json``) never travel on the
replication channel at all — a replica that re-stamps rotations gets its
keys through a trusted local path (``keys_from``), and a snapshot that tries
to deliver a key file is refused by the receiving side.

Lag is observable: every server answers ``ReplicationStatusRequest`` with its
applied ``(sequence, epoch)`` high-water mark, and ``walctl inspect
--replication`` computes the same mark offline from a storage root.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.service.client import ServiceConnection
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    AttestationPush,
    ReplicaFrames,
    ReplicaFramesRequest,
    ReplicaSnapshot,
    ReplicaSnapshotRequest,
    ReplicationStatus,
    ReplicationStatusRequest,
    ServiceError,
    StaleAnswerError,
    StaleManifestError,
)
from repro.wire import decode, encode
from repro.wire.updates import (
    FreshnessAttestation,
    ManifestRotated,
    UpdateRequest,
)

__all__ = [
    "ReplicationError",
    "ReplicationFollower",
    "answer_replica_frames",
    "answer_replica_snapshot",
    "answer_replication_status",
    "bootstrap_replica_root",
]


class ReplicationError(ServiceError):
    """A replication exchange could not be served or applied."""

    def __init__(self, message: str, reason: str = "replication") -> None:
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# Primary-side serving (called from RequestHandler.dispatch)
# ---------------------------------------------------------------------------


def answer_replication_status(router, request: ReplicationStatusRequest) -> ReplicationStatus:
    """One relation's applied ``(sequence, epoch)`` — primary or replica."""
    manifest = router.manifest_by_name(request.relation_name)
    state = router.attestation_state(request.relation_name)
    return ReplicationStatus(
        relation_name=request.relation_name,
        sequence=manifest.sequence,
        epoch=0 if state is None else state[1],
    )


def answer_replica_frames(
    router, storage, request: ReplicaFramesRequest
) -> ReplicaFrames:
    """The WAL suffix a replica at ``after_sequence`` still needs.

    Served under the relation's shard lock so the frame list is a consistent
    snapshot of the log.  Rotation records are omitted: replicas re-derive
    rotations (and re-stamped attestations) deterministically when they apply
    the update that caused them.  Of the logged freshness attestations only
    the newest is shipped — older ones are superseded by definition and the
    follower would refuse them as regressions anyway.
    """
    if storage is None:
        raise ReplicationError(
            "this server has no durable storage to replicate from",
            reason="replication-unsupported",
        )
    name = request.relation_name
    target = router.route(router.current_id(name))
    with target.lock:
        frames = storage.relation(name).wal.replay()
        # Not manifest_by_name(): that takes this same (non-reentrant) lock.
        head_sequence = target.publisher.signed_relation(
            target.relation_name
        ).manifest.sequence
    base_sequence: Optional[int] = None
    shipped: List[bytes] = []
    last_attestation: Optional[bytes] = None
    for frame in frames:
        artifact = decode(frame)
        if isinstance(artifact, UpdateRequest):
            if base_sequence is None:
                base_sequence = artifact.sequence
            if artifact.sequence >= request.after_sequence:
                shipped.append(frame)
        elif isinstance(artifact, FreshnessAttestation):
            last_attestation = frame
        # ManifestRotated records are advisory — derived state, not shipped.
    if last_attestation is not None:
        shipped.append(last_attestation)
    return ReplicaFrames(
        relation_name=name,
        # An empty (or update-free) WAL means the checkpoint already covers
        # everything up to the live head: the head is the replay floor.
        base_sequence=head_sequence if base_sequence is None else base_sequence,
        frames=tuple(shipped),
    )


def answer_replica_snapshot(router, storage) -> ReplicaSnapshot:
    """The storage root's *public* files as ``(relative path, bytes)`` pairs.

    Each shard is read under its lock: every relation's checkpoint + WAL pair
    together with a backup-API copy of the shard's relation store
    (:meth:`~repro.storage.relstore.RelationStore.snapshot`), so a shard's
    files are one consistent cut — the store holds exactly the updates the
    WAL says were applied.  The per-relation owner signing keys
    (``keys.json``) are **never** included: everything shipped here is
    owner-signed public content, while the keys would let any peer forge
    owner updates and attestations — replicas obtain them out-of-band (see
    :func:`bootstrap_replica_root`).

    A snapshot travels as one frame; a root that does not fit is refused here
    with a typed ``snapshot-too-large`` instead of being sent for the peer's
    length check to drop.
    """
    if storage is None:
        raise ReplicationError(
            "this server has no durable storage to replicate from",
            reason="replication-unsupported",
        )
    root = storage.root

    def _read(path: str) -> Tuple[str, bytes]:
        with open(path, "rb") as handle:
            return os.path.relpath(path, root), handle.read()

    files = [_read(os.path.join(root, "storage.json"))]
    for shard, names in sorted(storage.layout.items()):
        # One lock per shard, shared by every relation it hosts.
        with router.route(router.current_id(names[0])).lock:
            for name in sorted(names):
                files.append(_read(storage.checkpoint_path(shard, name)))
                files.append(_read(storage.wal_path(shard, name)))
            files.append(
                (
                    os.path.relpath(storage.relstore_path(shard), root),
                    storage.relation_store(shard).snapshot(),
                )
            )
    size = sum(len(relative) + len(payload) for relative, payload in files)
    if size > MAX_FRAME_BYTES:
        raise ReplicationError(
            f"the storage root holds {size} bytes of snapshot files, over the "
            f"{MAX_FRAME_BYTES}-byte cap on the one frame a snapshot travels in",
            reason="snapshot-too-large",
        )
    return ReplicaSnapshot(files=tuple(files))


# ---------------------------------------------------------------------------
# Replica-side bootstrap + follower
# ---------------------------------------------------------------------------


def bootstrap_replica_root(
    primary_host: str,
    primary_port: int,
    root: str,
    keys_from: Optional[str] = None,
    timeout: float = 10.0,
) -> bool:
    """Materialise a fresh replica storage root from the primary's snapshot.

    Returns True when a snapshot was fetched and written, False when ``root``
    already holds a storage root (catch-up handles the rest).  Nothing
    fetched is trusted as-is: the written checkpoints and WAL frames are
    owner-signed content that :func:`~repro.storage.recovery.recover_router`
    re-verifies when the replica server opens the root, and the relation
    store's rows are only ever served next to the owner's chain signatures,
    which clients verify.

    The owner *signing* keys are the one thing never fetched from the
    primary: a snapshot entry naming a key file is refused outright, and a
    fresh bootstrap instead requires ``keys_from`` — a trusted local storage
    root (typically mounted, copied by the operator, or the primary's own
    root in single-host tests) whose per-shard ``keys.json`` files are
    installed into the replica with mode 0600.
    """
    from repro.storage.store import PublicationStorage

    if PublicationStorage.exists(root):
        return False
    if keys_from is None:
        raise ReplicationError(
            "a fresh replica bootstrap needs keys_from: owner signing keys "
            "are provisioned out-of-band from a trusted path, never fetched "
            "from the primary",
            reason="keys-required",
        )
    with ServiceConnection(primary_host, primary_port, timeout=timeout) as connection:
        snapshot = connection._request(ReplicaSnapshotRequest(), ReplicaSnapshot)
    shards = set()
    for relative, payload in snapshot.files:
        if os.path.isabs(relative) or ".." in relative.split("/"):
            raise ReplicationError(
                f"snapshot names an unsafe path {relative!r}",
                reason="snapshot-unsafe-path",
            )
        if os.path.basename(relative) == "keys.json":
            # Signing keys must never arrive over the network; a primary
            # (or whatever answered in its place) shipping one is hostile
            # or misconfigured either way.
            raise ReplicationError(
                f"snapshot tries to deliver a signing key file {relative!r}; "
                "replica keys are provisioned out-of-band only",
                reason="snapshot-delivers-keys",
            )
        parts = relative.split("/")
        if len(parts) >= 2 and parts[0] == "shards":
            shards.add(parts[1])
        path = os.path.join(root, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    for shard in sorted(shards):
        source = os.path.join(keys_from, "shards", shard, "keys.json")
        target = os.path.join(root, "shards", shard, "keys.json")
        try:
            with open(source, "rb") as handle:
                key_bytes = handle.read()
        except OSError as error:
            raise ReplicationError(
                f"keys_from path {keys_from!r} holds no signing keys for "
                f"shard {shard!r} ({error})",
                reason="keys-missing",
            ) from error
        descriptor = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(key_bytes)
        os.chmod(target, 0o600)
    return True


class ReplicationFollower:
    """Pulls the primary's owner-signed frames into a replica server.

    One daemon thread, one persistent connection: every ``poll_interval``
    seconds it asks the primary for each relation's WAL suffix beyond the
    replica's applied sequence and applies the returned frames through the
    replica handler's verified update pipeline.  A connection failure just
    makes the next poll reconnect — catch-up needs no special mode.

    The follower stops (with :attr:`needs_resync` set) when the primary has
    checkpoint-compacted past the replica's applied sequence: incremental
    catch-up is impossible then, and the operator re-bootstraps the replica
    from a fresh snapshot.
    """

    def __init__(
        self,
        server,
        primary_host: str,
        primary_port: int,
        poll_interval: float = 0.05,
        timeout: float = 10.0,
    ) -> None:
        self.handler = server.handler
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.applied_frames = 0
        self.polls = 0
        self.last_error: Optional[Exception] = None
        self.needs_resync = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ReplicationFollower":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run,
                name=f"replication-follower-{self.primary_host}:{self.primary_port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ReplicationFollower":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- observability -------------------------------------------------------

    def status(self) -> Dict[str, Tuple[int, int]]:
        """Locally applied ``(sequence, epoch)`` per relation."""
        router = self.handler.router
        report = {}
        for name, _ in router.listing():
            state = router.attestation_state(name)
            report[name] = (
                router.manifest_by_name(name).sequence,
                0 if state is None else state[1],
            )
        return report

    # -- the poll loop -------------------------------------------------------

    def _run(self) -> None:
        connection = ServiceConnection(
            self.primary_host, self.primary_port, timeout=self.timeout
        )
        try:
            while not self._stop.is_set():
                try:
                    self._poll_once(connection)
                    self.last_error = None
                except (ReproError, OSError) as error:
                    self.last_error = error
                    connection.close()
                    if self.needs_resync:
                        return
                self._stop.wait(self.poll_interval)
        finally:
            connection.close()

    def _poll_once(self, connection: ServiceConnection) -> None:
        router = self.handler.router
        self.polls += 1
        for name in sorted(name for name, _ in router.listing()):
            applied = router.manifest_by_name(name).sequence
            reply = connection._request(
                ReplicaFramesRequest(relation_name=name, after_sequence=applied),
                ReplicaFrames,
            )
            if applied < reply.base_sequence:
                self.needs_resync = True
                raise ReplicationError(
                    f"primary compacted past sequence {applied} of {name!r} "
                    f"(its replay floor is {reply.base_sequence}); this "
                    "replica must re-bootstrap from a fresh snapshot",
                    reason="replication-gap",
                )
            for frame in reply.frames:
                if self._stop.is_set():
                    return
                self._apply(name, frame)

    def _apply(self, name: str, frame: bytes) -> None:
        router = self.handler.router
        artifact = decode(frame)
        if isinstance(artifact, UpdateRequest):
            current = router.manifest_by_name(name).sequence
            if artifact.sequence < current:
                return  # already applied (the frame raced an earlier poll)
            if artifact.sequence > current:
                self.needs_resync = True
                raise ReplicationError(
                    f"primary shipped {name!r} frames from sequence "
                    f"{artifact.sequence}, but this replica is at {current}",
                    reason="replication-gap",
                )
            self.handler.apply_replicated_frame(frame)
            self.applied_frames += 1
        elif isinstance(artifact, FreshnessAttestation):
            state = router.attestation_state(name)
            if state is not None and (artifact.sequence, artifact.epoch) <= state:
                return  # superseded by a rotation re-stamp or an earlier poll
            try:
                self.handler.apply_replicated_frame(
                    encode(AttestationPush(attestation=artifact))
                )
            except (StaleAnswerError, StaleManifestError):
                return  # regressed behind derived state — nothing to do
            self.applied_frames += 1
        elif isinstance(artifact, ManifestRotated):
            return  # derived state; the replica re-stamps its own rotations
        else:
            raise ReplicationError(
                f"primary shipped a foreign {type(artifact).__name__} frame",
                reason="replication-foreign-frame",
            )
