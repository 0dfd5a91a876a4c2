"""Frozen configuration objects for the serving stack.

Every tunable of :class:`~repro.service.server.PublicationServer` and of the
durable storage layer lives in one of two value objects instead of a kwarg
sprawl:

* :class:`ServerConfig` — socket binding and concurrency: bind address,
  connection cap, response cache, per-connection pipelining cap, replica
  role.
* :class:`StorageConfig` — durability: the storage root, the WAL fsync
  policy and the checkpoint cadence.
* :class:`FreshnessPolicy` — the client-side bounded-staleness contract: how
  old an owner-signed freshness attestation may be before an answer is
  refused, and the clock that judges it.

All are frozen dataclasses that validate on construction, so an invalid
configuration fails where it is written, not where it is first used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.storage.wal import FSYNC_POLICIES

__all__ = ["FreshnessPolicy", "ServerConfig", "StorageConfig"]


@dataclass(frozen=True)
class FreshnessPolicy:
    """How stale an answer a :class:`~repro.service.client.VerifyingClient` accepts.

    ``max_staleness`` bounds, in seconds, how long ago the owner must have
    issued the freshness attestation stamped on an answer; answers whose
    attestation is missing, expired, older than the bound, mismatched against
    the attributed manifest, or regressed behind an already-accepted epoch
    raise a typed :class:`~repro.service.protocol.StaleAnswerError`.

    ``clock`` supplies the current unix time in float seconds and defaults to
    :func:`time.time`.  It is injectable on purpose: every freshness decision
    goes through it (no verification path reads the wall clock directly), so
    tests pin a fake clock and exercise expiry deterministically — and the
    honest caveat is that in production the guarantee is only as good as the
    skew between this clock and the owner's.
    """

    max_staleness: float = 30.0
    clock: Callable[[], float] = field(default=time.time, compare=False)

    def __post_init__(self) -> None:
        if self.max_staleness <= 0:
            raise ValueError("max_staleness must be a positive number of seconds")
        if not callable(self.clock):
            raise ValueError("clock must be a callable returning float seconds")

    def now_ms(self) -> int:
        """The policy clock's current time in integer milliseconds."""
        return int(self.clock() * 1000)

    @property
    def max_staleness_ms(self) -> int:
        return int(self.max_staleness * 1000)


@dataclass(frozen=True)
class ServerConfig:
    """How a :class:`~repro.service.server.PublicationServer` binds and serves.

    See the server class for the fields' full semantics.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Maximum concurrently open connections (historical name: the
    #: thread-pool ancestor had one thread per connection).
    max_workers: int = 8
    #: Encoded-response cache for hot query/join frames.
    response_cache: bool = True
    #: Per-connection cap on pipelined frames answered between socket
    #: writes; at it the loop flushes the responses before parsing on.
    max_pipelined_frames: int = 256
    #: Serve reads only: direct owner updates and attestation pushes are
    #: refused with a typed ``ReadOnlyReplica`` error.  Set on replica
    #: servers, whose state mutates exclusively through the replication
    #: follower (see :mod:`repro.service.replication`).
    read_only: bool = False
    #: Serve the replication feed (``ReplicaFramesRequest`` /
    #: ``ReplicaSnapshotRequest``) to peers.  Off by default: a snapshot is
    #: the entire storage root and the frame feed is every relation's full
    #: update history, so acting as a replication source is an explicit
    #: operator decision, not an ambient capability of every server.
    #: ``ReplicationStatusRequest`` (the applied ``(sequence, epoch)`` mark)
    #: stays answerable regardless — it is observability, not data.
    serve_replication: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port {self.port} is not a TCP port")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_pipelined_frames < 1:
            raise ValueError("max_pipelined_frames must be >= 1")


@dataclass(frozen=True)
class StorageConfig:
    """How a publication root persists rows, digests and logs.

    ``root`` may stay empty when the storage path is supplied separately
    (e.g. a test that builds the directory itself);
    :func:`~repro.storage.store.open_publication_storage` treats an empty
    root as "use the positional argument".
    """

    root: str = ""
    #: Not a choice: rows live in the per-shard sqlite relation store and
    #: ``"sqlite"`` is the only value accepted.  The field survives because
    #: the frozen ``benchmarks/e2e/common.py`` passes ``backend="sqlite"``; a
    #: later benchmark PR drops that argument, and then this field.
    backend: str = "sqlite"
    #: WAL fsync policy: ``always`` / ``batch`` / ``off``.
    fsync: str = "always"
    #: Checkpoint + compact a relation's WAL every N applied updates
    #: (0 = only explicit checkpoints).
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.backend != "sqlite":
            raise ValueError(
                f"unknown backend {self.backend!r}; the only store is 'sqlite'"
            )
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {self.fsync!r}; known: {FSYNC_POLICIES}"
            )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
