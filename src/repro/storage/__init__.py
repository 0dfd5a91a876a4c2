"""Durable publications: relation store, WAL, checkpoints, crash recovery.

This package makes a publication, and every acknowledged owner update to it,
survive the process.  The design inherits the paper's trust model instead of
adding a new one: rows are stored with the owner's chain signatures
(:mod:`repro.storage.relstore`), the log's payloads are the
already-owner-signed wire frames (:mod:`repro.storage.wal`), checkpoints
carry owner-signed manifest rotations (:mod:`repro.storage.checkpoint`), and
recovery re-verifies every signature while replaying through the live
``apply_deltas`` path (:mod:`repro.storage.recovery`) — so whoever holds the
disk can truncate history but never forge it.

``python -m repro.storage.walctl`` inspects, verifies and repairs a storage
root offline; :mod:`repro.storage.faults` is the deterministic failpoint
registry the crash-test harness drives.
"""

from repro.storage.checkpoint import (
    Checkpoint,
    load_checkpoint,
    load_keys,
    save_keys,
    write_checkpoint,
)
from repro.storage.errors import (
    CheckpointCorruptError,
    RecoveryError,
    StorageError,
    WalCorruptError,
)
from repro.storage.faults import (
    FAILPOINTS,
    FaultInjected,
    FaultRegistry,
    fault_registry_from_env,
)
from repro.storage.recovery import rebuild_stored_publication, recover_router
from repro.storage.relstore import (
    ChainState,
    RelationStore,
    StoredRelation,
    StoredSignedRelation,
    build_stored_chain,
    dump_publication,
    stored_current_rotation,
)
from repro.storage.store import PublicationStorage, open_publication_storage
from repro.storage.wal import (
    FSYNC_POLICIES,
    WalScan,
    WriteAheadLog,
    iter_wal_records,
    scan_wal,
)

__all__ = [
    "ChainState",
    "Checkpoint",
    "CheckpointCorruptError",
    "FAILPOINTS",
    "FSYNC_POLICIES",
    "FaultInjected",
    "FaultRegistry",
    "PublicationStorage",
    "RecoveryError",
    "RelationStore",
    "StorageError",
    "StoredRelation",
    "StoredSignedRelation",
    "WalCorruptError",
    "WalScan",
    "WriteAheadLog",
    "build_stored_chain",
    "dump_publication",
    "fault_registry_from_env",
    "iter_wal_records",
    "load_checkpoint",
    "load_keys",
    "open_publication_storage",
    "rebuild_stored_publication",
    "recover_router",
    "save_keys",
    "scan_wal",
    "stored_current_rotation",
    "write_checkpoint",
]
