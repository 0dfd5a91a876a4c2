"""On-disk layout and runtime handles of a durable publication.

One :class:`PublicationStorage` owns a directory tree::

    <root>/
      storage.json                  shard -> hosted relation names
      shards/<shard>/keys.json      per-relation owner signing keys (0600)
      shards/<shard>/<rel>.ckpt     latest checkpoint (the signed rotation)
      shards/<shard>/<rel>.wal      updates applied since that checkpoint
      shards/<shard>/relstore.db    rows, stored roots, signatures and
                                    manifest state
                                    (:mod:`repro.storage.relstore`)

Rows and chain artifacts live in a per-shard
:class:`~repro.storage.relstore.RelationStore` and nowhere else: a checkpoint
carries only the owner-signed rotation, recovery *attaches* to the stored
signatures instead of materialising (or re-signing) rows, and the WAL replays
whatever landed after the store's last committed update boundary.

The WAL is per shard in the sense of the directory — every relation of a
shard logs under the shard's directory and shares its fsync policy — but
segmented per relation, so recovery replays each relation's history as one
strictly ordered sequence without cross-relation interleaving bookkeeping
(relations are independent: the router locks per shard, and each relation's
sequence is its own total order).

Runtime API (called by :class:`~repro.service.handler.RequestHandler`, under
the shard's write lock):

* :meth:`log_update` — append the owner-signed ``UpdateRequest`` frame and
  apply the fsync policy *before* the batch is applied or acknowledged.
* :meth:`log_rotation` — append the resulting ``ManifestRotated`` frame and,
  every ``checkpoint_every`` updates, snapshot the relation and compact its
  log.
* :meth:`log_attestation` — append an owner-pushed
  ``FreshnessAttestation`` frame (and track it in sqlite chain state), so
  recovery resumes the freshness chain exactly where the crash left it.

Bootstrap (:meth:`PublicationStorage.create`) writes a freshly built
router to disk — keys, the stored publications, a genesis checkpoint per
relation — and leaves nothing open.  Opening a root
(:meth:`PublicationStorage.open`) only opens the log handles (truncating
torn tails); rebuilding publishers and replaying history is
:func:`repro.storage.recovery.recover_router`'s job.
:func:`open_publication_storage` — "bootstrap or recover" in one call — is
the one way to obtain a router that serves over a root.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.router import ShardRouter, ShardTarget
from repro.storage.checkpoint import load_checkpoint, load_keys, save_keys, write_checkpoint
from repro.storage.errors import StorageError
from repro.storage.faults import FaultRegistry
from repro.storage.relstore import RelationStore, dump_publication
from repro.storage.wal import FSYNC_POLICIES, WriteAheadLog, _fsync_directory
from repro.wire import encode
from repro.wire.updates import FreshnessAttestation, ManifestRotated, UpdateRequest

__all__ = [
    "STORAGE_FORMAT",
    "PublicationStorage",
    "check_storage_format",
    "open_publication_storage",
    "relation_file_stem",
]

#: 2: ``relstore.db``'s ``entries.digest`` holds each chain entry's
#: representation-tree roots (format 1 held its ``g`` digest in the same bytes).
#: 3: every stored relation is a signature chain; ``chain_state`` has no
#: ``scheme`` column (format 2's ``NOT NULL`` one refuses this build's writes).
#: 4: every stored rotation, checkpoint, WAL frame and applied-update response
#: holds a wire-v6 manifest, which names no digest-scheme kind.
#: 5: every stored frame carries wire version 7 (the row payload frames keep
#: their layout; only the version byte moves).
STORAGE_FORMAT = 5

_MANIFEST_FILE = "storage.json"
_KEYS_FILE = "keys.json"
_SHARDS_DIR = "shards"
_RELSTORE_FILE = "relstore.db"


def check_storage_format(root: str, found: object) -> None:
    """Refuse a root this build cannot serve, naming the remedy."""
    if found != STORAGE_FORMAT:
        raise StorageError(
            f"storage root {root!r} has format {found!r}; this build reads format "
            f"{STORAGE_FORMAT} — republish the relations into a fresh root"
        )


def relation_file_stem(name: str) -> str:
    """A filesystem-safe stem for a hosting name (reversible, collision-free).

    Alphanumerics, ``_`` and ``-`` pass through; anything else becomes
    ``%XX``, so two distinct hosting names can never map to one file.
    """
    return "".join(
        ch if ch.isalnum() or ch in "_-" else f"%{ord(ch):02X}" for ch in name
    )


class _RelationStorage:
    """One relation's open log handle plus checkpoint bookkeeping."""

    __slots__ = (
        "shard",
        "name",
        "wal",
        "checkpoint_path",
        "updates_since_checkpoint",
    )

    def __init__(self, shard: str, name: str, wal: WriteAheadLog, checkpoint_path: str) -> None:
        self.shard = shard
        self.name = name
        self.wal = wal
        self.checkpoint_path = checkpoint_path
        self.updates_since_checkpoint = 0


class PublicationStorage:
    """Open handles over one durable publication root.

    Parameters
    ----------
    root:
        The storage directory.
    fsync:
        WAL durability policy (``always`` / ``batch`` / ``off``); see
        :mod:`repro.storage.wal`.
    checkpoint_every:
        Snapshot + compact a relation's log after this many applied update
        batches (0 disables automatic checkpoints; :meth:`checkpoint_now`
        stays available).
    faults:
        Optional failpoint registry threaded into the WAL and checkpoint
        writers (crash testing).
    """

    def __init__(
        self,
        root: str,
        fsync: str = "always",
        checkpoint_every: int = 0,
        faults: Optional[FaultRegistry] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; known: {FSYNC_POLICIES}")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.root = root
        self.fsync_policy = fsync
        self.checkpoint_every = checkpoint_every
        self.faults = faults
        self._lock = threading.Lock()
        self._relations: Dict[str, _RelationStorage] = {}
        self._stores: Dict[str, RelationStore] = {}
        self._layout: Dict[str, List[str]] = {}
        self._closed = False
        self.checkpoints_written = 0
        #: How this root came to be served: ``"recovered"`` (it existed) or
        #: ``"bootstrapped"`` (:func:`open_publication_storage` wrote it just
        #: now).  The demo server prints it so harnesses can assert which
        #: path ran.
        self.origin = "recovered"

    # -- layout helpers -------------------------------------------------------

    def shard_dir(self, shard: str) -> str:
        return os.path.join(self.root, _SHARDS_DIR, relation_file_stem(shard))

    def keys_path(self, shard: str) -> str:
        return os.path.join(self.shard_dir(shard), _KEYS_FILE)

    def checkpoint_path(self, shard: str, relation: str) -> str:
        return os.path.join(self.shard_dir(shard), relation_file_stem(relation) + ".ckpt")

    def wal_path(self, shard: str, relation: str) -> str:
        return os.path.join(self.shard_dir(shard), relation_file_stem(relation) + ".wal")

    def relstore_path(self, shard: str) -> str:
        return os.path.join(self.shard_dir(shard), _RELSTORE_FILE)

    def relation_store(self, shard: str) -> RelationStore:
        """The shard's row/digest store, opened lazily."""
        store = self._stores.get(shard)
        if store is None:
            store = RelationStore(
                self.relstore_path(shard), fsync=self.fsync_policy, faults=self.faults
            )
            self._stores[shard] = store
        return store

    @property
    def layout(self) -> Dict[str, List[str]]:
        """shard -> hosted relation names, as recorded in ``storage.json``."""
        return {shard: list(names) for shard, names in self._layout.items()}

    @staticmethod
    def exists(root: str) -> bool:
        return os.path.exists(os.path.join(root, _MANIFEST_FILE))

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str,
        router: ShardRouter,
        fsync: str = "always",
        faults: Optional[FaultRegistry] = None,
    ) -> None:
        """Write a fresh publication root from a built router.

        Rows, stored roots and signatures are mirrored byte-exactly into
        each shard's relation store (nothing is re-signed) and every relation
        gets a genesis checkpoint holding its owner-signed rotation.  Nothing
        stays open and ``router`` is not wired to the root: serving goes
        through :func:`open_publication_storage`, which reopens what this
        wrote through recovery.
        """
        if cls.exists(root):
            raise StorageError(f"storage root {root!r} is already initialised")
        storage = cls(root, fsync=fsync, faults=faults)
        os.makedirs(os.path.join(root, _SHARDS_DIR), exist_ok=True)
        layout: Dict[str, List[str]] = {}
        for shard_name, publisher in router.shards.items():
            os.makedirs(storage.shard_dir(shard_name), exist_ok=True)
            names = layout[shard_name] = sorted(publisher.database)
            publications = {
                name: (publisher.signed_relation(name), router.rotation(name)) for name in names
            }
            save_keys(
                storage.keys_path(shard_name),
                {name: signed.signature_scheme for name, (signed, _) in publications.items()},
            )
            dump_publication(
                storage.relstore_path(shard_name), publications, fsync=fsync, faults=faults
            )
            for name, (_, rotation) in publications.items():
                write_checkpoint(
                    storage.checkpoint_path(shard_name, name), name, rotation, faults=faults
                )
        manifest_path = os.path.join(root, _MANIFEST_FILE)
        with open(manifest_path + ".tmp", "w") as handle:
            json.dump(
                {"format": STORAGE_FORMAT, "shards": layout, "backend": "sqlite"},
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(manifest_path + ".tmp", manifest_path)
        _fsync_directory(root)

    @classmethod
    def open(
        cls,
        root: str,
        fsync: str = "always",
        checkpoint_every: int = 0,
        faults: Optional[FaultRegistry] = None,
    ) -> "PublicationStorage":
        """Open an initialised root: read the layout, open every log.

        Opening a log truncates a torn tail; a corrupt log raises a typed
        :class:`~repro.storage.errors.WalCorruptError` naming the offset.
        """
        manifest_path = os.path.join(root, _MANIFEST_FILE)
        try:
            with open(manifest_path, "r") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(
                f"storage root {root!r} is not initialised or unreadable: {error}"
            ) from error
        check_storage_format(root, document.get("format"))
        if document.get("backend") != "sqlite":
            raise StorageError(
                f"storage root {root!r} is marked backend "
                f"{document.get('backend')!r}; this build serves only roots "
                "whose rows live in the sqlite relation store"
            )
        storage = cls(
            root, fsync=fsync, checkpoint_every=checkpoint_every, faults=faults
        )
        storage._layout = {
            shard: list(names) for shard, names in document.get("shards", {}).items()
        }
        for shard_name, names in storage._layout.items():
            for relation_name in names:
                storage._open_relation(shard_name, relation_name)
        return storage

    def _open_relation(self, shard: str, relation: str) -> _RelationStorage:
        wal = WriteAheadLog(
            self.wal_path(shard, relation), fsync=self.fsync_policy, faults=self.faults
        )
        entry = _RelationStorage(shard, relation, wal, self.checkpoint_path(shard, relation))
        self._relations[relation] = entry
        return entry

    def relation(self, relation_name: str) -> _RelationStorage:
        try:
            return self._relations[relation_name]
        except KeyError as error:
            raise StorageError(
                f"storage root {self.root!r} does not hold relation {relation_name!r}"
            ) from error

    def load_shard_keys(self, shard: str):
        return load_keys(self.keys_path(shard))

    def load_relation_checkpoint(self, shard: str, relation: str):
        return load_checkpoint(self.checkpoint_path(shard, relation))

    # -- the update path ------------------------------------------------------

    def log_update(self, target: ShardTarget, frame: bytes) -> None:
        """Append one owner-signed update frame; durable per the fsync policy.

        Called *before* the batch is applied (and therefore before it is
        acknowledged): under ``fsync="always"``, by the time the owner sees a
        receipt the signed frame that produced it is on disk.
        """
        self.relation(target.relation_name).wal.append(frame)

    def log_attestation(
        self, target: ShardTarget, attestation: FreshnessAttestation
    ) -> None:
        """Append one owner-pushed freshness attestation; durable per policy.

        Called under the shard lock *before* the push is acknowledged, so an
        acked attestation survives a crash.  Only owner pushes are logged:
        the re-stamps :meth:`~repro.service.router.ShardRouter.record_rotation`
        derives on rotation use deterministic (FDH) signing, so WAL replay
        re-derives them byte-identically from the last pushed attestation
        plus the update frames that follow it.  The store's chain state
        additionally tracks the latest (possibly re-stamped) attestation via
        :meth:`log_rotation`'s ``attestation`` parameter.
        """
        entry = self.relation(target.relation_name)
        entry.wal.append(encode(attestation))
        store = self.relation_store(entry.shard)
        with store.transaction():
            store.set_chain_state(
                target.relation_name, attestation=encode(attestation)
            )

    @contextmanager
    def applied_update_scope(self, target: ShardTarget):
        """One atomic store transaction around a whole applied update.

        The live apply pipeline touches the relation store three times — the
        batch's row/digest writes, the rotation chain state, and the durable
        applied-update acknowledgement.  Grouping them under one outer
        transaction (the store's transactions nest) makes the on-disk
        invariant crash-proof: either the store holds the batch *and* can
        hand a resubmitting owner its original acknowledgement, or it holds
        neither and WAL replay re-applies the frame.  A kill between separate
        transactions would otherwise strand an applied batch whose
        resubmission can only answer "stale update".  Checkpoints must stay
        *outside* this scope: compacting the WAL against store state that
        still might roll back would lose the only replayable copy of the
        batch.
        """
        entry = self.relation(target.relation_name)
        with self.relation_store(entry.shard).transaction():
            yield

    @contextmanager
    def update_batch(self, target: ShardTarget):
        """Transaction scope for applying one update batch.

        Wrapping ``publisher.apply_deltas`` in this context groups the
        batch's per-record store writes into one SQLite transaction and
        stamps the batch-level ``previous_sequence`` — so a crash rolls the
        store back to a whole update boundary and the current rotation can
        be re-derived exactly.
        """
        entry = self.relation(target.relation_name)
        store = self.relation_store(entry.shard)
        signed = target.publisher.signed_relation(target.relation_name)
        version_before = signed.version
        with store.transaction():
            yield
            store.set_chain_state(
                target.relation_name,
                sequence=signed.version,
                previous_sequence=version_before,
            )

    def log_rotation(
        self,
        target: ShardTarget,
        rotation: ManifestRotated,
        attestation: Optional[FreshnessAttestation] = None,
    ) -> None:
        """Append the rotation a just-applied batch produced; maybe checkpoint.

        Rotation records are advisory (recovery re-derives rotations
        deterministically by replaying update frames); they let ``walctl``
        verify the log offline and preserve rotation history across
        checkpoint compaction.  Runs under the same shard lock as the apply,
        so the log order equals the apply order.  The rotation is also
        committed to the relation store here; ``attestation`` is the
        relation's current (rotation re-stamped) freshness attestation,
        tracked in chain state alongside the rotation so recovery resumes the
        freshness chain without re-deriving it.
        """
        entry = self.relation(target.relation_name)
        entry.wal.append(encode(rotation))
        self._persist_rotation_state(entry, target, rotation, attestation)
        entry.updates_since_checkpoint += 1

    def maybe_checkpoint(
        self,
        target: ShardTarget,
        rotation: ManifestRotated,
        attestation: Optional[FreshnessAttestation] = None,
    ) -> None:
        """Checkpoint if the cadence came due (caller holds the shard lock).

        Split from :meth:`log_rotation` so the live path can run it *after*
        the :meth:`applied_update_scope` transaction commits — a checkpoint
        compacts the WAL, which is only safe once the store state it
        snapshots is durable.
        """
        entry = self.relation(target.relation_name)
        if self.checkpoint_every and entry.updates_since_checkpoint >= self.checkpoint_every:
            self._checkpoint_entry(entry, target, rotation, attestation)

    def _persist_rotation_state(
        self,
        entry: _RelationStorage,
        target: ShardTarget,
        rotation: ManifestRotated,
        attestation: Optional[FreshnessAttestation] = None,
    ) -> None:
        # Rows, roots, signatures and the sequence were committed by the
        # apply itself; file the rotation frame.
        attestation_state = {} if attestation is None else {
            "attestation": encode(attestation)
        }
        store = self.relation_store(entry.shard)
        with store.transaction():
            store.set_chain_state(
                target.relation_name,
                rotation=encode(rotation),
                **attestation_state,
            )

    def remember_applied_response(
        self, relation_name: str, sequence: int, frame: bytes, response: bytes
    ) -> None:
        """Durably mirror the router's replayed-update registry."""
        entry = self.relation(relation_name)
        self.relation_store(entry.shard).remember_applied(
            relation_name, hashlib.sha256(frame).digest(), sequence, frame, response
        )

    def persist_replayed_update(
        self,
        target: ShardTarget,
        rotation: ManifestRotated,
        request: UpdateRequest,
        frame: bytes,
        response: bytes,
        attestation: Optional[FreshnessAttestation] = None,
    ) -> None:
        """Recovery twin of :meth:`log_rotation` + :meth:`remember_applied_response`.

        Called by WAL replay after re-applying a frame the store had not yet
        committed: brings the relation store to the same state the live
        path would have left, without re-appending to the WAL.
        ``attestation`` is the re-stamped freshness attestation the replayed
        rotation derived, if one was in force.
        """
        entry = self.relation(target.relation_name)
        with self.relation_store(entry.shard).transaction():
            self._persist_rotation_state(entry, target, rotation, attestation)
            self.remember_applied_response(
                target.relation_name, request.sequence, frame, response
            )

    def checkpoint_now(
        self,
        target: ShardTarget,
        rotation: ManifestRotated,
        attestation: Optional[FreshnessAttestation] = None,
    ) -> None:
        """Snapshot one relation and compact its log (caller holds the lock).

        ``rotation`` must be the relation's *current* owner-signed rotation
        (``router.rotation(name)`` — which is also what the automatic
        checkpoint path receives straight from the apply pipeline), and
        ``attestation`` its current freshness attestation
        (``router.attestation_for(name)``), which compaction must carry
        forward or recovery would forget the freshness chain.
        """
        from repro.wire import manifest_id as _manifest_id

        entry = self.relation(target.relation_name)
        signed = target.publisher.signed_relation(target.relation_name)
        if _manifest_id(rotation.manifest) != _manifest_id(signed.manifest):
            raise StorageError(
                f"checkpoint rotation for {target.relation_name!r} does not "
                "describe the relation's current manifest"
            )
        self._checkpoint_entry(entry, target, rotation, attestation)

    def _checkpoint_entry(
        self,
        entry: _RelationStorage,
        target: ShardTarget,
        rotation: ManifestRotated,
        attestation: Optional[FreshnessAttestation] = None,
    ) -> None:
        # Rows live in the relation store: a checkpoint files the
        # owner-signed rotation and compacts the WAL, O(1) in the row count.
        write_checkpoint(
            entry.checkpoint_path, target.relation_name, rotation, faults=self.faults
        )
        # Compact only after the new checkpoint is durably in place: a crash
        # between the two leaves checkpoint+full-log, whose replay verifies
        # pre-checkpoint records against the rotation chain and skips them.
        # The current freshness attestation (re-stamped to the checkpointed
        # manifest) is the one WAL record compaction must preserve: it is
        # the head of the freshness chain, not derivable from the rotation.
        if attestation is None:
            entry.wal.rewrite(())
        else:
            entry.wal.rewrite((encode(attestation),))
        entry.updates_since_checkpoint = 0
        self.checkpoints_written += 1

    # -- lifecycle ------------------------------------------------------------

    def sync(self) -> None:
        """Force durability of every log (graceful-shutdown path)."""
        with self._lock:
            if self._closed:
                return
            for entry in self._relations.values():
                entry.wal.sync()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for entry in self._relations.values():
                entry.wal.close()
            for store in self._stores.values():
                store.close()
            self._stores.clear()

    def __enter__(self) -> "PublicationStorage":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_publication_storage(
    root: str,
    build_router: Callable[[], ShardRouter],
    fsync: str = "always",
    checkpoint_every: int = 0,
    faults: Optional[FaultRegistry] = None,
    config=None,
) -> Tuple[ShardRouter, "PublicationStorage"]:
    """Bootstrap-or-recover: the one way to a router that serves over ``root``.

    An uninitialised ``root`` calls ``build_router()`` (fresh keys, fresh
    data) and writes it out (:meth:`PublicationStorage.create`); either way
    the root is then opened and the router rebuilt through recovery (see
    :mod:`repro.storage.recovery`).  So the returned router always serves
    chain relations from the store (rows read lazily, the stored owner
    signatures), and on an existing root it resumes with the *same* manifest
    ids, rotation history and applied-update registry as before the crash.

    ``config`` may be a :class:`repro.service.config.StorageConfig` (or any
    object with ``root``/``fsync``/``checkpoint_every`` attributes); its
    fields then override the individual arguments.
    """
    from repro.storage.recovery import recover_router

    if config is not None:
        root = config.root or root
        fsync = config.fsync
        checkpoint_every = config.checkpoint_every
    bootstrapped = not PublicationStorage.exists(root)
    if bootstrapped:
        PublicationStorage.create(root, build_router(), fsync=fsync, faults=faults)
    storage = PublicationStorage.open(
        root, fsync=fsync, checkpoint_every=checkpoint_every, faults=faults
    )
    try:
        router = recover_router(storage)
    except BaseException:
        storage.close()
        raise
    if bootstrapped:
        storage.origin = "bootstrapped"
    return router, storage
