"""Disk-backed relation + digest store: serve a signed relation without RAM rows.

One SQLite file per shard (``relstore.db``) holds, per relation, the exact
artifacts the chain-signature scheme serves — using the repo's
schema-over-SQL idiom (three fixed tables keyed by relation name, not one
SQL schema per relational schema):

``entries``
    One row per chain entry: the two domain delimiters and every record,
    keyed by ``(relation, kind, key, fingerprint)`` so the natural SQLite
    index *is* the relation's canonical sort order.  Records carry their
    wire payload (a ``RecordDelta(kind="insert")`` frame), their FDH-RSA
    chain signature and, in ``digest``, ``upper_root | lower_root |
    attribute_root``: the Section 5.1 representation-tree roots the owner's
    walk of the entry's two digit chains produced, and the root of its
    attribute tree.  The roots are what the publisher ships with a result
    row (its entry assists), so a read looks them up and hashes nothing;
    where the server needs the entry's ``g`` itself — a boundary or filtered
    entry, the neighbours of a re-sign window — it re-derives each chain
    digest from the key and the stored root with the canonical-only walk a
    verifier does.  Delimiters carry the same column and a signature (the
    slot of the chain a delimiter does not have keeps its sentinel digest).

``chain_state``
    Per relation: the manifest ``sequence`` the stored chain corresponds
    to, the sequence it superseded (for re-deriving the current rotation
    after a crash), and the latest owner-signed ``ManifestRotated`` frame
    and freshness attestation verbatim.

``applied_updates``
    The durable twin of the router's replayed-update registry: the last
    ``N`` applied owner update frames and their encoded responses, so a
    recovered server answers a retransmitted update byte-identically.

**Trust boundary.**  Rows on disk are integrity-checked against owner-signed
digests on load, not blindly trusted.  Every record faulted in from SQLite
is re-fingerprinted and compared against the fingerprint under which it was
filed — the same identity that orders the owner-signed chain — and the
roots and signatures served alongside it are client-checked like every other
served artifact: a verifying client recomputes each ``g`` from the row and
the root it was handed and checks the owner's signature over the result, so
a root altered on disk yields an answer that fails verification, never a
wrong answer that passes; nothing stored is ever re-signed on the way out.  Row integrity beyond that is
a *crash-safety* property, not a security one: this reproduction's
deployment model (:mod:`repro.service.owner`) already trusts the publisher
host with the signing key, so a host that can edit ``relstore.db`` can
equally re-sign what it edited.  What the store preserves against everyone
*else* is what the paper promises: the WAL's update frames and the stored
rotation are owner-signed, so a party holding only the disk can truncate
history but never extend or alter it.

**Crash semantics.**  All mutations run inside explicit ``BEGIN IMMEDIATE``
transactions; a batch of deltas commits atomically with its chain-state
bump, so a SIGKILL anywhere leaves the store at a whole update boundary and
the WAL replays the rest.  The ``relstore-before-commit`` failpoint fires
just before the outermost ``COMMIT`` and is meant for ``kill``-style crash
tests (an ``error`` action rolls the store back while the in-memory chain
keeps the mutation, deliberately modelling a torn process about to die).
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
from collections import OrderedDict
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.digest import EntryAssist
from repro.core.relational import (
    ChainEntry,
    RelationManifest,
    SignedRelation,
    build_chain_schemes,
    entry_components,
)
from repro.core.relational import _LEFT_DELIMITER, _RECORD, _RIGHT_DELIMITER
from repro.crypto.encoding import concat_digests
from repro.crypto.hashing import HashFunction, default_hash
from repro.crypto.signature import SignatureScheme
from repro.db.records import Record
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.storage.errors import StorageError
from repro.storage.faults import FaultRegistry
from repro.wire import decode, encode, manifest_id
from repro.wire.updates import ManifestRotated, RecordDelta

__all__ = [
    "ChainState",
    "RelationStore",
    "StoredRelation",
    "StoredSignedRelation",
    "build_stored_chain",
    "dump_publication",
    "stored_current_rotation",
]

#: Storage kinds of the ``entries`` table, in chain order.
KIND_LEFT = "left"
KIND_RECORD = "record"
KIND_RIGHT = "right"

#: How many applied update frames the store remembers per relation —
#: mirrors the router's in-memory replayed-update registry bound.
MAX_APPLIED_REMEMBERED = 256

#: Default size of a stored relation's faulted-record LRU cache.
DEFAULT_RECORD_CACHE = 4096

_SYNCHRONOUS = {"always": "FULL", "batch": "NORMAL", "off": "OFF"}

_UNSET = object()


def _signature_blob(signature: int) -> bytes:
    return signature.to_bytes((signature.bit_length() + 7) // 8 or 1, "big")


def _signature_int(blob: Optional[bytes]) -> int:
    return int.from_bytes(blob or b"", "big")


@dataclass(frozen=True)
class ChainState:
    """One relation's persisted manifest bookkeeping."""

    sequence: int
    #: Sequence the current rotation superseded; ``-1`` means genesis
    #: (``previous_id == b""``).  Used to re-derive the rotation frame when
    #: a crash tore the stored one.
    previous_sequence: int
    rotation: Optional[bytes]
    #: Encoded :class:`~repro.wire.updates.FreshnessAttestation` in force
    #: when the state was written (the rotation re-stamped one), or ``None``
    #: when the owner never pushed one.  Recovery seeds the router's
    #: freshness chain from it.
    attestation: Optional[bytes] = None


class RelationStore:
    """One shard's SQLite store of rows, chain digests and manifest state.

    Connections are opened lazily per process (a forked child that
    inherits this object transparently reconnects under its own pid) and
    shared across threads — the service applies every mutation on its
    single event-loop thread, and SQLite's serialized mode plus the
    transaction lock below keep any stray concurrent reader safe.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "always",
        faults: Optional[FaultRegistry] = None,
    ) -> None:
        if fsync not in _SYNCHRONOUS:
            raise ValueError(f"unknown fsync policy {fsync!r}")
        self.path = path
        self.fsync = fsync
        self.faults = faults
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        self._depth = 0
        self._txn_lock = threading.RLock()

    # -- connection management -------------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        if self._conn is None or self._pid != os.getpid():
            # After a fork the inherited connection object is abandoned, not
            # closed: closing it from the child could release the parent's
            # file locks out from under it.
            conn = sqlite3.connect(
                self.path, isolation_level=None, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL").fetchone()
            conn.execute(f"PRAGMA synchronous={_SYNCHRONOUS[self.fsync]}")
            conn.execute("PRAGMA busy_timeout=5000")
            conn.executescript(
                """
                CREATE TABLE IF NOT EXISTS entries (
                    relation    TEXT NOT NULL,
                    kind        TEXT NOT NULL,
                    key         INTEGER NOT NULL,
                    fingerprint BLOB NOT NULL,
                    payload     BLOB,
                    digest      BLOB NOT NULL,
                    signature   BLOB NOT NULL,
                    PRIMARY KEY (relation, kind, key, fingerprint)
                );
                CREATE TABLE IF NOT EXISTS chain_state (
                    relation          TEXT PRIMARY KEY,
                    sequence          INTEGER NOT NULL,
                    previous_sequence INTEGER NOT NULL,
                    rotation          BLOB,
                    attestation       BLOB
                );
                CREATE TABLE IF NOT EXISTS applied_updates (
                    relation  TEXT NOT NULL,
                    frame_sha BLOB NOT NULL,
                    sequence  INTEGER NOT NULL,
                    frame     BLOB NOT NULL,
                    response  BLOB NOT NULL,
                    PRIMARY KEY (relation, frame_sha)
                );
                """
            )
            self._conn = conn
            self._pid = os.getpid()
            self._depth = 0
        return self._conn

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None

    def snapshot(self) -> bytes:
        """A transaction-consistent copy of the database file, as bytes.

        Taken with SQLite's online backup API over a connection of its own,
        so committed pages still sitting in the ``-wal`` sidecar are included
        and the store's serving connection is left alone.  The caller keeps
        writers out (the shard lock) if the copy must line up with files
        outside the database.
        """
        with tempfile.TemporaryDirectory(prefix="relstore-snapshot-") as scratch:
            copy_path = os.path.join(scratch, "relstore.db")
            with closing(sqlite3.connect(self.path)) as source:
                with closing(sqlite3.connect(copy_path)) as copy:
                    source.backup(copy)
            with open(copy_path, "rb") as handle:
                return handle.read()

    def __getstate__(self):  # pragma: no cover - stores never cross spawn
        state = dict(self.__dict__)
        state["_conn"] = None
        state["_pid"] = None
        state["_txn_lock"] = None
        return state

    def __setstate__(self, state):  # pragma: no cover
        self.__dict__.update(state)
        self._txn_lock = threading.RLock()

    # -- transactions ----------------------------------------------------------

    def in_transaction(self) -> bool:
        return self._depth > 0

    @contextmanager
    def transaction(self):
        """Nesting-aware write transaction; outermost wins BEGIN/COMMIT."""
        with self._txn_lock:
            conn = self.connection
            if self._depth == 0:
                conn.execute("BEGIN IMMEDIATE")
            self._depth += 1
            try:
                yield
            except BaseException:
                self._depth -= 1
                if self._depth == 0:
                    conn.execute("ROLLBACK")
                raise
            else:
                self._depth -= 1
                if self._depth == 0:
                    if self.faults is not None:
                        self.faults.hit("relstore-before-commit")
                    conn.execute("COMMIT")

    # -- entries ---------------------------------------------------------------

    def clear_relation(self, relation: str) -> None:
        """Drop the relation's rows and chain state ahead of a full re-dump.

        The applied-update registry survives on purpose: it records
        acknowledgements, not publication state.
        """
        with self.transaction():
            conn = self.connection
            conn.execute("DELETE FROM entries WHERE relation=?", (relation,))
            conn.execute("DELETE FROM chain_state WHERE relation=?", (relation,))

    def put_entry(
        self,
        relation: str,
        kind: str,
        key: int,
        fingerprint: bytes,
        *,
        payload: Optional[bytes],
        digest: bytes,
        signature: int,
    ) -> None:
        self.connection.execute(
            "INSERT INTO entries (relation, kind, key, fingerprint, payload, digest, signature)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)"
            " ON CONFLICT(relation, kind, key, fingerprint) DO UPDATE SET"
            " payload=excluded.payload, digest=excluded.digest, signature=excluded.signature",
            (relation, kind, key, fingerprint, payload, digest, _signature_blob(signature)),
        )

    def insert_entries(
        self,
        relation: str,
        rows: Iterable[Tuple[str, int, bytes, Optional[bytes], bytes, int]],
    ) -> None:
        """Bulk-insert ``(kind, key, fingerprint, payload, digest, signature)``."""
        self.connection.executemany(
            "INSERT INTO entries (relation, kind, key, fingerprint, payload, digest, signature)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                (relation, kind, key, fingerprint, payload, digest, _signature_blob(signature))
                for kind, key, fingerprint, payload, digest, signature in rows
            ),
        )

    def set_entry_signature(
        self, relation: str, kind: str, key: int, fingerprint: bytes, signature: int
    ) -> None:
        cursor = self.connection.execute(
            "UPDATE entries SET signature=? WHERE relation=? AND kind=? AND key=? AND fingerprint=?",
            (_signature_blob(signature), relation, kind, key, fingerprint),
        )
        if cursor.rowcount != 1:
            raise StorageError(
                f"relation {relation!r}: no stored {kind} entry at key {key} to re-sign"
            )

    def delete_entry(self, relation: str, kind: str, key: int, fingerprint: bytes) -> None:
        cursor = self.connection.execute(
            "DELETE FROM entries WHERE relation=? AND kind=? AND key=? AND fingerprint=?",
            (relation, kind, key, fingerprint),
        )
        if cursor.rowcount != 1:
            raise StorageError(
                f"relation {relation!r}: no stored {kind} entry at key {key} to delete"
            )

    def load_record_index(self, relation: str) -> List[Tuple[int, bytes]]:
        """All record identities ``(key, fingerprint)`` in canonical order."""
        return [
            (row[0], row[1])
            for row in self.connection.execute(
                "SELECT key, fingerprint FROM entries WHERE relation=? AND kind=?"
                " ORDER BY key, fingerprint",
                (relation, KIND_RECORD),
            )
        ]

    def count_chain_entries(self, relation: str) -> int:
        """Total chain length on disk: delimiters plus record entries."""
        row = self.connection.execute(
            "SELECT COUNT(*) FROM entries WHERE relation=?", (relation,)
        ).fetchone()
        return int(row[0])

    def load_entry_chain(
        self, relation: str, kind: str, key: int, fingerprint: bytes
    ) -> Tuple[bytes, int]:
        """(stored roots, signature) of one chain entry, by identity."""
        row = self.connection.execute(
            "SELECT digest, signature FROM entries"
            " WHERE relation=? AND kind=? AND key=? AND fingerprint=?",
            (relation, kind, key, fingerprint),
        ).fetchone()
        if row is None:
            raise StorageError(
                f"relation {relation!r}: no stored {kind} entry at key {key}"
            )
        return row[0], _signature_int(row[1])

    def load_row_payload(self, relation: str, key: int, fingerprint: bytes) -> Optional[bytes]:
        row = self.connection.execute(
            "SELECT payload FROM entries WHERE relation=? AND kind=? AND key=? AND fingerprint=?",
            (relation, KIND_RECORD, key, fingerprint),
        ).fetchone()
        return None if row is None else row[0]

    def iter_row_values(self, relation: str) -> Iterator[Dict[str, object]]:
        """Stream the stored rows as plain dicts, in canonical order."""
        for row in self.connection.execute(
            "SELECT payload FROM entries WHERE relation=? AND kind=? ORDER BY key, fingerprint",
            (relation, KIND_RECORD),
        ):
            delta = decode(row[0], expect=RecordDelta)
            yield dict(delta.values)

    def count_records(self, relation: str) -> int:
        row = self.connection.execute(
            "SELECT COUNT(*) FROM entries WHERE relation=? AND kind=?",
            (relation, KIND_RECORD),
        ).fetchone()
        return int(row[0])

    # -- chain state -----------------------------------------------------------

    def set_chain_state(
        self,
        relation: str,
        *,
        sequence: Optional[int] = None,
        previous_sequence: Optional[int] = None,
        rotation=_UNSET,
        attestation=_UNSET,
    ) -> None:
        """Merge the given fields into the relation's chain state row."""
        with self.transaction():
            row = self.connection.execute(
                "SELECT sequence, previous_sequence, rotation, attestation"
                " FROM chain_state WHERE relation=?",
                (relation,),
            ).fetchone()
            if row is None:
                if sequence is None:
                    raise StorageError(
                        f"relation {relation!r} has no chain state yet; "
                        "a sequence is required to create it"
                    )
                merged = (
                    sequence,
                    -1 if previous_sequence is None else previous_sequence,
                    None if rotation is _UNSET else rotation,
                    None if attestation is _UNSET else attestation,
                )
            else:
                merged = (
                    row[0] if sequence is None else sequence,
                    row[1] if previous_sequence is None else previous_sequence,
                    row[2] if rotation is _UNSET else rotation,
                    row[3] if attestation is _UNSET else attestation,
                )
            self.connection.execute(
                "INSERT INTO chain_state"
                " (relation, sequence, previous_sequence, rotation, attestation)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(relation) DO UPDATE SET sequence=excluded.sequence,"
                " previous_sequence=excluded.previous_sequence,"
                " rotation=excluded.rotation, attestation=excluded.attestation",
                (relation, *merged),
            )

    def chain_state(self, relation: str) -> Optional[ChainState]:
        row = self.connection.execute(
            "SELECT sequence, previous_sequence, rotation, attestation"
            " FROM chain_state WHERE relation=?",
            (relation,),
        ).fetchone()
        if row is None:
            return None
        return ChainState(
            sequence=int(row[0]),
            previous_sequence=int(row[1]),
            rotation=row[2],
            attestation=row[3],
        )

    # -- applied updates -------------------------------------------------------

    def remember_applied(
        self, relation: str, frame_sha: bytes, sequence: int, frame: bytes, response: bytes
    ) -> None:
        with self.transaction():
            conn = self.connection
            conn.execute(
                "INSERT INTO applied_updates (relation, frame_sha, sequence, frame, response)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(relation, frame_sha) DO UPDATE SET"
                " sequence=excluded.sequence, response=excluded.response",
                (relation, frame_sha, sequence, frame, response),
            )
            conn.execute(
                "DELETE FROM applied_updates WHERE relation=? AND frame_sha NOT IN"
                " (SELECT frame_sha FROM applied_updates WHERE relation=?"
                "  ORDER BY sequence DESC LIMIT ?)",
                (relation, relation, MAX_APPLIED_REMEMBERED),
            )

    def applied_updates(self, relation: str) -> List[Tuple[bytes, bytes]]:
        """(frame, response) pairs, oldest first."""
        return [
            (row[0], row[1])
            for row in self.connection.execute(
                "SELECT frame, response FROM applied_updates WHERE relation=?"
                " ORDER BY sequence ASC",
                (relation,),
            )
        ]


# -- lazy record faulting ------------------------------------------------------


class _RecordColumn:
    """The ``_records`` list of a :class:`StoredRelation`, faulted from disk.

    Shares the relation's ``_sort_keys`` list object: an index into the
    column resolves to a record *identity* ``(key, fingerprint)``, which is
    loaded from the store, integrity-checked against its fingerprint, and
    kept in a bounded LRU cache.  Freshly inserted records sit in the
    unevictable ``_pending`` overlay until their transaction commits.
    """

    __slots__ = (
        "_store",
        "_relation_name",
        "_schema",
        "_sort_keys",
        "_cache",
        "_cache_size",
        "_pending",
        "faulted",
    )

    def __init__(
        self,
        store: RelationStore,
        relation_name: str,
        schema: Schema,
        sort_keys: List[Tuple[int, bytes]],
        cache_size: int = DEFAULT_RECORD_CACHE,
    ) -> None:
        self._store = store
        self._relation_name = relation_name
        self._schema = schema
        self._sort_keys = sort_keys
        self._cache: "OrderedDict[Tuple[int, bytes], Record]" = OrderedDict()
        self._cache_size = max(1, cache_size)
        self._pending: Dict[Tuple[int, bytes], Record] = {}
        self.faulted = 0

    def _materialise(self, identity: Tuple[int, bytes]) -> Record:
        record = self._pending.get(identity)
        if record is not None:
            return record
        record = self._cache.get(identity)
        if record is not None:
            self._cache.move_to_end(identity)
            return record
        key, fingerprint = identity
        payload = self._store.load_row_payload(self._relation_name, key, fingerprint)
        if payload is None:
            raise StorageError(
                f"relation {self._relation_name!r}: stored row for key {key} is missing"
            )
        delta = decode(payload, expect=RecordDelta)
        record = Record(self._schema, dict(delta.values))
        if record.fingerprint() != fingerprint:
            raise StorageError(
                f"relation {self._relation_name!r}: stored row for key {key} does not "
                "match the fingerprint it was filed under"
            )
        self.faulted += 1
        self._cache[identity] = record
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return record

    def __len__(self) -> int:
        return len(self._sort_keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialise(identity) for identity in self._sort_keys[index]]
        return self._materialise(self._sort_keys[index])

    def __iter__(self) -> Iterator[Record]:
        for identity in list(self._sort_keys):
            yield self._materialise(identity)

    def insert(self, position: int, record: Record) -> None:
        # Called by Relation.insert *before* it updates _sort_keys, so the
        # position cannot be resolved to an identity yet — the record is
        # parked in the pending overlay under its own identity instead.
        self._pending[(record.key, record.fingerprint())] = record

    def pop(self, position: int) -> Record:
        # Called by Relation.delete_at *before* it pops _sort_keys.
        identity = self._sort_keys[position]
        record = self._materialise(identity)
        self._pending.pop(identity, None)
        self._cache.pop(identity, None)
        return record

    def committed(self) -> None:
        """Move the pending inserts into the evictable cache (post-commit)."""
        while self._pending:
            identity, record = self._pending.popitem()
            self._cache[identity] = record
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)


class StoredRelation(Relation):
    """A :class:`Relation` whose records live in a :class:`RelationStore`.

    The sorted identity index (``_sort_keys``) is in RAM — bisection,
    range bounds and duplicate checks never touch disk — while the records
    themselves are faulted in on demand through :class:`_RecordColumn`.
    """

    def __init__(
        self,
        store: RelationStore,
        relation_name: str,
        schema: Schema,
        cache_size: int = DEFAULT_RECORD_CACHE,
    ) -> None:
        self.schema = schema
        self._sort_keys = store.load_record_index(relation_name)
        self._records = _RecordColumn(
            store, relation_name, schema, self._sort_keys, cache_size
        )

    @property
    def records(self) -> Sequence[Record]:
        """The records as a lazily-faulting, sliceable sequence view."""
        return self._records


# -- lazy chain columns --------------------------------------------------------

#: placeholder for a chain value not yet faulted in
_UNLOADED = object()


class _LazyChainColumn:
    """One chain-aligned column of a stored chain, filled on first touch.

    Presents the list surface the chain mutators use — indexing, assignment,
    ``insert``/``del`` and iteration — over ``_UNLOADED`` placeholders, so
    recovery holds eight bytes per untouched entry; indexing a placeholder
    calls ``fault(index)``, which must fill the slot.  Stored roots and
    signatures come from disk, both in one store read; component triples
    are only needed where the server needs an entry's ``g`` — a boundary or
    filtered entry, the neighbours of a re-sign window — and are re-derived
    from the entry's key and stored roots.
    """

    __slots__ = ("_fault", "_memo")

    def __init__(self, fault, length: int) -> None:
        self._fault = fault
        self._memo: List[object] = [_UNLOADED] * length

    def __len__(self) -> int:
        return len(self._memo)

    def _resolve(self, index: int) -> int:
        return index + len(self._memo) if index < 0 else index

    def __getitem__(self, index: int):
        index = self._resolve(index)
        value = self._memo[index]
        if value is _UNLOADED:
            self._fault(index)
            value = self._memo[index]
        return value

    def __setitem__(self, index: int, value) -> None:
        self._memo[self._resolve(index)] = value

    def insert(self, index: int, value) -> None:
        self._memo.insert(index, value)

    def __delitem__(self, index: int) -> None:
        del self._memo[self._resolve(index)]

    def __iter__(self):
        for index in range(len(self._memo)):
            yield self[index]


def _require_optimized(relation_name: str, scheme_kind: str) -> None:
    if scheme_kind != "optimized":
        raise StorageError(
            f"relation {relation_name!r}: a stored chain keeps each entry's Section 5.1 "
            f"representation-tree roots, which a {scheme_kind!r} chain does not have"
        )


def _stored_roots(components: Tuple[bytes, bytes, bytes], roots) -> bytes:
    """An entry's ``entries.digest`` value: ``upper_root | lower_root | attribute_root``.

    A delimiter's sentinel chain has no tree; its slot keeps the sentinel.
    """
    upper, lower, attribute_root = components
    return concat_digests(roots[0] or upper, roots[1] or lower, attribute_root)


class StoredSignedRelation(SignedRelation):
    """A :class:`SignedRelation` served from a :class:`RelationStore`.

    Construction attaches to an existing store: only the sorted identity
    index (keys and fingerprints) loads eagerly; rows, stored roots,
    signatures and component triples all fault in lazily, and nothing is
    re-signed — the signatures on disk *are* the owner's chain.  Mutations
    re-sign the usual window and persist the changed entries and chain
    state in one SQLite transaction.
    """

    def __init__(
        self,
        store: RelationStore,
        relation_name: str,
        manifest: RelationManifest,
        signature_scheme: SignatureScheme,
        cache_size: int = DEFAULT_RECORD_CACHE,
    ) -> None:
        _require_optimized(relation_name, manifest.scheme_kind)
        relation = StoredRelation(store, relation_name, manifest.schema, cache_size)
        self.relation = relation
        self.schema = manifest.schema
        self.domain = self.schema.key_domain
        self.hash_function = manifest.hash_function()
        self.scheme_kind = manifest.scheme_kind
        self.base = manifest.base
        self._signature_scheme = signature_scheme
        self.upper_scheme, self.lower_scheme = build_chain_schemes(
            manifest.scheme_kind, self.domain, manifest.base, self.hash_function
        )
        self._manifest = None
        self._store = store
        self._name = relation_name
        self._width = self.hash_function.digest_size
        self._entries = (
            [ChainEntry(_LEFT_DELIMITER, self.domain.lower)]
            + [ChainEntry(_RECORD, key) for key, _ in relation._sort_keys]
            + [ChainEntry(_RIGHT_DELIMITER, self.domain.upper)]
        )
        stored = store.count_chain_entries(relation_name)
        if stored != len(self._entries):
            raise StorageError(
                f"relation {relation_name!r}: store holds {stored} chain entries, "
                f"the identity index implies {len(self._entries)}"
            )
        self._roots = _LazyChainColumn(self._fault_chain, len(self._entries))
        self.signatures = _LazyChainColumn(self._fault_chain, len(self._entries))
        self._components = _LazyChainColumn(self._fault_components, len(self._entries))
        self._version = 0

    # -- lazy plumbing ---------------------------------------------------------

    def entry_assists(self, index: int) -> Tuple[EntryAssist, EntryAssist]:
        stored, width = self._roots[index], self._width
        return EntryAssist(stored[:width]), EntryAssist(stored[width : 2 * width])

    def _fault_components(self, index: int) -> None:
        """Entry ``index``'s ``g`` components, from its key and stored roots.

        The canonical-only walk a verifier does for a value it knows: no
        record is faulted and no representation rebuilt.
        """
        stored, width = self._roots[index], self._width
        upper, lower, attribute_root = (
            stored[:width], stored[width : 2 * width], stored[2 * width :]
        )
        entry, domain = self._entries[index], self.domain
        if entry.kind != _RIGHT_DELIMITER:
            upper = self.upper_scheme.recompute_from_value(
                entry.key, domain.upper - entry.key - 1, EntryAssist(upper)
            )
        if entry.kind != _LEFT_DELIMITER:
            lower = self.lower_scheme.recompute_from_value(
                entry.key, entry.key - domain.lower - 1, EntryAssist(lower)
            )
        self._components[index] = (upper, lower, attribute_root)

    def _fault_chain(self, index: int) -> None:
        kind, key, fingerprint = self._entry_identity(index)
        stored, signature = self._store.load_entry_chain(
            self._name, kind, key, fingerprint
        )
        if len(stored) != 3 * self._width:
            raise StorageError(
                f"relation {self._name!r}: the stored {kind} entry at key {key} does "
                "not hold upper_root | lower_root | attribute_root"
            )
        # Fill only still-unloaded slots: a freshly re-signed (or inserted)
        # in-memory value is newer than what a sibling-column fault read.
        if self._roots._memo[index] is _UNLOADED:
            self._roots._memo[index] = stored
        if self.signatures._memo[index] is _UNLOADED:
            self.signatures._memo[index] = signature

    def _entry_identity(self, index: int) -> Tuple[str, int, bytes]:
        if index == 0:
            return (KIND_LEFT, self.domain.lower, b"")
        if index == len(self._entries) - 1:
            return (KIND_RIGHT, self.domain.upper, b"")
        key, fingerprint = self.relation._sort_keys[index - 1]
        return (KIND_RECORD, key, fingerprint)

    # -- persisted mutations ---------------------------------------------------

    def _insert_entry(self, record) -> int:
        chain_index = super()._insert_entry(record)
        inserted = self._entries[chain_index].record
        # The entry is kept key-only: the record itself stays behind the
        # faulting column, so long-running servers do not re-grow an
        # in-memory copy of every row they ever inserted.
        self._entries[chain_index] = ChainEntry(_RECORD, inserted.key)
        stored = _stored_roots(self._components[chain_index], self._roots[chain_index])
        self._roots[chain_index] = stored
        self._store.put_entry(
            self._name,
            KIND_RECORD,
            inserted.key,
            inserted.fingerprint(),
            payload=encode(RecordDelta(kind="insert", values=inserted.as_dict())),
            digest=stored,
            signature=0,  # signed, with its neighbours, by the re-sign that follows
        )
        return chain_index

    def _remove_entry(self, record) -> int:
        materialised = self.relation._coerce(record)
        chain_index = super()._remove_entry(materialised)
        self._store.delete_entry(
            self._name, KIND_RECORD, materialised.key, materialised.fingerprint()
        )
        return chain_index

    def _resign_window(self, candidates, digests_recomputed):
        receipt = super()._resign_window(candidates, digests_recomputed)
        for index in receipt.entries_affected:
            kind, key, fingerprint = self._entry_identity(index)
            self._store.set_entry_signature(
                self._name, kind, key, fingerprint, self.signatures[index]
            )
        return receipt

    @contextmanager
    def _persisted(self):
        """One store transaction around a mutation and its chain-state bump."""
        store = self._store
        batched = store.in_transaction()
        version_before = self._version
        with store.transaction():
            yield
            store.set_chain_state(
                self._name,
                sequence=self._version,
                previous_sequence=None if batched else version_before,
            )
        self.relation._records.committed()

    def insert_record(self, record):
        with self._persisted():
            return super().insert_record(record)

    def delete_record(self, record):
        with self._persisted():
            return super().delete_record(record)

    def update_record(self, old, new):
        with self._persisted():
            return super().update_record(old, new)


# -- construction paths --------------------------------------------------------


def dump_publication(
    store: RelationStore,
    relation_name: str,
    publication: SignedRelation,
    rotation: ManifestRotated,
) -> None:
    """Mirror an in-memory signed relation into the store, byte-exactly.

    The roots the owner's walk left behind and the signatures are copied
    as-is: nothing is re-hashed or re-signed.
    """
    _require_optimized(relation_name, publication.scheme_kind)
    domain = publication.domain
    signatures = publication.signatures

    def stored(chain_index: int) -> bytes:
        return _stored_roots(
            publication.components(chain_index), publication._roots[chain_index]
        )

    def entry_rows():
        yield (KIND_LEFT, domain.lower, b"", None, stored(0), signatures[0])
        for position, record in enumerate(publication.relation):
            chain_index = position + 1
            payload = encode(RecordDelta(kind="insert", values=record.as_dict()))
            yield (
                KIND_RECORD,
                record.key,
                record.fingerprint(),
                payload,
                stored(chain_index),
                signatures[chain_index],
            )
        yield (KIND_RIGHT, domain.upper, b"", None, stored(-1), signatures[-1])

    with store.transaction():
        store.clear_relation(relation_name)
        store.insert_entries(relation_name, entry_rows())
        store.set_chain_state(
            relation_name,
            sequence=publication.version,
            previous_sequence=-1,
            rotation=encode(rotation),
        )


def build_stored_chain(
    store: RelationStore,
    relation_name: str,
    schema: Schema,
    rows: Iterable[Dict[str, object]],
    signature_scheme: SignatureScheme,
    scheme_kind: str = "optimized",
    base: int = 2,
    hash_function: Optional[HashFunction] = None,
    batch_size: int = 512,
) -> int:
    """Stream ``rows`` (ascending by key) into a signed chain on disk.

    Peak memory is O(``batch_size``): each entry's digest is computed once,
    its chain message is derived as soon as its right neighbour's digest is
    known (one entry of lag), and signatures are batch-signed and written
    ``batch_size`` at a time.  Produces bytes identical to building a
    :class:`~repro.core.relational.SignedRelation` over the same rows.
    Returns the number of records stored.
    """
    _require_optimized(relation_name, scheme_kind)
    hash_function = hash_function or default_hash()
    domain = schema.key_domain
    upper, lower = build_chain_schemes(scheme_kind, domain, base, hash_function)
    manifest = RelationManifest(
        schema=schema,
        scheme_kind=scheme_kind,
        base=base,
        hash_name=hash_function.name,
        public_key=signature_scheme.verifier,
        sequence=0,
    )
    left_anchor = manifest.left_anchor()
    right_anchor = manifest.right_anchor()

    row_count = [0]

    def chain_row(kind, entry, fingerprint=b"", payload=None):
        """An entry's row, its signature still to come, and its ``g`` digest."""
        components, roots = entry_components(entry, domain, upper, lower, hash_function)
        row = (kind, entry.key, fingerprint, payload, _stored_roots(components, roots))
        return row, concat_digests(*components)

    def entry_stream():
        yield chain_row(KIND_LEFT, ChainEntry(_LEFT_DELIMITER, domain.lower))
        previous_identity = None
        for row in rows:
            record = row if isinstance(row, Record) else Record(schema, dict(row))
            identity = (record.key, record.fingerprint())
            if previous_identity is not None and identity <= previous_identity:
                raise StorageError(
                    "build_stored_chain requires strictly ascending (key, fingerprint) rows"
                )
            previous_identity = identity
            payload = encode(RecordDelta(kind="insert", values=record.as_dict()))
            row_count[0] += 1
            yield chain_row(
                KIND_RECORD, ChainEntry(_RECORD, record.key, record), identity[1], payload
            )
        yield chain_row(KIND_RIGHT, ChainEntry(_RIGHT_DELIMITER, domain.upper))

    held_entries: List[Tuple[str, int, bytes, Optional[bytes], bytes]] = []
    held_messages: List[bytes] = []

    def flush() -> None:
        signatures = signature_scheme.sign_batch(held_messages)
        store.insert_entries(
            relation_name,
            (entry + (signature,) for entry, signature in zip(held_entries, signatures)),
        )
        held_entries.clear()
        held_messages.clear()

    with store.transaction():
        store.clear_relation(relation_name)
        before: Optional[bytes] = None
        held = None
        for entry in entry_stream():
            if held is not None:
                left = left_anchor if before is None else before
                held_messages.append(hash_function.combine(left, held[1], entry[1]))
                held_entries.append(held[0])
                before = held[1]
                if len(held_entries) >= batch_size:
                    flush()
            held = entry
        left = left_anchor if before is None else before
        held_messages.append(hash_function.combine(left, held[1], right_anchor))
        held_entries.append(held[0])
        flush()
        store.set_chain_state(
            relation_name,
            sequence=0,
            previous_sequence=-1,
            rotation=None,
        )
    return row_count[0]


def stored_current_rotation(
    store: RelationStore, relation_name: str, publication
) -> ManifestRotated:
    """The relation's current owner-signed rotation, from or via the store.

    Prefers the stored rotation frame verbatim; if a crash tore it (the
    chain state committed but the rotation write did not land), re-derives
    it from ``previous_sequence`` and re-signs — FDH-RSA is deterministic,
    so the re-derived rotation is byte-identical to the lost one.
    """
    from dataclasses import replace

    state = store.chain_state(relation_name)
    if state is None:
        raise StorageError(f"relation {relation_name!r} has no stored chain state")
    manifest = publication.manifest
    if state.rotation:
        rotation = decode(state.rotation, expect=ManifestRotated)
        if rotation.manifest.sequence == state.sequence and manifest_id(
            rotation.manifest
        ) == manifest_id(manifest):
            return rotation
    if state.previous_sequence >= 0:
        previous_id = manifest_id(replace(manifest, sequence=state.previous_sequence))
    else:
        previous_id = b""
    return ManifestRotated(
        manifest=manifest,
        previous_id=previous_id,
        owner_signature=publication.sign_rotation(previous_id),
    )
