"""Disk-backed relation + digest store: serve a signed relation without RAM rows.

One SQLite file per shard (``relstore.db``) holds, per relation, the exact
artifacts a Section 5.1 chain serves (the only chain a manifest names) in
the repo's schema-over-SQL idiom (three fixed tables keyed by relation
name, not one SQL schema per relational schema):

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
    where the server needs a chain digest itself — the one a boundary entry
    ships beside its proof, both of a filtered entry or of the neighbours of
    a re-sign window — it re-derives it from the key and the stored root with
    the canonical-only walk a verifier does.  Delimiters carry the same column and a signature (the
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
digests on load, not blindly trusted.  Every record is re-fingerprinted each
time it is read and compared against the fingerprint under which it was
filed — the same identity that orders the owner-signed chain — a span read
that does not line up with the identity index is refused, and the
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
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.digest import EntryAssist
from repro.core.polynomial import DEFAULT_BASE
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
from repro.wire.updates import ManifestRotated, RecordDelta, manifest_signing_message

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

    def load_entry_span(
        self, relation: str, first: Tuple[str, int, bytes], last: Tuple[str, int, bytes]
    ) -> List[Tuple[str, int, bytes, Optional[bytes], bytes, int]]:
        """Chain entries from identity ``first`` to ``last``, inclusive, in chain order.

        One range scan of the primary key, which *is* the chain order
        (``'left' < 'record' < 'right'``).  Rows are ``(kind, key,
        fingerprint, payload, stored roots, signature)``.
        """
        return [
            (kind, key, fingerprint, payload, digest, _signature_int(signature))
            for kind, key, fingerprint, payload, digest, signature in self.connection.execute(
                "SELECT kind, key, fingerprint, payload, digest, signature FROM entries"
                " WHERE relation=? AND (kind, key, fingerprint) BETWEEN (?, ?, ?) AND (?, ?, ?)"
                " ORDER BY kind, key, fingerprint",
                (relation, *first, *last),
            )
        ]

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


# -- records: stored payloads, decoded per read --------------------------------


class _RecordView:
    """The ``_records`` list of a :class:`StoredRelation`: its chain's payloads.

    Relation position ``p`` is chain entry ``p + 1``.  A non-empty
    contiguous slice first reads the chain span it covers plus one neighbour
    on each side — exactly the entries a range answer over those positions
    touches.  (An empty answer's first touch is its lower boundary, whose
    own neighbourhood is the span it needs.)  The chain files and drops
    payloads itself, so ``insert`` and ``pop`` (which :class:`Relation`
    calls before it edits ``_sort_keys``) only read.
    """

    __slots__ = ("_chain",)

    def __init__(self, chain: "StoredSignedRelation") -> None:
        self._chain = chain

    def __len__(self) -> int:
        return len(self._chain._entries) - 2

    def __getitem__(self, index):
        chain = self._chain
        if isinstance(index, slice):
            positions = range(len(self))[index]
            if positions and positions.step == 1:
                chain._load_span(positions.start, positions.stop + 1)
            return [chain._record(position + 1) for position in positions]
        return chain._record(range(len(self))[index] + 1)

    def __iter__(self) -> Iterator[Record]:
        for position in range(len(self)):
            yield self[position]

    def insert(self, position: int, record: Record) -> None:
        pass

    def pop(self, position: int) -> Record:
        return self[position]


class StoredRelation(Relation):
    """A :class:`Relation` whose records are the payloads of a stored chain.

    The sorted identity index (``_sort_keys``) is in RAM — bisection,
    range bounds and duplicate checks never touch disk.  A record is decoded
    from its stored payload, and checked against the fingerprint it is filed
    under, each time it is read; the decoded record is not kept.
    """

    def __init__(self, chain: "StoredSignedRelation", sort_keys: List[Tuple[int, bytes]]) -> None:
        self.schema = chain.schema
        self._sort_keys = sort_keys
        self._records = _RecordView(chain)

    @property
    def records(self) -> Sequence[Record]:
        """The records as a lazily-read, sliceable sequence view."""
        return self._records


# -- lazy chain columns --------------------------------------------------------

#: placeholder for a chain value not yet read
_UNLOADED = object()


class _LazyChainColumn:
    """One chain-aligned column of a stored chain, filled on first touch.

    Presents the list surface the chain mutators use — indexing, assignment,
    ``insert``/``del`` and iteration — over ``_UNLOADED`` placeholders, so
    recovery holds eight bytes per untouched entry; indexing a placeholder
    calls ``fault(index)``, which must fill the slot.  Payloads, stored
    roots and signatures come from disk, all three in one store read of the
    entry and its two neighbours; component triples are only needed where
    the server needs an entry's ``g`` — a filtered entry, the neighbours of a
    re-sign window — and are re-derived from the entry's key and stored
    roots (a boundary entry re-derives just the one chain digest it ships).
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


def _stored_roots(components: Tuple[bytes, bytes, bytes], roots) -> bytes:
    """An entry's ``entries.digest`` value: ``upper_root | lower_root | attribute_root``.

    A delimiter's sentinel chain has no tree; its slot keeps the sentinel.
    """
    upper, lower, attribute_root = components
    return concat_digests(roots[0] or upper, roots[1] or lower, attribute_root)


class StoredSignedRelation(SignedRelation):
    """A :class:`SignedRelation` served from a :class:`RelationStore`.

    Construction attaches to an existing store: only the sorted identity
    index (keys and fingerprints) loads eagerly, and nothing is re-signed —
    the signatures on disk *are* the owner's chain.  The first touch of an
    unloaded entry reads the chain span its caller needs in one range scan
    (:meth:`RelationStore.load_entry_span`), which fills the payload, stored
    roots and signature of every entry in it; component triples are derived
    from the roots on demand.  Mutations re-sign the usual window (one such
    read covers a delete's or a window's neighbours) and persist the changed
    entries and chain state in one SQLite transaction.
    """

    def __init__(
        self,
        store: RelationStore,
        relation_name: str,
        manifest: RelationManifest,
        signature_scheme: SignatureScheme,
    ) -> None:
        self.schema = manifest.schema
        self.relation = StoredRelation(self, store.load_record_index(relation_name))
        self.domain = self.schema.key_domain
        self.hash_function = manifest.hash_function()
        self.base = manifest.base
        self._signature_scheme = signature_scheme
        self.upper_scheme, self.lower_scheme = build_chain_schemes(
            self.domain, manifest.base, self.hash_function
        )
        self._manifest = None
        self._store = store
        self._name = relation_name
        self._width = self.hash_function.digest_size
        self._entries = (
            [ChainEntry(_LEFT_DELIMITER, self.domain.lower)]
            + [ChainEntry(_RECORD, key) for key, _ in self.relation._sort_keys]
            + [ChainEntry(_RIGHT_DELIMITER, self.domain.upper)]
        )
        stored = store.count_chain_entries(relation_name)
        if stored != len(self._entries):
            raise StorageError(
                f"relation {relation_name!r}: store holds {stored} chain entries, "
                f"the identity index implies {len(self._entries)}"
            )
        self._payloads = _LazyChainColumn(self._fault_neighbourhood, len(self._entries))
        self._roots = _LazyChainColumn(self._fault_neighbourhood, len(self._entries))
        self.signatures = _LazyChainColumn(self._fault_neighbourhood, len(self._entries))
        self._components = _LazyChainColumn(self._fault_components, len(self._entries))
        self._version = 0

    # -- lazy plumbing ---------------------------------------------------------

    def entry_assists(self, index: int) -> Tuple[EntryAssist, EntryAssist]:
        stored, width = self._roots[index], self._width
        return EntryAssist(stored[:width]), EntryAssist(stored[width : 2 * width])

    def _chain_digest(self, index: int, chain: int, stored: bytes) -> bytes:
        """Entry ``index``'s upper (``chain`` 0) or lower (1) chain digest.

        The canonical-only walk a verifier does for a value it knows, from
        the entry's key and the root stored in ``stored``: no record is read
        and no representation rebuilt.  A delimiter's sentinel chain is
        stored as is.
        """
        width = self._width
        root = stored[chain * width : (chain + 1) * width]
        entry, domain = self._entries[index], self.domain
        if chain == 0:
            if entry.kind == _RIGHT_DELIMITER:
                return root
            return self.upper_scheme.recompute_from_value(
                entry.key, domain.upper - entry.key - 1, EntryAssist(root)
            )
        if entry.kind == _LEFT_DELIMITER:
            return root
        return self.lower_scheme.recompute_from_value(
            entry.key, entry.key - domain.lower - 1, EntryAssist(root)
        )

    def _fault_components(self, index: int) -> None:
        """Entry ``index``'s ``g`` components, both chains re-derived."""
        stored = self._roots[index]
        self._components[index] = (
            self._chain_digest(index, 0, stored),
            self._chain_digest(index, 1, stored),
            stored[2 * self._width :],
        )

    def boundary_components(self, index: int, chain: int) -> Tuple[bytes, bytes]:
        """The one chain digest a boundary proof ships, and the attribute root.

        Only that chain is walked: the other is the one the boundary proof
        itself proves.  Nothing is kept, so an entry's component triple is
        faulted only where its full ``g`` is needed.
        """
        components = self._components._memo[index]
        if components is not _UNLOADED:
            return components[chain], components[2]
        stored = self._roots[index]
        return self._chain_digest(index, chain, stored), stored[2 * self._width :]

    def _fault_neighbourhood(self, index: int) -> None:
        self._load_span(index - 1, index + 1)

    def _load_span(self, first: int, last: int) -> None:
        """Read chain entries ``first..last`` (clipped to the chain) in one range scan.

        Nothing is read when every payload, roots and signature slot of the
        span is already filled.
        """
        first, last = max(first, 0), min(last, len(self._entries) - 1)
        columns = (self._payloads._memo, self._roots._memo, self.signatures._memo)
        if not any(_UNLOADED in column[first : last + 1] for column in columns):
            return
        identities = [self._entry_identity(index) for index in range(first, last + 1)]
        rows = self._store.load_entry_span(self._name, identities[0], identities[-1])
        if [row[:3] for row in rows] != identities:
            raise StorageError(
                f"relation {self._name!r}: the store holds {len(rows)} entries for chain "
                f"entries {first}..{last}, not the {len(identities)} its identity index implies"
            )
        for index, (kind, key, _, payload, stored, signature) in enumerate(rows, first):
            if len(stored) != 3 * self._width:
                raise StorageError(
                    f"relation {self._name!r}: the stored {kind} entry at key {key} does "
                    "not hold upper_root | lower_root | attribute_root"
                )
            # Fill only still-unloaded slots: a freshly re-signed (or
            # inserted) in-memory value is newer than what the store holds.
            for column, value in zip(columns, (payload, stored, signature)):
                if column[index] is _UNLOADED:
                    column[index] = value

    def _record(self, index: int) -> Record:
        """Entry ``index``'s row, decoded from its payload and checked against
        the fingerprint it is filed under."""
        key, fingerprint = self.relation._sort_keys[index - 1]
        delta = decode(self._payloads[index] or b"", expect=RecordDelta)
        record = Record(self.schema, delta.values)  # validated against the schema
        if record.fingerprint() != fingerprint:
            raise StorageError(
                f"relation {self._name!r}: stored row for key {key} does not "
                "match the fingerprint it was filed under"
            )
        return record

    def _entry_identity(self, index: int) -> Tuple[str, int, bytes]:
        if index == 0:
            return (KIND_LEFT, self.domain.lower, b"")
        if index == len(self._entries) - 1:
            return (KIND_RIGHT, self.domain.upper, b"")
        key, fingerprint = self.relation._sort_keys[index - 1]
        return (KIND_RECORD, key, fingerprint)

    # -- persisted mutations ---------------------------------------------------

    def _insert_entry(self, record) -> int:
        inserted = self.relation._coerce(record)
        chain_index = self.record_chain_index(self.relation.insert(inserted))
        components, roots = self._entry_components(ChainEntry(_RECORD, inserted.key, inserted))
        stored = _stored_roots(components, roots)
        payload = encode(RecordDelta(kind="insert", values=inserted.as_dict()))
        # The entry is kept key-only and the row as its payload, so a
        # long-running server holds no decoded copy of a row it inserted.
        self._entries.insert(chain_index, ChainEntry(_RECORD, inserted.key))
        self._components.insert(chain_index, components)
        self._roots.insert(chain_index, stored)
        self._payloads.insert(chain_index, payload)
        self.signatures.insert(chain_index, 0)
        self._store.put_entry(
            self._name,
            KIND_RECORD,
            inserted.key,
            inserted.fingerprint(),
            payload=payload,
            digest=stored,
            signature=0,  # signed, with its neighbours, by the re-sign that follows
        )
        return chain_index

    def _remove_entry(self, record) -> int:
        materialised = self.relation._coerce(record)
        # The row is read, then the window around its gap re-signed: one span.
        index = self.record_chain_index(self.relation.position_of(materialised))
        self._load_span(index - 2, index + 2)
        chain_index = super()._remove_entry(materialised)
        del self._payloads[chain_index]
        self._store.delete_entry(
            self._name, KIND_RECORD, materialised.key, materialised.fingerprint()
        )
        return chain_index

    def _resign_window(self, candidates, digests_recomputed):
        # Each re-signed message reads its entry's neighbours' digests.
        self._load_span(min(candidates) - 1, max(candidates) + 1)
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
    base: int = DEFAULT_BASE,
    hash_function: Optional[HashFunction] = None,
    batch_size: int = 512,
) -> int:
    """Stream ``rows`` (ascending by key) into a signed Section 5.1 chain on disk.

    Peak memory is O(``batch_size``): each entry's digest is computed once,
    its chain message is derived as soon as its right neighbour's digest is
    known (one entry of lag), and signatures are batch-signed and written
    ``batch_size`` at a time.  Produces bytes identical to building a
    :class:`~repro.core.relational.SignedRelation` over the same rows, and
    stores the genesis rotation, so the manifest (and its ``base``) can be
    read back from the store.  Returns the number of records stored.
    """
    hash_function = hash_function or default_hash()
    domain = schema.key_domain
    upper, lower = build_chain_schemes(domain, base, hash_function)
    manifest = RelationManifest(
        schema=schema,
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
        genesis = signature_scheme.sign(manifest_signing_message(manifest, b""))
        store.set_chain_state(
            relation_name,
            sequence=0,
            previous_sequence=-1,
            rotation=encode(ManifestRotated(manifest, b"", genesis)),
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
