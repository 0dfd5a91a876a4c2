"""The relational extension of the scheme (Section 4): signed relations.

A :class:`SignedRelation` is the owner-side artefact for one relation and one
sort order: the sorted records flanked by two delimiters, the per-entry digest

``g(r) = h^{U-r.K-1}(r.K) | h^{r.K-L-1}(r.K) | MHT(r.A)``   (formula 3)

and one chain signature per entry (formula 1).  Compared to the Section 3
scheme, ``g`` gains a *lower* hash chain (so the publisher can prove that the
record just above the query range exceeds ``beta``) and the Merkle root over
the record's non-key attributes (which both disambiguates records sharing a key
value and provides authenticity for every attribute).

Following the paper's footnote, the delimiters sit at the domain bounds ``L``
and ``U``.  The chain that would have a negative exponent for a delimiter (the
lower chain of the left delimiter, the upper chain of the right delimiter) is
replaced by a distinguished constant digest: those chains are never the subject
of a boundary proof, so nothing is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.digest import ChainDigestScheme, EntryAssist, OptimizedChainScheme
from repro.core.polynomial import DEFAULT_BASE
from repro.crypto.encoding import concat_digests, encode_many
from repro.crypto.hashing import HashFunction, default_hash
from repro.crypto.merkle import MerkleTree
from repro.crypto.signature import SignatureScheme
from repro.db.records import Record
from repro.db.relation import Relation
from repro.db.schema import KeyDomain, Schema

__all__ = ["RelationManifest", "ChainEntry", "SignedRelation", "UpdateReceipt"]

_LEFT_DELIMITER = "left-delimiter"
_RIGHT_DELIMITER = "right-delimiter"
_RECORD = "record"

#: The representation-tree roots of an entry's (upper, lower) chains; ``None``
#: for a delimiter's sentinel chain, which has no tree.
_Roots = Tuple[Optional[bytes], Optional[bytes]]


def build_chain_schemes(
    domain: KeyDomain,
    base: int,
    hash_function: HashFunction,
    memoize: bool = True,
) -> Tuple[ChainDigestScheme, ChainDigestScheme]:
    """The (upper, lower) Section 5.1 chain digest schemes for a key domain."""
    return (
        OptimizedChainScheme(domain.width, "upper", base, hash_function, memoize),
        OptimizedChainScheme(domain.width, "lower", base, hash_function, memoize),
    )


@dataclass(frozen=True)
class RelationManifest:
    """Public metadata a user needs to verify results over one signed relation.

    The manifest is what the owner distributes (alongside its public key); it
    carries no record data.  It always describes a Section 5.1 signature
    chain: ``base`` and ``hash_name`` are the chain's digest parameters, and
    a rotation may change no field but ``sequence``.
    """

    schema: Schema
    base: int
    hash_name: str
    public_key: object  # RSAPublicKey
    #: Monotonic data version: the number of mutations applied to the signed
    #: relation since publication.  Two manifests of the same relation differ
    #: exactly when their sequences differ, which is what rotates the 32-byte
    #: manifest id on every live update and lets clients detect staleness.
    sequence: int = 0

    @property
    def domain(self) -> KeyDomain:
        return self.schema.key_domain

    def hash_function(self) -> HashFunction:
        return HashFunction(self.hash_name)

    def chain_schemes(
        self, memoize: bool = True
    ) -> Tuple[ChainDigestScheme, ChainDigestScheme]:
        """Fresh (upper, lower) chain schemes for this relation.

        ``memoize=False`` yields schemes without digest memos — used by the
        cost-model benchmarks, which count the hash operations a from-scratch
        verification performs.
        """
        return build_chain_schemes(self.domain, self.base, self.hash_function(), memoize)

    @cached_property
    def _anchors(self) -> Tuple[bytes, bytes]:
        """(left, right) end-of-chain anchors, hashed once per manifest."""
        hash_function = self.hash_function()
        return (
            hash_function.digest(encode_many(["anchor", self.domain.lower])),
            hash_function.digest(encode_many(["anchor", self.domain.upper])),
        )

    def left_anchor(self) -> bytes:
        """Digest standing in for the left neighbour of the left delimiter."""
        return self._anchors[0]

    def right_anchor(self) -> bytes:
        """Digest standing in for the right neighbour of the right delimiter."""
        return self._anchors[1]


@dataclass(frozen=True)
class ChainEntry:
    """One entry of the signed chain: a record or one of the two delimiters."""

    kind: str
    key: int
    record: Optional[Record] = None

    @property
    def is_record(self) -> bool:
        return self.kind == _RECORD


def entry_components(
    entry: ChainEntry,
    domain: KeyDomain,
    upper_scheme: ChainDigestScheme,
    lower_scheme: ChainDigestScheme,
    hash_function: HashFunction,
) -> Tuple[Tuple[bytes, bytes, bytes], _Roots]:
    """``(components, roots)`` of a chain entry (formula 3), each chain walked once.

    A delimiter's sentinel chain has no representation tree: its root is ``None``.
    """
    upper_root = lower_root = None
    if entry.kind == _RIGHT_DELIMITER:
        upper = hash_function.digest(encode_many(["right-delimiter-upper", domain.upper]))
    else:
        upper, upper_root = upper_scheme.commit(entry.key, domain.upper - entry.key - 1)
    if entry.kind == _LEFT_DELIMITER:
        lower = hash_function.digest(encode_many(["left-delimiter-lower", domain.lower]))
    else:
        lower, lower_root = lower_scheme.commit(entry.key, entry.key - domain.lower - 1)
    if entry.is_record:
        attribute_root = entry.record.attribute_root(hash_function)
    else:
        attribute_root = hash_function.digest(
            encode_many(["delimiter-attributes", entry.kind])
        )
    return (upper, lower, attribute_root), (upper_root, lower_root)


@dataclass(frozen=True)
class UpdateReceipt:
    """What an insert/delete/update cost the owner (Section 6.3 accounting).

    ``digests_recomputed`` counts ``g`` digests actually (re)computed: 1 for an
    insert (the new entry's digest; neighbour digests are unchanged), 0 for a
    delete.  ``chain_messages_recomputed`` counts the formula-(1) chain
    messages re-derived before re-signing — for a delete this is non-zero even
    though no ``g`` digest changes, because the entries flanking the gap now
    reference each other.
    """

    signatures_recomputed: int
    digests_recomputed: int
    entries_affected: Tuple[int, ...]
    chain_messages_recomputed: int = 0

    @staticmethod
    def merge(receipts: Sequence["UpdateReceipt"]) -> "UpdateReceipt":
        """Combine per-step receipts into one batch receipt.

        This is the *single* definition of batch accounting: every publisher
        applying an ``UpdateRequest`` batch merges its per-delta receipts
        through it, so a receipt replayed over the wire reproduces exactly
        the counts the in-process path reports.  ``entries_affected``
        concatenates the
        per-step chain indices in application order; indices are relative to
        the chain as it stood when that step ran.
        """
        merged = tuple(receipts)
        return UpdateReceipt(
            signatures_recomputed=sum(r.signatures_recomputed for r in merged),
            digests_recomputed=sum(r.digests_recomputed for r in merged),
            entries_affected=tuple(
                index for receipt in merged for index in receipt.entries_affected
            ),
            chain_messages_recomputed=sum(
                r.chain_messages_recomputed for r in merged
            ),
        )


class SignedRelation:
    """A relation published with per-record chain signatures for one sort order."""

    def __init__(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        base: int = DEFAULT_BASE,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        self.relation = relation
        self.schema: Schema = relation.schema
        self.domain: KeyDomain = self.schema.key_domain
        self.hash_function = hash_function or default_hash()
        self.base = base
        self._signature_scheme = signature_scheme
        self.upper_scheme, self.lower_scheme = build_chain_schemes(
            self.domain, base, self.hash_function
        )
        self._manifest: Optional[RelationManifest] = None
        self._entries: List[ChainEntry] = []
        self._components: List[Tuple[bytes, bytes, bytes]] = []
        self._roots: List[_Roots] = []
        self.signatures: List[int] = []
        self._version = 0
        self._rebuild_all()

    # -- manifest -------------------------------------------------------------------

    @property
    def manifest(self) -> RelationManifest:
        """The public verification metadata for this relation.

        Cached per data version: every field except ``sequence`` is immutable
        for the lifetime of the signed relation, and ``sequence`` tracks
        :attr:`version` so each mutation *rotates* the manifest (and with it
        the 32-byte manifest id clients pin).  The anchors consulted by
        ``chain_message`` depend only on the key domain, so they are identical
        across rotations.
        """
        if self._manifest is None or self._manifest.sequence != self._version:
            self._manifest = RelationManifest(
                schema=self.schema,
                base=self.base,
                hash_name=self.hash_function.name,
                public_key=self._signature_scheme.verifier,
                sequence=self._version,
            )
        return self._manifest

    def sign_rotation(self, previous_id: bytes) -> int:
        """The owner signature authenticating the *current* manifest.

        Signs the domain-separated rotation message over ``previous_id`` (the
        manifest id being superseded; empty at genesis) and the current
        manifest's canonical wire bytes — see
        :func:`repro.wire.updates.manifest_signing_message`.  A client that
        pinned an older manifest accepts the rotated one only if this
        signature verifies under the public key it already trusts.
        """
        from repro.wire.updates import manifest_signing_message

        return self._signature_scheme.sign(
            manifest_signing_message(self.manifest, previous_id)
        )

    # -- versioning ----------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every insert/delete/update."""
        return self._version

    @property
    def signature_scheme(self) -> SignatureScheme:
        """The owner signing scheme this relation publishes under."""
        return self._signature_scheme

    def restore_sequence(self, sequence: int) -> None:
        """Resume the manifest sequence of a recovered relation.

        Chain entries, digests and signatures depend only on the rows and the
        signing key — never on the sequence — so a relation rebuilt from a
        checkpoint at sequence ``n`` is bit-identical to the original except
        for this counter.  Setting it (and dropping the cached manifest)
        makes the next :attr:`manifest` reproduce the checkpointed manifest
        exactly, 32-byte id included.
        """
        if sequence < 0:
            raise ValueError("sequence must be >= 0")
        self._version = int(sequence)
        self._manifest = None

    # -- chain structure -----------------------------------------------------------------

    @property
    def entries(self) -> List[ChainEntry]:
        """All chain entries (delimiters included), in sort order."""
        return list(self._entries)

    def entry_count(self) -> int:
        """Number of chain entries including the two delimiters."""
        return len(self._entries)

    def record_chain_index(self, record_position: int) -> int:
        """Chain index of the record at ``record_position`` in the relation."""
        return record_position + 1

    def entry(self, index: int) -> ChainEntry:
        return self._entries[index]

    def components(self, index: int) -> Tuple[bytes, bytes, bytes]:
        """The (upper-chain, lower-chain, attribute-root) digests of entry ``index``."""
        return self._components[index]

    def boundary_components(self, index: int, chain: int) -> Tuple[bytes, bytes]:
        """What a boundary proof over entry ``index`` ships beside its chain proof.

        The entry's other chain's digest — ``chain`` 0 is the upper chain, 1
        the lower — and its attribute root.
        """
        components = self._components[index]
        return components[chain], components[2]

    def entry_assists(self, index: int) -> Tuple[EntryAssist, EntryAssist]:
        """What a verifier needs to recompute entry ``index``'s two chain digests.

        The Section 5.1 representation-tree roots, kept from the owner's own
        walk at publish time — serving them hashes nothing.
        """
        upper_root, lower_root = self._roots[index]
        return EntryAssist(upper_root), EntryAssist(lower_root)

    def entry_digest(self, index: int) -> bytes:
        """The full ``g`` digest of entry ``index``."""
        return concat_digests(*self._components[index])

    def chain_message(self, index: int) -> bytes:
        """The signed byte string of entry ``index`` (formula (1))."""
        manifest = self.manifest
        previous = manifest.left_anchor() if index == 0 else self.entry_digest(index - 1)
        following = (
            manifest.right_anchor()
            if index == len(self._entries) - 1
            else self.entry_digest(index + 1)
        )
        return self.hash_function.combine(previous, self.entry_digest(index), following)

    # -- digest construction ----------------------------------------------------------------

    def _entry_components(self, entry: ChainEntry):
        return entry_components(
            entry, self.domain, self.upper_scheme, self.lower_scheme, self.hash_function
        )

    def _build_entries(self) -> List[ChainEntry]:
        entries = [ChainEntry(_LEFT_DELIMITER, self.domain.lower)]
        entries.extend(
            ChainEntry(_RECORD, record.key, record) for record in self.relation
        )
        entries.append(ChainEntry(_RIGHT_DELIMITER, self.domain.upper))
        return entries

    def _rebuild_all(self) -> None:
        self._entries = self._build_entries()
        built = [self._entry_components(entry) for entry in self._entries]
        self._components, self._roots = map(list, zip(*built))
        messages = [self.chain_message(index) for index in range(len(self._entries))]
        self.signatures = self._signature_scheme.sign_batch(messages)

    # -- updates (Section 6.3) -----------------------------------------------------------------

    def _resign_window(
        self, candidates: Sequence[int], digests_recomputed: int
    ) -> UpdateReceipt:
        """Re-sign the in-range ``candidates`` whose chain messages moved."""
        affected = [
            index for index in candidates if 0 <= index < len(self._entries)
        ]
        messages = [self.chain_message(index) for index in affected]
        for index, signature in zip(
            affected, self._signature_scheme.sign_batch(messages)
        ):
            self.signatures[index] = signature
        return UpdateReceipt(
            signatures_recomputed=len(affected),
            digests_recomputed=digests_recomputed,
            entries_affected=tuple(affected),
            chain_messages_recomputed=len(affected),
        )

    def _insert_entry(self, record) -> int:
        """Structural half of an insert: place the new entry, unsigned."""
        position = self.relation.insert(record)
        chain_index = self.record_chain_index(position)
        inserted = self.relation[position]
        entry = ChainEntry(_RECORD, inserted.key, inserted)
        components, roots = self._entry_components(entry)
        self._entries.insert(chain_index, entry)
        self._components.insert(chain_index, components)
        self._roots.insert(chain_index, roots)
        self.signatures.insert(chain_index, 0)
        return chain_index

    def _remove_entry(self, record: Record) -> int:
        """Structural half of a delete: the chain index of the gap."""
        position = self.relation.delete(record)
        chain_index = self.record_chain_index(position)
        del self._entries[chain_index]
        del self._components[chain_index]
        del self._roots[chain_index]
        del self.signatures[chain_index]
        return chain_index

    def insert_record(self, record) -> UpdateReceipt:
        """Insert a record and refresh the three affected signatures."""
        chain_index = self._insert_entry(record)
        # Exactly one g digest is computed: the new entry's.  The neighbours
        # keep their digests; only their chain messages (and signatures) move.
        receipt = self._resign_window(
            (chain_index - 1, chain_index, chain_index + 1), digests_recomputed=1
        )
        self._version += 1
        return receipt

    def delete_record(self, record: Record) -> UpdateReceipt:
        """Delete a record and refresh the two signatures around the gap."""
        chain_index = self._remove_entry(record)
        # No g digest changes on delete — the gap's neighbours keep their
        # digests and only re-derive the chain messages binding them.
        receipt = self._resign_window(
            (chain_index - 1, chain_index), digests_recomputed=0
        )
        self._version += 1
        return receipt

    def update_record(self, old: Record, new) -> UpdateReceipt:
        """Replace ``old`` with ``new`` (Section 6.3): a delete and an insert.

        Both structural edits land first and the union of their two windows
        is re-signed once: three signatures when ``new`` sits where ``old``
        sat, never more than five.  The signatures are those a delete
        followed by an insert leaves behind, and the sequence advances by
        the same two steps.
        """
        gap_index = self._remove_entry(old)
        chain_index = self._insert_entry(new)
        around_gap = {
            index + (index >= chain_index) for index in (gap_index - 1, gap_index)
        }
        receipt = self._resign_window(
            sorted(around_gap | {chain_index - 1, chain_index, chain_index + 1}),
            digests_recomputed=1,
        )
        self._version += 2  # the delete's step and the insert's
        return receipt

    # -- verification convenience ------------------------------------------------------------------

    def verify_internal_consistency(self) -> bool:
        """Owner-side self-check: every stored signature matches its chain message."""
        return all(
            self._signature_scheme.verify(self.chain_message(index), signature)
            for index, signature in enumerate(self.signatures)
        )
