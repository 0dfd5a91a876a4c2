"""Immutable records (tuples) of a relation."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.encoding import encode_many, encode_value
from repro.crypto.hashing import HASH_COUNTER, HashFunction, default_hash
from repro.crypto.merkle import LEAF_PREFIX, MerkleTree
from repro.db.schema import Schema

__all__ = ["Record", "attribute_digests"]


def attribute_digests(
    leaf_heads: Sequence[Tuple[str, bytes]],
    values: Mapping[str, object],
    hash_function: HashFunction,
    provided: Mapping[str, bytes] = MappingProxyType({}),
) -> Tuple[List[bytes], bytes]:
    """``MHT(r.A)`` from a schema's leaf heads: ``(leaf digests, root)``.

    The attribute-tree kernel every party runs: the owner and a stored row's
    re-fingerprint (through :class:`Record`), the publisher (the leaf digests
    it ships for hidden attributes) and the verifier (revealed values plus
    shipped digests).  ``leaf_heads`` are
    :attr:`~repro.db.schema.Schema.attribute_leaf_heads`.  The leaf of an
    attribute named in ``values`` is hashed from its value straight on the
    :mod:`hashlib` constructor; any other is taken from ``provided``, and a
    ``KeyError`` names an attribute that neither holds.  A schema without
    non-key attributes commits one fixed sentinel leaf, so ``g(r)`` stays
    computable.  Byte-identical to :class:`~repro.crypto.merkle.MerkleTree`
    over :meth:`Record.attribute_leaves`, with the same ``HASH_COUNTER`` count.
    """
    new = hash_function.constructor
    if not leaf_heads:
        HASH_COUNTER.count += 1
        return [], new(LEAF_PREFIX + b"__no_non_key_attributes__").digest()
    leaves = []
    hashed = 0
    for name, head in leaf_heads:
        if name in values:
            encoded = encode_value(values[name])
            leaves.append(new(head + len(encoded).to_bytes(4, "big") + encoded).digest())
            hashed += 1
        else:
            leaves.append(provided[name])
    HASH_COUNTER.count += hashed
    return leaves, MerkleTree.root_from_leaf_digests(leaves, hash_function)


@dataclass(frozen=True)
class Record:
    """A single tuple of a relation.

    Records are immutable: updates at the relation level replace records rather
    than mutating them, which keeps signature bookkeeping straightforward (a
    replaced record invalidates exactly the three chain signatures the paper's
    Section 6.3 describes).

    Attributes
    ----------
    schema:
        The owning relation's schema.
    values:
        Mapping from attribute name to value.  Exposed read-only.
    """

    schema: Schema
    values: Mapping[str, object]

    def __post_init__(self) -> None:
        materialised: Dict[str, object] = dict(self.values)
        self.schema.validate_values(materialised)
        object.__setattr__(self, "values", MappingProxyType(materialised))
        # Per-hash-algorithm memos, ((leaf digests, root), fingerprint): the
        # record can never change underneath them.
        object.__setattr__(self, "_digest_caches", ({}, {}))

    # -- value access -------------------------------------------------------

    def __getitem__(self, name: str):
        return self.values[name]

    def get(self, name: str, default=None):
        """Dictionary-style access with a default."""
        return self.values.get(name, default)

    @property
    def key(self) -> int:
        """The sort-key value of this record."""
        return self.values[self.schema.key]  # type: ignore[return-value]

    def non_key_items(self) -> List[Tuple[str, object]]:
        """(name, value) pairs for non-key attributes, in schema order."""
        return [
            (attribute.name, self.values[attribute.name])
            for attribute in self.schema.non_key_attributes
        ]

    def project(self, attribute_names: Iterable[str]) -> Dict[str, object]:
        """Return only the named attributes as a plain dictionary."""
        names = list(attribute_names)
        for name in names:
            if not self.schema.has_attribute(name):
                raise KeyError(f"cannot project unknown attribute {name!r}")
        return {name: self.values[name] for name in names}

    def replace(self, **updates) -> "Record":
        """A copy of this record with some attribute values replaced."""
        merged = dict(self.values)
        merged.update(updates)
        return Record(schema=self.schema, values=merged)

    # -- hashing ------------------------------------------------------------

    def attribute_leaves(self) -> List[bytes]:
        """Canonical leaf payloads of the per-record attribute Merkle tree.

        One leaf per non-key attribute, in schema order; each leaf binds the
        attribute *name* and its value so that swapping two values between
        columns is detected (the authenticity example in the paper's
        introduction).
        """
        return [encode_many([name, value]) for name, value in self.non_key_items()]

    def _attribute_digests(
        self, hash_function: Optional[HashFunction]
    ) -> Tuple[Tuple[bytes, ...], bytes]:
        hasher = hash_function or default_hash()
        cache = self._digest_caches[0]
        digests = cache.get(hasher.name)
        if digests is None:
            leaves, root = attribute_digests(
                self.schema.attribute_leaf_heads, self.values, hasher
            )
            digests = cache[hasher.name] = (tuple(leaves), root)
        return digests

    def attribute_leaf_digests(
        self, hash_function: Optional[HashFunction] = None
    ) -> Tuple[bytes, ...]:
        """The leaf digests of ``MHT(r.A)``, in schema order.

        Cached per hash algorithm with the root: the publisher ships the ones
        a projection or filter hides, and the record can never change.
        """
        return self._attribute_digests(hash_function)[0]

    def attribute_root(self, hash_function: Optional[HashFunction] = None) -> bytes:
        """Root digest of the attribute Merkle tree — the ``MHT(r.A)`` term."""
        return self._attribute_digests(hash_function)[1]

    def fingerprint(self, hash_function: Optional[HashFunction] = None) -> bytes:
        """A digest of the full record (key and payload), for deterministic ordering.

        Relations sort duplicate keys by this fingerprint so that the owner,
        publisher and tests all agree on a single total order.  Cached per hash
        algorithm (the sort comparator calls this repeatedly).
        """
        hasher = hash_function or default_hash()
        cache = self._digest_caches[1]
        digest = cache.get(hasher.name)
        if digest is None:
            digest = hasher.digest(
                encode_value(self.key) + b"|" + self.attribute_root(hasher)
            )
            cache[hasher.name] = digest
        return digest

    # -- misc ----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """A plain mutable copy of the record's values."""
        return dict(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"Record({self.schema.name}: {rendered})"
