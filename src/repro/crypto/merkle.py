"""Merkle hash trees and verification objects.

Merkle hash trees (MHTs) show up in three places in the reproduction:

* formula (3) uses ``MHT(r.A)`` — the root digest over the non-key attribute
  values of a record — both to make records with equal keys distinguishable and
  to let the publisher *project out* attributes by shipping their digests
  instead of their values (Section 4.2);
* the Section 5.1 optimisation builds a small MHT over the ``m`` preferred
  non-canonical representations of the exponent ``delta_t``;
* the Devanbu et al. baseline (:mod:`repro.schemes.devanbu`) builds one MHT
  over every sort order of a table.

The tree here is a standard binary MHT: leaves are digests of the data values,
internal nodes hash the concatenation of their children, and odd nodes at any
level are promoted unchanged.  :class:`MerkleProof` is the verification object
(VO): the sibling digests along the leaf-to-root path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import HASH_COUNTER, HashFunction, default_hash

__all__ = ["MerkleTree", "MerkleProof", "merkle_root", "LEAF_PREFIX"]

#: What every leaf digest's pre-image starts with (node pre-images start with
#: ``_NODE_PREFIX``), so a leaf can never pass for an inner node.
LEAF_PREFIX = b"\x00leaf|"
_NODE_PREFIX = b"\x01node|"


@dataclass(frozen=True)
class MerkleProof:
    """A Merkle verification object for one leaf.

    Attributes
    ----------
    leaf_index:
        Position of the proven leaf in the original sequence.
    siblings:
        ``(digest, is_left)`` pairs from the leaf level upward.  ``is_left``
        says whether the sibling sits to the left of the running digest.
    tree_size:
        Number of leaves in the tree the proof was generated from.
    """

    leaf_index: int
    siblings: Tuple[Tuple[bytes, bool], ...]
    tree_size: int

    @property
    def digest_count(self) -> int:
        """Number of digests shipped in this VO (for cost accounting)."""
        return len(self.siblings)

    def size_bytes(self, digest_size: int) -> int:
        """Total VO size in bytes assuming ``digest_size``-byte digests."""
        return self.digest_count * digest_size

    def spells_its_leaf(self) -> bool:
        """Do the ``is_left`` bits spell the path of ``leaf_index`` in a ``tree_size`` tree?

        :meth:`MerkleTree.root_from_proof` reads only the siblings, so a
        verifier that relies on the proof's index or size must check them
        against the path first: one sibling per level where the leaf's node
        has a partner (odd nodes are promoted without one), on its left
        exactly when the node is a right child.
        """
        position, size, bits = self.leaf_index, self.tree_size, []
        while size > 1:
            if position ^ 1 < size:
                bits.append(bool(position & 1))
            position //= 2
            size = (size + 1) // 2
        return [is_left for _, is_left in self.siblings] == bits


class MerkleTree:
    """Binary Merkle hash tree over a sequence of byte-string leaves.

    Parameters
    ----------
    leaves:
        Raw leaf payloads.  Each payload is hashed (with a leaf prefix) to form
        the leaf digest; pass pre-hashed values if the caller already has
        digests — they are hashed again, which is harmless and keeps leaf and
        node domains separated.
    hash_function:
        One-way hash to use; SHA-256 by default.
    """

    def __init__(
        self,
        leaves: Sequence[bytes],
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        if not leaves:
            raise ValueError("a Merkle tree needs at least one leaf")
        self.hash_function = hash_function or default_hash()
        self._leaf_payloads: List[bytes] = [bytes(leaf) for leaf in leaves]
        self._levels: List[List[bytes]] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _hash_leaf(self, payload: bytes) -> bytes:
        return self.hash_function.digest(LEAF_PREFIX + payload)

    def _hash_node(self, left: bytes, right: bytes) -> bytes:
        return self.hash_function.digest(_NODE_PREFIX + left + right)

    def _build(self) -> None:
        level = [self._hash_leaf(payload) for payload in self._leaf_payloads]
        self._levels = [level]
        while len(level) > 1:
            next_level: List[bytes] = []
            for index in range(0, len(level), 2):
                if index + 1 < len(level):
                    next_level.append(self._hash_node(level[index], level[index + 1]))
                else:
                    # Odd node: promote unchanged.
                    next_level.append(level[index])
            level = next_level
            self._levels.append(level)

    # -- public API --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self._leaf_payloads)

    @property
    def root(self) -> bytes:
        """The root digest — what the owner signs (or folds into ``g``)."""
        return self._levels[-1][0]

    @property
    def height(self) -> int:
        """Number of levels above the leaves."""
        return len(self._levels) - 1

    def leaf_digest(self, index: int) -> bytes:
        """Digest of the ``index``-th leaf."""
        return self._levels[0][index]

    def prove(self, index: int) -> MerkleProof:
        """Build the verification object for leaf ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(f"leaf index {index} out of range (size={self.size})")
        siblings: List[Tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            sibling_index = position ^ 1
            if sibling_index < len(level):
                siblings.append((level[sibling_index], sibling_index < position))
            position //= 2
        return MerkleProof(
            leaf_index=index, siblings=tuple(siblings), tree_size=self.size
        )

    def verify(self, payload: bytes, proof: MerkleProof, root: Optional[bytes] = None) -> bool:
        """Check that ``payload`` is the leaf ``proof`` speaks about.

        ``root`` defaults to this tree's root; callers that only hold a signed
        root digest pass it explicitly.
        """
        return self.verify_against_root(
            payload, proof, root if root is not None else self.root, self.hash_function
        )

    @staticmethod
    def verify_against_root(
        payload: bytes,
        proof: MerkleProof,
        root: bytes,
        hash_function: Optional[HashFunction] = None,
    ) -> bool:
        """Stateless verification usable by a client that never saw the tree."""
        hasher = hash_function or default_hash()
        digest = hasher.digest(LEAF_PREFIX + payload)
        for sibling, is_left in proof.siblings:
            if is_left:
                digest = hasher.digest(_NODE_PREFIX + sibling + digest)
            else:
                digest = hasher.digest(_NODE_PREFIX + digest + sibling)
        return digest == root

    @staticmethod
    def leaf_digest_of(payload: bytes, hash_function: Optional[HashFunction] = None) -> bytes:
        """The leaf digest a tree would assign to ``payload``.

        Publishers use this to ship digests of projected-out attributes; the
        verifier computes the same digest for the attributes it *can* see and
        rebuilds the root with :meth:`root_from_leaf_digests`.
        """
        hasher = hash_function or default_hash()
        return hasher.digest(LEAF_PREFIX + payload)

    @staticmethod
    def root_from_leaf_digests(
        leaf_digests: Sequence[bytes], hash_function: Optional[HashFunction] = None
    ) -> bytes:
        """Root of the tree whose leaf digests are ``leaf_digests``, in order (no tree kept)."""
        if not leaf_digests:
            raise ValueError("a Merkle tree needs at least one leaf")
        new = (hash_function or default_hash()).constructor
        level = list(leaf_digests)
        while len(level) > 1:
            paired = [
                new(_NODE_PREFIX + level[index] + level[index + 1]).digest()
                for index in range(0, len(level) - 1, 2)
            ]
            HASH_COUNTER.count += len(paired)
            if len(level) % 2:
                paired.append(level[-1])  # odd node: promoted unchanged
            level = paired
        return level[0]

    @staticmethod
    def root_from_payload(
        payload: bytes,
        proof: MerkleProof,
        hash_function: Optional[HashFunction] = None,
    ) -> bytes:
        """Recompute the root from a raw leaf payload plus its sibling digests.

        Used when the verifier can reconstruct the leaf *payload* itself (e.g.
        the digest of the representation it derived during boundary
        verification) but never saw the tree.
        """
        hasher = hash_function or default_hash()
        return MerkleTree.root_from_proof(
            hasher.digest(LEAF_PREFIX + payload), proof, hasher
        )

    @staticmethod
    def root_from_proof(
        leaf_digest: bytes,
        proof: MerkleProof,
        hash_function: Optional[HashFunction] = None,
    ) -> bytes:
        """Recompute the root starting from an already-hashed leaf digest.

        The Section 5.1 verification path needs this variant: the user derives
        the digest of the representation it reconstructed, then folds in the
        sibling digests the publisher shipped to reach the MHT root.
        """
        hasher = hash_function or default_hash()
        digest = leaf_digest
        for sibling, is_left in proof.siblings:
            if is_left:
                digest = hasher.digest(_NODE_PREFIX + sibling + digest)
            else:
                digest = hasher.digest(_NODE_PREFIX + digest + sibling)
        return digest


def merkle_root(leaves: Sequence[bytes], hash_function: Optional[HashFunction] = None) -> bytes:
    """The root digest of an MHT over ``leaves``, without building the tree."""
    hasher = hash_function or default_hash()
    new = hasher.constructor
    HASH_COUNTER.count += len(leaves)
    return MerkleTree.root_from_leaf_digests(
        [new(LEAF_PREFIX + leaf).digest() for leaf in leaves], hasher
    )
