"""Slow reference for the Section 5.1 chain digests: the tests' oracle.

Straight from the formulas, one representation at a time, no cache and no
shared work: every digit chain of every representation is re-walked from its
tagged pre-image with :mod:`hashlib` itself.  This is the construction
``repro.core.digest.OptimizedChainScheme`` shipped before its single-pass
kernel; it lives on here so the kernel always has something independent to be
byte-compared against (``tests/test_digest_kernel.py``).

It reuses from ``src/`` only what the kernel does not touch: the polynomial
representations, the byte encodings, ``MerkleTree`` and the assist dataclasses
(so results compare with ``==``).
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.core import polynomial
from repro.core.digest import BoundaryAssist, EntryAssist
from repro.core.errors import CheatingAttemptError
from repro.crypto.encoding import encode_many, encode_value, int_to_bytes
from repro.crypto.hashing import HashFunction
from repro.crypto.merkle import MerkleTree

SENTINEL_LEAF = b"__no_preferred_representations__"


class ReferenceOptimizedScheme:
    """Cache-free ``OptimizedChainScheme`` with the same five operations."""

    def __init__(
        self,
        domain_width: int,
        namespace: str,
        base: int = polynomial.DEFAULT_BASE,
        hash_name: str = "sha256",
    ) -> None:
        self.namespace = namespace
        self.base = base
        self.hash_name = hash_name
        self.num_digits = polynomial.num_digits_for(domain_width, base)
        #: hashlib invocations so far, counted here and nowhere else.
        self.hashes = 0

    # -- primitives ---------------------------------------------------------------

    def _h(self, data: bytes) -> bytes:
        self.hashes += 1
        return hashlib.new(self.hash_name, data).digest()

    def _digit_digest(self, value: int, exponent: int, position: int) -> bytes:
        """``h^{exponent}(value | position)`` for one digit chain."""
        anchor = encode_many([self.namespace, int(value)])
        digest = self._h(
            b"chain-base|" + encode_value(anchor) + b"|" + int_to_bytes(position)
        )
        for _ in range(exponent):
            digest = self._h(digest)
        return digest

    def _representation_digest(
        self, value: int, representation: polynomial.Representation
    ) -> bytes:
        """Hash of the representation's concatenated digit chains."""
        return self._h(
            b"".join(
                self._digit_digest(value, representation.digits[position], position)
                for position in representation.included_positions()
            )
        )

    def canonical_digest(self, value: int, total: int) -> bytes:
        return self._representation_digest(
            value, polynomial.canonical_representation(total, self.base, self.num_digits)
        )

    def representation_leaves(self, value: int, total: int) -> List[bytes]:
        leaves = [
            self._representation_digest(value, representation)
            for representation in polynomial.all_preferred_representations(
                total, self.base, self.num_digits
            )
        ]
        return leaves or [SENTINEL_LEAF]

    def _tree(self, value: int, total: int) -> MerkleTree:
        # MerkleTree counts on the global counter, not on ``self.hashes``; the
        # oracle's own count is only ever read for the verifier side, which
        # builds no tree.
        return MerkleTree(
            self.representation_leaves(value, total), HashFunction(self.hash_name)
        )

    # -- the five operations ----------------------------------------------------------

    def commitment(self, value: int, total: int) -> bytes:
        if total < 0:
            raise ValueError("chain exponent must be non-negative")
        return self._h(self.canonical_digest(value, total) + self._tree(value, total).root)

    def entry_assist(self, value: int, total: int) -> EntryAssist:
        return EntryAssist(mht_root=self._tree(value, total).root)

    def boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        if total < delta_c:
            raise CheatingAttemptError("the value does not satisfy the claimed bound")
        c_digits = polynomial.to_canonical_digits(delta_c, self.base, self.num_digits)
        selected = polynomial.select_boundary_representation(
            total, delta_c, self.base, self.num_digits
        )
        delta_e_digits = polynomial.subtract_digitwise(selected.digits, c_digits)
        intermediates = tuple(
            self._digit_digest(value, delta_e_digits[position], position)
            for position in range(self.num_digits)
        )
        tree = self._tree(value, total)
        if selected.is_canonical:
            return BoundaryAssist(
                intermediate_digests=intermediates, used_canonical=True, mht_root=tree.root
            )
        return BoundaryAssist(
            intermediate_digests=intermediates,
            used_canonical=False,
            canonical_digest=self.canonical_digest(value, total),
            mht_proof=tree.prove(selected.index),
        )

    def recompute_from_value(self, value: int, total: int, assist: EntryAssist) -> bytes:
        return self._h(self.canonical_digest(value, total) + assist.mht_root)

    def recompute_from_boundary(self, delta_c: int, assist: BoundaryAssist) -> bytes:
        c_digits = polynomial.to_canonical_digits(delta_c, self.base, self.num_digits)
        advanced = []
        for position, digest in enumerate(assist.intermediate_digests):
            for _ in range(c_digits[position]):
                digest = self._h(digest)
            advanced.append(digest)
        representation_digest = self._h(b"".join(advanced))
        if assist.used_canonical:
            return self._h(representation_digest + assist.mht_root)
        root = MerkleTree.root_from_payload(
            representation_digest, assist.mht_proof, HashFunction(self.hash_name)
        )
        return self._h(assist.canonical_digest + root)
