"""Chain digest schemes: the ``g(r)`` building blocks of formulas (2) and (3).

A *chain digest scheme* commits to an integer value ``v`` through an iterated
hash whose exponent is the distance of ``v`` from a domain bound:

* an **upper chain** with exponent ``delta_t = U - v - 1`` lets the publisher
  prove ``v < alpha`` by releasing the intermediate digest at exponent
  ``delta_e = alpha - v - 1``; the verifier walks it ``delta_c = U - alpha``
  further steps and compares against the committed digest,
* a **lower chain** with exponent ``delta_t = v - L - 1`` symmetrically proves
  ``v > beta`` (release exponent ``v - beta - 1``; the verifier walks
  ``beta - L`` steps).

Both directions share the same machinery, parameterised by a *namespace* so the
two chains of one record can never be confused for each other.

* :class:`OptimizedChainScheme` — Section 5.1, the only kernel a relation is
  published, served, stored or verified with: the exponent is decomposed in
  base ``B``, one short chain per digit, the ``m`` preferred non-canonical
  representations are committed under a Merkle tree, and hashing drops to
  O(B · log_B(domain width)),
* :class:`ConceptualChainScheme` — formula (2), O(domain width) hashing, run
  in-process only: Section 3's value list, the ablation bench, property tests.

The optimized scheme does that work in one pass per ``(value, total)``.  A
preferred representation only ever raises a digit by ``B`` (position 0) or
``B - 1``, or lowers it by one, so each of the ``m`` digit chains is walked
once to the furthest exponent any representation reaches — straight on the
:mod:`hashlib` constructor, the exact call count added to ``HASH_COUNTER`` —
and the canonical digest, the ``m - 1`` representation leaves and a boundary
proof's intermediates are read off the walked chains: fewer than ``2Bm + 3m``
hashes per commitment.  That full walk happens in two places only: when the
owner commits to an entry (:meth:`ChainDigestScheme.commit`, which hands back
the representation-tree root beside the commitment, to be *stored* with the
entry and served as its :class:`EntryAssist`) and when the publisher proves a
boundary.  Everything else — the verifier, and a server re-deriving a stored
entry's ``g`` — is :meth:`~ChainDigestScheme.recompute_from_value`: the
canonical digits only, combined with the root it was given, walked straight
on the constructor with the digits peeled off the exponent as it goes (no
chain lists, no digit tuple), as :meth:`~ChainDigestScheme.recompute_from_boundary`
advances a boundary proof's intermediates.  Two memos sit on
top, both of pure functions of their keys, so no insert, delete or update can
stale them: that method's ``(value, total) -> canonical digest`` and
:meth:`~ChainDigestScheme.boundary_proof`'s ``(value, total, delta_c) ->
BoundaryAssist``; ``memoize=False`` removes both and changes no byte.
``tests/reference_digest.py`` keeps the slow construction, one representation
at a time, as the oracle the kernel is byte-compared against.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache import BoundedCache, bounded_put
from repro.core import polynomial
from repro.core.errors import CheatingAttemptError, VerificationError
from repro.crypto.encoding import encode_many, encode_value
from repro.crypto.hashing import (
    HASH_COUNTER,
    HashFunction,
    IteratedHasher,
    chain_preimage_stem,
    chain_preimage_suffix,
    default_hash,
)
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root

__all__ = [
    "EntryAssist",
    "BoundaryAssist",
    "ChainDigestScheme",
    "ConceptualChainScheme",
    "OptimizedChainScheme",
]

_EMPTY_REPRESENTATION_SENTINEL = b"__no_preferred_representations__"


@dataclass(frozen=True)
class EntryAssist:
    """Publisher-supplied help for recomputing the chain digest of a *known* value.

    Section 5.1 (every served chain) ships the root of the Merkle tree over
    the non-canonical representations, which the verifier cannot derive from
    the value alone; formula (2) (Section 3's in-process list) needs none.
    """

    mht_root: Optional[bytes] = None

    @property
    def digest_count(self) -> int:
        """Number of digests transmitted (for VO size accounting)."""
        return 0 if self.mht_root is None else 1


@dataclass(frozen=True)
class BoundaryAssist:
    """Publisher-supplied proof that a *hidden* value lies beyond a query bound.

    * Section 5.1 (every served chain) — one intermediate digest per base-``B``
      digit, plus either the Merkle root over the unused non-canonical
      representations (when the canonical representation was selected) or the
      canonical representation's digest together with a Merkle path covering
      the unused representations;
    * formula (2) (Section 3's in-process list) — one intermediate digest at
      exponent ``delta_e``.
    """

    intermediate_digests: Tuple[bytes, ...]
    used_canonical: bool = True
    mht_root: Optional[bytes] = None
    canonical_digest: Optional[bytes] = None
    mht_proof: Optional[MerkleProof] = None

    @property
    def digest_count(self) -> int:
        """Number of digests transmitted (for VO size accounting)."""
        count = len(self.intermediate_digests)
        if self.mht_root is not None:
            count += 1
        if self.canonical_digest is not None:
            count += 1
        if self.mht_proof is not None:
            count += self.mht_proof.digest_count
        return count


#: Bound on each of the optimized scheme's two memos; entries are evicted in
#: insertion order once the bound is hit.
_SCHEME_MEMO_MAX = 8192

#: One walk's yield: the exponent's canonical digits, and ``chains[p][e] = h^e(value | p)``.
_Digits = Tuple[int, ...]
_Chains = List[List[bytes]]


class ChainDigestScheme(abc.ABC):
    """Interface shared by the conceptual and optimized chain digest schemes.

    ``memoize`` (default True) turns on the optimized scheme's two memos, the
    verifier-side ``(value, total)`` canonical digest and the publisher-side
    ``(value, total, delta_c)`` boundary assist.  Cached and uncached schemes
    produce byte-identical digests — a memo only skips recomputation.
    """

    def __init__(
        self,
        domain_width: int,
        namespace: str,
        hash_function: Optional[HashFunction] = None,
        memoize: bool = True,
    ) -> None:
        if domain_width < 2:
            raise ValueError("domain width must be at least 2")
        self.domain_width = domain_width
        self.namespace = namespace
        self.hash_function = hash_function or default_hash()
        self.memoize = memoize
        self.hasher = IteratedHasher(self.hash_function)

    # -- anchors -----------------------------------------------------------------

    def _anchor(self, value: int) -> bytes:
        """Canonical anchor pre-image binding the namespace and the value."""
        return encode_many([self.namespace, int(value)])

    # -- abstract API ---------------------------------------------------------------

    @abc.abstractmethod
    def commit(self, value: int, total: int) -> Tuple[bytes, Optional[bytes]]:
        """Owner side: ``(commitment, root)`` for chain exponent ``total``.

        The commitment is what the owner folds into ``g(r)``.  The root is
        what the publisher ships — as an :class:`EntryAssist` — for a result
        entry whose value the user knows; it is stored beside the entry at
        publish time so that no read ever computes it.
        """

    def commitment(self, value: int, total: int) -> bytes:
        """The digest the owner folds into ``g(r)`` for chain exponent ``total``."""
        return self.commit(value, total)[0]

    @abc.abstractmethod
    def recompute_from_value(
        self, value: int, total: int, assist: EntryAssist
    ) -> bytes:
        """Verifier side: rebuild the commitment from the (known) value."""

    @abc.abstractmethod
    def boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        """Publisher side: prove the hidden value's chain without revealing it.

        ``delta_c`` is the verifier-known part of the exponent
        (``U - alpha`` for upper chains, ``beta - L`` for lower chains).
        Raises :class:`CheatingAttemptError` when the claim is false, i.e. when
        ``total < delta_c`` — an honest publisher cannot fabricate the proof.
        """

    @abc.abstractmethod
    def recompute_from_boundary(self, delta_c: int, assist: BoundaryAssist) -> bytes:
        """Verifier side: rebuild the commitment from a boundary proof."""


class ConceptualChainScheme(ChainDigestScheme):
    """Formula (2): ``g`` component is the full iterated hash ``h^{total}(value)``.

    Simple and exactly what Section 3.1 describes, but the number of hash
    invocations is linear in the domain width — use only for small domains.
    """

    def commit(self, value: int, total: int) -> Tuple[bytes, Optional[bytes]]:
        if total < 0:
            raise ValueError("chain exponent must be non-negative")
        return self.hasher.iterate(self._anchor(value), total, suffix=0), None

    def recompute_from_value(
        self, value: int, total: int, assist: EntryAssist
    ) -> bytes:
        return self.commitment(value, total)

    def boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        delta_e = total - delta_c
        if delta_e < 0:
            raise CheatingAttemptError(
                f"h^{{{delta_e}}} is undefined: the value does not satisfy the claimed bound"
            )
        intermediate = self.hasher.iterate(self._anchor(value), delta_e, suffix=0)
        return BoundaryAssist(intermediate_digests=(intermediate,), used_canonical=True)

    def recompute_from_boundary(self, delta_c: int, assist: BoundaryAssist) -> bytes:
        if len(assist.intermediate_digests) != 1:
            raise ValueError("conceptual boundary proofs carry exactly one digest")
        return self.hasher.extend(assist.intermediate_digests[0], delta_c)


class OptimizedChainScheme(ChainDigestScheme):
    """Section 5.1: base-``B`` decomposition of the chain exponent.

    Parameters
    ----------
    domain_width:
        ``U - L`` of the underlying key domain.
    namespace:
        Chain namespace (``"upper"``, ``"lower"`` …).
    base:
        The polynomial base ``B`` (:data:`polynomial.DEFAULT_BASE` unless
        given); the paper shows user computation is minimised for ``B`` in
        {2, 3}.
    """

    def __init__(
        self,
        domain_width: int,
        namespace: str,
        base: int = polynomial.DEFAULT_BASE,
        hash_function: Optional[HashFunction] = None,
        memoize: bool = True,
    ) -> None:
        super().__init__(domain_width, namespace, hash_function, memoize)
        if base < 2:
            raise ValueError("the polynomial base B must be at least 2")
        self.base = base
        self.num_digits = polynomial.num_digits_for(domain_width, base)
        self._suffixes = tuple(map(chain_preimage_suffix, range(self.num_digits)))
        # ``chain_preimage_stem(self._anchor(value))`` is this head followed by
        # the value's own length-prefixed encoding (see :meth:`_stem`).
        self._stem_head = chain_preimage_stem(encode_many([namespace]))
        self._span = base**self.num_digits
        # (value, total) -> canonical digest, filled by recompute_from_value
        # only: a client re-verifying a hot query pool lives off it (2.2x on
        # ``hot_read``); the owner's full walk never sees a pair twice.
        self._memo: dict = {}
        # (value, total, delta_c) -> BoundaryAssist, filled by boundary_proof:
        # a server re-answering a query pool between owner updates lives off
        # it (every lookup of a warm ``mixed_update`` hits).  The counters are
        # the publisher's ``cache_stats()["vo_fragments"]``.
        self._boundary_memo: BoundedCache = BoundedCache(_SCHEME_MEMO_MAX)

    # -- the single-pass kernel ---------------------------------------------------

    def _stem(self, value: int) -> bytes:
        """``chain_preimage_stem(self._anchor(value))``, the namespace part precomputed."""
        encoded = encode_value(int(value))
        return self._stem_head + len(encoded).to_bytes(4, "big") + encoded

    def _check_exponent(self, total: int) -> None:
        """The range :func:`polynomial.to_canonical_digits` accepts, with its errors."""
        if total < 0:
            raise ValueError("exponents are non-negative")
        if total >= self._span:
            raise ValueError(
                f"value {total} does not fit in {self.num_digits} base-{self.base} digits"
            )

    def _walk(self, value: int, total: int) -> Tuple[_Digits, _Chains]:
        """Walk each digit chain once: ``chains[p][e] = h^e(value | p)``.

        Position ``p`` is walked as far as any representation of ``total``
        reaches: ``c_0 + B`` at position 0, ``c_p + B - 1`` in the middle and
        ``c_p`` at the top position, which no borrow cascade ever raises.
        """
        new = self.hash_function.constructor
        digits = polynomial.to_canonical_digits(total, self.base, self.num_digits)
        stem = self._stem(value)
        top = self.num_digits - 1
        chains = []
        hashes = 0
        for position, (digit, suffix) in enumerate(zip(digits, self._suffixes)):
            reach = digit
            if position != top:
                reach += self.base - (1 if position else 0)
            digest = new(stem + suffix).digest()
            chain = [digest]
            for _ in range(reach):
                digest = new(digest).digest()
                chain.append(digest)
            hashes += reach + 1
            chains.append(chain)
        HASH_COUNTER.count += hashes
        return digits, chains

    def _canonical_walk(self, value: int, total: int) -> bytes:
        """The canonical representation's digest, ``h(h^{c_0}(value | 0) | ...)``.

        The verifier's kernel: each position is walked to its canonical digit
        straight on the :mod:`hashlib` constructor, digits peeled off
        ``total`` as it goes, and the call count added to ``HASH_COUNTER``
        once.  Byte-identical to :meth:`_canonical_digest` over :meth:`_walk`.
        """
        self._check_exponent(total)
        new = self.hash_function.constructor
        stem = self._stem(value)
        base = self.base
        parts = []
        append = parts.append
        hashes = self.num_digits + 1  # each chain's head, and the concatenation
        for suffix in self._suffixes:
            total, digit = divmod(total, base)
            digest = new(stem + suffix).digest()
            hashes += digit
            while digit:
                digest = new(digest).digest()
                digit -= 1
            append(digest)
        HASH_COUNTER.count += hashes
        return new(b"".join(parts)).digest()

    def _canonical_digest(self, digits: _Digits, chains: _Chains) -> bytes:
        return self.hash_function.combine(
            *[chain[digit] for chain, digit in zip(chains, digits)]
        )

    def _representation_leaves(self, digits: _Digits, chains: _Chains) -> List[bytes]:
        """Digests of the ``m - 1`` preferred representations, in index order.

        Representation ``i`` raises positions ``0..i``, lowers position
        ``i + 1`` by one (dropping it when its canonical digit is zero) and
        leaves the rest canonical, so it is the previous one's raised prefix
        plus one more raised digit, joined to a canonical suffix.
        """
        if self.num_digits == 1:
            return [_EMPTY_REPRESENTATION_SENTINEL]
        new = self.hash_function.constructor
        canonical = [chain[digit] for chain, digit in zip(chains, digits)]
        leaves = []
        raised = b""
        for index in range(self.num_digits - 1):
            raised += chains[index][digits[index] + self.base - (1 if index else 0)]
            borrowed = digits[index + 1]
            lowered = chains[index + 1][borrowed - 1] if borrowed else b""
            leaves.append(
                new(raised + lowered + b"".join(canonical[index + 2 :])).digest()
            )
        HASH_COUNTER.count += len(leaves)
        return leaves

    # -- owner side ----------------------------------------------------------------

    def commit(self, value: int, total: int) -> Tuple[bytes, Optional[bytes]]:
        if total < 0:
            raise ValueError("chain exponent must be non-negative")
        digits, chains = self._walk(value, total)
        root = merkle_root(self._representation_leaves(digits, chains), self.hash_function)
        return self.hash_function.combine(self._canonical_digest(digits, chains), root), root

    # -- publisher side ---------------------------------------------------------------

    def boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        if total < delta_c:
            raise CheatingAttemptError(
                "the value does not satisfy the claimed bound; "
                "no valid representation of the intermediate exponent exists"
            )
        if not self.memoize:
            return self._boundary_proof(value, total, delta_c)
        key = (value, total, delta_c)
        assist = self._boundary_memo.get(key)
        if assist is None:
            assist = self._boundary_memo.put(key, self._boundary_proof(value, total, delta_c))
        return assist

    def _boundary_proof(self, value: int, total: int, delta_c: int) -> BoundaryAssist:
        c_digits = polynomial.to_canonical_digits(delta_c, self.base, self.num_digits)
        selected = polynomial.select_boundary_representation(
            total, delta_c, self.base, self.num_digits
        )
        delta_e_digits = polynomial.subtract_digitwise(selected.digits, c_digits)
        digits, chains = self._walk(value, total)
        intermediates = tuple(
            chain[exponent] for chain, exponent in zip(chains, delta_e_digits)
        )
        leaves = self._representation_leaves(digits, chains)
        if selected.is_canonical:
            return BoundaryAssist(
                intermediate_digests=intermediates,
                used_canonical=True,
                mht_root=merkle_root(leaves, self.hash_function),
            )
        assert selected.index is not None
        return BoundaryAssist(
            intermediate_digests=intermediates,
            used_canonical=False,
            canonical_digest=self._canonical_digest(digits, chains),
            mht_proof=MerkleTree(leaves, self.hash_function).prove(selected.index),
        )

    # -- verifier side ---------------------------------------------------------------

    def recompute_from_value(
        self, value: int, total: int, assist: EntryAssist
    ) -> bytes:
        root = assist.mht_root
        if root is None:
            raise ValueError(
                "the optimized scheme needs the representation-tree root to verify an entry"
            )
        if self.memoize:
            canonical_digest = self._memo.get((value, total))
            if canonical_digest is None:
                canonical_digest = bounded_put(
                    self._memo, (value, total), self._canonical_walk(value, total),
                    _SCHEME_MEMO_MAX,
                )
        else:
            canonical_digest = self._canonical_walk(value, total)
        HASH_COUNTER.count += 1
        return self.hash_function.constructor(canonical_digest + root).digest()

    def recompute_from_boundary(self, delta_c: int, assist: BoundaryAssist) -> bytes:
        """Advance each intermediate digest by ``delta_c``'s digit, then close the proof.

        The same straight-line walk as :meth:`_canonical_walk`: no per-position
        lists or digit tuples, one ``HASH_COUNTER`` update per chain part.
        """
        digests = assist.intermediate_digests
        if len(digests) != self.num_digits:
            raise ValueError(
                "boundary proof carries the wrong number of intermediate digests"
            )
        self._check_exponent(delta_c)
        new = self.hash_function.constructor
        base = self.base
        advanced = []
        append = advanced.append
        hashes = 1  # the representation digest
        for digest in digests:
            delta_c, digit = divmod(delta_c, base)
            hashes += digit
            while digit:
                digest = new(digest).digest()
                digit -= 1
            append(digest)
        representation_digest = new(b"".join(advanced)).digest()
        HASH_COUNTER.count += hashes
        if assist.used_canonical:
            if assist.mht_root is None:
                raise ValueError("canonical boundary proof is missing the tree root")
            return self.hash_function.combine(representation_digest, assist.mht_root)
        if assist.canonical_digest is None or assist.mht_proof is None:
            raise ValueError(
                "non-canonical boundary proof needs the canonical digest and a Merkle path"
            )
        # The root is rebuilt from the siblings alone, so the proof's index
        # and size must be the ones those siblings spell in this tree of
        # ``m - 1`` representations, or a flipped field would go unnoticed.
        path = assist.mht_proof
        if path.tree_size != self.num_digits - 1 or not path.spells_its_leaf():
            raise VerificationError(
                f"the representation path claims leaf {path.leaf_index} of "
                f"{path.tree_size}, which its siblings do not spell in a tree "
                f"of {self.num_digits - 1}",
                reason="representation-path-mismatch",
            )
        root = MerkleTree.root_from_payload(
            representation_digest, assist.mht_proof, self.hash_function
        )
        return self.hash_function.combine(assist.canonical_digest, root)
