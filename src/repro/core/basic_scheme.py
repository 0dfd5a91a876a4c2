"""The basic completeness scheme of Section 3: greater-than over a sorted list.

The owner maintains a sorted list of distinct values ``R = (r_1, .., r_n)``
drawn from an open domain ``(L, U)``, flanks it with two fictitious delimiters
and signs, for every entry, the digest of the entry and its two neighbours
(formula (1)).  Given a query ``sigma_{r >= alpha}(R)`` the publisher returns
the qualifying suffix together with a proof that

* the entry just *before* the result is smaller than ``alpha`` (origin), proved
  without revealing it via the iterated-hash boundary trick,
* successive result entries are adjacent in ``R`` (contiguity),
* the result runs all the way to the right delimiter (terminal).

Following the paper's footnote, the delimiters sit at the domain bounds
themselves (``r_0 = L`` and ``r_{n+1} = U``), which makes the boundary proofs
well defined for every legal ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.digest import (
    ChainDigestScheme,
    ConceptualChainScheme,
    EntryAssist,
    OptimizedChainScheme,
)
from repro.core.errors import (
    AuthenticityError,
    CompletenessError,
    ProofConstructionError,
    VerificationError,
)
from repro.core.proof import GreaterThanProof, SignatureBundle
from repro.core.report import VerificationReport
from repro.core.verifier import check_signature_bundle
from repro.crypto.aggregate import aggregate_signatures
from repro.crypto.encoding import concat_digests, encode_many
from repro.crypto.hashing import HASH_COUNTER, HashFunction, default_hash
from repro.crypto.signature import SignatureScheme
from repro.db.schema import KeyDomain

__all__ = ["ListManifest", "SignedValueList", "ListPublisher", "ListVerifier"]


def _build_chain_scheme(
    kind: str, domain: KeyDomain, base: int, hash_function: HashFunction
) -> ChainDigestScheme:
    """Instantiate the configured chain digest scheme for a value list."""
    if kind == "conceptual":
        return ConceptualChainScheme(domain.width, "value", hash_function)
    if kind == "optimized":
        return OptimizedChainScheme(domain.width, "value", base, hash_function)
    raise ValueError(f"unknown digest scheme kind {kind!r}")


@dataclass(frozen=True)
class ListManifest:
    """Everything a *user* needs to verify results over a published value list.

    Distributed by the owner through an authenticated channel together with the
    public key; contains no data values.
    """

    domain: KeyDomain
    scheme_kind: str
    base: int
    hash_name: str
    public_key: object  # RSAPublicKey; typed loosely to avoid a crypto import cycle

    def hash_function(self) -> HashFunction:
        return HashFunction(self.hash_name)

    def chain_scheme(self) -> ChainDigestScheme:
        return _build_chain_scheme(
            self.scheme_kind, self.domain, self.base, self.hash_function()
        )

    def left_anchor(self) -> bytes:
        """The digest standing in for the (non-existent) left neighbour of ``r_0``."""
        return self.hash_function().digest(encode_many(["anchor", self.domain.lower]))

    def right_anchor(self) -> bytes:
        """The digest standing in for the right neighbour of ``r_{n+1}``."""
        return self.hash_function().digest(encode_many(["anchor", self.domain.upper]))

    def right_delimiter_digest_preimage(self) -> bytes:
        return encode_many(["right-delimiter", self.domain.upper])


class SignedValueList:
    """A sorted value list published by the owner, with per-entry chain signatures.

    The publisher hosts one of these; it contains the values *and* the
    signatures, but not the owner's private key.
    """

    def __init__(
        self,
        domain: KeyDomain,
        values: Sequence[int],
        signature_scheme: SignatureScheme,
        scheme_kind: str = "optimized",
        base: int = 2,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        self.domain = domain
        self.hash_function = hash_function or default_hash()
        self.scheme_kind = scheme_kind
        self.base = base
        self._signature_scheme = signature_scheme
        self._manifest: Optional[ListManifest] = None
        self.chain_scheme = _build_chain_scheme(
            scheme_kind, domain, base, self.hash_function
        )
        self.values: List[int] = []
        seen = set()
        for value in sorted(values):
            domain.require(value)
            if value in seen:
                raise ValueError(
                    f"duplicate value {value}: disambiguate duplicates before publishing"
                )
            seen.add(value)
            self.values.append(value)
        self.signatures: List[int] = []
        self._digests: List[bytes] = []
        #: Per entry, the representation-tree root the owner's walk produced
        #: beside the digest: what the publisher ships as the entry's assist.
        self._roots: List[Optional[bytes]] = []
        self._resign_all()

    # -- digests and signatures ----------------------------------------------------

    @property
    def manifest(self) -> ListManifest:
        """The public metadata users need for verification (built once)."""
        if self._manifest is None:
            self._manifest = ListManifest(
                domain=self.domain,
                scheme_kind=self.scheme_kind,
                base=self.base,
                hash_name=self.hash_function.name,
                public_key=self._signature_scheme.verifier,
            )
        return self._manifest

    def entry_count(self) -> int:
        """Number of chain entries including the two delimiters."""
        return len(self.values) + 2

    def _entry_value(self, index: int) -> int:
        """Value of chain entry ``index`` (0 = left delimiter, n+1 = right delimiter)."""
        if index == 0:
            return self.domain.lower
        if index == len(self.values) + 1:
            return self.domain.upper
        return self.values[index - 1]

    def entry_digest(self, index: int) -> bytes:
        """The committed digest ``g`` of chain entry ``index``."""
        return self._digests[index]

    def entry_assist(self, index: int) -> EntryAssist:
        """What a verifier needs to recompute ``g`` of chain entry ``index``."""
        return EntryAssist(self._roots[index])

    def _commit(self, index: int) -> Tuple[bytes, Optional[bytes]]:
        """``(digest, root)`` of chain entry ``index``, from one walk."""
        value = self._entry_value(index)
        if index == len(self.values) + 1:
            # Right delimiter sits at U; its upper chain would have a negative
            # exponent, so it is committed to through a distinguished digest.
            return (
                self.hash_function.digest(self.manifest.right_delimiter_digest_preimage()),
                None,
            )
        return self.chain_scheme.commit(value, self.domain.upper - value - 1)

    def chain_message(self, index: int) -> bytes:
        """The byte string signed for entry ``index`` (formula (1))."""
        manifest = self.manifest
        previous = (
            manifest.left_anchor() if index == 0 else self._digests[index - 1]
        )
        following = (
            manifest.right_anchor()
            if index == len(self.values) + 1
            else self._digests[index + 1]
        )
        return self.hash_function.combine(previous, self._digests[index], following)

    def _resign_all(self) -> None:
        committed = [self._commit(i) for i in range(self.entry_count())]
        self._digests, self._roots = map(list, zip(*committed))
        messages = [self.chain_message(i) for i in range(self.entry_count())]
        self.signatures = self._signature_scheme.sign_batch(messages)

    # -- updates (Section 6.3) -------------------------------------------------------

    def insert_value(self, value: int) -> int:
        """Insert ``value``; returns the number of signatures recomputed.

        An insertion affects the signature of the new entry and of its two
        neighbours — three signatures, regardless of the list size.
        """
        self.domain.require(value)
        if value in self.values:
            raise ValueError(f"value {value} already present")
        import bisect

        position = bisect.bisect_left(self.values, value)
        self.values.insert(position, value)
        entry_index = position + 1
        digest, root = self._commit(entry_index)
        self._digests.insert(entry_index, digest)
        self._roots.insert(entry_index, root)
        self.signatures.insert(entry_index, 0)
        return self._resign_window(entry_index)

    def remove_value(self, value: int) -> int:
        """Remove ``value``; returns the number of signatures recomputed."""
        position = self.values.index(value)
        entry_index = position + 1
        del self.values[position]
        del self._digests[entry_index]
        del self._roots[entry_index]
        del self.signatures[entry_index]
        # The two entries that are now adjacent across the gap reference each
        # other in their chain messages and must be re-signed.
        affected = [
            index
            for index in (entry_index - 1, entry_index)
            if 0 <= index < self.entry_count()
        ]
        for index in affected:
            self.signatures[index] = self._signature_scheme.sign(self.chain_message(index))
        return len(affected)

    def _resign_window(self, entry_index: int, width: int = 3) -> int:
        """Re-sign the ``width`` entries centred on ``entry_index``."""
        touched = 0
        start = max(0, entry_index - 1)
        stop = min(self.entry_count(), start + width)
        for index in range(start, stop):
            self.signatures[index] = self._signature_scheme.sign(self.chain_message(index))
            touched += 1
        return touched


class ListPublisher:
    """The untrusted publisher: answers greater-than queries over a signed list."""

    def __init__(self, published: SignedValueList, aggregate: bool = True) -> None:
        self.published = published
        self.aggregate = aggregate

    def answer_greater_than(self, alpha: int) -> Tuple[List[int], GreaterThanProof]:
        """Return ``(result values, proof)`` for ``sigma_{r >= alpha}``."""
        published = self.published
        domain = published.domain
        if not domain.contains(alpha):
            raise ProofConstructionError(
                f"alpha must lie strictly inside the domain ({domain.lower}, {domain.upper})"
            )
        values = published.values
        first = next((i for i, value in enumerate(values) if value >= alpha), len(values))
        result = values[first:]
        predecessor_value = values[first - 1] if first > 0 else domain.lower
        boundary = published.chain_scheme.boundary_proof(
            predecessor_value,
            domain.upper - predecessor_value - 1,
            domain.upper - alpha,
        )
        assists = tuple(
            published.entry_assist(index) for index in range(first + 1, len(values) + 1)
        )
        delimiter_digest = published.entry_digest(len(values) + 1)

        if result:
            signature_indices = list(range(first + 1, len(values) + 2))
        else:
            signature_indices = [len(values) + 1]
        raw_signatures = [published.signatures[i] for i in signature_indices]
        messages = [published.chain_message(i) for i in signature_indices]
        if self.aggregate:
            bundle = SignatureBundle(
                aggregate=aggregate_signatures(
                    raw_signatures,
                    published.manifest.public_key,
                    messages,
                )
            )
        else:
            bundle = SignatureBundle(individual=tuple(raw_signatures))
        proof = GreaterThanProof(
            alpha=alpha,
            predecessor_boundary=boundary,
            entry_assists=assists,
            right_delimiter_digest=delimiter_digest,
            signatures=bundle,
        )
        return list(result), proof


class ListVerifier:
    """The user-side verifier for greater-than results over a published list."""

    def __init__(self, manifest: ListManifest) -> None:
        self.manifest = manifest
        self.hash_function = manifest.hash_function()
        self.chain_scheme = manifest.chain_scheme()

    def verify_greater_than(
        self, alpha: int, result: Sequence[int], proof: GreaterThanProof
    ) -> VerificationReport:
        """Verify a greater-than result; raises a typed error on any problem.

        Structurally broken proofs (an assist shape no honest publisher could
        produce — e.g. decoded from tampered wire bytes) are rejected with a
        ``malformed-proof`` :class:`VerificationError` instead of escaping as
        a raw ``ValueError``.
        """
        from repro.core.verifier import _malformed_input_guard

        with _malformed_input_guard():
            return self._verify_greater_than(alpha, result, proof)

    def _verify_greater_than(
        self, alpha: int, result: Sequence[int], proof: GreaterThanProof
    ) -> VerificationReport:
        start_hashes = HASH_COUNTER.count
        domain = self.manifest.domain
        if proof.alpha != alpha:
            raise VerificationError("proof was generated for a different query constant")
        if not domain.contains(alpha):
            raise VerificationError("query constant outside the value domain")
        self._check_result_values(alpha, result)
        if len(proof.entry_assists) != len(result):
            raise VerificationError(
                "proof carries a different number of entry assists than result values"
            )

        predecessor_digest = self.chain_scheme.recompute_from_boundary(
            domain.upper - alpha, proof.predecessor_boundary
        )
        result_digests = [
            self.chain_scheme.recompute_from_value(
                value, domain.upper - value - 1, assist
            )
            for value, assist in zip(result, proof.entry_assists)
        ]
        delimiter_digest = proof.right_delimiter_digest
        left_anchor = self.manifest.left_anchor()
        right_anchor = self.manifest.right_anchor()
        del left_anchor  # the left anchor is never needed for greater-than results

        chain = [predecessor_digest] + result_digests + [delimiter_digest]
        messages: List[bytes] = []
        if result:
            for position in range(1, len(chain) - 1):
                messages.append(
                    self.hash_function.combine(
                        chain[position - 1], chain[position], chain[position + 1]
                    )
                )
            messages.append(
                self.hash_function.combine(chain[-2], chain[-1], right_anchor)
            )
        else:
            messages.append(
                self.hash_function.combine(predecessor_digest, delimiter_digest, right_anchor)
            )

        bundle = proof.signatures
        failure = check_signature_bundle(
            messages, bundle.individual, bundle.aggregate, self.manifest.public_key
        )
        if failure is not None:
            reason, what = failure
            raise CompletenessError(
                f"{what} does not match the reconstructed chain", reason=reason
            )
        return VerificationReport(
            checked_messages=len(messages),
            signature_verifications=1,
            hash_operations=HASH_COUNTER.count - start_hashes,
            result_rows=len(result),
        )

    # -- helpers --------------------------------------------------------------------

    def _check_result_values(self, alpha: int, result: Sequence[int]) -> None:
        domain = self.manifest.domain
        previous = None
        for value in result:
            if not domain.contains(value):
                raise AuthenticityError(
                    f"result value {value} falls outside the value domain",
                    reason="value-out-of-domain",
                )
            if value < alpha:
                raise VerificationError(
                    f"result value {value} does not satisfy the query condition",
                    reason="spurious-value",
                )
            if previous is not None and value <= previous:
                raise VerificationError(
                    "result values are not strictly increasing", reason="unsorted-result"
                )
            previous = value
