"""Condensed (aggregated) signatures.

Section 5.2 of the paper reduces the per-result signature overhead by combining
the individual signatures of all result entries into one aggregated signature.
The paper cites two constructions: BGLS aggregate signatures over bilinear
pairings [8] and condensed-RSA [18].  We implement **condensed-RSA**, which is
sufficient for the single-signer setting of data publishing (all record
signatures are produced by one owner):

* aggregation: ``sigma = prod(sigma_i) mod n``
* verification: ``sigma^e == prod(FDH(m_i)) mod n``

The messages being aggregated must be *distinct* — the completeness scheme
guarantees this because every signed message includes the record's own digest
``g(r_i)``, and ``g`` embeds the per-record attribute Merkle root.  The helper
:func:`aggregate_signatures` still rejects duplicate messages defensively.

The paper also notes that aggregation must be *immutable* (an adversary who has
seen aggregated signatures for past results should not be able to forge new
valid aggregates).  Mykletun et al. [18] achieve this by having the publisher
keep individual signatures secret and release only the aggregate; this module
mirrors that usage: publishers call :func:`aggregate_signatures` and ship only
the resulting :class:`AggregateSignature`.

**Batch verification.**  The user-side dual of condensation: when the
publisher ships *individual* chain signatures (``aggregate=False`` answers,
legacy publishers), the verifier does not need one modular exponentiation per
signature.  :func:`batch_verify_signatures` checks the whole batch in a
single accumulated pass::

    (prod sigma_i^{w_i})^e  ==  prod FDH(m_i)^{w_i}   (mod n)

With ``weight_bits=0`` all weights are 1 and this is exactly the
Bellare-Garay-Rabin *screening* test for RSA-FDH: provably sound (in the
random-oracle model, under the RSA assumption) as long as the messages are
**pairwise distinct** — an adversary who passes the test without the signer
ever having signed some ``m_i`` breaks RSA.  Distinctness is enforced here
(duplicate messages make the function fall back to per-signature
verification), and it is the natural state of chain messages, each of which
embeds its record's own digests.  The screening test costs one exponentiation
plus two modular multiplications per signature, which is what makes
client-side chain verification ~3x faster.

``weight_bits > 0`` enables the classic *small-exponents* test with random
per-signature weights, which additionally guarantees that each *individual*
``(m_i, sigma_i)`` pair is valid (error probability ``2^-weight_bits``).
For RSA's small public exponents (e = 65537) the weighted test costs *more*
modular work than verifying each signature directly — the random weights are
as long as the public exponent — so it is offered for completeness and
defense-in-depth, not speed; the verifier uses the screening test, whose
guarantee (the owner signed every message in the batch) is exactly the
authenticity property chain verification needs.

On a failed batch, :func:`find_invalid_signature` localises a bad entry by
falling back to per-signature verification, so callers can report *which*
signature broke instead of just "the batch failed".
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.crypto.backend import powmod
from repro.crypto.rsa import (
    RSAPublicKey,
    SIGN_COUNTER,
    full_domain_hash,
    full_domain_hash_many,
)

__all__ = [
    "AggregateSignature",
    "aggregate_signatures",
    "verify_aggregate",
    "batch_verify_signatures",
    "find_invalid_signature",
]


@dataclass(frozen=True)
class AggregateSignature:
    """A condensed-RSA signature over an ordered set of messages.

    Attributes
    ----------
    value:
        The modular product of the individual signatures.
    count:
        How many individual signatures were folded in; kept for sanity checks
        and for cost accounting (one aggregate replaces ``count`` signatures).
    """

    value: int
    count: int

    @property
    def size_bits(self) -> int:
        """Size of the aggregate — same as a single signature (``Msign``)."""
        return max(1, self.value.bit_length())


def aggregate_signatures(
    signatures: Sequence[int], public_key: RSAPublicKey, messages: Sequence[bytes] = ()
) -> AggregateSignature:
    """Condense ``signatures`` into a single aggregate.

    Parameters
    ----------
    signatures:
        Individual FDH-RSA signatures, all under ``public_key``.
    public_key:
        The owner's public key (supplies the modulus).
    messages:
        Optional: the corresponding messages.  When provided, duplicates are
        rejected because condensed-RSA is only secure for distinct messages.
    """
    if not signatures:
        raise ValueError("cannot aggregate an empty sequence of signatures")
    if messages:
        if len(messages) != len(signatures):
            raise ValueError("messages and signatures must have the same length")
        if len(set(messages)) != len(messages):
            raise ValueError("condensed-RSA requires all aggregated messages to be distinct")
    product = 1
    for signature in signatures:
        if not 0 < signature < public_key.modulus:
            raise ValueError("signature out of range for the supplied public key")
        product = (product * signature) % public_key.modulus
    return AggregateSignature(value=product, count=len(signatures))


def verify_aggregate(
    aggregate: AggregateSignature,
    messages: Iterable[bytes],
    public_key: RSAPublicKey,
) -> bool:
    """Verify a condensed-RSA aggregate against the claimed messages.

    This is the single signature verification the user performs per query
    result (Section 5.2): the cost is one modular exponentiation plus one FDH
    per message, instead of one exponentiation per message.
    """
    SIGN_COUNTER.verifications += 1
    message_list = list(messages)
    if len(message_list) != aggregate.count:
        return False
    if len(set(message_list)) != len(message_list):
        return False
    modulus = public_key.modulus
    expected = 1
    for representative in full_domain_hash_many(
        message_list, modulus, public_key.hash_name
    ):
        expected = (expected * representative) % modulus
    return powmod(aggregate.value, public_key.exponent, modulus) == expected


def batch_verify_signatures(
    messages: Sequence[bytes],
    signatures: Sequence[int],
    public_key: RSAPublicKey,
    weight_bits: int = 0,
) -> bool:
    """Verify many same-key FDH-RSA signatures in one accumulated pass.

    ``weight_bits=0`` (default) runs the Bellare-Garay-Rabin screening test:
    one modular exponentiation for the whole batch.  Sound for pairwise
    distinct messages only, so batches with duplicates transparently fall
    back to per-signature verification (correct, just not accelerated).

    ``weight_bits=k > 0`` runs the small-exponents test with random ``k``-bit
    weights, which also rejects *compensating* tampering across signatures of
    already-signed messages (error probability ``2^-k``).  Slower than serial
    verification for small public exponents; see the module docstring.

    Returns True iff the batch accepts.  A False return says at least one
    signature is invalid — use :func:`find_invalid_signature` to localise it.
    """
    if len(messages) != len(signatures):
        raise ValueError("messages and signatures must have the same length")
    if not messages:
        raise ValueError("cannot batch-verify an empty sequence of signatures")
    modulus = public_key.modulus
    exponent = public_key.exponent
    hash_name = public_key.hash_name
    SIGN_COUNTER.verifications += 1
    for signature in signatures:
        if not 0 < signature < modulus:
            return False
    if weight_bits == 0 and len(set(messages)) != len(messages):
        # Screening is only sound for distinct messages; duplicates are
        # verified one by one (the slow-but-always-correct path).
        return all(
            powmod(signature, exponent, modulus)
            == full_domain_hash(message, modulus, hash_name)
            for message, signature in zip(messages, signatures)
        )
    if weight_bits == 0:
        accumulated = 1
        expected = 1
        representatives = full_domain_hash_many(messages, modulus, hash_name)
        for signature, representative in zip(signatures, representatives):
            accumulated = (accumulated * signature) % modulus
            expected = (expected * representative) % modulus
        return powmod(accumulated, exponent, modulus) == expected
    accumulated = 1
    expected = 1
    representatives = full_domain_hash_many(messages, modulus, hash_name)
    for signature, representative in zip(signatures, representatives):
        # Uniform over [1, 2^k]: non-zero with all k bits random, so the
        # small-exponents error bound stays the advertised 2^-weight_bits.
        weight = secrets.randbits(weight_bits) + 1
        accumulated = (accumulated * powmod(signature, weight, modulus)) % modulus
        expected = (expected * powmod(representative, weight, modulus)) % modulus
    return powmod(accumulated, exponent, modulus) == expected


def find_invalid_signature(
    messages: Sequence[bytes],
    signatures: Sequence[int],
    public_key: RSAPublicKey,
) -> Optional[int]:
    """Index of the first individually invalid signature, or None.

    The localisation fallback for a failed :func:`batch_verify_signatures`:
    per-signature verification over the batch, stopping at the first bad
    entry.  (A batch can also fail with every *individual* signature valid
    when the same (message, signature) pair appears under screening with a
    colliding message — callers treat a None here as "batch failed for
    structural reasons" and reject the whole answer.)
    """
    for index, (message, signature) in enumerate(zip(messages, signatures)):
        if not public_key.verify(message, signature):
            return index
    return None
