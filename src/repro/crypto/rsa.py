"""RSA signatures with full-domain hashing, implemented from scratch.

The paper assumes a standard signature algorithm (RSA or DSA) for the owner to
sign per-record digests.  This module provides:

* probabilistic RSA key generation (:func:`generate_keypair`), including
  **multi-prime** moduli (RFC 8017 section 3): the modulus is a product of
  ``crt_primes`` primes, which leaves the public key — and therefore every
  verifier — completely unchanged while cutting the owner's CRT signing cost
  (three 1/3-size exponentiations instead of two 1/2-size ones),
* full-domain-hash signing: the message digest is expanded with a mask
  generation function to (almost) the size of the modulus before
  exponentiation, which is what makes condensed-RSA aggregation
  (:mod:`repro.crypto.aggregate`) sound in the random-oracle model,
* signature verification.

Key sizes are configurable; tests use small (fast) keys, the cost model and
benchmarks default to 1024-bit moduli to match ``Msign = 1024`` bits in the
paper's Table 1.

All per-key CRT constants (per-prime exponents, Garner coefficients) are
computed once at key construction — i.e. at keygen — so both bulk and
single-shot signing pay only the modular exponentiations themselves.
"""

from __future__ import annotations

import random
import secrets
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache import bounded_put
from repro.crypto import _shard
from repro.crypto.backend import powmod, powmod_secret
from repro.crypto.hashing import resolve_hash_constructor
from repro.crypto.primes import generate_prime, modular_inverse

__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "RSAKeyPair",
    "generate_keypair",
    "full_domain_hash",
    "full_domain_hash_many",
    "fdh_cache_stats",
    "SIGN_COUNTER",
    "SignatureCounter",
    "DEFAULT_CRT_PRIMES",
]

_DEFAULT_PUBLIC_EXPONENT = 65537

#: How many primes :func:`generate_keypair` uses by default.  Three-prime
#: moduli (RFC 8017 multi-prime RSA) make CRT signing ~1.5x faster at equal
#: modulus size; the public key and all signatures remain standard RSA.
DEFAULT_CRT_PRIMES = 3

#: Bound on the FDH representative memo (module-wide, FIFO eviction).
_FDH_CACHE_MAX = 8192


class SignatureCounter:
    """Counts signing and verification operations for the cost benchmarks."""

    __slots__ = ("signatures", "verifications")

    def __init__(self) -> None:
        self.signatures = 0
        self.verifications = 0

    def reset(self) -> None:
        self.signatures = 0
        self.verifications = 0


#: Module-level counter shared by all keys.
SIGN_COUNTER = SignatureCounter()


def _as_bytes(message) -> bytes:
    """Normalise a bytes-like message to ``bytes`` for hashable cache keys.

    Only buffer types are accepted — ``bytes(5)`` would silently produce five
    zero bytes, so ints (and anything else hashlib would reject) still raise
    ``TypeError`` exactly as they did before the caches existed.
    """
    if isinstance(message, bytes):
        return message
    return bytes(memoryview(message))


def _fdh(message: bytes, modulus: int, hash_name: str) -> int:
    target_bytes = (modulus.bit_length() + 7) // 8
    new_digest = resolve_hash_constructor(hash_name)
    blocks = []
    counter = 0
    produced = 0
    while produced < target_bytes:
        block = new_digest(message + counter.to_bytes(4, "big") + b"fdh").digest()
        blocks.append(block)
        produced += len(block)
        counter += 1
    representative = int.from_bytes(b"".join(blocks)[:target_bytes], "big")
    return representative % modulus


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _FDHCache:
    """Bounded (message, modulus, hash_name) -> representative memo.

    Drop-in for the ``lru_cache`` this started as — it keeps the
    ``cache_info()`` / ``cache_clear()`` surface the benchmarks and stats
    reporting rely on — but exposes its dict directly so
    :func:`full_domain_hash_many` can run one lookup/insert pass over a whole
    batch instead of re-entering a wrapper per message.
    """

    __slots__ = ("maxsize", "data", "hits", "misses")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.data: Dict[Tuple[bytes, int, str], int] = {}
        self.hits = 0
        self.misses = 0

    def __call__(self, message: bytes, modulus: int, hash_name: str) -> int:
        key = (message, modulus, hash_name)
        value = self.data.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = _fdh(message, modulus, hash_name)
        return bounded_put(self.data, key, value, self.maxsize)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self.data))

    def cache_clear(self) -> None:
        self.data.clear()
        self.hits = 0
        self.misses = 0


#: The memoised MGF1 expansion.
_full_domain_hash_cached = _FDHCache(_FDH_CACHE_MAX)


def fdh_cache_stats() -> Dict[str, int]:
    """Hits/misses/evictions/size/capacity of the FDH representative memo."""
    info = _full_domain_hash_cached.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "evictions": max(0, info.misses - info.currsize),
        "size": info.currsize,
        "capacity": info.maxsize or 0,
    }


def full_domain_hash(message: bytes, modulus: int, hash_name: str = "sha256") -> int:
    """Expand ``message`` into an integer almost as large as ``modulus``.

    Uses an MGF1-style construction: the message is hashed with an increasing
    counter until enough output bytes are available, then reduced modulo the
    modulus.  The same function is used by signing, verification and
    condensed-RSA aggregation, so all parties agree on the representative.

    The expansion is deterministic, so representatives are memoised (FIFO
    bounded): signing, verifying and aggregating the same chain message pays
    the MGF1 hashing once.
    """
    return _full_domain_hash_cached(_as_bytes(message), modulus, hash_name)


def full_domain_hash_many(
    messages: Sequence[bytes], modulus: int, hash_name: str = "sha256"
) -> List[int]:
    """FDH representatives for a whole batch of messages, in one tight pass.

    Byte-identical to calling :func:`full_domain_hash` per message (the
    parity suite asserts this), but the batch shares everything that a
    per-call path re-derives per message: the resolved hashlib constructor,
    the target length, the per-counter suffix bytes, and a single
    lookup/insert pass over the memo.  This is the FDH path behind
    ``sign_batch`` (bulk publication / ``build_stored_chain`` ingest) and
    ``batch_verify_signatures`` (client-side screening verification).
    """
    cache = _full_domain_hash_cached
    data = cache.data
    maxsize = cache.maxsize
    target_bytes = (modulus.bit_length() + 7) // 8
    new_digest = resolve_hash_constructor(hash_name)
    digest_size = new_digest(b"").digest_size
    blocks_needed = -(-target_bytes // digest_size)
    suffixes = [
        counter.to_bytes(4, "big") + b"fdh" for counter in range(blocks_needed)
    ]
    single_suffix = suffixes[0] if blocks_needed == 1 else None
    representatives: List[int] = []
    for message in messages:
        message = _as_bytes(message)
        key = (message, modulus, hash_name)
        value = data.get(key)
        if value is None:
            cache.misses += 1
            if single_suffix is not None:
                expanded = new_digest(message + single_suffix).digest()
            else:
                expanded = b"".join(
                    new_digest(message + suffix).digest() for suffix in suffixes
                )
            value = int.from_bytes(expanded[:target_bytes], "big") % modulus
            bounded_put(data, key, value, maxsize)
        else:
            cache.hits += 1
        representatives.append(value)
    return representatives


@dataclass(frozen=True)
class RSAPublicKey:
    """RSA public key ``(n, e)``.

    The public key is what the data owner distributes to users through an
    authenticated channel (Figure 3 of the paper).  It is identical for two-
    and multi-prime private keys: verification never sees the factorisation.
    """

    modulus: int
    exponent: int = _DEFAULT_PUBLIC_EXPONENT
    hash_name: str = "sha256"

    @property
    def bits(self) -> int:
        """Modulus size in bits (``Msign`` in Table 1)."""
        return self.modulus.bit_length()

    @property
    def signature_bytes(self) -> int:
        """Size of a signature produced under this key, in bytes."""
        return (self.modulus.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: int) -> bool:
        """Check a single signature over ``message``.

        ``signature ** e mod n`` runs through the public entry point of
        :mod:`repro.crypto.backend` (``BN_mod_exp`` when libcrypto is active):
        nothing about a public key needs constant time.
        """
        SIGN_COUNTER.verifications += 1
        if not 0 < signature < self.modulus:
            return False
        expected = full_domain_hash(message, self.modulus, self.hash_name)
        return powmod(signature, self.exponent, self.modulus) == expected

    def message_representative(self, message: bytes) -> int:
        """The FDH representative of ``message`` under this key."""
        return full_domain_hash(message, self.modulus, self.hash_name)


@dataclass(frozen=True)
class RSAPrivateKey:
    """RSA private key; kept by the data owner only.

    ``other_primes`` extends the classic two-prime key to RFC 8017
    multi-prime form: the modulus is ``prime_p * prime_q * prod(other_primes)``
    and CRT signing runs one small exponentiation per prime, recombined with
    Garner's algorithm.  An empty tuple is the ordinary two-prime key.
    """

    modulus: int
    public_exponent: int
    private_exponent: int
    prime_p: int
    prime_q: int
    hash_name: str = "sha256"
    other_primes: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        # CRT signing constants depend only on the key material, so they are
        # computed once here — at keygen — instead of once per signature (the
        # modular inverses alone cost ~5-10% of a CRT signature).  The
        # dataclass is frozen, hence the object.__setattr__ back door; none of
        # these are dataclass fields, so equality and hashing still consider
        # the key material only.
        primes = (self.prime_p, self.prime_q, *self.other_primes)
        if self.other_primes:
            product = 1
            for prime in primes:
                product *= prime
            if product != self.modulus:
                raise ValueError(
                    "the modulus is not the product of the supplied primes"
                )
        exponents = tuple(self.private_exponent % (p - 1) for p in primes)
        # Garner recombination: x = x_0 + P_1*t_1 + P_1*P_2*t_2 + ... where
        # P_i = prod(primes[:i]) and t_i = (x_i - partial) * P_i^-1 mod p_i.
        prefixes: List[int] = []
        inverses: List[int] = []
        prefix = 1
        for index, prime in enumerate(primes):
            if index > 0:
                prefixes.append(prefix)
                inverses.append(modular_inverse(prefix % prime, prime))
            prefix *= prime
        object.__setattr__(self, "_primes", primes)
        object.__setattr__(self, "_exponents", exponents)
        object.__setattr__(self, "_garner_prefixes", tuple(prefixes))
        object.__setattr__(self, "_garner_inverses", tuple(inverses))

    def public_key(self) -> RSAPublicKey:
        """Derive the matching public key."""
        return RSAPublicKey(self.modulus, self.public_exponent, self.hash_name)

    def _sign_representative(self, representative: int) -> int:
        """CRT exponentiation with the precomputed per-key constants.

        Each half's exponent and modulus are the private key, so it runs
        through the backend's constant-time entry point
        (``BN_mod_exp_mont_consttime`` when libcrypto is active, which also
        clears its operands); the Garner recombination is plain ``int``.
        """
        primes = self._primes
        residues = [
            powmod_secret(representative % prime, exponent, prime)
            for prime, exponent in zip(primes, self._exponents)
        ]
        value = residues[0]
        for index in range(1, len(primes)):
            prime = primes[index]
            t = (
                (residues[index] - value) * self._garner_inverses[index - 1]
            ) % prime
            value += self._garner_prefixes[index - 1] * t
        return value % self.modulus

    def sign(self, message: bytes) -> int:
        """Produce an FDH-RSA signature over ``message``.

        Uses the Chinese Remainder Theorem with per-key precomputed constants
        (multi-prime when the key was generated that way), which matters
        because the owner signs one digest per record per sort order.
        """
        return self.sign_batch((message,))[0]

    def sign_batch(self, messages: Sequence[bytes]) -> List[int]:
        """Sign many messages in one call (the owner's bulk-publication path).

        Each distinct message is hashed once through
        :func:`full_domain_hash_many` and its representative goes straight to
        the CRT exponentiation — across every CPU of the affinity mask when
        the batch is large enough (:mod:`repro.crypto._shard`).  Signatures
        come back positionally; hashing and ``SIGN_COUNTER`` stay in this
        process, so they read the same whatever the split.
        """
        normalized = [_as_bytes(message) for message in messages]
        distinct = list(dict.fromkeys(normalized))
        representatives = full_domain_hash_many(distinct, self.modulus, self.hash_name)
        signed = dict(zip(distinct, self._sign_representatives(distinct, representatives)))
        SIGN_COUNTER.signatures += len(distinct)
        return [signed[message] for message in normalized]

    def _sign_representatives(
        self, messages: Sequence[bytes], representatives: Sequence[int]
    ) -> List[int]:
        """One CRT exponentiation per representative, sharded across CPUs.

        A child's shard is accepted only after the Bellare-Garay-Rabin
        screening test (one public-exponent modexp per shard): a faulty CRT
        half must never reach a published chain.
        """

        def screened(offset: int, signatures: List[int]) -> bool:
            from repro.crypto.aggregate import batch_verify_signatures

            batch = messages[offset : offset + len(signatures)]
            return batch_verify_signatures(batch, signatures, self.public_key())

        width = (self.modulus.bit_length() + 7) // 8
        return _shard.map_sharded(self._sign_representative, representatives, width, screened)


@dataclass(frozen=True)
class RSAKeyPair:
    """A private key together with its public key."""

    private_key: RSAPrivateKey
    public_key: RSAPublicKey


def generate_keypair(
    bits: int = 1024,
    public_exponent: int = _DEFAULT_PUBLIC_EXPONENT,
    hash_name: str = "sha256",
    rng_seed: Optional[int] = None,
    crt_primes: int = DEFAULT_CRT_PRIMES,
) -> RSAKeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Parameters
    ----------
    bits:
        Modulus size.  1024 matches the paper's default ``Msign``; tests use
        512 for speed.  Values below 512 are accepted but flagged for tests
        only.
    rng_seed:
        Seeds the prime search for a reproducible key — for benchmarks whose
        output must not depend on the key drawn, never for a deployed key.
        ``None`` (the default) draws from the system CSPRNG.
    crt_primes:
        How many primes the modulus is a product of (RFC 8017 multi-prime
        RSA).  The default of 3 makes CRT signing ~1.5x faster at equal
        modulus size; pass 2 for a classic two-prime key.  The public key is
        identical either way.
    """
    randbits = secrets.randbits if rng_seed is None else random.Random(rng_seed).getrandbits
    if bits < 256:
        raise ValueError("modulus below 256 bits is not supported")
    if not 2 <= crt_primes <= 4:
        raise ValueError("crt_primes must be between 2 and 4 (RFC 8017 multi-prime)")
    base_size, extra = divmod(bits, crt_primes)
    sizes = [
        base_size + (1 if index < extra else 0) for index in range(crt_primes)
    ]
    while True:
        primes = []
        for size in sizes:
            while True:
                candidate = generate_prime(size, randbits)
                if candidate not in primes:
                    primes.append(candidate)
                    break
        modulus = 1
        phi = 1
        for prime in primes:
            modulus *= prime
            phi *= prime - 1
        if modulus.bit_length() < bits:
            continue
        try:
            private_exponent = modular_inverse(public_exponent, phi)
        except ValueError:
            continue
        private_key = RSAPrivateKey(
            modulus=modulus,
            public_exponent=public_exponent,
            private_exponent=private_exponent,
            prime_p=primes[0],
            prime_q=primes[1],
            hash_name=hash_name,
            other_primes=tuple(primes[2:]),
        )
        return RSAKeyPair(private_key=private_key, public_key=private_key.public_key())
