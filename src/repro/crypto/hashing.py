"""One-way and iterated hash functions.

The completeness scheme relies on two properties of the hash function ``h``:

* it is one-way and collision resistant (the paper suggests MD5/SHA; we use
  SHA-2 family functions from :mod:`hashlib`), and
* the *iterated* hash ``h^i(r)`` is only defined for ``i >= 0``; it must be
  computationally infeasible to "un-hash", otherwise a dishonest publisher could
  fabricate the intermediate digest ``h^{alpha - r - 1}(r)`` for a record that
  actually violates the query bound (Section 3.1 of the paper).

The paper also notes a subtle requirement: ``h^{-1}(r) != r`` must hold, which is
guaranteed by choosing a hash whose output length differs from the encoding
length of the hashed value.  :class:`IteratedHasher` enforces this by prefixing
every pre-image with a domain-separation tag, so the chain input never has the
same format as a digest.

Cost accounting.  :data:`HASH_COUNTER` counts primitive hash invocations for
the paper's Section 6 cost model.  :meth:`HashFunction.digest` counts itself;
a kernel that calls :attr:`HashFunction.constructor` directly (the Section 5.1
digit-chain walk, the Merkle root fold) adds the exact number of calls it
made, so the counter always equals the number of :mod:`hashlib` objects
constructed.  Nothing in this module remembers a digest: the constructor is
resolved once per :class:`HashFunction`, and every chain is walked when asked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

from repro.crypto.encoding import encode_value, int_to_bytes

__all__ = [
    "HashFunction",
    "IteratedHasher",
    "HashChain",
    "default_hash",
    "resolve_hash_constructor",
    "chain_preimage_stem",
    "chain_preimage_suffix",
    "HASH_COUNTER",
    "HashCounter",
]


@lru_cache(maxsize=32)
def resolve_hash_constructor(name: str) -> Callable:
    """The fastest constructor for a named hash, resolved once per algorithm.

    ``hashlib.new(name, data)`` re-resolves the algorithm by string on every
    call; the direct constructors (``hashlib.sha256`` etc.) skip that lookup
    and are measurably cheaper on the per-row digest path.  Falls back to a
    bound ``hashlib.new`` for OpenSSL-only algorithm names.  Both spellings
    produce identical digests, so callers can switch freely.
    """
    constructor = getattr(hashlib, name, None)
    if constructor is None:
        constructor = partial(hashlib.new, name)
    # Known-answer probe: a constructor attribute that is not actually the
    # algorithm (or an unavailable algorithm) should fail here, at resolve
    # time, not corrupt digests later.
    if constructor(b"").name != name:
        constructor = partial(hashlib.new, name)
    return constructor


@lru_cache(maxsize=32)
def _digest_size(name: str) -> int:
    return hashlib.new(name).digest_size


class HashCounter:
    """Global counter of primitive hash invocations.

    The paper's cost analysis (Section 6) counts hashing operations; the
    benchmark harness reads this counter to report *measured* hash counts next
    to the analytical formulas.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> int:
        """Reset the counter, returning the value it had before the reset."""
        previous = self.count
        self.count = 0
        return previous


#: Module-level counter shared by every :class:`HashFunction` instance.
HASH_COUNTER = HashCounter()


@dataclass(frozen=True)
class HashFunction:
    """A named one-way hash function with a fixed digest size.

    Parameters
    ----------
    name:
        Any algorithm name accepted by :func:`hashlib.new` (e.g. ``"sha256"``,
        ``"sha1"``, ``"md5"``).  SHA-256 is the default used throughout the
        library; MD5/SHA-1 remain available so the cost model can be evaluated
        with the paper's 128-bit digest size.
    """

    name: str = "sha256"
    #: The resolved :mod:`hashlib` constructor, bound once per instance.  Hot
    #: kernels call it directly and add their call count to :data:`HASH_COUNTER`.
    constructor: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constructor", resolve_hash_constructor(self.name))

    @property
    def digest_size(self) -> int:
        """Digest size in bytes (probed once per name, hashing nothing counted)."""
        return _digest_size(self.name)

    @property
    def digest_bits(self) -> int:
        """Digest size in bits (``Mdigest`` in the paper's Table 1)."""
        return self.digest_size * 8

    def digest(self, data: bytes) -> bytes:
        """Hash ``data`` and return the raw digest."""
        HASH_COUNTER.count += 1
        return self.constructor(data).digest()

    def hash_value(self, value) -> bytes:
        """Hash an arbitrary scalar value using the canonical encoding."""
        return self.digest(encode_value(value))

    def combine(self, *digests: bytes) -> bytes:
        """Hash the concatenation of several digests (the ``h(x | y)`` idiom)."""
        return self.digest(b"".join(digests))


def default_hash() -> HashFunction:
    """The library-wide default hash function (SHA-256)."""
    return HashFunction("sha256")


def chain_preimage_stem(value) -> bytes:
    """The tagged pre-image of ``h^0(value)``, before any ``| suffix`` part."""
    return b"chain-base|" + encode_value(value)


def chain_preimage_suffix(suffix: int) -> bytes:
    """What ``h^0(value | suffix)`` appends to :func:`chain_preimage_stem`."""
    return b"|" + int_to_bytes(suffix)


@dataclass(frozen=True)
class IteratedHasher:
    """Computes the iterated hashes ``h^i(r | suffix)`` used by formula (2)/(3).

    ``h^0(r|j)`` applies the base hash once to the *tagged encoding* of the pair
    ``(r, j)``; ``h^i`` applies the base hash ``i`` further times to the digest.
    Tagging the pre-image (``chain-base`` prefix) keeps chain inputs disjoint
    from chain outputs, satisfying the paper's ``h^{-1}(r) != r`` requirement.

    Parameters
    ----------
    hash_function:
        Underlying one-way hash.
    """

    hash_function: HashFunction = field(default_factory=default_hash)

    def base(self, value, suffix: Optional[int] = None) -> bytes:
        """Return ``h^0(value | suffix)``: the digest of the tagged pre-image."""
        tag = chain_preimage_stem(value)
        if suffix is not None:
            tag += chain_preimage_suffix(suffix)
        return self.hash_function.digest(tag)

    def extend(self, digest: bytes, times: int) -> bytes:
        """Apply the base hash ``times`` additional times to ``digest``.

        ``times`` must be non-negative — there is deliberately no way to
        "rewind" a chain, mirroring the security argument of Section 3.2.
        """
        if times < 0:
            raise ValueError("cannot apply a hash chain a negative number of times")
        result = digest
        for _ in range(times):
            result = self.hash_function.digest(result)
        return result

    def iterate(self, value, times: int, suffix: Optional[int] = None) -> bytes:
        """Return ``h^{times}(value | suffix)``.

        Raises
        ------
        ValueError
            If ``times`` is negative: ``h^i`` is undefined for ``i < 0``, which
            is exactly the property the completeness proof relies on.
        """
        if times < 0:
            raise ValueError(f"h^i is undefined for negative i (got i={times})")
        return self.extend(self.base(value, suffix), times)


@dataclass
class HashChain:
    """A concrete hash chain anchored at a value, convenient for tests and demos.

    The chain exposes the anchor digest ``h^0(value|suffix)`` and allows walking
    forward an arbitrary number of steps.  It memoises visited positions so that
    repeatedly requesting nearby positions stays cheap.
    """

    value: object
    suffix: Optional[int] = None
    hasher: IteratedHasher = field(default_factory=IteratedHasher)

    def __post_init__(self) -> None:
        self._cache = {0: self.hasher.base(self.value, self.suffix)}
        self._max_cached = 0

    def at(self, position: int) -> bytes:
        """Digest after ``position`` iterations (``h^{position}``)."""
        if position < 0:
            raise ValueError("hash chains cannot be walked backwards")
        if position <= self._max_cached:
            if position in self._cache:
                return self._cache[position]
            # Rebuild from the closest cached predecessor.
            start = max(p for p in self._cache if p <= position)
        else:
            start = self._max_cached
        digest = self._cache[start]
        for step in range(start + 1, position + 1):
            digest = self.hasher.hash_function.digest(digest)
            self._cache[step] = digest
        self._max_cached = max(self._max_cached, position)
        return digest

    def advance(self, digest: bytes, steps: int) -> bytes:
        """Walk an externally supplied digest ``steps`` further along the chain."""
        return self.hasher.extend(digest, steps)


_KNOWN_ALGORITHMS: Callable[[], set] = lambda: set(hashlib.algorithms_available)


def make_hash(name: str) -> HashFunction:
    """Create a :class:`HashFunction`, validating the algorithm name early."""
    if name not in _KNOWN_ALGORITHMS():
        raise ValueError(f"unknown hash algorithm: {name!r}")
    return HashFunction(name)
