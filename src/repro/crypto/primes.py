"""Prime generation and primality testing for the RSA implementation.

The library is dependency-free, so RSA key generation needs its own number
theory: Miller-Rabin probabilistic primality testing with a deterministic
witness set for small inputs, trial division against a precomputed table of
small primes, and random prime generation of a requested bit length.
"""

from __future__ import annotations

import secrets
from typing import Callable, Iterable, List

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "SMALL_PRIMES",
    "extended_gcd",
    "modular_inverse",
]


def _sieve(limit: int) -> List[int]:
    """Primes below ``limit`` via the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for candidate in range(2, int(limit**0.5) + 1):
        if flags[candidate]:
            flags[candidate * candidate :: candidate] = bytearray(
                len(flags[candidate * candidate :: candidate])
            )
    return [index for index, flag in enumerate(flags) if flag]


#: Small primes used for cheap trial division before Miller-Rabin.
SMALL_PRIMES: List[int] = _sieve(2000)

# Deterministic Miller-Rabin witness sets (Sinclair / Jaeschke bounds).
_DETERMINISTIC_WITNESSES = (
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
)


def _miller_rabin_round(candidate: int, witness: int, odd_part: int, rounds: int) -> bool:
    """One Miller-Rabin round; returns True if ``candidate`` passes for ``witness``."""
    x = pow(witness, odd_part, candidate)
    if x in (1, candidate - 1):
        return True
    for _ in range(rounds - 1):
        x = pow(x, 2, candidate)
        if x == candidate - 1:
            return True
    return False


def is_probable_prime(candidate: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    For candidates below ~3.8e18 a deterministic witness set is used, so the
    answer is exact; above that the error probability is at most ``4**-rounds``.
    """
    if candidate < 2:
        return False
    for prime in SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False

    odd_part = candidate - 1
    twos = 0
    while odd_part % 2 == 0:
        odd_part //= 2
        twos += 1

    witnesses: Iterable[int]
    for bound, deterministic in _DETERMINISTIC_WITNESSES:
        if candidate < bound:
            witnesses = deterministic
            break
    else:
        witnesses = (secrets.randbelow(candidate - 3) + 2 for _ in range(rounds))

    for witness in witnesses:
        if not _miller_rabin_round(candidate, witness, odd_part, twos):
            return False
    return True


def generate_prime(bits: int, randbits: Callable[[int], int] = secrets.randbits) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes has
    the full ``2*bits`` length, and the bottom bit is forced to 1 so the
    candidate is odd.  ``randbits`` draws the candidates (the system CSPRNG
    unless a caller seeds a reproducible key).
    """
    if bits < 8:
        raise ValueError("refusing to generate primes below 8 bits")
    while True:
        candidate = randbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate):
            return candidate


def extended_gcd(a: int, b: int) -> tuple:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def modular_inverse(value: int, modulus: int) -> int:
    """Return ``value^{-1} mod modulus``; raises if the inverse does not exist."""
    g, x, _ = extended_gcd(value % modulus, modulus)
    if g != 1:
        raise ValueError(f"{value} has no inverse modulo {modulus}")
    return x % modulus
