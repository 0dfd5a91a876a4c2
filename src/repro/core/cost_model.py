"""Analytical cost model from Section 6 of the paper.

The evaluation section of the paper is an analytical study: Table 1 fixes the
cost parameters, formula (4) gives the authentication traffic ``Muser`` shipped
from publisher to user, and formula (5) gives the user-side computation cost
``Cuser``.  Figures 9 and 10 plot those formulas.  This module reproduces the
formulas verbatim so the benchmark harness can print the paper's curves next to
the values *measured* from the actual implementation.

Beside them sit the digest kernel's *exact* hash counts
(:func:`kernel_canonical_walk_hashes`, :func:`kernel_commit_hashes`,
:func:`kernel_boundary_proof_hashes`, :func:`kernel_boundary_check_hashes`):
what :class:`~repro.core.digest.OptimizedChainScheme` adds to ``HASH_COUNTER``
for one call, as a function of the exponents alone.  They differ from formula
(5) in two ways that matter for choosing ``B``: a digit chain costs its actual
digit, not the worst case ``B``, and every digit chain costs one more hash for
its head — which formula (5) leaves out and which weighs most at ``B = 2``,
the base with the most digits.  :func:`kernel_optimal_base` is the argmin
they give, and :data:`repro.core.polynomial.DEFAULT_BASE` is pinned to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence

from repro.core import polynomial

__all__ = [
    "CostParameters",
    "digits_m",
    "user_traffic_bits",
    "user_traffic_bytes",
    "user_traffic_overhead_percent",
    "user_computation_hashes",
    "user_computation_seconds",
    "figure9_series",
    "figure10_series",
    "section_6_2_worked_examples",
    "optimal_base",
    "kernel_canonical_walk_hashes",
    "kernel_commit_hashes",
    "kernel_boundary_proof_hashes",
    "kernel_boundary_check_hashes",
    "kernel_answer_chain_hashes",
    "kernel_mean_answer_chain_hashes",
    "kernel_optimal_base",
]


@dataclass(frozen=True)
class CostParameters:
    """Table 1 of the paper: cost parameters and their defaults.

    ``c_hash`` and ``c_sign`` are the 2005-era measurements the paper borrows
    from Rivest & Shamir's PayWord work; the benchmarks also report the values
    measured on the current machine.
    """

    #: Computation cost of one hash operation (seconds); Table 1: 50 microseconds.
    c_hash: float = 50e-6
    #: Computation cost of verifying one signature (seconds); Table 1: 5 ms.
    c_sign: float = 5e-3
    #: Size of a hash digest in bits; Table 1: 128.
    m_digest_bits: int = 128
    #: Size of a signature in bits; Table 1: 1024.
    m_sign_bits: int = 1024

    @property
    def m_digest_bytes(self) -> int:
        return self.m_digest_bits // 8

    @property
    def m_sign_bytes(self) -> int:
        return self.m_sign_bits // 8


#: Default 32-bit integer key domain used throughout Section 6.
DEFAULT_DOMAIN_WIDTH = 2**32


def digits_m(base: int, domain_width: int = DEFAULT_DOMAIN_WIDTH) -> int:
    """``m = ceil(log_B(U - L))`` — the number of polynomial digits."""
    if base < 2:
        raise ValueError("the polynomial base B must be at least 2")
    if domain_width < 2:
        raise ValueError("domain width must be at least 2")
    return max(1, math.ceil(math.log(domain_width, base)))


def user_traffic_bits(
    result_size: int,
    base: int = 2,
    domain_width: int = DEFAULT_DOMAIN_WIDTH,
    parameters: CostParameters = CostParameters(),
) -> float:
    """Formula (4): authentication traffic (bits) shipped to the user.

    ``Muser = [m + 4 + 3(n - a + 1) + ceil(log2 m)] * Mdigest + Msign``
    where ``n - a + 1`` is the result size.
    """
    if result_size < 0:
        raise ValueError("result size cannot be negative")
    m = digits_m(base, domain_width)
    digest_count = m + 4 + 3 * result_size + math.ceil(math.log2(m)) if m > 1 else (
        m + 4 + 3 * result_size
    )
    return digest_count * parameters.m_digest_bits + parameters.m_sign_bits


def user_traffic_bytes(
    result_size: int,
    base: int = 2,
    domain_width: int = DEFAULT_DOMAIN_WIDTH,
    parameters: CostParameters = CostParameters(),
) -> float:
    """Formula (4) expressed in bytes."""
    return user_traffic_bits(result_size, base, domain_width, parameters) / 8


def user_traffic_overhead_percent(
    result_size: int,
    record_bytes: int,
    base: int = 2,
    domain_width: int = DEFAULT_DOMAIN_WIDTH,
    parameters: CostParameters = CostParameters(),
) -> float:
    """Figure 9's y-axis: ``Muser / (|Q| * Mr)`` as a percentage."""
    if record_bytes <= 0:
        raise ValueError("record size must be positive")
    if result_size <= 0:
        raise ValueError("overhead is defined for at least one result entry")
    traffic = user_traffic_bytes(result_size, base, domain_width, parameters)
    return 100.0 * traffic / (result_size * record_bytes)


def user_computation_hashes(
    result_size: int, base: int = 2, domain_width: int = DEFAULT_DOMAIN_WIDTH
) -> int:
    """The hash count in formula (5)'s bracket:
    ``2(n-a+1)(B(m+1) + 2) + B(m+1) + ceil(log2 m) + 3``."""
    if result_size < 0:
        raise ValueError("result size cannot be negative")
    m = digits_m(base, domain_width)
    log_term = math.ceil(math.log2(m)) if m > 1 else 0
    return 2 * result_size * (base * (m + 1) + 2) + base * (m + 1) + log_term + 3


def user_computation_seconds(
    result_size: int,
    base: int = 2,
    domain_width: int = DEFAULT_DOMAIN_WIDTH,
    parameters: CostParameters = CostParameters(),
) -> float:
    """Formula (5): user-side verification cost in seconds.

    ``Cuser = [2(n-a+1)(B(m+1) + 2) + B(m+1) + ceil(log2 m) + 3] * Chash + Csign``
    """
    hashes = user_computation_hashes(result_size, base, domain_width)
    return hashes * parameters.c_hash + parameters.c_sign


def figure9_series(
    record_sizes: Sequence[int] = (64, 128, 256, 512, 1024, 1536, 2048),
    result_sizes: Sequence[int] = (1, 2, 5, 10, 100),
    base: int = 2,
    domain_width: int = DEFAULT_DOMAIN_WIDTH,
    parameters: CostParameters = CostParameters(),
) -> Dict[int, List[float]]:
    """The data behind Figure 9: traffic overhead (%) per record size, per |Q|."""
    return {
        result_size: [
            user_traffic_overhead_percent(
                result_size, record_bytes, base, domain_width, parameters
            )
            for record_bytes in record_sizes
        ]
        for result_size in result_sizes
    }


def figure10_series(
    bases: Sequence[int] = tuple(range(2, 11)),
    result_sizes: Sequence[int] = (1, 5, 10),
    domain_width: int = DEFAULT_DOMAIN_WIDTH,
    parameters: CostParameters = CostParameters(),
) -> Dict[int, List[float]]:
    """The data behind Figure 10: user computation (ms) per base B, per result size."""
    return {
        result_size: [
            1000.0
            * user_computation_seconds(result_size, base, domain_width, parameters)
            for base in bases
        ]
        for result_size in result_sizes
    }


def section_6_2_worked_examples(
    parameters: CostParameters = CostParameters(),
) -> Dict[int, float]:
    """The worked numbers of Section 6.2: Cuser (seconds) for |Q| = 1, 100 and 1000.

    With ``B = 2`` and a 32-bit key the paper reports roughly 15.5 ms, 689 ms
    and 6.81 s.
    """
    return {
        size: user_computation_seconds(size, base=2, parameters=parameters)
        for size in (1, 100, 1000)
    }


def optimal_base(
    result_size: int,
    domain_width: int = DEFAULT_DOMAIN_WIDTH,
    candidate_bases: Iterable[int] = range(2, 17),
    parameters: CostParameters = CostParameters(),
) -> int:
    """The base ``B`` minimising formula (5); the paper shows it is 2 or 3.

    Formula (5) charges ``B`` hashes per digit and nothing for a chain's
    head, so at ``2^32`` it ties B=2 and B=3 (``B(m+1)`` is 66 for both) and
    ``min`` returns the first, 2.  The kernel pays each digit's actual value
    plus one head hash per digit, and :func:`kernel_optimal_base` — what
    :data:`~repro.core.polynomial.DEFAULT_BASE` is pinned to — picks 3 on
    the benchmark's 16,385-wide domain and 4 at ``2^32``.
    """
    return min(
        candidate_bases,
        key=lambda base: user_computation_seconds(
            result_size, base, domain_width, parameters
        ),
    )


# -- the digest kernel's exact counts -------------------------------------------------


def _digit_sum(value: int, base: int) -> int:
    total = 0
    while value:
        value, digit = divmod(value, base)
        total += digit
    return total


def _representation_tree_hashes(num_digits: int) -> int:
    """The ``m - 1`` representation digests, then an MHT over them: each one
    hashed again as a leaf, and ``m - 2`` inner nodes."""
    if num_digits == 1:
        return 1  # the one sentinel leaf, whose digest the tree still hashes
    return 3 * (num_digits - 1) - 1


def _full_walk_hashes(total: int, base: int, num_digits: int) -> int:
    """``OptimizedChainScheme._walk``: each chain walked to its furthest representation."""
    raised = 0
    if num_digits > 1:
        raised = base + (num_digits - 2) * (base - 1)
    return num_digits + _digit_sum(total, base) + raised


def _merkle_path_length(index: int, size: int) -> int:
    """Siblings on the path of leaf ``index`` in an ``size``-leaf tree (odd nodes promoted)."""
    siblings = 0
    while size > 1:
        if index ^ 1 < size:
            siblings += 1
        index //= 2
        size = (size + 1) // 2
    return siblings


def kernel_canonical_walk_hashes(total: int, base: int, domain_width: int) -> int:
    """What ``_canonical_walk`` hashes: one head per digit, the digits, one join.

    The verifier's recompute of a known value's chain adds one more, for the
    representation-tree root it is combined with.
    """
    num_digits = polynomial.num_digits_for(domain_width, base)
    return num_digits + _digit_sum(total, base) + 1


def kernel_commit_hashes(total: int, base: int, domain_width: int) -> int:
    """What the owner's ``commit`` hashes for one chain of one entry."""
    num_digits = polynomial.num_digits_for(domain_width, base)
    return (
        _full_walk_hashes(total, base, num_digits)
        + _representation_tree_hashes(num_digits)
        + 2  # the canonical digest, and its join with the tree root
    )


def kernel_boundary_proof_hashes(
    total: int, delta_c: int, base: int, domain_width: int
) -> int:
    """What the publisher's ``boundary_proof`` hashes (memo off, or first touch)."""
    num_digits = polynomial.num_digits_for(domain_width, base)
    selected = polynomial.select_boundary_representation(total, delta_c, base, num_digits)
    return (
        _full_walk_hashes(total, base, num_digits)
        + _representation_tree_hashes(num_digits)
        + (0 if selected.is_canonical else 1)  # the shipped canonical digest
    )


def kernel_boundary_check_hashes(
    total: int, delta_c: int, base: int, domain_width: int
) -> int:
    """What the verifier's ``recompute_from_boundary`` hashes for that proof."""
    num_digits = polynomial.num_digits_for(domain_width, base)
    selected = polynomial.select_boundary_representation(total, delta_c, base, num_digits)
    hashes = _digit_sum(delta_c, base) + 2  # the representation digest, the final join
    if not selected.is_canonical:
        hashes += 1 + _merkle_path_length(selected.index, num_digits - 1)
    return hashes


def kernel_answer_chain_hashes(low: int, high: int, base: int, lower: int, upper: int) -> int:
    """The chain hashes a memo-free verifier performs for the answer ``[low, high]``.

    Every key of the open domain ``(lower, upper)`` in the range is a matched
    row (two canonical walks, each joined with its tree root), and the two
    boundary records are ``low - 1`` and ``high + 1``, proved on their upper
    and lower chain respectively.  Attribute roots, chain messages and the
    signature check cost the same at every base and are left out.
    """
    width = upper - lower
    hashes = 0
    for key in range(low, high + 1):
        hashes += kernel_canonical_walk_hashes(upper - key - 1, base, width) + 1
        hashes += kernel_canonical_walk_hashes(key - lower - 1, base, width) + 1
    hashes += kernel_boundary_check_hashes(upper - low, upper - low, base, width)
    hashes += kernel_boundary_check_hashes(high - lower, high - lower, base, width)
    return hashes


def _mean_digit_sum(limit: int, base: int) -> Fraction:
    """The mean base-``base`` digit sum of ``0 .. limit - 1``, counted position by position."""
    total, weight = 0, 1
    while weight < limit:
        cycle = weight * base
        full, rest = divmod(limit, cycle)
        total += full * weight * base * (base - 1) // 2
        top, partial = divmod(rest, weight)
        total += weight * top * (top - 1) // 2 + top * partial
        weight = cycle
    return Fraction(total, limit)


def kernel_mean_answer_chain_hashes(
    base: int, domain_width: int, result_size: int = 40
) -> Fraction:
    """The expectation of :func:`kernel_answer_chain_hashes` over uniformly placed answers.

    A chain exponent runs over ``0 .. domain_width - 2``; each of the
    ``result_size`` rows walks two chains and joins each with its root, and
    each of the two boundary checks walks ``delta_c``'s digits and hashes
    twice more.
    """
    num_digits = polynomial.num_digits_for(domain_width, base)
    digits = _mean_digit_sum(domain_width - 1, base)
    return 2 * result_size * (num_digits + 2 + digits) + 2 * (digits + 2)


def kernel_optimal_base(
    domain_width: int,
    result_size: int = 40,
    candidate_bases: Iterable[int] = range(2, 9),
) -> int:
    """The base minimising :func:`kernel_mean_answer_chain_hashes`."""
    return min(
        candidate_bases,
        key=lambda base: kernel_mean_answer_chain_hashes(base, domain_width, result_size),
    )
