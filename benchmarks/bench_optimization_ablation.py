"""Section 5.1 ablation: conceptual vs optimized digest derivation.

The conceptual scheme needs O(U - L) hash invocations per digest (the paper's
"60 hours for a 32-bit key" estimate); the optimized scheme needs
O(B · log_B(U - L)).  The ablation measures owner-side digest construction and
user-side verification hash counts across growing domain widths, and times the
two schemes directly on a domain small enough for both to finish.
"""

import pytest


from conftest import format_table, report
from repro.core.digest import ConceptualChainScheme, EntryAssist, OptimizedChainScheme
from repro.crypto.hashing import HASH_COUNTER

# Run the table-regeneration tests under --benchmark-only as well: they are
# what actually reproduces the paper's figures.
pytestmark = pytest.mark.usefixtures("benchmark")

SMALL_WIDTH = 4096  # both schemes are feasible here
WIDE_WIDTHS = (2**8, 2**12, 2**16, 2**20, 2**24, 2**32)

# Every scheme below is built with memoize=False: this module reproduces the
# paper's *per-operation* hash counts and timings, which the digest memos
# (introduced by the fast-path PR) would otherwise make artificially low.


def test_report_hash_counts_vs_domain_width():
    rows = []
    optimized_counts = {}
    for width in WIDE_WIDTHS:
        value = width // 3
        total = width - value - 1
        scheme = OptimizedChainScheme(width, "upper", base=2, memoize=False)
        HASH_COUNTER.reset()
        scheme.commitment(value, total)
        optimized = HASH_COUNTER.reset()
        optimized_counts[width] = optimized
        conceptual = total + 1  # exact count the conceptual scheme would need
        rows.append((width, conceptual, optimized, f"{conceptual / optimized:,.0f}x"))
    report(
        "optimization_ablation_owner_hashes",
        format_table(
            ("domain width", "conceptual hashes", "optimized hashes", "saving"),
            rows,
        ),
    )
    # Optimized hashing grows polylogarithmically: doubling the exponent bits
    # must far less than double the hash count ratio against the domain width.
    assert optimized_counts[2**32] < 10_000
    assert optimized_counts[2**32] < optimized_counts[2**8] * 64


def test_report_verifier_hash_counts_small_domain():
    rows = []
    for kind, scheme in (
        ("conceptual", ConceptualChainScheme(SMALL_WIDTH, "upper", memoize=False)),
        ("optimized B=2", OptimizedChainScheme(SMALL_WIDTH, "upper", base=2, memoize=False)),
        ("optimized B=8", OptimizedChainScheme(SMALL_WIDTH, "upper", base=8, memoize=False)),
    ):
        value, alpha = 1000, 3000
        total = SMALL_WIDTH - value - 1
        delta_c = SMALL_WIDTH - alpha
        assist = scheme.boundary_proof(value, total, delta_c)
        HASH_COUNTER.reset()
        scheme.recompute_from_boundary(delta_c, assist)
        boundary_hashes = HASH_COUNTER.reset()
        entry_assist = EntryAssist(scheme.commit(value, total)[1])
        HASH_COUNTER.reset()
        scheme.recompute_from_value(value, total, entry_assist)
        entry_hashes = HASH_COUNTER.reset()
        rows.append((kind, boundary_hashes, entry_hashes))
    report(
        "optimization_ablation_verifier_hashes",
        format_table(("scheme", "boundary-proof hashes", "entry hashes"), rows),
    )
    conceptual_row, optimized_row = rows[0], rows[1]
    assert optimized_row[2] < conceptual_row[2]


def test_conceptual_commitment_time(benchmark):
    scheme = ConceptualChainScheme(SMALL_WIDTH, "upper", memoize=False)
    benchmark(scheme.commitment, 100, SMALL_WIDTH - 101)


def test_optimized_commitment_time_small_domain(benchmark):
    scheme = OptimizedChainScheme(SMALL_WIDTH, "upper", base=2, memoize=False)
    benchmark(scheme.commitment, 100, SMALL_WIDTH - 101)


def test_optimized_commitment_time_32bit_domain(benchmark):
    scheme = OptimizedChainScheme(2**32, "upper", base=2, memoize=False)
    benchmark(scheme.commitment, 123_456_789, 2**32 - 123_456_790)


@pytest.mark.parametrize("base", [2, 3, 8, 16])
def test_optimized_boundary_verification_time(benchmark, base):
    scheme = OptimizedChainScheme(2**32, "upper", base=base, memoize=False)
    value, alpha = 1_000_000, 2_000_000
    total = 2**32 - value - 1
    delta_c = 2**32 - alpha
    assist = scheme.boundary_proof(value, total, delta_c)
    benchmark(scheme.recompute_from_boundary, delta_c, assist)
