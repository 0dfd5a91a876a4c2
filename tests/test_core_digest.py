"""Unit tests for the conceptual and optimized chain digest schemes."""

import pytest

from repro.core.digest import (
    BoundaryAssist,
    ConceptualChainScheme,
    EntryAssist,
    OptimizedChainScheme,
)
from repro.core.errors import CheatingAttemptError
from repro.crypto.hashing import HASH_COUNTER


DOMAIN_WIDTH = 1000


@pytest.fixture(params=["conceptual", "optimized"])
def scheme(request):
    if request.param == "conceptual":
        return ConceptualChainScheme(DOMAIN_WIDTH, "upper")
    return OptimizedChainScheme(DOMAIN_WIDTH, "upper", base=3)


class TestCommitments:
    def test_commitment_deterministic(self, scheme):
        assert scheme.commitment(42, 500) == scheme.commitment(42, 500)

    def test_commitment_depends_on_value_and_total(self, scheme):
        assert scheme.commitment(42, 500) != scheme.commitment(43, 500)
        assert scheme.commitment(42, 500) != scheme.commitment(42, 501)

    def test_commitment_depends_on_namespace(self):
        upper = OptimizedChainScheme(DOMAIN_WIDTH, "upper", base=3)
        lower = OptimizedChainScheme(DOMAIN_WIDTH, "lower", base=3)
        assert upper.commitment(42, 500) != lower.commitment(42, 500)

    def test_negative_total_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.commitment(42, -1)

    def test_entry_round_trip(self, scheme):
        value, total = 77, DOMAIN_WIDTH - 77 - 1
        committed, root = scheme.commit(value, total)
        assert committed == scheme.commitment(value, total)
        assert scheme.recompute_from_value(value, total, EntryAssist(root)) == committed

    def test_entry_round_trip_wrong_value_fails(self, scheme):
        value, total = 77, DOMAIN_WIDTH - 77 - 1
        committed, root = scheme.commit(value, total)
        assert scheme.recompute_from_value(value + 1, total, EntryAssist(root)) != committed


class TestBoundaryProofs:
    @pytest.mark.parametrize("value,alpha", [(10, 11), (10, 500), (499, 500), (0, 999), (998, 999)])
    def test_boundary_round_trip(self, scheme, value, alpha):
        """Prove value < alpha without revealing value, as the verifier would."""
        total = DOMAIN_WIDTH - value - 1  # upper-chain exponent
        delta_c = DOMAIN_WIDTH - alpha
        committed = scheme.commitment(value, total)
        assist = scheme.boundary_proof(value, total, delta_c)
        assert scheme.recompute_from_boundary(delta_c, assist) == committed

    def test_boundary_proof_refused_when_claim_false(self, scheme):
        # value >= alpha: delta_e would be negative; an honest publisher refuses.
        value, alpha = 600, 500
        total = DOMAIN_WIDTH - value - 1
        delta_c = DOMAIN_WIDTH - alpha
        with pytest.raises(CheatingAttemptError):
            scheme.boundary_proof(value, total, delta_c)

    def test_boundary_proof_refused_at_equality(self, scheme):
        value = alpha = 500
        total = DOMAIN_WIDTH - value - 1
        with pytest.raises(CheatingAttemptError):
            scheme.boundary_proof(value, total, DOMAIN_WIDTH - alpha)

    def test_boundary_just_satisfied(self, scheme):
        # value == alpha - 1 is the tightest true claim.
        value, alpha = 499, 500
        total = DOMAIN_WIDTH - value - 1
        assist = scheme.boundary_proof(value, total, DOMAIN_WIDTH - alpha)
        assert scheme.recompute_from_boundary(DOMAIN_WIDTH - alpha, assist) == (
            scheme.commitment(value, total)
        )

    def test_forged_intermediate_digest_changes_result(self, scheme):
        value, alpha = 100, 500
        total = DOMAIN_WIDTH - value - 1
        delta_c = DOMAIN_WIDTH - alpha
        committed = scheme.commitment(value, total)
        assist = scheme.boundary_proof(value, total, delta_c)
        forged = BoundaryAssist(
            intermediate_digests=tuple(
                b"\x00" * len(d) for d in assist.intermediate_digests
            ),
            used_canonical=assist.used_canonical,
            mht_root=assist.mht_root,
            canonical_digest=assist.canonical_digest,
            mht_proof=assist.mht_proof,
        )
        assert scheme.recompute_from_boundary(delta_c, forged) != committed

    def test_boundary_digest_count_positive(self, scheme):
        assist = scheme.boundary_proof(10, DOMAIN_WIDTH - 11, 5)
        assert assist.digest_count >= 1


class TestOptimizedSpecifics:
    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            OptimizedChainScheme(DOMAIN_WIDTH, "upper", base=1)

    def test_num_digits_matches_domain(self):
        assert OptimizedChainScheme(2**16, "upper", base=2).num_digits == 16
        assert OptimizedChainScheme(1000, "upper", base=10).num_digits == 3

    def test_entry_assist_carries_tree_root(self):
        scheme = OptimizedChainScheme(DOMAIN_WIDTH, "upper", base=4)
        assist = EntryAssist(scheme.commit(5, 100)[1])
        assert assist.mht_root is not None
        assert assist.digest_count == 1

    def test_entry_verification_requires_root(self):
        scheme = OptimizedChainScheme(DOMAIN_WIDTH, "upper", base=4)
        with pytest.raises(ValueError):
            scheme.recompute_from_value(5, 100, EntryAssist(mht_root=None))

    def test_wrong_intermediate_count_rejected(self):
        scheme = OptimizedChainScheme(DOMAIN_WIDTH, "upper", base=4)
        assist = scheme.boundary_proof(5, 100, 50)
        truncated = BoundaryAssist(
            intermediate_digests=assist.intermediate_digests[:-1],
            used_canonical=assist.used_canonical,
            mht_root=assist.mht_root,
            canonical_digest=assist.canonical_digest,
            mht_proof=assist.mht_proof,
        )
        with pytest.raises(ValueError):
            scheme.recompute_from_boundary(50, truncated)

    @pytest.mark.parametrize("base", [2, 3, 5, 10])
    def test_both_canonical_and_non_canonical_paths_exercised(self, base):
        """Sweep many (value, alpha) pairs; both proof shapes must round-trip."""
        scheme = OptimizedChainScheme(DOMAIN_WIDTH, "upper", base=base)
        canonical_seen = non_canonical_seen = False
        for value in range(0, 400, 23):
            for alpha in range(value + 1, 999, 97):
                total = DOMAIN_WIDTH - value - 1
                delta_c = DOMAIN_WIDTH - alpha
                assist = scheme.boundary_proof(value, total, delta_c)
                canonical_seen |= assist.used_canonical
                non_canonical_seen |= not assist.used_canonical
                assert scheme.recompute_from_boundary(delta_c, assist) == (
                    scheme.commitment(value, total)
                )
        assert canonical_seen and non_canonical_seen

    def test_single_digit_domain(self):
        scheme = OptimizedChainScheme(8, "upper", base=10)
        assert scheme.num_digits == 1
        committed = scheme.commitment(3, 4)
        assist = scheme.boundary_proof(3, 4, 2)
        assert scheme.recompute_from_boundary(2, assist) == committed

    def test_hashing_is_logarithmic_in_domain(self):
        """The Section 5.1 point: optimized hashing ~ B*log_B(width), not width."""
        width = 2**20
        conceptual_cost_estimate = width  # would be ~a million hashes
        scheme = OptimizedChainScheme(width, "upper", base=2)
        HASH_COUNTER.reset()
        scheme.commitment(12345, width - 12346)
        measured = HASH_COUNTER.reset()
        assert measured < 5000 < conceptual_cost_estimate

    def test_lower_chain_usage(self):
        """The same machinery proves value > beta through the lower chain."""
        scheme = OptimizedChainScheme(DOMAIN_WIDTH, "lower", base=2)
        lower_bound = 0
        value, beta = 700, 600
        total = value - lower_bound - 1
        delta_c = beta - lower_bound
        committed = scheme.commitment(value, total)
        assist = scheme.boundary_proof(value, total, delta_c)
        assert scheme.recompute_from_boundary(delta_c, assist) == committed
        # And the proof is refused when value <= beta.
        with pytest.raises(CheatingAttemptError):
            scheme.boundary_proof(500, 500 - 1, delta_c)
