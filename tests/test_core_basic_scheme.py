"""Tests for the Section 3 basic scheme: greater-than queries over sorted lists."""

import pytest

from repro.core.basic_scheme import ListPublisher, ListVerifier, SignedValueList
from repro.core.errors import (
    CompletenessError,
    ProofConstructionError,
    VerificationError,
)
from repro.core.proof import GreaterThanProof, SignatureBundle
from repro.db.schema import KeyDomain

PAPER_VALUES = [2000, 3500, 8010, 12100, 25000]
PAPER_DOMAIN = KeyDomain(0, 100_000)


@pytest.fixture(scope="module")
def published(owner):
    return owner.publish_value_list(PAPER_VALUES, PAPER_DOMAIN)


@pytest.fixture(scope="module")
def publisher(published):
    return ListPublisher(published)


@pytest.fixture(scope="module")
def verifier(published):
    return ListVerifier(published.manifest)


class TestOwnerSide:
    def test_entry_count_includes_delimiters(self, published):
        assert published.entry_count() == len(PAPER_VALUES) + 2

    def test_signatures_cover_every_entry(self, published, signature_scheme):
        assert len(published.signatures) == published.entry_count()
        for index, signature in enumerate(published.signatures):
            assert signature_scheme.verify(published.chain_message(index), signature)

    def test_duplicate_values_rejected(self, owner):
        with pytest.raises(ValueError):
            owner.publish_value_list([5, 5, 7], PAPER_DOMAIN)

    def test_out_of_domain_values_rejected(self, owner):
        with pytest.raises(ValueError):
            owner.publish_value_list([0], PAPER_DOMAIN)
        with pytest.raises(ValueError):
            owner.publish_value_list([100_000], PAPER_DOMAIN)

    def test_values_are_sorted_on_publication(self, owner):
        published = owner.publish_value_list([30, 10, 20], KeyDomain(0, 100))
        assert published.values == [10, 20, 30]

    def test_empty_list_supported(self, owner):
        published = owner.publish_value_list([], KeyDomain(0, 100))
        assert published.entry_count() == 2


class TestQueryAndVerify:
    def test_paper_example_query(self, publisher, verifier):
        """The worked example of Section 3.1: alpha = 10000."""
        values, proof = publisher.answer_greater_than(10_000)
        assert values == [12100, 25000]
        report = verifier.verify_greater_than(10_000, values, proof)
        assert report.result_rows == 2
        assert report.checked_messages == 3  # two entries + right delimiter

    @pytest.mark.parametrize("alpha,expected", [
        (1, PAPER_VALUES),
        (2000, PAPER_VALUES),
        (2001, PAPER_VALUES[1:]),
        (8010, PAPER_VALUES[2:]),
        (24999, [25000]),
        (25000, [25000]),
        (25001, []),
        (99_999, []),
    ])
    def test_query_sweep(self, publisher, verifier, alpha, expected):
        values, proof = publisher.answer_greater_than(alpha)
        assert values == expected
        report = verifier.verify_greater_than(alpha, values, proof)
        assert report.result_rows == len(expected)

    def test_alpha_outside_domain_rejected(self, publisher):
        with pytest.raises(ProofConstructionError):
            publisher.answer_greater_than(0)
        with pytest.raises(ProofConstructionError):
            publisher.answer_greater_than(100_000)

    def test_empty_result_proof_is_single_message(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(90_000)
        assert values == []
        report = verifier.verify_greater_than(90_000, values, proof)
        assert report.checked_messages == 1

    def test_empty_list_query(self, owner):
        published = owner.publish_value_list([], KeyDomain(0, 100))
        publisher = ListPublisher(published)
        verifier = ListVerifier(published.manifest)
        values, proof = publisher.answer_greater_than(50)
        assert values == []
        verifier.verify_greater_than(50, values, proof)

    def test_individual_signature_transport(self, published):
        publisher = ListPublisher(published, aggregate=False)
        verifier = ListVerifier(published.manifest)
        values, proof = publisher.answer_greater_than(3000)
        assert not proof.signatures.is_aggregated
        assert proof.signatures.signature_count == len(values) + 1
        verifier.verify_greater_than(3000, values, proof)

    def test_proof_size_accounting(self, publisher):
        values, proof = publisher.answer_greater_than(3000)
        assert proof.digest_count > 0
        assert proof.signature_count == 1
        assert proof.size_bytes(16, 128) == proof.digest_count * 16 + 128


class TestVerifierRejections:
    def test_omitted_first_value_detected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(3000)
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(3000, values[1:], proof)

    def test_omitted_middle_value_detected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(3000)
        tampered = [values[0]] + values[2:]
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(3000, tampered, proof)

    def test_omitted_last_value_detected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(3000)
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(3000, values[:-1], proof)

    def test_spurious_value_detected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(3000)
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(3000, values + [60_000], proof)

    def test_modified_value_detected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(3000)
        tampered = list(values)
        tampered[0] += 1
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(3000, tampered, proof)

    def test_below_alpha_value_rejected_as_spurious(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(10_000)
        with pytest.raises(VerificationError) as excinfo:
            verifier.verify_greater_than(10_000, [8010] + values, proof)
        assert excinfo.value.reason == "spurious-value"

    def test_unsorted_result_rejected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(3000)
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(3000, list(reversed(values)), proof)

    def test_proof_for_different_alpha_rejected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(10_000)
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(9_000, values, proof)

    def test_reused_proof_for_smaller_query_rejected(self, publisher, verifier):
        # A publisher must not reuse the proof for alpha=10000 to answer
        # alpha=3000 (which has more qualifying values).
        values, proof = publisher.answer_greater_than(10_000)
        forged = GreaterThanProof(
            alpha=3000,
            predecessor_boundary=proof.predecessor_boundary,
            entry_assists=proof.entry_assists,
            right_delimiter_digest=proof.right_delimiter_digest,
            signatures=proof.signatures,
        )
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(3000, values, forged)

    def test_entry_assist_count_mismatch_rejected(self, publisher, verifier):
        values, proof = publisher.answer_greater_than(10_000)
        forged = GreaterThanProof(
            alpha=proof.alpha,
            predecessor_boundary=proof.predecessor_boundary,
            entry_assists=proof.entry_assists[:-1],
            right_delimiter_digest=proof.right_delimiter_digest,
            signatures=proof.signatures,
        )
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(10_000, values, forged)

    def test_fake_empty_result_detected(self, publisher, published, verifier):
        """Section 3.2 case 2: claiming emptiness although values qualify."""
        # Build the proof an honest publisher produces for a truly-empty query,
        # then try to pass it off for a query that has qualifying values.
        values, empty_proof = publisher.answer_greater_than(90_000)
        assert values == []
        forged = GreaterThanProof(
            alpha=10_000,
            predecessor_boundary=empty_proof.predecessor_boundary,
            entry_assists=(),
            right_delimiter_digest=empty_proof.right_delimiter_digest,
            signatures=empty_proof.signatures,
        )
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(10_000, [], forged)

    def test_wrong_signature_bundle_rejected(self, publisher, published, verifier):
        values, proof = publisher.answer_greater_than(10_000)
        other_values, other_proof = publisher.answer_greater_than(3000)
        forged = GreaterThanProof(
            alpha=proof.alpha,
            predecessor_boundary=proof.predecessor_boundary,
            entry_assists=proof.entry_assists,
            right_delimiter_digest=proof.right_delimiter_digest,
            signatures=other_proof.signatures,
        )
        with pytest.raises(CompletenessError):
            verifier.verify_greater_than(10_000, values, forged)


class TestConceptualScheme:
    """The same behaviour under the formula (2) conceptual digests."""

    @pytest.fixture(scope="class")
    def published_conceptual(self, signature_scheme):
        return SignedValueList(
            KeyDomain(0, 64), [5, 10, 20, 30, 40], signature_scheme, scheme_kind="conceptual"
        )

    def test_round_trip(self, published_conceptual):
        publisher = ListPublisher(published_conceptual)
        verifier = ListVerifier(published_conceptual.manifest)
        for alpha in (1, 5, 11, 30, 41, 63):
            values, proof = publisher.answer_greater_than(alpha)
            assert values == [v for v in [5, 10, 20, 30, 40] if v >= alpha]
            verifier.verify_greater_than(alpha, values, proof)

    def test_omission_detected(self, published_conceptual):
        publisher = ListPublisher(published_conceptual)
        verifier = ListVerifier(published_conceptual.manifest)
        values, proof = publisher.answer_greater_than(7)
        with pytest.raises(VerificationError):
            verifier.verify_greater_than(7, values[:-1], proof)


class TestListUpdates:
    def test_insert_touches_three_signatures(self, owner):
        published = owner.publish_value_list([10, 20, 30, 40], KeyDomain(0, 100))
        assert published.insert_value(25) == 3
        assert published.values == [10, 20, 25, 30, 40]
        # The list remains verifiable after the update.
        publisher = ListPublisher(published)
        verifier = ListVerifier(published.manifest)
        values, proof = publisher.answer_greater_than(22)
        assert values == [25, 30, 40]
        verifier.verify_greater_than(22, values, proof)

    def test_remove_keeps_chain_consistent(self, owner):
        published = owner.publish_value_list([10, 20, 30, 40], KeyDomain(0, 100))
        touched = published.remove_value(20)
        assert touched <= 3
        publisher = ListPublisher(published)
        verifier = ListVerifier(published.manifest)
        values, proof = publisher.answer_greater_than(15)
        assert values == [30, 40]
        verifier.verify_greater_than(15, values, proof)

    def test_duplicate_insert_rejected(self, owner):
        published = owner.publish_value_list([10, 20], KeyDomain(0, 100))
        with pytest.raises(ValueError):
            published.insert_value(10)

    def test_remove_missing_value_rejected(self, owner):
        published = owner.publish_value_list([10, 20], KeyDomain(0, 100))
        with pytest.raises(ValueError):
            published.remove_value(15)
