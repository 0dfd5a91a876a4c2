"""Tests for the relational scheme: range selection on the sorted key (Section 4.1)."""

import pytest

from repro.core.errors import CompletenessError, VerificationError
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.db.query import Conjunction, Projection, Query, RangeCondition
from repro.db.relation import Relation
from repro.db.workload import generate_employees


def _range_query(low, high):
    return Query("employees", Conjunction((RangeCondition("salary", low, high),)))


@pytest.fixture(scope="module")
def setup(owner):
    relation = generate_employees(60, seed=21, photo_bytes=8)
    signed = owner.publish_relation(relation)
    publisher = Publisher({"employees": signed})
    verifier = ResultVerifier({"employees": signed.manifest})
    return relation, signed, publisher, verifier


class TestSignedRelation:
    def test_internal_consistency(self, setup):
        _, signed, _, _ = setup
        assert signed.verify_internal_consistency()

    def test_entry_count(self, setup):
        relation, signed, _, _ = setup
        assert signed.entry_count() == len(relation) + 2

    def test_delimiters_at_domain_bounds(self, setup):
        relation, signed, _, _ = setup
        domain = relation.schema.key_domain
        assert signed.entry(0).key == domain.lower
        assert signed.entry(signed.entry_count() - 1).key == domain.upper

    def test_components_are_three_digests(self, setup):
        _, signed, _, _ = setup
        upper, lower, attribute_root = signed.components(1)
        digest_size = signed.hash_function.digest_size
        assert len(upper) == len(lower) == len(attribute_root) == digest_size
        assert signed.entry_digest(1) == upper + lower + attribute_root


class TestRangeQueries:
    def test_full_range_returns_everything(self, setup):
        relation, _, publisher, verifier = setup
        query = Query("employees")
        result = publisher.answer(query)
        assert len(result.rows) == len(relation)
        report = verifier.verify(query, result.rows, result.proof)
        assert report.result_rows == len(relation)

    @pytest.mark.parametrize("low_q,high_q", [(0.0, 0.3), (0.3, 0.7), (0.5, 0.5), (0.9, 1.0)])
    def test_subrange_queries(self, setup, low_q, high_q):
        relation, _, publisher, verifier = setup
        keys = relation.keys()
        low = keys[int(low_q * (len(keys) - 1))]
        high = keys[int(high_q * (len(keys) - 1))]
        query = _range_query(low, high)
        result = publisher.answer(query)
        expected = [k for k in keys if low <= k <= high]
        assert [row["salary"] for row in result.rows] == expected
        verifier.verify(query, result.rows, result.proof)

    def test_point_query(self, setup):
        relation, _, publisher, verifier = setup
        target = relation.keys()[7]
        query = _range_query(target, target)
        result = publisher.answer(query)
        assert len(result.rows) == 1 and result.rows[0]["salary"] == target
        verifier.verify(query, result.rows, result.proof)

    def test_empty_result_between_keys(self, setup):
        relation, _, publisher, verifier = setup
        keys = relation.keys()
        # Find a gap between consecutive keys.
        gap_low, gap_high = None, None
        for a, b in zip(keys, keys[1:]):
            if b - a > 2:
                gap_low, gap_high = a + 1, b - 1
                break
        assert gap_low is not None, "workload should contain key gaps"
        query = _range_query(gap_low, gap_high)
        result = publisher.answer(query)
        assert result.rows == []
        report = verifier.verify(query, result.rows, result.proof)
        assert report.checked_messages == 1

    def test_empty_result_below_all_keys(self, setup):
        relation, _, publisher, verifier = setup
        smallest = relation.keys()[0]
        if smallest <= 2:
            pytest.skip("no room below the smallest key")
        query = _range_query(1, smallest - 1)
        result = publisher.answer(query)
        assert result.rows == []
        verifier.verify(query, result.rows, result.proof)

    def test_empty_result_above_all_keys(self, setup):
        relation, _, publisher, verifier = setup
        largest = relation.keys()[-1]
        domain = relation.schema.key_domain
        if largest >= domain.upper - 2:
            pytest.skip("no room above the largest key")
        query = _range_query(largest + 1, domain.upper - 1)
        result = publisher.answer(query)
        assert result.rows == []
        verifier.verify(query, result.rows, result.proof)

    def test_vacuous_range(self, setup):
        _, _, publisher, verifier = setup
        query = Query(
            "employees",
            Conjunction(
                (RangeCondition("salary", 500, 50_000), RangeCondition("salary", 60_000, 70_000))
            ),
        )
        result = publisher.answer(query)
        assert result.is_vacuous and result.rows == []
        report = verifier.verify(query, result.rows, result.proof)
        assert report.result_rows == 0

    def test_unbounded_above(self, setup):
        relation, _, publisher, verifier = setup
        median = relation.keys()[len(relation) // 2]
        query = Query("employees", Conjunction((RangeCondition("salary", median, None),)))
        result = publisher.answer(query)
        assert [row["salary"] for row in result.rows] == [
            k for k in relation.keys() if k >= median
        ]
        verifier.verify(query, result.rows, result.proof)

    def test_unbounded_below(self, setup):
        relation, _, publisher, verifier = setup
        median = relation.keys()[len(relation) // 2]
        query = Query("employees", Conjunction((RangeCondition("salary", None, median),)))
        result = publisher.answer(query)
        verifier.verify(query, result.rows, result.proof)

    def test_duplicate_key_records_all_returned(self, owner):
        from repro.db.workload import employee_schema
        from repro.db.relation import Relation

        rows = [
            {"salary": 5000, "emp_id": f"{i}", "name": f"N{i}", "dept": 1, "photo": b""}
            for i in range(3)
        ] + [
            {"salary": 7000, "emp_id": "x", "name": "X", "dept": 2, "photo": b""},
        ]
        relation = Relation.from_rows(employee_schema(), rows)
        signed = owner.publish_relation(relation)
        publisher = Publisher({"employees": signed})
        verifier = ResultVerifier({"employees": signed.manifest})
        query = _range_query(5000, 5000)
        result = publisher.answer(query)
        assert len(result.rows) == 3
        verifier.verify(query, result.rows, result.proof)

    def test_individual_signature_transport(self, setup):
        relation, signed, _, verifier = setup
        publisher = Publisher({"employees": signed}, aggregate=False)
        query = _range_query(relation.keys()[5], relation.keys()[15])
        result = publisher.answer(query)
        assert not result.proof.signatures.is_aggregated
        assert result.proof.signatures.signature_count == len(result.rows)
        verifier.verify(query, result.rows, result.proof)

    def test_report_accounting(self, setup):
        relation, _, publisher, verifier = setup
        query = _range_query(relation.keys()[0], relation.keys()[9])
        result = publisher.answer(query)
        report = verifier.verify(query, result.rows, result.proof)
        assert report.checked_messages == 10
        assert report.signature_verifications == 1
        assert report.hash_operations > 0

    def test_proof_size_independent_of_table_size(self, owner):
        """Section 6.1: VO size depends on the result, not on the database.

        Above B=2 a key's base-B digits shape its boundary proof, so both
        tables hold the same ten answer keys and the same two boundary keys;
        only the rest of the table differs."""
        large = generate_employees(200, seed=3, photo_bytes=4)
        records = sorted(large, key=lambda record: record.key)
        window = records[99:111]  # boundary, the ten answer keys, boundary
        small = Relation.from_rows(
            large.schema,
            [record.as_dict() for record in window + records[:99:4] + records[111::4]],
        )
        query = _range_query(window[1].key, window[10].key)
        sizes = {}
        for relation in (small, large):
            signed = owner.publish_relation(relation)
            result = Publisher({"employees": signed}).answer(query)
            assert len(result.rows) == 10
            sizes[len(relation)] = result.proof.digest_count
        assert sizes[len(small)] == sizes[200] and len(small) < 100


class TestVerifierRejectsBadRanges:
    def test_missing_proof_rejected(self, setup):
        relation, _, publisher, verifier = setup
        query = _range_query(relation.keys()[0], relation.keys()[5])
        result = publisher.answer(query)
        with pytest.raises(CompletenessError):
            verifier.verify(query, result.rows, None)

    def test_proof_for_other_range_rejected(self, setup):
        relation, _, publisher, verifier = setup
        keys = relation.keys()
        query_a = _range_query(keys[0], keys[5])
        query_b = _range_query(keys[0], keys[6])
        result_a = publisher.answer(query_a)
        with pytest.raises(VerificationError):
            verifier.verify(query_b, result_a.rows, result_a.proof)

    def test_rows_for_vacuous_range_rejected(self, setup):
        _, _, publisher, verifier = setup
        query = Query(
            "employees",
            Conjunction((RangeCondition("salary", 500, 400),)),
        )
        result = publisher.answer(query)
        assert result.is_vacuous
        # A publisher returning rows (or any proof) for a vacuous range is rejected.
        with pytest.raises(VerificationError):
            verifier.verify(query, [{"salary": 450}], None)
        other = publisher.answer(_range_query(1, 99_000))
        with pytest.raises(VerificationError):
            verifier.verify(query, [], other.proof)

    def test_unknown_relation_rejected(self, setup, figure1_publisher):
        _, _, publisher, verifier = setup
        query = Query("nonexistent")
        with pytest.raises(KeyError):
            publisher.answer(query)
        with pytest.raises(VerificationError):
            verifier.verify(query, [], None)
