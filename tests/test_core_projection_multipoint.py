"""Tests for projection (Section 4.2) and multipoint queries (Section 4.4)."""

from dataclasses import replace

import pytest

from repro.core.errors import (
    CompletenessError,
    PolicyViolationError,
    VerificationError,
)
from repro.core.owner import DataOwner
from repro.core.polynomial import DEFAULT_BASE
from repro.core.proof import FilteredEntryProof, MatchedEntryProof, RangeQueryProof
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.db.access_control import visibility_column_name
from repro.db.query import (
    Conjunction,
    EqualityCondition,
    Projection,
    Query,
    RangeCondition,
)
from repro.db.workload import figure1_employee_relation


SALARY_BELOW_10K = RangeCondition("salary", None, 9999)


class TestProjection:
    def test_projection_drops_attributes_but_still_verifies(
        self, figure1_publisher, figure1_verifier
    ):
        query = Query(
            "employees",
            Conjunction((SALARY_BELOW_10K,)),
            Projection(attributes=("name",)),
        )
        result = figure1_publisher.answer(query, role="hr_manager")
        assert all(set(row) == {"salary", "name"} for row in result.rows)
        assert [row["name"] for row in result.rows] == ["A", "C", "D"]
        figure1_verifier.verify(query, result.rows, result.proof, role="hr_manager")

    def test_projection_never_ships_dropped_values(self, figure1_publisher):
        query = Query(
            "employees",
            Conjunction((SALARY_BELOW_10K,)),
            Projection(attributes=("name",)),
        )
        result = figure1_publisher.answer(query, role="hr_manager")
        # The photo BLOB must appear nowhere in the rows; only its digest is shipped.
        for row in result.rows:
            assert "photo" not in row
        for entry in result.proof.entries:
            assert isinstance(entry, MatchedEntryProof)
            assert "photo" in entry.dropped_attribute_digests

    def test_select_star_has_no_dropped_digests(self, figure1_publisher):
        query = Query("employees", Conjunction((SALARY_BELOW_10K,)))
        result = figure1_publisher.answer(query, role="hr_manager")
        for entry in result.proof.entries:
            assert entry.dropped_attribute_digests == {}

    def test_tampered_projected_value_detected(self, figure1_publisher, figure1_verifier):
        query = Query(
            "employees",
            Conjunction((SALARY_BELOW_10K,)),
            Projection(attributes=("name",)),
        )
        result = figure1_publisher.answer(query, role="hr_manager")
        tampered = [dict(row) for row in result.rows]
        tampered[1]["name"] = "Mallory"
        with pytest.raises(VerificationError):
            figure1_verifier.verify(query, tampered, result.proof, role="hr_manager")

    def test_row_with_extra_attribute_rejected(self, figure1_publisher, figure1_verifier):
        query = Query(
            "employees",
            Conjunction((SALARY_BELOW_10K,)),
            Projection(attributes=("name",)),
        )
        result = figure1_publisher.answer(query, role="hr_manager")
        leaky = [dict(row, dept=1) for row in result.rows]
        with pytest.raises(VerificationError):
            figure1_verifier.verify(query, leaky, result.proof, role="hr_manager")

    def test_distinct_projection_presents_duplicate_proofs(self, owner):
        from repro.db.relation import Relation
        from repro.db.workload import employee_schema

        rows = [
            {"salary": 1000 + i, "emp_id": str(i), "name": "same", "dept": 1, "photo": b""}
            for i in range(4)
        ]
        relation = Relation.from_rows(employee_schema(), rows)
        signed = owner.publish_relation(relation)
        publisher = Publisher({"employees": signed})
        verifier = ResultVerifier({"employees": signed.manifest})
        query = Query(
            "employees",
            Conjunction((RangeCondition("salary", None, None),)),
            Projection(attributes=("name", "dept"), distinct=True),
        )
        # The key is always retained, so rows stay distinct; use a query whose
        # projection is key-free only in the non-key attributes.  All four rows
        # share name/dept, but distinct keys keep them apart: no elimination.
        result = publisher.answer(query)
        assert len(result.rows) == 4
        verifier.verify(query, result.rows, result.proof)


#: Four records, two of which share their key (1001) and the projected
#: ``name``/``dept``: a DISTINCT projection onto those returns three rows and
#: eliminates the fourth record as a duplicate (Section 4.2).
DUPLICATE_ROWS = [
    {"salary": 1000, "emp_id": "a", "name": "same", "dept": 1, "photo": b""},
    {"salary": 1001, "emp_id": "b", "name": "same", "dept": 1, "photo": b""},
    {"salary": 1001, "emp_id": "c", "name": "same", "dept": 1, "photo": b"x"},
    {"salary": 1002, "emp_id": "d", "name": "other", "dept": 2, "photo": b""},
]
DISTINCT_QUERY = Query(
    "employees",
    Conjunction((RangeCondition("salary", 1000, 1002),)),
    Projection(attributes=("name", "dept"), distinct=True),
)


def _distinct_world(signature_scheme, base):
    from repro.db.relation import Relation
    from repro.db.workload import employee_schema

    relation = Relation.from_rows(employee_schema(), DUPLICATE_ROWS)
    signed = DataOwner(signature_scheme=signature_scheme, base=base).publish_relation(relation)
    answer = Publisher({"employees": signed}).answer(DISTINCT_QUERY)
    return ResultVerifier({"employees": signed.manifest}), answer


class TestDistinct:
    @pytest.mark.parametrize("base", [2, DEFAULT_BASE])
    def test_honest_distinct_answer_eliminates_a_duplicate(self, signature_scheme, base):
        verifier, answer = _distinct_world(signature_scheme, base)
        assert answer.rows == [
            {"salary": 1000, "name": "same", "dept": 1},
            {"salary": 1001, "name": "same", "dept": 1},
            {"salary": 1002, "name": "other", "dept": 2},
        ]
        eliminated = [entry for entry in answer.proof.entries if entry.eliminated_duplicate]
        assert len(eliminated) == 1 and eliminated[0].key == 1001
        assert dict(eliminated[0].revealed_attributes) == answer.rows[1]
        report = verifier.verify(DISTINCT_QUERY, answer.rows, answer.proof)
        assert report.result_rows == 3 and report.checked_messages == 4

    @staticmethod
    def _refusal(signature_scheme, query=DISTINCT_QUERY, **changes):
        """Verify the honest answer with its eliminated entry's fields replaced."""
        verifier, answer = _distinct_world(signature_scheme, DEFAULT_BASE)
        entries = tuple(
            replace(entry, **changes) if entry.eliminated_duplicate else entry
            for entry in answer.proof.entries
        )
        with pytest.raises(VerificationError) as rejection:
            verifier.verify(query, answer.rows, replace(answer.proof, entries=entries))
        return rejection.value

    def test_duplicate_in_a_query_without_distinct(self, signature_scheme):
        plain = replace(
            DISTINCT_QUERY, projection=replace(DISTINCT_QUERY.projection, distinct=False)
        )
        assert self._refusal(signature_scheme, plain).reason == "unexpected-duplicate"

    def test_duplicate_without_its_key(self, signature_scheme):
        assert self._refusal(signature_scheme, key=None).reason == "missing-key"

    def test_duplicate_key_outside_the_range(self, signature_scheme):
        error = self._refusal(signature_scheme, key=1003)
        assert isinstance(error, CompletenessError) and error.reason == "key-out-of-range"

    def test_duplicate_matching_no_returned_row(self, signature_scheme):
        forged = {"salary": 1001, "name": "nobody", "dept": 1}
        error = self._refusal(signature_scheme, revealed_attributes=forged)
        assert isinstance(error, CompletenessError) and error.reason == "false-duplicate"


class TestMultipointQueries:
    def test_paper_multipoint_example(self, figure1_publisher, figure1_verifier):
        """SELECT * FROM Emp WHERE Salary < 10000 AND Dept = 1 (Section 4.4)."""
        query = Query(
            "employees",
            Conjunction((SALARY_BELOW_10K, EqualityCondition("dept", 1))),
        )
        result = figure1_publisher.answer(query, role="hr_manager")
        assert [row["name"] for row in result.rows] == ["A", "D"]
        kinds = [type(entry).__name__ for entry in result.proof.entries]
        assert kinds == ["MatchedEntryProof", "FilteredEntryProof", "MatchedEntryProof"]
        figure1_verifier.verify(query, result.rows, result.proof, role="hr_manager")

    def test_filtered_entry_reveals_only_failing_attribute(self, figure1_publisher):
        query = Query(
            "employees",
            Conjunction((SALARY_BELOW_10K, EqualityCondition("dept", 1))),
        )
        result = figure1_publisher.answer(query, role="hr_manager")
        filtered = [e for e in result.proof.entries if isinstance(e, FilteredEntryProof)]
        assert len(filtered) == 1
        assert filtered[0].reason == "predicate"
        assert set(filtered[0].revealed_attributes) == {"dept"}
        assert filtered[0].revealed_attributes["dept"] == 2
        # All other attributes travel as digests only.
        assert "name" in filtered[0].attribute_leaf_digests
        assert "photo" in filtered[0].attribute_leaf_digests

    def test_query_on_unsorted_attribute_only(self, figure1_publisher, figure1_verifier):
        """A selection purely on an unsorted attribute scans the whole key range."""
        query = Query("employees", Conjunction((EqualityCondition("dept", 2),)))
        result = figure1_publisher.answer(query, role="hr_manager")
        assert [row["name"] for row in result.rows] == ["C", "E"]
        assert len(result.proof.entries) == 5  # every record is in the scanned range
        figure1_verifier.verify(query, result.rows, result.proof, role="hr_manager")

    def test_multipoint_with_no_matches_still_proves_range(
        self, figure1_publisher, figure1_verifier
    ):
        query = Query("employees", Conjunction((EqualityCondition("dept", 99),)))
        result = figure1_publisher.answer(query, role="hr_manager")
        assert result.rows == []
        assert len(result.proof.entries) == 5
        figure1_verifier.verify(query, result.rows, result.proof, role="hr_manager")

    def test_publisher_cannot_claim_matching_record_was_filtered(
        self, figure1_publisher, figure1_verifier
    ):
        """A cheating publisher marks a qualifying record as filtered-out."""
        query = Query(
            "employees",
            Conjunction((SALARY_BELOW_10K, EqualityCondition("dept", 1))),
        )
        honest = figure1_publisher.answer(query, role="hr_manager")
        # Forge: drop the last matching row and replace its matched entry with a
        # filtered entry whose revealed attribute *does* satisfy the condition.
        victim_entry = honest.proof.entries[2]
        signed = figure1_publisher.signed_relation("employees")
        record = signed.relation[2]  # salary 8010, dept 1 (the victim)
        upper, lower, _ = signed.components(3)
        leaf_digests = figure1_publisher._attribute_leaf_digests(
            signed, record, [a.name for a in signed.schema.non_key_attributes if a.name != "dept"]
        )
        forged_entry = FilteredEntryProof(
            revealed_attributes={"dept": record["dept"]},
            attribute_leaf_digests=leaf_digests,
            upper_chain_digest=upper,
            lower_chain_digest=lower,
            reason="predicate",
        )
        forged_proof = RangeQueryProof(
            key_low=honest.proof.key_low,
            key_high=honest.proof.key_high,
            lower_boundary=honest.proof.lower_boundary,
            upper_boundary=honest.proof.upper_boundary,
            entries=honest.proof.entries[:2] + (forged_entry,),
            signatures=honest.proof.signatures,
            outer_neighbor_digest=honest.proof.outer_neighbor_digest,
        )
        with pytest.raises(CompletenessError) as excinfo:
            figure1_verifier.verify(
                query, honest.rows[:-1], forged_proof, role="hr_manager"
            )
        assert excinfo.value.reason in ("unjustified-filtering", "signature-mismatch")


class TestAccessControl:
    def test_hr_executive_rewrite_restricts_range(
        self, figure1_publisher, figure1_verifier
    ):
        """The introduction's scenario: the executive's query is rewritten to < 9000."""
        query = Query("employees", Conjunction((SALARY_BELOW_10K,)))
        result = figure1_publisher.answer(query, role="hr_executive")
        assert [row["name"] for row in result.rows] == ["A", "C", "D"]
        # No record with salary >= 9000 is exposed anywhere in the proof.
        assert result.rewritten_query.where.key_condition(
            figure1_publisher.signed_relation("employees").schema
        ).high == 8999
        figure1_verifier.verify(query, result.rows, result.proof, role="hr_executive")

    def test_executive_result_differs_from_manager(self, figure1_publisher):
        query = Query("employees", Conjunction((RangeCondition("salary", None, 15000),)))
        manager = figure1_publisher.answer(query, role="hr_manager")
        executive = figure1_publisher.answer(query, role="hr_executive")
        assert len(manager.rows) == 4
        assert len(executive.rows) == 3

    def test_verifier_applies_same_rewriting(self, figure1_publisher, figure1_verifier):
        """A publisher ignoring access control produces a proof for the wrong range."""
        query = Query("employees", Conjunction((SALARY_BELOW_10K,)))
        unrestricted = figure1_publisher.answer(query, role="hr_manager")
        with pytest.raises(VerificationError):
            figure1_verifier.verify(
                query, unrestricted.rows, unrestricted.proof, role="hr_executive"
            )

    @pytest.fixture(scope="class")
    def department_policy(self):
        """A policy restricting a role through a *non-key* attribute.

        Row restrictions on the sort key fold into the query range (as the
        hr_executive example shows); restrictions on other attributes are the
        ones that trigger the Section 4.4 case-2 machinery.
        """
        from repro.db.access_control import AccessControlPolicy, Role

        policy = AccessControlPolicy()
        policy.add_role(Role("dept1_viewer", row_conditions=(EqualityCondition("dept", 1),)))
        policy.add_role(Role("auditor"))
        return policy

    @pytest.fixture(scope="class")
    def department_setup(self, owner, department_policy):
        from repro.db.access_control import add_visibility_columns

        relation = add_visibility_columns(figure1_employee_relation(), department_policy)
        database = owner.publish_database({"employees": relation})
        publisher = Publisher(database.relations, policy=department_policy)
        verifier = ResultVerifier(database.manifests, policy=department_policy)
        return publisher, verifier

    def test_multipoint_access_control_uses_visibility_column(self, department_setup):
        """Section 4.4 case 2: hidden records justified by the visibility column."""
        publisher, verifier = department_setup
        query = Query("employees", Conjunction((SALARY_BELOW_10K,)))
        result = publisher.answer(query, role="dept1_viewer")
        # Salary < 10000 gives A (dept 1), C (dept 2, hidden), D (dept 1).
        assert [row["name"] for row in result.rows] == ["A", "D"]
        filtered = [
            entry
            for entry in result.proof.entries
            if isinstance(entry, FilteredEntryProof)
        ]
        assert [entry.reason for entry in filtered] == ["access-control"]
        hidden = filtered[0]
        assert hidden.revealed_attributes == {
            visibility_column_name("dept1_viewer"): False
        }
        # Neither the salary nor any other sensitive value is revealed.
        assert "salary" not in hidden.revealed_attributes
        assert "name" not in hidden.revealed_attributes
        assert "dept" not in hidden.revealed_attributes
        verifier.verify(query, result.rows, result.proof, role="dept1_viewer")

    def test_access_control_without_visibility_columns_refused(
        self, owner, department_policy
    ):
        """Without visibility columns the publisher cannot hide records silently."""
        bare_relation = figure1_employee_relation()
        database = owner.publish_database({"employees": bare_relation})
        publisher = Publisher(database.relations, policy=department_policy)
        query = Query("employees", Conjunction((SALARY_BELOW_10K,)))
        with pytest.raises(PolicyViolationError):
            publisher.answer(query, role="dept1_viewer")

    def test_hidden_record_count_is_revealed_but_not_content(self, department_setup):
        publisher, verifier = department_setup
        query = Query("employees")  # the whole table
        result = publisher.answer(query, role="dept1_viewer")
        assert [row["name"] for row in result.rows] == ["A", "D"]
        filtered = [
            entry
            for entry in result.proof.entries
            if isinstance(entry, FilteredEntryProof) and entry.reason == "access-control"
        ]
        # The paper: the solution reveals the *number* of hidden records only.
        assert len(filtered) == 3  # C, B and E are hidden from dept1_viewer
        verifier.verify(query, result.rows, result.proof, role="dept1_viewer")

    def test_missing_role_rejected_when_records_hidden(self, department_setup):
        """A proof hiding records behind access control needs the user's role."""
        publisher, verifier = department_setup
        query = Query("employees", Conjunction((SALARY_BELOW_10K,)))
        result = publisher.answer(query, role="dept1_viewer")
        with pytest.raises(VerificationError):
            verifier.verify(query, result.rows, result.proof, role=None)
