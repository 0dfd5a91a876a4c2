"""Tests for the baseline schemes: Devanbu MHT, naive signatures, VB-tree.

Every construction is exercised in process through the classes the scheme
comparison uses — ``repro.schemes.*`` publications and their typed verifiers.
"""

import dataclasses

import pytest

from repro.core.errors import VerificationError
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.workload import figure1_employee_relation, generate_employees
from repro.schemes.devanbu import DevanbuPublication, DevanbuSchemeVerifier
from repro.schemes.naive import NaivePublication, NaiveSchemeVerifier
from repro.schemes.vbtree import VBTreePublication
from repro.wire.updates import RecordDelta


@pytest.fixture(scope="module")
def employees():
    return generate_employees(50, seed=12, photo_bytes=4)


def _range(low, high):
    return Query("employees", Conjunction((RangeCondition("salary", low, high),)))


def _update(victim, **changes):
    return RecordDelta(
        kind="update",
        values=victim.replace(**changes).as_dict(),
        old_values=victim.as_dict(),
    )


class TestDevanbu:
    @pytest.fixture(scope="class")
    def mht(self, signature_scheme, employees):
        return DevanbuPublication(employees, signature_scheme)

    @pytest.fixture(scope="class")
    def verifier(self, mht):
        return DevanbuSchemeVerifier("employees", mht.manifest)

    def test_range_query_round_trip(self, mht, verifier, employees):
        keys = employees.keys()
        rows, proof = mht.answer_range(keys[10], keys[20])
        assert len(rows) == 11
        verifier.verify(_range(keys[10], keys[20]), rows, proof)

    def test_range_at_table_start(self, mht, verifier, employees):
        keys = employees.keys()
        rows, proof = mht.answer_range(1, keys[5])
        assert proof.left_is_table_start
        verifier.verify(_range(1, keys[5]), rows, proof)

    def test_range_at_table_end(self, mht, verifier, employees):
        keys = employees.keys()
        rows, proof = mht.answer_range(keys[-5], 99_999)
        assert proof.right_is_table_end
        verifier.verify(_range(keys[-5], 99_999), rows, proof)

    def test_boundary_tuples_are_exposed(self, mht, employees):
        """Limitation (4): the user sees tuples outside the query range."""
        keys = employees.keys()
        rows, proof = mht.answer_range(keys[10], keys[20])
        assert proof.boundary_rows_exposed == 2
        exposed_keys = [row["salary"] for row in proof.expanded_rows]
        assert exposed_keys[0] < keys[10] and exposed_keys[-1] > keys[20]

    def test_all_attributes_are_exposed(self, mht, employees):
        """Limitation (3): projection is impossible; BLOBs travel with the VO."""
        keys = employees.keys()
        _, proof = mht.answer_range(keys[10], keys[12])
        assert all("photo" in row for row in proof.expanded_rows)

    def test_vo_grows_with_table_size(self, signature_scheme):
        """Limitation (2): the VO carries O(log |table|) digests."""
        small = DevanbuPublication(
            generate_employees(32, seed=1, photo_bytes=2), signature_scheme
        )
        large = DevanbuPublication(
            generate_employees(512, seed=1, photo_bytes=2), signature_scheme
        )
        small_keys = small.relation.keys()
        large_keys = large.relation.keys()
        _, small_proof = small.answer_range(small_keys[10], small_keys[12])
        _, large_proof = large.answer_range(large_keys[10], large_keys[12])
        assert large_proof.digest_count > small_proof.digest_count

    def test_omitted_row_detected(self, mht, verifier, employees):
        keys = employees.keys()
        rows, proof = mht.answer_range(keys[10], keys[20])
        with pytest.raises(VerificationError):
            verifier.verify(_range(keys[10], keys[20]), rows[:-1], proof)

    def test_tampered_row_detected(self, mht, verifier, employees):
        """A row forged consistently in the result *and* the expansion."""
        keys = employees.keys()
        rows, proof = mht.answer_range(keys[10], keys[20])
        forged = dataclasses.replace(
            proof,
            expanded_rows=tuple(
                dict(row, name="EVIL") if index == 2 else row
                for index, row in enumerate(proof.expanded_rows)
            ),
        )
        tampered_rows = [dict(r) for r in rows]
        tampered_rows[1]["name"] = "EVIL"
        with pytest.raises(VerificationError) as excinfo:
            verifier.verify(_range(keys[10], keys[20]), tampered_rows, forged)
        assert excinfo.value.reason == "signature-mismatch"

    def test_update_propagates_to_root(self, signature_scheme):
        relation = generate_employees(64, seed=6, photo_bytes=2)
        mht = DevanbuPublication(relation, signature_scheme)
        old_root = mht.root
        receipt = mht.apply_deltas([_update(relation[10], name="changed")])
        assert mht.root != old_root
        # an update is a delete plus an insert: each re-signs the root once
        # and re-hashes the whole root path
        assert receipt.signatures_recomputed == 2
        assert receipt.digests_recomputed >= 2 * mht.height

    def test_figure1_hr_executive_violation(self, signature_scheme):
        """The introduction's point: Devanbu exposes records beyond the policy bound."""
        relation = figure1_employee_relation()
        mht = DevanbuPublication(relation, signature_scheme)
        rows, proof = mht.answer_range(1, 8999)  # the rewritten executive query
        exposed = [row["salary"] for row in proof.expanded_rows]
        assert 12100 in exposed  # a record the executive must not see


class TestNaive:
    @pytest.fixture(scope="class")
    def naive(self, signature_scheme, employees):
        return NaivePublication(employees, signature_scheme)

    @pytest.fixture(scope="class")
    def verifier(self, naive):
        return NaiveSchemeVerifier("employees", naive.manifest)

    def test_round_trip(self, naive, verifier, employees):
        keys = employees.keys()
        rows, proof = naive.answer_range(keys[5], keys[15])
        verifier.verify(_range(keys[5], keys[15]), rows, proof)
        assert proof.signature_count == len(rows)

    def test_aggregated_transport(self, naive, verifier, employees):
        keys = employees.keys()
        rows, proof = naive.answer_range(keys[5], keys[15], aggregate=True)
        assert proof.signature_count == 1
        verifier.verify(_range(keys[5], keys[15]), rows, proof)

    def test_tampering_detected(self, naive, verifier, employees):
        keys = employees.keys()
        rows, proof = naive.answer_range(keys[5], keys[15])
        rows[0]["name"] = "EVIL"
        with pytest.raises(VerificationError):
            verifier.verify(_range(keys[5], keys[15]), rows, proof)

    def test_omission_is_not_detected(self, naive, verifier, employees):
        """The scheme's fundamental gap: dropping rows goes unnoticed."""
        keys = employees.keys()
        rows, proof = naive.answer_range(keys[5], keys[15])
        truncated_proof = type(proof)(signatures=proof.signatures[:-1])
        report = verifier.verify(
            _range(keys[5], keys[15]), rows[:-1], truncated_proof
        )
        assert report.result_rows == len(rows) - 1

    def test_update_touches_one_signature(self, signature_scheme):
        relation = generate_employees(50, seed=12, photo_bytes=4)
        naive = NaivePublication(relation, signature_scheme)
        receipt = naive.apply_deltas([_update(relation[3], name="x")])
        assert receipt.signatures_recomputed == 1


class TestVBTree:
    @pytest.fixture(scope="class")
    def vbtree(self, signature_scheme, employees):
        return VBTreePublication(employees, signature_scheme, fanout=4)

    def test_covering_proof_round_trip(self, vbtree, employees):
        keys = employees.keys()
        rows, proof = vbtree.answer_range(keys[8], keys[24])
        assert len(rows) == 17
        assert proof.signature_count >= 1
        assert proof.digest_count >= 0

    def test_vo_smaller_than_per_tuple_signatures(self, vbtree, employees):
        keys = employees.keys()
        rows, proof = vbtree.answer_range(keys[0], keys[-1])
        # One covering node (the root) suffices for the full table.
        assert proof.signature_count < len(rows)

    def test_update_resigns_root_path(self, signature_scheme):
        relation = generate_employees(64, seed=4, photo_bytes=2)
        tree = VBTreePublication(relation, signature_scheme, fanout=4)
        receipt = tree.apply_deltas([_update(relation[10], name="x")])
        # delete + insert, each re-signing the whole root path — strictly
        # worse than the chain scheme's 3 flat signatures
        assert receipt.signatures_recomputed == 2 * tree.height
        assert tree.height > 1

    def test_small_fanout_rejected(self, signature_scheme, employees):
        with pytest.raises(ValueError):
            VBTreePublication(employees, signature_scheme, fanout=1)

    def test_empty_relation_supported(self, signature_scheme):
        from repro.db.relation import Relation
        from repro.db.workload import employee_schema

        tree = VBTreePublication(Relation(employee_schema()), signature_scheme)
        rows, proof = tree.answer_range(1, 99_999)
        assert rows == []
