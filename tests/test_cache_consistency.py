"""Memo correctness: the fast path must be invisible in every proof byte.

A long-lived publisher (its schemes' boundary-assist memo warm) and one built
fresh over the same rows must produce byte-identical proofs and identical
accept/reject decisions — including after ``insert_record`` /
``delete_record`` / ``update_record``, which the memo never hears about —
plus the Section 6.3 update-receipt accounting.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import VerificationError
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.db.query import Conjunction, JoinQuery, Projection, Query, RangeCondition
from repro.db.relation import Relation
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.db.workload import generate_customers_and_orders

DOMAIN = KeyDomain(0, 512)

SCHEMA = Schema.build(
    "t",
    [
        Attribute("k", AttributeType.INTEGER, domain=DOMAIN),
        Attribute("name", AttributeType.STRING),
        Attribute("grade", AttributeType.INTEGER),
    ],
    key="k",
)


def _rows(keys, grades):
    return [
        {"k": key, "name": f"row-{key}", "grade": grade}
        for key, grade in zip(keys, grades)
    ]


def _fresh_publisher(rows, signature_scheme):
    """A publisher over a newly built relation: nothing memoised yet."""
    return Publisher(
        {"t": SignedRelation(Relation.from_rows(SCHEMA, rows), signature_scheme)}
    )


def _publisher_pair(rows, signature_scheme):
    """(long-lived, fresh) publishers over independently built identical relations."""
    return _fresh_publisher(rows, signature_scheme), _fresh_publisher(rows, signature_scheme)


def _boundary_hits(publisher):
    return publisher.cache_stats()["vo_fragments"]["hits"]


def _assert_identical(first, second):
    """Structural and byte-level equality of two published results."""
    assert first.rows == second.rows
    assert first.proof == second.proof
    assert repr(first.proof) == repr(second.proof)


keys_strategy = st.lists(
    st.integers(min_value=1, max_value=511), min_size=0, max_size=10, unique=True
)
grades_strategy = st.lists(st.integers(min_value=0, max_value=5), min_size=10, max_size=10)
bound_strategy = st.integers(min_value=1, max_value=511)


class TestCachedUncachedEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(keys=keys_strategy, grades=grades_strategy, low=bound_strategy, high=bound_strategy)
    def test_range_proofs_byte_identical(
        self, signature_scheme, keys, grades, low, high
    ):
        rows = _rows(keys, grades)
        cached, uncached = _publisher_pair(rows, signature_scheme)
        query = Query("t", Conjunction((RangeCondition("k", low, high),)))
        hot_first = cached.answer(query)
        cold = uncached.answer(query)
        hot_repeat = cached.answer(query)  # second answer: boundary assists memoised
        _assert_identical(cold, hot_first)
        _assert_identical(cold, hot_repeat)

        verifier = ResultVerifier({"t": cached.signed_relation("t").manifest})
        if hot_first.proof is not None:
            report_hot = verifier.verify(query, hot_repeat.rows, hot_repeat.proof)
            report_cold = verifier.verify(query, cold.rows, cold.proof)
            assert report_hot.result_rows == report_cold.result_rows

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        keys=st.lists(
            st.integers(min_value=1, max_value=511), min_size=2, max_size=8, unique=True
        ),
        grades=grades_strategy,
        low=bound_strategy,
        high=bound_strategy,
        condition_grade=st.integers(min_value=0, max_value=5),
    )
    def test_multipoint_projection_proofs_byte_identical(
        self, signature_scheme, keys, grades, low, high, condition_grade
    ):
        rows = _rows(keys, grades)
        cached, uncached = _publisher_pair(rows, signature_scheme)
        query = Query(
            "t",
            Conjunction(
                (
                    RangeCondition("k", low, high),
                    RangeCondition("grade", condition_grade, None),
                )
            ),
            Projection(attributes=("name",)),
        )
        _assert_identical(uncached.answer(query), cached.answer(query))
        _assert_identical(uncached.answer(query), cached.answer(query))

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        keys=st.lists(
            st.integers(min_value=2, max_value=510), min_size=3, max_size=8, unique=True
        ),
        grades=grades_strategy,
        low=bound_strategy,
        high=bound_strategy,
        mutation=st.sampled_from(["insert", "delete", "update"]),
        fresh_key=st.integers(min_value=1, max_value=511),
    )
    def test_mutations_invalidate_precisely(
        self, signature_scheme, keys, grades, low, high, mutation, fresh_key,
    ):
        """After any mutation the long-lived publisher matches a fresh build."""
        rows = _rows(keys, grades)
        cached = _fresh_publisher(rows, signature_scheme)
        signed = cached.signed_relation("t")
        query = Query("t", Conjunction((RangeCondition("k", low, high),)))
        cached.answer(query)  # warm the boundary memo before mutating

        if mutation == "insert" and fresh_key not in set(keys):
            signed.insert_record({"k": fresh_key, "name": "new", "grade": 1})
        elif mutation == "delete":
            signed.delete_record(signed.relation[0])
        elif mutation == "update":
            victim = signed.relation[0]
            signed.update_record(victim, victim.replace(grade=victim["grade"] + 1))

        current_rows = [record.as_dict() for record in signed.relation]
        rebuilt = _fresh_publisher(current_rows, signature_scheme)
        _assert_identical(rebuilt.answer(query), cached.answer(query))

        verifier = ResultVerifier({"t": signed.manifest})
        result = cached.answer(query)
        if result.proof is not None:
            verifier.verify(query, result.rows, result.proof)

    def test_swapped_relation_not_served_stale_fragments(self, signature_scheme):
        """A relation swapped in after construction answers from its own memo:
        the old one's dies with the relation that owned the schemes."""
        rows_a = _rows([10, 20, 30], [1, 2, 3])
        rows_b = _rows([10, 25, 30], [4, 5, 6])
        cached = _fresh_publisher(rows_a, signature_scheme)
        query = Query("t", Conjunction((RangeCondition("k", 5, 28),)))
        cached.answer(query)  # warm relation A's memo

        replacement = SignedRelation(
            Relation.from_rows(SCHEMA, rows_b), signature_scheme
        )
        cached.database["t"] = replacement
        swapped = cached.answer(query)
        rebuilt = _fresh_publisher(rows_b, signature_scheme).answer(query)
        _assert_identical(rebuilt, swapped)
        ResultVerifier({"t": replacement.manifest}).verify(
            query, swapped.rows, swapped.proof
        )
        # ...and mutations on the replacement are seen too.
        replacement.insert_record({"k": 15, "name": "late", "grade": 2})
        after = cached.answer(query)
        ResultVerifier({"t": replacement.manifest}).verify(
            query, after.rows, after.proof
        )
        assert len(after.rows) == len(swapped.rows) + 1

    def test_multi_name_hosting_survives_swap_of_one_name(self, signature_scheme):
        """One relation hosted under two names: swapping one name must not
        disturb answers under the other."""
        rows = _rows([10, 20, 30], [1, 2, 3])
        shared = SignedRelation(Relation.from_rows(SCHEMA, rows), signature_scheme)
        publisher = Publisher({"a": shared, "b": shared})
        query_b = Query("b", Conjunction((RangeCondition("k", 5, 25),)))

        other = SignedRelation(
            Relation.from_rows(SCHEMA, _rows([15], [9])), signature_scheme
        )
        publisher.database["a"] = other
        publisher.answer(Query("a", Conjunction((RangeCondition("k", 5, 25),))))
        publisher.answer(query_b)  # warms the shared relation's memo

        victim = shared.relation[0]
        shared.update_record(victim, victim.replace(grade=7))
        result = publisher.answer(query_b)
        ResultVerifier({"b": shared.manifest}).verify(
            query_b, result.rows, result.proof
        )

    def test_boundary_neighbour_update_is_served_with_its_new_attribute_root(
        self, signature_scheme
    ):
        """Only the chain assist is memoised: a boundary entry's other fields
        are read from the relation on every answer."""
        rows = _rows([10, 20, 30, 40, 50], [1, 2, 3, 4, 5])
        publisher = _fresh_publisher(rows, signature_scheme)
        signed = publisher.signed_relation("t")
        query = Query("t", Conjunction((RangeCondition("k", 25, 45),)))
        before = publisher.answer(query)
        hits = _boundary_hits(publisher)

        for position in (1, 4):  # keys 20 and 50: just below and just above the range
            victim = signed.relation[position]
            signed.update_record(victim, victim.replace(grade=victim["grade"] + 10))
        after = publisher.answer(query)
        assert _boundary_hits(publisher) == hits + 2  # both chain assists came from the memo

        hash_function = signed.hash_function
        for side, position in (("lower_boundary", 1), ("upper_boundary", 4)):
            old, new = getattr(before.proof, side), getattr(after.proof, side)
            assert new.attribute_root == signed.relation[position].attribute_root(hash_function)
            assert new.attribute_root != old.attribute_root
            assert new.chain_boundary == old.chain_boundary
        assert after.rows == before.rows
        ResultVerifier({"t": signed.manifest}).verify(query, after.rows, after.proof)
        current_rows = [record.as_dict() for record in signed.relation]
        _assert_identical(_fresh_publisher(current_rows, signature_scheme).answer(query), after)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_long_lived_publisher_matches_fresh_across_mutations(self, signature_scheme, seed):
        """A seeded insert/delete/update sequence, every query asked twice after
        every step: same bytes, same accept and reject decisions."""
        rng = random.Random(seed)
        keys = rng.sample(range(2, 511), 8)
        grades = [rng.randrange(6) for _ in keys]
        publisher = _fresh_publisher(_rows(keys, grades), signature_scheme)
        signed = publisher.signed_relation("t")
        bounds = sorted(rng.sample(range(1, 512), 6))
        queries = [
            Query("t", Conjunction((RangeCondition("k", low, high),)))
            for low, high in zip(bounds[:3], bounds[3:])
        ]
        for step in range(8):
            kind = rng.choice(["insert", "delete", "update"])
            if kind == "insert" or len(signed.relation) < 3:
                free = [key for key in range(1, 512) if key not in set(signed.relation.keys())]
                signed.insert_record({"k": rng.choice(free), "name": f"new-{step}", "grade": 1})
            elif kind == "delete":
                signed.delete_record(rng.choice(list(signed.relation)))
            else:
                victim = rng.choice(list(signed.relation))
                signed.update_record(victim, victim.replace(grade=victim["grade"] + 1))
            current_rows = [record.as_dict() for record in signed.relation]
            fresh = _fresh_publisher(current_rows, signature_scheme)
            verifier = ResultVerifier({"t": signed.manifest})
            for query in queries:
                expected = fresh.answer(query)
                for _ in range(2):
                    result = publisher.answer(query)
                    _assert_identical(expected, result)
                    verifier.verify(query, result.rows, result.proof)
                if result.rows:
                    tampered = [dict(row) for row in result.rows]
                    tampered[0]["name"] = "forged"
                    reasons = []
                    for proof in (expected.proof, result.proof):
                        with pytest.raises(VerificationError) as rejection:
                            verifier.verify(query, tampered, proof)
                        reasons.append(rejection.value.reason)
                    assert reasons[0] == reasons[1]

    def test_reject_decisions_identical(self, signature_scheme):
        """Tampered rows are rejected whether or not the memo served the proof."""
        rows = _rows([10, 20, 30], [1, 2, 3])
        cached, uncached = _publisher_pair(rows, signature_scheme)
        query = Query("t", Conjunction((RangeCondition("k", 5, 25),)))
        cached.answer(query)
        for publisher in (cached, uncached):
            result = publisher.answer(query)
            verifier = ResultVerifier({"t": publisher.signed_relation("t").manifest})
            tampered = [dict(row) for row in result.rows]
            tampered[0]["name"] = "forged"
            with pytest.raises(VerificationError):
                verifier.verify(query, tampered, result.proof)


class TestJoinBatching:
    def test_batched_point_proofs_match_individual_answers(self, signature_scheme):
        customers, orders = generate_customers_and_orders(10, 30, seed=17)
        database = {
            "customers": SignedRelation(customers, signature_scheme),
            "orders": SignedRelation(orders, signature_scheme),
        }
        publisher = Publisher(database)
        join = JoinQuery("orders", "customers", "customer_id", "customer_id")
        result = publisher.answer_join(join)
        assert result.proof is not None
        for value, point_proof in result.proof.right_point_proofs.items():
            point_query = Query(
                "customers",
                Conjunction((RangeCondition("customer_id", value, value),)),
                Projection(),
            )
            individual = publisher.answer(point_query)
            assert individual.proof == point_proof
            assert repr(individual.proof) == repr(point_proof)

    def test_join_verifies_after_mutation(self, signature_scheme):
        customers, orders = generate_customers_and_orders(8, 20, seed=23)
        database = {
            "customers": SignedRelation(customers, signature_scheme),
            "orders": SignedRelation(orders, signature_scheme),
        }
        publisher = Publisher(database)
        verifier = ResultVerifier(
            {name: signed.manifest for name, signed in database.items()}
        )
        join = JoinQuery("orders", "customers", "customer_id", "customer_id")
        first = publisher.answer_join(join)
        verifier.verify_join(join, first.rows, first.proof, first.left_rows)

        victim = database["orders"].relation[0]
        database["orders"].delete_record(victim)
        second = publisher.answer_join(join)
        verifier.verify_join(join, second.rows, second.proof, second.left_rows)
        assert len(second.rows) == len(first.rows) - 1


class TestUpdateReceiptAccounting:
    def _signed(self, signature_scheme, keys=(50, 100, 150, 200)):
        rows = _rows(list(keys), [1] * len(keys))
        return SignedRelation(Relation.from_rows(SCHEMA, rows), signature_scheme)

    def test_insert_counts_one_digest_and_three_messages(self, signature_scheme):
        signed = self._signed(signature_scheme)
        receipt = signed.insert_record({"k": 120, "name": "x", "grade": 0})
        assert receipt.digests_recomputed == 1
        assert receipt.signatures_recomputed == 3
        assert receipt.chain_messages_recomputed == 3
        assert receipt.chain_messages_recomputed == len(receipt.entries_affected)

    def test_delete_counts_zero_digests_but_two_messages(self, signature_scheme):
        signed = self._signed(signature_scheme)
        receipt = signed.delete_record(signed.relation[1])
        assert receipt.digests_recomputed == 0
        assert receipt.signatures_recomputed == 2
        assert receipt.chain_messages_recomputed == 2

    def test_update_sums_delete_and_insert(self, signature_scheme):
        """A non-key change lands where the old record sat: one window of three."""
        signed = self._signed(signature_scheme)
        victim = signed.relation[2]
        before = signed.version
        receipt = signed.update_record(victim, victim.replace(grade=9))
        assert receipt.digests_recomputed == 1  # 0 for the delete + 1 for the insert
        assert receipt.signatures_recomputed == 3
        assert receipt.chain_messages_recomputed == 3
        assert receipt.entries_affected == (2, 3, 4)
        assert signed.version == before + 2  # still a delete and an insert

    @pytest.mark.parametrize(
        "new_key, expected", [(60, 5), (120, 4), (160, 3), (240, 3), (270, 4), (320, 5)]
    )
    def test_update_that_moves_resigns_the_union_once(
        self, signature_scheme, new_key, expected
    ):
        """Wherever the replacement lands: at most five signatures, each made
        once, and the chain a delete followed by an insert leaves behind."""
        keys = (50, 100, 150, 200, 250, 300, 350)
        signed = self._signed(signature_scheme, keys)
        twin = self._signed(signature_scheme, keys)
        victim = signed.relation[3]  # key 200
        moved = {"k": new_key, "name": "moved", "grade": 3}
        receipt = signed.update_record(victim, moved)
        assert receipt.signatures_recomputed == len(set(receipt.entries_affected))
        assert receipt.signatures_recomputed == expected
        twin.delete_record(twin.relation[3])
        twin.insert_record(moved)
        assert signed.signatures == twin.signatures
        assert [signed.entry_digest(i) for i in range(signed.entry_count())] == [
            twin.entry_digest(i) for i in range(twin.entry_count())
        ]
        assert signed.manifest == twin.manifest
        assert signed.verify_internal_consistency()

    def test_version_bumps(self, signature_scheme):
        signed = self._signed(signature_scheme)
        before = signed.version
        signed.insert_record({"k": 60, "name": "y", "grade": 2})
        assert signed.version == before + 1
        signed.delete_record(signed.relation[0])
        assert signed.version == before + 2
