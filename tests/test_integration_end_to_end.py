"""Integration tests: the full owner → publisher → user pipeline.

These tests exercise the whole stack (workload generation, signing, query
answering, proof construction, verification) on randomised query mixes and on
the paper's own scenarios, including a randomised adversarial sweep that mixes
honest and manipulated results.
"""

import random

import pytest

from repro.core.errors import VerificationError
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.db.query import (
    Conjunction,
    EqualityCondition,
    JoinQuery,
    Projection,
    Query,
    RangeCondition,
)
from repro.db.workload import (
    generate_customers_and_orders,
    generate_employees,
    generate_stock_prices,
)


class TestRandomisedQueryMix:
    @pytest.fixture(scope="class")
    def world(self, owner):
        relation = generate_employees(120, seed=2024, photo_bytes=8, departments=5)
        signed = owner.publish_relation(relation)
        return relation, Publisher({"employees": signed}), ResultVerifier(
            {"employees": signed.manifest}
        )

    def test_fifty_random_range_queries(self, world):
        relation, publisher, verifier = world
        rng = random.Random(1)
        keys = relation.keys()
        for _ in range(50):
            low, high = sorted((rng.randrange(1, 99_999), rng.randrange(1, 99_999)))
            query = Query(
                "employees", Conjunction((RangeCondition("salary", low, high),))
            )
            result = publisher.answer(query)
            expected = [k for k in keys if low <= k <= high]
            assert [row["salary"] for row in result.rows] == expected
            report = verifier.verify(query, result.rows, result.proof)
            assert report.result_rows == len(expected)

    def test_twenty_random_multipoint_queries(self, world):
        relation, publisher, verifier = world
        rng = random.Random(2)
        for _ in range(20):
            low, high = sorted((rng.randrange(1, 99_999), rng.randrange(1, 99_999)))
            dept = rng.randrange(1, 6)
            query = Query(
                "employees",
                Conjunction(
                    (RangeCondition("salary", low, high), EqualityCondition("dept", dept))
                ),
                Projection(attributes=("name", "dept")),
            )
            result = publisher.answer(query)
            expected = [
                record.key
                for record in relation
                if low <= record.key <= high and record["dept"] == dept
            ]
            assert [row["salary"] for row in result.rows] == expected
            verifier.verify(query, result.rows, result.proof)

    def test_adversarial_sweep(self, world):
        """Random manipulations of honest results must always be rejected."""
        relation, publisher, verifier = world
        rng = random.Random(3)
        keys = relation.keys()
        rejected = 0
        attempts = 0
        for _ in range(20):
            low, high = sorted((rng.choice(keys), rng.choice(keys)))
            query = Query(
                "employees", Conjunction((RangeCondition("salary", low, high),))
            )
            result = publisher.answer(query)
            if not result.rows:
                continue
            attempts += 1
            manipulation = rng.choice(["drop", "tamper", "reorder", "inject"])
            rows = [dict(row) for row in result.rows]
            if manipulation == "drop":
                rows.pop(rng.randrange(len(rows)))
            elif manipulation == "tamper":
                rows[rng.randrange(len(rows))]["name"] = "EVIL"
            elif manipulation == "reorder" and len(rows) > 1:
                rows[0], rows[-1] = rows[-1], rows[0]
            elif manipulation == "inject":
                ghost = dict(rows[0])
                ghost["emp_id"] = "ghost"
                rows.append(ghost)
            else:
                continue
            if rows == result.rows:
                continue
            try:
                verifier.verify(query, rows, result.proof)
            except VerificationError:
                rejected += 1
        assert attempts > 0 and rejected == attempts


class TestStockPublishingScenario:
    """The introduction's motivating scenario: historical prices at ISP proxies."""

    @pytest.fixture(scope="class")
    def market(self, owner):
        prices = generate_stock_prices(250, symbol="ACME", seed=7)
        signed = owner.publish_relation(prices)
        return prices, Publisher({"prices": signed}), ResultVerifier(
            {"prices": signed.manifest}
        )

    def test_quarter_window_query(self, market):
        prices, publisher, verifier = market
        query = Query("prices", Conjunction((RangeCondition("trade_day", 60, 120),)))
        result = publisher.answer(query)
        assert len(result.rows) == 61
        verifier.verify(query, result.rows, result.proof)

    def test_projection_hides_volume(self, market):
        prices, publisher, verifier = market
        query = Query(
            "prices",
            Conjunction((RangeCondition("trade_day", 1, 30),)),
            Projection(attributes=("close",)),
        )
        result = publisher.answer(query)
        assert all(set(row) == {"trade_day", "close"} for row in result.rows)
        verifier.verify(query, result.rows, result.proof)

    def test_dishonest_proxy_detected(self, market):
        prices, publisher, verifier = market
        query = Query("prices", Conjunction((RangeCondition("trade_day", 100, 200),)))
        result = publisher.answer(query)
        doctored = [dict(row) for row in result.rows]
        doctored[50]["close"] = doctored[50]["close"] + 10.0
        with pytest.raises(VerificationError):
            verifier.verify(query, doctored, result.proof)


class TestMultiRelationDatabase:
    def test_join_and_selection_through_one_owner_key(self, owner):
        customers, orders = generate_customers_and_orders(30, 100, seed=44)
        database = owner.publish_database({"customers": customers, "orders": orders})
        publisher = Publisher(database.relations)
        verifier = ResultVerifier(database.manifests)

        cutoff = sorted(customers.keys())[15]
        join = JoinQuery(
            "orders",
            "customers",
            "customer_id",
            "customer_id",
            Conjunction((RangeCondition("customer_id", None, cutoff),)),
        )
        join_result = publisher.answer_join(join)
        verifier.verify_join(
            join, join_result.rows, join_result.proof, join_result.left_rows
        )

        point = Query(
            "customers",
            Conjunction((RangeCondition("customer_id", cutoff, cutoff),)),
        )
        point_result = publisher.answer(point)
        verifier.verify(point, point_result.rows, point_result.proof)

    def test_manifests_do_not_contain_data(self, owner):
        relation = generate_employees(10, seed=5, photo_bytes=2)
        database = owner.publish_database({"employees": relation})
        manifest = database.manifests["employees"]
        # The manifest exposes schema and scheme parameters, never records.
        assert not hasattr(manifest, "relation")
        assert manifest.schema.attribute_names == relation.schema.attribute_names


class TestDifferentSchemeConfigurations:
    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_bases_round_trip(self, signature_scheme, base):
        from repro.core.owner import DataOwner

        owner = DataOwner(signature_scheme=signature_scheme, base=base)
        relation = generate_employees(15, seed=base, photo_bytes=2)
        signed = owner.publish_relation(relation)
        publisher = Publisher({"employees": signed})
        verifier = ResultVerifier({"employees": signed.manifest})
        keys = relation.keys()
        query = Query(
            "employees", Conjunction((RangeCondition("salary", keys[3], keys[10]),))
        )
        result = publisher.answer(query)
        verifier.verify(query, result.rows, result.proof)

    def test_conceptual_relational_scheme_small_domain(self, signature_scheme):
        """Formula (2)'s Section 3 list and the served chain agree on a small domain."""
        from repro.core.basic_scheme import ListPublisher, ListVerifier, SignedValueList
        from repro.core.owner import DataOwner
        from repro.db.relation import Relation
        from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema

        domain, keys = KeyDomain(0, 128), list(range(1, 40, 3))
        attributes = [Attribute("id", AttributeType.INTEGER, domain=domain), Attribute("label", AttributeType.STRING)]
        relation = Relation.from_rows(
            Schema.build("tiny", attributes, key="id"), [{"id": i, "label": f"row{i}"} for i in keys]
        )
        signed = DataOwner(signature_scheme=signature_scheme).publish_relation(relation)
        query = Query("tiny", Conjunction((RangeCondition("id", 10, None),)))
        result = Publisher({"tiny": signed}).answer(query)
        ResultVerifier({"tiny": signed.manifest}).verify(query, result.rows, result.proof)
        conceptual = SignedValueList(domain, keys, signature_scheme, scheme_kind="conceptual")
        values, proof = ListPublisher(conceptual).answer_greater_than(10)
        ListVerifier(conceptual.manifest).verify_greater_than(10, values, proof)
        assert [row["id"] for row in result.rows] == values == [10, 13, 16, 19, 22, 25, 28, 31, 34, 37]

    def test_mixed_hash_function(self, signature_scheme):
        from repro.core.owner import DataOwner
        from repro.crypto.hashing import HashFunction

        owner = DataOwner(
            signature_scheme=signature_scheme, hash_function=HashFunction("sha1")
        )
        relation = generate_employees(10, seed=9, photo_bytes=2)
        signed = owner.publish_relation(relation)
        publisher = Publisher({"employees": signed})
        verifier = ResultVerifier({"employees": signed.manifest})
        query = Query("employees")
        result = publisher.answer(query)
        verifier.verify(query, result.rows, result.proof)
