"""Memo correctness: the fast path must be invisible in every served byte.

The server's encoded-response cache (second half of this file) must serve
exactly what a cache-less handler builds at the same instant, whatever the
owner inserts, deletes or updates next to a cached answer's chain window.

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

import repro.core.publisher as publisher_module
import repro.service.handler as handler_module
import repro.service.router as router_module
from repro.core.errors import VerificationError
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.db.access_control import AccessControlPolicy, Role
from repro.db.query import (
    Conjunction,
    EqualityCondition,
    JoinQuery,
    Projection,
    Query,
    RangeCondition,
)
from repro.db.relation import Relation
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.db.workload import generate_customers_and_orders
from repro.service.handler import RequestHandler
from repro.service.owner import build_update_request
from repro.service.protocol import ErrorResponse, QueryRequest
from repro.service.router import ShardRouter
from repro.wire import decode, encode
from repro.wire.updates import RecordDelta

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


# -- the server's encoded-response cache ---------------------------------------
#
# Keyed on the question and guarded by the chain window the answer read: every
# payload it serves must be byte-identical to what a cache-less handler over
# the same router builds at that instant.

WIDE = KeyDomain(0, 1024)



def _served_schema(name):
    return Schema.build(
        name,
        [
            Attribute("k", AttributeType.INTEGER, domain=WIDE),
            Attribute("name", AttributeType.STRING),
            Attribute("grade", AttributeType.INTEGER),
        ],
        key="k",
    )


SERVED_SCHEMA = _served_schema("t")


def _served_row(key, name=None, grade=None):
    return {
        "k": key,
        "name": name or f"row-{key}",
        "grade": key // 10 % 3 if grade is None else grade,
    }


def _key_range(low, high, *conditions, relation="t"):
    return Query(relation, Conjunction((RangeCondition("k", low, high),) + conditions))


class _ServedWorld:
    """Relations behind a caching and a cache-less handler over one router."""

    def __init__(self, signature_scheme, keys, relations=("t",)):
        policy = AccessControlPolicy()
        policy.add_role(Role("clerk", visible_attributes=("k", "name")))
        self.scheme = signature_scheme
        rows = [_served_row(key) for key in keys]
        database = {
            name: SignedRelation(
                Relation.from_rows(_served_schema(name), rows), signature_scheme
            )
            for name in relations
        }
        self.signed = database["t"]
        self.router = ShardRouter({"s": Publisher(database, policy=policy)})
        self.cached = RequestHandler(self.router)
        self.plain = RequestHandler(self.router, response_cache=False)

    def stats(self):
        return self.cached.cache_stats()["responses"]

    def ask(self, query, role=None, identifier=None):
        """(caching handler's payload, the cache-less handler's) for one frame."""
        if identifier is None:
            identifier = self.router.current_id(query.relation_name)
        frame = encode(QueryRequest(identifier, query, role))
        return self.cached.handle_frame(frame).payload, self.plain.handle_frame(frame).payload

    def identical(self, query, role=None):
        served, rebuilt = self.ask(query, role)
        return served == rebuilt

    def push(self, *deltas):
        request = build_update_request(self.scheme, self.signed.manifest, deltas)
        handled = self.cached.handle_frame(encode(request))
        assert not handled.is_error, decode(handled.payload)

    def record(self, position):
        return self.signed.relation[position].as_dict()


#: name -> (query, role).  The empty range comes first so the narrowed-window
#: negative reaches its counterexample quickly.
_SHAPES = {
    "empty": (_key_range(255, 258), None),
    "point": (_key_range(300, 300), None),
    "range": (_key_range(100, 490), None),  # 40 keys
    "domain-edge": (_key_range(560, 1023), None),
    "role": (_key_range(300, 340), "clerk"),
    "filtered": (_key_range(300, 340, EqualityCondition("grade", 1)), None),
}
_FAR_KEY = 900  # a record no pooled window reaches, to move next to a boundary


def _mutations(world, position):
    """(kind, deltas, deltas that undo them) for the record at ``position``."""
    target = world.record(position)
    key = target["k"]
    bumped = dict(target, grade=target["grade"] + 7)
    neighbour = _served_row(key + 1)
    twin = _served_row(key, name=f"twin-{key}")
    away = dict(target, k=_FAR_KEY + 1)
    far = _served_row(_FAR_KEY)
    near = dict(far, k=key + 1)

    def insert(row):
        return RecordDelta(kind="insert", values=row)

    def delete(row):
        return RecordDelta(kind="delete", values=row)

    def update(old, new):
        return RecordDelta(kind="update", values=new, old_values=old)

    return [
        ("insert", insert(neighbour), delete(neighbour)),
        ("delete", delete(target), insert(target)),
        ("in-place update", update(target, bumped), update(bumped, target)),
        ("key moves away", update(target, away), update(away, target)),
        ("key moves in", update(far, near), update(near, far)),
        ("duplicate key", insert(twin), delete(twin)),
    ]


def _directed_mismatches(world):
    """Drive the boundary matrix; yield every ask the cache answered differently."""
    relation = world.signed.relation
    positions = set()
    for query, _ in _SHAPES.values():
        low, high = query.where.key_condition(SERVED_SCHEMA).bounds(WIDE)
        start, stop = relation.range_indices(low, high)
        for boundary in (start - 1, stop):  # the records just outside the range
            positions.update(
                boundary + offset
                for offset in range(-3, 4)
                if 0 <= boundary + offset < len(relation)
            )
    for position in sorted(positions):
        key = world.record(position)["k"]
        asks = dict(_SHAPES)
        asks["adjacent point"] = (_key_range(key, key), None)
        asks["adjacent range"] = (_key_range(key - 12, key + 12), None)
        for kind, forward, backward in _mutations(world, position):
            for step, delta in (("", forward), (" undone", backward)):
                world.push(delta)
                for shape, (query, role) in asks.items():
                    if not world.identical(query, role):
                        yield (shape, kind + step, key)


@pytest.fixture()
def served(signature_scheme):
    return _ServedWorld(signature_scheme, list(range(10, 610, 10)) + [_FAR_KEY])


class TestResponseCacheWindows:
    def test_directed_boundary_matrix_is_byte_identical(self, served):
        for query, role in _SHAPES.values():
            assert served.identical(query, role)
        assert list(_directed_mismatches(served)) == []
        stats = served.stats()
        # The windows did their job in both directions: most asks were served
        # from the cache, and the touched ones were rebuilt.
        assert stats["hits"] > stats["misses"] > stats["window_invalidations"] > 0
        assert stats["size"] <= len(_SHAPES) + 2 * 61

    def test_a_window_one_entry_short_serves_a_stale_answer(self, served, monkeypatch):
        """The matrix has teeth: cut the entry below the lower boundary entry
        out of the window and an empty range's outer digest goes stale."""
        exact = publisher_module._chain_window

        def one_entry_short(signed, start, stop):
            return signed.entry(start).key, exact(signed, start, stop)[1]

        monkeypatch.setattr(publisher_module, "_chain_window", one_entry_short)
        shape, kind, key = next(_directed_mismatches(served))
        assert shape == "empty" and key == 240  # the outer neighbour of boundary 250

    @pytest.mark.parametrize("seed", [5, 17, 40])
    def test_seeded_update_sequences_are_byte_identical(self, signature_scheme, seed):
        rng = random.Random(seed)
        world = _ServedWorld(signature_scheme, rng.sample(range(1, 1024), 40))
        lows = rng.sample(range(1, 900), 4)
        bounds = [(low, low + rng.randrange(120)) for low in lows]
        pool = [(_key_range(low, high), None) for low, high in bounds]
        pool += [(_key_range(key, key), None) for key in rng.sample(range(1, 1024), 2)]
        pool.append((_key_range(*bounds[0]), "clerk"))
        pool.append((_key_range(*bounds[1], EqualityCondition("grade", 1)), None))
        for step in range(400):
            records = [record.as_dict() for record in world.signed.relation]
            taken = {row["k"] for row in records}
            kind = rng.choice(["insert", "delete", "update", "move"])
            if kind == "insert" or len(records) < 8:
                # now and then a duplicate of an existing key
                key = rng.choice(sorted(taken)) if step % 9 == 0 else rng.randrange(1, 1024)
                row = _served_row(key, name=f"new-{step}")
                world.push(RecordDelta(kind="insert", values=row))
            elif kind == "delete":
                row = rng.choice(records)
                world.push(RecordDelta(kind="delete", values=row))
            else:
                old = rng.choice(records)
                key = old["k"] if kind == "update" else rng.randrange(1, 1024)
                row = dict(old, k=key, grade=old["grade"] + 1)
                world.push(RecordDelta(kind="update", values=row, old_values=old))
            near = row["k"]
            asks = pool + [
                (_key_range(near, near), None),
                (_key_range(near - 9, near + 9), None),
            ]
            for query, role in asks:
                assert world.identical(query, role), (step, kind, near, query, role)
        stats = world.stats()
        # Two of every ten asks are new questions (the adjacent pair); most
        # of the pool's were served from the cache, some had to be rebuilt.
        assert stats["hits"] > 400 * len(pool) // 2
        assert stats["window_invalidations"] > 0 == stats["log_overruns"]

    def test_hit_path_refuses_what_the_uncached_path_refuses(self, signature_scheme):
        world = _ServedWorld(signature_scheme, range(10, 110, 10), relations=("t", "u"))
        query = _key_range(30, 60)
        genesis = world.router.current_id("t")
        body, _ = world.ask(query)
        assert world.stats()["size"] == 1

        def refusal(identifier):
            served, rebuilt = world.ask(query, identifier=identifier)
            assert served == rebuilt
            error = decode(served)
            assert isinstance(error, ErrorResponse)
            return error.code

        assert refusal(b"\x07" * 32) == "UnknownManifestError"
        assert refusal(b"short") == "UnknownManifestError"
        assert refusal(world.router.current_id("u")) == "ServiceProtocolError"
        # The same question asked of the other relation is its own entry.
        assert world.identical(_key_range(30, 60, relation="u"))
        assert world.stats()["size"] == 2
        # A role is part of the question: a separate entry, never this body.
        as_clerk, rebuilt = world.ask(query, role="clerk")
        assert as_clerk == rebuilt and as_clerk != body
        assert world.stats()["size"] == 3
        # A superseded id is served under the current snapshot from the same
        # entry; once it rotates out of the router's window it is refused.
        world.push(RecordDelta(kind="insert", values=_served_row(99)))
        hits = world.stats()["hits"]
        assert world.identical(query) and world.ask(query, identifier=genesis)[0] != body
        assert world.stats()["hits"] == hits + 2
        for step in range(router_module.MAX_SUPERSEDED_PER_RELATION):
            world.push(RecordDelta(kind="insert", values=_served_row(200 + step)))
        assert refusal(genesis) == "EvictedManifestError"
        assert world.identical(query)

    def test_more_updates_than_the_log_holds_is_a_miss(self, signature_scheme, monkeypatch):
        monkeypatch.setattr(handler_module, "_TOUCHED_LOG_MAX", 4)
        world = _ServedWorld(signature_scheme, range(10, 110, 10))
        query = _key_range(30, 60)
        assert world.identical(query)
        for step in range(4):  # as many as the log holds: still provable
            world.push(RecordDelta(kind="insert", values=_served_row(500 + step)))
        assert world.identical(query)
        assert (world.stats()["hits"], world.stats()["log_overruns"]) == (1, 0)
        for step in range(5):  # one more than it holds: the first is forgotten
            world.push(RecordDelta(kind="insert", values=_served_row(600 + step)))
        assert world.identical(query)
        stats = world.stats()
        assert (stats["hits"], stats["misses"], stats["log_overruns"]) == (1, 2, 1)
        assert world.identical(query)  # rebuilt and cached again
        assert world.stats()["hits"] == 2
