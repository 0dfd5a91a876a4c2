"""Tests for update maintenance (Section 6.3), the owner role and the cost model."""

import math

import pytest

from repro.core import cost_model
from repro.core.owner import DataOwner
from repro.core.polynomial import DEFAULT_BASE
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.db.btree import BPlusTree
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.schema import KeyDomain
from repro.db.workload import generate_employees, generate_sorted_values


class TestSignedRelationUpdates:
    @pytest.fixture
    def signed(self, owner):
        relation = generate_employees(30, seed=77, photo_bytes=4)
        return owner.publish_relation(relation)

    def _fresh_row(self, signed, salary):
        return {
            "salary": salary,
            "emp_id": "new",
            "name": "NEW",
            "dept": 2,
            "photo": b"n",
        }

    def _unused_salary(self, signed):
        keys = set(signed.relation.keys())
        return next(s for s in range(1, 100_000) if s not in keys)

    def test_insert_touches_three_signatures(self, signed):
        receipt = signed.insert_record(self._fresh_row(signed, self._unused_salary(signed)))
        assert receipt.signatures_recomputed == 3
        assert signed.verify_internal_consistency()

    def test_insert_at_front_touches_at_most_three(self, signed):
        smallest = signed.relation.keys()[0]
        receipt = signed.insert_record(self._fresh_row(signed, smallest - 1))
        assert receipt.signatures_recomputed <= 3
        assert signed.verify_internal_consistency()

    def test_insert_at_back_touches_at_most_three(self, signed):
        largest = signed.relation.keys()[-1]
        receipt = signed.insert_record(self._fresh_row(signed, largest + 1))
        assert receipt.signatures_recomputed <= 3
        assert signed.verify_internal_consistency()

    def test_delete_touches_two_signatures(self, signed):
        victim = signed.relation[10]
        receipt = signed.delete_record(victim)
        assert receipt.signatures_recomputed == 2
        assert signed.verify_internal_consistency()

    def test_update_record(self, signed):
        victim = signed.relation[5]
        receipt = signed.update_record(
            victim, self._fresh_row(signed, self._unused_salary(signed))
        )
        assert receipt.signatures_recomputed <= 5
        assert signed.verify_internal_consistency()

    def test_update_cost_independent_of_table_size(self, owner):
        costs = {}
        for size in (20, 80):
            relation = generate_employees(size, seed=7, photo_bytes=2)
            signed = owner.publish_relation(relation)
            new_salary = next(
                s for s in range(1, 100_000) if s not in set(relation.keys())
            )
            receipt = signed.insert_record(
                {"salary": new_salary, "emp_id": "n", "name": "N", "dept": 1, "photo": b""}
            )
            costs[size] = receipt.signatures_recomputed
        assert costs[20] == costs[80] == 3

    def test_queries_verify_after_update_sequence(self, owner, signature_scheme):
        relation = generate_employees(25, seed=31, photo_bytes=2)
        signed = owner.publish_relation(relation)
        publisher = Publisher({"employees": signed})
        verifier = ResultVerifier({"employees": signed.manifest})
        used = set(relation.keys())
        for step in range(5):
            new_salary = next(s for s in range(1000 * (step + 1), 100_000) if s not in used)
            used.add(new_salary)
            signed.insert_record(
                {"salary": new_salary, "emp_id": f"u{step}", "name": "U", "dept": 1, "photo": b""}
            )
            signed.delete_record(signed.relation[0])
            query = Query("employees")
            result = publisher.answer(query)
            verifier.verify(query, result.rows, result.proof)


class TestSignaturesInBTreeLeaves:
    def test_signatures_colocated_with_leaf_entries(self, owner):
        """Section 6.3: the chain signatures can live inside B+-tree leaves."""
        values = generate_sorted_values(200, KeyDomain(0, 10_000), seed=8)
        published = owner.publish_value_list(values, KeyDomain(0, 10_000))
        tree = BPlusTree(fanout=32)
        for position, value in enumerate(published.values):
            tree.insert(value, position, signature=published.signatures[position + 1])
        assert len(tree) == 200
        sample = published.values[57]
        assert tree.signature_of(sample) == published.signatures[58]

    def test_update_touches_at_most_two_leaves(self, owner):
        values = generate_sorted_values(500, KeyDomain(0, 100_000), seed=8)
        published = owner.publish_value_list(values, KeyDomain(0, 100_000))
        tree = BPlusTree(fanout=64)
        for position, value in enumerate(published.values):
            tree.insert(value, position, signature=published.signatures[position + 1])
        new_value = next(v for v in range(40_000, 100_000) if v not in set(values))
        touched = tree.update_with_signatures(
            new_value, None, lambda left, key, right: hash((left, key, right))
        )
        assert touched <= 2


class TestDataOwner:
    def test_owner_generates_key_when_not_supplied(self):
        owner = DataOwner(key_bits=512)
        assert owner.public_key.bits >= 511

    def test_public_key_matches_scheme(self, owner, signature_scheme):
        assert owner.public_key is signature_scheme.verifier

    def test_publish_database_shares_one_key(self, owner):
        relation = generate_employees(5, seed=1, photo_bytes=2)
        database = owner.publish_database({"a": relation, "b": relation})
        manifests = database.manifests
        assert manifests["a"].public_key is manifests["b"].public_key
        assert "a" in database and "c" not in database

    def test_publish_sort_orders(self, owner):
        from repro.db.workload import generate_customers_and_orders

        _, orders = generate_customers_and_orders(10, 30, seed=9)
        signed_orders = owner.publish_sort_orders(orders, ["customer_id"])
        assert set(signed_orders) == {"customer_id"}
        assert signed_orders["customer_id"].schema.key == "customer_id"

    def test_manifest_carries_scheme_configuration(self, owner):
        relation = generate_employees(5, seed=1, photo_bytes=2)
        signed = owner.publish_relation(relation)
        manifest = signed.manifest
        assert manifest.base == owner.base == DEFAULT_BASE
        assert manifest.hash_name == "sha256"
        assert manifest.domain.width == 100_000


class TestCostModel:
    def test_table1_defaults(self):
        params = cost_model.CostParameters()
        assert params.c_hash == pytest.approx(50e-6)
        assert params.c_sign == pytest.approx(5e-3)
        assert params.m_digest_bits == 128 and params.m_digest_bytes == 16
        assert params.m_sign_bits == 1024 and params.m_sign_bytes == 128

    def test_digits_m(self):
        assert cost_model.digits_m(2) == 32
        assert cost_model.digits_m(2, 1000) == 10
        assert cost_model.digits_m(10, 1000) == 3
        with pytest.raises(ValueError):
            cost_model.digits_m(1)

    def test_section_6_2_worked_examples(self):
        """Cuser ~ 15.5 ms / 689 ms / 6.81 s for |Q| = 1 / 100 / 1000."""
        examples = cost_model.section_6_2_worked_examples()
        assert examples[1] == pytest.approx(15.5e-3, rel=0.05)
        assert examples[100] == pytest.approx(689e-3, rel=0.05)
        assert examples[1000] == pytest.approx(6.81, rel=0.05)

    def test_traffic_formula_matches_hand_computation(self):
        # m = 32, |Q| = 1: digests = 32 + 4 + 3 + 5 = 44.
        bits = cost_model.user_traffic_bits(1)
        assert bits == 44 * 128 + 1024
        assert cost_model.user_traffic_bytes(1) == bits / 8

    def test_traffic_overhead_decreases_with_result_size(self):
        record = 512
        overheads = [
            cost_model.user_traffic_overhead_percent(size, record)
            for size in (1, 2, 5, 10, 100)
        ]
        assert overheads == sorted(overheads, reverse=True)
        # Figure 9's headline numbers: ~160% at |Q|=1 and well under 50% at |Q|=5.
        assert 140 <= overheads[0] <= 180
        assert overheads[2] < 50

    def test_traffic_overhead_decreases_with_record_size(self):
        overheads = [
            cost_model.user_traffic_overhead_percent(5, record)
            for record in (128, 256, 512, 1024, 2048)
        ]
        assert overheads == sorted(overheads, reverse=True)

    def test_figure9_series_shape(self):
        series = cost_model.figure9_series()
        assert set(series) == {1, 2, 5, 10, 100}
        assert all(len(points) == 7 for points in series.values())
        # Larger results always have lower per-byte overhead.
        assert all(
            series[1][i] > series[100][i] for i in range(len(series[1]))
        )

    def test_figure10_series_shape(self):
        series = cost_model.figure10_series()
        assert set(series) == {1, 5, 10}
        # Computation grows with the result size for every base.
        for column in range(9):
            assert series[1][column] < series[5][column] < series[10][column]

    def test_computation_minimised_at_small_base(self):
        """The paper: dCuser/dB = 0 falls between B=2 and B=3."""
        for result_size in (1, 5, 10, 100):
            assert cost_model.optimal_base(result_size) in (2, 3)

    def test_computation_grows_linearly_with_result_size(self):
        c10 = cost_model.user_computation_seconds(10)
        c100 = cost_model.user_computation_seconds(100)
        c1000 = cost_model.user_computation_seconds(1000)
        slope_low = (c100 - c10) / 90
        slope_high = (c1000 - c100) / 900
        assert slope_low == pytest.approx(slope_high, rel=1e-9)
        assert slope_high > 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            cost_model.user_traffic_bits(-1)
        with pytest.raises(ValueError):
            cost_model.user_traffic_overhead_percent(0, 512)
        with pytest.raises(ValueError):
            cost_model.user_traffic_overhead_percent(1, 0)
        with pytest.raises(ValueError):
            cost_model.user_computation_seconds(-1)


class TestKernelCounts:
    """The cost model's exact kernel counts against what the kernel hashes."""

    WIDTHS = (2**8, 16_385, 2**16, 2**32)

    @staticmethod
    def _counted(call):
        from repro.crypto.hashing import HASH_COUNTER

        before = HASH_COUNTER.count
        result = call()
        return result, HASH_COUNTER.count - before

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("base", range(2, 9))
    def test_counts_equal_the_hash_counter(self, base, width):
        import random

        from repro.core.digest import OptimizedChainScheme

        scheme = OptimizedChainScheme(width, "upper", base, memoize=False)
        rng = random.Random(base * width)
        totals = [0, 1, width - 2] + [rng.randrange(width - 1) for _ in range(12)]
        pairs = [(base, 1)]  # digits (0, 1) against (1, 0): a borrow, so non-canonical
        for total in totals:
            # The boundary-adjacent claim (delta_e = 0), an arbitrary one and
            # the full walk (delta_c = 0).
            pairs += [(total, delta_c) for delta_c in {total, rng.randrange(total + 1), 0}]
        kinds = set()
        for total, delta_c in pairs:
            _, hashes = self._counted(lambda: scheme._canonical_walk(9, total))
            assert hashes == cost_model.kernel_canonical_walk_hashes(total, base, width)
            _, hashes = self._counted(lambda: scheme.commit(9, total))
            assert hashes == cost_model.kernel_commit_hashes(total, base, width)
            assist, hashes = self._counted(lambda: scheme.boundary_proof(9, total, delta_c))
            assert hashes == cost_model.kernel_boundary_proof_hashes(total, delta_c, base, width)
            _, hashes = self._counted(lambda: scheme.recompute_from_boundary(delta_c, assist))
            assert hashes == cost_model.kernel_boundary_check_hashes(total, delta_c, base, width)
            kinds.add(assist.used_canonical)
        assert kinds == {True, False}

    def test_shipped_base_is_the_kernel_argmin_on_the_served_domain(self):
        from repro.core.polynomial import DEFAULT_BASE

        assert cost_model.kernel_optimal_base(16_385) == DEFAULT_BASE == 3
        means = {b: cost_model.kernel_mean_answer_chain_hashes(b, 16_385) for b in range(2, 9)}
        assert sorted(means, key=means.get)[:3] == [3, 4, 5]
        assert 1.04 < means[4] / means[3] < 1.05 and 1.2 < means[2] / means[3] < 1.25

    def test_formula_5_ties_where_the_kernel_does_not(self):
        """At 2^32 formula (5) charges B=2 and B=3 alike; the kernel picks B=4."""
        hashes = cost_model.user_computation_hashes
        for size in (1, 40):
            assert hashes(size, 2) == hashes(size, 3)
            assert cost_model.optimal_base(size, candidate_bases=range(2, 9)) == 2
        assert cost_model.kernel_optimal_base(2**32) == 4

    def test_mean_digit_sum_is_exact(self):
        from fractions import Fraction

        for limit in (1, 2, 7, 3**5 + 4, 16_384):
            for base in range(2, 9):
                brute = Fraction(sum(cost_model._digit_sum(v, base) for v in range(limit)), limit)
                assert cost_model._mean_digit_sum(limit, base) == brute
