"""The cold read's two hashing kernels against the constructions they replace.

* The chain-walk kernel — ``OptimizedChainScheme.recompute_from_value`` and
  ``recompute_from_boundary``, each digit chain walked straight on the
  ``hashlib`` constructor — against ``tests/reference_digest.py``, which
  walks every chain one ``hashlib`` call at a time and counts them itself.
* The attribute-tree kernel — ``repro.db.records.attribute_digests`` — against
  a :class:`~repro.crypto.merkle.MerkleTree` built over the record's leaf
  payloads, the way ``Record`` built ``MHT(r.A)`` before the kernel.

Digests must be byte-identical and the ``HASH_COUNTER`` deltas identical, for
bases 2 to 4, random domains, the delimiters' keys and the totals 0 and
width - 1.
"""

from __future__ import annotations

import random

import pytest

from reference_digest import ReferenceOptimizedScheme
from repro.core.digest import EntryAssist, OptimizedChainScheme
from repro.core.errors import VerificationError
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.crypto.encoding import encode_value
from repro.crypto.hashing import HASH_COUNTER, HashFunction
from repro.crypto.merkle import MerkleTree
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.records import Record, attribute_digests
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.db.workload import generate_employees

BASES = (2, 3, 4)
SEEDS = range(6)


def _counted(operation):
    """``(result, HASH_COUNTER delta)`` of one call."""
    start = HASH_COUNTER.count
    result = operation()
    return result, HASH_COUNTER.count - start


def _reference_counted(reference, operation):
    """The oracle's result and every hash it made: its own ``hashlib`` calls
    plus any a ``MerkleTree`` helper counted on ``HASH_COUNTER``."""
    own, start = reference.hashes, HASH_COUNTER.count
    result = operation()
    return result, reference.hashes - own + HASH_COUNTER.count - start


def _domain_cases(seed):
    """A random key domain and the ``(value, total)`` pairs to walk in it.

    Both chains of a record at a random key, the delimiters' keys (each
    delimiter's one real chain spans the whole domain: total ``width - 1``)
    and the extreme totals 0 and ``width - 1``.
    """
    rng = random.Random(f"kernel-parity/{seed}")
    lower = rng.randrange(-10_000, 10_000)
    domain = KeyDomain(lower, lower + rng.choice((3, 17, 1_000, 16_386, 2**20 + 5)))
    key = rng.randrange(domain.lower + 1, domain.upper)
    width = domain.width
    return domain, [
        ("upper", key, domain.upper - key - 1),
        ("lower", key, key - domain.lower - 1),
        ("upper", domain.lower, width - 1),  # the left delimiter's chain
        ("lower", domain.upper, width - 1),  # the right delimiter's chain
        ("upper", key, 0),
        ("lower", key, width - 1),
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("base", BASES)
def test_walk_kernel_matches_the_reference(base, seed):
    domain, cases = _domain_cases(seed)
    rng = random.Random(f"delta/{base}/{seed}")
    for namespace, value, total in cases:
        kernel = OptimizedChainScheme(domain.width, namespace, base, memoize=False)
        reference = ReferenceOptimizedScheme(domain.width, namespace, base)
        assist = reference.entry_assist(value, total)

        # Matched entries: the canonical walk plus the root it is handed.
        derived, spent = _counted(lambda: kernel.recompute_from_value(value, total, assist))
        expected, oracle_spent = _reference_counted(
            reference, lambda: reference.recompute_from_value(value, total, assist)
        )
        assert derived == expected == reference.commitment(value, total)
        assert spent == oracle_spent

        # Boundaries: every delta_c a query can claim, canonical or not.
        for delta_c in sorted({0, total, rng.randint(0, total), rng.randint(0, total)}):
            proof = reference.boundary_proof(value, total, delta_c)
            derived, spent = _counted(lambda: kernel.recompute_from_boundary(delta_c, proof))
            expected, oracle_spent = _reference_counted(
                reference, lambda: reference.recompute_from_boundary(delta_c, proof)
            )
            assert derived == expected == reference.commitment(value, total)
            assert spent == oracle_spent


@pytest.mark.parametrize("base", BASES)
def test_walk_kernel_refuses_totals_outside_the_domain(base):
    width = 1_000
    kernel = OptimizedChainScheme(width, "upper", base)
    assist = EntryAssist(b"\0" * 32)
    proof = ReferenceOptimizedScheme(width, "upper", base).boundary_proof(5, width - 1, 0)
    beyond = base**kernel.num_digits  # the first total the digits cannot hold
    for total in (-1, beyond):
        before = HASH_COUNTER.count
        with pytest.raises(ValueError):
            kernel.recompute_from_value(5, total, assist)
        with pytest.raises(ValueError):
            kernel.recompute_from_boundary(total, proof)
        assert HASH_COUNTER.count == before  # refused before any hash


@pytest.mark.parametrize("shift", ["negative", "oversized"])
@pytest.mark.parametrize("method", ["recompute_from_value", "recompute_from_boundary"])
def test_a_total_the_kernel_refuses_is_a_malformed_proof(signature_scheme, monkeypatch, method, shift):
    """The verifier derives every total from the query and the domain, so it
    never hands the kernel one out of range; if it did, the kernel's
    ``ValueError`` would reach the caller as a typed ``malformed-proof``."""
    signed = SignedRelation(generate_employees(12, seed=3, photo_bytes=8), signature_scheme)
    query = Query("employees", Conjunction((RangeCondition("salary", 20_000, 80_000),)))
    answer = Publisher({"employees": signed}).answer(query)
    assert answer.rows
    verifier = ResultVerifier({"employees": signed.manifest})
    for scheme in verifier._chain_schemes(signed.manifest):
        beyond = scheme.base**scheme.num_digits
        real = getattr(scheme, method)

        def out_of_range(*args, real=real, beyond=beyond):
            # (value, total, assist) or (delta_c, assist): the total is args[-2]
            *head, total, assist = args
            total = -1 - total if shift == "negative" else total + beyond
            return real(*head, total, assist)

        monkeypatch.setattr(scheme, method, out_of_range)
    with pytest.raises(VerificationError) as refused:
        verifier.verify(query, answer.rows, answer.proof)
    assert refused.value.reason == "malformed-proof"
    assert "digits" in str(refused.value) or "non-negative" in str(refused.value)


# -- the attribute-tree kernel -----------------------------------------------------

_TYPES = (
    (AttributeType.INTEGER, lambda rng: rng.randrange(-(2**70), 2**70)),
    (AttributeType.STRING, lambda rng: "".join(rng.choice("aé€ z") for _ in range(rng.randrange(9)))),
    (AttributeType.FLOAT, lambda rng: rng.uniform(-1e6, 1e6)),
    (AttributeType.BLOB, lambda rng: rng.randbytes(rng.randrange(40))),
    (AttributeType.BOOLEAN, lambda rng: rng.random() < 0.5),
)


def _random_record(rng, payload_attributes):
    attributes = [Attribute("k", AttributeType.INTEGER, KeyDomain(0, 1_000))]
    values = {"k": rng.randrange(1, 1_000)}
    for index in range(payload_attributes):
        kind, make = rng.choice(_TYPES)
        name = f"a{index}"
        attributes.append(Attribute(name, kind))
        values[name] = None if rng.random() < 0.1 else make(rng)
    rng.shuffle(attributes)  # the key need not come first
    return Record(Schema.build("t", attributes, key="k"), values)


def _old_tree(record, hash_function):
    return MerkleTree(record.attribute_leaves() or [b"__no_non_key_attributes__"], hash_function)


@pytest.mark.parametrize("hash_name", ["sha256", "sha1"])
@pytest.mark.parametrize("payload_attributes", [0, 1, 2, 3, 5, 8])
def test_attribute_kernel_matches_the_merkle_tree(payload_attributes, hash_name):
    hash_function = HashFunction(hash_name)
    rng = random.Random(f"attributes/{payload_attributes}/{hash_name}")
    for _ in range(25):
        record = _random_record(rng, payload_attributes)
        heads = record.schema.attribute_leaf_heads
        tree, tree_hashes = _counted(lambda: _old_tree(record, hash_function))
        (leaves, root), spent = _counted(
            lambda: attribute_digests(heads, record.values, hash_function)
        )
        assert root == tree.root and spent == tree_hashes
        if payload_attributes:
            assert leaves == [tree.leaf_digest(i) for i in range(tree.size)]
        else:
            assert leaves == []
        # Through Record, cached per hash: once computed, free.
        assert record.attribute_root(hash_function) == tree.root
        assert record.attribute_leaf_digests(hash_function) == tuple(leaves)
        assert _counted(lambda: record.attribute_root(hash_function))[1] == 0

        # The verifier's mix: some values revealed, the other leaves shipped.
        hidden = {name for name, _ in heads if rng.random() < 0.5}
        revealed = {name: value for name, value in record.values.items() if name not in hidden}
        shipped = {name: leaves[i] for i, (name, _) in enumerate(heads) if name in hidden}
        (_, mixed_root), mixed = _counted(
            lambda: attribute_digests(heads, revealed, hash_function, shipped)
        )
        assert mixed_root == tree.root
        assert mixed == tree_hashes - len(hidden)


def test_attribute_kernel_names_the_missing_attribute():
    record = _random_record(random.Random(4), 3)
    heads = record.schema.attribute_leaf_heads
    missing = heads[1][0]
    revealed = {name: value for name, value in record.values.items() if name != missing}
    with pytest.raises(KeyError) as error:
        attribute_digests(heads, revealed, HashFunction())
    assert error.value.args == (missing,)


def test_fingerprints_are_unchanged_by_the_kernel():
    """What orders every relation: ``h(key | MHT(r.A))`` over the old tree's root."""
    hash_function = HashFunction()
    for record in generate_employees(30, seed=9, photo_bytes=8):
        fresh = Record(record.schema, record.as_dict())
        expected = hash_function.digest(
            encode_value(fresh.key) + b"|" + _old_tree(fresh, hash_function).root
        )
        assert fresh.fingerprint() == expected == record.fingerprint()
