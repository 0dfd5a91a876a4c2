"""Wire codec: round trips, canonicality and strict decode validation."""

import dataclasses

import pytest

from repro.core.basic_scheme import ListPublisher
from repro.core.proof import JoinQueryProof, RangeQueryProof, SignatureBundle
from repro.core.publisher import Publisher
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.crypto.aggregate import AggregateSignature
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.db.query import (
    Conjunction,
    EqualityCondition,
    JoinQuery,
    Projection,
    Query,
    RangeCondition,
)
from repro.db.schema import KeyDomain
from repro.wire import (
    WireFormatError,
    codec,
    decode,
    encode,
    manifest_id,
)


@pytest.fixture(scope="module")
def employee_world(employees_100):
    relation, signed = employees_100
    publisher = Publisher({"employees": signed})
    return signed, publisher


def _roundtrip(artifact):
    """Assert binary round-trip identity; return the wire bytes."""
    blob = encode(artifact)
    decoded = decode(blob)
    assert decoded == artifact
    assert encode(decoded) == blob, "re-encoding must be canonical"
    return blob


# -- round trips over real publisher output ----------------------------------


def test_range_proof_roundtrip(employee_world, figure1_verifier):
    signed, publisher = employee_world
    query = Query(
        "employees",
        Conjunction(
            (
                RangeCondition("salary", 20_000, 70_000),
                EqualityCondition("dept", 1),
            )
        ),
        Projection(("name", "salary"), distinct=False),
    )
    result = publisher.answer(query)
    assert result.proof is not None
    blob = _roundtrip(result.proof)
    assert isinstance(decode(blob, expect=RangeQueryProof), RangeQueryProof)


def test_distinct_projection_proof_roundtrip(owner):
    from repro.db.relation import Relation
    from repro.db.workload import employee_schema

    # Duplicate keys with identical projected values: DISTINCT eliminates.
    rows = [
        {"salary": 1000, "emp_id": "0", "name": "same", "dept": 1, "photo": b""},
        {"salary": 1000, "emp_id": "1", "name": "same", "dept": 1, "photo": b""},
        {"salary": 2000, "emp_id": "2", "name": "other", "dept": 2, "photo": b""},
    ]
    relation = Relation.from_rows(employee_schema(), rows)
    signed = owner.publish_relation(relation)
    publisher = Publisher({"employees": signed})
    query = Query(
        "employees",
        Conjunction((RangeCondition("salary", None, None),)),
        Projection(("name", "dept"), distinct=True),
    )
    result = publisher.answer(query)
    assert any(
        getattr(entry, "eliminated_duplicate", False)
        for entry in result.proof.entries
    ), "the DISTINCT query should eliminate duplicates"
    _roundtrip(result.proof)


def test_empty_range_proof_roundtrip(employee_world):
    signed, publisher = employee_world
    domain = signed.domain
    taken = {record.key for record in signed.relation}
    gap = next(
        value
        for value in range(domain.lower + 1, domain.upper)
        if value not in taken and value + 1 not in taken
    )
    query = Query(
        "employees", Conjunction((RangeCondition("salary", gap, gap),))
    )
    result = publisher.answer(query)
    assert result.proof.outer_neighbor_digest is not None or result.proof.entries
    _roundtrip(result.proof)


def test_join_proof_roundtrip(customers_orders):
    _, _, database = customers_orders
    publisher = Publisher(database.relations)
    join = JoinQuery("orders", "customers", "customer_id", "customer_id")
    result = publisher.answer_join(join)
    blob = _roundtrip(result.proof)
    assert isinstance(decode(blob, expect=JoinQueryProof), JoinQueryProof)


def test_greater_than_proof_has_no_wire_codec(owner):
    """Section 3's list proof is in-process only; its old tag 0x06 is unknown."""
    published = owner.publish_value_list([20, 35, 80, 121, 250], KeyDomain(0, 1_000))
    _result, proof = ListPublisher(published).answer_greater_than(100)
    with pytest.raises(ValueError, match="no wire codec registered for GreaterThanProof"):
        encode(proof)
    blob = encode(UpdateReceipt(0, 0, (), 0))
    _expect_reject(blob[:3] + b"\x06" + blob[4:], "bad-tag")


def test_manifest_and_receipt_roundtrip(employee_world):
    signed, _ = employee_world
    manifest = signed.manifest
    blob = _roundtrip(manifest)
    decoded = decode(blob, expect=RelationManifest)
    assert manifest_id(decoded) == manifest_id(manifest)

    receipt = UpdateReceipt(
        signatures_recomputed=3,
        digests_recomputed=1,
        entries_affected=(4, 5, 6),
        chain_messages_recomputed=3,
    )
    _roundtrip(receipt)


def test_query_artifacts_roundtrip():
    query = Query(
        "employees",
        Conjunction(
            (
                RangeCondition("salary", 10, None),
                RangeCondition("salary", None, 99),
                EqualityCondition("name", "Alice"),
                EqualityCondition("flag", True),
                EqualityCondition("score", 1.5),
                EqualityCondition("blob", b"\x00\xff"),
                EqualityCondition("missing", None),
            )
        ),
        Projection(("salary", "name"), distinct=True),
    )
    _roundtrip(query)
    join = JoinQuery(
        "orders",
        "customers",
        "customer_id",
        "customer_id",
        Conjunction((RangeCondition("customer_id", 1, 10),)),
        Projection(),
    )
    _roundtrip(join)


def test_crypto_artifacts_roundtrip():
    tree = MerkleTree([b"a", b"b", b"c", b"d", b"e"])
    proof = tree.prove(3)
    assert isinstance(proof, MerkleProof)
    _roundtrip(proof)
    aggregate = AggregateSignature(value=0xDEADBEEF, count=4)
    _roundtrip(aggregate)
    _roundtrip(SignatureBundle(aggregate=aggregate))
    _roundtrip(SignatureBundle(individual=(1, 2, 3)))


def test_verification_of_decoded_proof(employee_world, customers_orders):
    """A proof that crossed the wire verifies exactly like the original."""
    signed, publisher = employee_world
    from repro.core.verifier import ResultVerifier

    verifier = ResultVerifier({"employees": signed.manifest})
    query = Query(
        "employees", Conjunction((RangeCondition("salary", 30_000, 60_000),))
    )
    result = publisher.answer(query)
    decoded = decode(encode(result.proof))
    report = verifier.verify(query, result.rows, decoded)
    assert report.result_rows == len(result.rows)


# -- strict decode validation -------------------------------------------------


def _expect_reject(data: bytes, reason: str = None):
    with pytest.raises(WireFormatError) as excinfo:
        decode(data)
    if reason is not None:
        assert excinfo.value.reason == reason


def test_decode_rejects_bad_magic():
    blob = encode(UpdateReceipt(0, 0, (), 0))
    _expect_reject(b"XX" + blob[2:], "bad-magic")


def test_decode_rejects_bad_version():
    blob = encode(UpdateReceipt(0, 0, (), 0))
    _expect_reject(blob[:2] + b"\x7f" + blob[3:], "bad-version")


def test_decode_rejects_unknown_tag():
    blob = encode(UpdateReceipt(0, 0, (), 0))
    _expect_reject(blob[:3] + b"\xee" + blob[4:], "bad-tag")


def test_decode_rejects_truncation_and_trailing_bytes():
    blob = encode(UpdateReceipt(2, 1, (3, 4), 2))
    for cut in range(len(blob)):
        with pytest.raises(WireFormatError):
            decode(blob[:cut])
    _expect_reject(blob + b"\x00", "trailing-bytes")


def test_decode_rejects_type_mismatch():
    blob = encode(UpdateReceipt(0, 0, (), 0))
    with pytest.raises(WireFormatError) as excinfo:
        decode(blob, expect=RangeQueryProof)
    assert excinfo.value.reason == "unexpected-artifact"


def test_decode_rejects_invalid_artifact_state():
    # An aggregate count of zero can never be produced by the encoder.
    blob = encode(AggregateSignature(value=5, count=1))
    # The final field is the count integer: 4-byte length, sign byte, magnitude.
    tampered = blob[:-1] + b"\x00"
    _expect_reject(tampered, "invalid-artifact")


def test_decode_rejects_non_minimal_int():
    blob = encode(AggregateSignature(value=5, count=1))
    # Grow the count's magnitude with a leading zero byte: 01 -> 00 01.
    tampered = blob[:-6] + b"\x00\x00\x00\x03\x00\x00\x01"
    _expect_reject(tampered)


def test_manifest_id_distinguishes_relations(customers_orders):
    _, _, database = customers_orders
    ids = {
        name: manifest_id(signed.manifest)
        for name, signed in database.relations.items()
    }
    assert len(set(ids.values())) == len(ids)
    for identifier in ids.values():
        assert len(identifier) == 32


def test_registration_refuses_fields_out_of_constructor_order():
    """A field table that is not the constructor's parameter list, in order,
    fails at registration — there is no slower second decoder to fall back to."""

    @dataclasses.dataclass(frozen=True)
    class Swapped:
        first: int
        second: str

    unused_tag = 0xF0
    assert unused_tag not in codec._TAGS
    registries = (dict(codec._TAGS), dict(codec._TYPES))
    with pytest.raises(ValueError, match="Swapped"):
        codec.register_artifact(
            unused_tag, Swapped, [("second", codec.STR), ("first", codec.INT)]
        )
    assert (codec._TAGS, codec._TYPES) == registries
    with pytest.raises(ValueError):
        encode(Swapped(1, "x"))
