"""Golden vectors: the wire encoding is frozen, byte for byte.

Every vector is built from fixed inputs (no key generation, no randomness),
encoded, and compared against the hex stored in ``tests/golden/
wire_vectors.json``.  A mismatch means the wire format changed — which
breaks every deployed client — so any intentional format change must bump
:data:`repro.wire.WIRE_VERSION` and regenerate the vectors::

    PYTHONPATH=src python tests/test_wire_golden.py --regen

The valid vectors pin what the codec *produces*; ``tests/golden/
wire_outcomes.json`` pins what it *accepts*: a digest over the outcome of
decoding every single-byte flip, truncation and extension of every vector
(see :func:`decode_outcomes`).  A decoder change that moves it has changed
the accepted byte language or a typed rejection reason.
"""

import collections
import hashlib
import json
import os

import pytest

import repro.service.protocol as protocol
from repro.schemes.devanbu import DevanbuProof
from repro.schemes.naive import NaiveProof
from repro.schemes.vbtree import VBTreeProof
from repro.core.digest import BoundaryAssist, EntryAssist
from repro.core.proof import (
    BoundaryEntryProof,
    FilteredEntryProof,
    JoinQueryProof,
    MatchedEntryProof,
    RangeQueryProof,
    SignatureBundle,
)
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.crypto.aggregate import AggregateSignature
from repro.crypto.merkle import MerkleProof
from repro.crypto.rsa import RSAPublicKey
from repro.db.query import (
    Conjunction,
    EqualityCondition,
    JoinQuery,
    Projection,
    Query,
    RangeCondition,
)
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.wire import WireFormatError, codec, decode, encode, to_json, updates

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "wire_vectors.json")
OUTCOMES_PATH = os.path.join(os.path.dirname(__file__), "golden", "wire_outcomes.json")

#: XOR masks of the outcome sweep: gross corruption, a least-significant-bit
#: nudge, and the sign/high bit (length prefixes, UTF-8 lead bytes).
_FLIP_MASKS = (0xFF, 0x01, 0x80)


def _digest(seed: int) -> bytes:
    """A deterministic 32-byte pseudo-digest."""
    return bytes((seed * 31 + i * 7) % 256 for i in range(32))


def _schema() -> Schema:
    return Schema.build(
        "employees",
        [
            Attribute("salary", AttributeType.INTEGER, KeyDomain(0, 100_000)),
            Attribute("name", AttributeType.STRING, size_hint=12),
            Attribute("photo", AttributeType.BLOB, size_hint=64),
            Attribute("active", AttributeType.BOOLEAN, size_hint=1),
            Attribute("rating", AttributeType.FLOAT),
        ],
        key="salary",
    )


def build_vectors():
    """name -> artifact, all fully deterministic."""
    merkle_proof = MerkleProof(
        leaf_index=2,
        siblings=((_digest(1), True), (_digest(2), False)),
        tree_size=5,
    )
    entry_assist = EntryAssist(mht_root=_digest(3))
    boundary_canonical = BoundaryAssist(
        intermediate_digests=(_digest(4), _digest(5)),
        used_canonical=True,
        mht_root=_digest(6),
    )
    boundary_noncanonical = BoundaryAssist(
        intermediate_digests=(_digest(7),),
        used_canonical=False,
        canonical_digest=_digest(8),
        mht_proof=merkle_proof,
    )
    aggregate = AggregateSignature(value=0x1234_5678_9ABC_DEF0, count=3)
    bundle_individual = SignatureBundle(individual=(17, 23, 2**80 + 1))
    bundle_aggregate = SignatureBundle(aggregate=aggregate)
    matched = MatchedEntryProof(
        upper_assist=entry_assist,
        lower_assist=EntryAssist(mht_root=None),
        dropped_attribute_digests={"photo": _digest(9), "name": _digest(10)},
        eliminated_duplicate=True,
        revealed_attributes={
            "name": "Alice",
            "active": True,
            "rating": 4.5,
            "photo": b"\x00\xff",
            "note": None,
        },
        key=4200,
    )
    filtered = FilteredEntryProof(
        revealed_attributes={"dept": 2},
        attribute_leaf_digests={"name": _digest(11)},
        upper_chain_digest=_digest(12),
        lower_chain_digest=_digest(13),
        reason="predicate",
    )
    lower_boundary = BoundaryEntryProof(
        side="lower",
        chain_boundary=boundary_canonical,
        other_chain_digest=_digest(14),
        attribute_root=_digest(15),
    )
    upper_boundary = BoundaryEntryProof(
        side="upper",
        chain_boundary=boundary_noncanonical,
        other_chain_digest=_digest(16),
        attribute_root=_digest(17),
    )
    range_proof = RangeQueryProof(
        key_low=1000,
        key_high=2000,
        lower_boundary=lower_boundary,
        upper_boundary=upper_boundary,
        entries=(matched, filtered),
        signatures=bundle_aggregate,
        outer_neighbor_digest=None,
    )
    empty_range_proof = RangeQueryProof(
        key_low=5,
        key_high=5,
        lower_boundary=lower_boundary,
        upper_boundary=upper_boundary,
        entries=(),
        signatures=bundle_individual,
        outer_neighbor_digest=_digest(18),
    )
    join_proof = JoinQueryProof(
        left_proof=empty_range_proof,
        right_point_proofs={7: empty_range_proof},
    )
    public_key = RSAPublicKey(modulus=0xC0FFEE_0000_0001, exponent=65537)
    manifest = RelationManifest(
        schema=_schema(),
        base=2,
        hash_name="sha256",
        public_key=public_key,
    )
    rotated_manifest = RelationManifest(
        schema=_schema(),
        base=2,
        hash_name="sha256",
        public_key=public_key,
        sequence=7,
    )
    naive_proof = NaiveProof(signatures=(11, 2**70 + 5))
    naive_proof_aggregated = NaiveProof(aggregate=aggregate)
    devanbu_proof = DevanbuProof(
        expanded_rows=(
            {"salary": 4100, "name": "Ann", "active": True},
            {"salary": 4200, "name": "Bob", "active": False},
        ),
        sibling_digests=(_digest(27), _digest(28)),
        root_signature=0xBEEF,
        leaf_range=(3, 5),
        table_size=9,
        left_is_table_start=False,
        right_is_table_end=False,
    )
    vbtree_proof = VBTreeProof(
        covering_signatures=(21, 22),
        covering_digests=(_digest(29), _digest(30)),
        opening_digests=(),
        fanout=4,
        table_size=20,
        leaf_range=(4, 12),
    )
    receipt = UpdateReceipt(
        signatures_recomputed=3,
        digests_recomputed=1,
        entries_affected=(10, 11, 12),
        chain_messages_recomputed=3,
    )
    insert_delta = updates.RecordDelta(
        kind="insert",
        values={"salary": 4100, "name": "Carol", "active": True},
    )
    update_delta = updates.RecordDelta(
        kind="update",
        values={"salary": 4100, "name": "Carol", "active": False},
        old_values={"salary": 4100, "name": "Carol", "active": True},
    )
    update_request = updates.UpdateRequest(
        manifest_id=_digest(24),
        sequence=7,
        deltas=(insert_delta, update_delta),
        owner_signature=0x1CEB00DA,
    )
    manifest_rotated = updates.ManifestRotated(
        manifest=rotated_manifest,
        previous_id=_digest(25),
        owner_signature=0xF00D,
    )
    update_response = updates.UpdateResponse(
        receipt=receipt, rotation=manifest_rotated
    )
    attestation = updates.FreshnessAttestation(
        manifest_id=_digest(24),
        sequence=7,
        epoch=3,
        issued_at_ms=1_700_000_000_000,
        not_after_ms=1_700_000_030_000,
        owner_signature=0xFEED_FACE,
    )
    query = Query(
        "employees",
        Conjunction(
            (
                RangeCondition("salary", 1000, None),
                EqualityCondition("name", "Bob"),
            )
        ),
        Projection(("name",), distinct=True),
    )
    join_query = JoinQuery(
        "orders", "customers", "customer_id", "customer_id",
        Conjunction((RangeCondition("customer_id", None, 50),)),
        Projection(),
    )
    return {
        "merkle_proof": merkle_proof,
        "entry_assist": entry_assist,
        "boundary_assist_canonical": boundary_canonical,
        "boundary_assist_noncanonical": boundary_noncanonical,
        "aggregate_signature": aggregate,
        "signature_bundle_individual": bundle_individual,
        "signature_bundle_aggregate": bundle_aggregate,
        "matched_entry_proof": matched,
        "filtered_entry_proof": filtered,
        "boundary_entry_proof_lower": lower_boundary,
        "boundary_entry_proof_upper": upper_boundary,
        "range_query_proof": range_proof,
        "empty_range_query_proof": empty_range_proof,
        "join_query_proof": join_proof,
        "rsa_public_key": public_key,
        "key_domain": KeyDomain(0, 100_000),
        "schema": _schema(),
        "relation_manifest": manifest,
        "relation_manifest_rotated": rotated_manifest,
        "naive_proof": naive_proof,
        "naive_proof_aggregated": naive_proof_aggregated,
        "devanbu_proof": devanbu_proof,
        "vbtree_proof": vbtree_proof,
        "update_receipt": receipt,
        "record_delta_insert": insert_delta,
        "record_delta_update": update_delta,
        "update_request": update_request,
        "manifest_rotated": manifest_rotated,
        "update_response": update_response,
        "freshness_attestation": attestation,
        "query": query,
        "join_query": join_query,
        # service protocol envelopes share the registry and the guarantees
        "svc_list_request": protocol.ListRelationsRequest(),
        "svc_listing": protocol.RelationListing(
            entries=(("employees", _digest(20)),)
        ),
        "svc_manifest_request": protocol.ManifestRequest("employees"),
        "svc_manifest_response": protocol.ManifestResponse(manifest),
        "svc_query_request": protocol.QueryRequest(
            manifest_id=_digest(21), query=query, role="hr_manager"
        ),
        "svc_query_response": protocol.QueryResponse(
            rows=({"salary": 4200, "name": "Alice"},),
            proof=range_proof,
            manifest_id=_digest(21),
        ),
        # wire v4: answers may carry the owner-signed freshness attestation
        "svc_query_response_attested": protocol.QueryResponse(
            rows=({"salary": 4200, "name": "Alice"},),
            proof=range_proof,
            manifest_id=_digest(24),
            attestation=attestation,
        ),
        "svc_attestation_push": protocol.AttestationPush(attestation),
        "svc_attestation_ack": protocol.AttestationAck(
            relation_name="employees", sequence=7, epoch=3
        ),
        "svc_attestation_request": protocol.AttestationRequest("employees"),
        "svc_join_request": protocol.JoinRequest(
            left_manifest_id=_digest(22),
            right_manifest_id=_digest(23),
            join=join_query,
            role=None,
        ),
        "svc_join_response": protocol.JoinResponse(
            rows=({"orders.customer_id": 7},),
            left_rows=({"customer_id": 7},),
            proof=join_proof,
            left_manifest_id=_digest(22),
            right_manifest_id=_digest(23),
        ),
        "svc_rotation_request": protocol.RotationRequest("employees"),
        "svc_manifest_by_id_request": protocol.ManifestByIdRequest(_digest(26)),
        "svc_error_response": protocol.ErrorResponse(
            code="CompletenessError",
            reason="signature-mismatch",
            message="the aggregated signature does not match",
        ),
    }


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_file_covers_every_vector():
    golden = _load_golden()
    assert set(golden) == set(build_vectors())


@pytest.mark.parametrize("name", sorted(build_vectors()))
def test_golden_vector(name):
    artifact = build_vectors()[name]
    golden = _load_golden()[name]
    blob = encode(artifact)
    assert blob.hex() == golden["hex"], (
        f"wire encoding of {name} changed; if intentional, bump WIRE_VERSION "
        "and regenerate with: python tests/test_wire_golden.py --regen"
    )
    assert decode(blob) == artifact
    assert json.loads(to_json(artifact)) == golden["json"]


def test_previous_wire_version_rejected_with_typed_error():
    """A v6 frame is refused with a typed version error, never mis-decoded.

    Wire version 7 writes proof digests bare at a declared width, opens proof
    parts with a flags byte and names row columns once, so a v6 body's layout
    differs; decoding must stop at the envelope with
    ``reason == "bad-version"`` rather than producing garbage.
    """
    for name, artifact in build_vectors().items():
        blob = bytearray(encode(artifact))
        assert blob[2] == 7, "vectors must be encoded at WIRE_VERSION 7"
        blob[2] = 6  # re-stamp the envelope as the previous format version
        with pytest.raises(WireFormatError) as excinfo:
            decode(bytes(blob))
        assert excinfo.value.reason == "bad-version", name


def test_future_wire_version_rejected_with_typed_error():
    blob = bytearray(encode(build_vectors()["relation_manifest"]))
    blob[2] = 8
    with pytest.raises(WireFormatError) as excinfo:
        decode(bytes(blob))
    assert excinfo.value.reason == "bad-version"


@pytest.mark.parametrize("vo", ["naive_proof", "devanbu_proof", "vbtree_proof"])
def test_a_query_response_carries_only_a_chain_proof(vo):
    """A baseline VO in a response's proof slot does not decode.

    The frame is laid out the way a scheme-polymorphic server wrote one — a
    presence byte, the VO's union tag, its body — so only the proof slot's
    type is refused, at the codec, with a typed error.
    """
    vectors = build_vectors()
    response = vectors["svc_query_response"]
    empty = encode(protocol.QueryResponse(response.rows, None, response.manifest_id))
    tail = codec.encode_tail(response, "manifest_id")
    rows = empty[: -len(tail) - 1]  # header and rows, before the absent-proof byte
    frame = rows + b"\x01" + encode(vectors[vo])[3:] + tail
    with pytest.raises(WireFormatError):
        decode(frame)


def _sweep(blob: bytes):
    """Every input the outcome digest decodes for one golden vector."""
    for offset in range(len(blob)):
        for mask in _FLIP_MASKS:
            yield blob[:offset] + bytes((blob[offset] ^ mask,)) + blob[offset + 1 :]
    for length in range(len(blob)):
        yield blob[:length]
    yield blob + b"\x00"
    yield blob
    yield bytearray(blob)
    yield memoryview(blob)


def decode_outcomes():
    """Digest of what :func:`decode` does with the vectors' neighbourhood.

    The outcome of one input is ``"ok:" + encode(decode(x)).hex()`` or
    ``"wf:" + error.reason``; any other exception propagates and fails the
    caller.  The digest is sha256 over the ``name|outcome`` lines in sweep
    order, so it moves when any input is accepted, rejected, decoded or
    classified differently.
    """
    digest = hashlib.sha256()
    counts = collections.Counter()
    for name, vector in sorted(_load_golden().items()):
        for data in _sweep(bytes.fromhex(vector["hex"])):
            try:
                outcome = "ok:" + encode(decode(data)).hex()
                counts["ok"] += 1
            except WireFormatError as error:
                outcome = "wf:" + error.reason
                counts[outcome] += 1
            digest.update(f"{name}|{outcome}\n".encode("ascii"))
    return {
        "sha256": digest.hexdigest(),
        "inputs": sum(counts.values()),
        "outcomes": dict(sorted(counts.items())),
    }


def test_decode_outcome_digest_is_pinned():
    """The accepted byte language and every typed reason, not just the vectors."""
    with open(OUTCOMES_PATH, "r", encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert decode_outcomes() == pinned, (
        "decode() accepts, rejects or classifies some mutated golden vector "
        "differently; if intentional, bump WIRE_VERSION and regenerate with: "
        "python tests/test_wire_golden.py --regen"
    )


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _regen() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    vectors = {
        name: {
            "hex": encode(artifact).hex(),
            "json": json.loads(to_json(artifact)),
        }
        for name, artifact in sorted(build_vectors().items())
    }
    _write_json(GOLDEN_PATH, vectors)
    print(f"wrote {len(vectors)} vectors to {GOLDEN_PATH}")
    outcomes = decode_outcomes()
    _write_json(OUTCOMES_PATH, outcomes)
    print(f"wrote the {outcomes['inputs']}-input outcome digest to {OUTCOMES_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
