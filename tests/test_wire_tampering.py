"""Tampering over the wire: every byte flip is rejected with a typed error.

The contract under test: for any mutation of encoded bytes, the client either

* fails to decode with a :class:`~repro.wire.errors.WireFormatError`, or
* decodes something that then fails verification with a typed
  :class:`~repro.core.errors.VerificationError`.

Silent accepts (the flip goes unnoticed) and unhandled crashes (raw
``ValueError``/``TypeError``/... escaping) both fail the test.
"""

import pytest

from repro.core.errors import VerificationError
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.db.query import Conjunction, EqualityCondition, Projection, Query, RangeCondition
from repro.service.protocol import QueryResponse
from repro.wire import WireFormatError, decode, encode, manifest_id

#: Every sweep flips one byte at a sampled offset; the two XOR masks catch
#: both gross corruption (0xFF) and least-significant-bit nudges (0x01).
_MASKS = (0xFF, 0x01)


@pytest.fixture(scope="module")
def wire_world(employees_100):
    relation, signed = employees_100
    publisher = Publisher({"employees": signed})
    verifier = ResultVerifier({"employees": signed.manifest})
    query = Query(
        "employees",
        Conjunction(
            (
                RangeCondition("salary", 20_000, 60_000),
                EqualityCondition("dept", 1),
            )
        ),
        Projection(("name", "salary", "dept")),
    )
    result = publisher.answer(query)
    assert result.rows and result.proof is not None
    return signed, verifier, query, result


def _sample_offsets(length: int, step: int):
    """All framing bytes plus an even sample of the remainder."""
    offsets = set(range(min(8, length)))
    offsets.update(range(8, length, step))
    offsets.add(length - 1)
    return sorted(offsets)


def _assert_rejected(blob: bytes, offset: int, mask: int, check):
    tampered = blob[:offset] + bytes((blob[offset] ^ mask,)) + blob[offset + 1 :]
    try:
        artifact = decode(tampered)
    except WireFormatError:
        return  # rejected at the codec layer: typed, expected
    # Decoded despite the flip — verification must now catch it.  ``check``
    # raises VerificationError (or asserts) for anything but a clean accept.
    try:
        check(artifact)
    except (VerificationError, WireFormatError):
        return  # rejected at the verification layer: typed, expected
    pytest.fail(
        f"flipping byte {offset} with mask {mask:#x} was silently accepted"
    )


def test_tampered_query_response_rejected(wire_world):
    """Byte flips in the full response frame (rows + proof) never slip through."""
    signed, verifier, query, result = wire_world
    response = QueryResponse(
        rows=tuple(dict(row) for row in result.rows), proof=result.proof
    )
    blob = encode(response)

    def check(artifact):
        if not isinstance(artifact, QueryResponse):
            raise WireFormatError("tampering changed the message type")
        verifier.verify(query, artifact.rows, artifact.proof)
        raise AssertionError("tampered response verified cleanly")

    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=17):
            _assert_rejected(blob, offset, mask, check)


def test_tampered_proof_rejected(wire_world):
    """Byte flips in the VO itself are caught against the untampered rows."""
    signed, verifier, query, result = wire_world
    blob = encode(result.proof)

    def check(proof):
        verifier.verify(query, result.rows, proof)
        raise AssertionError("tampered proof verified cleanly")

    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=23):
            _assert_rejected(blob, offset, mask, check)


def test_tampered_signature_bundle_rejected(wire_world):
    """Flips inside the signature bundle can never yield the original bundle."""
    signed, verifier, query, result = wire_world
    bundle = result.proof.signatures
    blob = encode(bundle)
    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=3):

            def check(decoded, _original=bundle):
                assert decoded != _original, (
                    "a byte flip decoded back to the original bundle; "
                    "the encoding is not canonical"
                )
                raise VerificationError("bundle differs, as expected")

            _assert_rejected(blob, offset, mask, check)


def test_tampered_manifest_rejected(wire_world):
    """Flipped manifests either fail decoding or change their manifest id."""
    signed, _verifier, _query, _result = wire_world
    manifest = signed.manifest
    blob = encode(manifest)
    original_id = manifest_id(manifest)
    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=7):

            def check(decoded):
                assert manifest_id(decoded) != original_id, (
                    "a byte flip preserved the manifest id"
                )
                raise VerificationError("manifest id differs, as expected")

            _assert_rejected(blob, offset, mask, check)


def test_truncated_proof_rejected(wire_world):
    signed, verifier, query, result = wire_world
    blob = encode(result.proof)
    for cut in _sample_offsets(len(blob) - 1, step=29):
        with pytest.raises(WireFormatError):
            decode(blob[:cut])


def test_extended_proof_rejected(wire_world):
    signed, verifier, query, result = wire_world
    blob = encode(result.proof)
    with pytest.raises(WireFormatError) as excinfo:
        decode(blob + b"\x00")
    assert excinfo.value.reason == "trailing-bytes"


def test_swapped_artifact_rejected(wire_world):
    """A well-formed artifact of the wrong type is rejected, not confused."""
    signed, verifier, query, result = wire_world
    with pytest.raises(WireFormatError):
        from repro.core.proof import JoinQueryProof

        decode(encode(result.proof), expect=JoinQueryProof)


# -- update / rotation messages (the live-update pipeline) --------------------
#
# Contract, extended to the owner→publisher direction: for any byte flip in an
# UpdateRequest, UpdateResponse or ManifestRotated, either the codec rejects
# (WireFormatError) or the receiving side's validation rejects with a typed
# ServiceError — a tampered delta batch must never be *applied*, and a
# tampered rotation must never move a client's trust root.

from repro.core.errors import ReproError, UpdateApplicationError  # noqa: E402
from repro.core.publisher import Publisher as _Publisher  # noqa: E402
from repro.db import workload  # noqa: E402
from repro.service import (  # noqa: E402
    OwnerClient,
    PublicationServer,
    RecordDelta,
    ServiceError,
    ShardRouter,
    VerifyingClient,
    build_update_request,
)
from repro.wire.updates import UpdateRequest, UpdateResponse  # noqa: E402


def _fresh_world(owner):
    """An unstarted server over a fresh signed relation (no sockets needed)."""
    relation = workload.generate_employees(10, seed=33, photo_bytes=8)
    database = owner.publish_database({"employees": relation})
    router = ShardRouter({"hr": _Publisher(database.relations)})
    server = PublicationServer(router)
    batch = (
        RecordDelta(
            kind="insert",
            values={
                "salary": 333,
                "emp_id": "t-333",
                "name": "tamper",
                "dept": 2,
                "photo": b"\x11" * 8,
            },
        ),
        RecordDelta(kind="delete", values=relation.records[0].as_dict()),
    )
    request = build_update_request(
        owner.signature_scheme, database["employees"].manifest, batch
    )
    return database, router, server, batch, request


@pytest.fixture()
def update_world(owner):
    return _fresh_world(owner)


def _sweep_update_request(blob, check, step):
    """Byte-flip sweep with the service-layer error contract."""
    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=step):
            tampered = (
                blob[:offset] + bytes((blob[offset] ^ mask,)) + blob[offset + 1 :]
            )
            try:
                artifact = decode(tampered)
            except WireFormatError:
                continue  # codec-layer rejection: typed, expected
            try:
                check(artifact)
            except (WireFormatError, ServiceError, UpdateApplicationError):
                continue  # validation-layer rejection: typed, expected
            except ReproError:
                continue  # any other *typed* library error is acceptable
            pytest.fail(
                f"flipping byte {offset} with mask {mask:#x} of an update "
                "message was silently accepted"
            )


def test_tampered_update_request_never_applies(update_world):
    """Flipped delta batches are refused by the real server dispatch path."""
    database, router, server, batch, request = update_world
    blob = encode(request)
    baseline_version = database["employees"].version

    def check(artifact):
        if not isinstance(artifact, UpdateRequest):
            raise WireFormatError("tampering changed the message type")
        server.handler._answer_update(artifact)
        pytest.fail("a tampered update request was applied")

    _sweep_update_request(blob, check, step=11)
    assert database["employees"].version == baseline_version, (
        "a tampered update mutated the relation"
    )


def test_forged_update_request_rejected(update_world, forged_scheme):
    from repro.service import OwnerAuthError

    database, router, server, batch, request = update_world
    forged = build_update_request(
        forged_scheme, database["employees"].manifest, batch
    )
    with pytest.raises(OwnerAuthError):
        server.handler._answer_update(forged)
    assert database["employees"].version == 0


def test_replayed_update_request_rejected(update_world):
    from repro.service import StaleManifestError

    database, router, server, batch, request = update_world
    first = server.handler._answer_update(request)
    assert first.rotation.manifest.sequence == 2  # one insert + one delete
    with pytest.raises(StaleManifestError) as excinfo:
        server.handler._answer_update(request)
    assert excinfo.value.reason == "stale-update"


def test_tampered_update_response_rejected(update_world, owner):
    """Flips in the owner's acknowledgement are typed errors or visible
    differences — never a silently-accepted identical artifact."""
    database, router, server, batch, request = update_world
    response = server.handler._answer_update(request)
    blob = encode(response)
    owner_client = OwnerClient("localhost", 0, owner.signature_scheme)

    def check(artifact):
        if not isinstance(artifact, UpdateResponse):
            raise WireFormatError("tampering changed the message type")
        owner_client._validate_response("employees", request, batch, artifact)
        # Validation passed: the flip must at least be *visible* (the
        # canonical encoding guarantees a decoded flip is a different value;
        # the unsigned receipt region is tamper-evident, not authenticated).
        assert artifact != response, (
            "a byte flip decoded back to the original response; "
            "the encoding is not canonical"
        )
        raise ServiceError("response differs, as expected")

    _sweep_update_request(blob, check, step=13)


def test_tampered_rotation_never_repins(update_world, owner):
    """Every byte of a ManifestRotated is authenticated: flips are typed errors."""
    database, router, server, batch, request = update_world
    pinned = database["employees"].manifest  # the genesis manifest
    response = server.handler._answer_update(request)
    rotation = response.rotation
    blob = encode(rotation)
    client = VerifyingClient("localhost", 0)

    from repro.wire.updates import ManifestRotated

    def check(artifact):
        if not isinstance(artifact, ManifestRotated):
            raise WireFormatError("tampering changed the message type")
        client._validate_rotation("employees", pinned, artifact)
        pytest.fail("a tampered rotation passed the trust-root policy")

    _sweep_update_request(blob, check, step=9)


def test_replayed_stale_update_response_rejected(update_world, owner):
    """An old (captured) UpdateResponse cannot acknowledge a newer push."""
    database, router, server, batch, request = update_world
    stale_response = server.handler._answer_update(request)
    owner_client = OwnerClient("localhost", 0, owner.signature_scheme)
    # The owner moves on: a second batch against the rotated manifest.
    second_batch = (
        RecordDelta(
            kind="insert",
            values={
                "salary": 444,
                "emp_id": "t-444",
                "name": "later",
                "dept": 1,
                "photo": b"\x12" * 8,
            },
        ),
    )
    second_request = build_update_request(
        owner.signature_scheme,
        stale_response.rotation.manifest,
        second_batch,
    )
    with pytest.raises(ServiceError):
        owner_client._validate_response(
            "employees", second_request, second_batch, stale_response
        )


# -- VO artifacts of every scheme ----------------------------------------------
#
# The byte-flip contract holds for the chain answer the *real* server dispatch
# path serves (handler decode -> route -> proof construction -> encode): the
# verifying side either rejects with a typed error or the flip is visible
# (manifest-id mismatch) — never a silent accept and never an unhandled crash.
# Every scheme's VO, built in process, gets the same sweep over its own
# canonical encoding.

from repro.core.relational import SignedRelation  # noqa: E402
from repro.schemes import SCHEMES  # noqa: E402
from repro.service import PublicationServer as _Server  # noqa: E402
from repro.service.protocol import QueryRequest, encode_frame  # noqa: E402

_SCHEME_QUERY = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)


def _scheme_relation():
    return workload.generate_employees(30, seed=77, photo_bytes=8)


@pytest.fixture(scope="module", params=SCHEMES, ids=lambda scheme: scheme.name)
def scheme_world(request, signature_scheme):
    """One relation under one scheme, answered in process."""
    scheme = request.param
    publication = scheme.publish(_scheme_relation(), signature_scheme)
    result = scheme.make_publisher({"employees": publication}).answer(_SCHEME_QUERY)
    verifier = scheme.verifier_for("employees", publication.manifest)
    return scheme.name, [dict(row) for row in result.rows], result.proof, verifier


def test_tampered_scheme_response_rejected_via_server_dispatch(signature_scheme):
    """Byte flips in a served chain answer never slip through."""
    publication = SignedRelation(_scheme_relation(), signature_scheme)
    router = ShardRouter({"shard": Publisher({"employees": publication})})
    server = _Server(router)
    verifier = ResultVerifier({"employees": publication.manifest})
    identifier = router.current_id("employees")
    request_frame = encode_frame(
        QueryRequest(manifest_id=identifier, query=_SCHEME_QUERY)
    )[4:]
    handled = server.handler.handle_frame(request_frame)
    assert not handled.is_error
    blob = handled.payload
    honest = decode(blob)
    assert isinstance(honest, QueryResponse) and honest.rows
    verifier.verify(_SCHEME_QUERY, honest.rows, honest.proof)  # sanity: honest accepts

    def check(artifact):
        if not isinstance(artifact, QueryResponse):
            raise WireFormatError("tampering changed the message type")
        if artifact.manifest_id != identifier:
            # a client compares the stamp against its pinned id first; a
            # flipped stamp is a visible mismatch, not a silent accept
            raise VerificationError("manifest stamp differs, as expected")
        verifier.verify(_SCHEME_QUERY, artifact.rows, artifact.proof)
        raise AssertionError("a tampered chain answer verified cleanly")

    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=19):
            _assert_rejected(blob, offset, mask, check)


def test_tampered_scheme_proof_rejected(scheme_world):
    """Flips inside a scheme's VO, checked against untampered rows."""
    scheme_name, rows, proof, verifier = scheme_world
    blob = encode(proof)

    def check(tampered):
        verifier.verify(_SCHEME_QUERY, rows, tampered)
        _assert_equivalent_statement(scheme_name, rows, proof, rows, tampered)
        raise VerificationError("equivalent proof of the same statement")

    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=13):
            _assert_rejected(blob, offset, mask, check)


def _assert_equivalent_statement(scheme_name, rows, proof, got_rows, got_proof):
    """A verified-after-flip artifact must prove the exact same statement.

    The VB-tree VO carries unauthenticated structure hints (``table_size``):
    a flip there can yield an *equivalent* proof — the identical signed
    covering digests authenticating the identical rows through the identical
    derived cover — which is sound to accept.  Anything beyond that (changed
    rows, changed signed content, or any such accept under another scheme's
    fully-pinned VO) is a genuine silent accept and fails the sweep.
    """
    assert scheme_name == "vbtree", (
        f"a tampered {scheme_name} answer verified cleanly"
    )
    assert got_rows == rows, "a flip changed the verified rows"
    assert got_proof.covering_digests == proof.covering_digests, (
        "a flip changed the signed covering digests yet still verified"
    )
    assert got_proof.covering_signatures == proof.covering_signatures, (
        "a flip changed the covering signatures yet still verified"
    )
    assert got_proof.leaf_range == proof.leaf_range and got_proof.fanout == proof.fanout, (
        "a flip changed the cover derivation inputs yet rebuilt the same digests"
    )


# -- freshness attestations (the bounded-staleness pipeline) ------------------
#
# Contract, extended to the freshness layer: a byte flip in an
# AttestationPush must never *store* on the server (real dispatch path), and
# a flip in the attestation a response carries must never pass a
# freshness-enforcing client's check — both reject with typed errors.

from repro.service import (  # noqa: E402
    AttestationPush,
    FreshnessPolicy,
    StaleAnswerError,
    build_attestation,
)
from repro.service.protocol import AttestationAck, ErrorResponse  # noqa: E402
from repro.wire.updates import FreshnessAttestation  # noqa: E402

_ATT_NOW_MS = 1_700_000_000_000


def test_tampered_attestation_push_never_stores(update_world, owner):
    """Flipped attestation pushes are refused by the real server dispatch."""
    database, router, server, batch, request = update_world
    manifest = database["employees"].manifest
    attestation = build_attestation(
        owner.signature_scheme, manifest, 1, _ATT_NOW_MS, 60_000
    )
    blob = encode(AttestationPush(attestation))
    handled = server.handler.handle_frame(blob)
    assert not handled.is_error, "the untampered push must store"
    baseline = encode(router.attestation_for("employees"))

    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=7):
            tampered = (
                blob[:offset] + bytes((blob[offset] ^ mask,)) + blob[offset + 1 :]
            )
            handled = server.handler.handle_frame(tampered)
            if handled.is_error:
                assert isinstance(decode(handled.payload), ErrorResponse)
                continue
            response = decode(handled.payload)
            assert not isinstance(response, AttestationAck), (
                f"flipping byte {offset} with mask {mask:#x} of an "
                "attestation push was acknowledged"
            )
    assert encode(router.attestation_for("employees")) == baseline, (
        "a tampered push changed the stored attestation"
    )


def test_tampered_attestation_refused_by_freshness_check(update_world, owner):
    """Flips in a served attestation never pass the client's freshness check."""
    database, router, server, batch, request = update_world
    manifest = database["employees"].manifest
    identifier = manifest_id(manifest)
    attestation = build_attestation(
        owner.signature_scheme, manifest, 1, _ATT_NOW_MS, 60_000
    )
    policy = FreshnessPolicy(
        max_staleness=30.0, clock=lambda: _ATT_NOW_MS / 1000 + 5.0
    )
    client = VerifyingClient(
        "127.0.0.1",
        9,  # never connected: the freshness check is wire-free
        trusted_manifests={"employees": manifest},
        freshness=policy,
    )
    client._check_freshness("employees", manifest, identifier, attestation)

    blob = encode(attestation)
    for mask in _MASKS:
        for offset in _sample_offsets(len(blob), step=5):
            tampered = (
                blob[:offset] + bytes((blob[offset] ^ mask,)) + blob[offset + 1 :]
            )
            try:
                artifact = decode(tampered)
            except WireFormatError:
                continue  # codec-layer rejection: typed, expected
            if not isinstance(artifact, FreshnessAttestation):
                continue  # tampering changed the artifact type: visible
            with pytest.raises(StaleAnswerError):
                client._check_freshness(
                    "employees", manifest, identifier, artifact
                )
