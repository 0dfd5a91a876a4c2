"""Scheme-polymorphic serving: every registered scheme, one serving stack.

The matrix lane (``pytest -m schemes``) parameterizes the same end-to-end
story over every registered :class:`~repro.schemes.ProofScheme`:

* publish a relation under the scheme, host it on a real
  :class:`~repro.service.PublicationServer`, query it over TCP with a
  :class:`~repro.service.VerifyingClient`, and verify the honest answer under
  the scheme tag of the pinned manifest;
* a shared tamper set (modified row value, forged signature material, dropped
  row) is rejected by every scheme that claims to catch it — and the naive
  scheme's *inability* to catch omissions is asserted explicitly, as is the
  typed :class:`~repro.schemes.CompletenessUnsupported` opt-in gate;
* live owner updates rotate scheme-tagged manifests for every scheme, and a
  rotation that swaps the scheme is refused with a typed
  :class:`~repro.schemes.SchemeMismatchError` even when correctly signed.
"""

import dataclasses

import pytest

from repro.core.errors import (
    ProofConstructionError,
    VerificationError,
)
from repro.db import workload
from repro.db.query import Conjunction, Projection, Query, RangeCondition
from repro.schemes import (
    CompletenessUnsupported,
    PublisherProtocol,
    SchemeMismatchError,
    UnknownSchemeError,
    available_schemes,
    get_scheme,
    scheme_of,
)
from repro.service import (
    FailoverClient,
    OwnerClient,
    PublicationServer,
    QuerySpec,
    RemoteError,
    ServerConfig,
    ShardRouter,
    VerifyingClient,
)
from repro.wire import decode, encode, manifest_id
from repro.wire.updates import ManifestRotated, manifest_signing_message

pytestmark = pytest.mark.schemes

ROWS = 40
RANGE_QUERY = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)

#: Schemes that prove completeness (dropping a qualifying row must be caught).
COMPLETE = tuple(
    name for name in available_schemes() if get_scheme(name).proves_completeness
)


def _fresh_relation(seed=42):
    return workload.generate_employees(ROWS, seed=seed, photo_bytes=8)


def _publish(scheme_name, signature_scheme, seed=42):
    scheme = get_scheme(scheme_name)
    relation = _fresh_relation(seed)
    publication = scheme.publish(relation, signature_scheme)
    publisher = scheme.make_publisher({"employees": publication})
    return publication, publisher


@pytest.fixture(scope="module", params=available_schemes())
def scheme_world(request, signature_scheme):
    """One live server per scheme, hosting the same employee workload."""
    publication, publisher = _publish(request.param, signature_scheme)
    router = ShardRouter({"shard": publisher})
    with PublicationServer(router, config=ServerConfig(max_workers=4)) as server:
        host, port = server.address
        yield request.param, publication, publisher, server, host, port


@pytest.fixture()
def scheme_client(scheme_world):
    _, _, _, _, host, port = scheme_world
    with VerifyingClient(host, port) as client:
        yield client


# -- registry ------------------------------------------------------------------


def test_all_expected_schemes_registered():
    assert available_schemes() == ["chain", "devanbu", "naive", "vbtree"]


def test_unknown_scheme_is_typed():
    with pytest.raises(UnknownSchemeError):
        get_scheme("aggregation-5.2")


def test_scheme_capabilities():
    assert get_scheme("chain").proves_completeness
    assert get_scheme("chain").supports_joins
    assert get_scheme("devanbu").proves_completeness
    assert not get_scheme("devanbu").supports_joins
    assert not get_scheme("naive").proves_completeness
    assert not get_scheme("vbtree").proves_completeness


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_every_scheme_publisher_satisfies_publisher_protocol(
    scheme_name, signature_scheme
):
    """Conformance: the surface the service duck-types against is explicit.

    ``handler.py`` / ``pool.py`` / ``router.py`` consume shard publishers
    through :class:`~repro.schemes.PublisherProtocol` exactly; every
    registered scheme's publisher must satisfy it (the protocol is
    ``runtime_checkable``, so ``isinstance`` checks member presence).
    """
    _, publisher = _publish(scheme_name, signature_scheme)
    assert isinstance(publisher, PublisherProtocol)
    # Spot-check the members actually bind (presence, not just annotation).
    assert "employees" in publisher.database
    assert publisher.signed_relation("employees") is not None
    assert isinstance(publisher.cache_stats(), dict)


def test_publisher_protocol_rejects_partial_surfaces():
    class _NotAPublisher:
        database = {}

        def answer(self, query, role=None):  # pragma: no cover - never called
            raise NotImplementedError

    assert not isinstance(_NotAPublisher(), PublisherProtocol)


def test_manifests_carry_their_scheme_tag(signature_scheme):
    for name in available_schemes():
        publication, _ = _publish(name, signature_scheme)
        manifest = publication.manifest
        assert manifest.scheme == name
        assert scheme_of(manifest) is get_scheme(name)
        # the tag is inside the canonical bytes the 32-byte id commits to
        swapped = dataclasses.replace(
            manifest, scheme="chain" if name != "chain" else "naive"
        )
        assert manifest_id(swapped) != manifest_id(manifest)


# -- end-to-end serving over the wire -----------------------------------------


def test_honest_answer_verifies_over_the_wire(scheme_world, scheme_client):
    scheme_name, publication, publisher, _, _, _ = scheme_world
    allow = not get_scheme(scheme_name).proves_completeness
    result = scheme_client.execute(QuerySpec(RANGE_QUERY, allow_incomplete=allow))
    assert result.report is not None
    expected = [
        record.as_dict()
        for record in publication.relation.range_scan(20_000, 60_000)
    ] if scheme_name != "chain" else None
    assert len(result.rows) == result.report.result_rows
    assert result.rows, "the workload always has rows in this range"
    if expected is not None:
        assert [dict(row) for row in result.rows] == expected
    # the VO round-trips the codec as this scheme's artifact type
    assert isinstance(result.proof, get_scheme(scheme_name).vo_type)
    assert decode(encode(result.proof)) == result.proof


def test_incomplete_schemes_require_explicit_opt_in(scheme_world, scheme_client):
    scheme_name = scheme_world[0]
    if get_scheme(scheme_name).proves_completeness:
        scheme_client.execute(QuerySpec(RANGE_QUERY))  # no opt-in needed
    else:
        with pytest.raises(CompletenessUnsupported):
            scheme_client.execute(QuerySpec(RANGE_QUERY))


def test_baseline_schemes_reject_unsupported_query_shapes(scheme_world, scheme_client):
    scheme_name = scheme_world[0]
    if scheme_name == "chain":
        pytest.skip("the chain scheme supports projections")
    projected = Query(
        "employees",
        Conjunction((RangeCondition("salary", 20_000, 60_000),)),
        Projection(("name",)),
    )
    with pytest.raises(RemoteError) as excinfo:
        scheme_client.execute(QuerySpec(projected, allow_incomplete=True))
    assert excinfo.value.code == "ProofConstructionError"


def test_vacuous_range_needs_no_proof(scheme_world, scheme_client):
    scheme_name = scheme_world[0]
    empty = Query(
        "employees", Conjunction((RangeCondition("salary", 50, 10),))
    )
    allow = not get_scheme(scheme_name).proves_completeness
    result = scheme_client.execute(QuerySpec(empty, allow_incomplete=allow))
    assert result.rows == ()
    assert result.proof is None


# -- a publisher answering under the wrong scheme -------------------------------


class _WrongVOPublisher:
    """Hosts one scheme's publication but answers with another scheme's VO.

    ``QueryResponse.proof`` is a wire union over every registered VO type, so
    nothing at the codec layer stops a publisher from doing this.
    """

    def __init__(self, honest, liar):
        self._honest, self._liar = honest, liar

    def __getattr__(self, name):
        return getattr(self._honest, name)

    def answer(self, query, role=None):
        return self._liar.answer(query, role=role)


def _lying_publisher(scheme_name, signature_scheme):
    _, honest = _publish(scheme_name, signature_scheme)
    other = "naive" if scheme_name != "naive" else "vbtree"
    _, liar = _publish(other, signature_scheme)
    return honest, _WrongVOPublisher(honest, liar)


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_wrong_scheme_vo_over_the_wire_is_a_typed_mismatch(
    scheme_name, signature_scheme
):
    """Every scheme's client refuses a foreign VO with the frozen reason —
    never a raw AttributeError out of a verifier reading the wrong fields."""
    _, lying = _lying_publisher(scheme_name, signature_scheme)
    router = ShardRouter({"shard": lying})
    with PublicationServer(router, config=ServerConfig(max_workers=2)) as server:
        with VerifyingClient(*server.address) as client:
            with pytest.raises(VerificationError) as excinfo:
                client.execute(QuerySpec(RANGE_QUERY, allow_incomplete=True))
    assert (type(excinfo.value).__name__, excinfo.value.reason) == _WRONG_VO


def test_failover_leaves_a_replica_answering_under_the_wrong_scheme(
    signature_scheme,
):
    """The lying replica is distrusted and the honest one answers."""
    honest, lying = _lying_publisher("chain", signature_scheme)
    config = ServerConfig(max_workers=2)
    with PublicationServer(
        ShardRouter({"shard": lying}), config=config
    ) as liar, PublicationServer(
        ShardRouter({"shard": honest}), config=config
    ) as replica:
        with FailoverClient(
            [liar.address, replica.address], failure_threshold=1
        ) as client:
            result = client.execute(QuerySpec(RANGE_QUERY))
            assert result.report is not None and result.rows
            stats = client.stats()
            assert stats["failovers"] == 1
            assert stats["endpoint_states"][liar.address] == "open"


# -- cross-scheme tamper property ---------------------------------------------


def _direct_answer(publisher, query=RANGE_QUERY):
    result = publisher.answer(query)
    rows = [dict(row) for row in result.rows]
    assert rows and result.proof is not None
    return rows, result.proof


def _verifier_for(scheme_name, publication):
    return get_scheme(scheme_name).verifier_for(
        "employees", publication.manifest
    )


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_every_scheme_accepts_the_honest_answer(scheme_name, signature_scheme):
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, proof = _direct_answer(publisher)
    report = _verifier_for(scheme_name, publication).verify(
        RANGE_QUERY, rows, proof
    )
    assert report.result_rows == len(rows)


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_every_scheme_rejects_a_tampered_row(scheme_name, signature_scheme):
    """The shared tamper set: a modified attribute value in one row."""
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, proof = _direct_answer(publisher)
    rows[0]["name"] = "EVIL"
    with pytest.raises(VerificationError):
        _verifier_for(scheme_name, publication).verify(RANGE_QUERY, rows, proof)


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_every_scheme_rejects_a_spurious_row(scheme_name, signature_scheme):
    """The shared tamper set: an invented row appended to the result."""
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, proof = _direct_answer(publisher)
    forged = dict(rows[-1])
    forged["salary"] = rows[-1]["salary"] + 1
    forged["name"] = "GHOST"
    rows.append(forged)
    with pytest.raises(VerificationError):
        _verifier_for(scheme_name, publication).verify(RANGE_QUERY, rows, proof)


@pytest.mark.parametrize("scheme_name", available_schemes())
def test_every_scheme_rejects_a_wrong_scheme_proof(scheme_name, signature_scheme):
    """A VO of a different scheme's type is a typed rejection, not confusion."""
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, _ = _direct_answer(publisher)
    other = "naive" if scheme_name != "naive" else "vbtree"
    other_publication, other_publisher = _publish(other, signature_scheme)
    _, other_proof = _direct_answer(other_publisher)
    with pytest.raises(VerificationError) as excinfo:
        _verifier_for(scheme_name, publication).verify(
            RANGE_QUERY, rows, other_proof
        )
    assert excinfo.value.reason in ("scheme-proof-mismatch", "malformed-proof")


@pytest.mark.parametrize("scheme_name", COMPLETE)
def test_completeness_schemes_reject_a_dropped_row(scheme_name, signature_scheme):
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, proof = _direct_answer(publisher)
    with pytest.raises(VerificationError):
        _verifier_for(scheme_name, publication).verify(
            RANGE_QUERY, rows[:-1], proof
        )


# -- frozen reason table --------------------------------------------------------
#
# The shared tamper set as one table: every (scheme variant, tamper case) maps
# to the exact typed rejection — exception class and ``reason`` — or to None
# when the answer must verify.  Clients dispatch on these reasons, so a row
# only changes together with a CHANGES.md entry saying why.

_ROW_COUNT = ("VerificationError", "row-count-mismatch")
_WRONG_VO = ("VerificationError", "scheme-proof-mismatch")
_CHAIN_SIG = ("CompletenessError", "signature-mismatch")
_ROW_MISMATCH = ("CompletenessError", "row-mismatch")
_AUTH_SIG = ("AuthenticityError", "signature-mismatch")
_AUTH_COUNT = ("AuthenticityError", "signature-count-mismatch")
_DUPLICATE = ("AuthenticityError", "duplicate-row")

REASON_TABLE = {
    ("chain", "honest"): None,
    ("chain", "modified-value"): _CHAIN_SIG,
    ("chain", "spurious-row"): _ROW_COUNT,
    ("chain", "dropped-row"): ("CompletenessError", "row-count-mismatch"),
    ("chain", "duplicate-row"): _ROW_COUNT,
    ("chain", "wrong-scheme-vo"): _WRONG_VO,
    ("chain", "forged-signature"): _CHAIN_SIG,
    ("chain", "count-mismatch"): _CHAIN_SIG,
    ("chain-individual", "honest"): None,
    ("chain-individual", "modified-value"): _CHAIN_SIG,
    ("chain-individual", "spurious-row"): _ROW_COUNT,
    ("chain-individual", "dropped-row"): ("CompletenessError", "row-count-mismatch"),
    ("chain-individual", "duplicate-row"): _ROW_COUNT,
    ("chain-individual", "wrong-scheme-vo"): _WRONG_VO,
    ("chain-individual", "forged-signature"): _CHAIN_SIG,
    ("chain-individual", "count-mismatch"): ("CompletenessError", "signature-count-mismatch"),
    ("devanbu", "honest"): None,
    ("devanbu", "modified-value"): _ROW_MISMATCH,
    ("devanbu", "spurious-row"): _ROW_MISMATCH,
    ("devanbu", "dropped-row"): _ROW_MISMATCH,
    ("devanbu", "duplicate-row"): _ROW_MISMATCH,
    ("devanbu", "wrong-scheme-vo"): _WRONG_VO,
    ("devanbu", "forged-signature"): _CHAIN_SIG,
    ("devanbu", "count-mismatch"): ("VerificationError", "malformed-proof"),
    ("naive", "honest"): None,
    ("naive", "modified-value"): _AUTH_SIG,
    ("naive", "spurious-row"): _AUTH_COUNT,
    ("naive", "dropped-row"): _AUTH_COUNT,
    ("naive", "duplicate-row"): _DUPLICATE,
    ("naive", "wrong-scheme-vo"): _WRONG_VO,
    ("naive", "forged-signature"): _AUTH_SIG,
    ("naive", "count-mismatch"): _AUTH_COUNT,
    ("naive-aggregated", "honest"): None,
    ("naive-aggregated", "modified-value"): _AUTH_SIG,
    ("naive-aggregated", "spurious-row"): _AUTH_SIG,
    ("naive-aggregated", "dropped-row"): _AUTH_SIG,
    ("naive-aggregated", "duplicate-row"): _DUPLICATE,
    ("naive-aggregated", "wrong-scheme-vo"): _WRONG_VO,
    ("naive-aggregated", "forged-signature"): _AUTH_SIG,
    ("naive-aggregated", "count-mismatch"): _AUTH_SIG,
    ("vbtree", "honest"): None,
    ("vbtree", "modified-value"): _AUTH_SIG,
    ("vbtree", "spurious-row"): _AUTH_SIG,
    ("vbtree", "dropped-row"): _AUTH_SIG,
    ("vbtree", "duplicate-row"): _AUTH_SIG,
    ("vbtree", "wrong-scheme-vo"): _WRONG_VO,
    ("vbtree", "forged-signature"): _AUTH_SIG,
    ("vbtree", "count-mismatch"): _AUTH_SIG,
}


def _variant_answer(variant, signature_scheme):
    """(scheme name, publication, honest rows, honest VO) for one variant."""
    scheme_name = variant.split("-")[0]
    scheme = get_scheme(scheme_name)
    publication = scheme.publish(_fresh_relation(), signature_scheme)
    if variant == "chain-individual":
        publisher = scheme.make_publisher({"employees": publication}, aggregate=False)
    else:
        publisher = scheme.make_publisher({"employees": publication})
    if variant == "naive-aggregated":
        rows, proof = publication.answer_range(20_000, 60_000, aggregate=True)
        return scheme_name, publication, [dict(row) for row in rows], proof
    rows, proof = _direct_answer(publisher)
    return scheme_name, publication, rows, proof


def _break_signatures(variant, proof, count):
    """Forge one signature (``count=False``) or make the bundle miscount."""
    replace = dataclasses.replace

    def cut_or_flip(signatures):
        return signatures[:-1] if count else (signatures[0] ^ 1,) + signatures[1:]

    def miscount_or_flip(aggregate):
        if count:
            return replace(aggregate, count=aggregate.count + 1)
        return replace(aggregate, value=aggregate.value ^ 1)

    if variant == "chain":
        bundle = proof.signatures
        return replace(
            proof,
            signatures=replace(bundle, aggregate=miscount_or_flip(bundle.aggregate)),
        )
    if variant == "chain-individual":
        bundle = proof.signatures
        return replace(
            proof,
            signatures=replace(bundle, individual=cut_or_flip(bundle.individual)),
        )
    if variant == "devanbu":
        if count:
            return replace(proof, sibling_digests=proof.sibling_digests[:-1])
        return replace(proof, root_signature=proof.root_signature ^ 1)
    if variant == "naive":
        return replace(proof, signatures=cut_or_flip(proof.signatures))
    if variant == "naive-aggregated":
        return replace(proof, aggregate=miscount_or_flip(proof.aggregate))
    return replace(
        proof, covering_signatures=cut_or_flip(proof.covering_signatures)
    )


def _tampered(variant, case, rows, proof, signature_scheme):
    if case == "honest":
        return rows, proof
    if case == "modified-value":
        return [dict(rows[0], name="EVIL")] + rows[1:], proof
    if case == "spurious-row":
        ghost = dict(rows[-1], salary=rows[-1]["salary"] + 1, name="GHOST")
        return rows + [ghost], proof
    if case == "dropped-row":
        return rows[:-1], proof
    if case == "duplicate-row":
        # The publisher repeats an authentic row — and, where the VO is a
        # per-row signature bundle, repeats that row's signature with it.
        if variant.startswith("naive"):
            _, _, _, individual = _variant_answer("naive", signature_scheme)
            first = individual.signatures[0]
            if variant == "naive":
                proof = dataclasses.replace(
                    proof, signatures=proof.signatures + (first,)
                )
            else:
                aggregate = proof.aggregate
                modulus = signature_scheme.verifier.modulus
                proof = dataclasses.replace(
                    proof,
                    aggregate=dataclasses.replace(
                        aggregate,
                        value=aggregate.value * first % modulus,
                        count=aggregate.count + 1,
                    ),
                )
        return rows + [dict(rows[0])], proof
    if case == "wrong-scheme-vo":
        other = "vbtree" if variant.startswith("naive") else "naive"
        return rows, _variant_answer(other, signature_scheme)[3]
    return rows, _break_signatures(variant, proof, count=case == "count-mismatch")


@pytest.mark.parametrize("variant, case", sorted(REASON_TABLE))
def test_frozen_reason_table(variant, case, signature_scheme):
    scheme_name, publication, rows, proof = _variant_answer(variant, signature_scheme)
    rows, proof = _tampered(variant, case, rows, proof, signature_scheme)
    verifier = _verifier_for(scheme_name, publication)
    expected = REASON_TABLE[variant, case]
    if expected is None:
        assert verifier.verify(RANGE_QUERY, rows, proof).result_rows == len(rows)
        return
    with pytest.raises(VerificationError) as excinfo:
        verifier.verify(RANGE_QUERY, rows, proof)
    assert (type(excinfo.value).__name__, excinfo.value.reason) == expected


def test_naive_omission_gap_is_real_and_documented(signature_scheme):
    """The naive scheme's fundamental gap: a dropped row still verifies.

    This is exactly why the client requires allow_incomplete=True — the
    under-verification is possible, so accepting it must be explicit.
    """
    publication, publisher = _publish("naive", signature_scheme)
    rows, proof = _direct_answer(publisher)
    truncated_proof = type(proof)(signatures=proof.signatures[:-1])
    report = _verifier_for("naive", publication).verify(
        RANGE_QUERY, rows[:-1], truncated_proof
    )
    assert report.result_rows == len(rows) - 1


# -- live updates under every scheme ------------------------------------------


def test_updates_rotate_scheme_tagged_manifests(scheme_world, signature_scheme):
    scheme_name, publication, publisher, server, host, port = scheme_world
    new_row = {
        "salary": 33_333,
        "emp_id": "x-new",
        "name": "newcomer",
        "dept": 1,
        "photo": b"\x07" * 8,
    }
    with OwnerClient(host, port, signature_scheme) as owner_client:
        before = owner_client.manifest("employees")
        assert before.scheme == scheme_name
        response = owner_client.insert("employees", new_row)
        assert response.signatures_recomputed >= (0 if scheme_name == "naive" else 1)
        after = owner_client.manifest("employees")
    assert after.scheme == scheme_name
    assert after.sequence == before.sequence + 1
    # a fresh client sees (and verifies) the new row under the rotated manifest
    allow = not get_scheme(scheme_name).proves_completeness
    with VerifyingClient(host, port) as reader:
        result = reader.execute(
            QuerySpec.point("employees", "salary", 33_333, allow_incomplete=allow)
        )
    assert [dict(row) for row in result.rows] == [new_row]
    # leave the world as found for the other tests in this module
    with OwnerClient(host, port, signature_scheme) as owner_client:
        owner_client.delete("employees", new_row)


def test_bad_delta_batches_stay_all_or_nothing(scheme_world):
    scheme_name, publication, publisher, _, _, _ = scheme_world
    from repro.core.errors import UpdateApplicationError
    from repro.wire.updates import RecordDelta

    version = publication.version
    good = RecordDelta(
        kind="insert",
        values={
            "salary": 44_444,
            "emp_id": "x-good",
            "name": "good",
            "dept": 2,
            "photo": b"\x01" * 8,
        },
    )
    bad = RecordDelta(kind="delete", values={"salary": 1, "emp_id": "nope",
                                             "name": "?", "dept": 0,
                                             "photo": b"\x00" * 8})
    with pytest.raises(UpdateApplicationError):
        publisher.apply_deltas("employees", (good, bad))
    assert publication.version == version
    assert not publication.relation.range_scan(44_444, 44_444)


# -- scheme-swap rejection -----------------------------------------------------


def test_scheme_swapping_rotation_rejected_even_when_signed(
    scheme_world, scheme_client, signature_scheme
):
    """A correctly-signed rotation that changes the scheme is still refused."""
    scheme_name, publication, publisher, _, host, port = scheme_world
    pinned = scheme_client.fetch_manifest("employees")
    other = "naive" if scheme_name != "naive" else "chain"
    swapped = dataclasses.replace(
        pinned, scheme=other, sequence=pinned.sequence + 1
    )
    previous = manifest_id(pinned)
    forged_rotation = ManifestRotated(
        manifest=swapped,
        previous_id=previous,
        owner_signature=signature_scheme.sign(
            manifest_signing_message(swapped, previous)
        ),
    )
    with pytest.raises(SchemeMismatchError):
        scheme_client._validate_rotation("employees", pinned, forged_rotation)


def test_join_refused_under_schemes_without_join_proofs(signature_scheme):
    from repro.db.query import JoinQuery

    publication, publisher = _publish("vbtree", signature_scheme)
    router = ShardRouter({"shard": publisher})
    with PublicationServer(router, config=ServerConfig(max_workers=2)) as server:
        host, port = server.address
        with VerifyingClient(host, port) as client:
            client.fetch_manifest("employees")
            join = JoinQuery("employees", "employees", "salary", "salary")
            with pytest.raises(CompletenessUnsupported):
                client.execute(QuerySpec(join))


def test_mixed_scheme_shards_behind_one_server(signature_scheme):
    """One server fronting one shard per scheme; each verifies under its tag."""
    publications = {}
    shards = {}
    for name in available_schemes():
        scheme = get_scheme(name)
        relation = _fresh_relation(seed=11)
        publication = scheme.publish(relation, signature_scheme)
        # each scheme needs its own hosting name (names are unique per server)
        hosting = f"employees_{name}"
        shards[name] = scheme.make_publisher({hosting: publication})
        publications[hosting] = publication
    router = ShardRouter(shards)
    with PublicationServer(router, config=ServerConfig(max_workers=4)) as server:
        host, port = server.address
        with VerifyingClient(host, port) as client:
            for name in available_schemes():
                hosting = f"employees_{name}"
                manifest = client.fetch_manifest(hosting)
                assert manifest.scheme == name
                allow = not get_scheme(name).proves_completeness
                query = Query(
                    hosting,
                    Conjunction((RangeCondition("salary", 20_000, 60_000),)),
                )
                result = client.execute(QuerySpec(query, allow_incomplete=allow))
                assert result.report is not None and result.rows
                assert isinstance(result.proof, get_scheme(name).vo_type)


def test_scheme_publisher_refuses_foreign_publications(signature_scheme):
    publication, _ = _publish("naive", signature_scheme)
    with pytest.raises(ValueError):
        get_scheme("vbtree").make_publisher({"employees": publication})


def test_scheme_publisher_refuses_policies(signature_scheme):
    publication, _ = _publish("naive", signature_scheme)
    with pytest.raises(ProofConstructionError):
        get_scheme("naive").make_publisher(
            {"employees": publication}, policy=object()
        )


def test_devanbu_boundary_flag_forgery_rejected(signature_scheme):
    """A publisher cannot truncate a range by lying about the table edges.

    Regression for a completeness forgery: drop the first qualifying rows,
    hide leaves [0, k) behind genuine subtree digests, and claim
    ``left_is_table_start`` so the verifier never expects a below-range
    boundary tuple.  The flag must be pinned to the leaf range.
    """
    from repro.schemes.devanbu import DevanbuProof

    publication, publisher = _publish("devanbu", signature_scheme)
    mht = publication
    full = Query(
        "employees", Conjunction((RangeCondition("salary", 1, 99_999),))
    )
    rows, honest = mht.answer_range(1, 99_999)
    assert honest.left_is_table_start and honest.right_is_table_end
    siblings = []
    mht._collect_siblings(0, ROWS, 5, ROWS, siblings)
    forged = DevanbuProof(
        expanded_rows=tuple(honest.expanded_rows[5:]),
        sibling_digests=tuple(siblings),
        root_signature=honest.root_signature,
        leaf_range=(5, ROWS),
        table_size=ROWS,
        left_is_table_start=True,
        right_is_table_end=True,
    )
    verifier = _verifier_for("devanbu", publication)
    with pytest.raises(VerificationError) as excinfo:
        verifier.verify(full, [dict(r) for r in rows[5:]], forged)
    assert excinfo.value.reason == "boundary-flag-mismatch"
    # the right-edge dual is pinned too
    siblings = []
    mht._collect_siblings(0, ROWS, 0, ROWS - 5, siblings)
    forged_right = DevanbuProof(
        expanded_rows=tuple(honest.expanded_rows[: ROWS - 5]),
        sibling_digests=tuple(siblings),
        root_signature=honest.root_signature,
        leaf_range=(0, ROWS - 5),
        table_size=ROWS,
        left_is_table_start=True,
        right_is_table_end=True,
    )
    with pytest.raises(VerificationError):
        verifier.verify(full, [dict(r) for r in rows[: ROWS - 5]], forged_right)
    # the honest full-range answer still verifies
    verifier.verify(full, [dict(r) for r in rows], honest)
