"""The proof schemes side by side, in process.

Every scheme of :data:`repro.schemes.SCHEMES` is a ``publish → answer →
verify`` triple, run here the way the paper compares them:

* the honest answer verifies under every scheme, and a shared tamper set
  (modified row value, forged signature material, dropped row) is rejected by
  every scheme that claims to catch it — the naive scheme's *inability* to
  catch omissions is asserted explicitly;
* the frozen reason table maps every (scheme variant, tamper case) to its
  exact typed refusal;
* every scheme's update leaves an answer that verifies — the update-cost
  column measures correct updates;
* only the chain scheme is served: a router refuses a baseline's publisher
  or publication at construction, and a server that answers with a
  baseline's VO is refused by the client's decode.
"""

import dataclasses
from contextlib import contextmanager

import pytest

from repro.core.errors import (
    ProofConstructionError,
    UpdateApplicationError,
    VerificationError,
)
from repro.db import workload
from repro.db.query import Conjunction, Projection, Query, RangeCondition
from repro.schemes import SCHEMES
from repro.service import (
    FailoverClient,
    PublicationServer,
    QuerySpec,
    ServerConfig,
    ShardRouter,
    VerifyingClient,
)
from repro.service.handler import HandledFrame
from repro.service.protocol import QueryResponse
from repro.wire import WireFormatError, codec, decode, encode
from repro.wire.updates import RecordDelta

ROWS = 40
RANGE_QUERY = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)

BY_NAME = {scheme.name: scheme for scheme in SCHEMES}
NAMES = tuple(BY_NAME)
#: Schemes that prove completeness (dropping a qualifying row must be caught).
COMPLETE = tuple(name for name in NAMES if BY_NAME[name].proves_completeness)
BASELINES = tuple(name for name in NAMES if name != "chain")


def _fresh_relation(seed=42):
    return workload.generate_employees(ROWS, seed=seed, photo_bytes=8)


def _publish(scheme_name, signature_scheme, seed=42):
    scheme = BY_NAME[scheme_name]
    relation = _fresh_relation(seed)
    publication = scheme.publish(relation, signature_scheme)
    publisher = scheme.make_publisher({"employees": publication})
    return publication, publisher


def test_all_expected_schemes_registered():
    assert NAMES == ("chain", "devanbu", "naive", "vbtree")


def test_scheme_capabilities():
    assert BY_NAME["chain"].proves_completeness
    assert BY_NAME["devanbu"].proves_completeness
    assert not BY_NAME["naive"].proves_completeness
    assert not BY_NAME["vbtree"].proves_completeness


@pytest.mark.parametrize("scheme_name", BASELINES)
def test_the_router_hosts_chain_publishers_only(scheme_name, signature_scheme):
    """A baseline's publisher or publication is not a service shard."""
    publication, publisher = _publish(scheme_name, signature_scheme)
    for shard in (publisher, publication):
        with pytest.raises(TypeError, match="chain-scheme Publisher"):
            ShardRouter({"s": shard})


@pytest.mark.parametrize("shape", ["signed-relation", "database", "none"])
def test_a_shard_that_is_not_a_publisher_is_refused(shape, signature_scheme):
    """Hosting the signed relation itself, or its database mapping, is the
    easy mistake; a good shard beside the bad one builds no partial router."""
    publication, publisher = _publish("chain", signature_scheme)
    bad = {
        "signed-relation": publication,
        "database": {"employees": publication},
        "none": None,
    }[shape]
    with pytest.raises(TypeError, match="shard 'bad' is a"):
        ShardRouter({"good": publisher, "bad": bad})
    assert ShardRouter({"good": publisher}).current_id("employees")


@pytest.mark.parametrize("scheme_name", BASELINES)
def test_baseline_schemes_reject_unsupported_query_shapes(scheme_name, signature_scheme):
    _, publisher = _publish(scheme_name, signature_scheme)
    projected = Query(
        "employees",
        Conjunction((RangeCondition("salary", 20_000, 60_000),)),
        Projection(("name",)),
    )
    with pytest.raises(ProofConstructionError):
        publisher.answer(projected)


@pytest.mark.parametrize("scheme_name", NAMES)
def test_vacuous_range_needs_no_proof(scheme_name, signature_scheme):
    publication, publisher = _publish(scheme_name, signature_scheme)
    empty = Query(
        "employees", Conjunction((RangeCondition("salary", 50, 10),))
    )
    result = publisher.answer(empty)
    assert result.rows == [] and result.proof is None
    _verifier_for(scheme_name, publication).verify(empty, [], None)


@pytest.mark.parametrize("scheme_name", NAMES)
def test_bad_delta_batches_stay_all_or_nothing(scheme_name, signature_scheme):
    publication, publisher = _publish(scheme_name, signature_scheme)
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
    assert len(publication.relation) == ROWS
    assert not publication.relation.range_scan(44_444, 44_444)


_NEWCOMER = {
    "salary": 33_333,
    "emp_id": "x-new",
    "name": "newcomer",
    "dept": 1,
    "photo": b"\x07" * 8,
}


@pytest.mark.parametrize("kind", ["insert", "delete", "update"])
@pytest.mark.parametrize("scheme_name", NAMES)
def test_every_scheme_verifies_its_answer_after_an_update(
    scheme_name, kind, signature_scheme
):
    """The update-cost column counts the work of a *correct* update: after
    the batch, the scheme's answer shows the change and still verifies."""
    publication, publisher = _publish(scheme_name, signature_scheme)
    before, _ = _direct_answer(publisher)
    victim = before[len(before) // 2]
    delta = {
        "insert": RecordDelta(kind="insert", values=_NEWCOMER),
        "delete": RecordDelta(kind="delete", values=victim),
        "update": RecordDelta(
            kind="update", values=dict(victim, name="renamed"), old_values=victim
        ),
    }[kind]
    receipt = publisher.apply_deltas("employees", (delta,))
    assert receipt.signatures_recomputed >= (0 if scheme_name == "naive" else 1)
    rows, proof = _direct_answer(publisher)
    report = _verifier_for(scheme_name, publication).verify(RANGE_QUERY, rows, proof)
    assert report.result_rows == len(rows)
    expected = {
        "insert": sorted(before + [_NEWCOMER], key=lambda row: row["salary"]),
        "delete": [row for row in before if row is not victim],
        "update": [dict(row, name="renamed") if row is victim else row for row in before],
    }[kind]
    assert rows == expected


# -- cross-scheme tamper property ---------------------------------------------


def _direct_answer(publisher, query=RANGE_QUERY):
    result = publisher.answer(query)
    rows = [dict(row) for row in result.rows]
    assert rows and result.proof is not None
    return rows, result.proof


def _verifier_for(scheme_name, publication):
    return BY_NAME[scheme_name].verifier_for(
        "employees", publication.manifest
    )


@pytest.mark.parametrize("scheme_name", NAMES)
def test_every_scheme_accepts_the_honest_answer(scheme_name, signature_scheme):
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, proof = _direct_answer(publisher)
    report = _verifier_for(scheme_name, publication).verify(
        RANGE_QUERY, rows, proof
    )
    assert report.result_rows == len(rows)


@pytest.mark.parametrize("scheme_name", NAMES)
def test_every_scheme_rejects_a_tampered_row(scheme_name, signature_scheme):
    """The shared tamper set: a modified attribute value in one row."""
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, proof = _direct_answer(publisher)
    rows[0]["name"] = "EVIL"
    with pytest.raises(VerificationError):
        _verifier_for(scheme_name, publication).verify(RANGE_QUERY, rows, proof)


@pytest.mark.parametrize("scheme_name", NAMES)
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


@pytest.mark.parametrize("scheme_name", NAMES)
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


# -- over the wire: the chain is served, every VO has a canonical encoding -----


@contextmanager
def _serving(publisher, foreign_vo=None):
    """A live server over one chain shard; with ``foreign_vo`` it puts that VO
    in the proof slot of every answer, laid out the way a scheme-polymorphic
    server wrote it (presence byte, the VO's artifact tag, its body)."""
    router = ShardRouter({"shard": publisher})
    with PublicationServer(router, config=ServerConfig(max_workers=2)) as server:
        if foreign_vo is not None:
            honest = server.handler.handle_frame

            def handle_frame(frame):
                handled = honest(frame)
                response = None if handled.is_error else decode(handled.payload)
                if not isinstance(response, QueryResponse):
                    return handled
                tail = codec.encode_tail(response, "manifest_id")
                empty = encode(dataclasses.replace(response, proof=None))
                rows = empty[: -len(tail) - 1]  # before the absent-proof byte
                return HandledFrame(rows + b"\x01" + encode(foreign_vo)[3:] + tail)

            server.handler.handle_frame = handle_frame
        yield server


@pytest.mark.parametrize("scheme_name", NAMES)
def test_honest_answer_verifies_over_the_wire(scheme_name, signature_scheme):
    """Every scheme's VO crosses the codec as its own artifact — the bytes the
    comparison counts — and verifies from the decoded copy; the chain's answer
    is also served by a live server and verified by a client."""
    publication, publisher = _publish(scheme_name, signature_scheme)
    rows, proof = _direct_answer(publisher)
    decoded = decode(encode(proof))
    assert isinstance(decoded, BY_NAME[scheme_name].vo_type) and decoded == proof
    report = _verifier_for(scheme_name, publication).verify(RANGE_QUERY, rows, decoded)
    assert report.result_rows == len(rows)
    expected = [
        record.as_dict() for record in publication.relation.range_scan(20_000, 60_000)
    ]
    assert rows == expected
    if scheme_name == "chain":
        with _serving(publisher) as server, VerifyingClient(*server.address) as client:
            result = client.execute(QuerySpec(RANGE_QUERY))
        assert [dict(row) for row in result.rows] == expected
        assert result.proof == proof and result.report.result_rows == len(rows)


@pytest.mark.parametrize("scheme_name", BASELINES)
def test_wrong_scheme_vo_over_the_wire_is_a_typed_mismatch(
    scheme_name, signature_scheme
):
    """A server answering a chain relation with a baseline's VO is refused by
    the client's decode — a typed wire error, before any verifier runs."""
    _, publisher = _publish("chain", signature_scheme)
    _, foreign = _direct_answer(_publish(scheme_name, signature_scheme)[1])
    with _serving(publisher, foreign) as server:
        with VerifyingClient(*server.address) as client:
            with pytest.raises(WireFormatError):
                client.execute(QuerySpec(RANGE_QUERY))
            # the same server's chain manifest still serves and verifies
            assert client.fetch_manifest("employees") == publisher.signed_relation(
                "employees"
            ).manifest


def test_failover_leaves_a_replica_answering_under_the_wrong_scheme(
    signature_scheme,
):
    """The replica whose answers carry a foreign VO is distrusted and the
    honest one answers."""
    _, publisher = _publish("chain", signature_scheme)
    _, foreign = _direct_answer(_publish("naive", signature_scheme)[1])
    with _serving(publisher, foreign) as liar, _serving(publisher) as replica:
        with FailoverClient(
            [liar.address, replica.address], failure_threshold=1
        ) as client:
            result = client.execute(QuerySpec(RANGE_QUERY))
            assert result.report is not None and result.rows
            stats = client.stats()
            assert stats["failovers"] == 1
            assert stats["endpoint_states"][liar.address] == "open"


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
    scheme = BY_NAME[scheme_name]
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
    """The naive scheme's fundamental gap: a dropped row still verifies —
    the completeness the chain scheme adds."""
    publication, publisher = _publish("naive", signature_scheme)
    rows, proof = _direct_answer(publisher)
    truncated_proof = type(proof)(signatures=proof.signatures[:-1])
    report = _verifier_for("naive", publication).verify(
        RANGE_QUERY, rows[:-1], truncated_proof
    )
    assert report.result_rows == len(rows) - 1


def test_scheme_publisher_refuses_foreign_publications(signature_scheme):
    publication, _ = _publish("naive", signature_scheme)
    with pytest.raises(ValueError):
        BY_NAME["vbtree"].make_publisher({"employees": publication})


def test_scheme_publisher_refuses_policies(signature_scheme):
    publication, _ = _publish("naive", signature_scheme)
    with pytest.raises(ProofConstructionError):
        BY_NAME["naive"].make_publisher(
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
