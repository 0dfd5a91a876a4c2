"""The durable root against the storage-less in-RAM router.

The disk-backed relation store must be *invisible* on the wire: the same
pre-signed update stream pushed into a durable root and into a plain
in-RAM router (no storage at all — the reference implementation) has to
produce byte-identical acknowledgements, listings, rotation frames and
query-answer frames, before and after a close/recover cycle.  FDH-RSA determinism makes the comparison exact instead
of merely structural.

The second contract is the reason rows live in a store at all: recovery of a
stored chain must *not* materialise the relation's rows in RAM.  The
bounded-memory tests attach tracemalloc around recovery and compare its peak
against what the same relation costs as an in-RAM chain; the
``REPRO_SCALE``-gated variant runs an absolute bound at the 10^5-row tier.
"""

from __future__ import annotations

import json
import os
import tracemalloc

import pytest

from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.db import workload
from repro.db.query import Conjunction, EqualityCondition, Query, RangeCondition
from repro.db.schema import KeyDomain
from repro.service.handler import RequestHandler
from repro.service.owner import build_update_request
from repro.service.protocol import (
    ListRelationsRequest,
    QueryRequest,
    RotationRequest,
)
from repro.service.router import ShardRouter
from repro.storage import (
    PublicationStorage,
    StorageError,
    open_publication_storage,
    recover_router,
)
from repro.storage.relstore import (
    _UNLOADED,
    RelationStore,
    StoredSignedRelation,
    _stored_roots,
    build_stored_chain,
)
from repro.wire import decode, encode
from repro.wire.updates import RecordDelta

FULL_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", None, None),))
)
UPDATES = 5
ROWS = 48


def _employees():
    return workload.generate_employees(ROWS, seed=31, photo_bytes=8)


def _salary_query(low, high, *conditions) -> Query:
    return Query(
        "employees", Conjunction((RangeCondition("salary", low, high),) + conditions)
    )


_SALARIES = [record.key for record in _employees()]
_GAP = next(s + 1 for s, t in zip(_SALARIES, _SALARIES[1:]) if t - s > 1)
#: Every way the chain server needs an entry: a returned row (its stored
#: roots), both boundaries, the outer neighbour of an empty range (its g,
#: re-derived) and a row the predicate filters out (both chain digests).
QUERIES = {
    "answer": FULL_RANGE,
    "point": _salary_query(_SALARIES[5], _SALARIES[5]),
    "range40": _salary_query(_SALARIES[3], _SALARIES[42]),
    "empty": _salary_query(_GAP, _GAP),
    "filtered": _salary_query(_SALARIES[3], _SALARIES[20], EqualityCondition("dept", 3)),
}


def _build_router(signature_scheme) -> ShardRouter:
    signed = SignedRelation(_employees(), signature_scheme)
    return ShardRouter({"hr": Publisher({"employees": signed})})


def _insert_frame(signature_scheme, router: ShardRouter, index: int) -> bytes:
    manifest = router.manifest_by_name("employees")
    delta = RecordDelta(
        kind="insert",
        values={
            "emp_id": f"twin-{index}",
            "name": f"Twin {index}",
            "salary": 71_000 + index,
            "dept": 3,
            "photo": bytes([50 + index]) * 8,
        },
    )
    return encode(build_update_request(signature_scheme, manifest, (delta,)))


def _serving_frames(router: ShardRouter, storage=None) -> dict:
    """Raw response bytes for the comparison surface, via the live handler."""
    handler = RequestHandler(router, response_cache=False, storage=storage)
    frames = {}
    frames["listing"] = handler.handle_frame(encode(ListRelationsRequest())).payload
    frames["rotation"] = handler.handle_frame(
        encode(RotationRequest("employees"))
    ).payload
    for name, query in QUERIES.items():
        frames[name] = handler.handle_frame(
            encode(QueryRequest(manifest_id=router.current_id("employees"), query=query))
        ).payload
    return frames


def test_backends_serve_byte_identical_frames(tmp_path, signature_scheme):
    """One signed stream, a durable root and a RAM router, identical bytes."""
    reference = _build_router(signature_scheme)
    reference_handler = RequestHandler(reference, response_cache=False)
    root = str(tmp_path / "pub")
    router, storage = open_publication_storage(
        root, lambda: _build_router(signature_scheme), checkpoint_every=2
    )
    handler = RequestHandler(router, response_cache=False, storage=storage)
    for index in range(UPDATES):
        # Signed once against the reference's live manifest; the durable
        # root's manifests evolve identically, so the same bytes apply.
        frame = _insert_frame(signature_scheme, reference, index)
        expected = reference_handler.handle_frame(frame)
        handled = handler.handle_frame(frame)
        assert not handled.is_error, decode(handled.payload)
        assert handled.payload == expected.payload, (
            "the durable root acknowledged a signed batch differently"
        )
    expected = _serving_frames(reference)
    assert _serving_frames(router, storage=storage) == expected, (
        "the durable root serves different bytes for the same state"
    )
    # the queries are the shapes their names claim
    answers = {name: decode(expected[name]) for name in QUERIES}
    assert len(answers["point"].rows) == 1 and len(answers["range40"].rows) >= 40
    assert not answers["empty"].rows and answers["empty"].proof.outer_neighbor_digest
    assert any(
        hasattr(entry, "upper_chain_digest") for entry in answers["filtered"].proof.entries
    )
    storage.close()
    recovered_router, recovered_storage = open_publication_storage(
        root, lambda: pytest.fail("must recover, not rebuild")
    )
    try:
        assert (
            _serving_frames(recovered_router, storage=recovered_storage)
            == expected
        ), "recovery changed the serving bytes"
    finally:
        recovered_storage.close()


def test_sqlite_resubmission_survives_checkpoint_compaction(
    tmp_path, signature_scheme
):
    """The durable applied-update registry outlives WAL compaction.

    With ``checkpoint_every=2`` the WAL is compacted mid-stream, so the log
    alone no longer holds the pre-checkpoint frames.  The registry lives in
    the relation store and must hand every resubmitted frame its original,
    byte-identical acknowledgement.
    """
    root = str(tmp_path / "pub")
    router, storage = open_publication_storage(
        root, lambda: _build_router(signature_scheme), checkpoint_every=2
    )
    handler = RequestHandler(router, response_cache=False, storage=storage)
    outcomes = []
    for index in range(UPDATES):
        frame = _insert_frame(signature_scheme, router, index)
        handled = handler.handle_frame(frame)
        assert not handled.is_error, decode(handled.payload)
        outcomes.append((frame, handled.payload))
    storage.close()

    recovered_router, recovered_storage = open_publication_storage(
        root, lambda: pytest.fail("must recover, not rebuild")
    )
    try:
        recovered_handler = RequestHandler(
            recovered_router, response_cache=False, storage=recovered_storage
        )
        for frame, payload in outcomes:
            handled = recovered_handler.handle_frame(frame)
            assert handled.payload == payload, (
                "a resubmitted pre-checkpoint batch lost its original outcome"
            )
    finally:
        recovered_storage.close()


def test_a_streamed_chain_serves_the_in_memory_chain_bytes(tmp_path, signature_scheme):
    """``build_stored_chain`` writes the chain ``SignedRelation`` signs: attached
    under that chain's manifest, it answers every query shape byte for byte."""
    relation = _employees()
    signed = SignedRelation(relation, signature_scheme)
    store = RelationStore(str(tmp_path / "relstore.db"))
    try:
        rows = (record.as_dict() for record in relation)
        assert build_stored_chain(store, "employees", relation.schema, rows, signature_scheme) == ROWS
        stored = StoredSignedRelation(store, "employees", signed.manifest, signature_scheme)
        for query in QUERIES.values():
            expected = Publisher({"employees": signed}).answer(query)
            served = Publisher({"employees": stored}).answer(query)
            assert (served.rows, encode(served.proof)) == (expected.rows, encode(expected.proof))
    finally:
        store.close()


@pytest.mark.parametrize("marker", [None, 'memory', "postgres"])
def test_a_root_not_marked_sqlite_is_refused(tmp_path, signature_scheme, marker):
    """``storage.json`` must say the rows live in the sqlite relation store.

    A root left by a build that kept rows in its checkpoints (marked
    'memory', or not marked at all) holds nothing this build can attach to:
    it is refused with a typed error, never reinterpreted.
    """
    root = str(tmp_path / "pub")
    PublicationStorage.create(root, _build_router(signature_scheme))
    manifest_path = os.path.join(root, "storage.json")
    with open(manifest_path) as handle:
        document = json.load(handle)
    assert document.pop("backend") == "sqlite"
    if marker is not None:
        document["backend"] = marker
    with open(manifest_path, "w") as handle:
        json.dump(document, handle)
    with pytest.raises(StorageError, match="marked backend"):
        PublicationStorage.open(root)
    with pytest.raises(StorageError, match="marked backend"):
        open_publication_storage(root, lambda: pytest.fail("must not rebuild"))


# -- bounded-memory recovery ---------------------------------------------------


def _wide_employees(rows: int):
    # Widen the salary domain with the tier: the default domain has fewer
    # than 10^5 distinct keys.
    return workload.generate_employees(
        rows, seed=47, photo_bytes=64, salary_domain=KeyDomain(0, 4 * rows + 1)
    )


def _bootstrap_rows(tmp_path, signature_scheme, rows: int) -> str:
    router = ShardRouter(
        {
            "hr": Publisher(
                {"employees": SignedRelation(_wide_employees(rows), signature_scheme)}
            )
        }
    )
    root = str(tmp_path / "pub")
    PublicationStorage.create(root, router)
    return root


def test_stored_recovery_does_not_materialize_rows(tmp_path, signature_scheme):
    """Recovery attaches to the stored chain instead of loading rows.

    An in-RAM chain holds every row, digest and signature; the stored chain
    loads keys and fingerprints only and faults rows in lazily — its recovery
    peak must be well under what the same relation costs in RAM.
    """
    rows = 1_500
    root = _bootstrap_rows(tmp_path, signature_scheme, rows)

    tracemalloc.start()
    in_ram = SignedRelation(_wide_employees(rows), signature_scheme)
    _, ram_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(in_ram.relation) == rows

    tracemalloc.start()
    storage = PublicationStorage.open(root)
    router = recover_router(storage)
    _, stored_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    try:
        # The recovered router must actually serve before the peak counts.
        target = router.route(router.current_id("employees"))
        assert len(target.publisher.answer(FULL_RANGE).rows) == rows
    finally:
        storage.close()
    assert stored_peak < ram_peak * 0.6, (
        f"stored recovery peaked at {stored_peak} bytes vs {ram_peak} for the "
        "in-RAM chain — the store is materialising rows"
    )


@pytest.fixture
def store_reads(monkeypatch):
    """The names of the ``RelationStore.load_*`` calls made, in order (every
    such call is what ``benchmarks/e2e`` times as one store read)."""
    reads = []

    def counted(method):
        def read(*args, **kwargs):
            reads.append(method.__name__)
            return method(*args, **kwargs)

        return read

    for name in dir(RelationStore):
        if name.startswith("load_"):
            monkeypatch.setattr(RelationStore, name, counted(getattr(RelationStore, name)))
    return reads


def test_an_answer_is_one_store_read(tmp_path, signature_scheme, store_reads):
    """A cold range, point or empty-range answer over a re-attached root reads
    the chain span it touches with one store call; the same answer again
    reads nothing."""
    reads = store_reads
    root = _bootstrap_rows(tmp_path, signature_scheme, ROWS)
    keys = sorted(record.key for record in _wide_employees(ROWS))  # all distinct
    gap = next(s + 1 for s, t in zip(keys, keys[1:]) if t - s > 1)
    shapes = {
        "range40": (_salary_query(keys[3], keys[42]), 40),
        "point": (_salary_query(keys[20], keys[20]), 1),
        "empty": (_salary_query(gap, gap), 0),
    }
    for name, (query, rows) in shapes.items():
        storage = PublicationStorage.open(root)
        try:
            router = recover_router(storage)
            publisher = router.route(router.current_id("employees")).publisher
            reads.clear()
            answer = publisher.answer(query)
            assert len(answer.rows) == rows, name
            assert reads == ["load_entry_span"], name
            again = publisher.answer(query)
            assert reads == ["load_entry_span"], name
            assert encode(again.proof) == encode(answer.proof)
        finally:
            storage.close()


def test_a_mutation_is_one_store_read(tmp_path, signature_scheme, store_reads):
    """An update, a delete and an insert, each in a cold part of a re-attached
    chain, read the row and the neighbours their re-signed window needs with
    one store call each."""
    relation = _wide_employees(ROWS)
    root = _bootstrap_rows(tmp_path, signature_scheme, ROWS)
    storage = PublicationStorage.open(root)
    try:
        router = recover_router(storage)
        publisher = router.route(router.current_id("employees")).publisher
        signed = publisher.signed_relation("employees")
        store_reads.clear()
        signed.update_record(relation[5], dict(relation[5].as_dict(), name="Moved"))
        assert store_reads == ["load_entry_span"]
        signed.delete_record(relation[20])
        assert store_reads == ["load_entry_span"] * 2
        signed.insert_record(dict(relation[35].as_dict(), emp_id="twin", name="Twin"))
        assert store_reads == ["load_entry_span"] * 3
        assert signed.verify_internal_consistency()
    finally:
        storage.close()


def _chain_columns(signed) -> dict:
    """Every chain-aligned column of a signed relation, in stored form."""
    count = signed.entry_count()
    if isinstance(signed, StoredSignedRelation):
        roots = list(signed._roots)
    else:
        roots = [_stored_roots(signed.components(i), signed._roots[i]) for i in range(count)]
    return {
        "entries": [(entry.kind, entry.key) for entry in signed.entries],
        "rows": [record.as_dict() for record in signed.relation],
        "roots": roots,
        "signatures": list(signed.signatures),
        "components": [signed.components(i) for i in range(count)],
        "version": signed.version,
    }


#: Relation positions around the span ``records[10:20]`` loads (chain entries
#: 10..21, i.e. positions 9..20): just outside, on and just inside each edge,
#: and one inside the unloaded gap above it.
_SPAN_EDGE_POSITIONS = (8, 9, 10, 19, 20, 21, 35)


@pytest.mark.parametrize("position", _SPAN_EDGE_POSITIONS)
@pytest.mark.parametrize("mutation", ["insert", "delete", "update"])
def test_mutations_at_the_edges_of_a_loaded_span(
    tmp_path, signature_scheme, mutation, position
):
    """A partially loaded stored chain, mutated at and around the edges of its
    loaded span or inside an unloaded gap, matches byte for byte both a fresh
    re-attach of its store and the in-RAM twin it was built from."""
    twin = SignedRelation(_employees(), signature_scheme)
    store = RelationStore(str(tmp_path / "relstore.db"))
    try:
        rows = (record.as_dict() for record in twin.relation)
        build_stored_chain(store, "employees", twin.schema, rows, signature_scheme)
        stored = StoredSignedRelation(store, "employees", twin.manifest, signature_scheme)
        stored.relation.records[10:20]
        loaded = [i for i, slot in enumerate(stored._payloads._memo) if slot is not _UNLOADED]
        assert loaded == list(range(10, 22))

        victim = twin.relation[position]
        for signed in (twin, stored):
            if mutation == "insert":
                signed.insert_record(dict(victim.as_dict(), emp_id="edge", name="Edge"))
            elif mutation == "delete":
                signed.delete_record(victim)
            else:
                signed.update_record(victim, dict(victim.as_dict(), name="Edge"))

        expected = _chain_columns(twin)
        assert _chain_columns(stored) == expected
        reattached = StoredSignedRelation(store, "employees", twin.manifest, signature_scheme)
        reattached.restore_sequence(twin.version)
        assert _chain_columns(reattached) == expected
    finally:
        store.close()


@pytest.mark.scale
@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE"),
    reason="set REPRO_SCALE=1 to run the 10^5-row recovery tier",
)
def test_hundred_thousand_row_recovery_is_bounded(tmp_path, signature_scheme):
    """ISSUE acceptance: 10^5-row recovery has O(batch) peak memory."""
    rows = int(os.environ.get("REPRO_SCALE_ROWS", "100000"))
    sqlite_root = _bootstrap_rows(tmp_path, signature_scheme, rows)

    tracemalloc.start()
    storage = PublicationStorage.open(sqlite_root)
    router = recover_router(storage)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    try:
        signed = router.route(router.current_id("employees")).publisher
        publication = signed.signed_relation("employees")
        assert isinstance(publication, StoredSignedRelation)
        # Recovery is allowed the identity index (key + 32-byte fingerprint
        # tuples), the chain-entry skeletons and the lazy-column placeholder
        # slots — measured ~290 bytes/row; rows, digests and signatures must
        # stay on disk (materialising them costs multiple KB per row and
        # previously peaked >510 bytes/row with eager digests alone).
        assert peak < rows * 200 + 16 * 1024 * 1024, (
            f"recovery of {rows} rows peaked at {peak} bytes"
        )
    finally:
        storage.close()
