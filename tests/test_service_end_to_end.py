"""End-to-end publication service: server, shard router, verifying client.

Covers the full deployment story: a :class:`PublicationServer` serves encoded
VOs over TCP (in-process, and — for the acceptance scenario — from a separate
server *process*), a :class:`VerifyingClient` accepts genuine results, and
tampered / incomplete / mis-routed answers are rejected with typed errors.
"""

import os
import socket
import subprocess
import sys
import threading

import pytest

from repro.core.errors import VerificationError
from repro.db.query import Conjunction, JoinQuery, Projection, Query, RangeCondition
from repro.service import (
    ErrorResponse,
    ListRelationsRequest,
    ManifestRequest,
    ManifestResponse,
    PublicationServer,
    QueryRequest,
    QueryResponse,
    QuerySpec,
    RelationListing,
    RemoteError,
    ServerConfig,
    ServiceError,
    VerifyingClient,
    build_demo_world,
)
from repro.service.protocol import recv_message, send_message
from repro.wire import WireFormatError, decode, encode

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)
ORDERS_JOIN = JoinQuery("orders", "customers", "customer_id", "customer_id")


@pytest.fixture(scope="module")
def demo_world():
    return build_demo_world(key_bits=512, seed=7)


@pytest.fixture(scope="module")
def live_server(demo_world):
    with PublicationServer(
        demo_world.router, config=ServerConfig(max_workers=6)
    ) as server:
        yield server


@pytest.fixture()
def client(live_server):
    host, port = live_server.address
    with VerifyingClient(host, port) as active:
        yield active


# -- the happy path -----------------------------------------------------------


def test_listing_and_manifest_ids(client, demo_world):
    from repro.wire import manifest_id

    listing = client.relations()
    assert set(listing) == {"employees", "customers", "orders"}
    for name, identifier in listing.items():
        assert identifier == manifest_id(demo_world.manifests[name])
        fetched = client.fetch_manifest(name)
        assert manifest_id(fetched) == identifier


def test_range_query_verified_over_socket(client):
    result = client.execute(QuerySpec(SALARY_RANGE))
    assert result.report is not None and result.report.result_rows == len(result.rows)
    assert result.rows, "the demo range should be non-empty"
    for row in result.rows:
        assert 20_000 <= row["salary"] <= 60_000


def test_projection_query_verified_over_socket(client):
    query = Query(
        "employees",
        Conjunction((RangeCondition("salary", 10_000, 90_000),)),
        Projection(("name",)),
    )
    result = client.execute(QuerySpec(query))
    assert result.rows
    assert set(result.rows[0]) == {"salary", "name"}  # key always retained


def test_join_query_verified_over_socket(client):
    result = client.execute(QuerySpec(ORDERS_JOIN))
    assert result.rows and result.report is not None
    assert set(result.rows[0]) >= {"orders.customer_id", "customers.customer_id"}


def test_vacuous_query_over_socket(client):
    query = Query("employees", Conjunction((RangeCondition("salary", 10, 5),)))
    result = client.execute(QuerySpec(query))
    assert result.rows == () and result.proof is None


def test_unknown_relation_is_typed_error(client):
    with pytest.raises(ServiceError):
        client.execute(QuerySpec(Query("nope", Conjunction())))


def test_mismatched_manifest_id_is_typed_error(client, live_server):
    """A query naming a different relation than its manifest id is refused."""
    host, port = live_server.address
    employees_id = client.relations()["employees"]
    with socket.create_connection((host, port), timeout=10) as sock:
        send_message(
            sock,
            QueryRequest(
                manifest_id=employees_id,
                query=Query("orders", Conjunction()),
            ),
        )
        response = recv_message(sock)
    assert isinstance(response, ErrorResponse)


def test_overloaded_server_refuses_with_typed_error(demo_world):
    """Connections beyond the worker cap get ServerBusy, not a silent hang."""
    with PublicationServer(
        demo_world.router, config=ServerConfig(max_workers=1)
    ) as server:
        host, port = server.address
        with VerifyingClient(host, port) as first:
            assert first.execute(QuerySpec(SALARY_RANGE)).rows  # occupies the only slot
            with VerifyingClient(host, port) as second:
                with pytest.raises(RemoteError) as excinfo:
                    second.execute(QuerySpec(SALARY_RANGE))
                assert excinfo.value.code == "ServerBusy"
        assert server.connections_refused >= 1


def test_malformed_frame_is_answered_and_connection_dropped(live_server):
    host, port = live_server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        payload = b"\x00garbage-that-is-not-a-wire-artifact"
        sock.sendall(len(payload).to_bytes(4, "big") + payload)
        response = recv_message(sock)
        assert isinstance(response, ErrorResponse)
        assert response.code == "WireFormatError"


def test_concurrent_clients_share_the_server_caches(demo_world, live_server):
    host, port = live_server.address
    target = demo_world.router.route(
        dict(demo_world.router.listing())["employees"]
    )
    vo_hits_before = target.publisher.cache_stats()["vo_fragments"]["hits"]
    response_stats = live_server.handler.cache_stats().get("responses", {})
    response_hits_before = response_stats.get("hits", 0)
    errors = []

    def worker():
        try:
            with VerifyingClient(host, port) as active:
                for _ in range(4):
                    result = active.execute(QuerySpec(SALARY_RANGE))
                    assert result.rows
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # A query that became hot through one client's connection is served from
    # shared server-side caches for every other client: either the encoded
    # response itself (response cache) or its boundary assists.
    vo_hits = target.publisher.cache_stats()["vo_fragments"]["hits"] - vo_hits_before
    response_stats = live_server.handler.cache_stats().get("responses", {})
    response_hits = response_stats.get("hits", 0) - response_hits_before
    assert vo_hits + response_hits > 0, (
        "requests from different connections should hit the shared caches"
    )


# -- rejection paths ----------------------------------------------------------


class _EvilServer:
    """A publisher that serves genuine metadata but tampered query answers."""

    def __init__(self, world, tamper):
        self.world = world
        self.tamper = tamper
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                try:
                    while True:
                        request = recv_message(connection)
                        if request is None:
                            break
                        send_message(connection, self._respond(request))
                except OSError:
                    pass

    def _respond(self, request):
        router = self.world.router
        if isinstance(request, ListRelationsRequest):
            return RelationListing(entries=router.listing())
        if isinstance(request, ManifestRequest):
            return ManifestResponse(
                manifest=router.manifest_by_name(request.relation_name)
            )
        if not isinstance(request, QueryRequest):
            return ErrorResponse(
                code="UnknownRequest",
                reason="unsupported",
                message=f"evil server does not serve {type(request).__name__}",
            )
        target = router.route(request.manifest_id)
        result = target.publisher.answer(request.query, role=request.role)
        rows, proof = self.tamper(
            [dict(row) for row in result.rows], result.proof
        )
        return QueryResponse(rows=tuple(rows), proof=proof)

    def close(self):
        self._listener.close()


class _ImpersonatingServer(_EvilServer):
    """A hostile publisher running its own self-consistent world.

    It holds its *own* owner key and serves genuine-looking, internally
    consistent answers — the attack the manifest trust root must stop.  It
    ignores the manifest id in query requests (an honest server would refuse
    an unknown id, which already reveals the impersonation).
    """

    def _respond(self, request):
        router = self.world.router
        if isinstance(request, ListRelationsRequest):
            return RelationListing(entries=router.listing())
        if isinstance(request, ManifestRequest):
            return ManifestResponse(
                manifest=router.manifest_by_name(request.relation_name)
            )
        if not isinstance(request, QueryRequest):
            return ErrorResponse(
                code="UnknownRequest",
                reason="unsupported",
                message=f"imposter does not serve {type(request).__name__}",
            )
        own_id = dict(router.listing())[request.query.relation_name]
        target = router.route(own_id)
        result = target.publisher.answer(request.query, role=request.role)
        return QueryResponse(
            rows=tuple(dict(row) for row in result.rows), proof=result.proof
        )


def test_pinned_client_rejects_impersonating_publisher(demo_world):
    """Manifests are the trust root: pinning them defeats a hostile server."""
    from repro.wire import manifest_id

    imposter = _ImpersonatingServer(
        build_demo_world(key_bits=512, seed=8), tamper=None
    )
    try:
        # Full manifests from the genuine owner's authenticated channel: the
        # imposter's answers are signed under the wrong key and are rejected.
        with VerifyingClient(
            *imposter.address, trusted_manifests=dict(demo_world.manifests)
        ) as active:
            with pytest.raises(VerificationError):
                active.execute(QuerySpec(SALARY_RANGE))
        # Pinned ids alone already reject at manifest-fetch time.
        pinned = {"employees": manifest_id(demo_world.manifests["employees"])}
        with VerifyingClient(*imposter.address, expected_ids=pinned) as active:
            with pytest.raises(ServiceError):
                active.fetch_manifest("employees")
    finally:
        imposter.close()


@pytest.mark.parametrize(
    "name,tamper",
    [
        ("dropped_row", lambda rows, proof: (rows[:-1], proof)),
        (
            "edited_value",
            lambda rows, proof: (
                [dict(rows[0], salary=rows[0]["salary"] + 1)] + rows[1:],
                proof,
            ),
        ),
        ("missing_proof", lambda rows, proof: (rows, None)),
        (
            "spurious_row",
            lambda rows, proof: (rows + [dict(rows[0], salary=59_999)], proof),
        ),
    ],
)
def test_client_rejects_incomplete_or_tampered_answers(demo_world, name, tamper):
    evil = _EvilServer(demo_world, tamper)
    try:
        with VerifyingClient(*evil.address) as active:
            with pytest.raises(VerificationError):
                active.execute(QuerySpec(SALARY_RANGE))
    finally:
        evil.close()


def test_client_rejects_bytes_tampered_in_transit(demo_world, live_server, client):
    """Raw protocol exchange with the real server; response bytes flipped."""
    host, port = live_server.address
    employees_id = client.relations()["employees"]
    manifest = client.fetch_manifest("employees")
    from repro.core.verifier import ResultVerifier

    verifier = ResultVerifier({"employees": manifest})
    with socket.create_connection((host, port), timeout=10) as sock:
        send_message(
            sock, QueryRequest(manifest_id=employees_id, query=SALARY_RANGE)
        )
        from repro.service.protocol import recv_frame

        payload = recv_frame(sock)
    assert payload is not None
    genuine = decode(payload)
    verifier.verify(SALARY_RANGE, genuine.rows, genuine.proof)  # sanity

    for offset in range(5, len(payload), max(1, len(payload) // 40)):
        flipped = payload[:offset] + bytes((payload[offset] ^ 0xFF,)) + payload[offset + 1 :]
        try:
            response = decode(flipped)
        except WireFormatError:
            continue
        with pytest.raises((VerificationError, WireFormatError)):
            if not isinstance(response, QueryResponse):
                raise WireFormatError("tampering changed the message type")
            verifier.verify(SALARY_RANGE, response.rows, response.proof)


# -- the acceptance scenario: separate processes ------------------------------


def test_cross_process_server_and_client(tmp_path):
    """A server process serves encoded VOs over a socket to a client process.

    The client accepts the genuine answer, and rejects a tampered variant of
    the same over-the-wire bytes — all against a publisher it shares no
    memory with.
    """
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--key-bits", "512"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=repo_root,
    )
    try:
        port_line = process.stdout.readline().strip()
        assert port_line.startswith("PORT "), f"unexpected server output: {port_line!r}"
        port = int(port_line.split()[1])
        relations_line = process.stdout.readline().strip()
        assert relations_line.startswith("RELATIONS ")

        with VerifyingClient("127.0.0.1", port) as active:
            result = active.execute(QuerySpec(SALARY_RANGE))
            assert result.rows and result.report is not None

            join_result = active.execute(QuerySpec(ORDERS_JOIN))
            assert join_result.rows and join_result.report is not None

            # Tamper with the exact bytes that crossed the socket: re-encode
            # the answer with one salary nudged and verify it is rejected.
            manifest = active.fetch_manifest("employees")
            from repro.core.verifier import ResultVerifier

            verifier = ResultVerifier({"employees": manifest})
            tampered_rows = [dict(row) for row in result.rows]
            tampered_rows[0]["salary"] += 1
            blob = encode(
                QueryResponse(rows=tuple(tampered_rows), proof=result.proof)
            )
            tampered = decode(blob)
            with pytest.raises(VerificationError):
                verifier.verify(SALARY_RANGE, tampered.rows, tampered.proof)

            # An incomplete variant (a dropped row) is rejected as well.
            short = decode(
                encode(QueryResponse(rows=result.rows[:-1], proof=result.proof))
            )
            with pytest.raises(VerificationError):
                verifier.verify(SALARY_RANGE, short.rows, short.proof)
    finally:
        process.terminate()
        process.wait(timeout=10)
