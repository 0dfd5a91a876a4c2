"""Owner-signed freshness epochs close the stale-snapshot hole, end to end.

The headline test reproduces the attack the attestations exist to stop: an
in-path adversary captures a correctly-signed pre-rotation answer and
replays it — re-stamped to the *current* manifest id — after the owner has
deleted rows.  Chain signatures never bind the manifest sequence, so the
replay **verifies** against a client that checks signatures only; a client
configured with a :class:`FreshnessPolicy` refuses it with a typed
:class:`StaleAnswerError`.

Around the headline: the owner push/fetch/re-stamp lifecycle, every refusal
reason (missing, mismatched, forged, expired, stale, regressed), the
deterministic injected clock (no verification path reads the wall clock),
the superseded-manifest eviction cap, recovery resuming the freshness chain
byte-identically (in-process and after a real SIGKILL), and ``walctl
verify`` covering persisted attestation signatures.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from repro.core.publisher import Publisher
from repro.db import workload
from repro.core.relational import SignedRelation
from repro.db.query import Conjunction, JoinQuery, Query, RangeCondition
from repro.service import (
    AttestationAck,
    AttestationPush,
    FreshnessPolicy,
    OwnerClient,
    PublicationServer,
    QuerySpec,
    RemoteError,
    ServerConfig,
    ShardRouter,
    StaleAnswerError,
    VerifyingClient,
    build_attestation,
    build_update_request,
)
from repro.service.protocol import (
    ErrorResponse,
    QueryRequest,
    QueryResponse,
    recv_frame,
    send_message,
)
from repro.service.router import MAX_SUPERSEDED_PER_RELATION
from repro.service.handler import RequestHandler
from repro.storage import (
    PublicationStorage,
    open_publication_storage,
    recover_router,
)
from repro.storage import walctl
from repro.storage.checkpoint import load_keys
from repro.storage.wal import WriteAheadLog
from repro.wire import decode, encode, manifest_id
from repro.wire.updates import FreshnessAttestation, RecordDelta

ALL_SALARIES = Query(
    "employees", Conjunction((RangeCondition("salary", 0, 10_000_000),))
)

#: A base instant far from the real wall clock: if any verification path
#: consulted ``time.time()`` instead of the injected clock, every
#: freshness-accepting assertion below would fail on expiry.
T0 = 4_102_444_800.0  # 2100-01-01T00:00:00Z


class _Clock:
    """A deterministic, manually-advanced clock shared by owner and client."""

    def __init__(self, now: float = T0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return _Clock()


@pytest.fixture()
def world(owner):
    """A fresh signed relation behind a live server, torn down per test."""
    relation = workload.generate_employees(12, seed=19, photo_bytes=8)
    database = owner.publish_database({"employees": relation})
    router = ShardRouter({"hr": Publisher(database.relations)})
    with PublicationServer(router, config=ServerConfig(max_workers=6)) as server:
        yield {
            "owner": owner,
            "manifests": database.manifests,
            "router": router,
            "server": server,
            "address": server.address,
        }


def _owner_client(world, clock=None):
    host, port = world["address"]
    kwargs = {} if clock is None else {"clock": clock}
    return OwnerClient(host, port, world["owner"].signature_scheme, **kwargs)


def _verifying_client(world, freshness=None):
    host, port = world["address"]
    return VerifyingClient(
        host,
        port,
        trusted_manifests=dict(world["manifests"]),
        freshness=freshness,
    )


def _row(salary, tag):
    return {
        "salary": salary,
        "emp_id": f"f-{tag}",
        "name": str(tag),
        "dept": 2,
        "photo": bytes([salary % 251]) * 8,
    }


def _exchange(address, request):
    """One raw request/response exchange; returns the decoded response."""
    with socket.create_connection(address, timeout=10) as sock:
        send_message(sock, request)
        return decode(recv_frame(sock))


# -- the in-path replay adversary ---------------------------------------------


class _ReplayProxy(threading.Thread):
    """A man-in-the-middle that forwards every frame to the real server but
    substitutes a captured stale answer for every query response."""

    def __init__(self, upstream, stale_frame: bytes) -> None:
        super().__init__(daemon=True)
        self.upstream = upstream
        self.stale_frame = stale_frame
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.listener.settimeout(0.2)
        self.address = self.listener.getsockname()
        self._stopping = threading.Event()

    def run(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                with conn, socket.create_connection(
                    self.upstream, timeout=10
                ) as up:
                    while True:
                        frame = _read_frame(conn)
                        if frame is None:
                            break
                        up.sendall(len(frame).to_bytes(4, "big") + frame)
                        reply = _read_frame(up)
                        if reply is None:
                            break
                        if isinstance(decode(reply), QueryResponse):
                            reply = self.stale_frame
                        conn.sendall(len(reply).to_bytes(4, "big") + reply)
            except OSError:
                continue

    def stop(self) -> None:
        self._stopping.set()
        self.join(timeout=5)
        self.listener.close()


def _read_frame(sock):
    header = _read_exact(sock, 4)
    if header is None:
        return None
    return _read_exact(sock, int.from_bytes(header, "big"))


def _read_exact(sock, count):
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _capture_stale_answer(world):
    """Capture a genuine pre-rotation answer, rotate the relation away from
    it, and return the captured response doctored to the *current* id."""
    captured = _exchange(
        world["address"],
        QueryRequest(
            manifest_id=world["router"].current_id("employees"),
            query=ALL_SALARIES,
        ),
    )
    assert isinstance(captured, QueryResponse)
    victim = max(captured.rows, key=lambda row: row["salary"])
    with _owner_client(world) as owner_client:
        owner_client.delete("employees", dict(victim))
    current_id = world["router"].current_id("employees")
    doctored = replace(captured, manifest_id=current_id)
    return victim, current_id, doctored


def test_stale_replay_exploit_verifies_without_freshness(world):
    """The reproduced attack: without a freshness policy the replayed
    pre-rotation answer VERIFIES — chain signatures never bind the manifest
    sequence, so signature checking alone cannot tell the snapshots apart."""
    victim, _, doctored = _capture_stale_answer(world)
    proxy = _ReplayProxy(world["address"], encode(doctored))
    proxy.start()
    try:
        host, port = proxy.address
        with VerifyingClient(
            host, port, trusted_manifests=dict(world["manifests"])
        ) as client:
            result = client.execute(QuerySpec(ALL_SALARIES))
        assert result.report is not None  # verification passed — the hole
        assert any(
            row["emp_id"] == victim["emp_id"] for row in result.rows
        ), "the replay should have resurrected the deleted row"
    finally:
        proxy.stop()


def test_stale_replay_raises_typed_stale_answer_error(world, clock):
    """The fix: the same replayed answer is refused by a freshness-enforcing
    client, because the stale frame cannot carry a current attestation."""
    _, _, doctored = _capture_stale_answer(world)
    with _owner_client(world, clock) as owner_client:
        owner_client.attest("employees", lifetime=60.0)
    proxy = _ReplayProxy(world["address"], encode(doctored))
    proxy.start()
    try:
        host, port = proxy.address
        policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
        with VerifyingClient(
            host,
            port,
            trusted_manifests=dict(world["manifests"]),
            freshness=policy,
        ) as client:
            with pytest.raises(StaleAnswerError) as excinfo:
                client.execute(QuerySpec(ALL_SALARIES))
        assert excinfo.value.reason == "no-attestation"
    finally:
        proxy.stop()


def test_replayed_old_attestation_is_a_mismatch(world, clock):
    """A smarter adversary replays the captured *attestation* too — but it
    binds the pre-rotation manifest id, so the client sees the splice."""
    with _owner_client(world, clock) as owner_client:
        old_attestation = owner_client.attest("employees", lifetime=60.0)
    _, _, doctored = _capture_stale_answer(world)
    with _owner_client(world, clock) as owner_client:
        owner_client.attest("employees", lifetime=60.0)
    doctored = replace(doctored, attestation=old_attestation)
    proxy = _ReplayProxy(world["address"], encode(doctored))
    proxy.start()
    try:
        host, port = proxy.address
        policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
        with VerifyingClient(
            host,
            port,
            trusted_manifests=dict(world["manifests"]),
            freshness=policy,
        ) as client:
            with pytest.raises(StaleAnswerError) as excinfo:
                client.execute(QuerySpec(ALL_SALARIES))
        assert excinfo.value.reason == "attestation-mismatch"
    finally:
        proxy.stop()


def test_cached_body_is_served_under_the_attestation_in_force(world, clock):
    """The response cache holds ``rows | proof`` only: an attestation push
    with no rotation, and a rotation outside the answer's chain window, both
    re-serve the cached body under the *current* id and attestation — and a
    captured answer re-labelled with the rotated id is still refused."""
    salaries = sorted(
        row["salary"] for row in _exchange(
            world["address"],
            QueryRequest(world["router"].current_id("employees"), ALL_SALARIES),
        ).rows
    )
    top = Query(
        "employees", Conjunction((RangeCondition("salary", salaries[-3], salaries[-1]),))
    )

    def ask():
        current = world["router"].current_id("employees")
        return _exchange(world["address"], QueryRequest(current, top))

    def counters():
        stats = world["server"].cache_stats()["responses"]
        return stats["hits"], stats["misses"]

    with _owner_client(world, clock) as owner_client:
        first = owner_client.attest("employees", lifetime=60.0)
        cold = ask()
        hits, misses = counters()
        clock.advance(5.0)
        second = owner_client.attest("employees", lifetime=60.0)
        refreshed = ask()
        assert encode(cold.attestation) == encode(first)
        assert encode(refreshed.attestation) == encode(second)
        assert replace(refreshed, attestation=first) == cold
        owner_client.insert("employees", _row(salaries[0] - 1, "far-below"))
        rotated = ask()
        stamped = owner_client.fetch_attestation("employees")
    assert counters() == (hits + 2, misses)  # neither ask rebuilt the body
    assert rotated.manifest_id == world["router"].current_id("employees")
    assert rotated.manifest_id != refreshed.manifest_id
    assert encode(rotated.attestation) == encode(stamped)
    assert (rotated.rows, rotated.proof) == (cold.rows, cold.proof)

    doctored = replace(refreshed, manifest_id=rotated.manifest_id)
    proxy = _ReplayProxy(world["address"], encode(doctored))
    proxy.start()
    try:
        policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
        with VerifyingClient(
            *proxy.address,
            trusted_manifests=dict(world["manifests"]),
            freshness=policy,
        ) as client:
            with pytest.raises(StaleAnswerError) as excinfo:
                client.execute(QuerySpec(top))
        assert excinfo.value.reason == "attestation-mismatch"
    finally:
        proxy.stop()


# -- the owner lifecycle ------------------------------------------------------


def test_attested_answers_verify_and_carry_the_attestation(world, clock):
    with _owner_client(world, clock) as owner_client:
        pushed = owner_client.attest("employees", lifetime=60.0)
    assert pushed.epoch == 1
    policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
    with _verifying_client(world, freshness=policy) as client:
        result = client.execute(QuerySpec(ALL_SALARIES))
    assert result.report is not None
    assert result.attestation is not None
    assert encode(result.attestation) == encode(pushed)


def test_unattested_relation_refused_under_policy(world, clock):
    policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
    with _verifying_client(world, freshness=policy) as client:
        with pytest.raises(StaleAnswerError) as excinfo:
            client.execute(QuerySpec(ALL_SALARIES))
    assert excinfo.value.reason == "no-attestation"
    # The same relation without a policy keeps the paper's original
    # advisory-freshness behaviour: the answer verifies.
    with _verifying_client(world) as client:
        assert client.execute(QuerySpec(ALL_SALARIES)).rows


def test_fetch_attestation_roundtrip(world, clock):
    with _owner_client(world, clock) as owner_client:
        assert owner_client.fetch_attestation("employees") is None
        pushed = owner_client.attest("employees", lifetime=60.0)
        fetched = owner_client.fetch_attestation("employees")
    assert encode(fetched) == encode(pushed)


def test_rotation_restamps_the_attestation(world, clock):
    """An update between owner refreshes re-signs the in-force attestation
    onto the new manifest: same epoch and validity window, new binding."""
    with _owner_client(world, clock) as owner_client:
        pushed = owner_client.attest("employees", lifetime=60.0)
        owner_client.insert("employees", _row(70_001, "restamp"))
        stamped = owner_client.fetch_attestation("employees")
    manifest = world["router"].manifest_by_name("employees")
    assert stamped.sequence == manifest.sequence > pushed.sequence
    assert bytes(stamped.manifest_id) == manifest_id(manifest)
    assert (stamped.epoch, stamped.issued_at_ms, stamped.not_after_ms) == (
        pushed.epoch,
        pushed.issued_at_ms,
        pushed.not_after_ms,
    )
    # The re-stamp keeps freshness-enforcing clients working across the
    # rotation without waiting for the owner's next refresh.
    policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
    with _verifying_client(world, freshness=policy) as client:
        result = client.execute(QuerySpec(ALL_SALARIES))
    assert encode(result.attestation) == encode(stamped)


def test_epoch_advances_across_refreshes(world, clock):
    with _owner_client(world, clock) as owner_client:
        first = owner_client.attest("employees", lifetime=60.0)
        clock.advance(10.0)
        second = owner_client.attest("employees", lifetime=60.0)
    assert (first.epoch, second.epoch) == (1, 2)
    assert second.issued_at_ms - first.issued_at_ms == 10_000


def test_joins_enforce_freshness_on_both_sides(owner, clock):
    customers, orders = workload.generate_customers_and_orders(6, 10, seed=3)
    database = owner.publish_database(
        {"customers": customers, "orders": orders}
    )
    router = ShardRouter({"sales": Publisher(database.relations)})
    with PublicationServer(router, config=ServerConfig(max_workers=4)) as server:
        host, port = server.address
        policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
        join = JoinQuery("orders", "customers", "customer_id", "customer_id")
        with OwnerClient(
            host, port, owner.signature_scheme, clock=clock
        ) as owner_client, VerifyingClient(
            host,
            port,
            trusted_manifests=dict(database.manifests),
            freshness=policy,
        ) as client:
            owner_client.attest("orders", lifetime=60.0)
            with pytest.raises(StaleAnswerError) as excinfo:
                client.execute(QuerySpec(join))
            assert excinfo.value.reason == "no-attestation"
            owner_client.attest("customers", lifetime=60.0)
            result = client.execute(QuerySpec(join))
            assert result.left_attestation.epoch == 1
            assert result.right_attestation.epoch == 1


# -- the injected clock: expiry, staleness, rollback, forgery -----------------


def test_expired_attestation_refused_by_injected_clock(world, clock):
    with _owner_client(world, clock) as owner_client:
        owner_client.attest("employees", lifetime=30.0)
    policy = FreshnessPolicy(max_staleness=120.0, clock=clock)
    with _verifying_client(world, freshness=policy) as client:
        assert client.execute(QuerySpec(ALL_SALARIES)).rows
        clock.advance(31.0)
        with pytest.raises(StaleAnswerError) as excinfo:
            client.execute(QuerySpec(ALL_SALARIES))
    assert excinfo.value.reason == "attestation-expired"


def test_staleness_bound_is_the_clients_policy(world, clock):
    """A client may demand a bound tighter than the owner's lifetime."""
    with _owner_client(world, clock) as owner_client:
        owner_client.attest("employees", lifetime=300.0)
    policy = FreshnessPolicy(max_staleness=5.0, clock=clock)
    with _verifying_client(world, freshness=policy) as client:
        assert client.execute(QuerySpec(ALL_SALARIES)).rows
        clock.advance(6.0)  # inside the owner window, outside the bound
        with pytest.raises(StaleAnswerError) as excinfo:
            client.execute(QuerySpec(ALL_SALARIES))
    assert excinfo.value.reason == "attestation-stale"


def test_client_never_accepts_a_regressed_epoch(world, clock):
    scheme = world["owner"].signature_scheme
    manifest = world["router"].manifest_by_name("employees")
    identifier = world["router"].current_id("employees")
    now_ms = int(clock() * 1000)
    newer = build_attestation(scheme, manifest, 2, now_ms, 60_000)
    older = build_attestation(scheme, manifest, 1, now_ms, 60_000)
    policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
    with _verifying_client(world, freshness=policy) as client:
        client._check_freshness("employees", manifest, identifier, newer)
        with pytest.raises(StaleAnswerError) as excinfo:
            client._check_freshness("employees", manifest, identifier, older)
    assert excinfo.value.reason == "attestation-regressed"


def test_forged_attestation_refused_client_side(world, clock, forged_scheme):
    manifest = world["router"].manifest_by_name("employees")
    identifier = world["router"].current_id("employees")
    forged = build_attestation(
        forged_scheme, manifest, 1, int(clock() * 1000), 60_000
    )
    policy = FreshnessPolicy(max_staleness=30.0, clock=clock)
    with _verifying_client(world, freshness=policy) as client:
        with pytest.raises(StaleAnswerError) as excinfo:
            client._check_freshness("employees", manifest, identifier, forged)
    assert excinfo.value.reason == "attestation-forged"


# -- server-side push validation ----------------------------------------------


def test_server_refuses_forged_pushes(world, clock, forged_scheme):
    manifest = world["router"].manifest_by_name("employees")
    forged = build_attestation(
        forged_scheme, manifest, 1, int(clock() * 1000), 60_000
    )
    response = _exchange(world["address"], AttestationPush(forged))
    assert isinstance(response, ErrorResponse)
    assert response.reason == "bad-attestation-signature"
    # Nothing got stored: a fetch still reports no attestation.
    with _owner_client(world, clock) as owner_client:
        assert owner_client.fetch_attestation("employees") is None


def test_server_refuses_stale_and_regressed_pushes(world, clock):
    scheme = world["owner"].signature_scheme
    stale_manifest = world["router"].manifest_by_name("employees")
    with _owner_client(world, clock) as owner_client:
        owner_client.insert("employees", _row(70_002, "rotate"))
    stale = build_attestation(
        scheme, stale_manifest, 1, int(clock() * 1000), 60_000
    )
    response = _exchange(world["address"], AttestationPush(stale))
    assert isinstance(response, ErrorResponse)
    assert response.reason == "stale-attestation"

    current = world["router"].manifest_by_name("employees")
    now_ms = int(clock() * 1000)
    second = build_attestation(scheme, current, 2, now_ms, 60_000)
    first = build_attestation(scheme, current, 1, now_ms, 60_000)
    ack = _exchange(world["address"], AttestationPush(second))
    assert isinstance(ack, AttestationAck)
    response = _exchange(world["address"], AttestationPush(first))
    assert isinstance(response, ErrorResponse)
    assert response.reason == "attestation-regressed"


def test_identical_repush_is_idempotent(world, clock):
    scheme = world["owner"].signature_scheme
    manifest = world["router"].manifest_by_name("employees")
    attestation = build_attestation(
        scheme, manifest, 1, int(clock() * 1000), 60_000
    )
    for _ in range(2):  # an owner retrying an unacknowledged push
        ack = _exchange(world["address"], AttestationPush(attestation))
        assert isinstance(ack, AttestationAck)
        assert (ack.sequence, ack.epoch) == (attestation.sequence, 1)


def test_owner_attest_recovers_from_rotation_race(world, clock):
    """``attest`` re-signs transparently when the relation rotated under it."""
    with _owner_client(world, clock) as owner_client:
        owner_client.attest("employees", lifetime=60.0)
        # Rotate behind this owner client's tracked manifest.
        with _owner_client(world, clock) as other:
            other.insert("employees", _row(70_003, "race"))
        refreshed = owner_client.attest("employees", lifetime=60.0)
    assert refreshed.sequence == (
        world["router"].manifest_by_name("employees").sequence
    )
    assert refreshed.epoch == 2


# -- superseded-manifest eviction (regression for the typed error) ------------


def test_rotating_past_the_cap_evicts_with_a_typed_error(world):
    genesis_id = world["router"].current_id("employees")
    with _owner_client(world) as owner_client:
        batches = [
            (RecordDelta(kind="insert", values=_row(50_000 + step, f"cap-{step}")),)
            for step in range(MAX_SUPERSEDED_PER_RELATION + 2)
        ]
        owner_client.push_many("employees", batches)
    response = _exchange(
        world["address"],
        QueryRequest(manifest_id=genesis_id, query=ALL_SALARIES),
    )
    assert isinstance(response, ErrorResponse)
    assert response.reason == "superseded-evicted"
    # The current id still serves.
    current = _exchange(
        world["address"],
        QueryRequest(
            manifest_id=world["router"].current_id("employees"),
            query=ALL_SALARIES,
        ),
    )
    assert isinstance(current, QueryResponse)


# -- durability: recovery resumes the freshness chain -------------------------


def _storage_world(tmp_path, signature_scheme, checkpoint_every=0):
    def build() -> ShardRouter:
        relation = workload.generate_employees(8, seed=29, photo_bytes=8)
        return ShardRouter(
            {"hr": Publisher({"employees": SignedRelation(relation, signature_scheme)})}
        )

    root = str(tmp_path / f"root-{checkpoint_every}")
    router, storage = open_publication_storage(
        root, build, checkpoint_every=checkpoint_every
    )
    handler = RequestHandler(router, response_cache=False, storage=storage)
    return root, router, storage, handler


@pytest.mark.parametrize("checkpoint_every", [0, 1])
def test_recovery_resumes_the_freshness_chain_byte_identically(
    tmp_path, signature_scheme, checkpoint_every, capsys
):
    root, router, storage, handler = _storage_world(
        tmp_path, signature_scheme, checkpoint_every
    )
    manifest = router.manifest_by_name("employees")
    attestation = build_attestation(
        signature_scheme, manifest, 1, int(T0 * 1000), 60_000
    )
    handled = handler.handle_frame(encode(AttestationPush(attestation)))
    assert not handled.is_error, decode(handled.payload)
    # An update after the push: the durable state must carry the re-stamp.
    frame = encode(
        build_update_request(
            signature_scheme,
            router.manifest_by_name("employees"),
            (RecordDelta(kind="insert", values=_row(61_000, "durable")),),
        )
    )
    handled = handler.handle_frame(frame)
    assert not handled.is_error, decode(handled.payload)
    live = encode(router.attestation_for("employees"))
    assert decode(live).sequence == router.manifest_by_name("employees").sequence
    storage.close()

    recovered_router, recovered_storage = open_publication_storage(
        root, lambda: pytest.fail("must recover, not rebuild")
    )
    recovered = encode(recovered_router.attestation_for("employees"))
    recovered_storage.close()
    assert recovered == live, (
        f"checkpoint_every={checkpoint_every}: recovery changed the "
        "freshness chain"
    )

    # ``walctl verify`` re-checks every persisted attestation signature.
    assert walctl.main(["verify", root]) == 0
    assert "OK" in capsys.readouterr().out


def test_walctl_flags_a_forged_persisted_attestation(
    tmp_path, signature_scheme, forged_scheme, capsys
):
    root, router, storage, handler = _storage_world(tmp_path, signature_scheme)
    manifest = router.manifest_by_name("employees")
    genuine = build_attestation(
        signature_scheme, manifest, 1, int(T0 * 1000), 60_000
    )
    handled = handler.handle_frame(encode(AttestationPush(genuine)))
    assert not handled.is_error
    storage.close()
    # Append a validly-framed but forged attestation record behind the
    # server's back — offline verification must catch the bad signature.
    forged = build_attestation(
        forged_scheme, manifest, 2, int(T0 * 1000), 60_000
    )
    wal = WriteAheadLog(PublicationStorage(root).wal_path("hr", "employees"))
    wal.append(encode(forged))
    wal.close()
    assert walctl.main(["verify", root]) == 1
    out = capsys.readouterr().out
    assert "attestation signature does not verify" in out


# -- the honest cross-check: a real SIGKILL ----------------------------------

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spawn_demo(storage_dir: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop("REPRO_FAULTS", None)
    command = [
        sys.executable,
        "-m",
        "repro.service",
        "--key-bits",
        "512",
        "--storage-dir",
        storage_dir,
    ]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=REPO_ROOT,
    )
    port_line = process.stdout.readline().strip()
    assert port_line.startswith("PORT "), f"unexpected output: {port_line!r}"
    port = int(port_line.split()[1])
    assert process.stdout.readline().startswith("RELATIONS ")
    storage_line = process.stdout.readline().strip()
    assert storage_line.startswith("STORAGE ")
    return process, port, storage_line.split()[1]


@pytest.mark.faults
@pytest.mark.skipif(
    not (sys.platform.startswith("linux") or sys.platform == "darwin"),
    reason="drives POSIX signals",
)
def test_sigkill_preserves_the_freshness_chain(tmp_path):
    """Attest, update, SIGKILL the real server — the restarted process must
    serve the identical attestation bytes and keep satisfying a
    freshness-enforcing client."""
    root = str(tmp_path / "pub")
    process, port, origin = _spawn_demo(root)
    assert origin == "bootstrapped"
    try:
        scheme = load_keys(os.path.join(root, "shards", "hr", "keys.json"))[
            "employees"
        ]
        with OwnerClient("127.0.0.1", port, scheme) as owner_client:
            owner_client.attest("employees", lifetime=3600.0)
            owner_client.insert(
                "employees",
                {
                    "emp_id": "kill-0",
                    "name": "Survivor",
                    "salary": 61_500,
                    "dept": 5,
                    "photo": bytes([7]) * 16,
                },
            )
            before = encode(owner_client.fetch_attestation("employees"))
    finally:
        process.kill()
        process.wait(timeout=30)
    assert process.returncode == -signal.SIGKILL

    revived, port, origin = _spawn_demo(root)
    try:
        assert origin == "recovered"
        with OwnerClient("127.0.0.1", port, scheme) as owner_client:
            after = encode(owner_client.fetch_attestation("employees"))
        assert after == before, "SIGKILL recovery changed the freshness chain"
        policy = FreshnessPolicy(max_staleness=3600.0)
        with VerifyingClient("127.0.0.1", port, freshness=policy) as client:
            result = client.execute(QuerySpec(ALL_SALARIES))
        assert encode(result.attestation) == before
    finally:
        revived.send_signal(signal.SIGTERM)
        revived.wait(timeout=30)
