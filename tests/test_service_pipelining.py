"""Pipelined frames: in-order answers, atomic snapshots under live updates.

The event-loop server answers each connection's frames strictly in request
order; these tests drive many frames per round trip through
:meth:`VerifyingClient.execute_many` / :meth:`OwnerClient.push_many` and
interleave them with owner mutations: every answer must still verify as an
atomic snapshot attributed to exactly one manifest id, with sequences
non-decreasing along one connection.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    OwnerClient,
    PublicationServer,
    QuerySpec,
    RecordDelta,
    RemoteError,
    ServerConfig,
    VerifyingClient,
    build_demo_world,
)

pytestmark = pytest.mark.concurrency

#: CI runs the stress lane with reduced iterations (see ci.yml).
STRESS_DELTAS = int(os.environ.get("REPRO_STRESS_DELTAS", "40"))

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 10_000, 90_000),))
)
FULL_RANGE = Query("employees", Conjunction())


@pytest.fixture()
def world():
    return build_demo_world(key_bits=512, seed=13)


@pytest.fixture()
def server(world):
    with PublicationServer(
        world.router, config=ServerConfig(max_workers=16)
    ) as live:
        yield live


def test_query_many_orders_and_verifies(world, server):
    host, port = server.address
    queries = [SALARY_RANGE, FULL_RANGE, SALARY_RANGE, FULL_RANGE]
    with VerifyingClient(
        host, port, trusted_manifests=dict(world.manifests)
    ) as client:
        results = client.execute_many([QuerySpec(q) for q in queries])
        assert len(results) == 4
        assert all(result.report is not None for result in results)
        assert results[0].rows == results[2].rows
        assert results[1].rows == results[3].rows
        # Pipelined and lockstep answers are the same answers.
        assert client.execute(QuerySpec(SALARY_RANGE)).rows == results[0].rows


def test_error_mid_pipeline_keeps_connection_usable(world, server):
    host, port = server.address
    # Resolves client-side (known relation) but the server's proof engine
    # rejects the unknown attribute with a typed ErrorResponse.
    bad = Query(
        "employees", Conjunction((RangeCondition("no_such_attribute", 1, 2),))
    )
    with VerifyingClient(host, port) as client:
        client.fetch_manifest("employees")
        with pytest.raises(RemoteError):
            client.execute_many([QuerySpec(q) for q in (SALARY_RANGE, bad, SALARY_RANGE)])
        # The whole exchange was drained, so the stream is still in sync.
        result = client.execute(QuerySpec(SALARY_RANGE))
        assert result.rows and result.report is not None


def test_push_many_applies_all_batches_in_order(world, server):
    host, port = server.address
    batches = [
        (
            RecordDelta(
                kind="insert",
                values={
                    "salary": 55_000 + index,
                    "emp_id": f"pm-{index}",
                    "name": f"pipelined {index}",
                    "dept": 2,
                    "photo": b"\x05" * 16,
                },
            ),
        )
        for index in range(6)
    ]
    with OwnerClient(
        host, port, signature_scheme=world.owner.signature_scheme
    ) as owner_client:
        responses = owner_client.push_many("employees", batches)
        assert len(responses) == 6
        sequences = [r.rotation.manifest.sequence for r in responses]
        assert sequences == sorted(sequences)
        assert all(r.receipt.signatures_recomputed >= 1 for r in responses)
    with VerifyingClient(
        host, port, trusted_manifests=dict(world.manifests)
    ) as client:
        result = client.execute(QuerySpec.range("employees", "salary", 55_000, 55_005))
        assert result.report is not None
        assert {row["emp_id"] for row in result.rows} >= {
            f"pm-{index}" for index in range(6)
        }


def test_backpressure_pauses_and_resumes(world, monkeypatch):
    """A flood beyond the pipeline cap is answered in cap-sized flushes."""
    events = []
    for name, mark in (("_respond", "r"), ("_flush_outbuf", "f")):

        def spy(self, *args, _real=getattr(PublicationServer, name), _mark=mark):
            events.append(_mark)
            return _real(self, *args)

        monkeypatch.setattr(PublicationServer, name, spy)
    config = ServerConfig(max_pipelined_frames=4)
    with PublicationServer(world.router, config=config) as live:
        host, port = live.address
        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests), timeout=60
        ) as client:
            results = client.execute_many([QuerySpec(SALARY_RANGE)] * 20)
            assert len(results) == 20
            assert all(result.report is not None for result in results)
    answered_between_flushes = [len(run) for run in "".join(events).split("f")]
    # The 20 frames arrive in one burst: the cap is reached, never exceeded.
    assert max(answered_between_flushes) == 4
    assert answered_between_flushes.count(4) >= 4


def test_mid_frame_stall_drops_connection(world, monkeypatch):
    """A peer stalled mid-frame is swept, not allowed to pin a buffer forever."""
    import socket as socket_module

    from repro.service import server as server_module

    monkeypatch.setattr(server_module, "MID_FRAME_STALL_SECONDS", 0.3)
    with PublicationServer(world.router) as live:
        host, port = live.address
        with socket_module.create_connection((host, port), timeout=30) as sock:
            sock.sendall((100).to_bytes(4, "big") + b"\x00" * 10)  # partial frame
            sock.settimeout(30)
            assert sock.recv(4096) == b"", "the stalled connection should be closed"


def test_pipelined_queries_interleaved_with_updates(world, server):
    """Readers pipeline batches while the owner streams deltas.

    Every answer must verify (atomic snapshot, correct manifest id), and the
    sequence an answer is attributed to must never go backwards along one
    connection (the server answers frames in order).
    """
    host, port = server.address
    errors = []
    done = threading.Event()

    def reader():
        try:
            with VerifyingClient(
                host,
                port,
                trusted_manifests=dict(world.manifests),
                timeout=60,
            ) as client:
                last_sequence = -1
                while not done.is_set():
                    for result in client.execute_many(
                        [QuerySpec(FULL_RANGE), QuerySpec(SALARY_RANGE)]
                    ):
                        assert result.report is not None
                        assert result.manifest_id, "answers must be attributed"
                        assert result.manifest_sequence >= last_sequence
                        last_sequence = result.manifest_sequence
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        with OwnerClient(
            host, port, signature_scheme=world.owner.signature_scheme, timeout=60
        ) as owner_client:
            for index in range(STRESS_DELTAS):
                owner_client.insert(
                    "employees",
                    {
                        "salary": 30_000 + index,
                        "emp_id": f"stream-{index}",
                        "name": "streamed",
                        "dept": 1,
                        "photo": b"\x09" * 16,
                    },
                )
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors, errors
    assert server.updates_applied >= STRESS_DELTAS
