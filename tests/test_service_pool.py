"""Process-pool proof workers: identity, coherence, crash containment.

The contract of :mod:`repro.service.pool`:

* pooled answers are byte-identical to in-process answers,
* owner updates propagate to every worker before the owner sees the receipt
  (a query issued after a push reflects the pushed data, deterministically),
* a worker killed mid-flight produces a typed ``WorkerCrashed`` error —
  never a hang — and a forked replacement keeps serving.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    OwnerClient,
    PublicationServer,
    QueryRequest,
    QuerySpec,
    RemoteError,
    ServerConfig,
    VerifyingClient,
    build_demo_world,
)
from repro.service.protocol import recv_frame, send_message

pytestmark = [
    pytest.mark.concurrency,
    pytest.mark.skipif(
        not sys.platform.startswith("linux") and sys.platform != "darwin",
        reason="process-pool workers need a fork platform",
    ),
]

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)
FULL_RANGE = Query("employees", Conjunction())


@pytest.fixture()
def world():
    return build_demo_world(key_bits=512, seed=11)


def test_pooled_answers_byte_identical_to_inline(world):
    """The same state served pooled and inline yields identical frames."""
    import socket

    def collect(worker_processes: int):
        frames = []
        with PublicationServer(
            world.router,
            config=ServerConfig(
                worker_processes=worker_processes, response_cache=False
            ),
        ) as server:
            host, port = server.address
            with VerifyingClient(host, port) as client:
                identifier = client.relations()["employees"]
            with socket.create_connection((host, port), timeout=30) as sock:
                for query in (SALARY_RANGE, FULL_RANGE):
                    send_message(
                        sock, QueryRequest(manifest_id=identifier, query=query)
                    )
                    frames.append(recv_frame(sock))
        return frames

    assert collect(0) == collect(2)


def test_pooled_query_verifies(world):
    with PublicationServer(
        world.router, config=ServerConfig(worker_processes=2)
    ) as server:
        host, port = server.address
        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests)
        ) as client:
            result = client.execute(QuerySpec(SALARY_RANGE))
            assert result.rows and result.report is not None
            results = client.execute_many(
                [QuerySpec(q) for q in (SALARY_RANGE, FULL_RANGE, SALARY_RANGE)]
            )
            assert [r.rows for r in results] == [
                result.rows,
                results[1].rows,
                result.rows,
            ]
            assert all(r.report is not None for r in results)


def test_update_visible_immediately_after_push(world):
    """The owner's receipt implies every worker answers the new snapshot.

    The master holds the ``UpdateResponse`` until all workers acknowledged
    the broadcast, so a query issued *after* ``push`` returns — on any
    worker — must reflect the delta and carry the rotated manifest id.
    """
    with PublicationServer(
        world.router, config=ServerConfig(worker_processes=2)
    ) as server:
        host, port = server.address
        with OwnerClient(
            host, port, signature_scheme=world.owner.signature_scheme
        ) as owner_client:
            response = owner_client.insert(
                "employees",
                {
                    "salary": 41_414,
                    "emp_id": "pool-1",
                    "name": "pooled insert",
                    "dept": 3,
                    "photo": b"\x42" * 16,
                },
            )
            assert response.signatures_recomputed >= 1
        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests)
        ) as client:
            # Several queries, so both round-robin workers are exercised.
            for _ in range(4):
                result = client.execute(QuerySpec.point("employees", "salary", 41_414))
                assert result.report is not None
                assert any(row["emp_id"] == "pool-1" for row in result.rows)
                assert result.manifest_sequence >= 1


def test_worker_crash_is_typed_error_not_hang(world):
    """SIGKILLing workers mid-query yields WorkerCrashed, then recovery."""
    with PublicationServer(
        world.router, config=ServerConfig(worker_processes=2)
    ) as server:
        host, port = server.address
        pids = server._pool.worker_pids()
        assert all(pid for pid in pids)

        outcomes = []

        def run_queries():
            try:
                with VerifyingClient(
                    host, port, trusted_manifests=dict(world.manifests), timeout=30
                ) as client:
                    for _ in range(6):
                        try:
                            result = client.execute(QuerySpec(FULL_RANGE))
                            outcomes.append(("ok", len(result.rows)))
                        except RemoteError as error:
                            outcomes.append(("remote", error.code))
            except BaseException as error:  # pragma: no cover - surfaced below
                outcomes.append(("fatal", repr(error)))

        thread = threading.Thread(target=run_queries)
        thread.start()
        time.sleep(0.02)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        thread.join(timeout=60)
        assert not thread.is_alive(), "a worker crash must never hang a client"
        assert outcomes, "the client should have observed something"
        assert all(kind in ("ok", "remote") for kind, _ in outcomes), outcomes
        for kind, detail in outcomes:
            if kind == "remote":
                assert detail == "WorkerCrashed"
        assert server.workers_restarted >= 2

        # The replacement workers answer from the master's current state.
        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests)
        ) as client:
            result = client.execute(QuerySpec(SALARY_RANGE))
            assert result.rows and result.report is not None


def test_crash_during_update_broadcast_does_not_wedge_owner(world):
    """An update raced by worker crashes still completes for the owner."""
    with PublicationServer(
        world.router, config=ServerConfig(worker_processes=2)
    ) as server:
        host, port = server.address
        pids = server._pool.worker_pids()

        def killer():
            time.sleep(0.01)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        thread = threading.Thread(target=killer)
        thread.start()
        with OwnerClient(
            host, port, signature_scheme=world.owner.signature_scheme, timeout=60
        ) as owner_client:
            for index in range(5):
                owner_client.insert(
                    "employees",
                    {
                        "salary": 70_000 + index,
                        "emp_id": f"crash-{index}",
                        "name": "crash race",
                        "dept": 1,
                        "photo": b"\x01" * 16,
                    },
                )
        thread.join(timeout=10)
        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests)
        ) as client:
            result = client.execute(QuerySpec.range("employees", "salary", 70_000, 70_004))
            assert result.report is not None
            assert len(result.rows) == 5
