"""The network-chaos matrix over a live replica group (``pytest -m chaos``).

Real server processes — one durable primary, two ``--replicate-from``
replicas — under the faults the replication design exists to survive:

* **SIGKILL any replica.**  The group keeps answering verified reads through
  the :class:`FailoverClient` (bounded unavailability), and the restarted
  replica catches up to byte-identical answer frames.
* **Partition the primary mid-batch.**  A ``partition-down`` chaos fault
  swallows an update's acknowledgement *after* the primary applied it — the
  lost-ack case.  Resubmitting the identical pre-signed stream completes it
  without duplicating the half-acked update: zero lost acked updates, zero
  doubled ones.
* **Trickle-feed a replica.**  A hedged read races a healthy endpoint once
  the slow one outlives the hedge deadline; the first *verified* answer wins
  inside a bound, instead of inheriting the slow endpoint's latency.

Every answer accepted anywhere in this file is verified (``result.report``)
— the invariant the chaos lane exists to witness is *zero unverified or
stale-accepted answers under network failure*.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import FailoverClient, QuerySpec, VerifyingClient
from repro.service.chaos import ChaosProxy, ChaosRegistry
from repro.service.owner import build_update_request
from repro.service.protocol import (
    ErrorResponse,
    QueryRequest,
    ReplicationStatusRequest,
    ServiceError,
    recv_frame,
    recv_message,
    send_message,
)
from repro.storage.checkpoint import load_keys
from repro.wire import decode
from repro.wire.updates import RecordDelta, UpdateResponse

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not (sys.platform.startswith("linux") or sys.platform == "darwin"),
        reason="the chaos matrix drives POSIX signals over real processes",
    ),
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UPDATES = 3
FULL_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", None, None),))
)


# -- driving the group ---------------------------------------------------------


def _spawn(
    storage_dir: str,
    replicate_from: int | None = None,
    keys_from: str | None = None,
):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_CHAOS", None)
    command = [
        sys.executable,
        "-m",
        "repro.service",
        "--key-bits",
        "512",
        "--storage-dir",
        storage_dir,
    ]
    if replicate_from is None:
        # The primary is the group's replication source — an explicit opt-in.
        command += ["--serve-replication"]
    else:
        command += [
            "--replicate-from",
            f"127.0.0.1:{replicate_from}",
            "--poll-interval",
            "0.05",
        ]
    if keys_from is not None:
        # Signing keys never travel over the replication feed; a fresh
        # replica gets them from the primary's root on this shared host.
        command += ["--keys-from", keys_from]
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
    assert process.stdout.readline().startswith("STORAGE ")
    if replicate_from is not None:
        assert process.stdout.readline().startswith("REPLICATING ")
    return process, port


def _terminate(process) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - last resort
        process.kill()
        process.communicate(timeout=30)


@pytest.fixture()
def group(tmp_path):
    """A primary and two live replicas, each its own process."""
    processes = []
    try:
        primary, primary_port = _spawn(str(tmp_path / "primary"))
        processes.append(primary)
        ports = [primary_port]
        for index in range(2):
            replica, port = _spawn(
                str(tmp_path / f"replica-{index}"),
                replicate_from=primary_port,
                keys_from=str(tmp_path / "primary"),
            )
            processes.append(replica)
            ports.append(port)
        yield {
            "processes": processes,
            "ports": ports,
            "roots": [
                str(tmp_path / "primary"),
                str(tmp_path / "replica-0"),
                str(tmp_path / "replica-1"),
            ],
        }
    finally:
        for process in processes:
            _terminate(process)


def _status(port: int):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, ReplicationStatusRequest(relation_name="employees"))
        return decode(recv_frame(sock))


def _wait_caught_up(primary_port: int, replica_port: int, timeout: float = 20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if _status(replica_port) == _status(primary_port):
                return
        except (OSError, ServiceError):
            pass
        time.sleep(0.05)
    raise AssertionError(
        f"replica on port {replica_port} never caught up with the primary"
    )


def _raw_answer(port: int, identifier: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, QueryRequest(manifest_id=identifier, query=FULL_RANGE))
        frame = recv_frame(sock)
    assert frame is not None
    return frame


def _signed_stream(root: str, port: int, count: int, tag: str):
    """``count`` pre-signed insert frames against the primary's live manifest.

    Pre-signing makes resubmission push the *same bytes* — which is what
    routes a retried, already-applied update through the applied-update
    registry instead of re-signing around it.
    """
    scheme = load_keys(os.path.join(root, "shards", "hr", "keys.json"))[
        "employees"
    ]
    with VerifyingClient("127.0.0.1", port) as client:
        manifest = client.fetch_manifest("employees")
    requests = []
    for index in range(count):
        delta = RecordDelta(
            kind="insert",
            values={
                "emp_id": f"{tag}-{index}",
                "name": f"Chaos {index}",
                "salary": 64_000 + index,
                "dept": 6,
                "photo": bytes([90 + index]) * 16,
            },
        )
        requests.append(build_update_request(scheme, manifest, (delta,)))
        manifest = replace(manifest, sequence=manifest.sequence + 1)
    return requests


def _push_direct(port: int, requests) -> int:
    acked = 0
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        for request in requests:
            send_message(sock, request)
            response = recv_message(sock)
            assert isinstance(response, UpdateResponse), response
            acked += 1
    return acked


def _tagged_rows(port: int, tag: str):
    with VerifyingClient("127.0.0.1", port) as client:
        result = client.execute(QuerySpec(FULL_RANGE))
    assert result.report is not None
    return sorted(
        str(row["emp_id"])
        for row in result.rows
        if str(row["emp_id"]).startswith(f"{tag}-")
    )


# -- the matrix ----------------------------------------------------------------


@pytest.mark.parametrize("victim", [1, 2], ids=["replica-0", "replica-1"])
def test_sigkill_replica_group_keeps_answering_and_catches_up(group, victim):
    ports = group["ports"]
    assert _push_direct(ports[0], _signed_stream(group["roots"][0], ports[0], UPDATES, "kill")) == UPDATES
    for port in ports[1:]:
        _wait_caught_up(ports[0], port)

    process = group["processes"][victim]
    process.kill()
    process.communicate(timeout=30)
    assert process.returncode == -signal.SIGKILL

    # Bounded unavailability: with one replica dead, every read still
    # returns a *verified* answer, and quickly.
    endpoints = [("127.0.0.1", port) for port in ports]
    started = time.monotonic()
    with FailoverClient(endpoints, failure_threshold=1, timeout=5.0) as client:
        for _ in range(3):
            result = client.execute(QuerySpec(FULL_RANGE))
            assert result.report is not None
            assert _tagged_rows_in(result.rows, "kill") == UPDATES
    assert time.monotonic() - started < 20.0

    # More writes while the victim is down, then a restart on its own
    # directory: catch-up is just the poll loop, and the recovered replica's
    # raw answer frame is byte-identical to the primary's.
    assert _push_direct(ports[0], _signed_stream(group["roots"][0], ports[0], 2, "late")) == 2
    revived, port = _spawn(group["roots"][victim], replicate_from=ports[0])
    group["processes"][victim] = revived
    ports[victim] = port
    _wait_caught_up(ports[0], port)
    with VerifyingClient("127.0.0.1", ports[0]) as client:
        identifier = client.relations()["employees"]
    assert _raw_answer(port, identifier) == _raw_answer(ports[0], identifier)


def _tagged_rows_in(rows, tag: str) -> int:
    return sum(1 for row in rows if str(row["emp_id"]).startswith(f"{tag}-"))


def test_partitioned_primary_loses_no_acked_update(group):
    """Arm ``partition-down`` mid-batch: the primary applies an update whose
    acknowledgement never arrives.  The resubmitted identical stream must
    complete — acked work survives, the half-acked update is not doubled."""
    ports = group["ports"]
    requests = _signed_stream(group["roots"][0], ports[0], UPDATES, "part")
    registry = ChaosRegistry()
    acked = 0
    with ChaosProxy("127.0.0.1", ports[0], faults=registry) as proxy:
        with socket.create_connection(proxy.address, timeout=10) as sock:
            sock.settimeout(1.0)
            for index, request in enumerate(requests):
                if index == 1:
                    # From here on the primary's acks vanish in-path.
                    registry.arm("partition-down")
                send_message(sock, request)
                try:
                    response = recv_message(sock)
                except (TimeoutError, OSError, ServiceError):
                    break
                if response is None or isinstance(response, ErrorResponse):
                    break
                acked += 1
    assert acked == 1, "the partition should have swallowed the second ack"

    # The client's view is 1 ack; the primary may hold 2 applied updates.
    # Resubmitting the same bytes finishes the batch exactly once each.
    registry.clear()
    assert _push_direct(ports[0], requests) == UPDATES
    expected = [f"part-{index}" for index in range(UPDATES)]
    assert _tagged_rows(ports[0], "part") == expected
    for port in ports[1:]:
        _wait_caught_up(ports[0], port)
        assert _tagged_rows(port, "part") == expected


def test_trickle_fed_replica_loses_the_hedged_race(group):
    ports = group["ports"]
    registry = ChaosRegistry()
    registry.arm("trickle", 0.005)
    with ChaosProxy("127.0.0.1", ports[1], faults=registry) as proxy:
        with FailoverClient(
            [proxy.address, ("127.0.0.1", ports[0])],
            hedge=True,
            hedge_after=0.05,
            timeout=5.0,
        ) as client:
            started = time.monotonic()
            result = client.execute(QuerySpec(FULL_RANGE))
            elapsed = time.monotonic() - started
            assert result.report is not None
            stats = client.stats()
        assert stats["hedges_fired"] >= 1
        assert stats["hedge_wins"] >= 1
        # The verified answer arrived at healthy-endpoint speed, not at one
        # byte per 5ms.
        assert elapsed < 5.0
