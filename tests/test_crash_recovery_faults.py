"""The SIGKILL crash/restart matrix over the durable demo server.

For every registered failpoint, a real server process is killed mid-flight
(``os._exit(137)`` at the hook — no atexit, no flushing, the honest crash),
restarted on the same storage directory, and then driven to the end of the
same pre-signed update stream.  The recovered server must be byte-identical
— relation listing, latest owner-signed rotation, raw query answer frames —
to a *shadow* server that served the identical stream uninterrupted, and no
update that was acknowledged before the kill may be missing after restart.

The update frames are pre-signed once against the bootstrapped state (the
owner key persisted in the shard's ``keys.json``), so the crashed run, the
resubmission and the shadow run all push the *same bytes* — which is also
what makes resubmission after a lost acknowledgement exercise the
applied-update registry rather than re-signing around it.

One of the failpoints sits inside the relation store's transaction commit:
the kill lands with the update frame logged but the store rolled back.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import QuerySpec, VerifyingClient
from repro.service.owner import build_update_request
from repro.service.protocol import (
    ErrorResponse,
    QueryRequest,
    RotationRequest,
    ServiceError,
    recv_frame,
    recv_message,
    send_message,
)
from repro.storage import PublicationStorage, recover_router
from repro.storage.checkpoint import load_keys
from repro.storage.faults import FAILPOINTS, KILL_EXIT_STATUS
from repro.wire.updates import RecordDelta, UpdateResponse

pytestmark = [
    pytest.mark.faults,
    pytest.mark.skipif(
        not (sys.platform.startswith("linux") or sys.platform == "darwin"),
        reason="the crash matrix drives POSIX signals and exit codes",
    ),
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UPDATES = 4
FULL_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", None, None),))
)

#: failpoint -> (REPRO_FAULTS spec, --checkpoint-every for the crashed run).
#: The ``@hit`` offsets are chosen to land in the middle of the stream: the
#: WAL appends twice per update (the request frame, then the rotation), the
#: other hooks fire once per update or per response flush.
CRASH_MATRIX = {
    "wal-before-fsync": ("wal-before-fsync:kill@3", 0),
    "wal-mid-record": ("wal-mid-record:kill@2", 0),
    "update-after-apply": ("update-after-apply:kill@2", 0),
    "conn-mid-frame": ("conn-mid-frame:kill", 0),
    "checkpoint-before-swap": ("checkpoint-before-swap:kill", 1),
    # Fires once per applied update (the whole update commits in one outer
    # store transaction), so ``@2`` kills the server with update 1 fully
    # durable and update 2 rolled back to the WAL — recovery must re-apply
    # exactly the rolled-back half.
    "relstore-before-commit": ("relstore-before-commit:kill@2", 0),
}


def test_every_registered_failpoint_is_in_the_matrix():
    assert set(CRASH_MATRIX) == set(FAILPOINTS)


# -- driving real server processes ---------------------------------------------


def _spawn(storage_dir: str, fault: str = "", checkpoint_every: int = 0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop("REPRO_FAULTS", None)
    if fault:
        env["REPRO_FAULTS"] = fault
    command = [
        sys.executable,
        "-m",
        "repro.service",
        "--key-bits",
        "512",
        "--storage-dir",
        storage_dir,
    ]
    if checkpoint_every:
        command += ["--checkpoint-every", str(checkpoint_every)]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=REPO_ROOT,
    )
    port_line = process.stdout.readline().strip()
    assert port_line.startswith("PORT "), f"unexpected server output: {port_line!r}"
    port = int(port_line.split()[1])
    assert process.stdout.readline().startswith("RELATIONS ")
    storage_line = process.stdout.readline().strip()
    assert storage_line.startswith("STORAGE ")
    return process, port, storage_line.split()[1]


def _terminate(process) -> str:
    process.send_signal(signal.SIGTERM)
    _, stderr = process.communicate(timeout=30)
    assert process.returncode == 0, (
        f"graceful shutdown exited {process.returncode}: {stderr}"
    )
    return stderr


def _push(port: int, requests):
    """Send pre-signed update frames until the stream ends or the peer dies."""
    acked = 0
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            for request in requests:
                send_message(sock, request)
                response = recv_message(sock)
                if response is None or isinstance(response, ErrorResponse):
                    break
                assert isinstance(response, UpdateResponse)
                acked += 1
    except (ServiceError, OSError):
        pass
    return acked


def _capture_state(port: int):
    """The recovered-vs-shadow comparison surface, as raw wire bytes."""
    with VerifyingClient("127.0.0.1", port) as client:
        listing = client.relations()
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_message(sock, RotationRequest("employees"))
        rotation_frame = recv_frame(sock)
        send_message(
            sock,
            QueryRequest(manifest_id=listing["employees"], query=FULL_RANGE),
        )
        answer_frame = recv_frame(sock)
    return {
        "listing": listing,
        "rotation": rotation_frame,
        "answer": answer_frame,
    }


def _crash_row_count(port: int) -> int:
    """How many of the stream's inserts a live server currently holds."""
    with VerifyingClient("127.0.0.1", port) as client:
        rows = client.execute(QuerySpec(FULL_RANGE)).rows
    return sum(1 for row in rows if str(row["emp_id"]).startswith("crash-"))


# -- the shared fixtures: one bootstrap, one pre-signed stream, one shadow -----


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    """A storage root bootstrapped by a real server run, shut down cleanly."""
    root = tmp_path_factory.mktemp("crash-seed") / "pub"
    process, _, origin = _spawn(str(root))
    assert origin == "bootstrapped"
    _terminate(process)
    return root


@pytest.fixture(scope="module")
def signed_requests(seed_dir, tmp_path_factory):
    """UPDATES pre-signed insert frames against the bootstrapped manifests."""
    probe = tmp_path_factory.mktemp("crash-probe") / "pub"
    shutil.copytree(seed_dir, probe)
    storage = PublicationStorage.open(str(probe))
    router = recover_router(storage)
    storage.close()
    scheme = load_keys(str(probe / "shards" / "hr" / "keys.json"))["employees"]
    manifest = router.manifest_by_name("employees")
    requests = []
    for index in range(UPDATES):
        delta = RecordDelta(
            kind="insert",
            values={
                "emp_id": f"crash-{index}",
                "name": f"Survivor {index}",
                "salary": 60_000 + index,
                "dept": 5,
                "photo": bytes([40 + index]) * 16,
            },
        )
        requests.append(build_update_request(scheme, manifest, (delta,)))
        manifest = replace(manifest, sequence=manifest.sequence + 1)
    return requests


@pytest.fixture(scope="module")
def shadow_state(seed_dir, signed_requests, tmp_path_factory):
    """The uninterrupted run every crashed-and-recovered run must equal."""
    root = tmp_path_factory.mktemp("crash-shadow") / "pub"
    shutil.copytree(seed_dir, root)
    process, port, origin = _spawn(str(root))
    try:
        assert origin == "recovered"
        assert _push(port, signed_requests) == UPDATES
        return _capture_state(port)
    finally:
        _terminate(process)


# -- the matrix ----------------------------------------------------------------


@pytest.mark.parametrize("failpoint", sorted(CRASH_MATRIX))
def test_sigkill_at_failpoint_recovers_byte_identically(
    failpoint, seed_dir, signed_requests, shadow_state, tmp_path
):
    fault, checkpoint_every = CRASH_MATRIX[failpoint]
    root = tmp_path / "pub"
    shutil.copytree(seed_dir, root)

    # Run 1: crash mid-stream at the armed failpoint.
    process, port, origin = _spawn(str(root), fault=fault, checkpoint_every=checkpoint_every)
    assert origin == "recovered"
    acked = _push(port, signed_requests)
    process.communicate(timeout=30)
    assert process.returncode == KILL_EXIT_STATUS, (
        f"{failpoint}: the failpoint did not kill the server "
        f"(exit {process.returncode}, {acked} update(s) acked)"
    )
    assert acked < UPDATES, f"{failpoint}: the kill landed after the whole stream"

    # Run 2: restart on the crashed directory.
    process, port, origin = _spawn(str(root))
    try:
        assert origin == "recovered"
        # No acknowledged update may be lost (fsync=always acks are durable).
        assert _crash_row_count(port) >= acked, (
            f"{failpoint}: an acknowledged update vanished across the crash"
        )
        # Resubmitting the identical stream completes it: already-applied
        # frames answer from the applied-update registry, the rest apply.
        assert _push(port, signed_requests) == UPDATES
        assert _capture_state(port) == shadow_state, (
            f"{failpoint}: recovered state diverges from the uninterrupted run"
        )
    finally:
        _terminate(process)


# -- graceful shutdown (the satellite the matrix leans on) ---------------------


def test_sigterm_shuts_down_gracefully_and_preserves_state(
    seed_dir, signed_requests, shadow_state, tmp_path
):
    """SIGTERM mid-service: exit 0, stats on stderr, durable state intact."""
    root = tmp_path / "pub"
    shutil.copytree(seed_dir, root)
    process, port, _ = _spawn(str(root))
    assert _push(port, signed_requests) == UPDATES
    stderr = _terminate(process)
    assert "CACHE_STATS " in stderr

    process, port, origin = _spawn(str(root))
    try:
        assert origin == "recovered"
        assert _capture_state(port) == shadow_state
    finally:
        _terminate(process)


def test_sigint_is_graceful_too(seed_dir, tmp_path):
    root = tmp_path / "pub"
    shutil.copytree(seed_dir, root)
    process, _, _ = _spawn(str(root))
    process.send_signal(signal.SIGINT)
    _, stderr = process.communicate(timeout=30)
    assert process.returncode == 0, stderr
    assert "CACHE_STATS " in stderr
