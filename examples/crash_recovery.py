#!/usr/bin/env python3
"""Durability: a publication server survives SIGKILL without losing updates.

The durable serving stack from :mod:`repro.storage`, end to end:

1. a server bootstraps the demo database into a storage directory — a
   relation store holding rows and the owner's chain signatures,
   per-relation write-ahead logs (owner-signed update frames, fsynced
   before each acknowledgement) and owner-signed checkpoints,
2. the owner pushes signed inserts over the wire (with a
   :class:`~repro.service.retry.RetryPolicy`, so a torn connection would be
   resent and deduplicated by the server's applied-update registry),
3. the server is killed with SIGKILL — no shutdown hooks, no flushing —
   exactly the crash the log exists for,
4. a restarted server recovers from store + WAL replay (re-verifying
   every owner signature), resumes the *same* manifest id, and a verifying
   client finds every acknowledged row present and provable,
5. ``walctl verify`` re-checks the whole directory offline.

Run with: ``python examples/crash_recovery.py``
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import OwnerClient, QuerySpec, VerifyingClient
from repro.service.retry import RetryPolicy
from repro.storage.checkpoint import load_keys

SALARIES = Query(
    "employees", Conjunction((RangeCondition("salary", None, None),))
)


def start_server(storage_dir: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--key-bits",
            "512",
            "--storage-dir",
            storage_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
        cwd=_REPO_ROOT,
    )
    port = int(process.stdout.readline().split()[1])  # "PORT <n>"
    process.stdout.readline()  # "RELATIONS ..."
    origin = process.stdout.readline().split()[1]  # "STORAGE <origin>"
    return process, port, origin


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        storage_dir = os.path.join(scratch, "publication")

        print("== Run 1: bootstrap the durable publication ==")
        server, port, origin = start_server(storage_dir)
        print(f"serving on port {port}, storage {origin}")

        # The durable root persists the owner's signing keys with the shard
        # (this deployment model trusts the publisher host with the key).
        owner_key = load_keys(
            os.path.join(storage_dir, "shards", "hr", "keys.json")
        )["employees"]

        with OwnerClient(
            "127.0.0.1",
            port,
            signature_scheme=owner_key,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.05),
        ) as owner:
            for index in range(3):
                owner.insert(
                    "employees",
                    {
                        "emp_id": f"durable-{index}",
                        "name": f"Logged Before Ack {index}",
                        "salary": 64_000 + index,
                        "dept": 6,
                        "photo": bytes([index + 1]) * 16,
                    },
                )
        with VerifyingClient("127.0.0.1", port) as client:
            manifest_before = client.relations()["employees"]
        print(f"3 inserts acknowledged; manifest id {manifest_before.hex()[:16]}…")

        print("\n== Crash: SIGKILL, no cleanup ==")
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        print(f"server killed (exit {server.returncode})")
        time.sleep(0.1)

        print("\n== Run 2: recover from relation store + write-ahead log ==")
        server, port, origin = start_server(storage_dir)
        try:
            print(f"serving on port {port}, storage {origin}")
            with VerifyingClient("127.0.0.1", port) as client:
                manifest_after = client.relations()["employees"]
                result = client.execute(QuerySpec(SALARIES))
            assert manifest_after == manifest_before, "manifest id changed!"
            recovered = sorted(
                row["emp_id"]
                for row in result.rows
                if str(row["emp_id"]).startswith("durable-")
            )
            assert recovered == ["durable-0", "durable-1", "durable-2"]
            print(f"same manifest id resumed: {manifest_after.hex()[:16]}…")
            print(f"acknowledged rows present and verified: {recovered}")
            print(f"completeness proof verified: {result.report is not None}")
        finally:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
        print(f"graceful shutdown (exit {server.returncode})")

        print("\n== walctl: offline log verification ==")
        audit = subprocess.run(
            [sys.executable, "-m", "repro.storage.walctl", "verify", storage_dir],
            capture_output=True,
            text=True,
            cwd=_REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(_REPO_ROOT, "src"),
            },
        )
        print(audit.stdout.strip())
        assert audit.returncode == 0


if __name__ == "__main__":
    main()
