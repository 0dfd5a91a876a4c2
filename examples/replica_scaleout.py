#!/usr/bin/env python3
"""Scaling reads across cores: one more (untrusted) publisher, not a knob.

A server answers from one core.  To use a second, run a read replica beside it
and put both behind a :class:`~repro.service.FailoverClient`: the durable
primary serves the replication feed (``--serve-replication``); the replica
bootstraps from its snapshot (``--replicate-from``; signing keys come from a
trusted local path, ``--keys-from``, never over the wire) and follows its
owner-signed WAL.  Reads rotate over both processes, writes go to the primary,
and the group's freshness floor refuses a replica answer older than one already
accepted — lag costs a failover, never a stale row.

Run with: ``python examples/replica_scaleout.py``
"""

import os
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import FailoverClient, FreshnessPolicy, QuerySpec
from repro.storage import load_keys

SALARY_RANGE = QuerySpec(
    Query("employees", Conjunction((RangeCondition("salary", 20_000, 60_000),)))
)


def serve(*flags: str):
    """Start ``python -m repro.service`` and read back the port it bound."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", *flags],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return process, int(process.stdout.readline().split()[1])  # "PORT <n>"


def read(client: FailoverClient, times: int):
    results = [client.execute(SALARY_RANGE) for _ in range(times)]
    assert all(result.report is not None for result in results)  # each one verified
    return results[-1]


def main(scratch: str) -> None:
    root = os.path.join(scratch, "primary")
    primary, port = serve("--storage-dir", root, "--serve-replication")
    replica, replica_port = serve(
        "--storage-dir", os.path.join(scratch, "replica"),
        "--replicate-from", f"127.0.0.1:{port}", "--keys-from", root,
    )  # fmt: skip
    print(f"primary on :{port}, read replica on :{replica_port}")
    try:
        owner_key = load_keys(os.path.join(root, "shards", "hr", "keys.json"))["employees"]
        endpoints = [("127.0.0.1", port), ("127.0.0.1", replica_port)]
        with FailoverClient(endpoints, freshness=FreshnessPolicy(max_staleness=60.0)) as client:
            with client.owner_client(owner_key) as owner:
                owner.attest("employees", lifetime=60.0)
                time.sleep(0.2)  # a few 50 ms polls: the replica holds the attestation too
                result = read(client, 6)
                print(f"6 verified reads, {len(result.rows)} rows at sequence "
                      f"{result.manifest_sequence}, failovers: {client.failovers}")
                owner.insert("employees", dict(result.rows[0], emp_id="scaleout-1"))
            result = read(client, 4)
            print(f"after the owner's insert: {len(result.rows)} rows at sequence "
                  f"{result.manifest_sequence}, whichever server answered")
    finally:
        for process in (replica, primary):
            process.terminate()
            process.wait(timeout=30)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        main(directory)
