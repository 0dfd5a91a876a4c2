#!/usr/bin/env python3
"""Client/server data publishing over a real socket (the Figure 3 deployment).

Everything earlier examples did in one process is split across the network
here:

1. the owner signs the demo relations and hands them to a publication server
   fronting two shards (``hr`` and ``sales``),
2. a verifying client connects over TCP, fetches the relation manifests
   (cross-checking their canonical 32-byte ids), and issues range and join
   queries — every answer arrives as canonical wire bytes and is verified
   locally before rows are used,
3. we then play attacker: bytes are flipped in transit and rows are tampered
   with, and the client rejects each attempt with a typed error.

Run with: ``python examples/client_server.py``
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import VerificationError
from repro.core.verifier import ResultVerifier
from repro.db.query import Conjunction, JoinQuery, Query, RangeCondition
from repro.service import (
    PublicationServer,
    QuerySpec,
    VerifyingClient,
    build_demo_world,
)
from repro.service.protocol import QueryResponse
from repro.wire import WireFormatError, decode, encode


def main() -> None:
    print("== Owner: signing the demo database (two shards) ==")
    world = build_demo_world(key_bits=512, seed=7)
    for name, identifier in world.router.listing():
        print(f"  {name:10s} manifest id {identifier.hex()[:16]}…")

    with PublicationServer(world.router) as server:
        host, port = server.address
        print(f"\n== Publisher: serving on {host}:{port} ==")

        with VerifyingClient(host, port) as client:
            print("\n== User: range query over the wire ==")
            query = Query(
                "employees",
                Conjunction((RangeCondition("salary", 20_000, 60_000),)),
            )
            result = client.execute(QuerySpec(query))
            print(
                f"  {len(result.rows)} rows verified "
                f"({result.report.hash_operations} hashes, "
                f"{result.report.signature_verifications} signature checks)"
            )

            print("\n== User: PK-FK join over the wire ==")
            join = JoinQuery("orders", "customers", "customer_id", "customer_id")
            join_result = client.execute(QuerySpec(join))
            print(f"  {len(join_result.rows)} joined rows verified")

            print("\n== Attacker: flipping one byte of the response in transit ==")
            blob = encode(
                QueryResponse(rows=result.rows, proof=result.proof)
            )
            flipped = blob[: len(blob) // 2] + bytes(
                (blob[len(blob) // 2] ^ 0xFF,)
            ) + blob[len(blob) // 2 + 1 :]
            verifier = ResultVerifier(
                {"employees": client.fetch_manifest("employees")}
            )
            try:
                tampered = decode(flipped)
                verifier.verify(query, tampered.rows, tampered.proof)
                print("  !! tampering went unnoticed (this must never print)")
            except WireFormatError as error:
                print(f"  rejected at the codec layer: {error}")
            except VerificationError as error:
                print(f"  rejected at the proof layer ({error.reason}): {error}")

            print("\n== Attacker: dropping a qualifying row ==")
            try:
                verifier.verify(query, result.rows[:-1], result.proof)
                print("  !! the incomplete result verified (this must never print)")
            except VerificationError as error:
                print(f"  rejected ({error.reason}): {error}")

    print("\nServer stopped; every genuine answer verified, every attack was caught.")


if __name__ == "__main__":
    main()
