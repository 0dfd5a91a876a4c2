#!/usr/bin/env python3
"""Live updates: the owner mutates a *deployed* publisher over the wire.

The paper's Section 6.3 update scheme, as a running service:

1. the owner signs the demo database and a publication server starts serving
   it; a verifying client pins the manifests (its trust root) and queries,
2. the owner connects with an :class:`~repro.service.OwnerClient` and pushes
   signed insert/delete/update deltas — the server verifies each batch's
   owner signature, applies it through the receipt machinery, and *rotates*
   the manifest (the sequence bumps, so the 32-byte manifest id changes),
3. the client's next query detects the manifest-id mismatch on the answer,
   fetches the rotation notification, authenticates it against the key it
   already pinned (continuity + signature + strictly increasing sequence),
   re-pins, retries — and the refreshed answer verifies,
4. we then play attacker: a delta batch signed by the wrong key and a
   replayed (captured) batch are both rejected with typed errors.

Run with: ``python examples/live_updates.py``
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    OwnerClient,
    PublicationServer,
    QuerySpec,
    RecordDelta,
    RemoteError,
    VerifyingClient,
    build_demo_world,
    build_update_request,
)
from repro.crypto.signature import rsa_scheme

SALARY_RANGE = Query(
    "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
)


def new_employee(salary: int, name: str) -> dict:
    return {
        "salary": salary,
        "emp_id": f"live-{salary}",
        "name": name,
        "dept": 4,
        "photo": bytes([salary % 251]) * 16,
    }


def main() -> None:
    print("== Owner: signing the demo database ==")
    world = build_demo_world(key_bits=512, seed=7)

    with PublicationServer(world.router) as server:
        host, port = server.address
        print(f"== Publisher: serving on {host}:{port} ==\n")

        with VerifyingClient(
            host, port, trusted_manifests=dict(world.manifests)
        ) as client, OwnerClient(
            host, port, world.owner.signature_scheme
        ) as owner_client:
            result = client.execute(QuerySpec(SALARY_RANGE))
            print(
                f"client sees {len(result.rows)} employees in range at "
                f"manifest sequence {result.manifest_sequence}"
            )

            print("\n== Owner pushes live deltas ==")
            hired = new_employee(42_000, "NEWHIRE")
            receipt = owner_client.insert("employees", hired)
            print(
                f"insert applied: {receipt.signatures_recomputed} signatures, "
                f"{receipt.digests_recomputed} digest, chain messages "
                f"{receipt.chain_messages_recomputed}"
            )

            raised = dict(hired, salary=55_000)
            response = owner_client.push(
                "employees",
                (RecordDelta(kind="update", values=raised, old_values=hired),),
            )
            print(
                "update applied: manifest rotated "
                f"{response.rotation.previous_id.hex()[:12]}… -> sequence "
                f"{response.rotation.manifest.sequence}"
            )

            print("\n== Client observes the rotation and re-pins ==")
            refreshed = client.execute(QuerySpec(SALARY_RANGE))
            print(
                f"client now sees {len(refreshed.rows)} employees at "
                f"sequence {refreshed.manifest_sequence} "
                f"(rotations observed: {client.rotations_observed})"
            )
            assert refreshed.report is not None
            assert any(row["name"] == "NEWHIRE" for row in refreshed.rows)

            print("\n== Attacker: forged and replayed updates ==")
            imposter_key = rsa_scheme(bits=512)
            manifest = owner_client.manifest("employees")
            forged = build_update_request(
                imposter_key,
                manifest,
                (RecordDelta(kind="insert", values=new_employee(30_000, "EVIL")),),
            )
            try:
                owner_client._request(forged, object)
            except RemoteError as error:
                print(f"forged batch rejected: {error.code} ({error.reason})")

            batch = (RecordDelta(kind="insert", values=new_employee(31_000, "ONCE")),)
            genuine = build_update_request(
                world.owner.signature_scheme, manifest, batch
            )
            owner_client._request(genuine, object)
            print("genuine batch applied once")
            try:
                owner_client._request(genuine, object)
            except RemoteError as error:
                print(f"replayed batch rejected: {error.code} ({error.reason})")

    print("\nLive-update walkthrough complete.")


if __name__ == "__main__":
    main()
