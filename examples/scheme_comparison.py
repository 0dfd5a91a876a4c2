#!/usr/bin/env python3
"""One relation, three proof schemes, one server — and a scheme-swap attack.

The SIGMOD 2005 paper's claims are comparative: its signature-chain scheme
against Merkle-tree publication (Devanbu et al. 2000) and the VB-tree (Pang &
Tan 2004).  With the serving stack scheme-polymorphic, that comparison runs
live:

1. the owner publishes the *same* employee relation under the ``chain``,
   ``devanbu`` and ``vbtree`` schemes (one scheme-tagged manifest each),
2. a single :class:`~repro.service.PublicationServer` fronts all three,
3. a :class:`~repro.service.VerifyingClient` queries each hosting and
   verifies every answer under the scheme named by its pinned manifest —
   including the explicit ``allow_incomplete=True`` opt-in the VB-tree needs
   because it cannot prove completeness,
4. we then play attacker: a *correctly signed* manifest rotation that swaps
   the chain relation to the VB-tree scheme is presented to the client, and
   is rejected with a typed ``SchemeMismatchError`` — a rotation may update
   data, never weaken the proof scheme.

Run with: ``python examples/scheme_comparison.py``
"""

import dataclasses
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.crypto.signature import rsa_scheme
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.schemes import CompletenessUnsupported, SchemeMismatchError, get_scheme
from repro.service import PublicationServer, QuerySpec, ShardRouter, VerifyingClient
from repro.wire import encode, manifest_id
from repro.wire.updates import ManifestRotated, manifest_signing_message

SCHEMES = ("chain", "devanbu", "vbtree")


def main() -> None:
    print("== Owner: one relation, published under three proof schemes ==")
    signature_scheme = rsa_scheme(bits=512)
    shards = {}
    for name in SCHEMES:
        scheme = get_scheme(name)
        relation = workload.generate_employees(60, seed=13, photo_bytes=64)
        publication = scheme.publish(relation, signature_scheme)
        hosting = f"employees_{name}"
        shards[name] = scheme.make_publisher({hosting: publication})
        print(
            f"  {hosting:18s} scheme={name:8s} "
            f"manifest id {manifest_id(publication.manifest).hex()[:16]}…"
        )

    router = ShardRouter(shards)
    with PublicationServer(router) as server:
        host, port = server.address
        print(f"\n== Publisher: one server for all three schemes ({host}:{port}) ==")

        with VerifyingClient(host, port) as client:
            print("\n== User: the same range query, verified under each scheme ==")
            for name in SCHEMES:
                hosting = f"employees_{name}"
                manifest = client.fetch_manifest(hosting)
                assert manifest.scheme == name
                query = Query(
                    hosting,
                    Conjunction((RangeCondition("salary", 20_000, 60_000),)),
                )
                scheme = get_scheme(name)
                if scheme.proves_completeness:
                    result = client.execute(QuerySpec(query))
                    note = "completeness + authenticity"
                else:
                    try:
                        client.execute(QuerySpec(query))
                        raise AssertionError("opt-in gate did not fire")
                    except CompletenessUnsupported:
                        pass  # the typed gate: under-verification is explicit
                    result = client.execute(QuerySpec(query, allow_incomplete=True))
                    note = "authenticity only (explicit allow_incomplete)"
                vo_bytes = len(encode(result.proof))
                print(
                    f"  {name:8s} {len(result.rows):2d} rows verified, "
                    f"VO {vo_bytes:5d} bytes  [{note}]"
                )

            print("\n== Attacker: a signed rotation that swaps the scheme ==")
            pinned = client.fetch_manifest("employees_chain")
            downgraded = dataclasses.replace(
                pinned, scheme="vbtree", sequence=pinned.sequence + 1
            )
            previous = manifest_id(pinned)
            # The attacker even holds the owner's key here (worst case): the
            # rotation signature is genuine, yet the client still refuses.
            forged = ManifestRotated(
                manifest=downgraded,
                previous_id=previous,
                owner_signature=signature_scheme.sign(
                    manifest_signing_message(downgraded, previous)
                ),
            )
            try:
                client._validate_rotation("employees_chain", pinned, forged)
                print("  !! the scheme swap was accepted (this must never print)")
            except SchemeMismatchError as error:
                print(f"  rejected ({error.reason}): {error}")

    print(
        "\nServer stopped; every scheme verified under its own tag, and the "
        "downgrade was caught."
    )


if __name__ == "__main__":
    main()
