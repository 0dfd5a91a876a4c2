#!/usr/bin/env python3
"""One relation, four proof schemes, in one process — the paper's comparison.

The SIGMOD 2005 paper's claims are comparative: its signature-chain scheme
against Merkle-tree publication (Devanbu et al. 2000), the VB-tree (Pang &
Tan 2004) and naive per-tuple signatures.  The paper makes that comparison
analytically and in process, and so does this walkthrough:

1. the owner publishes the *same* employee relation under every scheme of
   ``repro.schemes.SCHEMES``,
2. each scheme's publisher answers the same range query with its own VO, and
   each scheme's verifier checks it — we print rows, VO bytes and what the
   scheme proves,
3. then we play a publisher that drops the last qualifying row (and, under
   the naive scheme, its signature): the chain scheme refuses the answer, the
   naive scheme cannot notice — the completeness gap the chain closes.

Only the chain scheme is served over the wire; ``examples/client_server.py``
shows that side.

Run with: ``python examples/scheme_comparison.py``
"""

import dataclasses
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.errors import VerificationError
from repro.crypto.signature import rsa_scheme
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.schemes import CHAIN, NAIVE, SCHEMES
from repro.wire import encode


def main() -> None:
    print("== Owner: one relation, published under every proof scheme ==")
    signature_scheme = rsa_scheme(bits=512)
    query = Query(
        "employees", Conjunction((RangeCondition("salary", 20_000, 60_000),))
    )
    answers = {}
    for scheme in SCHEMES:
        relation = workload.generate_employees(60, seed=13, photo_bytes=64)
        publication = scheme.publish(relation, signature_scheme)
        publisher = scheme.make_publisher({"employees": publication})
        verifier = scheme.verifier_for("employees", publication.manifest)
        result = publisher.answer(query)
        rows = [dict(row) for row in result.rows]
        verifier.verify(query, rows, result.proof)
        answers[scheme.name] = (verifier, rows, result.proof)
        proves = (
            "completeness + authenticity"
            if scheme.proves_completeness
            else "authenticity only"
        )
        print(
            f"  {scheme.name:8s} {len(rows):2d} rows verified, "
            f"VO {len(encode(result.proof)):5d} bytes  [{proves}]"
        )

    print("\n== Publisher: drop the last qualifying row ==")
    verifier, rows, proof = answers[CHAIN.name]
    try:
        verifier.verify(query, rows[:-1], proof)
        print("  !! chain accepted a truncated answer (this must never print)")
    except VerificationError as error:
        print(f"  chain    refused ({error.reason})")
    verifier, rows, proof = answers[NAIVE.name]
    truncated = dataclasses.replace(proof, signatures=proof.signatures[:-1])
    report = verifier.verify(query, rows[:-1], truncated)
    print(
        f"  naive    accepted {report.result_rows} of {len(rows)} rows: "
        "the omission is invisible without a completeness proof"
    )


if __name__ == "__main__":
    main()
