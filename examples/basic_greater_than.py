#!/usr/bin/env python3
"""The Section 3 worked example, step by step, on a plain sorted value list.

Reproduces the paper's own numbers: the list (2000, 3500, 8010, 12100, 25000)
over the domain (0, 100000), the query ``r >= 10000``, and the boundary proof
that the hidden predecessor 8010 is smaller than 10000 — without telling the
user what that value is.  The optimized Section 5.1 digests every published
relation uses are shown with their hash counts; the conceptual formula-(2)
digests, which exist only for this in-process list, run on a tiny domain.

Run with: ``python examples/basic_greater_than.py``
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import DataOwner
from repro.core.basic_scheme import ListPublisher, ListVerifier, SignedValueList
from repro.crypto.hashing import HASH_COUNTER
from repro.db.schema import KeyDomain

VALUES = [2000, 3500, 8010, 12100, 25000]
DOMAIN = KeyDomain(0, 100_000)
ALPHA = 10_000


def run(base: int) -> None:
    owner = DataOwner(key_bits=512, base=base)
    HASH_COUNTER.reset()
    published = owner.publish_value_list(VALUES, DOMAIN)
    owner_hashes = HASH_COUNTER.reset()

    publisher = ListPublisher(published)
    result, proof = publisher.answer_greater_than(ALPHA)
    publisher_hashes = HASH_COUNTER.reset()

    verifier = ListVerifier(published.manifest)
    report = verifier.verify_greater_than(ALPHA, result, proof)

    print(f"-- optimized digests (B={base}) --")
    print(f"  query r >= {ALPHA} -> result {result}")
    print(f"  owner signing used {owner_hashes:,} hashes; "
          f"publisher proof used {publisher_hashes:,}; "
          f"user verification used {report.hash_operations:,}")
    print(f"  proof ships {proof.digest_count} digests + "
          f"{proof.signature_count} aggregated signature\n")


def main() -> None:
    print(f"Sorted list: {VALUES}, domain {DOMAIN.lower}..{DOMAIN.upper}\n")
    # The conceptual scheme hashes ~(U - r) times per value: feasible here only
    # because the demo domain is small-ish; the optimized scheme is what makes
    # 32-bit keys practical (see benchmarks/bench_optimization_ablation.py).
    run(base=2)
    run(base=10)
    print("(conceptual digests are exercised on a tiny domain to keep the demo fast)")
    demo_values = [5, 10, 20, 30, 40]
    owner = DataOwner(key_bits=512)
    published = SignedValueList(
        KeyDomain(0, 64), demo_values, owner.signature_scheme, scheme_kind="conceptual"
    )
    publisher = ListPublisher(published)
    verifier = ListVerifier(published.manifest)
    result, proof = publisher.answer_greater_than(12)
    verifier.verify_greater_than(12, result, proof)
    print(f"  conceptual scheme on {demo_values}: r >= 12 -> {result} (verified)")


if __name__ == "__main__":
    main()
