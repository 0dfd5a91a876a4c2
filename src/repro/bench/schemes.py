"""Scheme-comparison benchmarks over the *live* publication service.

The paper's claims are comparative (Sections 2.3 and 6): the signature-chain
scheme ships smaller VOs than Merkle-tree publication at low selectivity,
verifies competitively, and updates touch a constant number of signatures
where the tree schemes re-sign whole root paths.  With the serving stack
scheme-polymorphic, those comparisons run end to end — one
:class:`~repro.service.server.PublicationServer` fronting one shard per
registered scheme, the same relation and the same query workload behind each,
measured at the :class:`~repro.service.client.VerifyingClient`:

* **VO bytes vs selectivity** — the actual wire bytes of each scheme's
  verification object, per selectivity (Figure 9's axis, now per scheme),
* **verify ms** — client-side verification wall time per scheme,
* **update cost** — signatures/digests recomputed (and wall time) for one
  owner update batch applied through each scheme's publisher.

``run_scheme_benchmarks`` returns a report fragment keyed like the hot-path
benchmark's ``workloads`` section; ``benchmarks/bench_scheme_comparison.py``
merges it into ``BENCH_hot_paths.json`` and renders
``benchmarks/results/scheme_comparison.txt``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List

from repro.crypto.signature import SignatureScheme, rsa_scheme
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.schemes import available_schemes, get_scheme
from repro.service.client import QuerySpec, VerifyingClient
from repro.service.config import ServerConfig
from repro.service.router import ShardRouter
from repro.service.server import PublicationServer
from repro.wire import encode
from repro.wire.updates import RecordDelta

__all__ = [
    "SchemeBenchConfig",
    "SMOKE_SCHEME_CONFIG",
    "run_scheme_benchmarks",
]


@dataclass(frozen=True)
class SchemeBenchConfig:
    """Workload sizes for one scheme-comparison run."""

    key_bits: int = 512
    table_rows: int = 300
    selectivities: tuple = (0.01, 0.05, 0.10, 0.20, 0.40)
    verify_rounds: int = 5
    update_rounds: int = 3
    #: Blob attribute size per record.  Deliberately realistic (a small photo)
    #: because it is what the paper's Section 2.3 precision criticism is
    #: about: the Devanbu VO must ship boundary (and expanded) tuples whole,
    #: blobs included, while the chain VO carries only fixed-size digests —
    #: so VO size comparisons are meaningless on toy records.
    photo_bytes: int = 1024


#: Scaled-down configuration for the tier-1 smoke test and the CI gate.
SMOKE_SCHEME_CONFIG = SchemeBenchConfig(
    table_rows=48,
    selectivities=(0.05, 0.20),
    verify_rounds=2,
    update_rounds=1,
    photo_bytes=1024,
)

_SALARY_LOW, _SALARY_HIGH = 1, 99_999


def _selectivity_query(hosting: str, selectivity: float) -> Query:
    width = max(1, int((_SALARY_HIGH - _SALARY_LOW) * selectivity))
    mid = (_SALARY_HIGH + _SALARY_LOW) // 2
    low = max(_SALARY_LOW, mid - width // 2)
    return Query(
        hosting, Conjunction((RangeCondition("salary", low, low + width),))
    )


def _build_worlds(scheme_sig: SignatureScheme, config: SchemeBenchConfig):
    """One publication + publisher per registered scheme, same logical data."""
    worlds = {}
    shards = {}
    for name in available_schemes():
        scheme = get_scheme(name)
        relation = workload.generate_employees(
            config.table_rows, seed=21, photo_bytes=config.photo_bytes
        )
        publication = scheme.publish(relation, scheme_sig)
        hosting = f"employees_{name}"
        publisher = scheme.make_publisher({hosting: publication})
        worlds[name] = (hosting, publication, publisher)
        shards[name] = publisher
    return worlds, shards


def _update_batch(publication, marker: int):
    victim = publication.relation[len(publication.relation) // 2]
    replacement = dict(victim.as_dict())
    replacement["name"] = f"upd-{marker}"
    return (
        RecordDelta(
            kind="update", values=replacement, old_values=victim.as_dict()
        ),
    )


def run_scheme_benchmarks(
    config: SchemeBenchConfig = SchemeBenchConfig(),
) -> Dict:
    """Run the live scheme comparison and return a report fragment."""
    scheme_sig = rsa_scheme(bits=config.key_bits)
    worlds, shards = _build_worlds(scheme_sig, config)
    router = ShardRouter(shards)
    per_scheme: Dict[str, Dict] = {}

    with PublicationServer(router, config=ServerConfig(max_workers=4)) as server:
        host, port = server.address
        for name, (hosting, publication, publisher) in worlds.items():
            scheme = get_scheme(name)
            allow = not scheme.proves_completeness
            points: List[Dict[str, object]] = []
            with VerifyingClient(host, port) as client:
                client.fetch_manifest(hosting)
                for selectivity in config.selectivities:
                    query = _selectivity_query(hosting, selectivity)
                    result = client.execute(QuerySpec(query, allow_incomplete=allow))
                    vo_bytes = (
                        len(encode(result.proof))
                        if result.proof is not None
                        else 0
                    )
                    verifier = client.scheme_verifier_for(hosting) if name != "chain" else client.verifier
                    best = float("inf")
                    for _ in range(config.verify_rounds):
                        start = time.perf_counter()
                        verifier.verify(query, result.rows, result.proof)
                        best = min(best, time.perf_counter() - start)
                    points.append(
                        {
                            "selectivity": selectivity,
                            "result_rows": len(result.rows),
                            "vo_bytes": vo_bytes,
                            "verify_ms": round(best * 1000.0, 3),
                        }
                    )
            per_scheme[name] = {
                "proves_completeness": scheme.proves_completeness,
                "points": points,
            }

    # Update cost: applied through each scheme's publisher (the same path the
    # server's update dispatch takes), counted via the merged receipts.
    for name, (hosting, publication, publisher) in worlds.items():
        signatures = digests = 0
        best = float("inf")
        for round_index in range(config.update_rounds):
            batch = _update_batch(publication, round_index)
            start = time.perf_counter()
            receipt = publisher.apply_deltas(hosting, batch)
            best = min(best, time.perf_counter() - start)
            signatures = receipt.signatures_recomputed
            digests = receipt.digests_recomputed
        per_scheme[name]["update"] = {
            "signatures_recomputed": signatures,
            "digests_recomputed": digests,
            "best_ms": round(best * 1000.0, 3),
        }

    lowest = min(config.selectivities)

    def _vo_at_lowest(name: str) -> int:
        for point in per_scheme[name]["points"]:
            if point["selectivity"] == lowest:
                return point["vo_bytes"]
        return 0

    chain_vo = _vo_at_lowest("chain")
    devanbu_vo = _vo_at_lowest("devanbu")
    return {
        "scheme_config": asdict(config),
        "workloads": {
            "scheme_comparison": {
                "table_rows": config.table_rows,
                "lowest_selectivity": lowest,
                "chain_vo_bytes_low_selectivity": chain_vo,
                "devanbu_vo_bytes_low_selectivity": devanbu_vo,
                # The paper's Section 2.3 claim, gated in CI: at low
                # selectivity the chain VO must stay below the Devanbu VO
                # (which carries O(log n) digests *and* full boundary tuples).
                "chain_vo_below_devanbu": bool(
                    chain_vo and devanbu_vo and chain_vo < devanbu_vo
                ),
                "schemes": per_scheme,
            }
        },
    }
