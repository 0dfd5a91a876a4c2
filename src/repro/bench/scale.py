"""Zipfian load generator + latency percentiles at database scale.

The paper's practicality claim is about *database*-sized relations, so this
harness measures the serving stack at 10^5 (and, nightly, 10^6) rows instead
of the toy tables the other workloads use:

* **Ingest** — :func:`~repro.storage.relstore.build_stored_chain` streams a
  dense-key relation straight onto disk (peak memory O(batch), signatures
  batch-signed), timed as rows/second.
* **Recovery** — the store is closed and re-attached the way
  :func:`~repro.storage.recovery.recover_router` does it
  (:class:`~repro.storage.relstore.StoredSignedRelation`), timed and
  tracemalloc-bounded: attaching must *not* materialise the rows.
* **Serving** — a live :class:`~repro.service.server.PublicationServer` is
  driven over TCP with a seeded scrambled-zipfian operation mix (point
  queries, range scans, owner update batches — YCSB-style, theta 0.99 by
  default) and per-class latency percentiles (p50/p95/p99) are recorded.
  Queries run fully verified on the client; updates run through the owner
  client's sign → push → authenticated-rotation round trip and persist
  through the relation store, so every number carries its honest
  cryptographic and durability cost.

``run_scale_benchmarks`` returns a ``workloads`` fragment
(``scale_serving``); ``benchmarks/bench_scale.py`` merges it into
``BENCH_hot_paths.json`` and ``check_bench_floors.py --scale`` gates the
p99 and ingest floors in CI.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from repro.crypto.backend import backend_stats
from repro.crypto.signature import SignatureScheme, rsa_scheme
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.service.client import QuerySpec, VerifyingClient
from repro.service.config import ServerConfig
from repro.service.owner import OwnerClient
from repro.service.router import ShardRouter
from repro.service.server import PublicationServer
from repro.storage.relstore import (
    RelationStore,
    StoredSignedRelation,
    _UNLOADED,
    build_stored_chain,
)
from repro.wire import decode
from repro.wire.updates import ManifestRotated, RecordDelta

__all__ = [
    "ScaleConfig",
    "SMOKE_SCALE_CONFIG",
    "ZipfianKeys",
    "run_scale_benchmarks",
]

RELATION = "metrics"


@dataclass(frozen=True)
class ScaleConfig:
    """One scale-benchmark run: row count, operation mix, zipfian skew."""

    rows: int = 100_000
    #: Total mixed operations driven against the live server.
    operations: int = 900
    #: Operation-mix fractions; the remainder (1 - point - range) is the
    #: owner-update fraction.
    point_fraction: float = 0.45
    range_fraction: float = 0.45
    #: Width (in key space) of one range scan.
    range_width: int = 40
    #: YCSB-style zipfian constant; 0.99 is the standard "hot-spot" skew.
    zipf_theta: float = 0.99
    key_bits: int = 512
    #: Ingest batch size — the O(batch) peak-memory bound of the streaming
    #: chain build, and the signature batch the owner signs at once.
    batch_size: int = 512
    #: Relation-store fsync policy while serving updates.
    fsync: str = "batch"
    seed: int = 97

    def __post_init__(self) -> None:
        if self.rows < 10:
            raise ValueError("rows must be >= 10")
        if not (0.0 <= self.point_fraction + self.range_fraction <= 1.0):
            raise ValueError("point_fraction + range_fraction must be within [0, 1]")


#: Scaled-down configuration for the tier-1 smoke test.
SMOKE_SCALE_CONFIG = ScaleConfig(rows=800, operations=45, batch_size=128)


# -- zipfian key choice --------------------------------------------------------


def _fnv64(value: int) -> int:
    """FNV-1a over the rank's 8 little-endian bytes (YCSB's scrambler)."""
    digest = 0xCBF29CE484222325
    for _ in range(8):
        digest ^= value & 0xFF
        digest = (digest * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return digest


class ZipfianKeys:
    """Scrambled-zipfian generator over the dense key space ``1..items``.

    The rank distribution is Gray/YCSB zipfian (zeta constants precomputed
    once — the only O(items) step); ranks are then scattered across the key
    space with an FNV hash so the hot set is not one contiguous run of
    neighbouring keys.
    """

    def __init__(self, items: int, theta: float, rng: random.Random) -> None:
        self.items = items
        self.theta = theta
        self.rng = rng
        self.zetan = sum(1.0 / (i**theta) for i in range(1, items + 1))
        self.zeta2 = 1.0 + 0.5**theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / items) ** (1.0 - theta)) / (
            1.0 - self.zeta2 / self.zetan
        )

    def next_rank(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return int(self.items * ((self.eta * u - self.eta + 1.0) ** self.alpha))

    def next_key(self) -> int:
        return 1 + (_fnv64(self.next_rank()) % self.items)


# -- the dense-key workload ----------------------------------------------------


def metrics_schema(rows: int) -> Schema:
    """Dense integer keys ``1..rows`` so zipfian ranks map onto real rows."""
    return Schema.build(
        RELATION,
        [
            Attribute(
                "metric_id",
                AttributeType.INTEGER,
                domain=KeyDomain(0, rows + 1),
                size_hint=8,
            ),
            Attribute("value", AttributeType.INTEGER, size_hint=8),
            Attribute("label", AttributeType.STRING, size_hint=16),
        ],
        key="metric_id",
    )


def _base_row(key: int) -> Dict[str, object]:
    """The deterministic genesis row for ``key`` (no RAM table needed)."""
    return {
        "metric_id": key,
        "value": (key * 2654435761) % 1_000_000,
        "label": f"m{key:07d}",
    }


def _row_stream(rows: int) -> Iterator[Dict[str, object]]:
    for key in range(1, rows + 1):
        yield _base_row(key)


# -- percentiles ---------------------------------------------------------------


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (assumed non-empty)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]


def _latency_summary(samples_ms: List[float]) -> Dict[str, float]:
    return {
        "count": len(samples_ms),
        "p50_ms": round(_percentile(samples_ms, 0.50), 3),
        "p95_ms": round(_percentile(samples_ms, 0.95), 3),
        "p99_ms": round(_percentile(samples_ms, 0.99), 3),
        "mean_ms": round(sum(samples_ms) / len(samples_ms), 3),
    }


# -- the benchmark -------------------------------------------------------------


def _ingest(
    store: RelationStore,
    schema: Schema,
    signature_scheme: SignatureScheme,
    config: ScaleConfig,
) -> Dict[str, object]:
    start = time.perf_counter()
    count = build_stored_chain(
        store,
        RELATION,
        schema,
        _row_stream(config.rows),
        signature_scheme,
        batch_size=config.batch_size,
    )
    elapsed = time.perf_counter() - start
    return {
        "rows": count,
        "seconds": round(elapsed, 3),
        "rows_per_sec": round(count / elapsed, 2) if elapsed else float("inf"),
        "batch_size": config.batch_size,
    }


def _attach(
    store: RelationStore, schema: Schema, signature_scheme: SignatureScheme
) -> StoredSignedRelation:
    """Attach the stored chain under the manifest its stored rotation names."""
    rotation = decode(store.chain_state(RELATION).rotation, expect=ManifestRotated)
    if rotation.manifest.schema != schema:
        raise ValueError("the stored chain was published under another schema")
    return StoredSignedRelation(store, RELATION, rotation.manifest, signature_scheme)


def _recovery(
    path: str, schema: Schema, signature_scheme: SignatureScheme, config: ScaleConfig
) -> Dict[str, object]:
    """Re-attach the stored chain the way recovery does, bounded and timed."""
    store = RelationStore(path, fsync=config.fsync)
    try:
        tracemalloc.start()
        start = time.perf_counter()
        signed = _attach(store, schema, signature_scheme)
        attach_seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        streams = all(slot is _UNLOADED for slot in signed._payloads._memo)
        return {
            "seconds": round(attach_seconds, 3),
            "peak_mib": round(peak / (1024 * 1024), 2),
            "streams_rows": bool(streams),
        }
    finally:
        store.close()


def _drive_workload(
    host: str,
    port: int,
    schema: Schema,
    signature_scheme: SignatureScheme,
    config: ScaleConfig,
) -> Dict[str, object]:
    rng = random.Random(config.seed)
    zipf = ZipfianKeys(config.rows, config.zipf_theta, rng)
    latencies: Dict[str, List[float]] = {"point": [], "range": [], "update": []}
    current: Dict[int, Dict[str, object]] = {}
    bumps = 0

    def query_for(kind: str, key: int) -> Query:
        high = key if kind == "point" else min(config.rows, key + config.range_width)
        return Query(
            RELATION, Conjunction((RangeCondition("metric_id", key, high),))
        )

    with VerifyingClient(host, port) as client, OwnerClient(
        host, port, signature_scheme
    ) as owner:
        client.fetch_manifest(RELATION)
        owner.refresh_manifest(RELATION)
        for _ in range(config.operations):
            draw = rng.random()
            key = zipf.next_key()
            if draw < config.point_fraction:
                kind = "point"
            elif draw < config.point_fraction + config.range_fraction:
                kind = "range"
            else:
                kind = "update"
            if kind == "update":
                old = current.get(key, _base_row(key))
                bumps += 1
                new = dict(old, value=(int(old["value"]) + 1_000_003 + bumps) % 10_000_000)
                delta = RecordDelta(kind="update", values=new, old_values=dict(old))
                start = time.perf_counter()
                owner.push(RELATION, (delta,))
                latencies["update"].append((time.perf_counter() - start) * 1000.0)
                current[key] = new
            else:
                start = time.perf_counter()
                result = client.execute(QuerySpec(query_for(kind, key)))
                latencies[kind].append((time.perf_counter() - start) * 1000.0)
                assert result.report is not None
    return {
        kind: _latency_summary(samples)
        for kind, samples in latencies.items()
        if samples
    }


def run_scale_benchmarks(
    config: ScaleConfig = ScaleConfig(), workdir: Optional[str] = None
) -> Dict:
    """Run the scale workload and return a report fragment.

    ``workdir`` (a scratch directory for the relation store) defaults to a
    fresh temporary directory, removed afterwards.
    """
    scratch = workdir or tempfile.mkdtemp(prefix="repro-scale-")
    schema = metrics_schema(config.rows)
    signature_scheme = rsa_scheme(bits=config.key_bits)
    path = f"{scratch}/relstore.db"
    try:
        store = RelationStore(path, fsync=config.fsync)
        try:
            ingest = _ingest(store, schema, signature_scheme, config)
        finally:
            store.close()

        recovery = _recovery(path, schema, signature_scheme, config)

        store = RelationStore(path, fsync=config.fsync)
        try:
            from repro.core.publisher import Publisher

            signed = _attach(store, schema, signature_scheme)
            publisher = Publisher({RELATION: signed})
            router = ShardRouter({"scale": publisher})
            with PublicationServer(
                router, config=ServerConfig(max_workers=8)
            ) as server:
                host, port = server.address
                latency = _drive_workload(
                    host, port, schema, signature_scheme, config
                )
        finally:
            store.close()
    finally:
        if workdir is None:
            shutil.rmtree(scratch, ignore_errors=True)

    return {
        "config": asdict(config),
        "crypto_backend": backend_stats(),
        "workloads": {
            "scale_serving": {
                "rows": config.rows,
                "operations": config.operations,
                "zipf_theta": config.zipf_theta,
                "ingest": ingest,
                "recovery": recovery,
                "latency_ms": latency,
            }
        },
    }
