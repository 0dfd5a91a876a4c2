"""Hot-path throughput benchmarks: each fast path against the code it replaced.

Every workload times one mechanism against a faithful replica of the path
without it, and asserts first that both produce the same bytes:

* **crt single-shot signing** — fresh, never-before-seen messages under the
  shipped multi-prime key with CRT constants precomputed at keygen, against
  the seed's two-prime signer that recomputed them per signature.
* **batch verify** — the client's screening test against one modexp per
  chain entry.
* **verifier repeated check** — a persistent verifier (chain schemes and
  their canonical-digest memo kept across checks) against one rebuilt per
  check.
* **wal ingest** — owner updates through the live handler with the
  write-ahead log on, as a fraction of storage-less throughput.

The module-level FDH representative memo is global, so it is cleared
immediately before every uncached timing.  The signing and verify floors are
pure-backend ratios (the signing baseline calls builtin ``pow``; screening
saves modexps, which libcrypto makes several times cheaper), so
``BENCH_hot_paths.json`` records, and CI gates, a run under ``REPRO_NATIVE=0``.

Run ``python benchmarks/bench_hot_paths.py`` to write ``BENCH_hot_paths.json``
at the repository root; the tier-1 suite runs the same code in smoke mode
(:data:`SMOKE_CONFIG`) so regressions surface in every test run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.crypto import rsa
from repro.crypto.backend import backend_stats
from repro.crypto.aggregate import batch_verify_signatures
from repro.crypto.primes import modular_inverse
from repro.crypto.rsa import RSAPrivateKey, full_domain_hash
from repro.crypto.signature import SignatureScheme, rsa_scheme
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition

__all__ = ["HotPathConfig", "SMOKE_CONFIG", "run_hot_path_benchmarks"]

#: Uncached MGF1 expansion — the exact function the seed called per signature.
_fdh_uncached = rsa._fdh


def _clear_global_memos() -> None:
    """Reset the module-level FDH memo so uncached timings start cold."""
    rsa._full_domain_hash_cached.cache_clear()


@dataclass(frozen=True)
class HotPathConfig:
    """Workload sizes for one benchmark run."""

    key_bits: int = 512
    table_rows: int = 300
    distinct_ranges: int = 8
    range_width: int = 4_000
    signing_messages: int = 150
    verify_rounds: int = 10
    batch_verify_messages: int = 120
    batch_verify_rounds: int = 5
    wal_rows: int = 60
    wal_updates: int = 30


#: Scaled-down configuration the tier-1 smoke test runs on every ``pytest``.
SMOKE_CONFIG = HotPathConfig(
    table_rows=48,
    distinct_ranges=3,
    range_width=6_000,
    signing_messages=24,
    verify_rounds=3,
    batch_verify_messages=48,
    batch_verify_rounds=3,
    wal_rows=16,
    wal_updates=8,
)


def _sign_seed_path(signer: RSAPrivateKey, message: bytes) -> int:
    """Replica of the seed's ``RSAPrivateKey.sign``.

    Recomputes the CRT constants (including the modular inverse) and the
    full-domain hash on every call, exactly as the pre-fast-path code did, so
    the "uncached" timings measure the historical behaviour rather than a
    strawman.
    """
    representative = _fdh_uncached(message, signer.modulus, signer.hash_name)
    d_p = signer.private_exponent % (signer.prime_p - 1)
    d_q = signer.private_exponent % (signer.prime_q - 1)
    q_inv = modular_inverse(signer.prime_q, signer.prime_p)
    s_p = pow(representative % signer.prime_p, d_p, signer.prime_p)
    s_q = pow(representative % signer.prime_q, d_q, signer.prime_q)
    h = (q_inv * (s_p - s_q)) % signer.prime_p
    return (s_q + h * signer.prime_q) % signer.modulus


def _timed(operation: Callable[[], None]) -> float:
    start = time.perf_counter()
    operation()
    return time.perf_counter() - start


def _workload_entry(
    uncached_ops: int,
    uncached_elapsed: float,
    cached_ops: int,
    cached_elapsed: float,
) -> Dict[str, float]:
    uncached_rate = uncached_ops / uncached_elapsed if uncached_elapsed else float("inf")
    cached_rate = cached_ops / cached_elapsed if cached_elapsed else float("inf")
    return {
        "uncached_ops_per_sec": round(uncached_rate, 2),
        "cached_ops_per_sec": round(cached_rate, 2),
        "speedup": round(cached_rate / uncached_rate, 2) if uncached_rate else 0.0,
    }


# -- owner-side workloads -----------------------------------------------------


def _bench_single_shot_signing(
    scheme: SignatureScheme, default_scheme: SignatureScheme, config: HotPathConfig
) -> Dict[str, float]:
    signer = scheme.signer
    probes = [b"chain-message|%08d" % index for index in range(4)]
    assert [signer.sign(m) for m in probes] == [
        _sign_seed_path(signer, m) for m in probes
    ], "fast-path signatures diverge from the seed path"

    # Fresh, never-before-seen messages, so the FDH cache does not help.  The
    # fast path is the *shipped default* — a multi-prime key (RFC 8017) with
    # all CRT constants precomputed at keygen; the baseline is the seed's
    # implementation at the same modulus size — a two-prime key with the CRT
    # constants (including the modular inverse) recomputed per signature.
    # Both produce standard RSA signatures under their respective (n, e);
    # correctness of the multi-prime path against plain pow(r, d, n) is
    # asserted first.
    default_signer = default_scheme.signer
    fresh_probe = b"multi-prime-probe"
    probe_signature = default_signer.sign(fresh_probe)
    probe_representative = full_domain_hash(
        fresh_probe, default_signer.modulus, default_signer.hash_name
    )
    assert probe_signature == pow(
        probe_representative,
        default_signer.private_exponent,
        default_signer.modulus,
    ), "multi-prime CRT diverges from plain RSA exponentiation"
    assert default_scheme.verifier.verify(fresh_probe, probe_signature)

    fresh_a = [b"fresh-a|%08d" % index for index in range(config.signing_messages)]
    fresh_b = [b"fresh-b|%08d" % index for index in range(config.signing_messages)]
    _clear_global_memos()
    uncached_fresh = _timed(lambda: [_sign_seed_path(signer, m) for m in fresh_a])
    cached_fresh = _timed(lambda: default_scheme.sign_batch(fresh_b))
    single = _workload_entry(len(fresh_a), uncached_fresh, len(fresh_b), cached_fresh)
    single["crt_primes"] = len(getattr(default_signer, "_primes", (0, 0)))
    return single


def _bench_batch_verify(
    scheme: SignatureScheme, config: HotPathConfig
) -> Dict[str, float]:
    """Client-side chain verification: accumulated batch vs one pow per entry.

    The serial baseline is exactly what the seed's verifier did for an
    individual-signature bundle — ``public_key.verify`` per chain message.
    The batch path is the Bellare-Garay-Rabin screening test the verifier
    now routes individual bundles through.  Both run with a cold FDH memo per
    round (fresh chains), and correctness is asserted both ways: agreement on
    genuine batches, rejection of a tampered one.
    """
    public_key = scheme.verifier
    count = config.batch_verify_messages
    rounds = config.batch_verify_rounds
    messages = [b"batch-chain|%08d" % index for index in range(count)]
    signatures = scheme.sign_batch(messages)

    def serial_verify() -> bool:
        return all(
            public_key.verify(message, signature)
            for message, signature in zip(messages, signatures)
        )

    # Correctness: agreement on the genuine batch, rejection when tampered.
    assert serial_verify()
    assert batch_verify_signatures(messages, signatures, public_key)
    assert batch_verify_signatures(
        messages, signatures, public_key, weight_bits=16
    )
    tampered = list(signatures)
    tampered[count // 2] ^= 1
    assert not batch_verify_signatures(messages, tampered, public_key)

    ops = count * rounds

    def run_serial() -> None:
        for _ in range(rounds):
            _clear_global_memos()
            assert serial_verify()

    def run_batch() -> None:
        for _ in range(rounds):
            _clear_global_memos()
            assert batch_verify_signatures(messages, signatures, public_key)

    serial_elapsed = _timed(run_serial)
    batch_elapsed = _timed(run_batch)
    entry = _workload_entry(ops, serial_elapsed, ops, batch_elapsed)
    entry["messages"] = count
    entry["rounds"] = rounds
    entry["key_bits"] = public_key.bits
    return entry


# -- publisher / verifier workloads -------------------------------------------


def _range_queries(config: HotPathConfig) -> List[Query]:
    domain_low, domain_high = 1, 99_999
    span = domain_high - domain_low - config.range_width
    queries = []
    for index in range(config.distinct_ranges):
        low = domain_low + (span * index) // max(1, config.distinct_ranges - 1)
        queries.append(
            Query(
                "employees",
                Conjunction(
                    (RangeCondition("salary", low, low + config.range_width),)
                ),
            )
        )
    return queries


def _bench_verifier(
    scheme: SignatureScheme, config: HotPathConfig
) -> Dict[str, float]:
    relation = workload.generate_employees(config.table_rows, seed=21, photo_bytes=32)
    signed = SignedRelation(relation, scheme)
    publisher = Publisher({"employees": signed})
    queries = _range_queries(config)
    answers = [(query, publisher.answer(query)) for query in queries]
    manifests = {"employees": signed.manifest}

    def verify_fresh() -> None:
        # Seed behaviour: chain schemes were rebuilt inside every verify call.
        for query, result in answers:
            ResultVerifier(manifests).verify(query, result.rows, result.proof)

    persistent = ResultVerifier(manifests)

    def verify_persistent() -> None:
        for query, result in answers:
            persistent.verify(query, result.rows, result.proof)

    verify_persistent()  # warm the scheme memos before timing
    ops = len(answers) * config.verify_rounds
    _clear_global_memos()
    uncached = _timed(lambda: [verify_fresh() for _ in range(config.verify_rounds)])
    cached = _timed(
        lambda: [verify_persistent() for _ in range(config.verify_rounds)]
    )
    entry = _workload_entry(ops, uncached, ops, cached)
    entry["rounds"] = config.verify_rounds
    return entry


# -- durable-ingest workload ---------------------------------------------------


def _bench_wal_ingest(config: HotPathConfig) -> Dict[str, object]:
    """Owner-update ingest throughput with the write-ahead log on vs off.

    Runs the *same* sequence of owner-signed single-insert batches through
    the live :class:`~repro.service.handler.RequestHandler` update path four
    times — without storage (a RAM chain), then over a durable root (WAL
    append plus relation-store commit) under each fsync policy — and reports
    batches/sec per configuration.  The gated number is the fraction of
    storage-less throughput retained under ``fsync="batch"`` (reported in the
    generic ``speedup`` slot so the floor checker treats it like every other
    workload); ``always`` pays one real fsync per batch and is reported for
    information, not gated — its cost is the disk's, not the code's.
    """
    from repro.core.relational import RelationManifest  # noqa: F401 - doc anchor
    from repro.service.handler import RequestHandler
    from repro.service.owner import build_update_request, delta_sequence_cost
    from repro.service.router import ShardRouter
    from repro.storage import open_publication_storage
    from repro.wire import encode
    from repro.wire.updates import RecordDelta

    def build_world() -> Tuple[SignatureScheme, ShardRouter]:
        scheme = rsa_scheme(bits=config.key_bits)
        relation = workload.generate_employees(config.wal_rows, seed=33, photo_bytes=8)
        signed = SignedRelation(relation, scheme)
        return scheme, ShardRouter({"hr": Publisher({"employees": signed})})

    def signed_frames(scheme: SignatureScheme, router: ShardRouter) -> List[bytes]:
        # Pre-sign the whole chain against predicted manifests (the
        # push_many trick): signing is owner-side work and must not be
        # charged to the ingest path under measurement.
        manifest = router.manifest_by_name("employees")
        frames = []
        for index in range(config.wal_updates):
            batch = (
                RecordDelta(
                    kind="insert",
                    values={
                        "emp_id": f"wal-{index}",
                        "name": f"Ingest {index}",
                        "salary": 50_000 + index,
                        "dept": 4,
                        "photo": bytes([index % 251]) * 8,
                    },
                ),
            )
            frames.append(encode(build_update_request(scheme, manifest, batch)))
            manifest = replace(
                manifest, sequence=manifest.sequence + delta_sequence_cost(batch)
            )
        return frames

    def run(policy: Optional[str]) -> float:
        scheme, router = build_world()
        frames = signed_frames(scheme, router)
        storage = None
        tmp = None
        if policy is not None:
            tmp = tempfile.mkdtemp(prefix="bench-wal-")
            built = router
            router, storage = open_publication_storage(
                os.path.join(tmp, "pub"), lambda: built, fsync=policy
            )
        handler = RequestHandler(router, response_cache=False, storage=storage)
        try:
            elapsed = _timed(
                lambda: [handler.handle_frame(frame) for frame in frames]
            )
            assert handler.updates_applied == len(frames), (
                "an ingest batch was refused mid-benchmark"
            )
        finally:
            if storage is not None:
                storage.close()
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
        return len(frames) / elapsed if elapsed else float("inf")

    no_wal = run(None)
    rates = {policy: run(policy) for policy in ("off", "batch", "always")}
    entry: Dict[str, object] = {
        "uncached_ops_per_sec": round(no_wal, 2),
        "cached_ops_per_sec": round(rates["batch"], 2),
        "speedup": round(rates["batch"] / no_wal, 2) if no_wal else 0.0,
        "no_wal_ops_per_sec": round(no_wal, 2),
        "fsync_off_ops_per_sec": round(rates["off"], 2),
        "fsync_batch_ops_per_sec": round(rates["batch"], 2),
        "fsync_always_ops_per_sec": round(rates["always"], 2),
        "updates": config.wal_updates,
        "table_rows": config.wal_rows,
    }
    return entry


# -- entry point ---------------------------------------------------------------


def run_hot_path_benchmarks(config: HotPathConfig = HotPathConfig()) -> Dict:
    """Run every hot-path workload and return the report dictionary.

    The seed-comparison workloads run on a classic two-prime key so the
    seed-replica baselines are byte-faithful; the single-shot workload
    additionally measures the shipped multi-prime default against that
    baseline at equal modulus size.
    """
    scheme = rsa_scheme(bits=config.key_bits, crt_primes=2)
    default_scheme = rsa_scheme(bits=config.key_bits)
    report: Dict = {
        "benchmark": "hot_paths",
        "crypto_backend": backend_stats(),
        "config": asdict(config),
        "workloads": {},
        "targets": {
            "crt_single_shot_signing_speedup_min": 1.3,
            "batch_verify_speedup_min": 3.0,
            "wal_ingest_speedup_min": 0.5,
        },
    }
    workloads = report["workloads"]
    workloads["crt_single_shot_signing"] = _bench_single_shot_signing(
        scheme, default_scheme, config
    )
    workloads["batch_verify"] = _bench_batch_verify(scheme, config)
    workloads["verifier_repeated_check"] = _bench_verifier(scheme, config)
    workloads["wal_ingest"] = _bench_wal_ingest(config)
    report["targets_met"] = {
        name: workloads[name]["speedup"] >= report["targets"][f"{name}_speedup_min"]
        for name in ("crt_single_shot_signing", "batch_verify", "wal_ingest")
    }
    return report
