"""Tier-1 smoke mode of the hot-path perf harness (``benchmarks/bench_hot_paths.py``).

Runs the same workloads as the JSON-producing benchmark at scaled-down sizes,
so every ordinary ``pytest`` run re-checks that (a) the harness works, (b) the
cached fast path still produces byte-identical proofs, and (c) the caches
still actually win on repeated work.  Exact throughput numbers are left to the
full benchmark — timing assertions here are deliberately loose.
"""

import importlib.util
import os

from repro.bench.hot_paths import SMOKE_CONFIG, run_hot_path_benchmarks
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.crypto.rsa import SIGN_COUNTER
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.workload import generate_employees

EXPECTED_WORKLOADS = {
    "owner_bulk_signing",
    "crt_single_shot_signing",
    "publisher_repeated_range",
    "publisher_join",
    "verifier_repeated_check",
    "wal_ingest",
}


def test_smoke_benchmark_report():
    report = run_hot_path_benchmarks(SMOKE_CONFIG)
    assert report["proofs_identical"] is True
    assert EXPECTED_WORKLOADS <= set(report["workloads"])
    for name, entry in report["workloads"].items():
        assert entry["uncached_ops_per_sec"] > 0, name
        assert entry["cached_ops_per_sec"] > 0, name
        assert entry["speedup"] > 0, name


def test_cold_range_section():
    """The CLI's ``cold_range`` section, at toy size: shape, not speed."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
        "bench_hot_paths.py",
    )
    spec = importlib.util.spec_from_file_location("bench_hot_paths_cli", path)
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)
    cold = cli.bench_cold_range(reads=3)
    assert cold["reads"] == 3 and cold["table_rows"] == 3 * 42
    # 40 matched entries x 2 chains, each a walk of 15 digit chains: far more
    # hashes than entries, and a read that costs a small multiple of them.
    assert cold["hashes_per_read"] > 80 * 40
    assert 1.0 < cold["hash_floor_ratio"] < 4 * cli.COLD_RANGE_HASH_FLOOR_RATIO_MAX


def test_hot_path_caches_actually_engage(signature_scheme):
    """Noise-immune regression check: repeated work must hit the caches.

    Wall-clock speedups at smoke scale are too jittery to assert in tier-1, so
    the regression signal here is cache-activity counters instead.
    """
    signed = SignedRelation(generate_employees(30, seed=11, photo_bytes=8), signature_scheme)
    publisher = Publisher({"employees": signed})
    query = Query("employees", Conjunction((RangeCondition("salary", 20_000, 80_000),)))
    publisher.answer(query)
    hits_before = publisher.vo_cache_hits
    publisher.answer(query)
    assert publisher.vo_cache_hits > hits_before

    message = b"smoke-cache-engage"
    signature_scheme.sign(message)
    sign_hits_before = SIGN_COUNTER.cache_hits
    signature_scheme.sign(message)
    assert SIGN_COUNTER.cache_hits == sign_hits_before + 1
