"""Tier-1 smoke mode of the hot-path perf harness (``benchmarks/bench_hot_paths.py``).

Runs the same workloads as the JSON-producing benchmark at scaled-down sizes,
so every ordinary ``pytest`` run re-checks that the harness works (each
workload asserts its two paths agree before timing them) and that the memos
still engage on repeated work.  Exact throughput numbers are left to the full
benchmark — timing assertions here are deliberately loose.
"""

import importlib.util
import os
import threading

from repro.bench.hot_paths import SMOKE_CONFIG, run_hot_path_benchmarks
from repro.core.polynomial import DEFAULT_BASE
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.crypto import _shard
from repro.crypto.rsa import fdh_cache_stats
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.schema import KeyDomain
from repro.db.workload import generate_employees

EXPECTED_WORKLOADS = {
    "crt_single_shot_signing",
    "batch_verify",
    "verifier_repeated_check",
    "wal_ingest",
}


def test_smoke_benchmark_report():
    report = run_hot_path_benchmarks(SMOKE_CONFIG)
    assert EXPECTED_WORKLOADS == set(report["workloads"])
    assert set(report["targets_met"]) == EXPECTED_WORKLOADS - {"verifier_repeated_check"}
    for name, entry in report["workloads"].items():
        assert entry["uncached_ops_per_sec"] > 0, name
        assert entry["cached_ops_per_sec"] > 0, name
        assert entry["speedup"] > 0, name


def _load_benchmark_script(name):
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", name
    )
    spec = importlib.util.spec_from_file_location(name[:-3] + "_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cold_floors(cli):
    return {
        "cold_range_hashes_per_read": cli.COLD_RANGE_HASHES_PER_READ,
        "cold_point_hashes_per_read": cli.COLD_POINT_HASHES_PER_READ,
        "cold_range_store_reads_per_read": cli.COLD_RANGE_STORE_READS_PER_READ,
    }


def test_cold_range_section():
    """The CLI's ``cold_range`` section, at toy size: the exact hash count."""
    cli = _load_benchmark_script("bench_hot_paths.py")
    cold = cli.bench_cold_range(reads=cli.COLD_READS)
    assert cold["reads"] == 12 and cold["table_rows"] == 12 * 42
    # Per boundary record one chain proof and the one chain digest shipped
    # beside it, plus the 4-hash fingerprint re-check of the 40 rows read;
    # one walk of 10 digit chains per matched row and chain (~20 x 80 hashes)
    # or of an unshipped chain (~20) would move it.  Each read's count is the
    # cost model's for its keys.
    assert cold["base"] == DEFAULT_BASE == 3
    assert cold["hashes_per_read"] == cli.COLD_RANGE_HASHES_PER_READ == 307.7
    assert cold["hashes_match_model"]
    assert cold["hash_floor_ratio"] > 1.0  # still reported, not gated
    # One range scan per answer, and the gate binds on exactly that.
    assert cold["store_reads_per_read"] == cli.COLD_RANGE_STORE_READS_PER_READ == 1
    gate = _load_benchmark_script("check_bench_floors.py")
    point = {"hashes_per_read": cli.COLD_POINT_HASHES_PER_READ}
    for reads, hashes, refused in (
        (1, 307.7, False),
        (42, 307.7, True),
        (0, 307.7, True),
        (1, 307.6, True),
        (1, 307.7 + 20, True),
    ):
        failures = []
        fresh = {
            "cold_range": dict(cold, store_reads_per_read=reads, hashes_per_read=hashes),
            "cold_point": point,
        }
        gate._check_hot_paths(_cold_floors(cli), fresh, failures)
        assert bool([f for f in failures if "cold" in f or "store reads" in f]) is refused


def test_cold_point_section():
    """The ``cold_point`` section: two boundary records and one row read."""
    cli = _load_benchmark_script("bench_hot_paths.py")
    point = cli.bench_cold_point(reads=cli.COLD_READS)
    assert point["keys_per_read"] == 1 and point["store_reads_per_read"] == 1
    assert point["hashes_per_read"] == cli.COLD_POINT_HASHES_PER_READ == 154.5
    assert point["hashes_match_model"]
    # At B=2 a record's two exponents are binary complements over this
    # domain, so every block costs the same: the model gives the counts
    # gated before B=3 shipped, a range answer 39 rows' re-checks more.
    domain = KeyDomain(0, 16_385)
    for block in (1, 43, 8_191):
        assert cli.model_hashes(block + 1, block + 40, 2, domain) == 364
        assert cli.model_hashes(block + 20, block + 20, 2, domain) == 208 == 364 - 39 * 4
    assert point["hash_floor_ratio"] > 1.0
    gate = _load_benchmark_script("check_bench_floors.py")
    cold = {"hashes_per_read": cli.COLD_RANGE_HASHES_PER_READ, "store_reads_per_read": 1}
    for hashes, refused in ((154.5, False), (154.4, True), (174.5, True)):
        failures = []
        fresh = {"cold_range": cold, "cold_point": dict(point, hashes_per_read=hashes)}
        gate._check_hot_paths(_cold_floors(cli), fresh, failures)
        assert any("cold point" in failure for failure in failures) is refused
    missing = []
    gate._check_hot_paths(_cold_floors(cli), {"cold_range": cold}, missing)
    assert any("'cold_point'" in failure for failure in missing)


def test_publish_sign_section_and_its_gate(monkeypatch, capsys):
    """The CLI's ``publish_sign`` section at toy size, and the floor that reads it.

    Two CPUs and a lone thread are forced (earlier test files leak parked
    daemon threads), so the sharded side really forks; the ratio itself is
    left to the full benchmark.  The gate must bind wherever a batch is
    sharded and only there.
    """
    cli = _load_benchmark_script("bench_hot_paths.py")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    cut_over = _shard.MIN_SHARD_ITEMS
    publish = cli.bench_publish_sign(messages=128, rounds=1)
    assert _shard.MIN_SHARD_ITEMS == cut_over
    assert publish["messages"] == 128 and publish["key_bits"] == 1024
    assert publish["shards"] == 2 and publish["signatures_identical"] is True
    assert publish["core_scaling"] > 0
    assert publish["serial_ms_per_signature"] > 0 and publish["sharded_ms_per_signature"] > 0

    gate = _load_benchmark_script("check_bench_floors.py")
    floors = {"publish_sign_core_scaling_min": cli.PUBLISH_SIGN_CORE_SCALING_MIN}

    def failures_for(**overrides):
        failures = []
        gate._check_publish_sign(floors, {"publish_sign": {**publish, **overrides}}, failures)
        return failures

    assert failures_for(core_scaling=1.9) == []
    assert len(failures_for(core_scaling=1.1)) == 1
    assert failures_for(core_scaling=1.0, shards=1) == []
    assert "ungated" in capsys.readouterr().out
    assert len(failures_for(core_scaling=1.9, signatures_identical=False)) == 1
    missing = []
    gate._check_publish_sign(floors, {}, missing)
    assert len(missing) == 1


def test_hot_path_caches_actually_engage(signature_scheme):
    """Noise-immune regression check: repeated work must hit the caches.

    Wall-clock speedups at smoke scale are too jittery to assert in tier-1, so
    the regression signal here is cache-activity counters instead.
    """
    signed = SignedRelation(generate_employees(30, seed=11, photo_bytes=8), signature_scheme)
    publisher = Publisher({"employees": signed})
    query = Query("employees", Conjunction((RangeCondition("salary", 20_000, 80_000),)))
    publisher.answer(query)
    hits_before = publisher.cache_stats()["vo_fragments"]["hits"]
    publisher.answer(query)
    assert publisher.cache_stats()["vo_fragments"]["hits"] == hits_before + 2

    message = b"smoke-cache-engage"
    signature_scheme.sign(message)
    fdh_hits_before = fdh_cache_stats()["hits"]
    signature_scheme.sign(message)
    assert fdh_cache_stats()["hits"] == fdh_hits_before + 1
