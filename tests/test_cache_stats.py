"""Bounded caches and cache_stats() observability (long-running servers)."""

from __future__ import annotations

from repro.cache import BoundedCache
from repro.core.digest import _SCHEME_MEMO_MAX
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.db import workload
from repro.db.query import Conjunction, Query, RangeCondition
from repro.service import (
    PublicationServer,
    QuerySpec,
    VerifyingClient,
    build_demo_world,
)

RANGE = Query("employees", Conjunction((RangeCondition("salary", 1_000, 90_000),)))


def test_bounded_cache_counts_and_evicts():
    cache = BoundedCache(2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts the oldest ("a")
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["size"] == 2 and stats["capacity"] == 2
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert cache.get("a") is None


def test_bounded_cache_weight_budget_evicts_and_replaces():
    cache = BoundedCache(8, max_weight=30)
    for key in "abc":
        cache.put(key, key, weight=10)
    cache.put("b", "again", weight=10)  # same key: its old weight is released
    assert (cache.stats()["size"], cache.stats()["weight"]) == (3, 30)
    cache.put("d", "d", weight=20)  # over budget: the two oldest go
    stats = cache.stats()
    assert (stats["size"], stats["evictions"], stats["weight"]) == (2, 2, 30)
    assert cache.get("a") is None and cache.get("b") == "again"


def test_publisher_cache_stats_and_capacity(signature_scheme):
    """``vo_fragments`` sums the hosted schemes' boundary-assist memo counters."""
    relation = workload.generate_employees(40, seed=3, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    # One relation under two names is still two schemes, counted once each.
    publisher = Publisher({"employees": signed, "staff": signed})
    publisher.answer(RANGE)
    publisher.answer(RANGE)
    stats = publisher.cache_stats()
    assert set(stats) == {"vo_fragments"}
    fragments = stats["vo_fragments"]
    assert fragments["capacity"] == 2 * _SCHEME_MEMO_MAX
    assert (fragments["hits"], fragments["misses"], fragments["size"]) == (2, 2, 2)
    assert fragments["evictions"] == 0


def test_verifier_cache_stats(signature_scheme):
    relation = workload.generate_employees(30, seed=4, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    publisher = Publisher({"employees": signed})
    verifier = ResultVerifier({"employees": signed.manifest})
    result = publisher.answer(RANGE)
    verifier.verify(RANGE, result.rows, result.proof)
    stats = verifier.cache_stats()
    assert set(stats["fdh"]) == {"hits", "misses", "evictions", "size", "capacity"}
    assert stats["chain_schemes"]["size"] == 1


def test_server_cache_stats_cover_responses_and_shards():
    world = build_demo_world(key_bits=512, seed=5)
    with PublicationServer(world.router) as server:
        host, port = server.address
        with VerifyingClient(host, port) as client:
            client.execute(QuerySpec(RANGE, verify=False))
            client.execute(QuerySpec(RANGE, verify=False))
        stats = server.cache_stats()
        assert stats["responses"]["hits"] >= 1
        assert set(stats["shards"]) == {"hr", "sales"}
        for shard_stats in stats["shards"].values():
            assert {"hits", "misses"} <= set(shard_stats["vo_fragments"])
