"""Bounded caches and cache_stats() observability (long-running servers)."""

from __future__ import annotations

import pytest

from repro.cache import BoundedCache
from repro.core.publisher import Publisher
from repro.core.relational import SignedRelation
from repro.core.verifier import ResultVerifier
from repro.crypto import rsa
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


def test_publisher_cache_stats_and_capacity(signature_scheme):
    relation = workload.generate_employees(40, seed=3, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    publisher = Publisher({"employees": signed}, vo_cache_max=64)
    publisher.answer(RANGE)
    publisher.answer(RANGE)
    stats = publisher.cache_stats()
    fragments = stats["vo_fragments"]
    assert fragments["capacity"] == 64
    assert fragments["hits"] > 0 and fragments["misses"] > 0
    assert publisher.vo_cache_hits == fragments["hits"]
    assert "employees" in stats["signature_memos"]


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


def test_fdh_and_signature_memo_capacities_configurable():
    original = rsa.fdh_cache_stats()["capacity"]
    try:
        rsa.configure_fdh_cache(16)
        assert rsa.fdh_cache_stats()["capacity"] == 16
        for index in range(40):  # far past the bound; the memo must not grow
            rsa.full_domain_hash(b"cap|%d" % index, 2**64 + 13)
        assert rsa.fdh_cache_stats()["size"] <= 16
        with pytest.raises(ValueError):
            rsa.configure_fdh_cache(0)
        with pytest.raises(ValueError):
            rsa.configure_signature_memo(0)
    finally:
        rsa.configure_fdh_cache(original)


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
            assert "vo_fragments" in shard_stats
