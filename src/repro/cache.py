"""Shared bounded-cache primitives used by the memoization fast path.

Every memo in the library (the FDH representative memo, the digest scheme's
canonical-digest and boundary-assist memos, the server's encoded-response
cache, the client's attestation-verify memo) bounds its size the same way:
insertion-order FIFO eviction once a cap is reached.  Centralising the
eviction here keeps the policy identical everywhere.

Two interfaces:

* :func:`bounded_put` — the primitive for plain-dict memos that do not need
  observability.
* :class:`BoundedCache` — a dict-backed cache with the same eviction policy
  plus hit/miss/eviction counters, for the long-running-server caches that
  must expose ``cache_stats()``.
"""

from __future__ import annotations

from typing import Dict, Generic, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")

__all__ = ["bounded_put", "BoundedCache", "CacheStats"]


def bounded_put(cache: Dict[K, V], key: K, value: V, max_size: int) -> V:
    """Insert ``key -> value``, evicting the oldest entry at the size bound."""
    if len(cache) >= max_size:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


class CacheStats(dict):
    """A plain dict of counters; subclassed only so reprs read as stats."""

    __slots__ = ()


class BoundedCache(Generic[K, V]):
    """A FIFO-bounded mapping with hit/miss/eviction accounting.

    The capacity is fixed per instance, chosen by the owner of the cache.

    ``max_weight`` optionally bounds the *sum of entry weights* as well —
    callers whose values vary wildly in size (e.g. encoded response frames)
    pass each entry's byte size as its weight, making the bound an actual
    memory ceiling rather than an entry count.  An entry heavier than the
    whole budget is simply not cached.
    """

    __slots__ = (
        "_data",
        "_weights",
        "max_size",
        "max_weight",
        "total_weight",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, max_size: int, max_weight: Optional[int] = None) -> None:
        if max_size < 1:
            raise ValueError("a bounded cache needs a capacity of at least 1")
        if max_weight is not None and max_weight < 1:
            raise ValueError("a bounded cache needs a weight budget of at least 1")
        self._data: Dict[K, V] = {}
        self._weights: Dict[K, int] = {}
        self.max_size = max_size
        self.max_weight = max_weight
        self.total_weight = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K) -> Optional[V]:
        """Counted lookup: a present key is a hit, an absent one a miss."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _evict_oldest(self) -> None:
        oldest = next(iter(self._data))
        del self._data[oldest]
        self.total_weight -= self._weights.pop(oldest, 0)
        self.evictions += 1

    def put(self, key: K, value: V, weight: int = 0) -> V:
        if self.max_weight is not None and weight > self.max_weight:
            return value  # heavier than the whole budget: not worth caching
        data = self._data
        if key in data:
            self.total_weight -= self._weights.pop(key, 0)
            del data[key]  # re-insert at the back of the FIFO
        while data and (
            len(data) >= self.max_size
            or (
                self.max_weight is not None
                and self.total_weight + weight > self.max_weight
            )
        ):
            self._evict_oldest()
        data[key] = value
        if weight:
            self._weights[key] = weight
            self.total_weight += weight
        return value

    def stats(self) -> CacheStats:
        """Hits/misses/evictions plus the current and maximum size."""
        stats = CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            capacity=self.max_size,
        )
        if self.max_weight is not None:
            stats["weight"] = self.total_weight
            stats["weight_capacity"] = self.max_weight
        return stats
