"""Cache substrate: size-bounded object caches with pluggable
replacement policies.

The paper's simulator uses LRU everywhere ("The cache replacement
algorithm used in our simulator is LRU"); the other policies here back
the replacement-policy ablation benchmark.  All caches share the same
semantics:

* capacities and occupancy are measured in **bytes**,
* entries carry a **version**; the simulation engine treats a version
  mismatch as a miss (the paper's size-change rule),
* objects larger than the capacity are never admitted,
* ``put`` returns the evicted keys (an ``on_evict`` hook, if set, also
  hears them).

The engine reaches caches only through *stores*
(:mod:`repro.cache.stores`): a bound ``probe`` and ``fill`` per
population of caches, whose ``fill`` reports each eviction and the
insert to the index handles it is given — this is how a browser cache
sends invalidation messages to the proxy's browser index file.
:class:`FlatBrowsers` holds a whole population of LRU browser caches
in one flat slot pool and is a store of its own.
"""

from repro.cache.base import Cache, CacheEntry
from repro.cache.lru import LRUCache
from repro.cache.fifo import FIFOCache
from repro.cache.flat import FlatBrowsers
from repro.cache.lfu import LFUCache
from repro.cache.size_policy import SizeCache
from repro.cache.gdsf import GDSFCache
from repro.cache.slru import SLRUCache
from repro.cache.tiered import TieredLRUCache, Tier
from repro.cache.stats import CacheStats

POLICIES = {
    "lru": LRUCache,
    "fifo": FIFOCache,
    "lfu": LFUCache,
    "size": SizeCache,
    "gdsf": GDSFCache,
    "slru": SLRUCache,
}


def make_cache(policy: str, capacity: int) -> Cache:
    """Construct a cache by policy name (see :data:`POLICIES`)."""
    try:
        cls = POLICIES[policy.lower()]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {policy!r}; known: {known}") from None
    return cls(capacity)


__all__ = [
    "Cache",
    "CacheEntry",
    "LRUCache",
    "FIFOCache",
    "FlatBrowsers",
    "LFUCache",
    "SizeCache",
    "GDSFCache",
    "SLRUCache",
    "TieredLRUCache",
    "Tier",
    "CacheStats",
    "POLICIES",
    "make_cache",
]
