"""One store interface over populations of cache objects.

The replay loop fills every cache through the interface
:class:`~repro.cache.FlatBrowsers` has: a bound ``probe`` and a bound
``fill`` per *store*, a population of caches addressed by client (the
browser caches, or the proxy as a store of one client, ``c == 0``).

* ``probe(c, d) -> (entry, memory)`` looks *d* up in client *c*'s cache,
  updating replacement metadata.  *memory* is the serving tier of a
  tiered cache (``True``: memory) and ``None`` elsewhere.
* ``fill(c, d, s, v, now, on_insert, on_evict, entry)`` inserts or
  refreshes (doc *d*, size *s*, version *v*) and reports the index
  events it causes in the put's own order: ``on_evict(c, victim, now)``
  per victim, then ``on_insert(c, d, v, s, now, already)`` if *d* is
  cached (*already*: it was cached before), or ``on_evict(c, d, now)``
  if a cached *d* was refused its refresh.  *entry* is what the same
  request's probe found, with no fill of *c* in between; omitted, the
  store looks *d* up.  Either handle may be ``None``.

:func:`bind_store` binds plain LRU caches as closures over their entry
tables (``LRUCache.put`` inlined, handed the probed entry: a refresh
grown past the capacity is reported twice, as the put's victim and as
the refused refresh), and every other policy and the tiered cache
through their own ``get`` and ``put``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.cache.base import CacheEntry
from repro.cache.lru import LRUCache
from repro.cache.tiered import Tier, TieredLRUCache

__all__ = ["NO_STORE", "Store", "bind_store"]


class Store(NamedTuple):
    """A store's bound operations (see the module docstring)."""

    probe: Callable | None
    fill: Callable | None
    #: the per-client entry tables of a plain LRU store, which the
    #: replay loop probes inline; ``None`` for every other store.
    tables: list | None


#: the store of an organization without that cache.
NO_STORE = Store(None, None, None)

#: the default *entry* of an LRU fill: no probe preceded it.
_UNPROBED = object()


def bind_store(caches: list) -> Store:
    """The :class:`Store` over *caches*, one cache per client, all of
    one kind."""
    if type(caches[0]) is LRUCache:
        return _bind_lru(caches)
    tiered = isinstance(caches[0], TieredLRUCache)

    def probe(c: int, d: int):
        if not tiered:
            return caches[c].get(d), None
        entry, tier = caches[c].get(d)
        return entry, (tier is Tier.MEMORY if entry is not None else None)

    def fill(c, d, s, v, now, on_insert, on_evict, entry=None) -> None:
        cache = caches[c]
        already = d in cache
        evicted = cache.put(d, s, v)
        if on_evict is not None:
            for victim in evicted:
                on_evict(c, victim, now)
        if d in cache:
            if on_insert is not None:
                on_insert(c, d, v, s, now, already)
        elif already and on_evict is not None:
            on_evict(c, d, now)

    return Store(probe, fill, None)


def _bind_lru(caches: list[LRUCache]) -> Store:
    tables = [cache._entries for cache in caches]

    def probe(c: int, d: int):
        entries = tables[c]
        entry = entries.get(d)
        if entry is not None:
            entries.move_to_end(d)
        return entry, None

    def fill(c, d, s, v, now, on_insert, on_evict, old=_UNPROBED) -> None:
        cache = caches[c]
        entries = tables[c]
        if old is _UNPROBED:
            old = entries.get(d)
        if old is not None:
            used = cache.used + s - old.size
            old.size = s
            old.version = v
            entries.move_to_end(d)
        elif s <= cache.capacity:
            entries[d] = CacheEntry(d, s, v)
            used = cache.used + s
        else:
            return  # refused: no change, no event
        cap = cache.capacity
        while used > cap:
            # the LRU end; d sits at the MRU end, so it comes first
            # only when it is alone
            for victim in entries:
                break
            if victim == d:
                # Only the refreshed oversized copy is left: reported
                # as the put's victim and again as the refused refresh.
                cache.used = used - entries.pop(d).size
                if on_evict is not None:
                    on_evict(c, d, now)
                    on_evict(c, d, now)
                return
            used -= entries.pop(victim).size
            if on_evict is not None:
                on_evict(c, victim, now)
        cache.used = used
        if on_insert is not None:
            on_insert(c, d, v, s, now, old is not None)

    return Store(probe, fill, tables)
