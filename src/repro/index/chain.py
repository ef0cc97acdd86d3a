"""The exact browser index (paper §2) as a view of the flat slot pool:
under invalidation it equals the browser caches, so it walks the pool's
holder chains instead of keeping a copy fed by every browser event."""

from __future__ import annotations

from repro.cache.flat import FlatBrowsers
from repro.index.browser_index import IndexLookup
from repro.index.entry import IndexEntry
from repro.index.staleness import StalenessStats

__all__ = ["ChainIndex"]


class ChainIndex:
    """Invalidation-mode exact index read off a flat pool's holder chains.

    Lookups choose as :class:`~repro.index.browser_index.BrowserIndex`
    does (sorted qualifying holders, round-robin, ``banned`` filtering).
    A hit's ``entry`` is ``None``."""

    is_stale = False
    #: no event handles: the pool's fill keeps the chains and counts events
    record_insert = record_evict = None

    def __init__(self, flat: FlatBrowsers) -> None:
        flat.keep_chains()
        self.flat = flat
        self._heads = flat.chain_head  # the lookup's one miss check
        self.stats = StalenessStats()
        self.n_lookups = 0
        self.banned_candidates_skipped = 0  # as BrowserIndex counts it
        self._rr = 0  # round-robin cursor for holder selection

    @property
    def n_entries(self) -> int:
        """Index items: one per cached (client, document) pair."""
        return len(self.flat.slot_of)

    @property
    def update_messages(self) -> int:
        """One invalidation message per browser insert and evict."""
        return self.flat.n_events

    def footprint_bytes(self) -> int:
        """Memory needed at the proxy for the exact index (§5)."""
        return len(self.flat.slot_of) * IndexEntry.WIRE_BYTES

    def lookup(self, doc, exclude_client, now, version=None, banned=None):
        """One of :meth:`candidate_holders`, chosen round-robin, or ``None``."""
        self.n_lookups += 1
        if doc not in self._heads:
            return None
        candidates = self.candidate_holders(doc, exclude_client, now, version)
        if banned:
            kept = [c for c in candidates if c not in banned]
            if len(kept) != len(candidates):
                self.banned_candidates_skipped += 1
                candidates = kept
        if not candidates:
            return None
        self._rr += 1
        return IndexLookup(candidates[self._rr % len(candidates)], None)

    def candidate_holders(self, doc, exclude_client, now, version=None, banned=None):
        """Holders other than *exclude_client* (at *version*, not *banned*), sorted."""
        holders = self.flat.holders(doc, exclude_client, version)
        if banned:
            holders = [c for c in holders if c not in banned]
        return sorted(holders)

    def record_false_hit(self, client: int | None = None, doc: int | None = None) -> None:
        self.stats.false_hits += 1

    def record_false_miss(self) -> None:
        self.stats.false_misses += 1
