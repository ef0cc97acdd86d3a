"""Bloom-summary browser index usable directly by the simulator.

Implements Fan et al.'s Summary Cache discipline for the BAPS browser
index: the proxy holds one Bloom filter per client instead of exact
entries.  Insertions are added to the client's filter immediately
(adding to a Bloom filter is cheap and monotone); evictions cannot be
removed, so the filter goes stale until the client sends a fresh
summary — a *rebuild*, triggered after a threshold fraction of the
client's cached documents has changed.

Lookups can therefore return **false positives** (evicted documents, or
plain Bloom collisions); the simulation engine validates every
candidate against the true browser cache and charges a wasted round
trip for false hits, exactly as with the periodic exact index.

Layout: bit-sliced Python-int bitsets.  ``_rows[c]`` is client *c*'s
filter as one int (shaped by ``BloomFilter.for_capacity``) and
``_cols[p]`` the int of clients whose filter has bit *p*.  A lookup
ANDs the columns of the document's set bits (its mask is one lookup in
the shape's :class:`~repro.index.bloom.ShapeTable`), stopping at the
first empty result, and lists the set bits, so claimants come out in
ascending client order with no per-client work.  An insert ORs the
document's mask into the row, unless it makes a rebuild due: then the
rebuild alone writes the row.  A rebuild, re-announcement or restore
recomputes the row in one batch (:func:`~repro.index.bloom.keys_mask`).
Either way only the columns of the bits that changed flip the client's
bit.  A snapshot is a copy of the row list.  ``n_entries`` is a running
count and ``footprint_bytes()`` the modelled filter size (``n_clients``
filters of whole 64-bit words), so both are O(1).

The claimed contents behind the filters are also kept per document: a
``doc -> number of clients claiming it`` map, updated by every insert,
evict and re-announcement and rebuilt on restore.  So
:meth:`BloomBrowserIndex.claimed_docs` (what an inter-proxy digest
summarises) is its key view and :meth:`BloomBrowserIndex.claims_doc`
is one dict probe, with no walk over the clients.
"""

from __future__ import annotations

from collections import Counter

from repro.index.bloom import BloomFilter, keys_mask, shape_table
from repro.index.browser_index import IndexLookup
from repro.index.entry import IndexEntry
from repro.index.staleness import StalenessStats

__all__ = ["BloomBrowserIndex"]


class BloomBrowserIndex:
    """Summary-Cache style index: one Bloom filter (an int row) per client.

    Exposes the same interface the engine uses on
    :class:`~repro.index.browser_index.BrowserIndex`.
    """

    #: lookups may be wrong; the engine must validate and may count
    #: false hits/misses.
    is_stale = True

    def __init__(
        self,
        n_clients: int,
        expected_docs_per_client: int = 512,
        bits_per_doc: float = 16.0,
        rebuild_threshold: float = 0.10,
    ) -> None:
        if n_clients <= 0:
            raise ValueError(f"n_clients must be > 0, got {n_clients}")
        if not (0.0 <= rebuild_threshold <= 1.0):
            raise ValueError(
                f"rebuild_threshold must be in [0, 1], got {rebuild_threshold}"
            )
        self.n_clients = n_clients
        self.bits_per_doc = bits_per_doc
        self.expected_docs = max(1, expected_docs_per_client)
        self.rebuild_threshold = rebuild_threshold
        shape = BloomFilter.for_capacity(self.expected_docs, bits_per_doc)
        #: doc -> its filter bits as an int (process-wide, per shape).
        self._masks = shape_table(shape.n_bits, shape.n_hashes)
        #: ``_rows[c]``: client c's filter bits; ``_cols[p]``: the
        #: clients whose filter has bit p.
        self._rows = [0] * n_clients
        self._cols = [0] * shape.n_bits
        self._footprint = n_clients * shape.size_bytes
        #: true per-client contents (each client knows its own cache and
        #: sends the full summary on rebuild): client -> {doc: (version, size)}
        self._contents: list[dict[int, tuple[int, int]]] = [
            {} for _ in range(n_clients)
        ]
        #: running total of ``len(c) for c in self._contents``.
        self.n_entries = 0
        #: doc -> number of clients whose ``_contents`` hold it.
        self._claims: Counter[int] = Counter()
        self._changes_since_rebuild = [0] * n_clients
        self._rr = 0
        #: lookups where the ``banned`` filter removed at least one
        #: otherwise-qualifying candidate (quarantine defense).
        self.banned_candidates_skipped = 0
        #: clients whose filter was restored from a checkpoint and not
        #: yet refreshed by a rebuild or re-announcement — false hits
        #: against them are recovery staleness.
        self._restored_clients: set[int] = set()
        self.stats = StalenessStats()
        self.n_lookups = 0
        self.n_insert_events = 0
        self.n_evict_events = 0
        self.rebuilds = 0
        self.reannouncements = 0

    # -- event intake (same signatures as BrowserIndex) --------------------

    def record_insert(
        self,
        client: int,
        doc: int,
        version: int,
        size: int,
        now: float,
        replace: bool = False,
    ) -> None:
        self.n_insert_events += 1
        contents = self._contents[client]
        if doc not in contents:
            self.n_entries += 1
            self._claims[doc] += 1
        contents[doc] = (version, size)
        # a new version under the same key introduces nothing stale; a
        # due rebuild summarises *doc* too, so the row is written once
        if replace or not self._bump(client, now):
            self._set_row(client, self._rows[client] | self._masks[doc])

    def record_evict(self, client: int, doc: int, now: float) -> None:
        self.n_evict_events += 1
        if self._contents[client].pop(doc, None) is not None:
            self.n_entries -= 1
            self._unclaim(doc)
        # the filter cannot forget: this is the staleness source
        self._bump(client, now)

    def _unclaim(self, doc: int) -> None:
        claims = self._claims
        n = claims[doc] - 1
        if n:
            claims[doc] = n
        else:
            del claims[doc]

    def _bump(self, client: int, now: float) -> bool:
        """Count one change to *client*'s cache and rebuild its summary
        once the changes pass the threshold; returns whether it did."""
        self._changes_since_rebuild[client] += 1
        basis = max(len(self._contents[client]), 20)
        if self._changes_since_rebuild[client] >= self.rebuild_threshold * basis:
            self.rebuild(client, now)
            return True
        return False

    def rebuild(self, client: int, now: float) -> None:
        """Client sends a fresh summary of its true contents."""
        self._refill(client)
        self._changes_since_rebuild[client] = 0
        self._restored_clients.discard(client)
        self.rebuilds += 1
        self.stats.flushes += 1
        self.stats.flushed_items += len(self._contents[client])

    def _refill(self, client: int) -> None:
        """Reset *client*'s row to a summary of its claimed contents."""
        masks = self._masks
        row = keys_mask(self._contents[client], masks.n_bits, masks.n_hashes)
        self._set_row(client, row)

    def _set_row(self, client: int, row: int) -> None:
        """Replace *client*'s row, toggling its bit in the column of
        every bit that changed."""
        changed = self._rows[client] ^ row
        self._rows[client] = row
        cols = self._cols
        flag = 1 << client
        while changed:
            pos = changed.bit_length() - 1
            cols[pos] ^= flag
            changed ^= 1 << pos

    # -- crash recovery ----------------------------------------------------

    def export_snapshot(self) -> dict:
        """Deep copy of the proxy-side summary state for a checkpoint:
        the filter rows plus the claimed contents they summarise."""
        return {
            "rows": list(self._rows),
            "contents": [dict(c) for c in self._contents],
            "changes": list(self._changes_since_rebuild),
        }

    def restore_snapshot(self, payload: dict) -> None:
        """Replace the summaries with a checkpoint's state.  Restored
        filters may claim documents their clients evicted after the
        snapshot — those surface as false hits attributed to recovery."""
        for client, row in enumerate(payload["rows"]):
            self._set_row(client, row)
        self._contents = [dict(c) for c in payload["contents"]]
        self.n_entries = sum(len(c) for c in self._contents)
        self._claims = Counter()
        for contents in self._contents:
            self._claims.update(contents.keys())
        self._changes_since_rebuild = list(payload["changes"])
        self._restored_clients = set(range(self.n_clients))

    def reannounce(self, client: int, items, now: float) -> int:
        """Client re-announces its full browser-cache contents as a
        fresh summary.  *items* iterates ``(doc, version, size)``
        triples from the true cache.  Returns the announced item count.
        """
        contents = {doc: (version, size) for doc, version, size in items}
        old = self._contents[client]
        self.n_entries += len(contents) - len(old)
        for doc in old:
            self._unclaim(doc)
        self._claims.update(contents.keys())
        self._contents[client] = contents
        self._refill(client)
        self._changes_since_rebuild[client] = 0
        self._restored_clients.discard(client)
        self.reannouncements += 1
        return len(contents)

    # -- lookups ----------------------------------------------------------

    def lookup(
        self,
        doc: int,
        exclude_client: int,
        now: float,
        version: int | None = None,
        banned=None,
    ) -> IndexLookup | None:
        """Pick a candidate holder from the summaries.

        Bloom summaries carry no version or size, so the returned
        entry echoes the client's *claimed* contents when known; the
        engine always validates against the true cache.  *banned*
        holders (the engine's quarantine blacklist) are filtered out;
        ``None`` skips the filter entirely.
        """
        self.n_lookups += 1
        candidates = [c for c in self.holders_of(doc) if c != exclude_client]
        if banned:
            kept = [c for c in candidates if c not in banned]
            if len(kept) != len(candidates):
                self.banned_candidates_skipped += 1
                candidates = kept
        if not candidates:
            return None
        self._rr += 1
        client = candidates[self._rr % len(candidates)]
        known = self._contents[client].get(doc)
        entry = IndexEntry(
            client=client,
            doc=doc,
            version=known[0] if known else -1,
            size=known[1] if known else 0,
            timestamp=now,
        )
        return IndexLookup(client=client, entry=entry)

    def holders_of(self, doc: int) -> list[int]:
        """Clients whose summary claims *doc* (may be false positives),
        ascending."""
        cols = self._cols
        claimed = -1
        mask = self._masks[doc]
        while mask:
            pos = mask.bit_length() - 1
            claimed &= cols[pos]
            if not claimed:
                return []
            mask ^= 1 << pos
        holders = []
        while claimed:
            client = claimed.bit_length() - 1
            holders.append(client)
            claimed ^= 1 << client
        holders.reverse()
        return holders

    def candidate_holders(
        self,
        doc: int,
        exclude_client: int,
        now: float,
        version: int | None = None,
        banned=None,
    ) -> list[int]:
        """Failover candidates: every other client whose filter claims
        *doc*.  Summaries carry no version, so candidates may be wrong —
        the engine validates each probe against the true cache."""
        return [
            c
            for c in self.holders_of(doc)
            if c != exclude_client and (not banned or c not in banned)
        ]

    def claimed_docs(self):
        """Every document some client's summary claims to hold — the
        proxy-side knowledge an inter-proxy digest can summarise
        (:mod:`repro.federation.digest`).  Deduplicated across clients:
        a live key view of the claim counts.
        """
        return self._claims.keys()

    def claims_doc(self, doc: int) -> bool:
        """Whether any client's claimed contents include *doc* — the
        O(1) point query behind the federation's fresh-digest (oracle)
        anchor.  Uses the claimed contents, not the filters, matching
        what :meth:`claimed_docs` feeds a freshly built digest."""
        return doc in self._claims

    # -- accounting ----------------------------------------------------------

    def footprint_bytes(self) -> int:
        """Proxy-side memory: the filters themselves, each in whole
        64-bit words."""
        return self._footprint

    @property
    def update_messages(self) -> int:
        """One message per summary rebuild or re-announcement."""
        return self.rebuilds + self.reannouncements

    def record_false_hit(self, client: int | None = None, doc: int | None = None) -> None:
        self.stats.false_hits += 1
        if client is not None and client in self._restored_clients:
            self.stats.false_hits_after_restore += 1

    def record_false_miss(self) -> None:
        self.stats.false_misses += 1
