"""The proxy's browser index file (paper §2).

The index records, for every client browser cache, which documents it
holds.  Maintenance is either *invalidation-based* (every insert and
evict is reported immediately — the index is always exact) or
*periodic* (changes are batched per client and flushed when the
:class:`~repro.index.staleness.PeriodicUpdatePolicy` fires — the
visible index lags the truth, producing false hits and false misses
that the simulation engine detects and charges).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.index.entry import IndexEntry
from repro.index.staleness import ClientUpdateState, PeriodicUpdatePolicy, StalenessStats

__all__ = ["BrowserIndex", "IndexLookup", "UpdateMode"]


class UpdateMode(Enum):
    """How browser caches report changes to the proxy's index."""

    INVALIDATION = "invalidation"
    PERIODIC = "periodic"


@dataclass(slots=True)
class IndexLookup:
    """A successful index search: the chosen holder and its entry.

    Non-frozen slots dataclass for cheap construction (one per index
    hit on the replay hot path); treated as immutable by convention.
    """

    client: int
    entry: IndexEntry | None


class BrowserIndex:
    """Directory of all clients' browser-cache contents.

    ``record_insert`` / ``record_evict`` are driven by the *true* cache
    events; what ``lookup`` sees depends on the update mode.
    """

    @property
    def is_stale(self) -> bool:
        """Whether lookups may disagree with the true browser caches."""
        return self.mode is UpdateMode.PERIODIC

    @property
    def update_messages(self) -> int:
        """Messages sent from browsers to keep this index current: one
        per insert/evict event under invalidation, one per batch flush
        under periodic updates, plus one per post-crash
        re-announcement."""
        if self.mode is UpdateMode.INVALIDATION:
            return self.n_insert_events + self.n_evict_events + self.reannouncements
        return self.stats.flushes + self.reannouncements

    def __init__(
        self,
        n_clients: int,
        mode: UpdateMode = UpdateMode.INVALIDATION,
        policy: PeriodicUpdatePolicy | None = None,
    ) -> None:
        if n_clients <= 0:
            raise ValueError(f"n_clients must be > 0, got {n_clients}")
        if mode is UpdateMode.PERIODIC and policy is None:
            policy = PeriodicUpdatePolicy()
        if mode is UpdateMode.INVALIDATION and policy is not None:
            raise ValueError("invalidation mode takes no periodic policy")
        self.n_clients = n_clients
        self.mode = mode
        self.policy = policy
        # Hot-path flag: cheaper than an enum identity test per event.
        self._invalidation = mode is UpdateMode.INVALIDATION
        #: visible index: doc -> {client: IndexEntry}
        self._visible: dict[int, dict[int, IndexEntry]] = {}
        #: pending (periodic mode): client -> {doc: IndexEntry | None}
        #: (None = eviction); dict form coalesces insert+evict churn.
        #: Allocated lazily per client: under invalidation mode (and for
        #: clients that never batch a change) nothing is created, so the
        #: index costs O(entries), not O(n_clients) — the difference
        #: between megabytes and nothing at a million clients.
        self._pending: dict[int, dict[int, IndexEntry | None]] = {}
        self._client_state: dict[int, ClientUpdateState] = {}
        self._rr = 0  # round-robin cursor for holder selection
        #: lookups where the ``banned`` filter removed at least one
        #: otherwise-qualifying candidate (quarantine defense).
        self.banned_candidates_skipped = 0
        self.n_entries = 0  # visible index items across all clients
        #: (doc, client) pairs restored from a checkpoint and not yet
        #: refreshed by a live event — false hits against these are
        #: recovery staleness, tracked separately.
        self._restored: set[tuple[int, int]] = set()
        self.stats = StalenessStats()
        self.n_lookups = 0
        self.n_insert_events = 0
        self.n_evict_events = 0
        self.reannouncements = 0

    # -- lazy per-client state -------------------------------------------

    def _state_of(self, client: int) -> ClientUpdateState:
        state = self._client_state.get(client)
        if state is None:
            state = self._client_state[client] = ClientUpdateState()
        return state

    def _pending_of(self, client: int) -> dict[int, IndexEntry | None]:
        pending = self._pending.get(client)
        if pending is None:
            pending = self._pending[client] = {}
        return pending

    # -- event intake ----------------------------------------------------

    def record_insert(
        self,
        client: int,
        doc: int,
        version: int,
        size: int,
        now: float,
        replace: bool = False,
    ) -> None:
        """A document entered *client*'s browser cache.

        Pass ``replace=True`` when the client is refreshing a document
        it already cached (a new version), so the per-client document
        count used by the periodic policy stays accurate.  (Under
        invalidation the per-client counters feed nothing, so the fast
        path skips them.)
        """
        self.n_insert_events += 1
        if self._invalidation:
            holders = self._visible.get(doc)
            if holders is None:
                self._visible[doc] = holders = {}
            if client not in holders:
                self.n_entries += 1
            holders[client] = IndexEntry(client, doc, version, size, now)
            if self._restored:
                self._restored.discard((doc, client))
            return
        state = self._state_of(client)
        if not replace:
            state.cached_docs += 1
        self._pending_of(client)[doc] = IndexEntry(client, doc, version, size, now)
        state.pending_changes += 1
        self._maybe_flush(client, now)

    def record_evict(self, client: int, doc: int, now: float) -> None:
        """A document left *client*'s browser cache (evicted or
        invalidated)."""
        self.n_evict_events += 1
        if self._invalidation:
            holders = self._visible.get(doc)
            if holders and client in holders:
                del holders[client]
                self.n_entries -= 1
                if self._restored:
                    self._restored.discard((doc, client))
                if not holders:
                    del self._visible[doc]
            return
        state = self._state_of(client)
        state.cached_docs = max(0, state.cached_docs - 1)
        self._pending_of(client)[doc] = None
        state.pending_changes += 1
        self._maybe_flush(client, now)

    # -- flushing (periodic mode) -----------------------------------------

    def _maybe_flush(self, client: int, now: float) -> None:
        assert self.policy is not None
        if self.policy.should_flush(self._state_of(client), now):
            self.flush(client, now)

    def flush(self, client: int, now: float) -> int:
        """Apply *client*'s batched updates to the visible index.

        Returns the number of items in the batch (the §5 overhead model
        charges one message per flush).
        """
        pending = self._pending.get(client)
        n_items = len(pending) if pending else 0
        if n_items == 0:
            return 0
        for doc, entry in pending.items():
            self._restored.discard((doc, client))
            if entry is None:
                holders = self._visible.get(doc)
                if holders and client in holders:
                    del holders[client]
                    self.n_entries -= 1
                    if not holders:
                        del self._visible[doc]
            else:
                holders = self._visible.setdefault(doc, {})
                if client not in holders:
                    self.n_entries += 1
                holders[client] = entry
        pending.clear()
        state = self._state_of(client)
        state.pending_changes = 0
        state.last_flush = now
        self.stats.flushes += 1
        self.stats.flushed_items += n_items
        return n_items

    def flush_all(self, now: float) -> None:
        for client in range(self.n_clients):
            self.flush(client, now)

    # -- lookups ------------------------------------------------------------

    def lookup(
        self,
        doc: int,
        exclude_client: int,
        now: float,
        version: int | None = None,
        banned=None,
    ) -> IndexLookup | None:
        """Search the (visible) index for a browser holding *doc*.

        *exclude_client* is the requester — its own browser already
        missed.  When *version* is given, only entries recorded with
        that version qualify (the proxy knows the current version from
        the origin's headers).
        *banned* holders (the engine's quarantine blacklist) are
        filtered out after qualification; ``None`` skips the filter
        entirely.  Holder choice is round-robin over qualifying clients
        so repeat lookups spread load, as the paper's non-bursty
        traffic measurement assumes.
        """
        self.n_lookups += 1
        holders = self._visible.get(doc)
        if not holders:
            return None
        candidates = [
            (c, e)
            for c, e in holders.items()
            if c != exclude_client and (version is None or e.version == version)
        ]
        if banned:
            kept = [(c, e) for c, e in candidates if c not in banned]
            if len(kept) != len(candidates):
                self.banned_candidates_skipped += 1
                candidates = kept
        if not candidates:
            return None
        self._rr += 1
        if len(candidates) == 1:
            client, entry = candidates[0]
        else:
            candidates.sort()
            client, entry = candidates[self._rr % len(candidates)]
        return IndexLookup(client, entry)

    def holders_of(self, doc: int) -> list[int]:
        """All clients the visible index believes hold *doc*."""
        return sorted(self._visible.get(doc, ()))

    def candidate_holders(
        self,
        doc: int,
        exclude_client: int,
        now: float,
        version: int | None = None,
        banned=None,
    ) -> list[int]:
        """Every client that would qualify for :meth:`lookup`, sorted.

        The engine's failover path walks this list when the holder
        chosen by ``lookup`` turns out to be offline, stale, or serving
        corrupted data.  Unlike ``lookup`` it does not advance the
        round-robin cursor or count an index hit — the request already
        paid for its one lookup."""
        holders = self._visible.get(doc)
        if not holders:
            return []
        return sorted(
            c
            for c, e in holders.items()
            if c != exclude_client
            and (not banned or c not in banned)
            and (version is None or e.version == version)
        )

    # -- crash recovery ----------------------------------------------------

    def export_snapshot(self) -> dict[int, dict[int, IndexEntry]]:
        """Copy of the proxy-side visible index for a checkpoint.

        Only ``_visible`` is proxy state; pending batches and per-client
        counters live at the clients and survive a proxy crash on their
        own.  Entries are frozen, so sharing them is safe.
        """
        return {doc: dict(holders) for doc, holders in self._visible.items()}

    def restore_snapshot(self, payload: dict[int, dict[int, IndexEntry]]) -> None:
        """Replace the visible index with a checkpoint's state.

        Every restored pair is remembered: the snapshot may predate
        evictions, so these entries can be stale even under
        invalidation mode — the engine still charges false hits for
        them, and :attr:`StalenessStats.false_hits_after_restore`
        attributes those to recovery.
        """
        self._visible = {doc: dict(holders) for doc, holders in payload.items()}
        self.n_entries = sum(len(h) for h in self._visible.values())
        self._restored = {
            (doc, client)
            for doc, holders in self._visible.items()
            for client in holders
        }

    def reannounce(self, client: int, items, now: float) -> int:
        """Client re-announces its full browser-cache contents.

        *items* iterates ``(doc, version, size)`` triples from the true
        cache.  Everything the index believed about *client* — restored
        or pending — is replaced wholesale, which is exactly what makes
        re-announcement the rebuild path after a crash.  Returns the
        number of announced items.
        """
        for doc in list(self._visible):
            holders = self._visible[doc]
            if client in holders:
                del holders[client]
                self.n_entries -= 1
                self._restored.discard((doc, client))
                if not holders:
                    del self._visible[doc]
        self._pending.pop(client, None)
        n_items = 0
        for doc, version, size in items:
            holders = self._visible.setdefault(doc, {})
            if client not in holders:
                self.n_entries += 1
            holders[client] = IndexEntry(client, doc, version, size, now)
            n_items += 1
        state = self._state_of(client)
        state.cached_docs = n_items
        state.pending_changes = 0
        state.last_flush = now
        self.reannouncements += 1
        return n_items

    def claimed_docs(self):
        """Every document the visible index claims some client holds —
        the proxy-side knowledge an inter-proxy digest can summarise
        (:mod:`repro.federation.digest`)."""
        return self._visible.keys()

    def claims_doc(self, doc: int) -> bool:
        """Whether the visible index claims any client holds *doc* —
        the O(1) point query behind the federation's fresh-digest
        (oracle) anchor."""
        return doc in self._visible

    # -- accounting ------------------------------------------------------------

    def footprint_bytes(self) -> int:
        """Memory needed at the proxy for the exact index (§5):
        one :attr:`IndexEntry.WIRE_BYTES` record per item."""
        return self.n_entries * IndexEntry.WIRE_BYTES

    def record_false_hit(self, client: int | None = None, doc: int | None = None) -> None:
        """The engine validated a lookup against the true cache and
        found the index stale.  When the engine names the probed holder,
        false hits against checkpoint-restored entries are attributed to
        recovery staleness as well."""
        self.stats.false_hits += 1
        if (
            client is not None
            and doc is not None
            and (doc, client) in self._restored
        ):
            self.stats.false_hits_after_restore += 1

    def record_false_miss(self) -> None:
        self.stats.false_misses += 1
