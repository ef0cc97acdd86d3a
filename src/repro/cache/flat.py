"""Every browser cache of a population in one flat slot pool.

:class:`~repro.core.simulator.Simulator` keeps one cache *object* per
client (an ``LRUCache`` wrapping an ``OrderedDict``).  At a million
clients the per-object overhead alone costs hundreds of megabytes
before a single document is cached.  :class:`FlatBrowsers` is the
second client-state layout: parallel ``array('q')`` columns shared by
every client, a packed ``(client, doc) -> slot`` dict, and a few
machine words per client.  Its operations replicate LRU browser caches
exactly, so a replay over either layout is bit-identical.

The replay loop calls :meth:`FlatBrowsers.probe` for every browser
probe and :meth:`FlatBrowsers.fill` for every browser fill; a fill
reports the index events it causes (evictions, then the insert) to
the handles it is given, so one call replaces the put, the returned
eviction list and the engine's reporting loop.
"""

from __future__ import annotations

from array import array

__all__ = ["DOC_BITS", "DOC_LIMIT", "DOC_MASK", "FlatBrowsers"]

#: bits reserved for the document id in the packed (client, doc) key.
DOC_BITS = 40
#: document ids must stay below this for the packed key to be unique.
DOC_LIMIT = 1 << DOC_BITS
#: the document id of a packed key is ``key & DOC_MASK``.
DOC_MASK = DOC_LIMIT - 1


class FlatBrowsers:
    """Every browser cache in one flat slot pool.

    Replicates :class:`repro.cache.lru.LRUCache` semantics exactly —
    insertion at the MRU end, touch via move-to-end, eviction from the
    LRU end excluding the just-put key, refresh-in-place with size
    delta, oversized inserts refused, the oversized-refresh corner
    evicting the key itself — over parallel ``array('q')`` columns
    linked into one doubly-linked LRU list per client.  The
    ``OrderedDict`` each ``LRUCache`` wraps iterates LRU to MRU; so
    does each linked list, so eviction *order* (and therefore every
    index event) matches.

    There is no hook and no returned eviction list: :meth:`fill` takes
    the index's event handles and reports each victim, then the
    insert, itself — the same events, in the same order, that the
    object backend sends through ``on_evict`` and the engine's insert
    report.

    Each slot stores its packed ``(client << DOC_BITS) | doc`` key
    (``e_key``).  Where the exact index or truth queries read them
    (:meth:`keep_chains`), slots also form per-document *holder chains*
    (``e_hprev``/``e_hnext``, newest slot in the ``chain_head`` dict:
    not an array, as ids run up to :data:`DOC_LIMIT`).

    ``array('q')`` stores raw 8-byte machine ints: per-client cost is
    four words and per-cached-entry cost five words plus one
    ``slot_of`` dict entry (seven words with chains, plus one
    ``chain_head`` entry per cached document) — no boxed-int or
    pointer-per-element overhead, which at a million clients is the
    difference between megabytes and gigabytes.
    """

    __slots__ = (
        "caps",
        "used",
        "head",
        "tail",
        "slot_of",
        "e_key",
        "e_size",
        "e_ver",
        "e_prev",
        "e_next",
        "free",
        "chain_head",
        "e_hprev",
        "e_hnext",
        "n_events",
    )

    def __init__(self, capacities: list[int]) -> None:
        n = len(capacities)
        self.caps = array("q", capacities)
        self.used = array("q", bytes(8 * n))  # zeros
        self.head = array("q", [-1]) * n  # LRU end
        self.tail = array("q", [-1]) * n  # MRU end
        self.slot_of: dict[int, int] = {}
        self.e_key = array("q")
        self.e_size = array("q")
        self.e_ver = array("q")
        self.e_prev = array("q")
        self.e_next = array("q")
        self.free: list[int] = []
        #: doc -> newest slot of its holder chain; None: chains not kept.
        self.chain_head: dict[int, int] | None = None
        self.e_hprev = array("q")
        self.e_hnext = array("q")
        self.n_events = 0  # index events of the fills, while chains are kept

    def keep_chains(self) -> None:
        """Keep holder chains and count index events (idempotent; called
        before the first fill)."""
        if self.chain_head is None:
            self.chain_head = {}

    def holders(self, d: int, exclude: int, version: int | None) -> list[int]:
        """Clients but *exclude* holding *d* (at *version* unless None)."""
        found = []
        slot = self.chain_head.get(d, -1)
        e_key, e_ver, e_hnext = self.e_key, self.e_ver, self.e_hnext
        while slot >= 0:
            c = e_key[slot] >> DOC_BITS
            if c != exclude and (version is None or e_ver[slot] == version):
                found.append(c)
            slot = e_hnext[slot]
        return found

    # -- cache operations ---------------------------------------------
    #
    # Each operation is one straight-line frame (no helper calls): the
    # replay loop runs ``probe`` on every request of a browser
    # organization and ``fill`` on every browser miss.

    def probe(self, c: int, d: int) -> int:
        """LRU get: returns the slot (touched to MRU) or -1."""
        slot = self.slot_of.get((c << DOC_BITS) | d)
        if slot is None:
            return -1
        tail = self.tail
        tl = tail[c]
        if tl != slot:
            # Move to the MRU end.  Not the tail, so the slot has a
            # successor and the list a tail.
            e_prev = self.e_prev
            e_next = self.e_next
            prev_ = e_prev[slot]
            next_ = e_next[slot]
            if prev_ >= 0:
                e_next[prev_] = next_
            else:
                self.head[c] = next_
            e_prev[next_] = prev_
            e_prev[slot] = tl
            e_next[slot] = -1
            e_next[tl] = slot
            tail[c] = slot
        return slot

    def fill(
        self,
        c: int,
        d: int,
        s: int,
        v: int,
        now: float,
        on_insert,
        on_evict,
    ) -> None:
        """Insert or refresh (doc *d*, size *s*, version *v*) in client
        *c*'s cache — exactly ``LRUCache.put`` — and report the index
        events it causes, in the put's own order:
        ``on_evict(c, victim, now)`` per victim from the LRU end, then
        ``on_insert(c, d, v, s, now, already)`` if *d* is cached
        (*already*: it was cached before).  A refresh grown beyond the
        capacity evicts *d* itself, which is reported twice: once as
        the put's victim and once as the refused refresh, as the
        object backend reports it.  A new document larger than the
        capacity is refused without an event.  Either handle may be
        ``None`` (no index, or one that reads the holder chains).  Kept
        chains gain new slots and lose victims; ``n_events`` counts."""
        key = (c << DOC_BITS) | d
        slot_of = self.slot_of
        slot = slot_of.get(key)
        e_prev = self.e_prev
        e_next = self.e_next
        tail = self.tail
        tl = tail[c]
        used = self.used[c]
        cap = self.caps[c]
        chains = self.chain_head
        events = 1  # the insert, or the second report of a refused refresh
        if slot is not None:
            already = True
            used += s - self.e_size[slot]
            self.e_size[slot] = s
            self.e_ver[slot] = v
            if tl != slot:
                # move to the MRU end (as in probe)
                prev_ = e_prev[slot]
                next_ = e_next[slot]
                if prev_ >= 0:
                    e_next[prev_] = next_
                else:
                    self.head[c] = next_
                e_prev[next_] = prev_
                e_prev[slot] = tl
                e_next[slot] = -1
                e_next[tl] = slot
                tail[c] = slot
        elif s > cap:
            return
        else:
            already = False
            free = self.free
            if free:
                slot = free.pop()
                self.e_key[slot] = key
                self.e_size[slot] = s
                self.e_ver[slot] = v
                e_prev[slot] = tl
                e_next[slot] = -1
            else:
                slot = len(self.e_key)
                self.e_key.append(key)
                self.e_size.append(s)
                self.e_ver.append(v)
                e_prev.append(tl)
                e_next.append(-1)
                if chains is not None:
                    self.e_hprev.append(-1)
                    self.e_hnext.append(-1)
            if tl >= 0:
                e_next[tl] = slot
            else:
                self.head[c] = slot
            tail[c] = slot
            slot_of[key] = slot
            used += s
            if chains is not None:
                # push onto the front of d's holder chain
                first = chains.get(d, -1)
                e_hprev = self.e_hprev
                e_hprev[slot] = -1
                self.e_hnext[slot] = first
                if first >= 0:
                    e_hprev[first] = slot
                chains[d] = slot
        if used > cap:
            # Evict from the LRU end.  *slot* is the tail, so every
            # other victim has a successor.
            head = self.head
            e_key = self.e_key
            e_size = self.e_size
            e_hprev, e_hnext = self.e_hprev, self.e_hnext
            free = self.free
            while used > cap:
                victim = head[c]
                vkey = e_key[victim]
                del slot_of[vkey]
                free.append(victim)
                used -= e_size[victim]
                if chains is not None:
                    # unlink from the victim document's holder chain
                    hp, hn = e_hprev[victim], e_hnext[victim]
                    if hp >= 0:
                        e_hnext[hp] = hn
                    elif hn >= 0:
                        chains[vkey & DOC_MASK] = hn
                    else:
                        del chains[vkey & DOC_MASK]
                    if hn >= 0:
                        e_hprev[hn] = hp
                    events += 1
                if victim == slot:
                    # Only the just-refreshed oversized entry remains.
                    head[c] = tail[c] = -1
                    self.used[c] = used
                    if chains is not None:
                        self.n_events += events
                    if on_evict is not None:
                        on_evict(c, d, now)
                        on_evict(c, d, now)
                    return
                next_ = e_next[victim]
                head[c] = next_
                e_prev[next_] = -1
                if on_evict is not None:
                    on_evict(c, vkey & DOC_MASK, now)
        self.used[c] = used
        if chains is not None:
            self.n_events += events
        if on_insert is not None:
            on_insert(c, d, v, s, now, already)
