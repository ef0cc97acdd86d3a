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

__all__ = ["DOC_BITS", "DOC_LIMIT", "FlatBrowsers"]

#: bits reserved for the document id in the packed (client, doc) key.
DOC_BITS = 40
#: document ids must stay below this for the packed key to be unique.
DOC_LIMIT = 1 << DOC_BITS


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

    ``array('q')`` stores raw 8-byte machine ints: per-client cost is
    four words and per-cached-entry cost five words plus one
    ``slot_of`` dict entry — no boxed-int or pointer-per-element
    overhead, which at a million clients is the difference between
    megabytes and gigabytes.
    """

    __slots__ = (
        "caps",
        "used",
        "head",
        "tail",
        "slot_of",
        "e_doc",
        "e_size",
        "e_ver",
        "e_prev",
        "e_next",
        "free",
    )

    def __init__(self, capacities: list[int]) -> None:
        n = len(capacities)
        self.caps = array("q", capacities)
        self.used = array("q", bytes(8 * n))  # zeros
        self.head = array("q", [-1]) * n  # LRU end
        self.tail = array("q", [-1]) * n  # MRU end
        self.slot_of: dict[int, int] = {}
        self.e_doc = array("q")
        self.e_size = array("q")
        self.e_ver = array("q")
        self.e_prev = array("q")
        self.e_next = array("q")
        self.free: list[int] = []

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

    def peek(self, c: int, d: int) -> int:
        """Membership probe without touching recency; slot or -1."""
        slot = self.slot_of.get((c << DOC_BITS) | d)
        return -1 if slot is None else slot

    def fill(
        self,
        c: int,
        d: int,
        s: int,
        v: int,
        now: float,
        on_insert,
        on_evict,
        ttl: float | None,
    ) -> None:
        """Insert or refresh (doc *d*, size *s*, version *v*) in client
        *c*'s cache — exactly ``LRUCache.put`` — and report the index
        events it causes, in the put's own order:
        ``on_evict(c, victim, now)`` per victim from the LRU end, then
        ``on_insert(c, d, v, s, now, ttl, already)`` if *d* is cached
        (*already*: it was cached before).  A refresh grown beyond the
        capacity evicts *d* itself, which is reported twice: once as
        the put's victim and once as the refused refresh, as the
        object backend reports it.  A new document larger than the
        capacity is refused without an event.  Either handle may be
        ``None`` (no index); *ttl* is the index entry lifetime passed
        on to ``on_insert``."""
        key = (c << DOC_BITS) | d
        slot_of = self.slot_of
        slot = slot_of.get(key)
        e_prev = self.e_prev
        e_next = self.e_next
        tail = self.tail
        tl = tail[c]
        used = self.used[c]
        cap = self.caps[c]
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
                self.e_doc[slot] = d
                self.e_size[slot] = s
                self.e_ver[slot] = v
                e_prev[slot] = tl
                e_next[slot] = -1
            else:
                slot = len(self.e_doc)
                self.e_doc.append(d)
                self.e_size.append(s)
                self.e_ver.append(v)
                e_prev.append(tl)
                e_next.append(-1)
            if tl >= 0:
                e_next[tl] = slot
            else:
                self.head[c] = slot
            tail[c] = slot
            slot_of[key] = slot
            used += s
        if used > cap:
            # Evict from the LRU end.  *slot* is the tail, so every
            # other victim has a successor.
            head = self.head
            e_doc = self.e_doc
            e_size = self.e_size
            free = self.free
            while used > cap:
                victim = head[c]
                if victim == slot:
                    # Only the just-refreshed oversized entry remains.
                    head[c] = tail[c] = -1
                    del slot_of[key]
                    free.append(slot)
                    self.used[c] = used - s
                    if on_evict is not None:
                        on_evict(c, d, now)
                        on_evict(c, d, now)
                    return
                next_ = e_next[victim]
                head[c] = next_
                e_prev[next_] = -1
                vdoc = e_doc[victim]
                del slot_of[(c << DOC_BITS) | vdoc]
                free.append(victim)
                used -= e_size[victim]
                if on_evict is not None:
                    on_evict(c, vdoc, now)
        self.used[c] = used
        if on_insert is not None:
            on_insert(c, d, v, s, now, ttl, already)
