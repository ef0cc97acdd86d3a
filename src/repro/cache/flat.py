"""Every browser cache of a population in one flat slot pool.

:class:`~repro.core.simulator.Simulator` keeps one cache *object* per
client (an ``LRUCache`` wrapping an ``OrderedDict``).  At a million
clients the per-object overhead alone costs hundreds of megabytes
before a single document is cached.  :class:`FlatBrowsers` is the
second client-state layout: parallel ``array('q')`` columns shared by
every client, a packed ``(client, doc) -> slot`` dict, and a few
machine words per client.  Its operations replicate LRU browser caches
exactly, so a replay over either layout is bit-identical.
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

    ``array('q')`` stores raw 8-byte machine ints: per-client cost is
    five words and per-cached-entry cost five words plus one
    ``slot_of`` dict entry — no boxed-int or pointer-per-element
    overhead, which at a million clients is the difference between
    megabytes and gigabytes.
    """

    __slots__ = (
        "caps",
        "used",
        "head",
        "tail",
        "count",
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
        self.count = array("q", bytes(8 * n))
        self.slot_of: dict[int, int] = {}
        self.e_doc = array("q")
        self.e_size = array("q")
        self.e_ver = array("q")
        self.e_prev = array("q")
        self.e_next = array("q")
        self.free: list[int] = []

    # -- linked-list plumbing -----------------------------------------

    def _unlink(self, slot: int, c: int) -> None:
        prev_ = self.e_prev[slot]
        next_ = self.e_next[slot]
        if prev_ >= 0:
            self.e_next[prev_] = next_
        else:
            self.head[c] = next_
        if next_ >= 0:
            self.e_prev[next_] = prev_
        else:
            self.tail[c] = prev_

    def _append(self, slot: int, c: int) -> None:
        tl = self.tail[c]
        self.e_prev[slot] = tl
        self.e_next[slot] = -1
        if tl >= 0:
            self.e_next[tl] = slot
        else:
            self.head[c] = slot
        self.tail[c] = slot

    def _drop(self, slot: int, c: int, key: int) -> int:
        """Remove *slot* from client *c*; returns the freed size."""
        self._unlink(slot, c)
        del self.slot_of[key]
        self.free.append(slot)
        self.count[c] -= 1
        return self.e_size[slot]

    # -- cache operations ---------------------------------------------

    def probe(self, c: int, d: int) -> int:
        """LRU get: returns the slot (touched to MRU) or -1."""
        key = (c << DOC_BITS) | d
        slot = self.slot_of.get(key)
        if slot is None:
            return -1
        if self.tail[c] != slot:
            self._unlink(slot, c)
            self._append(slot, c)
        return slot

    def peek(self, c: int, d: int) -> int:
        """Membership probe without touching recency; slot or -1."""
        slot = self.slot_of.get((c << DOC_BITS) | d)
        return -1 if slot is None else slot

    def put(self, c: int, d: int, s: int, v: int) -> list[int]:
        """Insert/refresh (doc, size, version); returns evicted docs in
        eviction order — exactly ``LRUCache.put``."""
        key = (c << DOC_BITS) | d
        slot = self.slot_of.get(key)
        used = self.used[c]
        cap = self.caps[c]
        if slot is not None:
            used += s - self.e_size[slot]
            self.e_size[slot] = s
            self.e_ver[slot] = v
            if self.tail[c] != slot:
                self._unlink(slot, c)
                self._append(slot, c)
        elif s > cap:
            return []
        else:
            free = self.free
            if free:
                slot = free.pop()
                self.e_doc[slot] = d
                self.e_size[slot] = s
                self.e_ver[slot] = v
            else:
                slot = len(self.e_doc)
                self.e_doc.append(d)
                self.e_size.append(s)
                self.e_ver.append(v)
                self.e_prev.append(-1)
                self.e_next.append(-1)
            self.slot_of[key] = slot
            self._append(slot, c)
            self.count[c] += 1
            used += s
        if used <= cap:
            self.used[c] = used
            return []
        evicted: list[int] = []
        while used > cap:
            victim = self.head[c]
            if victim == slot:
                # Only the just-refreshed oversized entry remains.
                used -= self._drop(slot, c, key)
                evicted.append(d)
                break
            vdoc = self.e_doc[victim]
            used -= self._drop(victim, c, (c << DOC_BITS) | vdoc)
            evicted.append(vdoc)
        self.used[c] = used
        return evicted
