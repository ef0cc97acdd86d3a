"""Every browser cache of a population in one flat slot pool.

:class:`~repro.core.simulator.Simulator` keeps one cache *object* per
client (an ``LRUCache`` wrapping an ``OrderedDict``).  At a million
clients the per-object overhead alone costs hundreds of megabytes
before a single document is cached.  :class:`FlatBrowsers` is the
second client-state layout: parallel columns shared by every client,
a packed ``(client, doc) -> slot`` dict, and a few machine words per
client, all of one uniform capacity.  Its operations replicate LRU
browser caches exactly, so a replay over either layout is
bit-identical.

The pool is a store (:mod:`repro.cache.stores`): the replay loop
calls :attr:`FlatBrowsers.probe` for every browser probe and
:attr:`FlatBrowsers.fill` for every browser fill, functions bound over
the pool's columns, so a call loads no attribute.  Its probe returns a
slot (``-1``: a miss), not an entry; a fill takes that slot, so it
looks nothing up twice, and reports the index events it causes
(evictions, then the insert) to the handles it is given.
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
    """*n_clients* browser caches of *capacity* bytes each, in one flat
    slot pool.

    Replicates :class:`repro.cache.lru.LRUCache` semantics exactly —
    insertion at the MRU end, touch via move-to-end, eviction from the
    LRU end excluding the just-put key, refresh-in-place with size
    delta, oversized inserts refused, the oversized-refresh corner
    evicting the key itself — over parallel columns linked into one
    doubly-linked LRU list per client.  The ``OrderedDict`` each
    ``LRUCache`` wraps iterates LRU to MRU; so does each linked list,
    so eviction *order* (and therefore every index event) matches.

    :attr:`probe` and :attr:`fill` are closures over the columns, bound
    at construction and again by :meth:`keep_chains`.  :attr:`fill`
    reports each victim, then the insert, to the index's event handles
    — the same events, in the same order, as the object LRU store's
    fill.

    Each slot stores its packed ``(client << DOC_BITS) | doc`` key
    (``e_key``).  Where the exact index or truth queries read them
    (:meth:`keep_chains`), slots also form per-document *holder chains*
    (``e_hprev``/``e_hnext``, newest slot in the ``chain_head`` dict:
    not an array, as ids run up to :data:`DOC_LIMIT`).

    Every column costs one word per cell — per-client cost is three
    words and per-cached-entry cost five plus one ``slot_of`` dict
    entry (seven with chains, plus one ``chain_head`` entry per cached
    document) — with no object per client or entry, which at a million
    clients is the difference between megabytes and gigabytes.  Values
    (occupancy ``used``, ``e_size``, ``e_ver``) are raw ``array('q')``
    ints.  Slot ids and packed keys (``head``, ``tail``, ``e_key``,
    ``e_prev``, ``e_next``, ``e_hprev``, ``e_hnext``) are lists of the
    int objects ``slot_of`` and the free list already hold, so a cell
    costs no more than in an array and a read boxes no new int.
    """

    __slots__ = (
        "capacity",
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
        "_events",
        "probe",
        "fill",
    )

    def __init__(self, n_clients: int, capacity: int) -> None:
        self.capacity = capacity
        self.used = array("q", bytes(8 * n_clients))  # zeros
        self.head = [-1] * n_clients  # LRU end
        self.tail = [-1] * n_clients  # MRU end
        self.slot_of: dict[int, int] = {}
        self.e_key: list[int] = []
        self.e_size = array("q")
        self.e_ver = array("q")
        self.e_prev: list[int] = []
        self.e_next: list[int] = []
        self.free: list[int] = []
        #: doc -> newest slot of its holder chain; None: chains not kept.
        self.chain_head: dict[int, int] | None = None
        self.e_hprev: list[int] = []
        self.e_hnext: list[int] = []
        self._events = [0]
        self.probe, self.fill = _bind_ops(self)

    @property
    def n_events(self) -> int:
        """Index events of the fills (one per insert and per evict),
        counted while chains are kept."""
        return self._events[0]

    def keep_chains(self) -> None:
        """Keep holder chains and count index events (idempotent; called
        before the first fill, and before a caller binds ``probe`` and
        ``fill``, which it rebinds)."""
        if self.chain_head is None:
            self.chain_head = {}
            self.probe, self.fill = _bind_ops(self)

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


def _bind_ops(pool: FlatBrowsers):
    """``(probe, fill)`` for *pool*: one straight-line frame each, with
    every column, the capacity and the chain switch in closure cells
    (the replay loop runs ``probe`` on every request of a browser
    organization and ``fill`` on every browser miss)."""
    cap = pool.capacity
    used, head, tail = pool.used, pool.head, pool.tail
    slot_of = pool.slot_of
    slot_get = slot_of.get
    e_key, e_size, e_ver = pool.e_key, pool.e_size, pool.e_ver
    e_prev, e_next = pool.e_prev, pool.e_next
    free = pool.free
    chains = pool.chain_head
    e_hprev, e_hnext = pool.e_hprev, pool.e_hnext
    events_total = pool._events

    def probe(c: int, d: int) -> int:
        """LRU get: returns the slot (touched to MRU) or -1."""
        slot = slot_get((c << DOC_BITS) | d, -1)
        if slot >= 0:
            tl = tail[c]
            if tl != slot:
                # Move to the MRU end.  Not the tail, so the slot has a
                # successor and the list a tail.
                prev_ = e_prev[slot]
                next_ = e_next[slot]
                if prev_ >= 0:
                    e_next[prev_] = next_
                else:
                    head[c] = next_
                e_prev[next_] = prev_
                e_prev[slot] = tl
                e_next[slot] = -1
                e_next[tl] = slot
                tail[c] = slot
        return slot

    def fill(
        c: int,
        d: int,
        s: int,
        v: int,
        now: float,
        on_insert,
        on_evict,
        slot: int | None = None,
    ) -> None:
        """Insert or refresh (doc *d*, size *s*, version *v*) in client
        *c*'s cache — exactly ``LRUCache.put`` — and report the index
        events it causes, in the put's own order:
        ``on_evict(c, victim, now)`` per victim from the LRU end, then
        ``on_insert(c, d, v, s, now, already)`` if *d* is cached
        (*already*: it was cached before).  *slot* is what
        ``probe(c, d)`` returned for this request, with no fill of *c*
        in between (``None``: look it up).  A refresh grown beyond the
        capacity evicts *d* itself, which is reported twice: once as
        the put's victim and once as the refused refresh, as the
        object LRU store reports it.  A new document larger than the
        capacity is refused without an event.  Either handle may be
        ``None`` (no index, or one that reads the holder chains).  Kept
        chains gain new slots and lose victims, and the events are
        counted."""
        if slot is None:
            slot = slot_get((c << DOC_BITS) | d, -1)
        tl = tail[c]
        u = used[c]
        events = 1  # the insert, or the second report of a refused refresh
        if slot >= 0:
            already = True
            u += s - e_size[slot]
            e_size[slot] = s
            e_ver[slot] = v
            if tl != slot:
                # move to the MRU end (as in probe)
                prev_ = e_prev[slot]
                next_ = e_next[slot]
                if prev_ >= 0:
                    e_next[prev_] = next_
                else:
                    head[c] = next_
                e_prev[next_] = prev_
                e_prev[slot] = tl
                e_next[slot] = -1
                e_next[tl] = slot
                tail[c] = slot
        elif s > cap:
            return
        else:
            already = False
            key = (c << DOC_BITS) | d
            if free:
                slot = free.pop()
                e_key[slot] = key
                e_size[slot] = s
                e_ver[slot] = v
                e_prev[slot] = tl
                e_next[slot] = -1
            else:
                slot = len(e_key)
                e_key.append(key)
                e_size.append(s)
                e_ver.append(v)
                e_prev.append(tl)
                e_next.append(-1)
                if chains is not None:
                    e_hprev.append(-1)
                    e_hnext.append(-1)
            if tl >= 0:
                e_next[tl] = slot
            else:
                head[c] = slot
            tail[c] = slot
            slot_of[key] = slot
            u += s
            if chains is not None:
                # push onto the front of d's holder chain
                first = chains.get(d, -1)
                e_hprev[slot] = -1
                e_hnext[slot] = first
                if first >= 0:
                    e_hprev[first] = slot
                chains[d] = slot
        # Evict from the LRU end.  *slot* is the tail, so every other
        # victim has a successor.
        while u > cap:
            victim = head[c]
            vkey = e_key[victim]
            del slot_of[vkey]
            free.append(victim)
            u -= e_size[victim]
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
                used[c] = u
                if chains is not None:
                    events_total[0] += events
                if on_evict is not None:
                    on_evict(c, d, now)
                    on_evict(c, d, now)
                return
            next_ = e_next[victim]
            head[c] = next_
            e_prev[next_] = -1
            if on_evict is not None:
                on_evict(c, vkey & DOC_MASK, now)
        used[c] = u
        if chains is not None:
            events_total[0] += events
        if on_insert is not None:
            on_insert(c, d, v, s, now, already)

    return probe, fill
