"""Every store (``repro.cache.stores``) is a population of caches.

A model test drives random fill/probe sequences through one store —
the flat slot pool, plain LRU objects, every other policy, the tiered
cache or the one-client proxy — and through one cache per client of
the same policy (``LRUCache`` for the flat pool) whose ``on_evict`` hook
records events, with the index reports added around a put (the
insert, or the second eviction of a refused refresh).  Contents and
order, occupancy, the flat pool's slot reuse and the exact sequence of
index events must agree.  A differential test drives the same fills into a
pool read by the chain index and into one reporting to a
``BrowserIndex``: every lookup, failover list and counter must agree,
and every live slot must sit on exactly its document's holder chain.
After a real BAPS replay, the exact invalidation index's visible
entries must equal a walk of the browser caches on both client-state
backends.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache import POLICIES, FlatBrowsers, LRUCache, Tier, TieredLRUCache
from repro.cache.flat import DOC_BITS, DOC_MASK
from repro.cache.stores import bind_store
from repro.core import Organization, SimulationConfig
from repro.core.simulator import Simulator
from repro.core.stream_engine import StreamSimulator
from repro.index import BrowserIndex
from repro.index.chain import ChainIndex
from tests.conftest import example_budget

BAPS = Organization.BROWSERS_AWARE_PROXY
N_CLIENTS = 3

#: small capacities, sizes and document ids, so evictions, refused
#: inserts and refreshes grown past the capacity are all common.
_capacity = st.sampled_from([0, 30, 60, 100])
#: the last field: probe first and hand the fill the probed slot, as
#: the replay loop does on a browser miss.
_fill = st.tuples(
    st.just("fill"),
    st.integers(0, N_CLIENTS - 1),
    st.integers(0, 4),
    st.sampled_from([0, 5, 20, 35, 50, 90]),
    st.integers(0, 2),
    st.booleans(),
)
_probe = st.tuples(
    st.just("probe"), st.integers(0, N_CLIENTS - 1), st.integers(0, 4)
)


def walk(flat: FlatBrowsers, c: int) -> list[tuple[int, int, int]]:
    """(doc, size, version) of client *c* from LRU to MRU, checking the
    back links on the way."""
    items, prev, slot = [], -1, flat.head[c]
    while slot >= 0:
        assert flat.e_prev[slot] == prev
        key = flat.e_key[slot]
        assert key >> DOC_BITS == c and flat.slot_of[key] == slot
        items.append((key & DOC_MASK, flat.e_size[slot], flat.e_ver[slot]))
        prev, slot = slot, flat.e_next[slot]
    assert flat.tail[c] == prev
    return items


#: the store kinds: the flat pool, plain LRU objects, every other
#: policy (each against its own cache as the model), the tiered cache,
#: and the proxy, a store of one client whose fills get ``None`` handles.
STORE_KINDS = ["flat", "lru", *sorted(set(POLICIES) - {"lru"}), "tiered", "proxy"]


def _cache(kind: str, capacity: int):
    if kind == "tiered":
        return TieredLRUCache(capacity, 0.5)
    return POLICIES.get(kind, LRUCache)(capacity)


def _contents(cache) -> list[tuple[int, int, int]]:
    """(doc, size, version) in the cache's own order (LRU to MRU for
    LRU, memory then disk for tiered)."""
    return [(k, cache.peek(k).size, cache.peek(k).version) for k in cache]


@given(
    kind=st.sampled_from(STORE_KINDS),
    capacity=_capacity,
    ops=st.lists(st.one_of(_fill, _probe), min_size=20, max_size=80),
    indexed=st.booleans(),
)
@settings(max_examples=example_budget(300), deadline=None)
def test_fill_and_probe_match_one_lru_cache_per_client(kind, capacity, ops, indexed):
    """Every store against one cache object per client (an ``LRUCache``
    for the flat pool) whose ``on_evict`` hook records the evictions,
    plus the reports the engine used to add around a put."""
    n = 1 if kind == "proxy" else N_CLIENTS
    indexed = indexed and kind != "proxy"
    flat = FlatBrowsers(n, capacity) if kind == "flat" else None
    caches = [_cache(kind, capacity) for _ in range(n)]
    probe, fill = (flat.probe, flat.fill) if flat is not None else bind_store(caches)[:2]
    models = [_cache(kind, capacity) for _ in range(n)]
    got: list[tuple] = []
    want: list[tuple] = []
    now = 0.0
    for cid, model in enumerate(models):
        model.on_evict = lambda doc, cid=cid: want.append(("evict", cid, doc, now))

    def on_insert(c, d, v, s, t, already):
        got.append(("insert", c, d, v, s, t, already))

    def on_evict(c, d, t):
        got.append(("evict", c, d, t))

    def probe_both(c, d):
        """Probe the store and the model; returns the store's handle."""
        entry, tier = models[c].get(d) if kind == "tiered" else (models[c].get(d), None)
        if flat is not None:
            handle = probe(c, d)
            found = (flat.e_size[handle], flat.e_ver[handle]) if handle >= 0 else None
        else:
            handle, memory = probe(c, d)
            assert memory == (None if tier is None else tier is Tier.MEMORY)
            found = handle and (handle.size, handle.version)
        assert found == (entry and (entry.size, entry.version))
        return handle

    peak = 0  # most entries ever live at once, mid-fill included
    for step, op in enumerate(ops):
        now = float(step)
        live = sum(len(m) for m in models)
        if op[0] == "fill":
            _, c, d, s, v, handoff = op
            c %= n
            model = models[c]
            handle = (probe_both(c, d),) if handoff else ()
            already = d in model
            if not already and s <= model.capacity:
                live += 1
            model.put(d, s, v)
            if d in model:
                want.append(("insert", c, d, v, s, now, already))
            elif already:
                want.append(("evict", c, d, now))
            if indexed:
                fill(c, d, s, v, now, on_insert, on_evict, *handle)
            else:
                fill(c, d, s, v, now, None, None, *handle)
        else:
            probe_both(op[1] % n, op[2])
        peak = max(peak, live)
        for c, model in enumerate(models):
            if flat is not None:
                assert walk(flat, c) == _contents(model)
                assert flat.used[c] == model.used
            else:
                assert _contents(caches[c]) == _contents(model)
                assert caches[c].used == model.used
        if flat is not None:
            # Freed slots are reused before the pool grows.
            assert len(flat.e_key) == peak
            assert sorted(flat.free + list(flat.slot_of.values())) == list(range(peak))
    assert got == (want if indexed else [])


def test_oversized_refresh_is_reported_twice():
    flat = FlatBrowsers(1, 100)
    events: list[tuple] = []

    def on_insert(*args):
        events.append(("insert", *args))

    def on_evict(*args):
        events.append(("evict", *args))

    flat.fill(0, 1, 40, 0, 1.0, on_insert, on_evict)
    flat.fill(0, 2, 50, 0, 2.0, on_insert, on_evict)
    flat.fill(0, 2, 150, 1, 3.0, on_insert, on_evict)  # refresh, too big
    flat.fill(0, 3, 150, 0, 4.0, on_insert, on_evict)  # new, too big
    assert events == [
        ("insert", 0, 1, 0, 40, 1.0, False),
        ("insert", 0, 2, 0, 50, 2.0, False),
        ("evict", 0, 1, 3.0),
        ("evict", 0, 2, 3.0),
        ("evict", 0, 2, 3.0),
    ]
    assert walk(flat, 0) == [] and flat.used[0] == 0
    assert sorted(flat.free) == [0, 1]


def chained(flat: FlatBrowsers) -> dict[int, list[int]]:
    """doc -> the slots on its holder chain, newest first, checking the
    back links, the documents and that no slot is on two chains."""
    chains, seen = {}, set()
    for doc, slot in flat.chain_head.items():
        slots, prev = [], -1
        while slot >= 0:
            assert flat.e_hprev[slot] == prev and slot not in seen
            assert flat.e_key[slot] & DOC_MASK == doc
            seen.add(slot)
            slots.append(slot)
            prev, slot = slot, flat.e_hnext[slot]
        assert slots, doc  # no empty chain stays headed
        chains[doc] = slots
    return chains


@given(
    capacity=_capacity,
    ops=st.lists(st.one_of(_fill, _probe), min_size=20, max_size=80),
)
@settings(max_examples=example_budget(100), deadline=None)
def test_chain_index_matches_a_browser_index_fed_by_the_fills(capacity, ops):
    """The same fills and probes go into a pool read by a
    ``ChainIndex`` (no event handles) and into a pool reporting to a
    ``BrowserIndex``; refreshes, version changes and refreshes grown
    past the capacity are all common at these sizes."""
    chain_pool = FlatBrowsers(N_CLIENTS, capacity)
    plain_pool = FlatBrowsers(N_CLIENTS, capacity)
    chain, exact = ChainIndex(chain_pool), BrowserIndex(N_CLIENTS)
    bans = [None, {0}, {1, 2}]
    for step, op in enumerate(ops):
        now = float(step)
        if op[0] == "probe":
            _, c, d = op
            assert chain_pool.probe(c, d) == plain_pool.probe(c, d)
            continue
        _, c, d, s, v, handoff = op
        chain_slot = plain_slot = None
        if handoff:
            chain_slot, plain_slot = chain_pool.probe(c, d), plain_pool.probe(c, d)
            assert chain_slot == plain_slot
        chain_pool.fill(
            c, d, s, v, now, chain.record_insert, chain.record_evict, chain_slot
        )
        plain_pool.fill(
            c, d, s, v, now, exact.record_insert, exact.record_evict, plain_slot
        )
        for doc in range(5):
            for version in (None, 0, 1, 2):
                for exclude in (-1, c):
                    banned = bans[(doc + step) % len(bans)]
                    hit = chain.lookup(doc, exclude, now, version, banned)
                    want = exact.lookup(doc, exclude, now, version, banned)
                    assert (hit and hit.client) == (want and want.client)
                    assert chain.candidate_holders(
                        doc, exclude, now, version, banned
                    ) == exact.candidate_holders(doc, exclude, now, version, banned)
        assert chain.banned_candidates_skipped == exact.banned_candidates_skipped
        assert chain.n_lookups == exact.n_lookups
        assert chain.n_entries == exact.n_entries == len(chain_pool.slot_of)
        assert chain.update_messages == exact.update_messages
        assert chain.footprint_bytes() == exact.footprint_bytes()
        # Every live slot is on exactly its document's chain.
        chains = chained(chain_pool)
        assert sorted(x for slots in chains.values() for x in slots) == sorted(
            chain_pool.slot_of.values()
        )
        for doc, slots in chains.items():
            assert sorted(chain_pool.e_key[x] >> DOC_BITS for x in slots) == (
                exact.holders_of(doc)
            )
    assert plain_pool.chain_head is None and plain_pool.n_events == 0


def _walk_objects(sim: Simulator) -> set[tuple[int, int, int, int]]:
    if sim.flat is not None:
        return {
            (doc, c, ver, size)
            for c in range(len(sim.flat.head))
            for doc, size, ver in walk(sim.flat, c)
        }
    return {
        (doc, c, cache.peek(doc).version, cache.peek(doc).size)
        for c, cache in enumerate(sim.browsers)
        for doc in cache
    }


@pytest.mark.parametrize(
    "engine,knobs",
    [
        (Simulator, {}),
        (Simulator, {"browser_policy": "fifo"}),
        (Simulator, {"browser_policy": "slru"}),
        (Simulator, {"memory_fraction": 0.1}),
        (StreamSimulator, {}),
    ],
    ids=["object-lru", "object-fifo", "object-slru", "object-tiered", "flat"],
)
def test_exact_index_equals_the_browser_caches(small_trace, engine, knobs):
    """Every browser insert and evict reaches the index, through every
    browser store's fill: plain LRU objects, other policies, the tiered
    cache and the flat pool alike."""
    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.05, browser_sizing="minimum", **knobs
    )
    sim = engine(small_trace, BAPS, config)
    sim.run()
    index = sim.index
    assert not index.is_stale
    if engine is StreamSimulator:
        # the flat backend's exact index is a view of the pool: what it
        # sees is the holder chains
        assert isinstance(index, ChainIndex)
        flat = sim.flat
        visible = {
            (doc, flat.e_key[x] >> DOC_BITS, flat.e_ver[x], flat.e_size[x])
            for doc, slots in chained(flat).items()
            for x in slots
        }
    else:
        visible = {
            (doc, c, e.version, e.size)
            for doc, holders in index.export_snapshot().items()
            for c, e in holders.items()
        }
    assert visible and visible == _walk_objects(sim)
    assert index.n_entries == len(visible)
    for doc in {doc for doc, *_ in visible}:
        assert index.candidate_holders(doc, -1, 0.0) == sorted(
            c for d, c, *_ in visible if d == doc
        )
