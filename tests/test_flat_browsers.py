"""``FlatBrowsers`` is a population of ``LRUCache`` browser caches.

A model test drives random fill/probe sequences through one flat slot
pool and through one ``LRUCache`` per client whose ``on_evict`` hook
records events, with the index reports the object engine adds around a
put (the insert, or the second eviction of a refused refresh).  Contents
and LRU order, occupancy, slot reuse and the exact sequence of index
events must agree.  A differential test drives the same fills into a
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

from repro.cache import FlatBrowsers, LRUCache
from repro.cache.flat import DOC_BITS, DOC_MASK
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


@given(
    capacity=_capacity,
    ops=st.lists(st.one_of(_fill, _probe), min_size=20, max_size=80),
    indexed=st.booleans(),
)
@settings(max_examples=example_budget(150), deadline=None)
def test_fill_and_probe_match_one_lru_cache_per_client(capacity, ops, indexed):
    flat = FlatBrowsers(N_CLIENTS, capacity)
    models = [LRUCache(capacity) for _ in range(N_CLIENTS)]
    got: list[tuple] = []
    want: list[tuple] = []
    now = 0.0
    for cid, model in enumerate(models):
        model.on_evict = lambda doc, cid=cid: want.append(("evict", cid, doc, now))

    def on_insert(c, d, v, s, t, already):
        got.append(("insert", c, d, v, s, t, already))

    def on_evict(c, d, t):
        got.append(("evict", c, d, t))

    peak = 0  # most entries ever live at once, mid-fill included
    for step, op in enumerate(ops):
        now = float(step)
        live = sum(len(m) for m in models)
        if op[0] == "fill":
            _, c, d, s, v, handoff = op
            model = models[c]
            slot = None
            if handoff:
                entry = model.get(d)
                slot = flat.probe(c, d)
                assert (slot >= 0) == (entry is not None)
            already = d in model
            if not already and s <= model.capacity:
                live += 1
            model.put(d, s, v)
            if d in model:
                want.append(("insert", c, d, v, s, now, already))
            elif already:
                want.append(("evict", c, d, now))
            if indexed:
                flat.fill(c, d, s, v, now, on_insert, on_evict, slot)
            else:
                flat.fill(c, d, s, v, now, None, None, slot)
        else:
            _, c, d = op
            entry = models[c].get(d)
            slot = flat.probe(c, d)
            assert (slot >= 0) == (entry is not None)
            if entry is not None:
                assert (flat.e_size[slot], flat.e_ver[slot]) == (entry.size, entry.version)
        peak = max(peak, live)
        for c, model in enumerate(models):
            assert walk(flat, c) == [
                (k, model.peek(k).size, model.peek(k).version)
                for k in model.keys_by_recency()
            ]
            assert flat.used[c] == model.used
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
    "engine,policy",
    [(Simulator, "lru"), (Simulator, "fifo"), (StreamSimulator, "lru")],
    ids=["object-lru", "object-fifo", "flat"],
)
def test_exact_index_equals_the_browser_caches(small_trace, engine, policy):
    """Every browser insert and evict reaches the index, on the loop's
    inlined LRU fill, the hook-driven fill of other policies and the
    flat pool's fill alike."""
    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.05, browser_sizing="minimum"
    ).with_(browser_policy=policy)
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
