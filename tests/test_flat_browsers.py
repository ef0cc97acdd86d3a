"""``FlatBrowsers`` is a population of ``LRUCache`` browser caches.

A model test drives random fill/probe sequences through one flat slot
pool and through one ``LRUCache`` per client whose ``on_evict`` hook
records events, with the index reports the object engine adds around a
put (the insert, or the second eviction of a refused refresh).  Contents
and LRU order, occupancy, slot reuse and the exact sequence of index
events must agree.  After a real BAPS replay, the exact
invalidation index's visible entries must equal a walk of the browser
caches on both client-state backends.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache import FlatBrowsers, LRUCache
from repro.cache.flat import DOC_BITS
from repro.core import Organization, SimulationConfig
from repro.core.simulator import Simulator
from repro.core.stream_engine import StreamSimulator
from tests.conftest import example_budget

BAPS = Organization.BROWSERS_AWARE_PROXY
N_CLIENTS = 3

#: small capacities, sizes and document ids, so evictions, refused
#: inserts and refreshes grown past the capacity are all common.
_fill = st.tuples(
    st.just("fill"),
    st.integers(0, N_CLIENTS - 1),
    st.integers(0, 4),
    st.sampled_from([0, 5, 20, 35, 50, 90]),
    st.integers(0, 2),
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
        assert flat.slot_of[(c << DOC_BITS) | flat.e_doc[slot]] == slot
        items.append((flat.e_doc[slot], flat.e_size[slot], flat.e_ver[slot]))
        prev, slot = slot, flat.e_next[slot]
    assert flat.tail[c] == prev
    return items


@given(
    caps=st.lists(
        st.sampled_from([0, 30, 60, 100]), min_size=N_CLIENTS, max_size=N_CLIENTS
    ),
    ops=st.lists(st.one_of(_fill, _probe), min_size=20, max_size=80),
    ttl=st.sampled_from([None, 15.0]),
    indexed=st.booleans(),
)
@settings(max_examples=example_budget(150), deadline=None)
def test_fill_and_probe_match_one_lru_cache_per_client(caps, ops, ttl, indexed):
    flat = FlatBrowsers(caps)
    models = [LRUCache(cap) for cap in caps]
    got: list[tuple] = []
    want: list[tuple] = []
    now = 0.0
    for cid, model in enumerate(models):
        model.on_evict = lambda doc, cid=cid: want.append(("evict", cid, doc, now))

    def on_insert(c, d, v, s, t, ttl_, already):
        got.append(("insert", c, d, v, s, t, ttl_, already))

    def on_evict(c, d, t):
        got.append(("evict", c, d, t))

    peak = 0  # most entries ever live at once, mid-fill included
    for step, op in enumerate(ops):
        now = float(step)
        live = sum(len(m) for m in models)
        if op[0] == "fill":
            _, c, d, s, v = op
            model = models[c]
            already = d in model
            if not already and s <= model.capacity:
                live += 1
            model.put(d, s, v)
            if d in model:
                want.append(("insert", c, d, v, s, now, ttl, already))
            elif already:
                want.append(("evict", c, d, now))
            if indexed:
                flat.fill(c, d, s, v, now, on_insert, on_evict, ttl)
            else:
                flat.fill(c, d, s, v, now, None, None, ttl)
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
        assert len(flat.e_doc) == peak
        assert sorted(flat.free + list(flat.slot_of.values())) == list(range(peak))
    assert got == (want if indexed else [])


def test_oversized_refresh_is_reported_twice():
    flat = FlatBrowsers([100])
    events: list[tuple] = []

    def on_insert(*args):
        events.append(("insert", *args))

    def on_evict(*args):
        events.append(("evict", *args))

    flat.fill(0, 1, 40, 0, 1.0, on_insert, on_evict, 9.0)
    flat.fill(0, 2, 50, 0, 2.0, on_insert, on_evict, 9.0)
    flat.fill(0, 2, 150, 1, 3.0, on_insert, on_evict, 9.0)  # refresh, too big
    flat.fill(0, 3, 150, 0, 4.0, on_insert, on_evict, 9.0)  # new, too big
    assert events == [
        ("insert", 0, 1, 0, 40, 1.0, 9.0, False),
        ("insert", 0, 2, 0, 50, 2.0, 9.0, False),
        ("evict", 0, 1, 3.0),
        ("evict", 0, 2, 3.0),
        ("evict", 0, 2, 3.0),
    ]
    assert walk(flat, 0) == [] and flat.used[0] == 0
    assert sorted(flat.free) == [0, 1]


def _walk_objects(sim: Simulator) -> set[tuple[int, int, int, int]]:
    if sim.flat is not None:
        return {
            (doc, c, ver, size)
            for c in range(len(sim.flat.caps))
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
    assert not sim.index.is_stale
    visible = {
        (doc, c, e.version, e.size)
        for doc, holders in sim.index.export_snapshot().items()
        for c, e in holders.items()
    }
    assert visible and visible == _walk_objects(sim)
    assert sim.index.n_entries == len(visible)
