"""Browser index — invalidation (exact) mode."""

import pytest

from repro.index import BrowserIndex, IndexEntry, UpdateMode
from repro.index.staleness import PeriodicUpdatePolicy


def make_index(n=4):
    return BrowserIndex(n_clients=n, mode=UpdateMode.INVALIDATION)


def test_insert_then_lookup():
    idx = make_index()
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    hit = idx.lookup(doc=7, exclude_client=0, now=1.0)
    assert hit is not None
    assert hit.client == 1
    assert hit.entry.size == 100


def test_lookup_excludes_requester():
    idx = make_index()
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    assert idx.lookup(doc=7, exclude_client=1, now=1.0) is None


def test_lookup_unknown_doc():
    idx = make_index()
    assert idx.lookup(doc=99, exclude_client=0, now=0.0) is None


def test_evict_removes_entry():
    idx = make_index()
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    idx.record_evict(client=1, doc=7, now=1.0)
    assert idx.lookup(doc=7, exclude_client=0, now=2.0) is None
    assert idx.n_entries == 0


def test_version_filtering():
    idx = make_index()
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    assert idx.lookup(doc=7, exclude_client=0, now=1.0, version=1) is None
    assert idx.lookup(doc=7, exclude_client=0, now=1.0, version=0) is not None


def test_reinsert_updates_version_without_double_count():
    idx = make_index()
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    idx.record_insert(client=1, doc=7, version=1, size=120, now=1.0, replace=True)
    assert idx.n_entries == 1
    hit = idx.lookup(doc=7, exclude_client=0, now=2.0, version=1)
    assert hit is not None and hit.entry.size == 120


def test_round_robin_spreads_holders():
    idx = make_index()
    for c in (1, 2, 3):
        idx.record_insert(client=c, doc=7, version=0, size=100, now=0.0)
    chosen = {idx.lookup(doc=7, exclude_client=0, now=1.0).client for _ in range(9)}
    assert chosen == {1, 2, 3}


def test_holders_of():
    idx = make_index()
    idx.record_insert(client=2, doc=7, version=0, size=100, now=0.0)
    idx.record_insert(client=0, doc=7, version=0, size=100, now=0.0)
    assert idx.holders_of(7) == [0, 2]
    assert idx.holders_of(8) == []


def test_footprint_counts_entries():
    idx = make_index()
    idx.record_insert(client=0, doc=1, version=0, size=10, now=0.0)
    idx.record_insert(client=1, doc=1, version=0, size=10, now=0.0)
    idx.record_insert(client=0, doc=2, version=0, size=10, now=0.0)
    assert idx.n_entries == 3
    assert idx.footprint_bytes() == 3 * IndexEntry.WIRE_BYTES


def test_event_counters():
    idx = make_index()
    idx.record_insert(client=0, doc=1, version=0, size=10, now=0.0)
    idx.record_evict(client=0, doc=1, now=1.0)
    assert idx.n_insert_events == 1
    assert idx.n_evict_events == 1


def test_invalid_construction():
    with pytest.raises(ValueError):
        BrowserIndex(n_clients=0)
    with pytest.raises(ValueError):
        BrowserIndex(n_clients=2, mode=UpdateMode.INVALIDATION, policy=PeriodicUpdatePolicy())
