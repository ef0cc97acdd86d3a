"""Bloom-summary browser index: unit tests and engine integration."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core import Organization, SimulationConfig, simulate
from repro.index.bloom import BloomFilter
from repro.index.engine_bloom import BloomBrowserIndex
from tests.conftest import bloom_claims, bloom_positions, example_budget


def make_index(n=4, **kw):
    kw.setdefault("expected_docs_per_client", 64)
    kw.setdefault("rebuild_threshold", 0.5)
    return BloomBrowserIndex(n, **kw)


def test_insert_then_lookup():
    idx = make_index()
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    hit = idx.lookup(doc=7, exclude_client=0, now=1.0)
    assert hit is not None
    assert hit.client == 1
    assert hit.entry.version == 0
    assert hit.entry.size == 100


def test_lookup_excludes_requester():
    idx = make_index()
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    assert idx.lookup(doc=7, exclude_client=1, now=1.0) is None


def test_eviction_stays_visible_until_rebuild():
    idx = make_index(rebuild_threshold=1.0)
    idx.record_insert(client=1, doc=7, version=0, size=100, now=0.0)
    idx.record_evict(client=1, doc=7, now=1.0)
    # the filter cannot forget: the ghost is still claimed...
    ghost = idx.lookup(doc=7, exclude_client=0, now=2.0)
    assert ghost is not None
    # ...until the client sends a fresh summary.
    idx.rebuild(1, now=3.0)
    assert idx.lookup(doc=7, exclude_client=0, now=4.0) is None


def test_rebuild_threshold_triggers():
    idx = make_index(rebuild_threshold=0.05)
    # enough churn forces an automatic rebuild
    for d in range(30):
        idx.record_insert(client=0, doc=d, version=0, size=10, now=float(d))
        idx.record_evict(client=0, doc=d, now=float(d) + 0.5)
    assert idx.rebuilds > 0
    assert idx.update_messages == idx.rebuilds


def test_refresh_does_not_count_as_churn():
    idx = make_index(rebuild_threshold=1.0)
    idx.record_insert(client=0, doc=1, version=0, size=10, now=0.0)
    before = idx._changes_since_rebuild[0]
    idx.record_insert(client=0, doc=1, version=1, size=12, now=1.0, replace=True)
    assert idx._changes_since_rebuild[0] == before


def test_counters_and_footprint():
    idx = make_index()
    idx.record_insert(client=0, doc=1, version=0, size=10, now=0.0)
    idx.record_insert(client=2, doc=2, version=0, size=10, now=0.0)
    assert idx.n_entries == 2
    assert idx.n_insert_events == 2
    assert idx.footprint_bytes() > 0
    assert idx.is_stale is True


def test_validation():
    with pytest.raises(ValueError):
        BloomBrowserIndex(0)
    with pytest.raises(ValueError):
        BloomBrowserIndex(2, rebuild_threshold=1.5)


# -- engine integration ----------------------------------------------------


def test_bloom_index_in_engine_close_to_exact(small_trace):
    base = SimulationConfig.relative(small_trace, proxy_frac=0.10, browser_sizing="minimum")
    exact = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, base)
    bloom = simulate(
        small_trace, Organization.BROWSERS_AWARE_PROXY, base.with_(index_kind="bloom")
    )
    # Bloom summaries lose at most a sliver of hit ratio...
    assert bloom.hit_ratio > exact.hit_ratio - 0.02
    # ...still find remote hits...
    assert bloom.by_location_remote_hits() > 0
    # ...with fewer update messages than per-event invalidation...
    assert bloom.overhead.index_update_messages < exact.overhead.index_update_messages
    # ...at the cost of validated-and-rejected false hits.
    assert bloom.index_false_hits > 0
    assert exact.index_false_hits == 0


def test_bloom_index_config_rejects_periodic_policy(small_trace):
    from repro.index.staleness import PeriodicUpdatePolicy

    with pytest.raises(ValueError, match="rebuild policy"):
        SimulationConfig.relative(
            small_trace,
            proxy_frac=0.1,
            index_kind="bloom",
            index_update_policy=PeriodicUpdatePolicy(),
        )


def test_unknown_index_kind_rejected(small_trace):
    with pytest.raises(ValueError, match="index_kind"):
        SimulationConfig.relative(small_trace, proxy_frac=0.1, index_kind="oracle")


def test_bloom_sizing_unchanged_for_uniform_capacity(small_trace):
    from repro.core.simulator import Simulator

    config = SimulationConfig(
        proxy_capacity=1_000_000, browser_capacity=2_000_000, index_kind="bloom"
    )
    sim = Simulator(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    avg_doc = max(1, int(small_trace.sizes.mean()))
    assert sim.index.expected_docs == max(8, config.browser_capacity // avg_doc)


# -- the bit-sliced index against a list-of-filters model ----------------------


class ListOfFiltersModel:
    """The Summary Cache discipline written the plain way: one word list
    per client, filled key by key from the closed-form positions and
    tested bit by bit (:func:`tests.conftest.bloom_claims`).  Only the
    filter shape comes from :class:`BloomFilter`; the index's hashing,
    int masks, bit-sliced columns, batch refill and running counts are
    not shared, so a membership bug cannot pass on both sides."""

    def __init__(self, n_clients, expected, bits_per_doc, threshold):
        shape = BloomFilter.for_capacity(expected, bits_per_doc)
        self.n_bits, self.n_hashes = shape.n_bits, shape.n_hashes
        self.n_words = (self.n_bits + 63) // 64
        self.filters = [self.new_filter() for _ in range(n_clients)]
        self.contents = [{} for _ in range(n_clients)]
        self.changes = [0] * n_clients
        self.threshold = threshold
        self.rr = 0
        self.rebuilds = self.flushed_items = self.insert_rebuilds = 0

    def new_filter(self):
        return [0] * self.n_words

    def add(self, words, doc):
        for p in bloom_positions(doc, self.n_bits, self.n_hashes):
            words[p >> 6] |= 1 << (p & 63)

    def insert(self, client, doc, version, replace):
        self.contents[client][doc] = (version, 100)
        self.add(self.filters[client], doc)  # OR first, then maybe rebuild
        if not replace and self.bump(client):
            self.insert_rebuilds += 1

    def evict(self, client, doc):
        self.contents[client].pop(doc, None)
        self.bump(client)

    def bump(self, client):
        self.changes[client] += 1
        basis = max(len(self.contents[client]), 20)
        if self.changes[client] >= self.threshold * basis:
            self.rebuild(client)
            return True
        return False

    def rebuild(self, client, announced=False):
        words = self.new_filter()
        for doc in self.contents[client]:
            self.add(words, doc)
        self.filters[client] = words
        self.changes[client] = 0
        if not announced:
            self.rebuilds += 1
            self.flushed_items += len(self.contents[client])

    def reannounce(self, client, docs):
        self.contents[client] = {d: (0, 100) for d in docs}
        self.rebuild(client, announced=True)

    def export(self):
        return (
            [list(f) for f in self.filters],
            [dict(c) for c in self.contents],
            list(self.changes),
        )

    def restore(self, snap):
        filters, contents, changes = snap
        self.filters = [list(f) for f in filters]
        self.contents = [dict(c) for c in contents]
        self.changes = list(changes)

    def holders_of(self, doc):
        return [
            c
            for c, words in enumerate(self.filters)
            if any(words) and bloom_claims(words, doc, self.n_bits, self.n_hashes)
        ]

    def columns(self):
        """Per bit position, the clients whose filter has that bit, as an
        int."""
        cols = [0] * self.n_bits
        for c, words in enumerate(self.filters):
            if any(words):
                for p in range(self.n_bits):
                    if words[p >> 6] >> (p & 63) & 1:
                        cols[p] |= 1 << c
        return cols

    def lookup(self, doc, exclude, banned):
        cands = [c for c in self.holders_of(doc) if c != exclude]
        if banned:
            cands = [c for c in cands if c not in banned]
        if not cands:
            return None
        self.rr += 1
        return cands[self.rr % len(cands)]

    def n_entries(self):
        return sum(len(c) for c in self.contents)

    def footprint_bytes(self):
        return 8 * self.n_words * len(self.filters)


#: the model's client ids: five dense ids, or five spread past several
#: 64-bit words of a 251-client index, so columns are multi-digit ints.
_CLIENT_LAYOUTS = ((0, 1, 2, 3, 4), (0, 31, 64, 129, 250))
_client = st.integers(0, 4)  # an index into the drawn layout
_doc = st.integers(0, 40)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _client, _doc, st.integers(0, 2)),
        st.tuples(st.just("evict"), _client, _doc),
        st.tuples(st.just("rebuild"), _client),
        st.tuples(st.just("reannounce"), _client, st.lists(_doc, max_size=12)),
        st.tuples(st.just("export")),
        st.tuples(st.just("restore")),
        st.tuples(
            st.just("lookup"), _doc, _client, st.frozensets(_client, max_size=2)
        ),
    ),
    max_size=60,
)


@settings(max_examples=example_budget(60), deadline=None)
@given(
    ops=_ops,
    ids=st.sampled_from(_CLIENT_LAYOUTS),
    expected=st.integers(1, 24),
    bits_per_doc=st.sampled_from([3.0, 8.0, 16.0]),
    threshold=st.sampled_from([0.1, 0.5, 1.0]),
)
def test_bit_matrix_matches_list_of_filters(ops, ids, expected, bits_per_doc, threshold):
    """Random insert/evict/rebuild/reannounce/export/restore sequences
    leave the bit-sliced index holding exactly the words of one filter
    per client, in its rows and in its columns, and answering like it:
    holders, the round-robin lookup pick, failover candidates, the
    entry count and the footprint.  Client ids spread over a 251-client
    index make the columns span several machine words.  The
    running claim counts agree with the per-client contents:
    ``claimed_docs()`` is their union and ``claims_doc`` tests
    membership in it.  Small filters (sizes that are not a multiple of
    64 bits) make collisions — false positives the two layouts must
    agree on — common."""
    n_clients = ids[-1] + 1
    index = BloomBrowserIndex(
        n_clients,
        expected_docs_per_client=expected,
        bits_per_doc=bits_per_doc,
        rebuild_threshold=threshold,
    )
    model = ListOfFiltersModel(n_clients, expected, bits_per_doc, threshold)

    def words_of(row):
        return [row >> (64 * i) & (2**64 - 1) for i in range(model.n_words)]

    snapshots = None
    for now, op in enumerate(ops):
        kind = op[0]
        if kind == "insert":
            _, client, doc, version = op
            client = ids[client]
            replace = doc in model.contents[client]
            index.record_insert(client, doc, version, 100, now, replace=replace)
            model.insert(client, doc, version, replace)
        elif kind == "evict":
            _, client, doc = op
            client = ids[client]
            index.record_evict(client, doc, now)
            model.evict(client, doc)
        elif kind == "rebuild":
            index.rebuild(ids[op[1]], now)
            model.rebuild(ids[op[1]])
        elif kind == "reannounce":
            _, client, docs = op
            client = ids[client]
            announced = index.reannounce(client, [(d, 0, 100) for d in docs], now)
            model.reannounce(client, docs)
            assert announced == len(set(docs))
        elif kind == "export":
            snapshots = (index.export_snapshot(), model.export())
        elif kind == "restore" and snapshots is not None:
            index.restore_snapshot(snapshots[0])
            model.restore(snapshots[1])
        elif kind == "lookup":
            _, doc, exclude, banned = op
            exclude = ids[exclude]
            banned = frozenset(ids[b] for b in banned)
            hit = index.lookup(doc, exclude, now, banned=banned or None)
            want = model.lookup(doc, exclude, banned)
            assert (hit.client if hit is not None else None) == want
        assert [words_of(row) for row in index._rows] == model.filters
        assert index._cols == model.columns()
        claimed = set().union(*model.contents)
        assert set(index.claimed_docs()) == claimed
        for doc in range(41):
            holders = model.holders_of(doc)
            assert index.holders_of(doc) == holders
            exclude = ids[doc % len(ids)]
            assert index.candidate_holders(doc, exclude, now) == [
                c for c in holders if c != exclude
            ]
            assert index.claims_doc(doc) == (doc in claimed)
        assert index.n_entries == model.n_entries()
        assert index.footprint_bytes() == model.footprint_bytes()
        assert index.rebuilds == model.rebuilds
        assert index.stats.flushed_items == model.flushed_items


@settings(max_examples=example_budget(60), deadline=None)
@given(
    events=st.lists(
        st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 80)),
        min_size=1,
        max_size=150,
    ),
    ids=st.sampled_from(_CLIENT_LAYOUTS),
    expected=st.integers(1, 24),
    threshold=st.sampled_from([0.0, 0.05, 0.1, 0.25]),
)
@example(  # every insert is a rebuild
    events=[(True, 0, d) for d in range(5)], ids=_CLIENT_LAYOUTS[1], expected=4,
    threshold=0.0,
)
@example(  # caches past the 20-document floor, a rebuild every fourth event
    events=[(True, c, d) for d in range(40) for c in range(5)] + [(False, 2, 3)] * 9,
    ids=_CLIENT_LAYOUTS[1], expected=8, threshold=0.1,
)
def test_insert_triggered_rebuilds_write_the_rebuilt_row(events, ids, expected, threshold):
    """Inserts that make a rebuild due (low thresholds, caches of up to
    81 documents, so the ``max(len, 20)`` basis moves) leave the rows,
    the columns (``cols[p] >> c & 1 == rows[c] >> p & 1`` bit by bit),
    ``rebuilds`` and ``stats.flushed_items`` exactly where a reference
    that ORs the document in and then rebuilds leaves them."""
    n_clients = ids[-1] + 1
    index = BloomBrowserIndex(
        n_clients, expected_docs_per_client=expected, rebuild_threshold=threshold
    )
    model = ListOfFiltersModel(n_clients, expected, 16.0, threshold)
    for now, (insert, client, doc) in enumerate(events):
        client = ids[client]
        if insert:
            replace = doc in model.contents[client]
            index.record_insert(client, doc, 0, 100, now, replace=replace)
            model.insert(client, doc, 0, replace)
        else:
            index.record_evict(client, doc, now)
            model.evict(client, doc)
        rows = index._rows
        assert [
            [row >> (64 * i) & (2**64 - 1) for i in range(model.n_words)] for row in rows
        ] == model.filters
        assert all(
            index._cols[p] >> c & 1 == rows[c] >> p & 1
            for p in range(model.n_bits)
            for c in range(n_clients)
        )
        assert index.rebuilds == model.rebuilds
        assert index.stats.flushed_items == model.flushed_items
    if threshold == 0.0 and any(insert for insert, _, _ in events):
        assert model.insert_rebuilds > 0
