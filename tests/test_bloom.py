"""Bloom filter and BloomIndex tests."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.index import BloomFilter, BloomIndex
from repro.index.bloom import _GOLDEN, _mix64, key_positions
from repro.index.signatures import IndexSpaceModel


def test_added_keys_always_found():
    f = BloomFilter.for_capacity(100)
    for k in range(100):
        f.add(k)
    for k in range(100):
        assert k in f  # Bloom filters have no false negatives


def test_false_positive_rate_reasonable():
    f = BloomFilter.for_capacity(1000, bits_per_item=16)
    for k in range(1000):
        f.add(k)
    fp = sum(1 for k in range(10_000, 40_000) if k in f) / 30_000
    assert fp < 0.01  # 16 bits/item should be well under 1%


def test_empty_filter_rejects_everything():
    f = BloomFilter(1024, 8)
    assert 123 not in f
    assert f.fill_fraction() == 0.0
    assert f.false_positive_rate() == 0.0


def test_clear():
    f = BloomFilter(1024, 4)
    f.add(5)
    assert 5 in f
    f.clear()
    assert 5 not in f
    assert f.n_added == 0


def test_union():
    a = BloomFilter(1024, 4)
    b = BloomFilter(1024, 4)
    a.add(1)
    b.add(2)
    u = a.union(b)
    assert 1 in u and 2 in u


def test_union_shape_mismatch():
    with pytest.raises(ValueError):
        BloomFilter(1024, 4).union(BloomFilter(512, 4))


def test_size_bytes():
    f = BloomFilter(1024, 4)
    assert f.size_bytes == 1024 // 8


def test_fill_fraction_monotone():
    f = BloomFilter(512, 4)
    prev = 0.0
    for k in range(50):
        f.add(k)
        cur = f.fill_fraction()
        assert cur >= prev
        prev = cur


@settings(max_examples=40, deadline=None)
@given(keys=st.sets(st.integers(0, 2**62), max_size=200))
def test_no_false_negatives_property(keys):
    f = BloomFilter.for_capacity(max(len(keys), 1))
    for k in keys:
        f.add(k)
    assert all(k in f for k in keys)


@settings(max_examples=60, deadline=None)
@given(
    n_bits=st.integers(1, 3000),
    n_hashes=st.integers(1, 16),
    keys=st.lists(st.integers(0, 2**40), max_size=120),
    n_dups=st.integers(0, 10),
)
@example(n_bits=100, n_hashes=11, keys=[], n_dups=0)
@example(n_bits=130, n_hashes=11, keys=[0, 2**40, 7], n_dups=3)
def test_add_many_matches_repeated_add(n_bits, n_hashes, keys, n_dups):
    """The batch path sets exactly the bits, and counts exactly the
    keys, of one ``add`` per key — duplicates and empty input included,
    and for filter sizes that are not a multiple of 64 bits."""
    keys = keys + keys[:n_dups]
    one_by_one = BloomFilter(n_bits, n_hashes)
    for k in keys:
        one_by_one.add(k)
    batched = BloomFilter(n_bits, n_hashes)
    batched.add_many(keys)
    assert batched._bits.tolist() == one_by_one._bits.tolist()
    assert batched.n_added == one_by_one.n_added == len(keys)


@settings(max_examples=80, deadline=None)
@given(
    n_bits=st.integers(1, 3000),
    n_hashes=st.integers(1, 16),
    keys=st.lists(st.integers(0, 2**40), max_size=40),
)
def test_key_positions_follow_double_hashing(n_bits, n_hashes, keys):
    """``key_positions`` (one key at a time for small batches, vectorised
    for large ones) lists ``(h1 + i * h2) % n_bits`` key by key."""
    want = []
    for key in keys:
        h1 = _mix64(key)
        h2 = _mix64(h1 ^ _GOLDEN) | 1
        want.extend((h1 + i * h2) % n_bits for i in range(n_hashes))
    assert key_positions(keys, n_bits, n_hashes) == want


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(0, 4)
    with pytest.raises(ValueError):
        BloomFilter(128, 0)
    with pytest.raises(ValueError):
        BloomFilter.for_capacity(0)


# -- BloomIndex ----------------------------------------------------------


def test_bloom_index_candidates_and_choose():
    idx = BloomIndex(n_clients=3, expected_docs_per_client=50)
    idx.add(0, 7)
    idx.add(2, 7)
    cands = idx.candidates(7, exclude_client=1)
    assert set(cands) >= {0, 2}
    assert idx.choose(7, exclude_client=1) in cands
    assert idx.choose(999_999_937, exclude_client=1) is None or True  # may FP


def test_bloom_index_excludes_requester():
    idx = BloomIndex(n_clients=2, expected_docs_per_client=50)
    idx.add(0, 7)
    assert 0 not in idx.candidates(7, exclude_client=0)


def test_bloom_index_rebuild():
    idx = BloomIndex(n_clients=1, expected_docs_per_client=50)
    idx.add(0, 7)
    idx.rebuild(0, [1, 2, 3])
    assert idx.candidates(1, exclude_client=99) == [0]


def test_bloom_index_claims_is_per_client():
    idx = BloomIndex(n_clients=2, expected_docs_per_client=50)
    idx.rebuild(1, [4, 5])
    assert idx.claims(1, 4) and idx.claims(1, 5)
    assert not idx.claims(0, 4)
    # a rebuild forgets what the new contents no longer hold
    idx.rebuild(1, [])
    assert not idx.claims(1, 4)


def test_bloom_index_footprint():
    idx = BloomIndex(n_clients=10, expected_docs_per_client=1000, bits_per_doc=16)
    # 10 clients x 16000 bits = 20 kB
    assert idx.footprint_bytes() == pytest.approx(20_000, rel=0.05)


# -- IndexSpaceModel (paper §5 arithmetic) ---------------------------------


def test_index_space_paper_numbers():
    m = IndexSpaceModel()  # 100 clients, 8 MB caches, 8 KB docs
    assert m.docs_per_browser == 1000
    assert m.total_docs == 100_000
    # 28 bytes per entry -> 2.8 MB, "a few MB" as the paper says
    assert m.exact_index_bytes() == 2_800_000
    # Bloom: "a storage of 2 MB is sufficient ... with a tolerant
    # inaccuracy"; at 16 bits/doc we need only 0.2 MB.
    assert m.bloom_index_bytes() == 200_000


def test_index_space_validation():
    with pytest.raises(ValueError):
        IndexSpaceModel(n_clients=0)
    m = IndexSpaceModel()
    with pytest.raises(ValueError):
        m.bloom_index_bytes(bits_per_doc=0)
