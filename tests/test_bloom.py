"""Bloom filter tests."""

import copy
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.federation.digest import CountingSummary
from repro.index import BloomFilter
from repro.index import bloom
from repro.index.bloom import (
    ShapeTable,
    _batch_positions,
    keys_mask,
    shape_table,
)
from repro.index.signatures import IndexSpaceModel
from tests.conftest import bloom_claims, bloom_positions, example_budget


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


@settings(max_examples=example_budget(40), deadline=None)
@given(keys=st.sets(st.integers(0, 2**62), max_size=200))
def test_no_false_negatives_property(keys):
    f = BloomFilter.for_capacity(max(len(keys), 1))
    for k in keys:
        f.add(k)
    assert all(k in f for k in keys)


@settings(max_examples=example_budget(60), deadline=None)
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


def mask_of(positions):
    """``1 << p`` ORed over *positions*."""
    return sum(1 << p for p in set(positions))


@settings(max_examples=example_budget(80), deadline=None)
@given(
    n_bits=st.one_of(st.integers(1, 70), st.integers(1, 3000)),
    n_hashes=st.integers(1, 16),
    keys=st.lists(st.integers(0, 2**62), max_size=40),
)
@example(n_bits=1, n_hashes=1, keys=[0, 2**62])
def test_key_positions_follow_double_hashing(n_bits, n_hashes, keys):
    """Every hashing path sets the bits of ``(h1 + i * h2) % n_bits``
    key by key, as computed here without the library: the vectorised
    ``_batch_positions``, the shape's table (``add`` and ``in`` read it)
    both when a key is first hashed and when its mask is served from it,
    and ``keys_mask`` on small batches (table masks ORed) and large
    ones (numpy)."""
    want = [bloom_positions(key, n_bits, n_hashes) for key in keys]
    flat = [p for positions in want for p in positions]
    assert _batch_positions(keys, n_bits, n_hashes).tolist() == flat
    assert keys_mask(keys, n_bits, n_hashes) == mask_of(flat)
    assert keys_mask(keys[:5], n_bits, n_hashes) == mask_of(
        [p for positions in want[:5] for p in positions]
    )
    table = shape_table(n_bits, n_hashes)
    for key, positions in zip(keys, want):
        table.pop(key, None)
        for _ in range(2):  # first hashed, then served from the table
            assert table[key] == mask_of(positions)
            assert shape_table(n_bits, n_hashes)[key] == mask_of(positions)


@settings(max_examples=example_budget(40), deadline=None)
@given(
    n_bits=st.integers(1, 5000),
    n_hashes=st.integers(1, 16),
    keys=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=300),
    table_bytes=st.sampled_from([1, 10_000, 40_000]),
    other_shapes=st.lists(
        st.tuples(st.integers(1, 300), st.integers(1, 4)), max_size=12
    ),
)
def test_shape_tables_hold_closed_form_masks_within_their_bound(
    n_bits, n_hashes, keys, table_bytes, other_shapes
):
    """For random keys up to 2**63-1 and random shapes, a table's mask
    is ``1 << p`` ORed over the closed-form positions.  A table filled
    past its bound (``_TABLE_BYTES`` shrunk so a few hundred keys
    overflow it; the 256-key floor included) stays at or below it and
    keeps returning correct masks, for keys hashed before and after it
    was emptied.  At most ``_MAX_SHAPES`` shapes keep a table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloom, "_TABLE_BYTES", table_bytes)
        table = ShapeTable(n_bits, n_hashes)
    assert table.limit == max(256, table_bytes // (n_bits // 8 + 100))
    # enough distinct keys to overflow the bound at least once
    extra = [(keys[0] + i + 1) % 2**63 for i in range(table.limit)]
    for key in keys + extra + keys:
        assert table[key] == mask_of(bloom_positions(key, n_bits, n_hashes))
        assert len(table) <= table.limit
    for shape in other_shapes:
        shared = shape_table(*shape)
        assert shape_table(*shape) is shared
        assert len(bloom._tables) <= bloom._MAX_SHAPES
        assert shared[keys[0]] == mask_of(bloom_positions(keys[0], *shape))


@settings(max_examples=example_budget(60), deadline=None)
@given(
    n_bits=st.integers(1, 400),
    n_hashes=st.integers(1, 8),
    keys=st.lists(st.integers(0, 2**62), max_size=30),
    others=st.lists(st.integers(0, 2**62), max_size=30),
    summary_shape=st.tuples(st.integers(1, 40), st.sampled_from([1.0, 3.0, 8.0])),
    data=st.data(),
)
def test_membership_matches_bit_level_reference(
    n_bits, n_hashes, keys, others, summary_shape, data
):
    """``in`` answers exactly like a bit test over the closed-form
    positions and the filter's words — after ``add``, ``add_many``,
    ``clear``, ``copy``, ``union``, a pickle round trip, on a counting
    summary's read-only snapshot, and after ``_bits`` is replaced
    wholesale.  Small filters make false positives common, so both
    answers are exercised."""
    probes = keys + others + list(range(40))

    def agrees(f):
        assert [k in f for k in probes] == [
            bloom_claims(f._bits, k, f.n_bits, f.n_hashes) for k in probes
        ]

    half = len(keys) // 2
    a = BloomFilter(n_bits, n_hashes)
    agrees(a)
    for k in keys[:half]:
        a.add(k)
    agrees(a)
    b = BloomFilter(n_bits, n_hashes)
    b.add_many(keys[half:] + others)
    agrees(b)
    union = a.union(b)
    agrees(union)
    kept = a.copy()
    a.clear()
    agrees(a)
    agrees(kept)
    a.add_many(others)
    agrees(a)
    agrees(pickle.loads(pickle.dumps(union)))
    agrees(copy.deepcopy(kept))

    summary = CountingSummary(*summary_shape)
    summary.update(set(keys))
    first = summary.snapshot(len(keys))
    first_words = first._bits.tolist()
    assert not first._bits.flags.writeable
    agrees(first)
    summary.update(set(others))
    agrees(summary.snapshot(len(others)))
    assert first._bits.tolist() == first_words
    agrees(first)

    n_words = (n_bits + 63) // 64
    words = data.draw(
        st.lists(st.integers(0, 2**64 - 1), min_size=n_words, max_size=n_words)
    )
    b._bits = np.array(words, dtype=np.uint64)
    agrees(b)
    b._bits = np.frombuffer(np.array(words[::-1], dtype="<u8").tobytes(), dtype="<u8")
    agrees(b)


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(0, 4)
    with pytest.raises(ValueError):
        BloomFilter(128, 0)
    with pytest.raises(ValueError):
        BloomFilter.for_capacity(0)


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
