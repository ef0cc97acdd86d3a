"""Bloom filters for compressed browser-cache summaries.

The paper cites Fan et al.'s Summary Cache and the URL-compression work
of Michel et al. as ways to shrink the browser index ("a storage of
2 MB is sufficient for the 100 browsers with a tolerant inaccuracy").
:class:`BloomFilter` is one such summary; the browser index keeps one
per client (:class:`~repro.index.engine_bloom.BloomBrowserIndex`).
Membership queries can return false positives (the "tolerant
inaccuracy"), never false negatives — unless deletions have occurred
since the last rebuild, which is exactly the staleness the periodic
update mode models.

Hashing uses double hashing over a 64-bit mix of the key (Kirsch &
Mitzenmacher: two independent hashes generate k).  The same document is
hashed for many filters of one shape (a browser-index row on every
insert and lookup, each peer digest a miss consults, counting-summary
updates, small rebuilds), so each shape ``(n_bits, n_hashes)`` has one
process-wide :class:`ShapeTable`, a dict from key to its int mask
(``1 << p`` ORed over its positions).  A key is hashed on its first
lookup; after that its mask is one dict subscript.  A table is bounded
(:attr:`ShapeTable.limit`, about 16 MiB) and at most ``_MAX_SHAPES``
shapes keep one.

A filter's bits are one Python ``int``, :attr:`BloomFilter.bitset`
(bit *p* of the int is filter bit *p*): :meth:`BloomFilter.add` ORs
the key's mask in and ``key in f`` is ``f.bitset & m == m``.
``BloomFilter._bits`` shows the same bits as read-only ``uint64``
words (bit *p* is bit ``p & 63`` of word ``p >> 6``) and accepts words.

Bulk loads take the batch path, :func:`keys_mask` (behind
:meth:`BloomFilter.add_many`): the same SplitMix64 mix over a
``uint64`` array, positions ``(h1 % m + i * (h2 % m)) % m`` — equal to
the single-key ``(h1 + i * h2) % m`` — set in one boolean array that is
packed into an int once, so the bits match repeated
:meth:`BloomFilter.add` exactly.  A batch of fewer than
``_BATCH_MIN_KEYS`` keys ORs its table masks instead.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

import numpy as np

from repro.util.validation import check_positive

__all__ = ["BloomFilter", "ShapeTable", "keys_mask", "shape_table"]

_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finaliser — a fast, well-distributed 64-bit mix."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _mix64_many(x: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a ``uint64`` array (products wrap mod 2**64)."""
    x = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> 27)) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> 31)


def _positions(key: int, n_bits: int, n_hashes: int):
    """Position ``(h1 + i * h2) % n_bits`` for i in ``range(n_hashes)``,
    stepped as ``(h1 % n_bits + i * (h2 % n_bits)) % n_bits`` so the
    arithmetic stays on small ints."""
    h1 = _mix64(key)
    pos = h1 % n_bits
    step = (_mix64(h1 ^ _GOLDEN) | 1) % n_bits
    for _ in range(n_hashes):
        yield pos
        pos += step
        if pos >= n_bits:
            pos -= n_bits


#: about the bytes one shape table may hold before it is emptied.
_TABLE_BYTES = 1 << 24


class ShapeTable(dict):
    """``key -> mask`` for one filter shape: ``1 << p`` ORed over the
    key's :func:`_positions`, computed by :meth:`__missing__`.  It keeps
    at most :attr:`limit` keys, ``_TABLE_BYTES // (n_bits // 8 + 100)``
    (a mask's bytes plus about 100 for its key, int header and dict
    slot) and at least 256; a miss on a full table empties it first."""

    __slots__ = ("n_bits", "n_hashes", "limit")

    def __init__(self, n_bits: int, n_hashes: int) -> None:
        super().__init__()
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.limit = max(256, _TABLE_BYTES // (n_bits // 8 + 100))

    def __missing__(self, key: int) -> int:
        if len(self) >= self.limit:
            self.clear()
        mask = 0
        for pos in _positions(key, self.n_bits, self.n_hashes):
            mask |= 1 << pos
        self[key] = mask
        return mask


#: ``(n_bits, n_hashes) -> ShapeTable``, process-wide (a mask is a pure
#: function of key and shape); the oldest past ``_MAX_SHAPES`` is dropped.
_tables: dict[tuple[int, int], ShapeTable] = {}
_MAX_SHAPES = 8


def shape_table(n_bits: int, n_hashes: int) -> ShapeTable:
    """The process-wide :class:`ShapeTable` of one filter shape."""
    table = _tables.get((n_bits, n_hashes))
    if table is None:
        if len(_tables) >= _MAX_SHAPES:
            del _tables[next(iter(_tables))]
        table = _tables[n_bits, n_hashes] = ShapeTable(n_bits, n_hashes)
    return table


def _batch_positions(keys, n_bits: int, n_hashes: int) -> np.ndarray:
    """:func:`_positions` of every key, key by key, as one flat
    ``uint64`` array.  Keys are integers that fit in ``int64``."""
    h1 = _mix64_many(np.fromiter(keys, np.int64).view(np.uint64))
    h2 = _mix64_many(h1 ^ np.uint64(_GOLDEN)) | np.uint64(1)
    m = np.uint64(n_bits)
    steps = np.arange(n_hashes, dtype=np.uint64)
    return (((h1 % m)[:, None] + steps * (h2 % m)[:, None]) % m).ravel()


#: below this many keys, hashing one key at a time beats numpy's
#: per-call overhead.
_BATCH_MIN_KEYS = 16


def keys_mask(keys, n_bits: int, n_hashes: int) -> int:
    """Every key's mask ORed into one int.  *keys* is a
    sized collection of integers that fit in ``int64``; a large one is
    hashed in one numpy batch and packed into the int once."""
    if len(keys) < _BATCH_MIN_KEYS:
        return reduce(or_, map(shape_table(n_bits, n_hashes).__getitem__, keys), 0)
    flags = np.zeros(n_bits, dtype=np.bool_)
    flags[_batch_positions(keys, n_bits, n_hashes)] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class BloomFilter:
    """A fixed-size Bloom filter over integer keys."""

    def __init__(self, n_bits: int, n_hashes: int = 8) -> None:
        check_positive("n_bits", n_bits)
        check_positive("n_hashes", n_hashes)
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        #: the filter's bits: bit *p* of this int is filter bit *p*.
        self.bitset = 0
        self.n_added = 0

    @classmethod
    def for_capacity(cls, capacity: int, bits_per_item: float = 16.0) -> "BloomFilter":
        """Size a filter for *capacity* items; the optimal hash count is
        ``bits_per_item * ln 2``."""
        check_positive("capacity", capacity)
        n_bits = max(64, int(capacity * bits_per_item))
        k = max(1, int(round(bits_per_item * 0.6931)))
        return cls(n_bits, k)

    @property
    def _bits(self) -> np.ndarray:
        """The filter's bits as read-only ``uint64`` words: bit *p* is
        bit ``p & 63`` of word ``p >> 6``."""
        return np.frombuffer(self.bitset.to_bytes(self.size_bytes, "little"), dtype="<u8")

    @_bits.setter
    def _bits(self, words) -> None:
        self.bitset = int.from_bytes(np.asarray(words, dtype="<u8").tobytes(), "little")

    def add(self, key: int) -> None:
        self.bitset |= shape_table(self.n_bits, self.n_hashes)[key]
        self.n_added += 1

    def add_many(self, keys) -> None:
        """Add every key in *keys* (a sized collection) in one batch;
        bits and ``n_added`` end up exactly as after one :meth:`add`
        per key."""
        self.bitset |= keys_mask(keys, self.n_bits, self.n_hashes)
        self.n_added += len(keys)

    def __contains__(self, key: int) -> bool:
        mask = shape_table(self.n_bits, self.n_hashes)[key]
        return self.bitset & mask == mask

    def clear(self) -> None:
        self.bitset = 0
        self.n_added = 0

    def copy(self) -> "BloomFilter":
        """Independent copy (checkpointing snapshots filters)."""
        out = BloomFilter(self.n_bits, self.n_hashes)
        out.bitset = self.bitset
        out.n_added = self.n_added
        return out

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two same-shaped filters."""
        if (self.n_bits, self.n_hashes) != (other.n_bits, other.n_hashes):
            raise ValueError("can only union identically shaped Bloom filters")
        out = BloomFilter(self.n_bits, self.n_hashes)
        out.bitset = self.bitset | other.bitset
        out.n_added = self.n_added + other.n_added
        return out

    def fill_fraction(self) -> float:
        """Fraction of bits set."""
        return self.bitset.bit_count() / self.n_bits

    def false_positive_rate(self) -> float:
        """Estimated FP probability at the current fill level."""
        return self.fill_fraction() ** self.n_hashes

    @property
    def size_bytes(self) -> int:
        """The filter's size as whole 64-bit words."""
        return (self.n_bits + 63) // 64 * 8

