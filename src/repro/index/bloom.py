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
Mitzenmacher: two independent hashes generate k), so a single-key add
or query is O(k) with no digest computation in the hot path.  The same
document is hashed for many filters of one shape (a browser-index row
on every insert and lookup, each peer digest a miss consults, counting
summary updates, small rebuilds), so a key's positions and its int
mask (:func:`key_mask`: ``1 << p`` ORed over its positions, built on
first use) are computed once per filter shape ``(n_bits, n_hashes)``
and kept in one process-wide memo of at most ``_MEMO_KEYS`` (4,096)
keys, oldest dropped first.  Entries are a pure function of the key and
shape, so sharing them is safe.

A filter's bits are one Python ``int``, :attr:`BloomFilter.bitset`
(bit *p* of the int is filter bit *p*): :meth:`BloomFilter.add` ORs
the key's mask in and ``key in f`` is ``f.bitset & m == m``, two
C-level int operations with no per-bit loop and no numpy call.
``BloomFilter._bits`` shows the same bits as read-only ``uint64``
words (bit *p* is bit ``p & 63`` of word ``p >> 6``) and accepts words.

Bulk loads take the batch path, :func:`keys_mask` (behind
:meth:`BloomFilter.add_many`): the same SplitMix64 mix over a
``uint64`` array, positions ``(h1 % m + i * (h2 % m)) % m`` — equal to
the single-key ``(h1 + i * h2) % m`` — set in one boolean array that is
packed into an int once, so the bits match repeated
:meth:`BloomFilter.add` exactly.  A batch of fewer than
``_BATCH_MIN_KEYS`` keys ORs the memoised masks instead, where numpy's
per-call overhead would dominate; the bits are the same.
:func:`key_positions` exposes the positions to callers that count them
(the federation's counting digests).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = ["BloomFilter", "key_mask", "key_positions", "keys_mask"]

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


#: most (key, filter shape) pairs :func:`_key_bits` keeps; past it the
#: oldest pair is dropped.
_MEMO_KEYS = 4096

#: ``(key, n_bits, n_hashes) -> [positions, mask]``, process-wide:
#: every entry is a pure function of its key, so sharing is safe.  The
#: mask is built on the first :func:`key_mask` call.
_memo: dict[tuple[int, int, int], list] = {}


def _key_bits(key: int, n_bits: int, n_hashes: int) -> list:
    """*key*'s memo entry: its :func:`_positions` as a tuple, then its
    :func:`key_mask` or ``None`` until first asked for.  The key is
    hashed once per filter shape while the entry stays in the memo."""
    memo_key = (key, n_bits, n_hashes)
    entry = _memo.get(memo_key)
    if entry is None:
        if len(_memo) >= _MEMO_KEYS:
            del _memo[next(iter(_memo))]
        entry = _memo[memo_key] = [tuple(_positions(key, n_bits, n_hashes)), None]
    return entry


def key_mask(key: int, n_bits: int, n_hashes: int) -> int:
    """*key*'s bits as one int, ``1 << p`` ORed over its positions;
    memoised with them."""
    entry = _key_bits(key, n_bits, n_hashes)
    mask = entry[1]
    if mask is None:
        mask = 0
        for pos in entry[0]:
            mask |= 1 << pos
        entry[1] = mask
    return mask


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


def key_positions(keys, n_bits: int, n_hashes: int) -> list[int]:
    """Every key's *n_hashes* bit positions, key by key, as one list (a
    key's repeated positions included).  *keys* is a sized collection
    of integers that fit in ``int64``."""
    if len(keys) < _BATCH_MIN_KEYS:
        return [p for key in keys for p in _key_bits(key, n_bits, n_hashes)[0]]
    return _batch_positions(keys, n_bits, n_hashes).tolist()


def keys_mask(keys, n_bits: int, n_hashes: int) -> int:
    """Every key's :func:`key_mask` ORed into one int.  *keys* is a
    sized collection of integers that fit in ``int64``; a large one is
    hashed in one numpy batch and packed into the int once."""
    if len(keys) < _BATCH_MIN_KEYS:
        mask = 0
        for key in keys:
            mask |= key_mask(key, n_bits, n_hashes)
        return mask
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
        self.bitset |= key_mask(key, self.n_bits, self.n_hashes)
        self.n_added += 1

    def add_many(self, keys) -> None:
        """Add every key in *keys* (a sized collection) in one batch;
        bits and ``n_added`` end up exactly as after one :meth:`add`
        per key."""
        self.bitset |= keys_mask(keys, self.n_bits, self.n_hashes)
        self.n_added += len(keys)

    def __contains__(self, key: int) -> bool:
        mask = key_mask(key, self.n_bits, self.n_hashes)
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

