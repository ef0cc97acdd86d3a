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
summary updates, small rebuilds), so a key's positions and its
:func:`key_words` arrays (built on first use) are computed once per
filter shape ``(n_bits, n_hashes)`` and kept in one process-wide memo
of at most ``_MEMO_KEYS`` (4,096) keys, oldest dropped first.  Entries
are a pure function of the key and shape, so sharing them is safe; the
cached arrays are read-only.  :meth:`BloomFilter.__contains__` tests those
positions on a byte view of the filter's little-endian words, with no
numpy scalar per bit.  On the 4-proxy ``federated-chaos`` benchmark
workload this made replay ~1.6x faster (~1.3x with the memo cleared
before every run), with bit-identical results, for under 1 MiB of
memory.

Bulk loads take the batch path, :meth:`BloomFilter.add_many` (and
:func:`set_key_bits` on any word array): the same SplitMix64 mix over a
``uint64`` array, positions ``(h1 % m + i * (h2 % m)) % m`` — equal to
the single-key ``(h1 + i * h2) % m`` — and one ``np.bitwise_or.at``,
so the bits match repeated :meth:`BloomFilter.add` exactly.  A batch
of fewer than ``_BATCH_MIN_KEYS`` keys is hashed key by key instead
(through the memo), where numpy's per-call overhead would dominate;
the positions are the same.  :func:`key_positions` exposes those
positions to callers that count them (the federation's counting
digests).  :func:`key_words` gives one key's bits as (word, mask)
arrays for callers that test many same-shaped filters at once
(:class:`~repro.index.engine_bloom.BloomBrowserIndex`).
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive

__all__ = ["BloomFilter", "key_positions", "key_words", "set_key_bits"]

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

#: ``(key, n_bits, n_hashes) -> [positions, words, masks]``, process-wide:
#: every entry is a pure function of its key, so sharing is safe.  The
#: arrays are built on the first :func:`key_words` call (digest-shaped
#: keys never need them).
_memo: dict[tuple[int, int, int], list] = {}


def _key_bits(key: int, n_bits: int, n_hashes: int) -> list:
    """*key*'s memo entry: its :func:`_positions` as a tuple, then its
    :func:`key_words` arrays or ``None`` until first asked for.  The
    key is hashed once per filter shape while the entry stays in the
    memo."""
    memo_key = (key, n_bits, n_hashes)
    entry = _memo.get(memo_key)
    if entry is None:
        if len(_memo) >= _MEMO_KEYS:
            del _memo[next(iter(_memo))]
        positions = tuple(_positions(key, n_bits, n_hashes))
        entry = _memo[memo_key] = [positions, None, None]
    return entry


def key_words(key: int, n_bits: int, n_hashes: int) -> tuple[np.ndarray, np.ndarray]:
    """*key*'s bits as ``(words, masks)``: each distinct word index
    (``intp``) once, with the OR of its bits (``uint64``).  Both arrays
    are shared through the memo and read-only."""
    entry = _key_bits(key, n_bits, n_hashes)
    if entry[1] is None:
        acc: dict[int, int] = {}
        for pos in entry[0]:
            word = pos >> 6
            acc[word] = acc.get(word, 0) | (1 << (pos & 63))
        n = len(acc)
        words = np.fromiter(acc, np.intp, n)
        masks = np.fromiter(acc.values(), np.uint64, n)
        words.flags.writeable = masks.flags.writeable = False
        entry[1:] = words, masks
    return entry[1], entry[2]


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


def set_key_bits(bits: np.ndarray, keys, n_bits: int, n_hashes: int) -> int:
    """OR every key's bits into the word array *bits* in one batch;
    returns the number of keys.  *keys* is a sized collection of
    integers that fit in ``int64``; a small one is gathered into one
    Python int and ORed in as little-endian words."""
    if len(keys) < _BATCH_MIN_KEYS:
        acc = 0
        for pos in key_positions(keys, n_bits, n_hashes):
            acc |= 1 << pos
        bits |= np.frombuffer(acc.to_bytes(bits.nbytes, "little"), dtype="<u8")
        return len(keys)
    pos = _batch_positions(keys, n_bits, n_hashes)
    np.bitwise_or.at(bits, (pos >> 6).astype(np.intp), np.uint64(1) << (pos & 63))
    return pos.size // n_hashes


class BloomFilter:
    """A fixed-size Bloom filter over integer keys."""

    def __init__(self, n_bits: int, n_hashes: int = 8) -> None:
        check_positive("n_bits", n_bits)
        check_positive("n_hashes", n_hashes)
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        self._bits = np.zeros((self.n_bits + 63) // 64, dtype=np.uint64)
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
        """The filter's ``uint64`` words: bit *p* is bit ``p & 63`` of
        word ``p >> 6``."""
        return self._words

    @_bits.setter
    def _bits(self, words: np.ndarray) -> None:
        # Every replacement re-points the byte view membership tests
        # read: in little-endian words, bit p is bit p & 7 of byte p >> 3
        # (the conversion copies only on a big-endian host).
        self._words = words.astype("<u8", copy=False)
        self._bytes = memoryview(self._words).cast("B")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_bytes"]  # a memoryview does not pickle
        return state

    def __setstate__(self, state: dict) -> None:
        words = state.pop("_words")
        self.__dict__.update(state)
        self._bits = words

    def add(self, key: int) -> None:
        words, masks = key_words(key, self.n_bits, self.n_hashes)
        self._bits[words] |= masks
        self.n_added += 1

    def add_many(self, keys) -> None:
        """Add every key in *keys* in one batch; bits and ``n_added``
        end up exactly as after one :meth:`add` per key."""
        self.n_added += set_key_bits(self._bits, keys, self.n_bits, self.n_hashes)

    def __contains__(self, key: int) -> bool:
        view = self._bytes
        for pos in _key_bits(key, self.n_bits, self.n_hashes)[0]:
            if not (view[pos >> 3] >> (pos & 7)) & 1:
                return False
        return True

    def clear(self) -> None:
        self._bits[:] = 0
        self.n_added = 0

    def copy(self) -> "BloomFilter":
        """Independent deep copy (checkpointing snapshots filters)."""
        out = BloomFilter(self.n_bits, self.n_hashes)
        out._bits = self._bits.copy()
        out.n_added = self.n_added
        return out

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two same-shaped filters."""
        if (self.n_bits, self.n_hashes) != (other.n_bits, other.n_hashes):
            raise ValueError("can only union identically shaped Bloom filters")
        out = BloomFilter(self.n_bits, self.n_hashes)
        out._bits = self._bits | other._bits
        out.n_added = self.n_added + other.n_added
        return out

    def fill_fraction(self) -> float:
        """Fraction of bits set."""
        set_bits = int(np.bitwise_count(self._bits).sum())
        return set_bits / self.n_bits

    def false_positive_rate(self) -> float:
        """Estimated FP probability at the current fill level."""
        return self.fill_fraction() ** self.n_hashes

    @property
    def size_bytes(self) -> int:
        return self._bits.nbytes

