"""Synthetic workload generation: one calibration per stream.

:class:`TraceStream` runs the calibrated synthetic generator of
:mod:`repro.traces.synthetic` and emits its requests as an iterator of
bounded chunks.  :func:`repro.traces.synthetic.generate_trace` is
``TraceStream(config, seed).materialise()``, so the two produce the
**same requests, bit for bit**: for every ``(config, seed)`` pair the
emitted ``(timestamp, client, doc, size, version)`` rows equal the
materialised trace's columns — same values, same dtypes, same order —
at any chunk size.  Their oracle is a whole-array reference generator
in the test suite (``tests/trace_oracle.py``); a hypothesis property
test pins the two equal.

How chunking keeps the values
-----------------------------
The generator consumes one sequential PCG64 stream in a fixed order:
client draws, five uniform arrays, a lookback exponential array, an
optional embedded-object Poisson array, the size lognormals, and the
timestamp gap exponentials.  NumPy fills every one of those arrays
sequentially from the bit generator, so drawing an array in bounded
chunks from a generator carrying the right state yields the values a
whole-array draw would.  Uniform doubles consume exactly one PCG64 step
each, so the uniform cursors are positioned with ``PCG64.advance``; the
variable-consumption draws (ziggurat exponentials, Poisson) are
positioned from bit-generator states captured on the way.  One
``Generator`` per stream serves every cursor, re-positioned before each
draw (:meth:`TraceStream._variate_chunks`).

Construction (calibration) reads those chunked draws exactly once and
resolves every request's document and version.  Without embedded
objects :meth:`TraceStream._resolve` does it in whole-column numpy
passes: each re-reference becomes a pointer at an earlier request, and
pointer jumping takes every pointer to the request that created its
document.  With embedded objects, whether a request is forced to a
queued embedded object depends on what its client's earlier request
resolved to, so :meth:`TraceStream._loop_chunks` keeps a per-request
loop.  Calibration keeps the result as tables: each request's
index into the sorted unique ``(doc, version)`` pairs, each pair's
packed key (``doc << 32 | version``) and its final size.  Emission is
then a gather — docs are ``keys >> 32`` and versions ``keys &
0xffffffff`` of ``keys = pair_keys[pair_idx[start:end]]``, sizes are
``pair_final[pair_idx[start:end]]`` — and only the timestamp gap
exponentials are redrawn, from their saved start state, with the
cumulative sum carried across chunks.

Memory model
------------
A stream retains **8 bytes per request** (an ``int32`` client id and an
``int32`` pair index) plus O(unique pairs) key and size tables, against
a materialised trace's five 8-byte columns plus its replay conversions.
The resolver's compact columns (a kind code, a pointer and two flags per
request, pool positions of shared picks) or the loop's pool and
per-client histories live only during calibration.  Each emitted chunk
is O(``chunk_rows``).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from repro.traces.record import Trace
from repro.traces.synthetic import SyntheticTraceConfig, _draw_clients

__all__ = ["TraceStream"]

#: rows per emitted chunk: the same trade-off as
#: :attr:`repro.traces.record.Trace.ITER_CHUNK_ROWS`.
DEFAULT_CHUNK_ROWS = 65_536

_VERSION_BITS = 32  # (doc, version) packed as doc << 32 | version
_VERSION_MASK = (1 << _VERSION_BITS) - 1

# A request's kind, as _resolve classifies it: a new document, a pick
# from the client's own history, or a shared pick from the recency
# window, uniformly over shared documents, or by popularity.
_NEW, _SELF, _RECENT, _UNIFORM, _POPULAR = range(5)


def _sort_by_group(group: np.ndarray, idx_t: type) -> np.ndarray:
    """``np.argsort(group, kind="stable")`` as *idx_t*, by an unstable
    sort of ``group << bits | position`` keys (unique, so the order is
    the stable one), which is several times faster.  *group* holds
    non-negative ``int32``-range values."""
    bits = max(len(group) - 1, 1).bit_length()
    keys = group.astype(np.int64) << bits
    keys |= np.arange(len(group))
    keys.sort()
    keys &= (1 << bits) - 1
    return keys.astype(idx_t)


def _jump(ptr: np.ndarray) -> np.ndarray:
    """Follow pointers at earlier requests to their chains' ends, which
    point at themselves: ``ptr = ptr[ptr]`` until nothing changes, after
    the first pass only over the pointers not yet at an end.  Each pass
    at least doubles how far a pointer has moved, so a pointer still
    moving after 64 passes is on a cycle, which raises.  Returns a new
    array; *ptr* is not written."""
    ptr = ptr[ptr]
    active = np.flatnonzero(ptr != ptr[ptr])
    for _ in range(64):
        if not active.size:
            return ptr
        nxt = ptr[ptr[active]]
        ptr[active] = nxt
        active = active[nxt != ptr[nxt]]
    raise RuntimeError("request pointers form a cycle")


class TraceStream:
    """Chunked, re-iterable synthetic trace.

    The rows of ``generate_trace(config, seed)`` (which is
    :meth:`materialise`), without ever materialising the five request
    columns.  Construction runs the one calibration pass (resolving
    every request's document and version, then size and timestamp
    normalisation); every subsequent :meth:`chunks` / :meth:`iter_rows`
    call gathers its rows from the calibration tables and redraws only
    the timestamp gaps, so the stream can be consumed any number of
    times without re-running the generator.

    Parameters
    ----------
    config:
        The workload knobs, exactly as for ``generate_trace``.
    seed:
        Integer seed (or ``None`` for fresh OS entropy, drawn once at
        construction so the stream stays re-iterable).  Passing an
        existing ``Generator`` is *not* supported: the streaming
        machinery must own the bit-generator state to reposition it.
    chunk_rows:
        Default rows per emitted chunk.
    """

    def __init__(
        self,
        config: SyntheticTraceConfig,
        seed: int | None = 0,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if isinstance(seed, np.random.Generator):
            raise TypeError(
                "TraceStream requires an integer seed (or None), not a "
                "Generator: streaming repositions the underlying PCG64 "
                "state and cannot share a caller's generator"
            )
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be > 0, got {chunk_rows}")
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) & ((1 << 63) - 1)
        self.config = config
        self.seed = int(seed)
        self.chunk_rows = int(chunk_rows)
        self.name = config.name
        self._calibrate()

    # -- trace-like protocol ------------------------------------------

    def __len__(self) -> int:
        return self.config.n_requests

    @property
    def n_requests(self) -> int:
        return self.config.n_requests

    @property
    def n_clients(self) -> int:
        """Distinct clients in the stream (== config.n_clients whenever
        ``n_requests >= n_clients``, by the generator's invariant)."""
        return self._n_distinct_clients

    @property
    def has_dense_clients(self) -> bool:
        return self._max_client + 1 == self._n_distinct_clients

    def _client_id_info(self) -> tuple[int, int]:
        """``(n_distinct, max_id)``, as :meth:`Trace._client_id_info`."""
        return self._n_distinct_clients, self._max_client

    @property
    def max_doc_id(self) -> int:
        """Largest document id in the stream (from calibration)."""
        return self._max_doc

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def infinite_cache_bytes(self) -> int:
        """Total size of all unique (doc, version) bodies — the paper's
        "infinite cache size", matching
        :meth:`repro.traces.record.Trace.infinite_cache_bytes` of the
        materialised trace (``_pair_final`` holds exactly one
        authoritative size per unique pair)."""
        return int(self._pair_final.sum())

    @property
    def mean_request_size(self) -> float:
        """Mean request size; equals ``Trace.mean_request_size`` of the
        materialised trace exactly (integer column sums below 2**53 are
        exact in float64 regardless of summation order)."""
        return self._total_bytes / self.config.n_requests

    @property
    def duration(self) -> float:
        """Emitted ``timestamps[-1] - timestamps[0]`` (first stamp is 0)."""
        return self._last_timestamp

    # -- calibration (pass A) -----------------------------------------

    def _calibrate(self) -> None:
        cfg = self.config

        # The one generator every draw of this stream comes from; the
        # chunked draws re-position it (see _variate_chunks and
        # _gap_chunks).
        self._rng = rng = np.random.default_rng(self.seed)
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise RuntimeError(
                "TraceStream requires the PCG64 bit generator "
                "(numpy default_rng)"
            )

        clients = _draw_clients(cfg, rng)
        client_counts = np.bincount(clients)
        self._max_client = len(client_counts) - 1
        self._n_distinct_clients = int(np.count_nonzero(client_counts))
        # Values are < n_clients, so int32 halves the retained footprint;
        # emission upcasts per chunk.
        self._clients = clients.astype(np.int32)
        del clients

        # Each request's (doc, version) as an index into the sorted
        # unique pairs, the table sizes are assigned over.  Embedded
        # objects need the per-request loop; every other config resolves
        # in whole-column passes.
        if cfg.embedded_per_page_mean > 0:
            packed = np.empty(cfg.n_requests, dtype=np.int64)
            for start, end, packed_c in self._loop_chunks(rng):
                packed[start:end] = packed_c
            pair_keys, pair_idx = np.unique(packed, return_inverse=True)
            del packed
        else:
            pair_keys, pair_idx = self._resolve(rng, client_counts)
        self._assign_pair_sizes(rng, pair_keys, pair_idx)
        del pair_idx

        # Timestamps: the gap draws begin here.  One pass learns the
        # normalising span; a diurnal trace needs a second pass, through
        # the inversion, to learn its rescale.
        self._state_gaps = rng.bit_generator.state
        for t in self._gap_chunks(self.chunk_rows):
            pass
        t_last = t[-1]
        self._span = t_last if t_last > 0 else 1.0
        self._diurnal_scale: np.float64 | None = None
        last = (t_last / self._span) * cfg.duration
        if cfg.diurnal_amplitude > 0.0:
            for x in self._timestamp_chunks(self.chunk_rows):
                pass
            last = x[-1]
            if last > 0:
                self._diurnal_scale = cfg.duration / last
                last = last * self._diurnal_scale
        self._last_timestamp = float(last)

    def _variate_chunks(
        self, rng: np.random.Generator
    ) -> Iterator[tuple[int, list[np.ndarray], np.ndarray, np.ndarray | None]]:
        """Yield ``(start, uniforms, lookback, n_embedded)`` per chunk of
        ``chunk_rows`` requests: the generative process's variates.

        They are read from *rng*'s stream, positioned just after the
        client draws, in this order: five uniform arrays of
        ``n_requests`` (new/self/shared decision, private flag, pool
        position, recency/uniform decision, mutation decision), the
        lookback exponential array (truncated to ``int64``) and, when
        the config has embedded objects, the Poisson array of their
        counts (else ``n_embedded`` is ``None``).  Each chunk draws its
        slice of every array from the one generator, re-positioned per
        array: uniform doubles consume exactly one PCG64 step each, so a
        uniform slice is reached with ``advance``; the ziggurat
        exponentials and the Poisson draws consume a value-dependent
        number of steps, so their cursors are saved states.  Their slices
        are drawn last in each chunk, so once exhausted *rng* sits just
        after the last variate array, where the size draws begin.
        """
        cfg = self.config
        n = cfg.n_requests
        chunk_rows = self.chunk_rows
        bg = rng.bit_generator
        lookback_mean = cfg.self_lookback_mean
        embedded_mean = cfg.embedded_per_page_mean

        state_uniform = bg.state
        state_lookback = None  # the first chunk reaches it (below)
        state_embed = None
        if embedded_mean > 0:
            # The Poisson array begins after the whole lookback array,
            # so its start state is found by streaming that array once.
            bg.advance(5 * n)
            for start in range(0, n, chunk_rows):
                rng.exponential(lookback_mean, size=min(chunk_rows, n - start))
            state_embed = bg.state

        for start in range(0, n, chunk_rows):
            k = min(chunk_rows, n - start)
            # the five uniform arrays lie n steps apart on the stream
            bg.state = state_uniform
            bg.advance(start)
            uniforms = []
            for _ in range(5):
                uniforms.append(rng.random(k))
                bg.advance(n - k)
            # The first chunk's walk ends at 5 n, where the lookback
            # array begins.
            if state_lookback is not None:
                bg.state = state_lookback
            lookback = rng.exponential(lookback_mean, size=k).astype(np.int64)
            state_lookback = bg.state
            n_embedded = None
            if state_embed is not None:
                bg.state = state_embed
                n_embedded = rng.poisson(embedded_mean, size=k)
                state_embed = bg.state
            yield start, uniforms, lookback, n_embedded

    def _resolve(
        self, rng: np.random.Generator, client_counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve every request's ``(doc, version)`` in whole-column
        passes, for a config without embedded objects.

        Returns the sorted unique pair keys (``doc << 32 | version``)
        and each request's index into them, exactly what ``np.unique``
        returns on the packed column the generative process defines (see
        :meth:`_loop_chunks`), from the same draws of
        :meth:`_variate_chunks`.

        Every re-reference takes the document of an earlier request, so
        each request becomes a pointer at the request its document comes
        from: a new document points at itself, a self pick at the
        client's earlier request it looks back to, a shared pick at the
        request that added the chosen pool entry or, for a uniform
        revisit, created the chosen shared document.  The pool holds one
        entry per request to a non-private document, so pool lengths are
        prefix counts of non-private requests.  Privacy is fixed when a
        document is created and a shared pick is never private, so a
        request's privacy is its self-pick chain's end's.  One thing
        feeds the pool back into classification: a shared pick before
        the first non-private request finds the pool empty and creates a
        document.  Resolving privacy with every shared pick new finds
        that request (nothing before it sees the difference), after which
        the second resolution is exact.  Pointer jumping (``ptr =
        ptr[ptr]`` until nothing changes) takes every chain to its end in
        a logarithmic number of passes.  A version counts the mutating
        requests to its document so far.
        """
        cfg = self.config
        n = cfg.n_requests
        idx_t = np.int32 if n < 2**31 else np.int64
        p_new = cfg.p_new
        p_self_edge = cfg.p_new + cfg.p_self
        recency_bias = cfg.recency_bias
        uniform_edge = cfg.recency_bias + cfg.uniform_doc_frac
        window_frac = cfg.recency_window_frac
        private_frac = cfg.private_doc_frac
        p_mutate = cfg.p_mutate

        # Each client's requests in order: client c's request of rank r
        # is by_client[first[c] + r], and request i sits at pos[i].
        by_client = _sort_by_group(self._clients, idx_t)
        first = np.zeros(len(client_counts) + 1, dtype=idx_t)
        np.cumsum(client_counts, out=first[1:])
        pos = np.empty(n, dtype=idx_t)
        pos[by_client] = np.arange(n, dtype=idx_t)

        # One pass over the draws keeps compact columns: each request's
        # kind, its pointer (self picks now, shared picks below), its
        # private and mutation draws, and pool positions of shared picks.
        kinds = np.empty(n, dtype=np.int8)
        ptr = np.arange(n, dtype=idx_t)
        private = np.empty(n, dtype=bool)
        mutates = np.empty(n, dtype=bool)
        shared_u: list[np.ndarray] = []
        for start, uniforms, lookback, _ in self._variate_chunks(rng):
            u_kind, u_private, u_pos, u_recent, u_mutate = uniforms
            end = start + len(u_kind)
            # _NEW, _SELF, or _RECENT + 0/1/2 for a shared pick
            kind = (u_recent >= recency_bias).astype(np.int8)
            kind += u_recent >= uniform_edge
            kind += 1
            kind *= u_kind >= p_self_edge
            kind += u_kind >= p_new
            at = np.flatnonzero(kind == _SELF)
            here = pos[start + at]
            oldest = first[self._clients[start + at]]
            # With no history yet a self pick creates a document (and
            # points at itself below, as here == oldest).
            kind[at[here == oldest]] = _NEW
            back = lookback[at]
            ptr[start + at] = by_client[
                np.where(back < here - oldest, here - 1 - back, oldest)
            ]
            shared_u.append(u_pos[kind >= _RECENT])
            kinds[start:end] = kind
            private[start:end] = u_private < private_frac
            mutates[start:end] = u_mutate < p_mutate
        del by_client, first, pos
        u_pos = np.concatenate(shared_u)
        del shared_u

        # Privacy, twice: first with every shared pick new, which finds
        # the first non-private request f, then with the shared picks
        # after f resolved, which are never private.  Either way it is
        # fixed at the end of a request's self-pick chain.
        chain_end = _jump(ptr)
        public = ~private[chain_end]
        f = int(np.argmax(public)) if public.any() else n
        reref = kinds >= _RECENT
        new = kinds == _NEW
        new[: f + 1] |= reref[: f + 1]  # the pool is empty up to f
        reref[: f + 1] = False
        public |= reref[chain_end]
        del chain_end, private

        # Shared picks point into the pool and the shared documents.
        pool = np.flatnonzero(public)
        created = np.flatnonzero(public & new)
        pool_len = np.cumsum(public, dtype=idx_t)
        del public
        at = np.flatnonzero(reref)
        del reref
        u = u_pos[len(u_pos) - len(at):]
        pool_len = pool_len[at] - 1  # a shared pick is in the pool itself
        kind = kinds[at]
        del kinds, u_pos
        target = np.empty(len(at), dtype=np.int64)
        m = kind == _RECENT
        window = np.maximum((pool_len[m] * window_frac).astype(np.int64), 1)
        target[m] = pool[pool_len[m] - 1 - (u[m] * window).astype(np.int64)]
        m = kind == _UNIFORM
        n_created = np.searchsorted(created, at[m])
        target[m] = created[(u[m] * n_created).astype(np.int64)]
        m = kind == _POPULAR
        target[m] = pool[(u[m] * pool_len[m]).astype(np.int64)]
        ptr[at] = target
        del pool, created, at, u, pool_len, kind, target, m

        # Documents are numbered in creation order.
        doc = np.cumsum(new, dtype=idx_t)
        n_docs = int(doc[-1])
        doc -= 1
        doc = doc[_jump(ptr)]
        del ptr

        # Versions: a re-reference mutates on its draw, and every
        # version of a document from 0 to its count of mutations occurs,
        # so a pair's index is its document's offset plus its version.
        mutates &= ~new
        del new
        n_versions = np.bincount(doc[mutates], minlength=n_docs)
        n_versions += 1
        offset = np.cumsum(n_versions)
        offset -= n_versions
        pair_idx = offset[doc].astype(idx_t)
        moving = np.flatnonzero((n_versions > 1)[doc])
        if moving.size:
            # Sort only the requests to documents that mutate, by
            # (document, request); a document's first request creates
            # it and never mutates.
            moving = moving[_sort_by_group(doc[moving], idx_t)]
            moved = doc[moving]
            count = np.cumsum(mutates[moving], dtype=idx_t)
            starts = np.flatnonzero(np.r_[True, moved[1:] != moved[:-1]])
            count -= np.repeat(count[starts], np.diff(np.r_[starts, len(moving)]))
            pair_idx[moving] += count
        pair_doc = np.repeat(np.arange(n_docs, dtype=np.int64), n_versions)
        pair_keys = np.arange(len(pair_doc), dtype=np.int64)
        pair_keys -= offset[pair_doc]
        pair_keys |= pair_doc << _VERSION_BITS
        return pair_keys, pair_idx

    def _loop_chunks(
        self, rng: np.random.Generator
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Run the generative process with embedded objects as a
        per-request loop, yielding ``(start, end, packed)`` per chunk,
        ``packed`` being each request's ``doc << 32 | version``.

        Whether a request is forced to a queued embedded object depends
        on which page its client's earlier request resolved to, so this
        input keeps the loop; every other config goes through
        :meth:`_resolve`, which reads the same draws of
        :meth:`_variate_chunks`.  Calibration runs it once per stream.
        """
        cfg = self.config
        p_new = cfg.p_new
        p_self_edge = cfg.p_new + cfg.p_self
        recency_bias = cfg.recency_bias
        uniform_edge = cfg.recency_bias + cfg.uniform_doc_frac
        window_frac = cfg.recency_window_frac
        private_frac = cfg.private_doc_frac
        p_mutate = cfg.p_mutate

        # shared_pool holds one entry per reference to a shared document,
        # so uniform sampling from it is preferential attachment;
        # shared_docs holds each shared document once, for uniform
        # mid-tail revisits.
        shared_pool: list[int] = []
        shared_docs: list[int] = []
        pool_append = shared_pool.append
        shared_docs_append = shared_docs.append
        history: list[list[int]] = [[] for _ in range(cfg.n_clients)]
        # doc | version << 31 (doc ids stay below 2**31), indexed by doc
        # id: a mutation adds 1 << 31, and each request appends its
        # document's entry.  An unmutated document's entry is its id, so
        # it costs no int object.
        key_of: list[int] = []
        is_private: list[bool] = []     # indexed by doc id
        key_of_append = key_of.append
        is_private_append = is_private.append
        version_step = 1 << 31
        n_docs = 0
        embedded_of: list[list[int]] = []   # page doc id -> embedded doc ids
        queue: list[list[int]] = [[] for _ in range(cfg.n_clients)]

        for start, uniforms, lookback, n_embedded in self._variate_chunks(rng):
            k = len(lookback)
            keys: list[int] = []
            keys_append = keys.append
            for c, kind, u_private, u_pos, u_recent, u_mutate, back, kids_n in zip(
                self._clients[start : start + k].tolist(),
                *[u.tolist() for u in uniforms],
                lookback.tolist(),
                n_embedded.tolist(),
            ):
                hist = history[c]
                doc = -1
                if queue[c]:
                    # Embedded objects of the page just visited come first.
                    doc = queue[c].pop()
                elif kind >= p_new:
                    if kind < p_self_edge:
                        if hist:
                            doc = hist[-1 - back] if back < len(hist) else hist[0]
                    elif shared_pool:
                        pool_len = len(shared_pool)
                        if u_recent < recency_bias:
                            window = int(pool_len * window_frac) or 1
                            doc = shared_pool[pool_len - 1 - int(u_pos * window)]
                        elif u_recent < uniform_edge:
                            doc = shared_docs[int(u_pos * len(shared_docs))]
                        else:
                            doc = shared_pool[int(u_pos * pool_len)]
                if doc < 0:
                    # New document, either by choice or because the pools
                    # are still empty early in the trace.
                    doc = n_docs
                    n_docs += 1
                    key_of_append(doc)
                    private = u_private < private_frac
                    is_private_append(private)
                    if not private:
                        shared_docs_append(doc)
                    kids = list(range(doc + 1, doc + 1 + kids_n))
                    n_docs += kids_n
                    embedded_of.append(kids)
                    embedded_of.extend([] for _ in kids)
                    key_of.extend(kids)
                    is_private.extend(private for _ in kids)
                elif u_mutate < p_mutate:
                    # The document changed at the origin since it was
                    # last seen.
                    key_of[doc] += version_step
                if not is_private[doc]:
                    # Every reference to a shared doc reinforces its
                    # popularity.
                    pool_append(doc)
                if embedded_of[doc]:
                    # Visiting a page queues its embedded objects (pop()
                    # takes from the end, so reverse to keep their order).
                    # An embedded object has none of its own, so a queued
                    # request queues nothing.
                    queue[c].extend(reversed(embedded_of[doc]))
                keys_append(key_of[doc])
                hist.append(doc)

            # repack as doc << 32 | version, which sorts by (doc, version)
            keys = np.array(keys, dtype=np.int64)
            packed = np.bitwise_and(keys, version_step - 1)
            np.left_shift(packed, _VERSION_BITS, out=packed)
            np.bitwise_or(packed, keys >> 31, out=packed)
            yield start, start + k, packed

    def _assign_pair_sizes(
        self, rng: np.random.Generator, pair_keys: np.ndarray, pair_idx: np.ndarray
    ) -> None:
        """Assign a body size to every unique ``(doc, version)`` pair.

        *pair_keys* are the sorted unique pairs (``doc << 32 |
        version``) and *pair_idx* each request's index into them.  Sizes
        are constant per (doc, version).  A document's base size is
        lognormal noise damped by its final reference count
        (``count**-beta``), producing the size/popularity
        anti-correlation that separates byte hit ratios from request hit
        ratios; a mutated version multiplies it by lognormal noise.  The
        whole trace is then rescaled so the mean request size matches
        ``config.mean_doc_size``.  Draws from *rng*, which must sit
        where the size draws begin.
        """
        cfg = self.config
        pair_docs = pair_keys >> _VERSION_BITS
        n_docs = int(pair_docs[-1]) + 1
        self._max_doc = n_docs - 1
        pair_counts = np.bincount(pair_idx, minlength=len(pair_keys))
        counts = np.bincount(pair_docs, weights=pair_counts, minlength=n_docs)

        noise = rng.lognormal(mean=0.0, sigma=cfg.size_sigma, size=n_docs)
        base = noise * np.power(np.maximum(counts, 1.0), -cfg.size_popularity_beta)
        mut_noise = np.where(
            (pair_keys & _VERSION_MASK) == 0,
            1.0,
            rng.lognormal(mean=0.0, sigma=cfg.mutate_size_sigma, size=len(pair_keys)),
        )
        pair_sizes = base[pair_docs] * mut_noise
        del noise, base, counts, pair_docs, mut_noise

        # The rescale divisor is the float64 pairwise sum over the
        # *per-request* expansion; expand transiently to keep that exact
        # summation tree, then drop the copy.
        scale = (cfg.mean_doc_size * len(pair_idx)) / max(
            pair_sizes[pair_idx].sum(), 1e-12
        )
        self._pair_final = np.maximum(
            np.rint(pair_sizes * scale), cfg.min_doc_size
        ).astype(np.int64)
        self._pair_idx = pair_idx.astype(
            np.int32 if len(pair_keys) < 2**31 else np.int64, copy=False
        )
        # Emission gathers each request's doc and version from here.
        self._pair_keys = pair_keys
        self._total_bytes = int((self._pair_final * pair_counts).sum())

    # -- timestamps, chunked ------------------------------------------

    def _gap_chunks(self, chunk_rows: int) -> Iterator[np.ndarray]:
        """Poisson arrival times, chunked and not yet normalised: the
        cumulative sum of unit exponential gaps drawn from the saved gap
        state, shifted so the first arrival is at 0.  ``cumsum`` is a
        sequential scan, so a carried accumulator gives the same values
        at any chunk size."""
        n = self.config.n_requests
        rng = self._rng
        bg = rng.bit_generator
        state = self._state_gaps
        carry = None
        first_gap = None
        for start in range(0, n, chunk_rows):
            bg.state = state
            chunk = rng.exponential(1.0, size=min(chunk_rows, n - start))
            state = bg.state
            if carry is None:
                first_gap = chunk[0]
                t = np.cumsum(chunk)
            else:
                t = np.cumsum(np.concatenate(([carry], chunk)))[1:]
            carry = t[-1]
            yield t - first_gap

    def _timestamp_chunks(self, chunk_rows: int) -> Iterator[np.ndarray]:
        """The arrival times, chunked: Poisson arrivals normalised to
        span exactly ``config.duration``.

        With ``diurnal_amplitude > 0`` the arrival process is an
        inhomogeneous Poisson with the sinusoidal 24-hour rate ``1 + a
        sin(2 pi t / T_d)``: the homogeneous arrivals are
        inverse-transformed through the cumulative rate ``Lambda(t) = t
        + (a T_d / 2 pi)(1 - cos(2 pi t / T_d))`` by a few Newton steps
        (better than a second), made monotonic by a prefix max carried
        across chunks, and rescaled to end at ``config.duration`` once
        calibration has learnt the scale (unscaled before).
        """
        cfg = self.config
        span, duration = self._span, cfg.duration
        a = cfg.diurnal_amplitude
        day = 86_400.0
        k_const = a * day / (2 * np.pi)
        scale = self._diurnal_scale
        x_carry = -np.inf
        for t in self._gap_chunks(chunk_rows):
            target = (t / span) * duration
            if a == 0.0:
                yield target
                continue
            x = target.copy()
            for _ in range(8):
                lam = x + k_const * (1 - np.cos(2 * np.pi * x / day))
                rate = 1 + a * np.sin(2 * np.pi * x / day)
                x = x - (lam - target) / np.maximum(rate, 1e-9)
            x = np.clip(x, 0.0, None)
            x[0] = max(x[0], x_carry)
            x = np.maximum.accumulate(x)
            x_carry = x[-1]
            yield x * scale if scale is not None else x

    # -- emission (pass B) --------------------------------------------

    def _gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(docs, sizes, versions)`` of the requests whose pair indices
        are *idx*."""
        keys = self._pair_keys[idx]
        docs = keys >> _VERSION_BITS
        versions = np.bitwise_and(keys, _VERSION_MASK, out=keys)
        return docs, self._pair_final[idx], versions

    def chunks(
        self, chunk_rows: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(timestamps, clients, docs, sizes, versions)`` column
        chunks, dtype-identical to the materialised trace's columns.

        Re-iterable: each call gathers every chunk from the calibration
        tables (pair keys, sizes) and redraws only the timestamp gaps,
        so it costs O(``chunk_rows``) memory and no generator pass.
        The chunk size does not affect the values.
        """
        step = int(chunk_rows) if chunk_rows else self.chunk_rows
        if step <= 0:
            raise ValueError(f"chunk_rows must be > 0, got {step}")
        ts_iter = self._timestamp_chunks(step)
        for start in range(0, self.config.n_requests, step):
            docs, sizes, versions = self._gather(self._pair_idx[start : start + step])
            clients = self._clients[start : start + step].astype(np.int64)
            yield next(ts_iter), clients, docs, sizes, versions

    def iter_rows(
        self, chunk_rows: int | None = None
    ) -> Iterator[tuple[float, int, int, int, int]]:
        """Iterate ``(timestamp, client, doc, size, version)`` scalar
        rows, exactly like ``Trace.iter_rows`` on the materialised
        trace (a C-level iterator chaining one ``zip`` per chunk)."""
        return chain.from_iterable(
            zip(*[col.tolist() for col in cols]) for cols in self.chunks(chunk_rows)
        )

    def materialise(self) -> Trace:
        """The whole stream as a :class:`Trace`: one gather per column
        and one timestamp pass (what
        :func:`repro.traces.synthetic.generate_trace` returns; defeats
        the purpose at scale)."""
        docs, sizes, versions = self._gather(self._pair_idx)
        (timestamps,) = self._timestamp_chunks(self.config.n_requests)
        return Trace(
            timestamps=timestamps,
            clients=self._clients.astype(np.int64),
            docs=docs,
            sizes=sizes,
            versions=versions,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceStream(name={self.name!r}, requests={self.n_requests}, "
            f"clients={self.n_clients}, seed={self.seed})"
        )

