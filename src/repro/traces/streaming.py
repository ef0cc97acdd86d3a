"""Streaming synthetic workload generation.

:func:`repro.traces.synthetic.generate_trace` materialises five whole
columns (40 bytes per request plus conversion transients) before the
first request can be replayed.  For million-client, ten-million-request
cells that peak at several hundred megabytes *per sweep cell* before
the simulator even starts.

:class:`TraceStream` produces the **same requests, bit for bit**, as an
iterator of bounded chunks.  For every ``(config, seed)`` pair the
emitted ``(timestamp, client, doc, size, version)`` rows are exactly
equal — same values, same dtypes, same order — to the columns of
``generate_trace(config, seed)``; a hypothesis property test pins this.

How bit-identity survives chunking
----------------------------------
``generate_trace`` consumes one sequential PCG64 stream in a fixed
order: client draws, five uniform arrays, a lookback exponential array,
an optional embedded-object Poisson array, the size lognormals, and the
timestamp gap exponentials.  NumPy fills every one of those arrays
sequentially from the bit generator, so drawing an array in bounded
chunks from a generator carrying the right state yields the identical
values.  Uniform doubles consume exactly one PCG64 step each, so the
five uniform cursors are positioned with ``PCG64.advance``; the
variable-consumption draws (ziggurat exponentials, Poisson) are
positioned from bit-generator states captured on the way.

Construction (calibration) runs the generative loop on those cursors
exactly once, and keeps what it produced as tables: each request's
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
the materialised path's five 8-byte output columns plus the ``Trace``
and its replay conversions.  The generative process's own state (its
preferential-attachment pool and per-client histories, identical to
``generate_trace``'s) lives only during calibration.  Each emitted
chunk is O(``chunk_rows``).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from repro.traces.record import Trace
from repro.traces.synthetic import SyntheticTraceConfig, _draw_clients

__all__ = ["TraceStream", "stream_trace"]

#: rows per emitted chunk: the same trade-off as
#: :attr:`repro.traces.record.Trace.ITER_CHUNK_ROWS`.
DEFAULT_CHUNK_ROWS = 65_536

_VERSION_BITS = 32  # (doc, version) packed as doc << 32 | version
_VERSION_MASK = (1 << _VERSION_BITS) - 1


def _generator_at(state: dict, offset: int = 0) -> np.random.Generator:
    """A fresh ``Generator`` positioned at *state* advanced by *offset*.

    *offset* counts 64-bit PCG64 steps; uniform doubles consume exactly
    one step each, which is what makes ``advance`` usable for the
    uniform cursors.
    """
    bg = np.random.PCG64()
    bg.state = state
    if offset:
        bg.advance(offset)
    return np.random.Generator(bg)


class TraceStream:
    """Chunked, re-iterable view of a synthetic trace.

    Bit-identical to ``generate_trace(config, seed)`` without ever
    materialising the five request columns.  Construction runs the one
    calibration pass (the generative loop plus size/timestamp
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
        n = cfg.n_requests

        rng = np.random.default_rng(self.seed)
        if rng.bit_generator.state["bit_generator"] != "PCG64":
            raise RuntimeError(
                "TraceStream requires the PCG64 bit generator "
                "(numpy default_rng)"
            )

        # Clients: the verbatim _draw_clients call, so the master stream
        # is consumed exactly as generate_trace consumes it.
        clients = _draw_clients(cfg, rng)
        self._max_client = int(clients.max())
        self._n_distinct_clients = int(np.unique(clients).size)
        # Values are < n_clients, so int32 halves the retained footprint;
        # emission upcasts per chunk.
        self._clients = clients.astype(np.int32)
        state_stream = rng.bit_generator.state

        # The embedded-object Poisson array is drawn only after the full
        # lookback exponential array, and ziggurat consumption is
        # value-dependent — so its start state must be *discovered* by
        # streaming the exponentials once.
        state_embed: dict | None = None
        if cfg.embedded_per_page_mean > 0:
            scout = _generator_at(state_stream, 5 * n)
            for start in range(0, n, self.chunk_rows):
                scout.exponential(
                    cfg.self_lookback_mean, size=min(self.chunk_rows, n - start)
                )
            state_embed = scout.bit_generator.state

        # Generative loop, its only run: retain only the packed
        # (doc, version) per request, to recover final popularity counts
        # and the unique pair table that sizes are assigned over.
        packed = np.empty(n, dtype=np.int64)
        state_after_variates: dict | None = None
        for start, end, docs_c, versions_c, state_after_variates in self._loop_chunks(
            self.chunk_rows, state_stream, state_embed
        ):
            np.left_shift(docs_c, _VERSION_BITS, out=docs_c)
            np.bitwise_or(docs_c, versions_c, out=docs_c)
            packed[start:end] = docs_c

        # Sizes: replicate _assign_sizes per unique pair.  The packed
        # keys sort exactly like the original's docs*vmax+versions keys
        # (both strictly increasing in (doc, version)), so np.unique
        # yields the same pair order and the same inverse mapping.
        sizes_rng = _generator_at(state_after_variates)
        unique_keys, inverse = np.unique(packed, return_inverse=True)
        doc_ids = packed >> _VERSION_BITS
        n_docs = int(doc_ids.max()) + 1
        self._max_doc = n_docs - 1
        counts = np.bincount(doc_ids, minlength=n_docs).astype(np.float64)
        del packed, doc_ids

        noise = sizes_rng.lognormal(mean=0.0, sigma=cfg.size_sigma, size=n_docs)
        base = noise * np.power(
            np.maximum(counts, 1.0), -cfg.size_popularity_beta
        )
        pair_docs = unique_keys >> _VERSION_BITS
        pair_vers = unique_keys & _VERSION_MASK
        mut_noise = np.where(
            pair_vers == 0,
            1.0,
            sizes_rng.lognormal(
                mean=0.0, sigma=cfg.mutate_size_sigma, size=len(unique_keys)
            ),
        )
        pair_sizes = base[pair_docs] * mut_noise
        del noise, base, counts, pair_docs, pair_vers, mut_noise

        # The rescale divisor is the float64 pairwise sum over the
        # *per-request* expansion; expand transiently to reproduce the
        # exact same summation tree, then drop the copy.
        request_sizes = pair_sizes[inverse]
        scale = (cfg.mean_doc_size * n) / max(request_sizes.sum(), 1e-12)
        del request_sizes
        self._pair_final = np.maximum(
            np.rint(pair_sizes * scale), cfg.min_doc_size
        ).astype(np.int64)
        self._pair_idx = inverse.astype(
            np.int32 if len(unique_keys) <= np.iinfo(np.int32).max else np.int64
        )
        # Emission gathers each request's doc and version from here.
        self._pair_keys = unique_keys
        pair_counts = np.bincount(self._pair_idx, minlength=len(unique_keys))
        self._total_bytes = int((self._pair_final * pair_counts).sum())
        del pair_sizes, inverse, pair_counts

        # Timestamps: stream the gap exponentials once to learn the
        # normalisation constants (cumsum is a sequential scan, so a
        # carried accumulator reproduces it exactly).
        self._state_gaps = sizes_rng.bit_generator.state
        gaps_rng = _generator_at(self._state_gaps)
        carry = None
        first_gap = None
        for start in range(0, n, self.chunk_rows):
            k = min(self.chunk_rows, n - start)
            chunk = gaps_rng.exponential(1.0, size=k)
            if carry is None:
                first_gap = chunk[0]
                t = np.cumsum(chunk)
            else:
                t = np.cumsum(np.concatenate(([carry], chunk)))[1:]
            carry = t[-1]
        t_last = carry - first_gap  # t[-1] after the t -= t[0] shift
        self._span = t_last if t_last > 0 else 1.0

        self._diurnal_scale: np.float64 | None = None
        if cfg.diurnal_amplitude > 0.0:
            x_carry = None
            for _, _, x_chunk, x_carry in self._diurnal_chunks(self.chunk_rows):
                pass
            if x_carry > 0:
                self._diurnal_scale = cfg.duration / x_carry
            last = x_carry * self._diurnal_scale if self._diurnal_scale is not None else x_carry
            self._last_timestamp = float(last)
        else:
            self._last_timestamp = float((t_last / self._span) * cfg.duration)

    # -- the generative loop, chunked (calibration only) --------------

    def _loop_chunks(
        self, chunk_rows: int, state_stream: dict, state_embed: dict | None
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, dict]]:
        """Run the reference-stream loop, yielding per-chunk docs and
        versions.

        The loop body is a verbatim transliteration of
        :func:`repro.traces.synthetic._reference_stream`; only the
        variate arrays arrive in chunks, from cursors positioned on the
        same master stream (*state_stream*: where the uniform arrays
        begin; *state_embed*: where the embedded-object Poisson array
        begins, ``None`` when the config has none).  The final tuple
        element is the bit-generator state after the last variate array
        completed (where ``generate_trace`` would begin the size draws).
        Calibration runs it exactly once per stream.
        """
        cfg = self.config
        n = cfg.n_requests
        cur_kind = _generator_at(state_stream, 0)
        cur_private = _generator_at(state_stream, n)
        cur_pos = _generator_at(state_stream, 2 * n)
        cur_recent = _generator_at(state_stream, 3 * n)
        cur_mutate = _generator_at(state_stream, 4 * n)
        cur_lookback = _generator_at(state_stream, 5 * n)
        track_embedded = cfg.embedded_per_page_mean > 0
        cur_embed = _generator_at(state_embed) if track_embedded else None

        p_new = cfg.p_new
        p_self_edge = cfg.p_new + cfg.p_self
        recency_bias = cfg.recency_bias
        uniform_edge = cfg.recency_bias + cfg.uniform_doc_frac
        window_frac = cfg.recency_window_frac
        private_frac = cfg.private_doc_frac
        p_mutate = cfg.p_mutate

        shared_pool: list[int] = []
        shared_docs: list[int] = []
        history: list[list[int]] = [[] for _ in range(cfg.n_clients)]
        version_of: list[int] = []
        is_private: list[bool] = []
        embedded_of: list[list[int]] = []
        queue: list[list[int]] = [[] for _ in range(cfg.n_clients)]

        for start in range(0, n, chunk_rows):
            k = min(chunk_rows, n - start)
            client_list = self._clients[start : start + k].tolist()
            u_kind_l = cur_kind.random(k).tolist()
            u_private_l = cur_private.random(k).tolist()
            u_pos_l = cur_pos.random(k).tolist()
            u_recent_l = cur_recent.random(k).tolist()
            u_mutate_l = cur_mutate.random(k).tolist()
            lookback_l = (
                cur_lookback.exponential(cfg.self_lookback_mean, size=k)
                .astype(np.int64)
                .tolist()
            )
            n_embedded_l = (
                cur_embed.poisson(cfg.embedded_per_page_mean, size=k).tolist()
                if track_embedded
                else None
            )

            docs = np.empty(k, dtype=np.int64)
            versions = np.empty(k, dtype=np.int64)

            for i in range(k):
                c = client_list[i]
                hist = history[c]
                doc = -1
                from_queue = False
                if track_embedded and queue[c]:
                    doc = queue[c].pop()
                    from_queue = True
                else:
                    kind = u_kind_l[i]
                    if kind >= p_new:
                        if kind < p_self_edge:
                            if hist:
                                idx = len(hist) - 1 - min(
                                    lookback_l[i], len(hist) - 1
                                )
                                doc = hist[idx]
                        else:
                            if shared_pool:
                                pool_len = len(shared_pool)
                                r = u_recent_l[i]
                                if r < recency_bias:
                                    window = max(1, int(pool_len * window_frac))
                                    doc = shared_pool[
                                        pool_len - 1 - int(u_pos_l[i] * window)
                                    ]
                                elif r < uniform_edge:
                                    doc = shared_docs[
                                        int(u_pos_l[i] * len(shared_docs))
                                    ]
                                else:
                                    doc = shared_pool[int(u_pos_l[i] * pool_len)]
                if doc < 0:
                    doc = len(version_of)
                    version_of.append(0)
                    private = u_private_l[i] < private_frac
                    is_private.append(private)
                    if not private:
                        shared_docs.append(doc)
                    if track_embedded:
                        embedded_of.append([])
                        kids = []
                        for _ in range(n_embedded_l[i]):
                            kid = len(version_of)
                            version_of.append(0)
                            is_private.append(private)
                            embedded_of.append([])
                            kids.append(kid)
                        embedded_of[doc] = kids
                elif u_mutate_l[i] < p_mutate:
                    version_of[doc] += 1
                if not is_private[doc]:
                    shared_pool.append(doc)
                if track_embedded and not from_queue and embedded_of[doc]:
                    queue[c].extend(reversed(embedded_of[doc]))
                docs[i] = doc
                versions[i] = version_of[doc]
                hist.append(doc)

            after = (
                cur_embed.bit_generator.state
                if track_embedded
                else cur_lookback.bit_generator.state
            )
            yield start, start + k, docs, versions, after

    # -- timestamps, chunked ------------------------------------------

    def _uniform_t_chunks(
        self, chunk_rows: int
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """The homogeneous arrival times, chunked: the exact elementwise
        pipeline of ``_draw_timestamps`` up to ``uniform_t``."""
        cfg = self.config
        n = cfg.n_requests
        gaps_rng = _generator_at(self._state_gaps)
        carry = None
        first_gap = None
        for start in range(0, n, chunk_rows):
            k = min(chunk_rows, n - start)
            chunk = gaps_rng.exponential(1.0, size=k)
            if carry is None:
                first_gap = chunk[0]
                t = np.cumsum(chunk)
            else:
                t = np.cumsum(np.concatenate(([carry], chunk)))[1:]
            carry = t[-1]
            t = t - first_gap
            yield start, start + k, (t / self._span) * cfg.duration

    def _diurnal_chunks(
        self, chunk_rows: int
    ) -> Iterator[tuple[int, int, np.ndarray, np.float64]]:
        """Diurnal inversion, chunked: Newton is elementwise and the
        monotonic repair is a prefix max, carried across chunks.  Yields
        the *unscaled* x chunks plus the running maximum."""
        cfg = self.config
        a = cfg.diurnal_amplitude
        day = 86_400.0
        k_const = a * day / (2 * np.pi)
        x_carry = -np.inf
        for start, end, target in self._uniform_t_chunks(chunk_rows):
            x = target.copy()
            for _ in range(8):
                lam = x + k_const * (1 - np.cos(2 * np.pi * x / day))
                rate = 1 + a * np.sin(2 * np.pi * x / day)
                x = x - (lam - target) / np.maximum(rate, 1e-9)
            x = np.clip(x, 0.0, None)
            x[0] = max(x[0], x_carry)
            x = np.maximum.accumulate(x)
            x_carry = x[-1]
            yield start, end, x, x_carry

    def _timestamp_chunks(
        self, chunk_rows: int
    ) -> Iterator[np.ndarray]:
        cfg = self.config
        if cfg.diurnal_amplitude == 0.0:
            for _, _, ts in self._uniform_t_chunks(chunk_rows):
                yield ts
        else:
            scale = self._diurnal_scale
            for _, _, x, _ in self._diurnal_chunks(chunk_rows):
                yield x * scale if scale is not None else x

    # -- emission (pass B) --------------------------------------------

    def chunks(
        self, chunk_rows: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(timestamps, clients, docs, sizes, versions)`` column
        chunks, dtype-identical to the materialised trace's columns.

        Re-iterable: each call gathers every chunk from the calibration
        tables (pair keys, sizes) and redraws only the timestamp gaps,
        so it costs O(``chunk_rows``) memory and no generative loop.
        The chunk size does not affect the values.
        """
        step = int(chunk_rows) if chunk_rows else self.chunk_rows
        if step <= 0:
            raise ValueError(f"chunk_rows must be > 0, got {step}")
        pair_idx, pair_keys, pair_final = (
            self._pair_idx, self._pair_keys, self._pair_final
        )
        ts_iter = self._timestamp_chunks(step)
        for start in range(0, self.config.n_requests, step):
            idx = pair_idx[start : start + step]
            keys = pair_keys[idx]
            docs = keys >> _VERSION_BITS
            versions = np.bitwise_and(keys, _VERSION_MASK, out=keys)
            clients = self._clients[start : start + step].astype(np.int64)
            yield next(ts_iter), clients, docs, pair_final[idx], versions

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
        """Concatenate the stream into a :class:`Trace` (for tests and
        small workloads; defeats the purpose at scale)."""
        cols = list(zip(*self.chunks()))
        return Trace(
            timestamps=np.concatenate(cols[0]),
            clients=np.concatenate(cols[1]),
            docs=np.concatenate(cols[2]),
            sizes=np.concatenate(cols[3]),
            versions=np.concatenate(cols[4]),
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceStream(name={self.name!r}, requests={self.n_requests}, "
            f"clients={self.n_clients}, seed={self.seed})"
        )


def stream_trace(
    config: SyntheticTraceConfig,
    seed: int | None = 0,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> TraceStream:
    """Build a :class:`TraceStream` for *config* — the streaming
    counterpart of :func:`repro.traces.synthetic.generate_trace`."""
    return TraceStream(config, seed=seed, chunk_rows=chunk_rows)
