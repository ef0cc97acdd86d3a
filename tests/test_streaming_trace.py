"""The streaming workload generator is bit-identical to the
whole-array reference generator.

``TraceStream`` must reproduce ``tests.trace_oracle.reference_generate_trace``
exactly — same five columns, same dtypes, same derived statistics — for
the same ``(config, seed)``, regardless of chunk size, and without
retaining O(n) float columns between passes.  ``generate_trace`` is the
materialised stream, so the oracle is the only independent
implementation of the generator.
"""

from __future__ import annotations

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.traces import SyntheticTraceConfig, TraceStream, generate_trace
from tests.conftest import example_budget
from tests.trace_oracle import reference_generate_trace


def assert_stream_matches(config: SyntheticTraceConfig, seed: int, chunk_rows=None):
    ref = reference_generate_trace(config, seed=seed)
    stream = (
        TraceStream(config, seed=seed, chunk_rows=chunk_rows)
        if chunk_rows
        else TraceStream(config, seed=seed)
    )
    got = stream.materialise()
    for col in ("timestamps", "clients", "docs", "sizes", "versions"):
        a, b = getattr(ref, col), getattr(got, col)
        assert a.dtype == b.dtype, col
        np.testing.assert_array_equal(a, b, err_msg=col)
    assert stream.n_requests == len(ref)
    assert stream.n_clients == got.n_clients == ref.n_clients
    assert got.has_dense_clients == ref.has_dense_clients
    assert stream.total_bytes == ref.total_bytes
    assert stream.mean_request_size == ref.mean_request_size
    return ref, stream


@given(
    n_requests=st.integers(1, 400),
    n_clients=st.integers(1, 30),
    seed=st.integers(0, 2**31),
    p_mutate=st.sampled_from([0.0, 0.05]),
    diurnal=st.sampled_from([0.0, 0.8]),
    embedded=st.sampled_from([0.0, 1.5]),
    # The knobs the embedded-free resolver branches on: at
    # private_doc_frac=1 the pool never fills, so every shared pick is
    # new; p_self is capped so that p_new + p_self stays at most 1.
    private_doc_frac=st.sampled_from([0.0, 0.15, 1.0]),
    p_new=st.sampled_from([0.0, 0.45, 1.0]),
    p_self=st.sampled_from([0.0, 0.25, 1.0]),
    recency_bias=st.sampled_from([0.0, 0.3, 1.0]),
    uniform_doc_frac=st.sampled_from([0.0, 0.25, 1.0]),
    recency_window_frac=st.sampled_from([0.002, 0.05, 1.0]),
    chunk_rows=st.none() | st.integers(1, 97),
    reread_rows=st.integers(1, 500),
)
@settings(max_examples=example_budget(150), deadline=None)
def test_streamed_equals_generate_trace(
    n_requests, n_clients, seed, p_mutate, diurnal, embedded, private_doc_frac,
    p_new, p_self, recency_bias, uniform_doc_frac, recency_window_frac,
    chunk_rows, reread_rows,
):
    config = SyntheticTraceConfig(
        n_requests=n_requests,
        n_clients=n_clients,
        p_mutate=p_mutate,
        diurnal_amplitude=diurnal,
        embedded_per_page_mean=embedded,
        private_doc_frac=private_doc_frac,
        p_new=p_new,
        p_self=min(p_self, 1.0 - p_new),
        recency_bias=recency_bias,
        uniform_doc_frac=uniform_doc_frac,
        recency_window_frac=recency_window_frac,
    )
    ref, stream = assert_stream_matches(config, seed, chunk_rows)
    # Re-iterate with a different chunk size, twice: every pass gathers
    # the same rows from the calibration tables.
    if reread_rows == chunk_rows:
        reread_rows += 1
    passes = [
        [np.concatenate(col) for col in zip(*stream.chunks(chunk_rows=reread_rows))]
        for _ in range(2)
    ]
    for name, first, second in zip(
        ("timestamps", "clients", "docs", "sizes", "versions"), *passes
    ):
        expected = getattr(ref, name)
        assert first.dtype == second.dtype == expected.dtype, name
        np.testing.assert_array_equal(first, expected, err_msg=name)
        np.testing.assert_array_equal(second, first, err_msg=name)


def test_chunk_size_invariance():
    config = SyntheticTraceConfig(n_requests=2_000, n_clients=40)
    ref = reference_generate_trace(config, seed=5)
    for chunk in (1, 7, 63, 1024, 100_000):
        got = TraceStream(config, seed=5, chunk_rows=chunk).materialise()
        for col in ("timestamps", "clients", "docs", "sizes", "versions"):
            np.testing.assert_array_equal(
                getattr(ref, col), getattr(got, col), err_msg=f"chunk={chunk} {col}"
            )


def test_repair_heavy_shape_matches():
    """n_requests=30/n_clients=25 exercises the client-planting repair
    on most seeds; the stream must replicate it draw for draw."""
    config = SyntheticTraceConfig(n_requests=30, n_clients=25)
    for seed in range(25):
        assert_stream_matches(config, seed)


def test_single_request_and_sub_client_shapes():
    assert_stream_matches(SyntheticTraceConfig(n_requests=1, n_clients=1), 0)
    assert_stream_matches(SyntheticTraceConfig(n_requests=3, n_clients=50), 2)


def test_chunks_reiterable_and_bounded():
    config = SyntheticTraceConfig(n_requests=1_500, n_clients=20)
    stream = TraceStream(config, seed=1, chunk_rows=256)
    first = [c[0].copy() for c in stream.chunks()]
    second = [c[0].copy() for c in stream.chunks()]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    # Two passes in lockstep re-position the stream's one generator in turn.
    lockstep = list(zip(stream.chunks(), stream.chunks()))
    assert len(lockstep) == len(first)
    for (a, b), want in zip(lockstep, first):
        np.testing.assert_array_equal(a[0], want)
        np.testing.assert_array_equal(b[0], want)
    for cols in stream.chunks():
        assert len(cols) == 5
        assert all(len(col) <= 256 for col in cols)


def test_iter_rows_matches_materialised_rows():
    config = SyntheticTraceConfig(n_requests=500, n_clients=10)
    stream = TraceStream(config, seed=9, chunk_rows=128)
    assert list(stream.iter_rows()) == list(stream.materialise().iter_rows())


def test_stream_len_and_duration():
    config = SyntheticTraceConfig(n_requests=64, n_clients=4)
    stream = TraceStream(config, seed=3)
    assert len(stream) == 64
    assert stream.has_dense_clients
    assert stream.duration == reference_generate_trace(config, seed=3).duration


def test_generator_seed_rejected():
    """Both entry points own the bit generator they re-position, so a
    caller's ``Generator`` is refused rather than silently copied."""
    config = SyntheticTraceConfig(n_requests=8, n_clients=2)
    with pytest.raises(TypeError):
        TraceStream(config, seed=np.random.default_rng(0))
    with pytest.raises(TypeError):
        generate_trace(config, seed=np.random.default_rng(0))


def test_generative_loop_runs_once_per_stream(monkeypatch):
    """Calibration resolves the generative process once: by the
    per-request loop with embedded objects, by the whole-column resolver
    without (the loop never runs).  Emission gathers from the
    calibration tables and never resolves again, whatever the consumer."""
    calls = []

    def counted(name):
        method = getattr(TraceStream, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)

        monkeypatch.setattr(TraceStream, name, wrapper)

    counted("_loop_chunks")
    counted("_resolve")
    for embedded, path in ((1.5, "_loop_chunks"), (0.0, "_resolve")):
        calls.clear()
        config = SyntheticTraceConfig(
            n_requests=700,
            n_clients=12,
            p_mutate=0.05,
            embedded_per_page_mean=embedded,
        )
        stream = TraceStream(config, seed=4, chunk_rows=64)
        assert calls == [path]
        for _ in stream.chunks():
            pass
        for _ in stream.chunks(chunk_rows=1000):
            pass
        rows = list(stream.iter_rows())
        trace = stream.materialise()
        assert calls == [path]
        assert rows == list(trace.iter_rows())
        assert rows == list(reference_generate_trace(config, seed=4).iter_rows())


def test_reiteration_memory_is_per_chunk():
    """A second full pass allocates O(chunk_rows), not O(n): emission
    gathers each chunk and keeps no generator state (the generative
    loop's per-client histories and pools cost ~5.7 MB here)."""
    import tracemalloc

    config = SyntheticTraceConfig(n_requests=120_000, n_clients=500)
    stream = TraceStream(config, seed=0, chunk_rows=4_096)
    for _ in stream.chunks():
        pass

    tracemalloc.start()
    try:
        for _ in stream.chunks():
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured locally: ~425 KB
    assert peak < 1024 * 1024, f"re-iteration peaked at {peak:,} B"


def test_streaming_memory_below_materialised_generation():
    """Streaming retains ~8 B/request (int32 client + pair index) plus
    an O(unique pairs) key table, and its transient peak must stay well
    under whole-array generation's (the oracle's), which allocates five
    O(n) result columns plus O(n) float temporaries.  ``generate_trace``
    materialises a stream, so it peaks below the oracle too."""
    import tracemalloc

    config = SyntheticTraceConfig(n_requests=120_000, n_clients=500)

    def traced(build):
        tracemalloc.start()
        try:
            kept = build()  # alive while the retained bytes are read
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def stream_all():
        stream = TraceStream(config, seed=0, chunk_rows=4_096)
        for _ in stream.chunks():
            pass
        return stream

    mat_current, mat_peak = traced(lambda: reference_generate_trace(config, seed=0))
    stream_current, stream_peak = traced(stream_all)
    _, gen_peak = traced(lambda: generate_trace(config, seed=0))

    # measured locally: peaks ~37 MB (oracle), ~9 MB (stream) and ~19 MB
    # (generate_trace); ~5.5 MB / ~1.9 MB retained
    assert stream_peak < mat_peak / 2, (
        f"streaming peak {stream_peak:,} B not well below "
        f"materialised generation peak {mat_peak:,} B"
    )
    assert stream_current < mat_current, (
        f"streaming retains {stream_current:,} B, more than a "
        f"materialised trace ({mat_current:,} B)"
    )
    assert gen_peak < mat_peak * 3 / 4, (
        f"generate_trace peaked at {gen_peak:,} B, not below the "
        f"whole-array generator's {mat_peak:,} B"
    )
