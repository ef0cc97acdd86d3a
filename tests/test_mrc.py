"""Property and differential tests for the one-pass MRC engine.

Three satellite properties from the issue — the every-size curve is
monotone non-decreasing in cache size, the spatial sampler is
deterministic per ``(seed, rate)`` and chunk-size-invariant when fed
from a :class:`~repro.traces.streaming.TraceStream`, and
``sample_rate=1.0`` is bit-identical to the unsampled pass — plus the
strongest check available: on randomized traces and randomized
capacity grids, the one-pass predictions for the pure-LRU
organizations must be **bit-exact** against a full replay (this is
what exercises the oversize-refusal corrections and the in-place-
refresh barriers with adversarial sizes).

The example budget follows ``HYPOTHESIS_PROFILE``: 25 examples per
test by default, 200 under the ``ci-nightly`` profile (the same knob
as ``tests/test_differential.py``).
"""

from __future__ import annotations

import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.mrc import (
    MRC_EXACT_ORGANIZATIONS,
    CapacityGrid,
    capacity_grid,
    compute_mrc,
)
from repro.core.config import SimulationConfig
from repro.core.policies import Organization
from repro.core.simulator import simulate
from repro.core.sweep import PAPER_SIZE_FRACTIONS
from repro.traces.record import Trace
from repro.traces.sampling import (
    SAMPLE_ERROR_BOUNDS,
    SpatialSampler,
    build_sample_report,
    sample_trace,
)
from repro.traces.streaming import TraceStream
from repro.traces.synthetic import SyntheticTraceConfig

settings.register_profile("default", max_examples=25, deadline=None)
settings.register_profile(
    "ci-nightly",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@st.composite
def traces(draw):
    """Small traces with version bumps that change sizes, including
    documents larger than the smallest grid capacities (so refusal and
    oversized-refresh paths are exercised, not just clean LRU)."""
    n = draw(st.integers(10, 120))
    n_clients = draw(st.integers(2, 5))
    n_docs = draw(st.integers(2, 25))
    clients = draw(st.lists(st.integers(0, n_clients - 1), min_size=n, max_size=n))
    remap = {c: i for i, c in enumerate(sorted(set(clients)))}
    clients = [remap[c] for c in clients]
    docs = draw(st.lists(st.integers(0, n_docs - 1), min_size=n, max_size=n))
    base_sizes = draw(
        st.lists(st.integers(1, 3_000), min_size=n_docs, max_size=n_docs)
    )
    bumps = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    versions = []
    current: dict[int, int] = {}
    sizes = []
    for i in range(n):
        d = docs[i]
        v = current.get(d, 0)
        if bumps[i] and d in current:
            v += 1
        current[d] = v
        versions.append(v)
        sizes.append(base_sizes[d] + v)
    return Trace(
        timestamps=np.arange(n, dtype=np.float64),
        clients=np.array(clients),
        docs=np.array(docs),
        sizes=np.array(sizes),
        versions=np.array(versions),
        name="mrc-prop",
    )


@st.composite
def grids(draw):
    """Ascending capacity grids small enough to force evictions."""
    k = draw(st.integers(1, 4))
    proxy = sorted(draw(st.lists(st.integers(1, 8_000), min_size=k, max_size=k)))
    browser = sorted(draw(st.lists(st.integers(1, 3_000), min_size=k, max_size=k)))
    fractions = tuple((i + 1) / 10 for i in range(k))
    return CapacityGrid(fractions, tuple(proxy), tuple(browser))


# -- exactness: the strongest property ---------------------------------


@given(trace=traces(), grid=grids())
def test_pure_lru_organizations_bit_exact_vs_replay(trace, grid):
    analysis = compute_mrc(trace, grid, organizations=tuple(MRC_EXACT_ORGANIZATIONS))
    for org in MRC_EXACT_ORGANIZATIONS:
        for i, frac in enumerate(grid.fractions):
            point = analysis.predict(org, frac)
            replay = simulate(
                trace,
                org,
                SimulationConfig(
                    proxy_capacity=grid.proxy_capacities[i],
                    browser_capacity=grid.browser_capacities[i],
                ),
            )
            assert point.exact
            assert point.hit_ratio == pytest.approx(replay.hit_ratio, abs=1e-12)
            assert point.byte_hit_ratio == pytest.approx(
                replay.byte_hit_ratio, abs=1e-12
            )


def test_refused_refresh_of_evicted_copy_keeps_older_entries_evicted():
    """Doc 4 (2 B) evicts doc 0 from a 2-byte browser, doc 1 evicts doc
    4, then doc 4 comes back at 3 B and is refused.  The refusal must
    not make doc 0 resident again: its next reference is a miss."""
    docs = [0] * 5 + [4, 1, 4] + [0] * 3
    sizes = [1] * 5 + [2, 1, 3] + [1] * 3
    versions = [0] * 7 + [1] + [0] * 3
    n = len(docs)
    trace = Trace(
        timestamps=np.arange(n, dtype=np.float64),
        clients=np.zeros(n, dtype=np.int64),
        docs=np.array(docs),
        sizes=np.array(sizes),
        versions=np.array(versions),
        name="refused-refresh",
    )
    grid = CapacityGrid((0.1,), (1,), (2,))
    analysis = compute_mrc(trace, grid, organizations=tuple(MRC_EXACT_ORGANIZATIONS))
    for org in MRC_EXACT_ORGANIZATIONS:
        replay = simulate(
            trace, org, SimulationConfig(proxy_capacity=1, browser_capacity=2)
        )
        assert analysis.predict(org, 0.1).hit_ratio == replay.hit_ratio


# -- monotonicity ------------------------------------------------------


@given(trace=traces(), capacities=st.lists(st.integers(0, 10_000), min_size=2, max_size=30))
def test_every_size_curve_monotone_non_decreasing(trace, capacities):
    grid = CapacityGrid((0.1,), (1_000,), (500,))
    analysis = compute_mrc(trace, grid)
    for curve in (analysis.proxy_curve, analysis.browser_curve):
        assert curve is not None
        points = curve.curve(sorted(capacities))
        for (_, h0, b0), (_, h1, b1) in zip(points, points[1:]):
            assert h1 >= h0
            assert b1 >= b0


@pytest.mark.parametrize(
    "org", sorted(MRC_EXACT_ORGANIZATIONS, key=lambda o: o.value)
)
def test_pure_lru_replay_never_loses_hits_as_capacity_grows(small_trace, org):
    """LRU is a stack algorithm: a larger cache holds everything a
    smaller one does, which is what makes the one-pass MRC exact for
    these organizations.  So the replay engine's hit and byte hit
    ratios never fall as the proxy (and, at minimum sizing, browser)
    capacity grows."""
    replays = [
        simulate(small_trace, org, SimulationConfig.relative(small_trace, frac))
        for frac in (0.01, 0.03, 0.1, 0.3, 1.0)
    ]
    for small, large in zip(replays, replays[1:]):
        assert large.hit_ratio >= small.hit_ratio
        assert large.byte_hit_ratio >= small.byte_hit_ratio
    assert replays[-1].hit_ratio > replays[0].hit_ratio


# -- sampler determinism and identity ----------------------------------


@given(
    rate=st.floats(0.001, 1.0),
    seed=st.integers(0, 2**32),
    docs=st.lists(st.integers(0, 2**40), min_size=1, max_size=200),
)
def test_sampler_deterministic_per_seed_and_rate(rate, seed, docs):
    a = SpatialSampler(rate, seed=seed)
    b = SpatialSampler(rate, seed=seed)
    arr = np.array(docs, dtype=np.int64)
    mask_a = a.mask(arr)
    assert np.array_equal(mask_a, b.mask(arr))
    # scalar and vectorised decisions agree element-wise
    assert [a.keep(d) for d in docs] == mask_a.tolist()
    # decisions are per-document: duplicates always agree
    decisions = dict(zip(docs, mask_a.tolist()))
    assert all(decisions[d] == kept for d, kept in zip(docs, mask_a.tolist()))


@given(trace=traces(), seed=st.integers(0, 2**16))
def test_sample_rate_one_bit_identical_to_unsampled(trace, seed):
    grid = CapacityGrid((0.1, 0.2), (400, 2_000), (150, 900))
    full = compute_mrc(trace, grid)
    one = compute_mrc(trace, grid, sample_rate=1.0, sample_seed=seed)
    assert full.counts == one.counts
    assert full.hit_bytes == one.hit_bytes
    assert full.n_requests == one.n_requests
    assert full.total_bytes == one.total_bytes
    for a, b in ((full.proxy_curve, one.proxy_curve), (full.browser_curve, one.browser_curve)):
        assert np.array_equal(a.required, b.required)
        assert np.array_equal(a.cum_hits, b.cum_hits)
        assert np.array_equal(a.cum_hit_bytes, b.cum_hit_bytes)


@given(
    chunks=st.tuples(st.integers(1, 701), st.integers(1, 701)),
    rate=st.sampled_from((0.25, 0.5, 0.9)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=10, deadline=None)
def test_sampled_pass_chunk_size_invariant_from_stream(chunks, rate, seed):
    cfg = SyntheticTraceConfig(n_requests=700, n_clients=5, name="chunk-inv")
    grid_source = TraceStream(cfg, seed=1, chunk_rows=256)
    grid = capacity_grid(grid_source, (0.01, 0.1))
    results = [
        compute_mrc(
            TraceStream(cfg, seed=1, chunk_rows=chunk),
            grid,
            sample_rate=rate,
            sample_seed=seed,
        )
        for chunk in chunks
    ]
    a, b = results
    assert a.n_requests == b.n_requests
    assert a.counts == b.counts
    assert a.hit_bytes == b.hit_bytes


# -- non-hypothesis spot checks ----------------------------------------


def test_sample_trace_keeps_whole_documents(small_trace):
    sampled = sample_trace(small_trace, 0.3, seed=5)
    kept = set(sampled.docs.tolist())
    dropped = set(small_trace.docs.tolist()) - kept
    sampler = SpatialSampler(0.3, seed=5)
    assert all(sampler.keep(d) for d in kept)
    assert not any(sampler.keep(d) for d in dropped)
    # every request for a kept document survives
    expected = sum(1 for d in small_trace.docs.tolist() if d in kept)
    assert len(sampled) == expected


def test_sampler_rejects_bad_rates():
    with pytest.raises(ValueError):
        SpatialSampler(0.0)
    with pytest.raises(ValueError):
        SpatialSampler(1.2)
    with pytest.raises(ValueError):
        SpatialSampler(1e-9)  # quantises to an empty sample at MOD=2**24
    with pytest.raises(ValueError):
        compute_mrc(None, CapacityGrid((0.1,), (1,), (1,)), sample_rate=0.0)


def test_sampler_effective_rate_quantisation():
    sampler = SpatialSampler(0.05, seed=1)
    assert abs(sampler.effective_rate - 0.05) < 6e-8
    assert SpatialSampler(1.0).effective_rate == 1.0


def test_build_sample_report_quantifies_estimator(small_trace):
    grid = capacity_grid(small_trace, (0.05, 0.2))
    full = compute_mrc(small_trace, grid)
    report = build_sample_report(small_trace, grid, 0.5, seed=3, full_mrc=full)
    assert report.trace_name == small_trace.name
    assert report.sample_rate == 0.5
    assert 0 < report.n_requests_sampled < report.n_requests_full
    assert len(report.rows) == len(full.organizations) * len(grid.fractions)
    for row in report.rows:
        assert row.hit_error == pytest.approx(
            row.sampled_hit_ratio - row.full_hit_ratio
        )
        assert row.byte_hit_error == pytest.approx(
            row.sampled_byte_hit_ratio - row.full_byte_hit_ratio
        )
    worst = report.worst()
    assert abs(worst.hit_error) == report.max_abs_hit_error
    assert "max |hit-ratio error|" in report.summary()
    # full_mrc precomputation is an optimisation, not a semantic change
    recomputed = build_sample_report(small_trace, grid, 0.5, seed=3)
    assert recomputed == report
    # the documented per-rate bounds exist and are sane
    assert set(SAMPLE_ERROR_BOUNDS) >= {0.01, 0.05, 0.10}
    assert all(0 < bound < 1 for bound in SAMPLE_ERROR_BOUNDS.values())


def test_predict_rejects_unanalysed_organization(small_trace):
    grid = capacity_grid(small_trace, (0.05,))
    analysis = compute_mrc(
        small_trace, grid, organizations=(Organization.PROXY_ONLY,)
    )
    with pytest.raises(KeyError):
        analysis.predict(Organization.BROWSERS_AWARE_PROXY, 0.05)
    with pytest.raises(KeyError):
        analysis.predict(Organization.PROXY_ONLY, 0.42)


def test_mrc_sweep_small_trace_exact_orgs(small_trace):
    """End-to-end through run_policy_sweep: the mrc=True fast path
    reproduces replays bit-exactly for the pure-LRU organizations on
    the shared fixture trace at the paper's grid."""
    from repro.core.sweep import run_policy_sweep

    mrc_sweep = run_policy_sweep(
        small_trace, organizations=tuple(MRC_EXACT_ORGANIZATIONS), mrc=True
    )
    replay_sweep = run_policy_sweep(
        small_trace, organizations=tuple(MRC_EXACT_ORGANIZATIONS)
    )
    assert mrc_sweep.timing.mrc_points == len(MRC_EXACT_ORGANIZATIONS) * len(
        PAPER_SIZE_FRACTIONS
    )
    assert mrc_sweep.timing.replays_avoided == mrc_sweep.timing.mrc_points - 1
    assert mrc_sweep.timing.full_replays == 0
    assert replay_sweep.timing.mrc_points == 0
    for org in MRC_EXACT_ORGANIZATIONS:
        for frac in PAPER_SIZE_FRACTIONS:
            got = mrc_sweep.get(org, frac)
            want = replay_sweep.get(org, frac)
            assert got.hit_ratio == pytest.approx(want.hit_ratio, abs=1e-12)
            assert got.byte_hit_ratio == pytest.approx(
                want.byte_hit_ratio, abs=1e-12
            )
